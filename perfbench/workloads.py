"""Seeded inputs of the three workloads.

Every workload has the same request kinds, so every end-to-end metric is
measured on every workload; what differs is where the work lies:

- prufer-large: big uniform random trees and a path, small nullity, so the
  whole-tree elimination dominates.
- high-nullity: stars, caterpillars, spiders, nested stellare and
  coalescences of stellare pieces, nullity a large share of n, so basis
  construction dominates.
- sweep-labeled: 400 tiny random trees through every request kind, so
  per-call overhead dominates.

Every workload ends its pass with the sweep of all labeled trees up to order
SWEEP_K through the check battery. It is order 6, not 7: the order-7 sweep
takes 7 s, which leaves too few passes in a run for steady medians.

Sizes are fixed; the seed picks the trees and the labels within them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import check

TREE_COMMANDS = ("decompose", "null-basis", "range-basis", "invariants")
SWEEP_K = 6


@dataclass
class Request:
    kind: str  # a TREE_COMMANDS entry, "stellare-bases", "coalescence" or "sweep"
    order: int  # vertices of the tree the request works on; trees checked for a sweep
    tree: check.Tree | None = None  # input tree (stellare-bases: the base tree)
    argv: list[str] | None = None  # CLI arguments, for CLI requests
    call: object = None  # zero-argument callable, for ops requests
    ks: list[int] | None = None
    parts: list | None = None  # (check.Tree, attach) pairs of a coalescence
    k: int | None = None  # sweep order


@dataclass
class Inputs:
    trees: list[tuple[str, list[tuple[int, int]]]] = field(default_factory=list)
    stellare: list[tuple[object, list[int]]] = field(default_factory=list)  # (strees Tree, ks)
    coalescences: list[object] = field(default_factory=list)  # CoalescencePlan


def _relabel(edges, rng):
    verts = sorted({x for e in edges for x in e})
    perm = verts[:]
    rng.shuffle(perm)
    name = dict(zip(verts, perm))
    return [(name[u], name[v]) for u, v in edges]


def _ks(rng, n, total):
    """n arities, each at least 2, summing to total, spread at random."""
    ks = [2] * n
    for _ in range(total - 2 * n):
        ks[rng.randrange(n)] += 1
    return ks


def _stellare_pieces(st, rng, count, order, total):
    """Plan coalescing `count` stellare of random trees at random pendants."""
    parts = []
    for _ in range(count):
        base = st.generators.random_tree(order, rng.randrange(1 << 30))
        res = st.ops.stellare(base, _ks(rng, order, total))
        attach = rng.choice(res.pendants_of(rng.choice(base.vertices)))
        parts.append((res.tree, attach))
    return st.ops.CoalescencePlan(tuple(parts))


def prufer_large(st, rng) -> Inputs:
    inp = Inputs()
    for i, n in enumerate((1500, 1500)):
        t = st.generators.random_tree(n, rng.randrange(1 << 30))
        inp.trees.append((f"prufer{i}", list(t.edges())))
    inp.trees.append(("path", _relabel([(i, i + 1) for i in range(999)], rng)))
    base = st.generators.random_tree(60, rng.randrange(1 << 30))
    inp.stellare.append((base, _ks(rng, 60, 150)))
    inp.coalescences.append(_stellare_pieces(st, rng, 3, 15, 40))
    return inp


def high_nullity(st, rng) -> Inputs:
    inp = Inputs()
    inp.trees.append(("star", _relabel([(0, i) for i in range(1, 501)], rng)))
    spine, pendants = 200, 600
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for v, k in enumerate(_ks(rng, spine, pendants)):
        edges += [(v, nxt + j) for j in range(k)]
        nxt += k
    inp.trees.append(("caterpillar", _relabel(edges, rng)))
    legs = 250
    edges = []
    for leg in range(legs):
        a = 1 + 3 * leg
        edges += [(0, a), (a, a + 1), (a + 1, a + 2)]
    inp.trees.append(("spider", _relabel(edges, rng)))
    base = st.generators.random_tree(40, rng.randrange(1 << 30))
    inner = st.ops.stellare(base, _ks(rng, 40, 100)).tree
    ks = _ks(rng, inner.order, 2 * inner.order + 20)
    nested = st.ops.stellare(inner, ks).tree
    inp.trees.append(("nested-stellare", _relabel(list(nested.edges()), rng)))
    inp.stellare.append((inner, ks))
    plan = _stellare_pieces(st, rng, 6, 20, 50)
    merged = st.ops.s_coalescence(plan).tree
    inp.trees.append(("coalescence", _relabel(list(merged.edges()), rng)))
    inp.coalescences.append(plan)
    return inp


def sweep_labeled(st, rng) -> Inputs:
    inp = Inputs()
    for i in range(400):
        t = st.generators.random_tree(8 + i % 9, rng.randrange(1 << 30))
        inp.trees.append((f"tiny{i}", list(t.edges())))
    for i in range(8):
        base = st.generators.random_tree(3 + i % 3, rng.randrange(1 << 30))
        inp.stellare.append((base, _ks(rng, base.order, 3 * base.order)))
    for _ in range(4):
        inp.coalescences.append(_stellare_pieces(st, rng, 3, 2, 5))
    return inp


WORKLOADS = {
    "prufer-large": prufer_large,
    "high-nullity": high_nullity,
    "sweep-labeled": sweep_labeled,
}


def _check_tree(st_tree):
    return check.Tree(st_tree.vertices, st_tree.edges())


def build(st, workload: str, seed: int, workdir: str):
    """Make the workload's inputs: one pass of requests, and the tree files
    (path, text) that its CLI requests read from workdir.

    st is a namespace holding the freshly imported strees modules.
    """
    inp = WORKLOADS[workload](st, random.Random(seed))
    reqs: list[Request] = []
    files: list[tuple[str, str]] = []
    for name, edges in inp.trees:
        path = f"{workdir}/{name}.edges"
        files.append((path, "".join(f"{u} {v}\n" for u, v in edges)))
        tree = check.Tree({x for e in edges for x in e}, edges)
        for cmd in TREE_COMMANDS:
            reqs.append(Request(cmd, tree.n, tree=tree, argv=[cmd, path, "--format", "json"]))
    # ops are looked up at call time, so a traced run sees its wrappers
    for base, ks in inp.stellare:
        reqs.append(Request(
            "stellare-bases", base.order + sum(ks), tree=_check_tree(base), ks=ks,
            call=lambda base=base, ks=ks: st.ops.stellare_bases(base, ks),
        ))
    for plan in inp.coalescences:
        parts = [(_check_tree(p), a) for p, a in plan.parts]
        reqs.append(Request(
            "coalescence", sum(p.n for p, _ in parts) - len(parts) + 1, parts=parts,
            call=lambda plan=plan: st.ops.coalescence_invariants(plan),
        ))
    trees = sum(n ** (n - 2) if n >= 2 else 1 for n in range(1, SWEEP_K + 1))
    reqs.append(Request("sweep", trees, k=SWEEP_K,
                        argv=["verify", "--exhaustive-n", str(SWEEP_K), "--format", "json"]))
    return reqs, files
