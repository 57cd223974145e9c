"""Independent checker for the outputs the benchmark collects.

Nothing here imports strees. Every expected value is derived from the input
tree by separate, simple means:

- the matching number by leaf stripping (optimal on forests);
- nu(T - v) for every v by a rerooting DP, which gives the support: in a
  forest, v is supported exactly when deleting it keeps the matching number;
- the number of maximum matchings by a (size, count) tree DP;
- A.x straight from the edge list;
- the rank of a vector family by elimination modulo a large prime. The rank
  modulo p never exceeds the rank over the rationals, so full rank modulo p
  proves independence.

Each check raises CheckError with a message naming what failed.
"""

from __future__ import annotations

import json
from math import prod

P = (1 << 61) - 1


class CheckError(Exception):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


class Tree:
    """Adjacency lists of a tree given by its vertices and edges."""

    def __init__(self, vertices, edges):
        self.vertices = sorted(vertices)
        self.edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        self.adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        _require(len(self.adj) == len(self.vertices), "repeated vertex")
        _require(len(self.edges) == len(self.vertices) - 1, "not a tree: edge count")
        self.n = len(self.vertices)
        self._nu = None
        self._support = None

    def matching_number(self) -> int:
        """Leaf stripping: match each leaf to its only remaining neighbour."""
        if self._nu is None:
            deg = {v: len(a) for v, a in self.adj.items()}
            gone: set[int] = set()
            leaves = [v for v in self.vertices if deg[v] <= 1]
            nu = 0
            while leaves:
                v = leaves.pop()
                if v in gone:
                    continue
                gone.add(v)
                u = next((w for w in self.adj[v] if w not in gone), None)
                if u is None:
                    continue
                gone.add(u)
                nu += 1
                for w in self.adj[u]:
                    if w not in gone:
                        deg[w] -= 1
                        if deg[w] <= 1:
                            leaves.append(w)
            _require(len(gone) == self.n, "not a tree: leaf stripping stalled")
            self._nu = nu
        return self._nu

    def _rooted(self):
        root = self.vertices[0]
        parent = {root: None}
        order = [root]
        for v in order:
            for w in self.adj[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        _require(len(order) == self.n, "not a tree: disconnected")
        return root, parent, order

    def support(self) -> frozenset[int]:
        """Vertices v with nu(T - v) == nu(T), by rerooting the matching DP."""
        if self._support is None:
            root, parent, order = self._rooted()
            free: dict[int, int] = {}  # best matching of the subtree, v unmatched
            best: dict[int, int] = {}  # best matching of the subtree
            for v in reversed(order):
                kids = [w for w in self.adj[v] if parent.get(w) == v]
                free[v] = sum(best[c] for c in kids)
                gain = any(free[c] == best[c] for c in kids)
                best[v] = free[v] + (1 if gain else 0)
            # up[v]: (free, best) of T minus the subtree of v, rooted at parent(v)
            up: dict[int, tuple[int, int]] = {}
            nu_minus = {}
            for v in order:
                pieces = [(free[c], best[c], c) for c in self.adj[v] if parent.get(c) == v]
                if v in up:
                    pieces.append((up[v][0], up[v][1], None))
                total = sum(b for _, b, _ in pieces)
                gains = sum(1 for f, b, _ in pieces if f == b)
                nu_minus[v] = total
                for f, b, c in pieces:
                    if c is None:
                        continue
                    rest = total - b
                    up[c] = (rest, rest + (1 if gains - (f == b) > 0 else 0))
            nu = self.matching_number()
            _require(best[root] == nu, "matching DP disagrees with leaf stripping")
            self._support = frozenset(v for v in self.vertices if nu_minus[v] == nu)
        return self._support

    def core(self) -> frozenset[int]:
        s = self.support()
        return frozenset(w for v in s for w in self.adj[v]) - s

    def max_matching_count(self) -> int:
        root, parent, order = self._rooted()
        unm: dict[int, tuple[int, int]] = {}
        mat: dict[int, tuple[int, int]] = {}

        def merge(a, b):
            if a[0] != b[0]:
                return a if a[0] > b[0] else b
            return (a[0], a[1] + b[1])

        for v in reversed(order):
            kids = [w for w in self.adj[v] if parent.get(w) == v]
            bests = {c: merge(unm[c], mat[c]) for c in kids}
            size = sum(b[0] for b in bests.values())
            count = prod(b[1] for b in bests.values())
            unm[v] = (size, count)
            m = (-1, 0)
            for c in kids:
                m = merge(m, (1 + unm[c][0] + size - bests[c][0],
                              unm[c][1] * count // bests[c][1]))
            mat[v] = m
        return merge(unm[root], mat[root])[1]

    def times(self, x: dict[int, int]) -> dict[int, int]:
        """The nonzero entries of A.x."""
        acc: dict[int, int] = {}
        for u, c in x.items():
            for w in self.adj[u]:
                acc[w] = acc.get(w, 0) + c
        return {w: c for w, c in acc.items() if c}


def rank_mod_p(vectors) -> int:
    """Rank of sparse integer vectors modulo P, by incremental elimination.

    A stored row has its pivot at its smallest column with entry 1, so
    reducing against it only touches larger columns and the loop ends.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        row = {k: v % P for k, v in vec.items() if v % P}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], P - 2, P)
                pivots[c] = {k: v * inv % P for k, v in row.items()}
                break
            f = row[c]
            for k, v in prow.items():
                nv = (row.get(k, 0) - f * v) % P
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def _signed_vectors(t: Tree, raw, what: str) -> list[dict[int, int]]:
    out = []
    for i, vec in enumerate(raw):
        x = {}
        for e in vec:
            v, c = e["vertex"], e["coeff"]
            _require(v in t.adj, f"{what} vector {i}: vertex {v} not in the tree")
            _require(v not in x, f"{what} vector {i}: vertex {v} repeated")
            _require(c in (1, -1), f"{what} vector {i}: entry {c} at {v} is not +-1")
            x[v] = c
        _require(bool(x), f"{what} vector {i} is zero")
        out.append(x)
    return out


def _independent(vectors, what: str) -> None:
    r = rank_mod_p(vectors)
    _require(r == len(vectors), f"{what} vectors are dependent: rank {r} of {len(vectors)}")


def check_null_basis(t: Tree, out: dict) -> list[dict[int, int]]:
    """Signed kernel vectors, n - 2nu of them, independent. Returns them."""
    vecs = _signed_vectors(t, out["vectors"], "null")
    for i, x in enumerate(vecs):
        _require(not t.times(x), f"null vector {i}: A.x != 0")
    want = t.n - 2 * t.matching_number()
    _require(len(vecs) == want, f"null basis has {len(vecs)} vectors, nullity is {want}")
    _independent(vecs, "null")
    return vecs


def check_range_basis(t: Tree, raw, null_vecs) -> None:
    """Signed vectors orthogonal to a verified kernel basis, 2nu of them, independent.

    A is symmetric, so its range is the orthogonal complement of its kernel.
    """
    vecs = _signed_vectors(t, raw, "range")
    want = 2 * t.matching_number()
    _require(len(vecs) == want, f"range basis has {len(vecs)} vectors, rank is {want}")
    at: dict[int, list[tuple[int, int]]] = {}
    for j, x in enumerate(null_vecs):
        for v, c in x.items():
            at.setdefault(v, []).append((j, c))
    for i, r in enumerate(vecs):
        dots: dict[int, int] = {}
        for v, c in r.items():
            for j, cj in at.get(v, ()):
                dots[j] = dots.get(j, 0) + c * cj
        bad = [j for j, d in dots.items() if d]
        _require(not bad, f"range vector {i} is not orthogonal to null vector {bad[:1]}")
    _independent(vecs, "range")


def check_decompose(t: Tree, out: dict, null_vecs=None) -> None:
    supp = t.support()
    if null_vecs is not None:
        union = frozenset(v for x in null_vecs for v in x)
        _require(union == supp, "kernel support disagrees with the matching criterion")
    _require(frozenset(out["support"]) == supp and len(out["support"]) == len(supp),
             "decompose: wrong support")
    _require(frozenset(out["core"]) == t.core() and len(out["core"]) == len(t.core()),
             "decompose: wrong core")
    closed = supp | t.core()
    parts = [frozenset(p) for p in out["support_parts"] + out["nonsingular_parts"]]
    _require(sum(len(p) for p in parts) == t.n and frozenset().union(*parts) == frozenset(t.vertices),
             "decompose: parts do not partition the vertices")
    _require(all(p <= closed for p in map(frozenset, out["support_parts"])),
             "decompose: a support part leaves N[support]")
    _require(not any(p & closed for p in map(frozenset, out["nonsingular_parts"])),
             "decompose: a nonsingular part meets N[support]")
    part_of = {v: i for i, p in enumerate(parts) for v in p}
    crossing = sorted(e for e in t.edges if part_of[e[0]] != part_of[e[1]])
    got = sorted((min(u, v), max(u, v)) for u, v in out["connection_edges"])
    _require(got == crossing, "decompose: wrong connection edges")


def check_invariants(t: Tree, out: dict) -> None:
    nu = t.matching_number()
    supp, core = t.support(), t.core()
    want = {
        "order": t.n,
        "rank": 2 * nu,
        "nullity": t.n - 2 * nu,
        "matching_number": nu,
        "independence_number": t.n - nu,
        "max_matching_count": t.max_matching_count(),
        "support_size": len(supp),
        "core_size": len(core),
        "nonsingular_vertex_count": t.n - len(supp) - len(core),
    }
    for k, v in want.items():
        _require(out.get(k) == v, f"invariants: {k} is {out.get(k)}, expected {v}")


def check_stellare_bases(base: Tree, ks, out: dict) -> None:
    """Closed forms: nullity sum(k) - n, rank 2n, matching n, count prod(k)."""
    n = base.n
    big = Tree(out["vertices"], out["edges"])
    pend = sorted(set(big.vertices) - set(base.vertices))
    _require(len(pend) == sum(ks), "stellare: wrong number of pendants")
    want_edges = set(base.edges)
    for v, k in zip(base.vertices, ks):
        mine = [w for w in big.adj[v] if w not in base.adj]
        _require(len(mine) == k, f"stellare: vertex {v} has {len(mine)} pendants, not {k}")
        want_edges.update((min(v, w), max(v, w)) for w in mine)
    _require(set(big.edges) == want_edges, "stellare: edges are not base edges plus pendants")
    null_vecs = check_null_basis(big, {"vectors": out["null"]})
    _require(len(null_vecs) == sum(ks) - n, "stellare: nullity is not sum(k) - n")
    check_range_basis(big, out["range"], null_vecs)
    _require(len(out["range"]) == 2 * n, "stellare: rank is not 2n")
    _require(big.matching_number() == n, "stellare: matching number is not n")
    _require(big.max_matching_count() == prod(ks), "stellare: matching count is not prod(k)")


def check_coalescence(parts, out: dict) -> None:
    """parts: (Tree, attach) pairs. Rank adds; nullity is 1 - k + sum."""
    k = len(parts)
    stride = max(max(p.vertices) for p, _ in parts) + 1
    star = stride * k
    edges = []
    for i, (p, attach) in enumerate(parts):
        _require(attach in p.support(), f"coalescence: attach vertex of part {i} is not supported")
        name = {v: star if v == attach else v + i * stride for v in p.vertices}
        edges += [(name[u], name[v]) for u, v in p.edges]
    big = Tree({x for e in edges for x in e} | {star}, edges)
    nu = big.matching_number()
    want = {
        "order": sum(p.n for p, _ in parts) - k + 1,
        "star_vertex": star,
        "rank": sum(2 * p.matching_number() for p, _ in parts),
        "nullity": 1 - k + sum(p.n - 2 * p.matching_number() for p, _ in parts),
        "matching_number": sum(p.matching_number() for p, _ in parts),
        "independence_number": big.n - nu,
        "max_matching_count": big.max_matching_count(),
        "support": sorted(big.support()),
        "core": sorted(big.core()),
    }
    _require(want["rank"] == 2 * nu and want["nullity"] == big.n - 2 * nu,
             "coalescence: closed forms disagree with the merged tree")
    for key, v in want.items():
        _require(out.get(key) == v, f"coalescence: {key} is {out.get(key)}, expected {v}")
    if k >= 2:
        _require(out["max_matching_count"] < prod(p.max_matching_count() for p, _ in parts),
                 "coalescence: matching count is not below the product")


def check_sweep(k: int, out: dict) -> None:
    total = sum(n ** (n - 2) if n >= 2 else 1 for n in range(1, k + 1))
    checks = out["checks"]
    _require(out["ok"] is True and len(checks) == 1, "sweep: not a single passing check")
    c = checks[0]
    _require(c["name"] == f"exhaustive_n_{k}" and c["ok"] is True, "sweep: wrong check")
    _require(c["detail"] == f"0 of {total} trees failed",
             f"sweep: {c['detail']!r}, expected 0 failures over {total} trees")


def check_request(req, text: str, null_vecs=None):
    """Check one request's output text. Returns the verified null vectors, if any."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as e:
        raise CheckError(f"output is not JSON: {e.msg}")
    if req.kind == "null-basis":
        return check_null_basis(req.tree, out)
    if req.kind == "range-basis":
        _require(null_vecs is not None, "range basis without a verified null basis")
        _require(len(out["roles"]) == len(out["vectors"]), "range basis: roles and vectors differ")
        check_range_basis(req.tree, out["vectors"], null_vecs)
    elif req.kind == "decompose":
        check_decompose(req.tree, out, null_vecs)
    elif req.kind == "invariants":
        check_invariants(req.tree, out)
    elif req.kind == "stellare-bases":
        check_stellare_bases(req.tree, req.ks, out)
    elif req.kind == "coalescence":
        check_coalescence(req.parts, out)
    elif req.kind == "sweep":
        check_sweep(req.k, out)
    else:
        raise CheckError(f"unknown request kind {req.kind!r}")
    return None
