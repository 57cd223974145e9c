"""Structure operations: stellare, coalescence, and splitting.

stellare(t, ks) hangs ks[i] >= 2 fresh pendant vertices on the i-th vertex of
t (sorted order) and maps each vertex of t to its pendants; the result is
always a support tree whose core is V(t) and whose support is the pendants.
stellare_bases takes its range basis, and proof, from the tree's range family.

s_coalescence identifies one supported vertex of each part into a single
fresh star vertex. split_at_support inverts it: splitting a support tree at
an internal supported vertex v yields one part per neighbor, each carrying a
fresh copy of v. split_fully cuts every internal supported vertex; both
splits are the same one-pass cut, at one vertex or at all of them.

stellare_invariants, coalescence_invariants, split_at_support and
split_fully check their closed forms as rows of one identity table
(identities.require), so a failure names every failed identity with both
sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import exact, matching
from .bases import _range_family
from .decomposition import classify, support_core
from .errors import (
    BadArity,
    KTooSmall,
    NotInternalSupport,
    NotSTree,
    NotSupported,
    SpanMismatch,
)
from .identities import Row, require
from .tree import Edge, Tree, VertexVector, components


@dataclass(frozen=True, eq=False)
class StellareResult:
    tree: Tree
    pendants: dict[int, tuple[int, ...]]  # base vertex -> its new pendants, ascending
    arities: tuple[int, ...]

    def pendants_of(self, base: int) -> tuple[int, ...]:
        return self.pendants.get(base, ())


def stellare(t: Tree, ks: Sequence[int]) -> StellareResult:
    """Attach ks[i] pendants to the i-th smallest vertex of t.

    New pendant ids are allocated above max(V(t)) deterministically; the
    pendants map is the contract for locating them, not the numeric formula.
    """
    if len(ks) != t.order:
        raise BadArity(f"need {t.order} arities, got {len(ks)}")
    for k in ks:
        if not isinstance(k, int) or isinstance(k, bool):
            raise BadArity(f"arities must be integers, got {k!r}")
        if k < 2:
            raise KTooSmall(f"every arity must be >= 2, got {k}")
    base_id = max(t.vertices) + 1
    k_max = max(ks)
    pendants: dict[int, tuple[int, ...]] = {}
    edges: list[Edge] = list(t.edges())
    for i, v in enumerate(t.vertices):
        first = base_id + i * k_max
        pendants[v] = tuple(range(first, first + ks[i]))
        edges.extend((v, p) for p in pendants[v])
    out = Tree(edges, vertices=t.vertices)
    return StellareResult(tree=out, pendants=pendants, arities=tuple(ks))


@dataclass(frozen=True)
class StellareReport:
    order: int
    nullity: int
    rank: int
    independence_number: int
    matching_number: int
    max_matching_count: int
    domination_number: int
    core: tuple[int, ...]
    support: tuple[int, ...]


def stellare_invariants(t: Tree, ks: Sequence[int]) -> StellareReport:
    """Build the stellare and verify all its closed-form identities.

    nullity = sum(ks) - n, rank = 2n, independence = sum(ks), matching = n,
    matching count = prod(ks), domination = n, core = V(t), support = the
    pendants. Raises FormulaMismatch on any disagreement with the direct
    computation.
    """
    res = stellare(t, ks)
    big = res.tree
    n = t.order
    total = sum(ks)
    rank = exact.tree_rank(big)
    sc = support_core(big)
    nu, m_count = matching.matching_number_and_count(big)
    alpha = matching.independence_number(big)
    gamma = matching.domination_number(big)
    prod = math.prod(ks)
    pendants = tuple(sorted(set(big.vertices) - set(t.vertices)))
    require(
        ("nullity_is_arity_sum_minus_order", big.order - rank, total - n),
        ("rank_is_twice_order", rank, 2 * n),
        ("independence_is_arity_sum", alpha, total),
        ("matching_is_order", nu, n),
        ("matching_count_is_arity_product", m_count, prod),
        ("domination_is_order", gamma, n),
        ("core_is_base_vertices", sc.core, t.vertices),
        ("support_is_pendants", sc.support, pendants),
    )
    return StellareReport(
        order=big.order,
        nullity=total - n,
        rank=2 * n,
        independence_number=total,
        matching_number=n,
        max_matching_count=prod,
        domination_number=n,
        core=sc.core,
        support=sc.support,
    )


@dataclass(frozen=True, eq=False)
class StellareBases:
    tree: Tree
    null_vectors: tuple[VertexVector, ...]
    range_vectors: tuple[VertexVector, ...]


def stellare_bases(t: Tree, ks: Sequence[int]) -> StellareBases:
    """Closed-form null and range bases of the stellare, verified exactly.

    Null space: for each base vertex, first pendant minus each later pendant,
    proven a basis with no elimination: each vector solves the kernel
    equations, there are order - 2*nu of them, and they peel. Range: the
    stellare is a support tree with core V(t) and support the pendants, so
    the tree's own range family, proven by count, membership and peeling,
    is for each base vertex v in order the unit vector e_v and the
    indicator of v's pendants. A failure raises SpanMismatch.
    """
    res = stellare(t, ks)
    big = res.tree
    dom = big.vertices
    null_vecs: list[VertexVector] = []
    for v in t.vertices:
        ps = res.pendants_of(v)
        for other in ps[1:]:
            null_vecs.append(VertexVector(dom, {ps[0]: 1, other: -1}))
    for x in null_vecs:
        if not exact.in_adjacency_kernel(big, x):
            raise SpanMismatch("null vector fails the kernel equations")
    nullity = big.order - 2 * matching.deficient_set(big)[1]
    if len(null_vecs) != nullity:
        raise SpanMismatch(f"{len(null_vecs)} vectors for a space of dimension {nullity}")
    exact.peel_independent(null_vecs)
    return StellareBases(
        tree=big,
        null_vectors=tuple(null_vecs),
        range_vectors=tuple(x for x, _ in _range_family(big)),
    )


@dataclass(frozen=True, eq=False)
class CoalescencePlan:
    """Parts to merge: each is a tree plus the supported vertex to identify."""

    parts: tuple[tuple[Tree, int], ...]


@dataclass(frozen=True, eq=False)
class CoalescenceResult:
    tree: Tree
    star_vertex: int
    relabel: dict[tuple[int, int], int]  # (part index, old id) -> new id


def s_coalescence(plan: CoalescencePlan) -> CoalescenceResult:
    """Identify the attach vertices of all parts into one fresh vertex.

    Parts are first relabeled onto disjoint id ranges (part p shifts by
    p * stride); the star vertex gets the next id above them all. Each attach
    vertex must be supported in its part.
    """
    if not plan.parts:
        raise NotSupported("a coalescence needs at least one part")
    for idx, (part, attach) in enumerate(plan.parts):
        if not isinstance(attach, int) or isinstance(attach, bool):
            raise NotSupported(f"part {idx}: attach vertex must be an integer, got {attach!r}")
        if attach not in part:
            raise NotSupported(f"part {idx}: attach vertex {attach!r} not in part")
        sc = support_core(part)
        if attach not in sc.support:
            raise NotSupported(
                f"part {idx}: attach vertex {attach} is not supported"
            )
    stride = max(max(part.vertices) for part, _ in plan.parts) + 1
    star = stride * len(plan.parts)
    relabel: dict[tuple[int, int], int] = {}
    edges: list[Edge] = []
    for idx, (part, attach) in enumerate(plan.parts):
        off = idx * stride
        for v in part.vertices:
            relabel[(idx, v)] = star if v == attach else v + off
        for u, v in part.edges():
            edges.append((relabel[(idx, u)], relabel[(idx, v)]))
    out = Tree(edges, vertices=[star])
    return CoalescenceResult(tree=out, star_vertex=star, relabel=relabel)


@dataclass(frozen=True)
class CoalescenceReport:
    order: int
    star_vertex: int
    core: tuple[int, ...]
    support: tuple[int, ...]
    nullity: int
    rank: int
    matching_number: int
    max_matching_count: int
    independence_number: int


def coalescence_invariants(plan: CoalescencePlan) -> CoalescenceReport:
    """Coalesce and verify the identities against the parts.

    With k parts: core is the disjoint union of the parts' cores (sizes add);
    support is the star vertex plus the parts' supports minus the attach
    vertices (sizes give 1 - k + sum); rank and matching number add; nullity
    and independence follow the same 1 - k + sum pattern; the matching count
    drops strictly below the product for k >= 2. Every part must itself be a
    support tree.
    """
    for idx, (part, _) in enumerate(plan.parts):
        if not classify(part).is_support_tree:
            raise NotSTree(f"part {idx} is not a support tree")
    res = s_coalescence(plan)
    big = res.tree
    k = len(plan.parts)
    part_scs = [support_core(part) for part, _ in plan.parts]
    part_reports = [matching.matching_number_and_count(part) for part, _ in plan.parts]
    part_nullities = [part.order - exact.tree_rank(part) for part, _ in plan.parts]
    part_alphas = [matching.independence_number(part) for part, _ in plan.parts]

    sc = support_core(big)
    nu, m_count = matching.matching_number_and_count(big)
    alpha = matching.independence_number(big)
    rank = exact.tree_rank(big)
    nullity = big.order - rank

    expect_core = sorted(
        res.relabel[(idx, v)]
        for idx, (part, _) in enumerate(plan.parts)
        for v in part_scs[idx].core
    )
    expect_supp = sorted(
        {res.star_vertex}
        | {
            res.relabel[(idx, v)]
            for idx, (part, attach) in enumerate(plan.parts)
            for v in part_scs[idx].support
            if v != attach
        }
    )
    prod = math.prod(c for _, c in part_reports)
    require(
        ("core_is_union_of_part_cores", list(sc.core), expect_core),
        ("support_is_star_plus_part_supports", list(sc.support), expect_supp),
        ("support_size_formula", sc.support_size, 1 - k + sum(p.support_size for p in part_scs)),
        ("core_sizes_add", sc.core_size, sum(p.core_size for p in part_scs)),
        ("rank_adds", rank, sum(part.order for part, _ in plan.parts) - sum(part_nullities)),
        ("nullity_formula", nullity, 1 - k + sum(part_nullities)),
        ("matching_number_adds", nu, sum(r[0] for r in part_reports)),
        ("independence_formula", alpha, 1 - k + sum(part_alphas)),
        ("matching_count_below_product", m_count < prod, True)
        if k >= 2
        else ("single_part_matching_count", m_count, prod),
        ("result_is_support_tree", classify(big).is_support_tree, True),
    )
    return CoalescenceReport(
        order=big.order,
        star_vertex=res.star_vertex,
        core=sc.core,
        support=sc.support,
        nullity=nullity,
        rank=rank,
        matching_number=nu,
        max_matching_count=m_count,
        independence_number=alpha,
    )


def internal_support(t: Tree) -> tuple[int, ...]:
    """Supported vertices of degree at least two."""
    sc = support_core(t)
    return tuple(v for v in sc.support if t.degree(v) > 1)


def _cut(s: Tree, cuts: Sequence[int]) -> tuple[list[Tree], tuple[Row, Row]]:
    """Cut s at every vertex of cuts: each neighbour u of a cut v gets a fresh
    leaf copy of v, numbered upward from max(V(s)) in (v, ascending u) order.
    Returns the pieces, sorted by least vertex, and the rows they must meet.
    """
    top = fresh = max(s.vertices)
    adj = dict(s.adj)
    copies: dict[int, list[int]] = {}
    for v in cuts:
        for u in s.adj[v]:
            fresh += 1
            adj[fresh] = (u,)
            copies.setdefault(u, []).append(fresh)
    for u, fs in copies.items():
        adj[u] += tuple(fs)  # above every old id, so the list stays sorted
    pieces = components(adj, set(adj).difference(cuts))
    supported = {v for p in pieces for v in support_core(p).support}
    return pieces, (
        ("parts_are_support_trees", all(classify(p).is_support_tree for p in pieces), True),
        ("fresh_copies_supported", supported.issuperset(range(top + 1, fresh + 1)), True),
    )


def split_at_support(s: Tree, v: int) -> tuple[tuple[Tree, int], ...]:
    """Split a support tree at an internal supported vertex.

    The cut at v alone: one part per neighbor u of v, the subtree on u's
    side plus a fresh copy of v attached to u, the part's largest vertex.
    Returns (part, fresh copy) pairs in ascending u order; coalescing the
    parts at their fresh copies recovers s up to relabeling.
    """
    if not classify(s).is_support_tree:
        raise NotSTree("can only split a support tree")
    if v not in internal_support(s):
        raise NotInternalSupport(f"vertex {v} is not internal support")
    pieces, rows = _cut(s, (v,))
    require(*rows)
    return tuple(sorted(((p, p.vertices[-1]) for p in pieces), key=lambda pair: pair[1]))


def split_fully(s: Tree) -> tuple[Tree, ...]:
    """Split s at every internal supported vertex, in one pass.

    A split at one internal supported vertex keeps every other vertex's
    degree and role (the coalescence identities split_at_support checks), so
    splitting at the smallest one left until none is left cuts exactly
    internal_support(s). Here all are cut at once, and the pieces must hold
    no internal supported vertex.
    """
    if not classify(s).is_support_tree:
        raise NotSTree("can only split a support tree")
    pieces, rows = _cut(s, internal_support(s))
    require(
        *rows,
        ("no_internal_support_left", all(not internal_support(p) for p in pieces), True),
    )
    return tuple(pieces)
