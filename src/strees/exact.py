"""Exact linear algebra over the rationals, plus the brute-force oracle.

Everything here is exact: integer arithmetic in the elimination core
(fraction-free, each update cancelling the pivot by gcd multipliers, with
no division), Fractions only at the edges. No floats anywhere in the package.

Matrices are sparse: each row is a dict {column label: value}. Pivots are
chosen by a cheapest-row heuristic (fewest nonzeros, then smallest leading
column), which on tree adjacency matrices mirrors leaf stripping and keeps
fill-in near zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DomainMismatch, EmptyBasis, TooLarge
from .tree import Tree, VertexVector, per_tree

Row = dict[int, int]


def _integer_rows(rows: Iterable[dict[int, Fraction | int]]) -> list[Row]:
    """Clear denominators row by row; scaling rows keeps rank and kernel."""
    out: list[Row] = []
    for r in rows:
        denom = 1
        for c in r.values():
            if isinstance(c, Fraction):
                denom = denom * c.denominator // gcd(denom, c.denominator)
        row: Row = {}
        for j, c in r.items():
            v = int(c * denom)
            if v:
                row[j] = v
        out.append(row)
    return out


def _eliminate(rows: list[Row]) -> tuple[list[tuple[int, Row]], int]:
    """Fraction-free forward elimination.

    Returns (pivots, rank) where pivots is the list of (pivot column,
    eliminated row) in elimination order; each returned row is already
    reduced against all earlier pivots. Rows are consumed destructively.
    """
    active = [r for r in rows if r]
    pivots: list[tuple[int, Row]] = []
    while active:
        best = min(range(len(active)), key=lambda i: (len(active[i]), min(active[i]), i))
        prow = active.pop(best)
        pc = min(prow)  # smallest column of the cheapest row
        piv = prow[pc]
        nxt: list[Row] = []
        for r in active:
            x = r.get(pc)
            if x is None:
                nxt.append(r)
                continue
            g = gcd(piv, x)
            a, b = piv // g, x // g
            new: Row = {}
            for j in r.keys() | prow.keys():
                if j == pc:
                    continue
                val = a * r.get(j, 0) - b * prow.get(j, 0)
                if val:
                    new[j] = val
            if new:
                nxt.append(new)
        active = nxt
        pivots.append((pc, prow))
    return pivots, len(pivots)


def _kernel_rows(rows: list[Row], col_labels: Sequence[int]) -> list[dict[int, int]]:
    """Primitive integer kernel basis of the row system, one per free column.

    The vector for free column f has a positive entry at f and zeros at every
    other free column, i.e. the reduced-echelon complement up to the positive
    integer scaling that keeps entries integral.
    """
    pivots, _ = _eliminate(rows)
    pivot_cols = [pc for pc, _ in pivots]
    pivot_set = set(pivot_cols)
    free = [c for c in col_labels if c not in pivot_set]
    basis: list[dict[int, int]] = []
    for f in free:
        x: dict[int, Fraction | int] = {f: 1}
        for pc, prow in reversed(pivots):
            s = sum(c * x.get(j, 0) for j, c in prow.items() if j != pc)
            if s:
                x[pc] = Fraction(-s, prow[pc])
        denom = 1
        for c in x.values():
            if isinstance(c, Fraction):
                denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = {j: int(c * denom) for j, c in x.items() if c}
        g = 0
        for c in ints.values():
            g = gcd(g, abs(c))
        if g > 1:
            ints = {j: c // g for j, c in ints.items()}
        if ints[f] < 0:  # never happens with this construction, kept as a guard
            ints = {j: -c for j, c in ints.items()}
        basis.append(ints)
    return basis


@per_tree
def tree_kernel(t: Tree) -> tuple[VertexVector, ...]:
    """Kernel basis of the adjacency matrix, as vectors over the tree."""
    rows = [{w: 1 for w in t.adj[v]} for v in t.vertices]
    return tuple(
        VertexVector(t.vertices, b) for b in _kernel_rows(rows, t.vertices)
    )


def tree_rank(t: Tree) -> int:
    return t.order - len(tree_kernel(t))


def in_adjacency_kernel(t: Tree, x: VertexVector) -> bool:
    """Exact check that A(t) x = 0, summed from supp x into the rows next to it."""
    if x.domain != t.vertices:
        raise DomainMismatch("vector is not indexed by this tree")
    rows: dict[int, Fraction | int] = {}
    for v, c in x.entries.items():
        for w in t.adj[v]:
            rows[w] = rows.get(w, 0) + c
    return not any(rows.values())


def in_column_space(t: Tree, vectors: Sequence[VertexVector]) -> bool:
    """Exact check that every vector lies in the column space of A(t).

    A(t) is symmetric, so its column space is the orthogonal complement of
    its kernel: a vector belongs exactly when it is orthogonal to every
    vector of the tree's kernel basis.
    """
    at: dict[int, list[tuple[int, int]]] = {}
    for i, k in enumerate(tree_kernel(t)):
        for v, c in k.entries.items():
            at.setdefault(v, []).append((i, c))
    for x in vectors:
        if x.domain != t.vertices:
            raise DomainMismatch("vector is not indexed by this tree")
        dots: dict[int, Fraction | int] = {}
        for v, c in x.entries.items():
            for i, ci in at.get(v, ()):
                dots[i] = dots.get(i, 0) + c * ci
        if any(dots.values()):
            return False
    return True


def column_space_vectors(t: Tree) -> tuple[VertexVector, ...]:
    """Columns of the adjacency matrix as vectors over the tree."""
    return tuple(
        VertexVector.indicator(t.vertices, t.adj[v]) for v in t.vertices
    )


def _vector_rows(vectors: Sequence[VertexVector]) -> list[Row]:
    return _integer_rows([v.entries for v in vectors])


def rank_of_vectors(vectors: Sequence[VertexVector]) -> int:
    _, r = _eliminate(_vector_rows(vectors))
    return r


def span_equal(a: Sequence[VertexVector], b: Sequence[VertexVector]) -> bool:
    """Exact equality of the spans of two vector families over one domain."""
    doms = {v.domain for v in a} | {v.domain for v in b}
    if len(doms) > 1:
        raise DomainMismatch("span comparison needs a common domain")
    ra = rank_of_vectors(a)
    rb = rank_of_vectors(b)
    if ra != rb:
        return False
    _, rab = _eliminate(_vector_rows(list(a) + list(b)))
    return rab == ra


def full_support_vector(vectors: Sequence[VertexVector]) -> VertexVector:
    """A combination whose support is the union of the inputs' supports.

    Greedy: fold the vectors in order, each time taking the smallest positive
    integer multiple that cancels nothing on the accumulated support. All
    coefficients stay positive integers, so the result is deterministic.
    """
    vectors = list(vectors)
    if not vectors:
        raise EmptyBasis("no vectors given")
    doms = {v.domain for v in vectors}
    if len(doms) > 1:
        raise DomainMismatch("vectors must share a domain")
    acc = dict(vectors[0].entries)
    for v in vectors[1:]:
        target = set(acc) | set(v.entries)
        c = 1
        while any(acc.get(u, 0) + c * v.entries.get(u, 0) == 0 for u in target):
            c += 1
        for u, val in v.entries.items():
            acc[u] = acc.get(u, 0) + c * val
    return VertexVector(vectors[0].domain, acc)


# -- brute-force oracle ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Everything the exhaustive sweeps know about a small tree."""

    order: int
    matching_number: int
    maximum_matchings: tuple[tuple[tuple[int, int], ...], ...]
    maximum_independent_sets: tuple[tuple[int, ...], ...]
    minimum_vertex_covers: tuple[tuple[int, ...], ...]
    minimum_dominating_sets: tuple[tuple[int, ...], ...]

    @property
    def max_matching_count(self) -> int:
        return len(self.maximum_matchings)

    @property
    def independence_number(self) -> int:
        return len(self.maximum_independent_sets[0])

    @property
    def vertex_cover_number(self) -> int:
        return len(self.minimum_vertex_covers[0])

    @property
    def domination_number(self) -> int:
        return len(self.minimum_dominating_sets[0])


def brute_force(t: Tree, limit: int = 16) -> OracleReport:
    """Exhaustive enumeration of extremal structures; refuses big inputs.

    One sweep over vertex subsets yields the independent sets, vertex covers,
    and dominating sets; a recursive sweep over edges yields all maximum
    matchings.
    """
    n = t.order
    if n > limit:
        raise TooLarge(f"{n} vertices exceeds the brute-force limit {limit}")
    verts = t.vertices
    pos = {v: i for i, v in enumerate(verts)}
    nbr_mask = [0] * n
    for v in verts:
        m = 0
        for w in t.adj[v]:
            m |= 1 << pos[w]
        nbr_mask[pos[v]] = m
    full = (1 << n) - 1
    edges = t.edges()
    edge_masks = [(1 << pos[u]) | (1 << pos[v]) for u, v in edges]

    best_is: list[int] = []
    best_dom: list[int] = []
    is_size = -1
    dom_size = n + 1
    for mask in range(1 << n):
        bits = mask.bit_count()
        # independence / cover only need one adjacency pass
        independent = True
        covered = 0
        closed = mask
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if nbr_mask[i] & mask:
                independent = False
            closed |= nbr_mask[i]
            m ^= low
        if independent:
            if bits > is_size:
                is_size = bits
                best_is = [mask]
            elif bits == is_size:
                best_is.append(mask)
            # complement of an independent set is a vertex cover and vice versa
        if closed == full:
            if bits < dom_size:
                dom_size = bits
                best_dom = [mask]
            elif bits == dom_size:
                best_dom.append(mask)
    # vertex covers are complements of independent sets
    best_vc = [full ^ m for m in best_is]

    # all maximum matchings by recursion over the edge list
    best: list[list[int]] = []
    best_size = 0

    def extend(idx: int, used: int, chosen: list[int]) -> None:
        nonlocal best, best_size
        remaining = len(edge_masks) - idx
        if len(chosen) + remaining < best_size:
            return
        if idx == len(edge_masks):
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = [chosen.copy()]
            elif len(chosen) == best_size:
                best.append(chosen.copy())
            return
        em = edge_masks[idx]
        if not em & used:
            chosen.append(idx)
            extend(idx + 1, used | em, chosen)
            chosen.pop()
        extend(idx + 1, used, chosen)

    extend(0, 0, [])

    def unmask(mask: int) -> tuple[int, ...]:
        return tuple(verts[i] for i in range(n) if mask >> i & 1)

    matchings = tuple(
        sorted(
            (tuple(edges[i] for i in ch) for ch in best),
        )
    )
    return OracleReport(
        order=n,
        matching_number=best_size,
        maximum_matchings=matchings,
        maximum_independent_sets=tuple(sorted(unmask(m) for m in best_is)),
        minimum_vertex_covers=tuple(sorted(unmask(m) for m in best_vc)),
        minimum_dominating_sets=tuple(sorted(unmask(m) for m in best_dom)),
    )
