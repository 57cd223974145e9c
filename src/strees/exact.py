"""Exact linear algebra over the rationals, plus the brute-force oracle.

Everything here is exact: integer arithmetic in the elimination core
(fraction-free, each update cancelling the pivot by gcd multipliers, with
no division), Fractions only at the edges. No floats anywhere in the package.

Matrices are sparse: each row is a dict {column label: value}. There is
one elimination, _eliminate. It takes zero-fill pivots first (Markowitz cost
(r-1)(c-1) = 0: a column with one live holder, or a live row with one
entry), which need no arithmetic at all, and on a tree's adjacency matrix
nothing else is ever needed. Only when none is left does it take the column
with the fewest holders and its shortest row. _rank, behind tree_rank,
rank_of_vectors and span_equal, counts its pivots. _kernel_rows, behind
tree_kernel, back-substitutes through them, visiting for each free column
only the pivots its kernel vector reaches.

The basis builders prove their families without eliminating anything:
peel_independent proves a family independent by a triangular submatrix,
and in_column_space_by_witness proves a vector in the column space from a
preimage and the set that holds the kernel's support. Elimination stays as
the independent oracle. The check battery certifies both bases without a
kernel: the null family by in_adjacency_kernel and a _rank equal to the
nullity from tree_rank, the range family by orthogonal_to_kernel against
that certified family and a _rank equal to tree_rank. tree_kernel,
span_equal, in_column_space and column_space_vectors stay as the oracle
that the tests and fixture_checks compare with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from typing import AbstractSet, Iterable, Sequence

from .errors import DomainMismatch, EmptyBasis, SpanMismatch, TooLarge
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


def _eliminate(rows: list[Row]) -> list[tuple[int, int, Row]]:
    """Fraction-free forward elimination; rows are consumed.

    Returns the pivots in elimination order, each as (pivot column, pivot
    value, the row as it retired without its pivot entry). A retiring row
    holds no earlier pivot column, so the pivots are triangular and
    _kernel_rows back-substitutes through them.

    Zero-fill pivots come first, from two worklists. A column held by one
    live row is a multiple of a unit vector, so that row and column retire
    together for one unit of rank, with no update. A live row with one entry
    is a multiple of a unit vector too, and its update only deletes that
    column from the other rows. Neither adds an entry anywhere. On a tree's
    adjacency matrix the incidence of rows and columns is a forest, which
    always has such a pivot, so no arithmetic runs at all.

    Otherwise the pivot column is one with the fewest live holders, from a
    heap built the first time it is needed. An entry is pushed whenever a
    column's count changes and is skipped when it no longer matches, so the
    valid entry on top is a true minimum. The pivot row is the column's
    shortest, and every other holder is updated by gcd multipliers, with no
    division, and loses the pivot column.
    """
    live: list[Row | None] = [r for r in rows if r]
    holders: dict[int, set[int]] = {}
    for i, r in enumerate(live):
        for j in r:
            holders.setdefault(j, set()).add(i)
    lone_cols = [j for j, h in holders.items() if len(h) == 1]
    short_rows = [i for i, r in enumerate(live) if len(r) == 1]
    heap: list[tuple[int, int]] | None = None
    pivots: list[tuple[int, int, Row]] = []
    while True:
        if lone_cols:
            c = lone_cols.pop()
            h = holders.get(c)
            if h is None or len(h) != 1:
                continue
            (p,) = h
            prow = live[p]
            live[p] = None
            del holders[c]
            pivots.append((c, prow.pop(c), prow))
            for j in prow:
                h = holders[j]
                h.discard(p)
                if len(h) == 1:
                    lone_cols.append(j)
                elif h and heap is not None:
                    heappush(heap, (len(h), j))
            continue
        if short_rows:
            p = short_rows.pop()
            prow = live[p]
            if prow is None or len(prow) != 1:
                continue
            (c,) = prow
            # the loop below deletes c from prow too, which leaves the row
            # as it retired, without its pivot entry
            pivots.append((c, prow[c], prow))
            for i in holders.pop(c):
                r = live[i]
                del r[c]
                if len(r) == 1:
                    short_rows.append(i)
                elif not r:
                    live[i] = None
            continue
        if heap is None:
            heap = [(len(h), j) for j, h in holders.items() if h]
            heapify(heap)
        while heap:
            k, c = heappop(heap)
            h = holders.get(c)
            if h is not None and len(h) == k:
                break
        else:
            return pivots
        p = min(h, key=lambda i: (len(live[i]), i))
        prow = live[p]
        live[p] = None
        del holders[c]
        piv = prow.pop(c)
        pivots.append((c, piv, prow))
        for i in h:
            if i == p:
                continue
            r = live[i]
            x = r.pop(c)
            g = gcd(piv, x)
            a, b = piv // g, x // g
            if a != 1:
                for j in r:
                    r[j] *= a
            for j, v in prow.items():
                y = r.get(j)
                if y is None:
                    r[j] = -b * v
                    holders[j].add(i)
                elif y == b * v:
                    del r[j]
                    holders[j].discard(i)
                else:
                    r[j] = y - b * v
            if len(r) == 1:
                short_rows.append(i)
            elif not r:
                live[i] = None
        for j in prow:
            h = holders[j]
            h.discard(p)
            if len(h) == 1:
                lone_cols.append(j)
            elif h:
                heappush(heap, (len(h), j))


def _rank(rows: list[Row]) -> int:
    """Rank of the row system, by _eliminate; rows are consumed."""
    return len(_eliminate(rows))


def _kernel_rows(rows: list[Row], col_labels: Sequence[int]) -> list[dict[int, int]]:
    """Primitive integer kernel basis of the row system, one per free column.

    The vector for free column f has a positive entry at f and zeros at every
    other free column, i.e. the reduced-echelon complement up to the positive
    integer scaling that keeps entries integral.

    Back-substitution runs over _eliminate's pivots, latest first, and is
    sparse. Pivot k's row holds no earlier pivot column, so its entry of x
    can be nonzero only if its row holds a column already nonzero in x, and
    such a column is either f or the pivot column of a later pivot. So a
    max-heap of pivot positions, seeded from the pivots whose rows hold f
    and fed from those whose rows hold each new nonzero, visits exactly the
    pivots that matter, in decreasing order. Each dot product runs over the
    smaller of x and the pivot row.
    """
    pivots = _eliminate(rows)
    # column -> positions of the pivots whose rows hold it, negated so that
    # heapq, a min-heap, pops the latest pivot first
    uses: dict[int, list[int]] = {}
    for k, (_, _, prow) in enumerate(pivots):
        for j in prow:
            uses.setdefault(j, []).append(-k)
    pivot_set = {pc for pc, _, _ in pivots}
    free = [c for c in col_labels if c not in pivot_set]
    basis: list[dict[int, int]] = []
    for f in free:
        x: dict[int, Fraction | int] = {f: 1}
        todo = list(uses.get(f, ()))
        heapify(todo)
        last = 1  # no negated position
        while todo:
            k = heappop(todo)
            if k == last:
                continue
            last = k
            pc, piv, prow = pivots[-k]
            if len(x) < len(prow):
                s = sum(c * prow[j] for j, c in x.items() if j in prow)
            else:
                s = sum(c * x[j] for j, c in prow.items() if j in x)
            if s:
                x[pc] = Fraction(-s, piv)
                for k2 in uses.get(pc, ()):
                    heappush(todo, k2)
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
        basis.append(ints)
    return basis


@per_tree
def tree_kernel(t: Tree) -> tuple[VertexVector, ...]:
    """Kernel basis of the adjacency matrix, as vectors over the tree."""
    rows = [{w: 1 for w in t.adj[v]} for v in t.vertices]
    return tuple(
        VertexVector(t.vertices, b) for b in _kernel_rows(rows, t.vertices)
    )


@per_tree
def tree_rank(t: Tree) -> int:
    """Rank of the adjacency matrix, by _rank: leaf stripping, with no arithmetic."""
    return _rank([{w: 1 for w in t.adj[v]} for v in t.vertices])


def _same_domain(d: tuple[int, ...], e: tuple[int, ...]) -> bool:
    """Domain equality, in O(1) for the usual case of one shared tuple."""
    return d is e or d == e


def in_adjacency_kernel(t: Tree, x: VertexVector) -> bool:
    """Exact check that A(t) x = 0, summed from supp x into the rows next to it."""
    if not _same_domain(x.domain, t.vertices):
        raise DomainMismatch("vector is not indexed by this tree")
    rows: dict[int, Fraction | int] = {}
    for v, c in x.entries.items():
        for w in t.adj[v]:
            rows[w] = rows.get(w, 0) + c
    return not any(rows.values())


def in_column_space(t: Tree, vectors: Sequence[VertexVector]) -> bool:
    """Exact check that every vector lies in the column space of A(t), by
    orthogonality to the kernel basis that tree_kernel eliminates."""
    return orthogonal_to_kernel(t, tree_kernel(t), vectors)


def orthogonal_to_kernel(
    t: Tree, kernel: Sequence[VertexVector], vectors: Sequence[VertexVector]
) -> bool:
    """Exact check that every vector is orthogonal to every vector of `kernel`.

    A(t) is symmetric, so its column space is the orthogonal complement of
    its kernel: when `kernel` is a basis of the kernel of A(t), this is
    membership in the column space. Each vector costs the kernel entries
    that share a vertex with it.
    """
    at: dict[int, list[tuple[int, int]]] = {}
    for i, k in enumerate(kernel):
        for v, c in k.entries.items():
            at.setdefault(v, []).append((i, c))
    for x in vectors:
        if not _same_domain(x.domain, t.vertices):
            raise DomainMismatch("vector is not indexed by this tree")
        dots: dict[int, Fraction | int] = {}
        for v, c in x.entries.items():
            for i, ci in at.get(v, ()):
                dots[i] = dots.get(i, 0) + c * ci
        if any(dots.values()):
            return False
    return True


def in_column_space_by_witness(
    t: Tree, deficient: AbstractSet[int], x: VertexVector, preimage: int | None = None
) -> bool:
    """Whether x - A(t) y vanishes on `deficient`, for y = e_preimage (or 0).

    `deficient` must hold the support of every kernel vector of A(t); in a
    tree the matching D-set is exactly that support. Then x - A(t) y is
    orthogonal to the kernel, so it lies in the column space (A is
    symmetric), and so does x. Costs O(|supp x| + deg preimage).
    """
    if not _same_domain(x.domain, t.vertices):
        raise DomainMismatch("vector is not indexed by this tree")
    rest = {v: c for v, c in x.entries.items() if v in deficient}
    if preimage is not None:
        for w in t.adj[preimage]:
            if w in deficient:
                rest[w] = rest.get(w, 0) - 1
    return not any(rest.values())


def column_space_vectors(t: Tree) -> tuple[VertexVector, ...]:
    """Columns of the adjacency matrix as vectors over the tree."""
    dom = t.vertices
    return tuple(VertexVector._trusted(dom, dict.fromkeys(t.adj[v], 1)) for v in dom)


def _vector_rows(vectors: Sequence[VertexVector]) -> list[Row]:
    """Fresh integer rows; signed bases and kernel vectors are copied as they are."""
    if all(type(c) is int for v in vectors for c in v.entries.values()):
        return [dict(v.entries) for v in vectors]
    return _integer_rows([v.entries for v in vectors])


def rank_of_vectors(vectors: Sequence[VertexVector]) -> int:
    return _rank(_vector_rows(vectors))


def peel_independent(vectors: Sequence[VertexVector]) -> list[tuple[int, int]]:
    """Prove a family independent by peeling, with no elimination.

    Repeatedly retire a live vector that is the only live holder of some
    column. Say v_1, ..., v_m retire in that order, v_k through column c_k.
    Every vector retired after v_k was live when v_k retired, so it is zero
    at c_k; and c_k has no live holder afterwards, so the c_k are distinct.
    The submatrix of rows v_1..v_m and columns c_1..c_m is thus triangular
    with the nonzero entries v_k[c_k] on its diagonal, and the family is
    independent. Whether everything retires does not depend on the order,
    as a column whose only live holder is v keeps it until v retires. A set
    of live holders per column and a worklist of columns with one holder
    make this O(total support).

    Returns the (vector position, column) pairs in retirement order. Raises
    SpanMismatch if peeling stalls, which a dependent family always does and
    an independent one may; it never falls back to elimination.
    """
    if not all(_same_domain(x.domain, vectors[0].domain) for x in vectors):
        raise DomainMismatch("peeling needs a common domain")
    holders: dict[int, set[int]] = {}
    for i, x in enumerate(vectors):
        for v in x.entries:
            holders.setdefault(v, set()).add(i)
    todo = [v for v, h in holders.items() if len(h) == 1]
    order: list[tuple[int, int]] = []
    while todo:
        c = todo.pop()
        if len(holders[c]) != 1:
            continue
        (i,) = holders[c]
        order.append((i, c))
        for v in vectors[i].entries:
            h = holders[v]
            h.discard(i)
            if len(h) == 1:
                todo.append(v)
    if len(order) != len(vectors):
        raise SpanMismatch(
            f"peeling retired {len(order)} of {len(vectors)} vectors"
        )
    return order


def span_equal(a: Sequence[VertexVector], b: Sequence[VertexVector]) -> bool:
    """Exact equality of the spans of two vector families over one domain."""
    both = [*a, *b]
    if not all(_same_domain(v.domain, both[0].domain) for v in both):
        raise DomainMismatch("span comparison needs a common domain")
    ra = rank_of_vectors(a)
    rb = rank_of_vectors(b)
    if ra != rb:
        return False
    return rank_of_vectors(both) == ra


def full_support_vector(vectors: Sequence[VertexVector]) -> VertexVector:
    """A combination whose support is the union of the inputs' supports.

    Greedy: fold the vectors in order, each time taking the smallest positive
    integer multiple that cancels nothing on the accumulated support. All
    coefficients stay positive integers, so the result is deterministic.
    """
    vectors = list(vectors)
    if not vectors:
        raise EmptyBasis("no vectors given")
    if not all(_same_domain(v.domain, vectors[0].domain) for v in vectors):
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


def _masks(t: Tree) -> tuple[list[int], list[int]]:
    """Bitmasks over positions in t.vertices: each vertex's neighbours, and
    each edge's two ends in t.edges() order."""
    pos = {v: i for i, v in enumerate(t.vertices)}
    nbr = [0] * t.order
    ends = []
    for u, v in t.edges():
        i, j = pos[u], pos[v]
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
        ends.append((1 << i) | (1 << j))
    return nbr, ends


def _unmask(verts: tuple[int, ...], mask: int) -> tuple[int, ...]:
    return tuple(v for i, v in enumerate(verts) if mask >> i & 1)


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Everything the exhaustive sweeps know about a small tree.

    brute_force fills in the numbers, the maximum matchings and the masks of
    the maximum independent sets. The three vertex-set families are unmasked
    and sorted on first access; the dominating sets are found only then.
    """

    order: int
    matching_number: int
    maximum_matchings: tuple[tuple[tuple[int, int], ...], ...]
    independence_number: int
    _tree: Tree = field(repr=False)
    _independent_masks: tuple[int, ...] = field(repr=False)

    @property
    def max_matching_count(self) -> int:
        return len(self.maximum_matchings)

    @property
    def vertex_cover_number(self) -> int:
        return self.order - self.independence_number

    @property
    def domination_number(self) -> int:
        return len(self.minimum_dominating_sets[0])

    @cached_property
    def maximum_independent_sets(self) -> tuple[tuple[int, ...], ...]:
        verts = self._tree.vertices
        return tuple(sorted(_unmask(verts, m) for m in self._independent_masks))

    @cached_property
    def minimum_vertex_covers(self) -> tuple[tuple[int, ...], ...]:
        # a vertex cover is the complement of an independent set
        verts = self._tree.vertices
        full = (1 << self.order) - 1
        return tuple(sorted(_unmask(verts, full ^ m) for m in self._independent_masks))

    @cached_property
    def minimum_dominating_sets(self) -> tuple[tuple[int, ...], ...]:
        # every vertex subset, keeping those whose closed neighbourhood is all
        nbr = _masks(self._tree)[0]
        full = (1 << self.order) - 1
        best: list[int] = []
        size = self.order + 1
        for mask in range(1 << self.order):
            bits = mask.bit_count()
            if bits > size:
                continue
            closed = m = mask
            while m:
                low = m & -m
                closed |= nbr[low.bit_length() - 1]
                m ^= low
            if closed == full:
                if bits < size:
                    size = bits
                    best = [mask]
                else:
                    best.append(mask)
        verts = self._tree.vertices
        return tuple(sorted(_unmask(verts, m) for m in best))


def brute_force(t: Tree, limit: int = 16) -> OracleReport:
    """Exhaustive enumeration of extremal structures; refuses big inputs.

    Two branchings, each pruned only when a branch cannot reach the best
    size found so far, so every maximum structure is kept. Independent sets
    branch over the vertices in domain order: take the next free vertex,
    banning its neighbours, or leave it out; the bound is the size so far
    plus the free vertices left. Matchings branch over the edges in order,
    skipping each edge with a matched end: take the next edge or leave it
    out; the bound is the size so far plus the edges left. Nothing here uses
    a DP or linear algebra.
    """
    n = t.order
    if n > limit:
        raise TooLarge(f"{n} vertices exceeds the brute-force limit {limit}")
    nbr, ends = _masks(t)
    full = (1 << n) - 1

    best_sets: list[int] = []
    alpha = 0

    def independent(free: int, chosen: int, size: int) -> None:
        nonlocal best_sets, alpha
        if size + free.bit_count() < alpha:
            return
        if not free:
            if size > alpha:
                alpha = size
                best_sets = [chosen]
            else:
                best_sets.append(chosen)
            return
        low = free & -free
        rest = free ^ low
        independent(rest & ~nbr[low.bit_length() - 1], chosen | low, size + 1)
        independent(rest, chosen, size)

    m = len(ends)
    best_matchings: list[list[int]] = []
    nu = 0

    def matchings(idx: int, used: int, chosen: list[int]) -> None:
        nonlocal best_matchings, nu
        while idx < m and ends[idx] & used:
            idx += 1
        if len(chosen) + m - idx < nu:
            return
        if idx == m:
            if len(chosen) > nu:
                nu = len(chosen)
                best_matchings = [chosen.copy()]
            else:
                best_matchings.append(chosen.copy())
            return
        chosen.append(idx)
        matchings(idx + 1, used | ends[idx], chosen)
        chosen.pop()
        matchings(idx + 1, used, chosen)

    independent(full, 0, 0)
    matchings(0, 0, [])
    # each closure's cell refers to the closure itself: break the cycles
    del independent, matchings
    edges = t.edges()
    return OracleReport(
        order=n,
        matching_number=nu,
        maximum_matchings=tuple(sorted(tuple(edges[i] for i in ch) for ch in best_matchings)),
        independence_number=alpha,
        _tree=t,
        _independent_masks=tuple(best_sets),
    )
