"""Matching, independence, and domination numbers by rooted-tree DP.

All programs root the tree at its smallest vertex id and run iteratively in
post-order, so deep paths cannot hit the recursion limit. Counting uses
(size, count) pairs with exact big integers.

deficient_set reads the Gallai-Edmonds D-set (the vertices some maximum
matching misses) off one maximum matching, in O(n) with integers only. In a
tree it is the support of the adjacency kernel, and the nullity is n - 2*nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FormulaMismatch
from .tree import Tree, components, per_tree


def _postorder(adj: dict[int, tuple[int, ...]], root: int) -> tuple[list[int], dict[int, int]]:
    parent: dict[int, int] = {root: root}
    order = [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    order.reverse()  # children before parents
    return order, parent


# (size, count) pairs: merge alternatives by keeping the larger size and
# adding counts on ties.
SC = tuple[int, int]


def _sc_merge(a: SC, b: SC) -> SC:
    if a[0] > b[0]:
        return a
    if b[0] > a[0]:
        return b
    return (a[0], a[1] + b[1])


_IMPOSSIBLE: SC = (-1, 0)  # below every real size; count 0 kills products


def _matching_dp(adj: dict[int, tuple[int, ...]], root: int) -> SC:
    """(nu, number of maximum matchings) of the tree, by post-order DP.

    Per vertex, the best (size, count) with the vertex left free and with it
    matched to a child. Matching v to child c changes the free optimum by
    1 + (free[c] - best[c]) in size, and takes free[c]'s count in place of
    best[c]'s. The children are folded in one at a time, so the counts of
    the best choices are summed without dividing or keeping prefix products.
    """
    order, parent = _postorder(adj, root)
    unmatched: dict[int, SC] = {}
    matched: dict[int, SC] = {}
    for v in order:
        size, count = 0, 1  # children at their best, v free
        gain, ways = None, 0  # v matched to a child: size change, count
        for c in adj[v]:
            if parent[c] != v:
                continue
            us, uc = unmatched[c]
            bs, bc = _sc_merge(unmatched[c], matched[c])
            ways *= bc
            if gain is None or us - bs > gain:
                gain, ways = us - bs, uc * count
            elif us - bs == gain:
                ways += uc * count
            size += bs
            count *= bc
        unmatched[v] = (size, count)
        matched[v] = _IMPOSSIBLE if gain is None else (1 + size + gain, ways)
    return _sc_merge(unmatched[root], matched[root])


def matching_number(t: Tree) -> int:
    """Size of a maximum matching."""
    return _matching_dp(t.adj, t.vertices[0])[0]


def count_maximum_matchings(t: Tree) -> int:
    """Number of maximum matchings, exact."""
    return _matching_dp(t.adj, t.vertices[0])[1]


def matching_number_and_count(t: Tree) -> tuple[int, int]:
    return _matching_dp(t.adj, t.vertices[0])


def matching_number_within(t: Tree, keep: Iterable[int]) -> int:
    """Matching number of the induced subgraph on `keep` (a forest)."""
    return sum(_matching_dp(c.adj, c.vertices[0])[0] for c in components(t.adj, keep))


def matching_number_excluding(t: Tree, v: int) -> int:
    """Matching number after deleting one vertex."""
    return matching_number_within(t, (u for u in t.vertices if u != v))


@per_tree
def deficient_set(t: Tree) -> tuple[tuple[int, ...], int]:
    """(D, nu): the vertices some maximum matching misses, and nu.

    A greedy leaf-up matching (a vertex still free when its subtree is done
    takes its parent, if free) is maximum in a tree. A vertex is missed by
    some maximum matching exactly when an even alternating path reaches it
    from an exposed vertex, so one search from every exposed vertex, across
    a non-matching edge and back along a matching edge, finds them all. An
    exposed vertex at odd distance would end an augmenting path; the search
    raises on one, so it also certifies the matching maximum.
    """
    order, parent = _postorder(t.adj, t.vertices[0])
    mate: dict[int, int] = {}
    for v in order:
        p = parent[v]
        if p != v and v not in mate and p not in mate:
            mate[v] = p
            mate[p] = v
    even = [v for v in t.vertices if v not in mate]
    found = set(even)
    for u in even:
        for w in t.adj[u]:
            if mate.get(u) == w:
                continue
            m = mate.get(w)
            if m is None:
                raise FormulaMismatch(f"augmenting path through {u} and {w}")
            if m not in found:
                found.add(m)
                even.append(m)
    return tuple(v for v in t.vertices if v in found), len(mate) // 2


def independence_number(t: Tree) -> int:
    """Size of a maximum independent set, by direct DP."""
    order, parent = _postorder(t.adj, t.vertices[0])
    excl: dict[int, int] = {}
    incl: dict[int, int] = {}
    for v in order:
        children = [w for w in t.adj[v] if parent[w] == v]
        excl[v] = sum(max(excl[c], incl[c]) for c in children)
        incl[v] = 1 + sum(excl[c] for c in children)
    r = t.vertices[0]
    return max(excl[r], incl[r])


def domination_number(t: Tree) -> int:
    """Size of a minimum dominating set."""
    order, parent = _postorder(t.adj, t.vertices[0])
    big = t.order + 1  # sentinel for impossible states
    in_set: dict[int, int] = {}
    covered: dict[int, int] = {}  # v not in set, dominated from below
    open_: dict[int, int] = {}  # v not in set, waiting for its parent
    for v in order:
        children = [w for w in t.adj[v] if parent[w] == v]
        in_set[v] = 1 + sum(min(in_set[c], covered[c], open_[c]) for c in children)
        # v open: no child may be in the set, children dominated below
        open_[v] = min(sum(covered[c] for c in children), big)
        # v covered: some child in the set, the rest settled either way
        if children:
            base = sum(min(in_set[c], covered[c]) for c in children)
            if all(covered[c] < in_set[c] for c in children):
                base += min(in_set[c] - covered[c] for c in children)
            covered[v] = min(base, big)
        else:
            covered[v] = big
        in_set[v] = min(in_set[v], big)
    r = t.vertices[0]
    return min(in_set[r], covered[r])


@dataclass(frozen=True)
class MatchingInvariants:
    """The four basic counts, cross-checked on construction."""

    order: int
    matching_number: int
    max_matching_count: int
    independence_number: int
    domination_number: int


def matching_invariants(t: Tree) -> MatchingInvariants:
    nu, count = matching_number_and_count(t)
    alpha = independence_number(t)
    if alpha + nu != t.order:
        raise FormulaMismatch(
            f"independence {alpha} + matching {nu} != order {t.order}"
        )
    return MatchingInvariants(
        order=t.order,
        matching_number=nu,
        max_matching_count=count,
        independence_number=alpha,
        domination_number=domination_number(t),
    )
