"""Matching, independence, and domination numbers by rooted-tree DP.

Every program reads one rooted order per tree, kept on the tree (_rooted):
the postorder from the smallest vertex id, and the parents. A DP folds each
vertex into its parent's entry as the postorder reaches it, so it builds no
children lists, and deep paths cannot hit the recursion limit. Counting uses
(size, count) pairs with exact big integers.

deficient_set reads the Gallai-Edmonds D-set (the vertices some maximum
matching misses) off one maximum matching, in O(n) with integers only. In a
tree it is the support of the adjacency kernel, and the nullity is n - 2*nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FormulaMismatch
from .identities import require
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


@per_tree
def _rooted(t: Tree) -> tuple[list[int], dict[int, int]]:
    """Postorder and parents of t rooted at its smallest vertex; the root is its own parent."""
    return _postorder(t.adj, t.vertices[0])


# (size, count) pairs: merge alternatives by keeping the larger size and
# adding counts on ties.
SC = tuple[int, int]


def _sc_merge(a: SC, b: SC) -> SC:
    if a[0] > b[0]:
        return a
    if b[0] > a[0]:
        return b
    return (a[0], a[1] + b[1])


@per_tree
def _matching_dp(t: Tree) -> SC:
    """(nu, number of maximum matchings) of the tree, by post-order DP.

    Kept on the tree, so that an atom spanning its whole tree, a twin,
    starts with the tree's count.

    Per vertex, the best (size, count) with the vertex left free, and the
    best size change and count with it matched to a child. Matching v to
    child c changes the free optimum by 1 + (free[c] - best[c]) in size, and
    takes free[c]'s count in place of best[c]'s. Each vertex is folded into
    its parent's entry when the postorder reaches it, so the counts of the
    best choices are summed without dividing or keeping prefix products.
    """
    order, parent = _rooted(t)
    # per vertex, over the children folded so far: size and count with v
    # free, and size change and count with v matched to one of them
    acc: dict[int, tuple[int, int, int | None, int]] = {}
    for v in order:
        size, count, gain, ways = acc.pop(v, (0, 1, None, 0))
        best = (size, count) if gain is None else _sc_merge((size, count), (1 + size + gain, ways))
        p = parent[v]
        if p != v:
            psize, pcount, pgain, pways = acc.get(p, (0, 1, None, 0))
            bs, bc = best
            pways *= bc
            if pgain is None or size - bs > pgain:
                pgain, pways = size - bs, count * pcount
            elif size - bs == pgain:
                pways += count * pcount
            acc[p] = (psize + bs, pcount * bc, pgain, pways)
    return best  # the root's: it comes last


def matching_number(t: Tree) -> int:
    """Size of a maximum matching."""
    return _matching_dp(t)[0]


def count_maximum_matchings(t: Tree) -> int:
    """Number of maximum matchings, exact."""
    return _matching_dp(t)[1]


def matching_number_and_count(t: Tree) -> tuple[int, int]:
    return _matching_dp(t)


def matching_number_within(t: Tree, keep: Iterable[int]) -> int:
    """Matching number of the induced subgraph on `keep` (a forest)."""
    return sum(_matching_dp(c)[0] for c in components(t.adj, keep))


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
    order, parent = _rooted(t)
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
    order, parent = _rooted(t)
    excl = dict.fromkeys(order, 0)  # best with v out, over the children folded so far
    incl = dict.fromkeys(order, 1)  # best with v in
    for v in order:
        p = parent[v]
        if p != v:
            excl[p] += max(excl[v], incl[v])
            incl[p] += excl[v]
    r = order[-1]
    return max(excl[r], incl[r])


def domination_number(t: Tree) -> int:
    """Size of a minimum dominating set."""
    order, parent = _rooted(t)
    big = t.order + 1  # sentinel for impossible states
    # sums over the children folded so far
    in_set = dict.fromkeys(order, 1)  # v in the set: 1 + each child's cheapest state
    open_ = dict.fromkeys(order, 0)  # v waits for its parent: children covered below
    settled = dict.fromkeys(order, 0)  # each child in the set or covered below
    # v covered: settled plus the least extra cost of one child in the set;
    # big while v has no child
    extra = dict.fromkeys(order, big)
    for v in order:
        inc = min(in_set[v], big)
        cov = min(settled[v] + extra[v], big)
        p = parent[v]
        if p != v:
            in_set[p] += min(inc, cov, open_[v])
            open_[p] += cov
            settled[p] += min(inc, cov)
            extra[p] = min(extra[p], max(inc - cov, 0))
    return min(inc, cov)  # the root's: it comes last


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
    require(("independence_plus_matching", alpha + nu, t.order))
    return MatchingInvariants(
        order=t.order,
        matching_number=nu,
        max_matching_count=count,
        independence_number=alpha,
        domination_number=domination_number(t),
    )
