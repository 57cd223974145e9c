"""Matching, independence, and domination numbers by rooted-tree DP.

All programs root the tree at its smallest vertex id and run iteratively in
post-order, so deep paths cannot hit the recursion limit. Counting uses
(size, count) pairs with exact big integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FormulaMismatch
from .tree import Tree, components


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


# (size, count) pairs: combine by adding sizes and multiplying counts,
# merge alternatives by keeping the larger size and adding counts on ties.
SC = tuple[int, int]


def _sc_add(a: SC, b: SC) -> SC:
    return (a[0] + b[0], a[1] * b[1])


def _sc_merge(a: SC, b: SC) -> SC:
    if a[0] > b[0]:
        return a
    if b[0] > a[0]:
        return b
    return (a[0], a[1] + b[1])


_IMPOSSIBLE: SC = (-1, 0)  # below every real size; count 0 kills products


def _matching_dp(adj: dict[int, tuple[int, ...]], root: int) -> SC:
    order, parent = _postorder(adj, root)
    unmatched: dict[int, SC] = {}
    matched: dict[int, SC] = {}
    for v in order:
        children = [w for w in adj[v] if parent[w] == v]
        free: SC = (0, 1)
        for c in children:
            free = _sc_add(free, _sc_merge(unmatched[c], matched[c]))
        unmatched[v] = free
        # v matched to one child c: 1 + unmatched[c] + best of the others
        best: SC = _IMPOSSIBLE
        if children:
            k = len(children)
            bests = [_sc_merge(unmatched[c], matched[c]) for c in children]
            prefix: list[SC] = [(0, 1)] * (k + 1)
            for i in range(k):
                prefix[i + 1] = _sc_add(prefix[i], bests[i])
            suffix: list[SC] = [(0, 1)] * (k + 1)
            for i in range(k - 1, -1, -1):
                suffix[i] = _sc_add(suffix[i + 1], bests[i])
            for i, c in enumerate(children):
                cand = _sc_add((1, 1), _sc_add(unmatched[c], _sc_add(prefix[i], suffix[i + 1])))
                best = _sc_merge(best, cand)
        matched[v] = best
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
