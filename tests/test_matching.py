import pytest

from strees import exact, matching
from strees.errors import FormulaMismatch, VertexNotFound
from strees.fixtures import path_tree, star_tree
from strees.matching import (
    count_maximum_matchings,
    domination_number,
    independence_number,
    matching_invariants,
    matching_number,
    matching_number_and_count,
    matching_number_excluding,
    matching_number_within,
)
from strees.tree import Tree


class TestMatchingNumber:
    def test_paths(self):
        assert matching_number(path_tree(1)) == 0
        assert matching_number(path_tree(2)) == 1
        assert matching_number(path_tree(4)) == 2
        assert matching_number(path_tree(5)) == 2

    def test_fixtures(self, tree8, tree18, tree6):
        assert matching_number(tree8) == 2
        assert matching_number(tree18) == 7
        assert matching_number(tree6) == 2

    def test_star(self, k13):
        assert matching_number(k13) == 1
        assert count_maximum_matchings(k13) == 3


class TestMatchingCount:
    def test_pinned_counts(self, tree8, tree6):
        assert count_maximum_matchings(tree8) == 11
        assert count_maximum_matchings(tree6) == 4

    def test_path_counts(self):
        # odd path: one unmatched vertex slides along the path
        assert count_maximum_matchings(path_tree(3)) == 2
        assert count_maximum_matchings(path_tree(5)) == 3
        assert count_maximum_matchings(path_tree(4)) == 1

    def test_agrees_with_brute_force_small(self):
        from strees.generators import enumerate_trees

        for n in range(1, 7):
            for t in enumerate_trees(n):
                nu, cnt = matching_number_and_count(t)
                oracle = exact.brute_force(t)
                assert nu == oracle.matching_number
                assert cnt == oracle.max_matching_count


    def test_agrees_with_prefix_suffix_reference(self):
        # large trees have counts far past any brute force
        from strees.generators import random_tree

        trees = [random_tree(n, seed) for n, seed in ((60, 1), (300, 2), (2000, 3))]
        trees += [random_tree(17 * seed + 5, seed) for seed in range(40)]
        for t in trees + [star_tree(50), path_tree(301), path_tree(1)]:
            assert matching_number_and_count(t) == prefix_suffix_matching_dp(t)
            assert independence_number(t) == children_fold_independence(t)

    def test_agrees_with_brute_force_to_order_16(self):
        from strees.generators import random_tree

        for n in range(7, 17):
            for seed in range(25):
                t = random_tree(n, 100 * n + seed)
                oracle = exact.brute_force(t)
                assert matching_number_and_count(t) == (
                    oracle.matching_number,
                    oracle.max_matching_count,
                )
                assert independence_number(t) == oracle.independence_number
                if n <= 12:  # the dominating sets are a scan of all 2^n subsets
                    assert domination_number(t) == oracle.domination_number


def children_fold_independence(t):
    """Reference DP: each vertex sums over a list of its children."""
    root = t.vertices[0]
    parent, order = {root: root}, [root]
    for v in order:
        for w in t.adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    excl, incl = {}, {}
    for v in reversed(order):
        kids = [w for w in t.adj[v] if parent[w] == v]
        excl[v] = sum(max(excl[c], incl[c]) for c in kids)
        incl[v] = 1 + sum(excl[c] for c in kids)
    return max(excl[root], incl[root])


def prefix_suffix_matching_dp(t):
    """Reference DP: v matched to child c pairs free[c] with the best of the
    other children, read from prefix and suffix sums of (size, count)."""
    def add(a, b):
        return (a[0] + b[0], a[1] * b[1])

    def merge(a, b):
        if a[0] != b[0]:
            return max(a, b)
        return (a[0], a[1] + b[1])

    root = t.vertices[0]
    parent, order = {root: root}, [root]
    for v in order:
        for w in t.adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    free, matched = {}, {}
    for v in reversed(order):
        kids = [w for w in t.adj[v] if parent[w] == v]
        bests = [merge(free[c], matched[c]) for c in kids]
        prefix = [(0, 1)]
        for b in bests:
            prefix.append(add(prefix[-1], b))
        suffix = [(0, 1)]
        for b in reversed(bests):
            suffix.append(add(suffix[-1], b))
        suffix.reverse()
        free[v] = prefix[-1]
        matched[v] = (-1, 0)
        for i, c in enumerate(kids):
            cand = add((1, 1), add(free[c], add(prefix[i], suffix[i + 1])))
            matched[v] = merge(matched[v], cand)
    return merge(free[root], matched[root])


class TestRestrictedMatching:
    def test_within(self, tree18):
        assert matching_number_within(tree18, {13, 14}) == 1
        assert matching_number_within(tree18, {15, 16, 17, 18}) == 2
        assert matching_number_within(tree18, set()) == 0
        # disconnected selection is a forest: both edges count
        assert matching_number_within(tree18, {1, 2, 9, 10}) == 2

    def test_excluding(self, tree8):
        # every supported vertex is missed by some maximum matching
        for v in (2, 3, 4, 5, 7, 8):
            assert matching_number_excluding(tree8, v) == 2
        # removing a core vertex always costs
        assert matching_number_excluding(tree8, 1) == 1

    def test_within_rejects_unknown_vertex(self, tree18):
        with pytest.raises(VertexNotFound):
            matching_number_within(tree18, {13, 99})

    def test_excluding_rejects_unknown_vertex(self, tree18):
        # deleting a vertex the tree lacks would leave the whole tree, nu = 7
        with pytest.raises(VertexNotFound):
            matching_number_excluding(tree18, 99)


class TestOtherInvariants:
    def test_independence(self, tree8, tree18, tree6):
        assert independence_number(tree8) == 6
        assert independence_number(tree18) == 11
        assert independence_number(tree6) == 4

    def test_domination(self, tree8, tree6, k13):
        assert domination_number(tree8) == 2
        assert domination_number(tree6) == 2
        assert domination_number(k13) == 1
        assert domination_number(path_tree(1)) == 1
        assert domination_number(path_tree(7)) == 3

    def test_domination_vs_brute(self):
        from strees.generators import enumerate_trees

        for n in range(1, 7):
            for t in enumerate_trees(n):
                assert domination_number(t) == exact.brute_force(t).domination_number

    def test_invariants_bundle(self, tree8):
        inv = matching_invariants(tree8)
        assert inv.order == 8
        assert inv.matching_number == 2
        assert inv.max_matching_count == 11
        assert inv.independence_number == 6
        assert inv.domination_number == 2

    def test_gallai_identity_failure(self, monkeypatch, tree8):
        honest = matching.independence_number
        monkeypatch.setattr(matching, "independence_number", lambda t: honest(t) + 1)
        with pytest.raises(FormulaMismatch) as e:
            matching_invariants(tree8)
        assert e.value.failures == (("independence_plus_matching", 9, 8),)

    def test_gallai_identity_holds(self):
        t = Tree([(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)])
        inv = matching_invariants(t)
        assert inv.independence_number + inv.matching_number == t.order
