import pytest

from freetrees import canonical_form
from strees import exact, matching, ops
from strees.decomposition import SupportCore, classify, support_core
from strees.errors import (
    BadArity,
    FormulaMismatch,
    KTooSmall,
    NotInternalSupport,
    NotSTree,
    NotSupported,
)
from strees.fixtures import path_tree
from strees.matching import matching_number_and_count
from strees.ops import (
    CoalescencePlan,
    StellareLabel,
    coalescence_invariants,
    internal_support,
    s_coalescence,
    split_at_support,
    split_fully,
    stellare,
    stellare_bases,
    stellare_invariants,
)
from strees.tree import Tree


def k1():
    return Tree([], vertices=[0])


class TestStellare:
    def test_single_vertex_becomes_path3(self):
        res = stellare(k1(), [2])
        assert canonical_form(res.tree) == canonical_form(path_tree(3))
        assert res.labels[StellareLabel(0, 0)] in res.tree
        assert len(res.pendants_of(0)) == 2

    def test_p2_both_doubled(self):
        res = stellare(Tree([(1, 2)]), [2, 2])
        assert res.tree.order == 6
        # every original vertex keeps its pendants attached directly
        for base in (1, 2):
            centre = res.labels[StellareLabel(base, 0)]
            for p in res.pendants_of(base):
                assert p in res.tree.adj[centre]
                assert res.tree.degree(p) == 1

    def test_matches_double_star_fixture(self, tree6):
        res = stellare(Tree([(1, 2)]), [2, 2])
        assert canonical_form(res.tree) == canonical_form(tree6)

    def test_arity_validation(self):
        with pytest.raises(BadArity):
            stellare(Tree([(1, 2)]), [2])
        with pytest.raises(BadArity):
            stellare(Tree([(1, 2)]), [2, "x"])
        with pytest.raises(KTooSmall):
            stellare(Tree([(1, 2)]), [2, 1])

    def test_pinned_large_example(self):
        base = Tree([(1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])
        res = stellare(base, [4, 3, 3, 2, 2, 3])
        assert res.tree.order == 23
        rep = stellare_invariants(base, [4, 3, 3, 2, 2, 3])
        assert rep.max_matching_count == 432
        assert rep.rank == 12
        assert rep.nullity == 23 - 12

    def test_invariant_report_values(self):
        base = Tree([(1, 2)])
        rep = stellare_invariants(base, [3, 2])
        assert rep.order == 7
        assert rep.nullity == 5 - 2
        assert rep.rank == 4
        assert rep.independence_number == 5
        assert rep.matching_number == 2
        assert rep.max_matching_count == 6
        assert rep.domination_number == 2
        # original vertices all become core, pendants become support
        assert len(rep.core) == 2 and len(rep.support) == 5

    def test_failure_names_the_dependent_identities(self, monkeypatch):
        # a rank two too high breaks exactly the two rows that read it
        honest = exact.tree_rank
        monkeypatch.setattr(exact, "tree_rank", lambda t: honest(t) + 2)
        with pytest.raises(FormulaMismatch) as e:
            stellare_invariants(Tree([(1, 2)]), [3, 2])
        assert e.value.failures == (
            ("nullity_is_arity_sum_minus_order", 1, 3),
            ("rank_is_twice_order", 6, 4),
        )

    def test_result_is_support_tree(self):
        res = stellare(path_tree(4), [2, 3, 2, 4])
        assert classify(res.tree).is_support_tree


class TestStellareBases:
    def test_k1_bases(self):
        sb = stellare_bases(k1(), [2])
        assert len(sb.null_vectors) == 1
        assert len(sb.range_vectors) == 2

    def test_null_vectors_in_kernel(self):
        base = Tree([(1, 2), (2, 3)])
        sb = stellare_bases(base, [2, 3, 2])
        big = stellare(base, [2, 3, 2]).tree
        for x in sb.null_vectors:
            assert exact.in_adjacency_kernel(big, x)
        assert len(sb.null_vectors) == (2 + 3 + 2) - 3
        assert len(sb.range_vectors) == 2 * 3

    def test_range_spans_column_space(self):
        base = path_tree(3)
        sb = stellare_bases(base, [2, 2, 2])
        big = stellare(base, [2, 2, 2]).tree
        assert exact.span_equal(
            list(sb.range_vectors), list(exact.column_space_vectors(big))
        )


class TestCoalescence:
    def plan_two_paths(self):
        p3a = Tree([(1, 2), (1, 3)])
        p3b = Tree([(1, 2), (1, 3)])
        return CoalescencePlan(((p3a, 2), (p3b, 2)))

    def test_two_p3_gives_p5(self):
        res = s_coalescence(self.plan_two_paths())
        assert canonical_form(res.tree) == canonical_form(path_tree(5))
        assert res.tree.degree(res.star_vertex) == 2

    def test_star_vertex_is_supported(self):
        res = s_coalescence(self.plan_two_paths())
        assert res.star_vertex in support_core(res.tree).support

    def test_nine_identities(self):
        rep = coalescence_invariants(self.plan_two_paths())
        assert rep.order == 5
        assert rep.nullity == 1
        assert rep.rank == 4
        assert rep.matching_number == 2
        assert rep.max_matching_count == 3  # strictly below 2 * 2
        assert rep.independence_number == 3

    def test_strict_matching_drop(self):
        plan = self.plan_two_paths()
        rep = coalescence_invariants(plan)
        product = 1
        for part, _ in plan.parts:
            product *= matching_number_and_count(part)[1]
        assert rep.max_matching_count < product

    def test_single_part_identity(self):
        p3 = Tree([(1, 2), (1, 3)])
        rep = coalescence_invariants(CoalescencePlan(((p3, 2),)))
        # k = 1 keeps the matching count, no strict drop
        assert rep.max_matching_count == matching_number_and_count(p3)[1]

    def test_failure_names_the_dependent_identities(self, monkeypatch):
        # one more independent vertex in every tree breaks only the 1 - k + sum formula
        honest = matching.independence_number
        monkeypatch.setattr(matching, "independence_number", lambda t: honest(t) + 1)
        with pytest.raises(FormulaMismatch) as e:
            coalescence_invariants(self.plan_two_paths())
        assert e.value.failures == (("independence_formula", 4, 5),)

    def test_rejects_unsupported_attach(self):
        p3 = Tree([(1, 2), (1, 3)])
        with pytest.raises(NotSupported):
            s_coalescence(CoalescencePlan(((p3, 1), (p3, 2))))

    def test_rejects_empty_plan(self):
        with pytest.raises(NotSupported):
            s_coalescence(CoalescencePlan(()))

    def test_rejects_non_support_tree_part(self):
        p4 = path_tree(4)
        with pytest.raises(NotSTree):
            coalescence_invariants(CoalescencePlan(((p4, 1), (p4, 1))))

    def test_three_parts(self):
        p3 = Tree([(1, 2), (1, 3)])
        plan = CoalescencePlan(((p3, 2), (p3, 2), (p3, 3)))
        rep = coalescence_invariants(plan)
        assert rep.order == 3 * 3 - 2
        assert classify(s_coalescence(plan).tree).is_support_tree


class TestSplit:
    def test_internal_support(self, tree8, tree6):
        assert internal_support(tree8) == (5,)
        assert internal_support(tree6) == ()

    def test_split_tree8_at_5(self, tree8):
        parts = split_at_support(tree8, 5)
        assert [t.vertices for t, _ in parts] == [(1, 2, 3, 4, 9), (6, 7, 8, 10)]
        assert [attach for _, attach in parts] == [9, 10]
        for t, attach in parts:
            assert classify(t).is_support_tree
            assert attach in support_core(t).support

    def test_failure_names_the_dependent_identities(self, monkeypatch, tree8):
        # a support that misses its largest vertex, the fresh copy in each part
        honest = ops.support_core
        monkeypatch.setattr(
            ops, "support_core", lambda t: SupportCore(honest(t).support[:-1], honest(t).core)
        )
        with pytest.raises(FormulaMismatch) as e:
            split_at_support(tree8, 5)
        assert e.value.failures == (("fresh_copies_supported", False, True),)

    def test_split_rejects_leaf_support(self, tree8):
        with pytest.raises(NotInternalSupport):
            split_at_support(tree8, 2)

    def test_split_rejects_non_support_tree(self):
        with pytest.raises(NotSTree):
            split_at_support(path_tree(4), 2)

    def test_split_then_coalesce_round_trip(self, tree8):
        parts = split_at_support(tree8, 5)
        rebuilt = s_coalescence(CoalescencePlan(parts)).tree
        assert canonical_form(rebuilt) == canonical_form(tree8)

    def test_split_fully_all_atoms_star_like(self, tree8):
        forest = split_fully(tree8)
        assert len(forest) == 2
        for part in forest:
            assert internal_support(part) == ()
