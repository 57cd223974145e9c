import random

import pytest

from freetrees import canonical_form
from strees import exact, matching, ops
from strees.decomposition import SupportCore, classify, decompose, support_core
from strees.errors import (
    BadArity,
    FormulaMismatch,
    KTooSmall,
    NotInternalSupport,
    NotSTree,
    NotSupported,
    SpanMismatch,
)
from strees.fixtures import path_tree
from strees.generators import random_s_tree, random_tree
from strees.matching import matching_number_and_count
from strees.ops import (
    CoalescencePlan,
    coalescence_invariants,
    internal_support,
    s_coalescence,
    split_at_support,
    split_fully,
    stellare,
    stellare_bases,
    stellare_invariants,
)
from strees.tree import Tree, VertexVector
from test_adversarial import stellare_chain


def k1():
    return Tree([], vertices=[0])


class TestStellare:
    def test_single_vertex_becomes_path3(self):
        res = stellare(k1(), [2])
        assert canonical_form(res.tree) == canonical_form(path_tree(3))
        assert res.pendants == {0: (1, 2)}
        assert res.pendants_of(0) == (1, 2)

    def test_p2_both_doubled(self):
        res = stellare(Tree([(1, 2)]), [2, 2])
        assert res.tree.order == 6
        assert res.pendants == {1: (3, 4), 2: (5, 6)}
        # every original vertex keeps its pendants attached directly
        for base, ps in res.pendants.items():
            for p in ps:
                assert p in res.tree.adj[base]
                assert res.tree.degree(p) == 1

    def test_pendants_partition_the_new_vertices(self):
        rng = random.Random(19)
        for _ in range(50):
            t = random_tree(rng.randrange(1, 15), seed=rng.randrange(2**31))
            ks = [rng.randrange(2, 6) for _ in t.vertices]
            res = stellare(t, ks)
            old = set(t.vertices)
            new = [p for v in t.vertices for p in res.pendants[v]]
            assert sorted(new) == sorted(set(res.tree.vertices) - old)
            for v, k in zip(t.vertices, ks):
                assert res.pendants[v] == tuple(sorted(set(res.tree.adj[v]) - old))
                assert len(res.pendants[v]) == k
                assert res.pendants_of(v) == res.pendants[v]

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

    def test_range_is_the_closed_form(self):
        # per base vertex v in order: e_v, then the indicator of v's pendants
        rng = random.Random(23)
        for _ in range(200):
            t = random_tree(rng.randrange(1, 30), seed=rng.randrange(2**31))
            ks = [rng.randrange(2, 5) for _ in t.vertices]
            res = stellare(t, ks)
            dom = res.tree.vertices
            want = []
            for v in t.vertices:
                want += [VertexVector.unit(dom, v), VertexVector.indicator(dom, res.pendants_of(v))]
            assert stellare_bases(t, ks).range_vectors == tuple(want)

    def test_range_membership_failure_raises(self, monkeypatch):
        monkeypatch.setattr(exact, "in_column_space_by_witness", lambda *args: False)
        with pytest.raises(SpanMismatch):
            stellare_bases(path_tree(3), [2, 3, 2])


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

    def test_split_fully_checks_the_pieces(self, monkeypatch, tree8):
        # a support that misses its largest vertex, the fresh copy in each piece
        honest = ops.support_core
        monkeypatch.setattr(
            ops, "support_core", lambda t: SupportCore(honest(t).support[:-1], honest(t).core)
        )
        with pytest.raises(FormulaMismatch) as e:
            split_fully(tree8)
        assert e.value.failures == (("fresh_copies_supported", False, True),)

    def test_split_fully_matches_one_at_a_time(self):
        split_trees = 0
        for s in split_families():
            got = split_fully(s)
            want = split_one_at_a_time(s)
            assert [(p.vertices, p.edges()) for p in got] == [(p.vertices, p.edges()) for p in want]
            split_trees += len(got) > 1
        assert split_trees == 853

    def test_split_at_support_matches_the_reference(self):
        splits = 0
        for s in split_families():
            for v in internal_support(s):
                got = split_at_support(s, v)
                want = split_at_one(s, v, max(s.vertices) + 1)
                assert [(p.vertices, p.edges(), f) for p, f in got] == [
                    (p.vertices, p.edges(), f) for p, f in want
                ]
                splits += 1
        assert splits == 3047


def split_at_one(s: Tree, v: int, base: int) -> tuple[tuple[Tree, int], ...]:
    """Reference for split_at_support: per neighbour u of v in ascending
    order, the subtree on u's side plus a fresh copy of v attached to u,
    numbered upward from base."""
    out = []
    for i, u in enumerate(s.neighbors(v)):
        side = s.subtree_toward(v, u)
        out.append((Tree(list(side.edges()) + [(u, base + i)], vertices=side.vertices), base + i))
    return tuple(out)


def split_one_at_a_time(s: Tree) -> tuple[Tree, ...]:
    """Reference for split_fully: split the piece that holds the smallest
    internal supported vertex left, one vertex at a time, numbering the fresh
    copies above every id in use."""
    work = [s]
    while True:
        candidates = [(internal_support(p)[0], i) for i, p in enumerate(work) if internal_support(p)]
        if not candidates:
            return tuple(sorted(work, key=lambda p: p.vertices[0]))
        v, i = min(candidates)
        part = work.pop(i)
        top = max(max(p.vertices) for p in work + [part])
        work.extend(p for p, _ in split_at_one(part, v, top + 1))


def split_families():
    """Chains, the support parts of random trees, random S-trees, stellare
    and coalescences of stellare: 1,465 support trees, 853 of which split."""
    rng = random.Random(1)
    for n in range(1, 41):
        yield stellare_chain(n)
    for _ in range(400):
        t = random_tree(rng.randrange(1, 80), seed=rng.randrange(2**31))
        yield from decompose(t).support_parts
    for _ in range(300):
        yield random_s_tree(rng.randrange(1, 60), seed=rng.randrange(2**31))
    for _ in range(100):
        t = random_tree(rng.randrange(1, 12), seed=rng.randrange(2**31))
        yield stellare(t, [rng.randrange(2, 5) for _ in t.vertices]).tree
    for _ in range(100):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            t = random_tree(rng.randrange(1, 6), seed=rng.randrange(2**31))
            res = stellare(t, [rng.randrange(2, 4) for _ in t.vertices])
            parts.append((res.tree, rng.choice(res.pendants[rng.choice(t.vertices)])))
        yield s_coalescence(CoalescencePlan(tuple(parts))).tree
