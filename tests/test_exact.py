from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from strees import exact
from strees.errors import DomainMismatch, EmptyBasis, TooLarge
from strees.fixtures import path_tree
from strees.tree import Tree, VertexVector


class TestKernel:
    def test_tree8_nullity_and_span(self, tree8):
        kern = exact.tree_kernel(tree8)
        assert len(kern) == 4
        pinned = [
            VertexVector(tree8.vertices, {2: 1, 5: -1, 8: 1}),
            VertexVector(tree8.vertices, {3: 1, 5: -1, 8: 1}),
            VertexVector(tree8.vertices, {4: 1, 5: -1, 8: 1}),
            VertexVector(tree8.vertices, {7: 1, 8: -1}),
        ]
        assert exact.span_equal(list(kern), pinned)

    def test_tree6_kernel(self, tree6):
        kern = exact.tree_kernel(tree6)
        pinned = [
            VertexVector(tree6.vertices, {1: 1, 3: -1}),
            VertexVector(tree6.vertices, {4: 1, 6: -1}),
        ]
        assert exact.span_equal(list(kern), pinned)

    def test_kernel_members_verify(self, tree18):
        for x in exact.tree_kernel(tree18):
            assert exact.in_adjacency_kernel(tree18, x)

    def test_perfect_matching_trivial_kernel(self):
        assert exact.tree_kernel(path_tree(4)) == ()
        assert exact.tree_rank(path_tree(4)) == 4

    def test_single_vertex(self):
        t = Tree([], vertices=[0])
        kern = exact.tree_kernel(t)
        assert len(kern) == 1 and kern[0].entries == {0: 1}
        assert exact.tree_rank(t) == 0

    def test_primitive_integer_entries(self, tree18):
        for x in exact.tree_kernel(tree18):
            vals = list(x.entries.values())
            assert all(isinstance(v, int) for v in vals)
            from math import gcd

            g = 0
            for v in vals:
                g = gcd(g, abs(v))
            assert g == 1

    def test_in_kernel_domain_mismatch(self, tree8):
        with pytest.raises(DomainMismatch):
            exact.in_adjacency_kernel(tree8, VertexVector((1, 2), {1: 1}))


class TestSpan:
    def test_reflexive(self, tree8):
        kern = list(exact.tree_kernel(tree8))
        assert exact.span_equal(kern, kern)

    def test_scalar_multiples(self):
        dom = (1, 2, 3)
        a = [VertexVector(dom, {1: 1, 2: -1})]
        b = [VertexVector(dom, {1: 3, 2: -3})]
        assert exact.span_equal(a, b)

    def test_distinct_units(self):
        dom = (1, 2)
        assert not exact.span_equal(
            [VertexVector.unit(dom, 1)], [VertexVector.unit(dom, 2)]
        )

    def test_rank_of_vectors(self):
        dom = (1, 2, 3)
        vecs = [
            VertexVector(dom, {1: 1, 2: 1}),
            VertexVector(dom, {2: 1, 3: 1}),
            VertexVector(dom, {1: 1, 3: -1}),
        ]
        assert exact.rank_of_vectors(vecs) == 2

    def test_fractions_cleared(self):
        dom = (0, 1)
        half = VertexVector(dom, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        ones = VertexVector(dom, {0: 1, 1: 1})
        assert exact.rank_of_vectors([half, ones]) == 1
        assert exact.span_equal([half], [ones])
        assert not exact.span_equal([half], [VertexVector.unit(dom, 0)])

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            exact.span_equal(
                [VertexVector((1,), {1: 1})], [VertexVector((2,), {2: 1})]
            )

    def test_rank_without_unit_pivots(self):
        # pivots other than +-1: a Bareiss division by the previous pivot
        # truncates on these, since the sparse updates skip rows
        d4 = (0, 1, 2, 3)
        f = [{1: 2, 2: 1}, {1: -2, 3: 2}, {0: -2}, {1: -1, 3: 1}]
        g = [{1: 2, 2: 1}, {1: -2, 3: 2}, {0: 1}, {3: 1}]
        h = [{1: -3}, {0: -1, 4: -1}, {0: 1, 2: 2}, {0: 2, 1: 2, 2: -1, 3: 3},
             {0: -1, 1: -1, 3: 1, 4: 2}]
        f = [VertexVector(d4, e) for e in f]
        g = [VertexVector(d4, e) for e in g]
        assert exact.rank_of_vectors(f) == 3
        assert exact.rank_of_vectors(g) == 4
        assert not exact.span_equal(g, f)
        assert exact.rank_of_vectors([VertexVector(range(5), e) for e in h]) == 5


def fraction_rank(rows):
    """Plain Gaussian elimination over Fractions, the reference rank."""
    rows = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                k = rows[i][c] / rows[rank][c]
                rows[i] = [a - k * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# mostly-zero entries, so that many rows lack the pivot column at each step
ENTRY = st.sampled_from((0, 0, 0, -3, -2, -1, 1, 2, 3))


@given(
    st.integers(min_value=3, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(ENTRY, min_size=n, max_size=n), min_size=3, max_size=8
        )
    )
)
@settings(max_examples=1000, deadline=None)
def test_rank_matches_fraction_elimination(rows):
    vecs = [VertexVector(range(len(rows[0])), dict(enumerate(r))) for r in rows]
    assert exact.rank_of_vectors(vecs) == fraction_rank(rows)


class TestColumnSpace:
    def test_adjacency_columns_belong(self, tree18):
        assert exact.in_column_space(tree18, exact.column_space_vectors(tree18))

    def test_unit_on_supported_vertex_rejected(self, tree18):
        assert not exact.in_column_space(tree18, [VertexVector.unit(tree18.vertices, 2)])

    def test_domain_mismatch(self, tree18):
        with pytest.raises(DomainMismatch):
            exact.in_column_space(tree18, [VertexVector((1, 2), {1: 1})])


class TestFullSupport:
    def test_tree6_combination(self, tree6):
        kern = list(exact.tree_kernel(tree6))
        full = exact.full_support_vector(kern)
        assert full.support() == (1, 3, 4, 6)

    def test_tree8_support(self, tree8):
        full = exact.full_support_vector(list(exact.tree_kernel(tree8)))
        assert full.support() == (2, 3, 4, 5, 7, 8)

    def test_empty_rejected(self):
        with pytest.raises(EmptyBasis):
            exact.full_support_vector([])


class TestBruteForce:
    def test_single_vertex(self):
        r = exact.brute_force(Tree([], vertices=[0]))
        assert r.matching_number == 0
        assert r.max_matching_count == 1
        assert r.independence_number == 1
        assert r.vertex_cover_number == 0
        assert r.domination_number == 1

    def test_edge(self):
        r = exact.brute_force(Tree([(0, 1)]))
        assert r.matching_number == 1
        assert r.maximum_matchings == (((0, 1),),)
        assert r.independence_number == 1
        assert r.domination_number == 1

    def test_tree6_matchings(self, tree6):
        r = exact.brute_force(tree6)
        assert r.matching_number == 2
        assert r.max_matching_count == 4
        # the core-core bond never appears in a maximum matching
        assert all((2, 5) not in m for m in r.maximum_matchings)
        assert r.independence_number == 4
        assert r.domination_number == 2

    def test_tree8(self, tree8):
        r = exact.brute_force(tree8)
        assert r.matching_number == 2
        assert r.max_matching_count == 11
        assert r.maximum_independent_sets == ((2, 3, 4, 5, 7, 8),)
        assert r.minimum_vertex_covers == ((1, 6),)

    def test_size_limit(self):
        big = path_tree(17)
        with pytest.raises(TooLarge):
            exact.brute_force(big)
        assert exact.brute_force(big, limit=17).matching_number == 8
