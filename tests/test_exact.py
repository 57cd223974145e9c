from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from strees import exact
from strees.bases import tree_null_basis
from strees.decomposition import support_core
from strees.errors import DomainMismatch, EmptyBasis, SpanMismatch, TooLarge
from strees.fixtures import path_tree
from strees.generators import PruferCode, prufer_decode
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
NONZERO = st.sampled_from((-3, -2, -1, 1, 2, 3))


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


def integer_families(entry, min_n=1):
    return st.integers(min_value=min_n, max_value=8).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=8)
    )


def share_first_column(rows):
    """Prefix every row with a nonzero entry, so all rows share column 0."""
    return st.lists(NONZERO, min_size=len(rows), max_size=len(rows)).map(
        lambda firsts: [[x, *r] for x, r in zip(firsts, rows)]
    )


@given(
    st.one_of(
        integer_families(st.integers(min_value=-3, max_value=3)),
        integer_families(ENTRY, min_n=0).flatmap(share_first_column),
    )
)
@settings(max_examples=1000, deadline=None)
def test_markowitz_rank_matches_fraction_elimination(rows):
    # dense families, and families sharing one column as a star's kernel does
    sparse = [{j: c for j, c in enumerate(r) if c} for r in rows]
    assert exact._rank(sparse) == fraction_rank(rows)


def rescan_eliminate(rows):
    """The reference elimination: each pivot is the active row of least
    (length, least column, position), found by a rescan of every row."""
    active = [r for r in rows if r]
    pivots = []
    while active:
        best = min(range(len(active)), key=lambda i: (len(active[i]), min(active[i]), i))
        prow = active.pop(best)
        pc = min(prow)
        piv = prow[pc]
        nxt = []
        for r in active:
            x = r.get(pc)
            if x is None:
                nxt.append(r)
                continue
            g = gcd(piv, x)
            a, b = piv // g, x // g
            new = {}
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


def sweep_kernel_rows(rows, col_labels):
    """The reference kernel: back-substitution through every pivot of
    rescan_eliminate and every column."""
    pivots, _ = rescan_eliminate(rows)
    pivot_set = {pc for pc, _ in pivots}
    basis = []
    for f in [c for c in col_labels if c not in pivot_set]:
        x = {f: 1}
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
        if ints[f] < 0:
            ints = {j: -c for j, c in ints.items()}
        basis.append(ints)
    return basis


def assert_same_elimination(rows, cols):
    """The kernel against the rescan reference's: the same span, and each
    vector a primitive integer solution, positive at its own free column of
    exact._eliminate and zero at the others."""
    copy = lambda: [dict(r) for r in rows]
    new, ref = exact._kernel_rows(copy(), cols), sweep_kernel_rows(copy(), cols)
    assert len(new) == len(ref)
    vec = lambda x: VertexVector(cols, x)
    assert exact.span_equal([vec(x) for x in new], [vec(x) for x in ref])
    pivot_cols = {pc for pc, _, _ in exact._eliminate(copy())}
    free = [c for c in cols if c not in pivot_cols]
    assert len(new) == len(free)
    for f, x in zip(free, new):
        assert all(type(c) is int and c for c in x.values())
        assert gcd(*x.values()) == 1
        assert all(sum(c * x.get(j, 0) for j, c in r.items()) == 0 for r in rows)
        assert x[f] > 0
        assert not set(x) & set(free) - {f}


@st.composite
def relabeled_trees(draw, max_n=60):
    """Random labeled trees on random distinct labels, as adjacency rows."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seq = [draw(st.integers(0, n - 1)) for _ in range(max(0, n - 2))]
    t = prufer_decode(PruferCode(n, tuple(seq)))
    labels = draw(st.lists(st.integers(0, 4 * n), min_size=n, max_size=n, unique=True))
    name = dict(zip(t.vertices, labels))
    return [{name[w]: 1 for w in t.adj[v]} for v in t.vertices], sorted(labels)


@given(relabeled_trees())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_rescan_on_trees(case):
    rows, cols = case
    assert_same_elimination(rows, cols)


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.lists(st.dictionaries(st.integers(0, n - 1), NONZERO, max_size=4), max_size=12),
            st.just(list(range(n))),
        )
    )
)
@settings(max_examples=1000, deadline=None)
def test_elimination_matches_rescan_on_sparse_families(case):
    rows, cols = case
    assert_same_elimination(rows, cols)


class TestColumnSpace:
    def test_adjacency_columns_belong(self, tree18):
        assert exact.in_column_space(tree18, exact.column_space_vectors(tree18))

    def test_unit_on_supported_vertex_rejected(self, tree18):
        assert not exact.in_column_space(tree18, [VertexVector.unit(tree18.vertices, 2)])

    def test_domain_mismatch(self, tree18):
        with pytest.raises(DomainMismatch):
            exact.in_column_space(tree18, [VertexVector((1, 2), {1: 1})])

    def test_any_kernel_basis_gives_the_same_membership(self, tree18):
        # the check battery passes the signed null basis in place of the
        # eliminated kernel
        nb = tree_null_basis(tree18)
        for v in tree18.vertices:
            x = VertexVector.unit(tree18.vertices, v)
            assert exact.orthogonal_to_kernel(tree18, nb, [x]) == exact.in_column_space(tree18, [x])


class TestWitnessMembership:
    def test_adjacency_columns_by_their_vertex(self, tree18):
        deficient = set(support_core(tree18).support)
        for v, col in zip(tree18.vertices, exact.column_space_vectors(tree18)):
            assert exact.in_column_space_by_witness(tree18, deficient, col, v)

    def test_wrong_or_missing_preimage_rejected(self, tree18):
        deficient = set(support_core(tree18).support)
        col = exact.column_space_vectors(tree18)[0]  # vertex 1's column
        assert not exact.in_column_space_by_witness(tree18, deficient, col)
        assert not exact.in_column_space_by_witness(tree18, deficient, col, 4)

    def test_unit_on_supported_vertex_rejected(self, tree18):
        deficient = set(support_core(tree18).support)
        x = VertexVector.unit(tree18.vertices, 2)
        assert not exact.in_column_space_by_witness(tree18, deficient, x)

    def test_domain_mismatch(self, tree18):
        with pytest.raises(DomainMismatch):
            exact.in_column_space_by_witness(tree18, set(), VertexVector((1, 2), {1: 1}))


class TestPeel:
    def test_star_null_family(self):
        dom = tuple(range(6))
        vecs = [VertexVector(dom, {1: 1, j: -1}) for j in range(2, 6)]
        # all four share column 1; each holds one other column alone
        assert sorted(i for i, _ in exact.peel_independent(vecs)) == [0, 1, 2, 3]

    def test_dependent_family_stalls(self):
        dom = tuple(range(3))
        vecs = [
            VertexVector(dom, {0: 1, 1: -1}),
            VertexVector(dom, {1: 1, 2: -1}),
            VertexVector(dom, {0: 1, 2: -1}),
        ]
        with pytest.raises(SpanMismatch):
            exact.peel_independent(vecs)

    def test_zero_vector_stalls(self):
        with pytest.raises(SpanMismatch):
            exact.peel_independent([VertexVector((0, 1), {})])

    def test_empty_family(self):
        assert exact.peel_independent([]) == []

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            exact.peel_independent([VertexVector((0, 1), {0: 1}), VertexVector((0, 2), {2: 1})])


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

    @staticmethod
    def reference(t):
        """Every family by a plain scan of all vertex and edge subsets."""
        verts, edges = t.vertices, t.edges()
        n = len(verts)
        full = (1 << n) - 1
        pos = {v: i for i, v in enumerate(verts)}
        ends = [(1 << pos[u]) | (1 << pos[v]) for u, v in edges]
        closed = [(1 << pos[v]) | sum(1 << pos[w] for w in t.adj[v]) for v in verts]
        independent, covers, dominating = [], [], []
        for s in range(1 << n):
            if all(map((full ^ s).__and__, ends)):  # every edge has an end outside s
                independent.append(s)
            if all(map(s.__and__, ends)):
                covers.append(s)
            if all(map(s.__and__, closed)):
                dominating.append(s)

        def extremal(sets, pick):
            size = pick(s.bit_count() for s in sets)
            return tuple(sorted(
                tuple(v for i, v in enumerate(verts) if s >> i & 1)
                for s in sets if s.bit_count() == size
            ))

        matchings = []
        for s in range(1 << len(edges)):
            chosen = [i for i in range(len(edges)) if s >> i & 1]
            if sum(ends[i] for i in chosen).bit_count() == 2 * len(chosen):
                matchings.append(chosen)
        nu = max(map(len, matchings))
        return {
            "maximum_independent_sets": extremal(independent, max),
            "minimum_vertex_covers": extremal(covers, min),
            "minimum_dominating_sets": extremal(dominating, min),
            "maximum_matchings": tuple(sorted(
                tuple(edges[i] for i in m) for m in matchings if len(m) == nu
            )),
            "matching_number": nu,
        }

    def check_reference(self, t):
        want = self.reference(t)
        r = exact.brute_force(t)
        assert {name: getattr(r, name) for name in want} == want, t.edges()
        assert r.independence_number == len(want["maximum_independent_sets"][0])
        assert r.vertex_cover_number == len(want["minimum_vertex_covers"][0])

    def test_reference_all_labeled_to_order_7(self):
        from strees.generators import enumerate_trees

        for n in range(1, 8):
            for t in enumerate_trees(n):
                self.check_reference(t)

    def test_reference_shapes_to_order_12(self):
        from strees.fixtures import star_tree
        from strees.generators import random_tree
        from test_adversarial import caterpillar, spider

        trees = [random_tree(n, 10 * n + seed) for n in range(8, 13) for seed in range(6)]
        trees += [star_tree(k) for k in range(7, 12)] + [path_tree(n) for n in range(8, 13)]
        trees += [spider(3, 3), spider(5, 2), spider(2, 5), spider(11, 1)]
        trees += [caterpillar(3, 2), caterpillar(4, 2), caterpillar(6, 1), caterpillar(2, 5)]
        assert max(t.order for t in trees) == 12
        for t in trees:
            self.check_reference(t)
