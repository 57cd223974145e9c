import random
import tracemalloc

import pytest

from strees import bases, exact, matching
from strees.bases import (
    BasicSubtree,
    atom_range_basis,
    basic_vector,
    forest_basis,
    grow_basic_subtree,
    marker_rows_csv,
    tree_null_basis,
    tree_range_basis,
)
from strees.decomposition import SupportCore, atom_set, support_core
from strees.errors import NotAtom, SpanMismatch, TooSmall, ValidationFailed
from strees.fixtures import path_tree, star_tree
from strees.generators import enumerate_trees, random_s_tree, random_tree
from strees.ops import CoalescencePlan, s_coalescence, stellare
from strees.tree import Tree, VertexVector
from test_adversarial import caterpillar, spider


def entries(x):
    return {v: x.entries[v] for v in x.support()}


class TestGrow:
    def test_ascending_from_2(self, tree8):
        b = grow_basic_subtree(tree8, 2)
        assert b.tree.vertices == (1, 2, 3)
        assert b.pendant == 2

    def test_core_seed_joins_alone(self, tree8):
        b = grow_basic_subtree(tree8, 1)
        assert b.tree.vertices == (1, 2, 3)

    def test_grown_subtree_is_basic(self, tree18):
        from strees.decomposition import classify

        ats = atom_set(tree18)
        for atom in ats.atoms:
            if atom.order < 3:
                continue
            for seed in atom.vertices:
                b = grow_basic_subtree(atom, seed)
                assert classify(b.tree).is_basic

    def test_rejects_non_atom(self, tree6):
        with pytest.raises(NotAtom):
            grow_basic_subtree(tree6, 1)

    def test_rejects_tiny(self):
        with pytest.raises(TooSmall):
            grow_basic_subtree(Tree([], vertices=[0]), 0)


class TestBasicVector:
    def test_inside_host(self, tree8):
        sub = Tree([(1, 2), (1, 3)], vertices=[1, 2, 3])
        x = basic_vector(BasicSubtree(tree=sub, host=tree8, pendant=2))
        assert entries(x) == {2: 1, 3: -1}
        assert set(x.domain) == set(tree8.vertices)

    def test_alternation_on_path(self):
        p5 = path_tree(5)
        x = basic_vector(BasicSubtree(tree=p5, host=p5, pendant=1))
        assert entries(x) == {1: 1, 3: -1, 5: 1}

    def test_rejects_non_kernel(self, tree8):
        # a subtree violating the shape rules gives a non-kernel vector
        bad = tree8.induced_subtree({1, 2})
        with pytest.raises(ValidationFailed):
            basic_vector(BasicSubtree(tree=bad, host=tree8, pendant=2))


class TestForestBasis:
    def test_tree8_four_basics(self, tree8):
        fb = forest_basis(tree8)
        assert len(fb) == 4
        assert [entries(x) for x in fb.vectors] == [
            {2: 1, 3: -1},
            {3: 1, 4: -1},
            {3: 1, 5: -1, 7: 1},
            {3: 1, 5: -1, 8: 1},
        ]

    def test_marker_rows_account_each_vertex_once(self, tree8):
        fb = forest_basis(tree8)
        # every vertex is first covered by exactly one basic, every row nets +1
        for col in range(len(fb.columns)):
            nonzero = [row[col] for row in fb.marker_rows if row[col] != 0]
            assert len(nonzero) == 1
        for row in fb.marker_rows:
            assert sum(row) == 1
            assert set(row) <= {-1, 0, 1}

    def test_star_two_vectors(self, tree18):
        star = tree18.induced_subtree({9, 10, 11, 12})
        fb = forest_basis(star)
        assert [entries(x) for x in fb.vectors] == [
            {10: 1, 11: -1},
            {11: 1, 12: -1},
        ]

    def test_path5_single_vector(self, p5):
        fb = forest_basis(p5)
        assert [entries(x) for x in fb.vectors] == [{1: 1, 3: -1, 5: 1}]

    def test_order_one(self):
        fb = forest_basis(Tree([], vertices=[7]))
        assert [entries(x) for x in fb.vectors] == [{7: 1}]
        assert fb.marker_rows == ((1,),)

    def test_marker_rows_stay_sparse(self):
        # dense rows for 2,999 basics over 3,001 columns would hold about
        # 72 MB; kept sparse, the whole build peaks near 8 MB
        star = star_tree(3000)
        tracemalloc.start()
        try:
            fb = forest_basis(star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fb) == 2999
        assert peak < 24_000_000
        assert sum(fb.markers[-1].values()) == 1

    def test_csv_shape(self, tree8):
        text = marker_rows_csv(forest_basis(tree8))
        lines = text.strip().split("\n")
        assert lines[0] == "1,2,3,4,5,6,7,8"
        assert len(lines) == 5

    def test_rejects_non_atom(self, tree6):
        with pytest.raises(NotAtom):
            forest_basis(tree6)

    def test_spans_atom_kernel(self, tree18):
        for atom in atom_set(tree18).atoms:
            fb = forest_basis(atom)
            assert exact.span_equal(list(fb.vectors), list(exact.tree_kernel(atom)))

    def test_basics_proven_without_classification(self, monkeypatch, tree8):
        # a basic's shape and its vector's kernel equations prove it basic
        calls = []
        orig = bases.classify

        def counting(t):
            calls.append(t)
            return orig(t)

        monkeypatch.setattr(bases, "classify", counting)
        for atom in (tree8, *atom_set(random_tree(200, 3)).atoms):
            if atom.order == 1:
                continue
            calls.clear()
            assert forest_basis(atom).basics
            assert all(t is atom for t in calls)


class TestTreeNullBasis:
    def test_tree8_span(self, tree8):
        nb = tree_null_basis(tree8)
        pinned = [
            VertexVector(tree8.vertices, {2: 1, 5: -1, 8: 1}),
            VertexVector(tree8.vertices, {3: 1, 5: -1, 8: 1}),
            VertexVector(tree8.vertices, {4: 1, 5: -1, 8: 1}),
            VertexVector(tree8.vertices, {7: 1, 8: -1}),
        ]
        assert len(nb) == 4
        assert exact.span_equal(list(nb), pinned)

    def test_tree18_span(self, tree18):
        nb = tree_null_basis(tree18)
        pinned = [
            VertexVector(tree18.vertices, {2: 1, 3: -1}),
            VertexVector(tree18.vertices, {10: 1, 11: -1}),
            VertexVector(tree18.vertices, {10: 1, 12: -1}),
            VertexVector(tree18.vertices, {6: 1, 7: -1, 8: 1}),
        ]
        assert exact.span_equal(list(nb), pinned)

    def test_signed_entries_and_kernel(self, tree18):
        for x in tree_null_basis(tree18):
            assert set(x.entries.values()) <= {-1, 1}
            assert exact.in_adjacency_kernel(tree18, x)

    def test_nonsingular_tree_empty(self):
        assert tree_null_basis(path_tree(4)) == ()

    def test_tree6_lifted(self, tree6):
        nb = tree_null_basis(tree6)
        assert [entries(x) for x in nb] == [{1: 1, 3: -1}, {4: 1, 6: -1}]

    def test_matches_forest_basis_per_atom(self):
        for t in reference_trees():
            assert tree_null_basis(t) == composed_null_basis(t)

    def test_atoms_derive_nothing(self):
        t = caterpillar(60, 2)
        atoms = atom_set(t).atoms
        assert len(atoms) == 60
        tree_null_basis(t)
        key = f"{matching.__name__}.deficient_set"
        assert key in t._memo
        assert [a for a in atoms if key in a._memo and a.vertices != t.vertices] == []

    def test_kernel_failure_raises(self, monkeypatch):
        t = caterpillar(5, 2)
        calls = []
        orig = exact.in_adjacency_kernel

        def fail_third(host, x):
            calls.append(host)
            return orig(host, x) and len(calls) != 3

        monkeypatch.setattr(exact, "in_adjacency_kernel", fail_third)
        with pytest.raises(ValidationFailed, match="kernel equations"):
            tree_null_basis(t)
        assert all(host is t for host in calls)

    def test_wrong_length_raises(self, monkeypatch, tree8):
        # tree8's growth recurses into one component; dropping that thread
        # leaves the family a basic short
        orig = bases.components
        monkeypatch.setattr(bases, "components", lambda adj, keep: orig(adj, keep)[:-1])
        with pytest.raises(ValidationFailed, match="support - core"):
            tree_null_basis(tree8)


def composed_null_basis(t):
    """forest_basis per atom, lifted to t's domain and sorted, as
    tree_null_basis was composed before it grew all atoms in one pass."""
    out = [
        VertexVector._trusted(t.vertices, dict(x.entries))
        for a in atom_set(t).atoms
        for x in forest_basis(a).vectors
    ]
    out.sort(key=bases._order_key)
    return tuple(out)


def reference_trees():
    for n in range(1, 8):
        yield from enumerate_trees(n)
    rng = random.Random(20)
    for i in range(40):
        yield random_tree(rng.randint(2, 400), i)
        yield random_s_tree(rng.randint(2, 400), i)
    for k in (1, 2, 7, 60):
        yield star_tree(k)
    for spine, legs in ((1, 2), (2, 2), (9, 2), (30, 3), (12, 5)):
        yield caterpillar(spine, legs)
    for legs, length in ((3, 1), (3, 2), (8, 3), (5, 4), (40, 3)):
        yield spider(legs, length)
    for i in range(10):
        base = random_tree(rng.randint(1, 12), 100 + i)
        once = stellare(base, [rng.randint(2, 3) for _ in base.vertices]).tree
        yield stellare(once, [2] * once.order).tree
        parts = []
        for j in range(3):
            small = random_tree(rng.randint(1, 8), 200 + 3 * i + j)
            piece = stellare(small, [2] * small.order)
            parts.append((piece.tree, piece.pendants_of(small.vertices[0])[0]))
        yield s_coalescence(CoalescencePlan(tuple(parts))).tree


class TestRangeBases:
    def test_atom_range_roles(self, tree18):
        star = tree18.induced_subtree({9, 10, 11, 12})
        rb = atom_range_basis(star)
        assert [entries(x) for x in rb.vectors] == [{9: 1}, {10: 1, 11: 1, 12: 1}]
        assert rb.roles == ("core_unit", "bouquet")

    def test_order_one_empty(self):
        rb = atom_range_basis(Tree([], vertices=[3]))
        assert rb.vectors == ()

    def test_tree6_pinned_set(self, tree6):
        rb = tree_range_basis(tree6)
        got = {tuple(sorted(entries(x).items())) for x in rb.vectors}
        assert got == {
            ((2, 1),),
            ((1, 1), (3, 1)),
            ((5, 1),),
            ((4, 1), (6, 1)),
        }

    def test_tree8_pinned_set(self, tree8):
        rb = tree_range_basis(tree8)
        got = {tuple(sorted(entries(x).items())) for x in rb.vectors}
        assert got == {
            ((1, 1),),
            ((2, 1), (3, 1), (4, 1), (5, 1)),
            ((6, 1),),
            ((5, 1), (7, 1), (8, 1)),
        }

    def test_tree18_fourteen_vectors(self, tree18):
        rb = tree_range_basis(tree18)
        assert len(rb.vectors) == 14
        assert exact.span_equal(
            list(rb.vectors), list(exact.column_space_vectors(tree18))
        )
        # nonsingular-part vertices contribute plain units
        units = [entries(x) for x, r in zip(rb.vectors, rb.roles) if r == "unit"]
        assert {tuple(u) for u in units} == {(13,), (14,), (15,), (16,), (17,), (18,)}

    def test_repeated_bouquet_fails_the_peel(self, monkeypatch, tree8):
        # units and core units each hold a column alone, so only the bouquets
        # are peeled; a core listed twice repeats its bouquet, and the count
        # is raised to match so that only the peel can object
        sc = support_core(tree8)
        d, nu = matching.deficient_set(tree8)
        doubled = SupportCore(sc.support, (sc.core[0], *sc.core))
        monkeypatch.setattr(bases, "support_core", lambda t: doubled)
        monkeypatch.setattr(matching, "deficient_set", lambda t: (d, nu + 1))
        with pytest.raises(SpanMismatch, match="peeling"):
            tree_range_basis(tree8)

    def test_full_rank_tree_all_units(self):
        p4 = path_tree(4)
        rb = tree_range_basis(p4)
        assert len(rb.vectors) == 4
        assert set(rb.roles) == {"unit"}
