import pytest
from hypothesis import given, settings

from strees.decomposition import (
    SupportCore,
    atom_set,
    atom_set_to_json,
    bouquet,
    classify,
    decompose,
    decomposition_to_json,
    invariant_report,
    render_dot,
    support_core,
)
from strees.errors import NotCoreVertex
from strees.fixtures import path_tree, star_tree
from strees.generators import enumerate_trees, random_s_tree, random_tree
from strees.ops import CoalescencePlan, s_coalescence, stellare
from strees.tree import Tree, components
from test_properties import relabeled_trees


class TestSupportCore:
    def test_tree8(self, tree8):
        sc = support_core(tree8)
        assert sc.support == (2, 3, 4, 5, 7, 8)
        assert sc.core == (1, 6)

    def test_tree18(self, tree18):
        sc = support_core(tree18)
        assert sc.support == (2, 3, 6, 7, 8, 10, 11, 12)
        assert sc.core == (1, 4, 5, 9)

    def test_nonsingular_tree_empty(self):
        sc = support_core(path_tree(4))
        assert sc.support == () and sc.core == ()

    def test_single_vertex(self):
        sc = support_core(Tree([], vertices=[3]))
        assert sc.support == (3,) and sc.core == ()

    def test_no_support_support_edges(self, tree18):
        sc = support_core(tree18)
        s = set(sc.support)
        for u, v in tree18.edges():
            assert not (u in s and v in s)

    def test_core_never_pendant(self, tree18):
        sc = support_core(tree18)
        for v in sc.core:
            assert tree18.degree(v) >= 2


class TestDecompose:
    def test_tree18_parts(self, tree18):
        dec = decompose(tree18)
        assert tuple(p.vertices for p in dec.support_parts) == (
            (1, 2, 3),
            (4, 5, 6, 7, 8),
            (9, 10, 11, 12),
        )
        assert tuple(p.vertices for p in dec.nonsingular_parts) == (
            (13, 14),
            (15, 16, 17, 18),
        )
        assert dec.connection_edges == ((1, 13), (4, 14), (9, 13), (9, 16))
        assert dec.nonsingular_vertex_count == 6

    def test_tree8_single_part(self, tree8):
        dec = decompose(tree8)
        assert len(dec.support_parts) == 1
        assert dec.support_parts[0].vertices == tree8.vertices
        assert dec.nonsingular_parts == ()
        assert dec.connection_edges == ()

    def test_nonsingular_whole(self):
        dec = decompose(path_tree(4))
        assert dec.support_parts == ()
        assert len(dec.nonsingular_parts) == 1

    def test_json_shape(self, tree18):
        obj = decomposition_to_json(decompose(tree18))
        assert obj["support_parts"] == [[1, 2, 3], [4, 5, 6, 7, 8], [9, 10, 11, 12]]
        assert obj["nonsingular_parts"] == [[13, 14], [15, 16, 17, 18]]
        assert obj["connection_edges"] == [[1, 13], [4, 14], [9, 13], [9, 16]]


class TestAtoms:
    def test_tree6_bond_split(self, tree6):
        ats = atom_set(tree6)
        assert tuple(a.vertices for a in ats.atoms) == ((1, 2, 3), (4, 5, 6))
        assert ats.bond_edges == ((2, 5),)

    def test_tree18_atoms(self, tree18):
        ats = atom_set(tree18)
        assert tuple(a.vertices for a in ats.atoms) == (
            (1, 2, 3),
            (4, 5, 6, 7, 8),
            (9, 10, 11, 12),
        )
        assert ats.bond_edges == ()
        assert ats.max_core_degrees == (2, 2, 3)

    def test_tree8_one_atom(self, tree8):
        ats = atom_set(tree8)
        assert len(ats.atoms) == 1
        assert ats.max_core_degrees == (4,)

    def test_atoms_bipartite_between_classes(self, tree18):
        ats = atom_set(tree18)
        for a, sc in zip(ats.atoms, ats.atom_support_cores):
            s, c = set(sc.support), set(sc.core)
            for u, v in a.edges():
                assert (u in s) != (v in s)
                assert (u in c) != (v in c)

    def test_json_shape(self, tree6):
        obj = atom_set_to_json(atom_set(tree6))
        assert obj["atoms"] == [[1, 2, 3], [4, 5, 6]]
        assert obj["bond_edges"] == [[2, 5]]


def reference_atom_set(t):
    """Atoms the long way: decompose, then cut the core-core edges of each
    support part; also the connection edges as those inside no part."""
    dec = decompose(t)
    supp, core = set(dec.support), set(dec.core)
    atoms, bonds = [], []
    for part in dec.support_parts:
        part_bonds = [e for e in part.edges() if e[0] in core and e[1] in core]
        bonds.extend(part_bonds)
        cut = set(part_bonds)
        keep_adj = {
            v: tuple(w for w in part.adj[v] if (min(v, w), max(v, w)) not in cut)
            for v in part.vertices
        }
        atoms.extend(components(keep_adj, part.vertices))
    atoms.sort(key=lambda a: a.vertices[0])
    classes = [
        SupportCore(
            tuple(v for v in a.vertices if v in supp),
            tuple(v for v in a.vertices if v in core),
        )
        for a in atoms
    ]
    degrees = [max((a.degree(v) for v in c.core), default=0) for a, c in zip(atoms, classes)]
    inside = {e for p in dec.support_parts + dec.nonsingular_parts for e in p.edges()}
    connection = [e for e in t.edges() if e not in inside]
    return atoms, sorted(bonds), classes, degrees, connection


def assert_atoms_match_reference(t):
    atoms, bonds, classes, degrees, connection = reference_atom_set(t)
    ats = atom_set(t)
    assert [(a.vertices, a.adj) for a in ats.atoms] == [(a.vertices, a.adj) for a in atoms]
    assert list(ats.bond_edges) == bonds
    assert list(ats.atom_support_cores) == classes
    assert list(ats.max_core_degrees) == degrees
    assert list(decompose(t).connection_edges) == connection


class TestAtomsAgainstReference:
    def test_every_labeled_tree_to_order_7(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                assert_atoms_match_reference(t)

    @given(t=relabeled_trees())
    @settings(max_examples=150, deadline=None)
    def test_relabeled_trees(self, t):
        assert_atoms_match_reference(t)

    @pytest.mark.parametrize("seed", range(4))
    def test_stellare_and_coalescence(self, seed):
        base = random_tree(15, seed)
        once = stellare(base, [2 + (v + seed) % 3 for v in base.vertices]).tree
        assert_atoms_match_reference(once)
        assert_atoms_match_reference(random_s_tree(300, seed))
        plan = CoalescencePlan(((once, once.vertices[-1]), (star_tree(4), 1), (path_tree(3), 1)))
        assert_atoms_match_reference(s_coalescence(plan).tree)

    def test_adversarial_shapes(self):
        from test_forest_reference import SHAPES

        for make in SHAPES.values():
            assert_atoms_match_reference(make())


class TestBouquet:
    def test_pinned(self, tree18, tree8):
        assert bouquet(tree18, 4) == (6, 7)
        assert bouquet(tree18, 9) == (10, 11, 12)
        assert bouquet(tree8, 1) == (2, 3, 4, 5)

    def test_rejects_non_core(self, tree8):
        with pytest.raises(NotCoreVertex):
            bouquet(tree8, 2)


class TestClassify:
    def test_tree8(self, tree8):
        c = classify(tree8)
        assert c.is_support_tree
        assert not c.is_nonsingular_tree
        assert c.is_atom
        assert not c.is_basic
        assert c.max_core_degree == 4

    def test_path5_basic(self, p5):
        c = classify(p5)
        assert c.is_atom and c.is_basic
        assert c.max_core_degree == 2

    def test_path4_nonsingular(self):
        c = classify(path_tree(4))
        assert c.is_nonsingular_tree
        assert not c.is_support_tree and not c.is_atom

    def test_tree6_support_but_not_atom(self, tree6):
        c = classify(tree6)
        assert c.is_support_tree
        assert not c.is_atom  # the core-core bond disqualifies it

    def test_single_vertex_conventions(self):
        c = classify(Tree([], vertices=[0]))
        assert c.is_support_tree and c.is_atom
        assert not c.is_basic
        assert c.max_core_degree == 0

    def test_star_atom(self, k13):
        c = classify(k13)
        assert c.is_atom and not c.is_basic
        assert c.max_core_degree == 3


class TestInvariantReport:
    def test_tree18_numbers(self, tree18):
        rep = invariant_report(tree18)
        assert rep.order == 18
        assert rep.rank == 14
        assert rep.nullity == 4
        assert rep.matching_number == 7
        assert rep.independence_number == 11
        assert rep.support_size == 8
        assert rep.core_size == 4
        assert rep.nonsingular_vertex_count == 6
        assert "rank_is_twice_matching" in rep.checks
        assert "matching_count_from_atoms" in rep.checks

    def test_single_vertex(self):
        rep = invariant_report(Tree([], vertices=[0]))
        assert rep.rank == 0 and rep.nullity == 1
        assert rep.matching_number == 0 and rep.independence_number == 1


class TestDot:
    def test_roles_encoded(self, tree18, tree6):
        dec = decompose(tree18)
        dot = render_dot(tree18, dec, atom_set(tree18))
        assert dot.startswith("graph tree {")
        assert "style=filled" in dot  # supported vertices
        assert "doublecircle" in dot  # core vertices
        assert "style=dotted" in dot and "cluster" in dot  # nonsingular parts
        assert "style=dashed" in dot  # connection edges
        assert dot.rstrip().endswith("}")
        dot6 = render_dot(tree6, ats=atom_set(tree6))
        assert "style=bold" in dot6  # the core-core bond edge

    def test_deterministic(self, tree18):
        assert render_dot(tree18) == render_dot(tree18)
