import pytest

from strees.errors import (
    DomainMismatch,
    NotATree,
    ParseError,
    VertexNotFound,
)
from strees.tree import (
    Tree,
    VertexVector,
    parse_tree,
    tree_from_json,
    tree_to_edge_text,
    tree_to_json,
)


class TestTreeConstruction:
    def test_single_vertex(self):
        t = Tree([], vertices=[5])
        assert t.order == 1
        assert t.vertices == (5,)
        assert t.edges() == ()

    def test_edge_list(self):
        t = Tree([(2, 1), (2, 3)])
        assert t.vertices == (1, 2, 3)
        assert t.edges() == ((1, 2), (2, 3))
        assert t.neighbors(2) == (1, 3)
        assert t.degree(2) == 2

    def test_rejects_cycle(self):
        with pytest.raises(NotATree):
            Tree([(1, 2), (2, 3), (3, 1)])

    def test_rejects_disconnected(self):
        with pytest.raises(NotATree):
            Tree([(1, 2), (3, 4)])

    def test_rejects_self_loop(self):
        with pytest.raises(NotATree):
            Tree([(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(NotATree):
            Tree([(1, 2), (2, 1)])

    def test_rejects_isolated_extra_vertex(self):
        with pytest.raises(NotATree):
            Tree([(1, 2)], vertices=[1, 2, 3])

    def test_rejects_bad_ids(self):
        with pytest.raises(NotATree):
            Tree([(-1, 2)])
        with pytest.raises(NotATree):
            Tree([("a", 2)])

    def test_contains(self):
        t = Tree([(1, 2)])
        assert 1 in t and 2 in t and 3 not in t


class TestTreeQueries:
    def test_path(self, tree8):
        assert tree8.path(2, 7) == [2, 1, 5, 6, 7]
        assert tree8.path(4, 4) == [4]

    def test_path_missing_vertex(self, tree8):
        with pytest.raises(VertexNotFound):
            tree8.path(1, 99)

    def test_subtree_toward(self, tree8):
        sub = tree8.subtree_toward(1, 5)
        assert sub.vertices == (5, 6, 7, 8)
        assert sub.edges() == ((5, 6), (6, 7), (6, 8))
        whole = tree8.subtree_toward(3, 3)
        assert whole.vertices == tree8.vertices

    def test_induced_subtree_requires_connected(self, tree8):
        with pytest.raises(NotATree):
            tree8.induced_subtree({2, 7})

    def test_components_within(self, tree8):
        comps = tree8.components_within({2, 3, 6, 7, 8})
        assert tuple(c.vertices for c in comps) == ((2,), (3,), (6, 7, 8))


class TestVertexVector:
    def test_zero_entries_dropped(self):
        x = VertexVector((1, 2, 3), {1: 1, 2: 0})
        assert x.entries == {1: 1}
        assert x.support() == (1,)

    def test_domain_enforced(self):
        with pytest.raises(DomainMismatch):
            VertexVector((1, 2), {3: 1})
        for bad in ("a", None, 1.5):
            with pytest.raises(DomainMismatch):
                VertexVector((1, 2), {bad: 1})
            with pytest.raises(DomainMismatch):
                VertexVector((1, 2), {})[bad]
        # an unsorted domain still admits every member and only those
        x = VertexVector((3, 1, 2), {1: 1, 3: 2})
        assert x[3] == 2 and x[2] == 0
        with pytest.raises(DomainMismatch):
            VertexVector((3, 1, 2), {4: 1})

    def test_indicator(self):
        x = VertexVector.indicator((1, 2, 3), (1, 3))
        assert x.entries == {1: 1, 3: 1}

    def test_equality_hash(self):
        a = VertexVector((1, 2), {1: 1})
        b = VertexVector((1, 2), {1: 1})
        assert a == b and hash(a) == hash(b)


class TestParsing:
    def test_edge_text_round_trip(self, tree8):
        text = tree_to_edge_text(tree8)
        again = parse_tree(text)
        assert again.edges() == tree8.edges()

    def test_comments_and_blanks(self):
        t = parse_tree("# a comment\n\n1 2\n2 3\n")
        assert t.vertices == (1, 2, 3)

    def test_single_vertex_line(self):
        t = parse_tree("7\n")
        assert t.vertices == (7,)

    def test_json_round_trip(self, tree18):
        again = tree_from_json(tree_to_json(tree18))
        assert again.edges() == tree18.edges()

    def test_json_text_detected(self, tree6):
        import json

        again = parse_tree(json.dumps(tree_to_json(tree6)))
        assert again.edges() == tree6.edges()

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_tree("1 2 3\n")
        with pytest.raises(ParseError):
            parse_tree("one two\n")

    def test_parse_empty(self):
        with pytest.raises(ParseError):
            parse_tree("# nothing\n")
