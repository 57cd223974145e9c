import pytest

from strees import exact
from strees.bases import tree_null_basis, tree_range_basis
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

    def test_public_constructor_still_validates(self, tree8):
        # the library builds its own vectors through a trusted constructor;
        # user input keeps going through the validating one
        with pytest.raises(DomainMismatch):
            VertexVector(tree8.vertices, {99: 1})
        with pytest.raises(DomainMismatch):
            VertexVector.indicator(tree8.vertices, (1, 99))
        with pytest.raises(DomainMismatch):
            VertexVector.unit(tree8.vertices, 0)

    def test_trusted_vectors_equal_validated_ones(self, tree18):
        cols = exact.column_space_vectors(tree18)
        for v, col in zip(tree18.vertices, cols):
            assert col == VertexVector.indicator(tree18.vertices, tree18.adj[v])
            assert col.domain is tree18.vertices
        for x in tree_null_basis(tree18) + tree_range_basis(tree18).vectors:
            assert x == VertexVector(tree18.vertices, x.entries)
            assert 0 not in x.entries.values()

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


# (input, error class, message): every parse and tree error, and for inputs
# with several faults, the one reported first
PARSE_ERRORS = [
    ("one two\n", ParseError, "line 1: expected integers, got 'one two'"),
    ("1 2\n  3 x  # note\n", ParseError, "line 2: expected integers, got '3 x'"),
    ("1 2 3\n", ParseError, "line 1: expected 'u v', got '1 2 3'"),
    ("1 2\n\t4 5 6 # c\n", ParseError, "line 2: expected 'u v', got '4 5 6'"),
    ("1 -2\n", ParseError, "vertex ids must be non-negative"),
    ("-3\n", ParseError, "vertex ids must be non-negative"),
    ("# nothing\n\n   \n", ParseError, "no vertices found in input"),
    ("{nope", ParseError,
     "bad JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"edges": [[1, 2, 3]]}', ParseError, "bad edge entry: [1, 2, 3]"),
    ('{"vertices": [true], "edges": []}', ParseError, "bad vertex entry: True"),
    ('{"vertices": 3}', ParseError, "tree JSON needs 'vertices' and 'edges' lists"),
    ("1 1\n", NotATree, "self-loop at 1"),
    ("1 2\n2 1\n", NotATree, "duplicate edge {2,1}"),
    ("1 2\n3 4\n", NotATree, "4 vertices need 3 edges, got 2"),
    ("1 2\n2 3\n3 1\n4 5\n", NotATree, "not connected"),
    ("1 2\n5\n", NotATree, "3 vertices need 2 edges, got 1"),
    ('{"edges": [[1, 1.5]]}', NotATree, "vertex ids must be integers: (1, 1.5)"),
    ('{"edges": [[1, -2]]}', NotATree, "vertex ids must be non-negative: (1, -2)"),
    ('{"vertices": [], "edges": []}', NotATree, "empty vertex set"),
    # several faults: a bad line anywhere beats a negative id, the first bad
    # line wins, and integer conversion is checked before the token count
    ("-1 2\n1 2\n1 2 3\nx\n", ParseError, "line 3: expected 'u v', got '1 2 3'"),
    ("1 x 3\n", ParseError, "line 1: expected integers, got '1 x 3'"),
    ("1 2\n-1 -1\n", ParseError, "vertex ids must be non-negative"),
    ("1 1\n1 2\n1 2\n", NotATree, "self-loop at 1"),
    ("1 2\n1 2\n3 3\n", NotATree, "duplicate edge {1,2}"),
    ('{"edges": [[1, -2], [3, true]]}', NotATree, "vertex ids must be non-negative: (1, -2)"),
    ('{"edges": [[true, -2]]}', NotATree, "vertex ids must be integers: (True, -2)"),
]

TREE_ERRORS = [
    ([(1, 2, 3)], (), "not an edge pair: (1, 2, 3)"),
    ([5], (), "not an edge pair: 5"),
    ([(1, True)], (), "vertex ids must be integers: (1, True)"),
    ([("1", 2)], (), "vertex ids must be integers: ('1', 2)"),
    ([(0, -1)], (), "vertex ids must be non-negative: (0, -1)"),
    ([(2, 2)], (), "self-loop at 2"),
    ([(0, 1), (1, 0)], (), "duplicate edge {1,0}"),
    ([(0, 1)], [-4], "vertex ids must be non-negative integers: -4"),
    ([(0, 1)], [False], "vertex ids must be non-negative integers: False"),
    ([], (), "empty vertex set"),
    ([(0, 1)], [7], "3 vertices need 2 edges, got 1"),
    ([(0, 1), (1, 2), (2, 0), (3, 4)], (), "not connected"),
    # several faults: edges are checked in order, each before the vertices
    ([(0, 1), (1, 1), ("a", 2)], [-1], "self-loop at 1"),
    ([(0, 1), (0, 1), (0, -5)], (), "duplicate edge {0,1}"),
    ([(0, 1), (0, 2)], [-1, 9], "vertex ids must be non-negative integers: -1"),
]


@pytest.mark.parametrize("text, cls, message", PARSE_ERRORS)
def test_parse_error_messages(text, cls, message):
    with pytest.raises(cls) as info:
        parse_tree(text)
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("edges, vertices, message", TREE_ERRORS)
def test_tree_error_messages(edges, vertices, message):
    with pytest.raises(NotATree) as info:
        Tree(edges, vertices=vertices)
    assert type(info.value) is NotATree
    assert str(info.value) == message
