"""The CLI's JSON writer against json.dumps(obj, sort_keys=True, indent=2)."""

import json
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from strees import cli
from strees.bases import tree_null_basis, tree_range_basis
from strees.fixtures import FIXTURE_NAMES, fixture_path
from strees.generators import random_tree
from strees.tree import Tree, VertexVector, parse_tree, tree_to_edge_text


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sparse_form(vectors):
    """The sparse list form the bases had before the writer took vectors."""
    return [[{"vertex": v, "coeff": int(x.entries[v])} for v in x.support()] for x in vectors]


def plain(obj):
    """obj with every VertexVector replaced by its sparse list form."""
    if isinstance(obj, VertexVector):
        return sparse_form([obj])[0]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return obj


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),  # control characters
    st.text(st.characters(min_codepoint=0x80)),  # beyond ASCII
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps(obj):
    assert cli._json_out(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj", [[], {}, (), [[]], {"a": {}}, [1, True, 0, False], [-(10**50)], "\x00é\U0001f600"]
)
def test_writer_edge_cases(obj):
    assert cli._json_out(obj) == reference(obj)


@pytest.mark.parametrize("obj", [{1, 2}, Fraction(1, 2), object(), [b"x"], {"k": b"x"}])
def test_writer_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError):
        cli._json_out(obj)


def test_vertex_vectors_keep_sparse_form(tree6):
    nb = tree_null_basis(tree6)
    assert json.loads(cli._json_out(nb)) == [
        [{"vertex": 1, "coeff": 1}, {"vertex": 3, "coeff": -1}],
        [{"vertex": 4, "coeff": 1}, {"vertex": 6, "coeff": -1}],
    ]
    assert cli._json_out({"vectors": nb}) == reference({"vectors": sparse_form(nb)})
    assert cli._json_out(VertexVector((1, 2), {})) == reference([])


@pytest.mark.parametrize("seed", range(8))
def test_vertex_vectors_written_as_sparse_form(seed):
    t = random_tree(10 + 15 * seed, seed)
    for vectors in (tree_null_basis(t), tree_range_basis(t).vectors):
        obj = {"vectors": vectors, "n": t.order}
        assert cli._json_out(obj) == reference({"vectors": sparse_form(vectors), "n": t.order})


def _relabelled_files(tmp_path, count=12):
    rng = random.Random(11)
    paths = []
    for i in range(count):
        n = rng.randint(1, 60)
        t = random_tree(n, 200 + i)
        ids = rng.sample(range(4 * n), n)
        name = dict(zip(t.vertices, ids))
        if n == 1:
            t2 = Tree([], vertices=[ids[0]])
        else:
            t2 = Tree([(name[u], name[v]) for u, v in t.edges()])
        p = tmp_path / f"r{i}.edges"
        p.write_text(tree_to_edge_text(t2))
        paths.append(str(p))
    return paths


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_cli_json_matches_json_dumps(capsys, monkeypatch, tmp_path):
    # every JSON-emitting command, once with the writer and once with
    # json.dumps in its place
    files = [fixture_path(n) for n in FIXTURE_NAMES] + _relabelled_files(tmp_path)
    argvs = []
    for f in files:
        for cmd in ("decompose", "atoms", "null-basis", "range-basis", "invariants", "classify"):
            argvs.append([cmd, f])
        order = parse_tree(open(f).read()).order
        argvs.append(["stellare", f, "--ks", ",".join(["2"] * order)])
    argvs += [
        ["verify", fixture_path("tree8")],
        ["verify", "--fixtures"],
        ["random", "--n", "30", "--seed", "2"],
        ["random", "--n", "40", "--seed", "2", "--s-tree"],
        ["enumerate", "--n", "4"],
    ]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"parts": [
        {"tree": {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]}, "attach": 0},
        {"tree": {"vertices": [0, 1], "edges": [[0, 1]]}, "attach": 1},
    ]}))
    argvs.append(["coalesce", str(plan)])
    ours = [_run(capsys, a + ["--format", "json"]) for a in argvs]
    monkeypatch.setattr(cli, "_json_out", lambda obj: reference(plain(obj)))
    theirs = [_run(capsys, a + ["--format", "json"]) for a in argvs]
    for a, mine, ref in zip(argvs, ours, theirs):
        assert mine == ref, a
