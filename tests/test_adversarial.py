"""Adversarial shapes of about 10^4 vertices: the elimination oracle, and the
builders' own proofs; the same shapes at about 10^5 vertices through the
check battery's certificate; and the operations on chains of thousands of
stellare pieces."""

import pytest

from strees import exact
from strees.bases import tree_null_basis, tree_range_basis
from strees.fixtures import path_tree, star_tree
from strees.generators import random_tree
from strees.matching import matching_number
from strees.ops import internal_support, split_fully, stellare
from strees.tree import Tree
from strees.verify import check_tree


def caterpillar(spine: int, legs: int) -> Tree:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(legs):
            edges.append((i, nxt))
            nxt += 1
    return Tree(edges)


def spider(legs: int, length: int) -> Tree:
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Tree(edges)


def stellare_chain(pieces: int) -> Tree:
    """c_i = 4i with leaves 4i + 1 and 4i + 2, joined c_i - s_i - c_(i+1) through
    s_i = 4i + 3: each s_i is an internal supported vertex."""
    edges = []
    for i in range(pieces):
        c = 4 * i
        edges += [(c, c + 1), (c, c + 2)]
        if i + 1 < pieces:
            edges += [(c, c + 3), (c + 3, c + 4)]
    return Tree(edges)


def double_stellare(base: Tree) -> Tree:
    once = stellare(base, [2] * base.order).tree
    return stellare(once, [2] * once.order).tree


SHAPES = {
    "path": lambda: path_tree(10_000),
    "star": lambda: star_tree(9_999),
    "caterpillar": lambda: caterpillar(2_500, 3),
    "spider": lambda: spider(3_333, 3),
    "double_stellare": lambda: double_stellare(random_tree(1_111, 4)),
}

@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_large_shape_against_oracle(shape):
    t = SHAPES[shape]()
    assert 9_990 <= t.order <= 10_000
    kern = exact.tree_kernel(t)
    assert len(kern) == t.order - 2 * matching_number(t)
    assert exact.span_equal(tree_null_basis(t), kern)
    assert exact.span_equal(tree_range_basis(t).vectors, exact.column_space_vectors(t))


# The builders prove their bases by count, membership and peeling, with no
# elimination, on the shapes whose families share one column.
@pytest.mark.parametrize("shape", ["star", "spider"])
def test_large_null_basis_proves_itself(shape):
    t = SHAPES[shape]()
    nb = tree_null_basis(t)  # raises unless count, membership and peeling hold
    assert len(nb) == t.order - 2 * matching_number(t)


# Growing the null basis costs about the size of its output, so trees of 10^5
# vertices take seconds.
@pytest.mark.slow
@pytest.mark.parametrize("shape", ["star", "spider"])
def test_null_basis_of_1e5_vertices(shape):
    t = star_tree(99_999) if shape == "star" else spider(33_333, 3)
    assert t.order == 100_000
    nu = matching_number(t)
    assert len(tree_null_basis(t)) == t.order - 2 * nu


SHAPES_1E5 = {
    "path": lambda: path_tree(100_000),
    "star": lambda: star_tree(99_999),
    "caterpillar": lambda: caterpillar(25_000, 3),
    "spider": lambda: spider(33_333, 3),
    "double_stellare": lambda: double_stellare(random_tree(11_111, 4)),
}


# The battery certifies both bases with tree_rank, the kernel equations and
# two ranks, so it needs no kernel elimination and scales to 10^5 vertices.
@pytest.mark.slow
@pytest.mark.parametrize("shape", sorted(SHAPES_1E5))
def test_battery_on_1e5_vertices(shape):
    t = SHAPES_1E5[shape]()
    assert 99_990 <= t.order <= 100_000
    report = check_tree(t)
    assert report.ok, report.failures
    assert {"null_basis", "range_basis"} <= {r.name for r in report.results}


@pytest.mark.parametrize("shape", ["star", "spider"])
def test_large_range_basis_proves_itself(shape):
    t = SHAPES[shape]()
    rb = tree_range_basis(t)
    assert len(rb.vectors) == 2 * matching_number(t)


# One pass: every s_i is cut at once, so 2,000 pieces take well under a second.
def test_split_fully_stellare_chain_of_2000():
    t = stellare_chain(2_000)
    assert t.order == 7_999
    pieces = split_fully(t)
    assert len(pieces) == 2_000
    for i, p in enumerate(pieces):
        copies = tuple(7_998 + 2 * i + j for j in (0, 1) if 0 < i + j < 2_000)
        assert p.vertices == (4 * i, 4 * i + 1, 4 * i + 2) + copies
        assert p.neighbors(4 * i) == p.vertices[1:]
        assert internal_support(p) == ()
