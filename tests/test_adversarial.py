"""Adversarial shapes of about 10^4 vertices: the elimination oracle, and the
builders' own proofs where the oracle is slow."""

import pytest

from strees import exact
from strees.bases import tree_null_basis, tree_range_basis
from strees.fixtures import path_tree, star_tree
from strees.generators import random_tree
from strees.matching import matching_number
from strees.ops import stellare
from strees.tree import Tree


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

# The star's kernel and the spider's null basis share one column across the
# family, so the cheapest-row pivot order updates every remaining row at every
# step: the oracle's span checks take minutes, not seconds, on these two.
SLOW = {"star", "spider"}


@pytest.mark.parametrize(
    "shape",
    [pytest.param(s, marks=pytest.mark.slow) if s in SLOW else s for s in sorted(SHAPES)],
)
def test_large_shape_against_oracle(shape):
    t = SHAPES[shape]()
    assert 9_990 <= t.order <= 10_000
    kern = exact.tree_kernel(t)
    assert len(kern) == t.order - 2 * matching_number(t)
    assert exact.span_equal(tree_null_basis(t), kern)
    assert exact.span_equal(tree_range_basis(t).vectors, exact.column_space_vectors(t))


# The builders prove their bases by count, membership and peeling, with no
# elimination, so they stay fast on the shapes the oracle finds slow.
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


@pytest.mark.parametrize("shape", ["star", "spider"])
def test_large_range_basis_proves_itself(shape):
    t = SHAPES[shape]()
    rb = tree_range_basis(t)
    assert len(rb.vectors) == 2 * matching_number(t)
