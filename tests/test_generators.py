import dataclasses

import pytest

from freetrees import canonical_form
from strees import generators
from strees.decomposition import classify, decompose
from strees.errors import BadCode, FormulaMismatch, TooSmall
from strees.generators import (
    PruferCode,
    enumerate_trees,
    prufer_decode,
    random_s_tree,
    random_tree,
)
from strees.tree import Tree


class TestPruferCode:
    def test_rejects_wrong_length(self):
        with pytest.raises(BadCode):
            PruferCode(4, (0,))

    def test_rejects_out_of_range(self):
        with pytest.raises(BadCode):
            PruferCode(3, (3,))
        with pytest.raises(BadCode):
            PruferCode(3, (-1,))

    def test_rejects_no_vertices(self):
        with pytest.raises(BadCode):
            PruferCode(0, ())

    def test_small_codes(self):
        assert prufer_decode(PruferCode(1, ())).vertices == (0,)
        assert prufer_decode(PruferCode(2, ())).edges() == ((0, 1),)
        assert prufer_decode(PruferCode(3, (0,))).edges() == ((0, 1), (0, 2))

    def test_decode_gives_valid_trees(self):
        for seq in [(0, 0, 0), (1, 2, 3), (4, 4, 1), (3, 2, 1)]:
            t = prufer_decode(PruferCode(5, seq))
            assert t.order == 5


class TestEnumerate:
    def test_cayley_counts(self):
        expected = {1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296}
        for n, count in expected.items():
            trees = list(enumerate_trees(n))
            assert len(trees) == count
            assert len({t.edges() for t in trees}) == count

    def test_covers_all_shapes(self):
        # n=4: the path and the star are the only shapes
        shapes = {canonical_form(t) for t in enumerate_trees(4)}
        assert len(shapes) == 2

    def test_rejects_zero(self):
        with pytest.raises(TooSmall):
            list(enumerate_trees(0))


class TestRandomTree:
    def test_reproducible(self):
        assert random_tree(8, 42).edges() == random_tree(8, 42).edges()

    def test_seed_changes_output(self):
        outputs = {random_tree(12, s).edges() for s in range(20)}
        assert len(outputs) > 1

    def test_small_orders(self):
        assert random_tree(1, 0).order == 1
        assert random_tree(2, 0).edges() == ((0, 1),)

    def test_valid_at_scale(self):
        t = random_tree(200, 7)
        assert t.order == 200


class TestRandomSupportTree:
    def test_certified(self):
        for seed in range(25):
            t = random_s_tree(30, seed)
            assert t.order <= 30
            cls = classify(t)
            assert cls.is_support_tree
            assert decompose(t).nonsingular_parts == ()

    def test_reproducible(self):
        a = random_s_tree(25, 3)
        b = random_s_tree(25, 3)
        assert a.edges() == b.edges()

    def test_tiny_budget(self):
        assert random_s_tree(1, 0).order == 1
        assert random_s_tree(2, 0).order == 1  # no composition fits in 2

    def test_failure_names_the_dependent_identities(self, monkeypatch):
        # a decomposition that claims one nonsingular part
        honest = generators.decompose
        monkeypatch.setattr(
            generators,
            "decompose",
            lambda t: dataclasses.replace(honest(t), nonsingular_parts=(Tree([(0, 1)]),)),
        )
        with pytest.raises(FormulaMismatch) as e:
            random_s_tree(30, 0)
        assert e.value.failures == (("no_nonsingular_parts", 1, 0),)

    def test_rejects_zero_budget(self):
        with pytest.raises(TooSmall):
            random_s_tree(0, 0)
