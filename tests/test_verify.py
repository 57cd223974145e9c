import pytest

from strees import verify
from strees.bases import RangeBasis
from strees.errors import TooSmall
from strees.fixtures import path_tree
from strees.tree import Tree, VertexVector
from strees.verify import check_tree, fixture_checks, sweep


class TestCheckTree:
    def test_fixture_batteries_clean(self, tree8, tree18, tree6):
        for t in (tree8, tree18, tree6):
            report = check_tree(t)
            assert report.ok, report.failures
            assert report.order == t.order

    def test_check_names_present(self, tree8):
        names = {r.name for r in check_tree(tree8).results}
        assert "rank_is_twice_matching" in names
        assert "matching_number_brute" in names
        assert "null_basis" in names

    def test_without_brute(self):
        t = path_tree(30)  # far past the brute-force cap
        report = check_tree(t, with_brute=False)
        assert report.ok
        assert not any("brute" in r.name for r in report.results)

    def test_brute_skipped_over_limit(self):
        report = check_tree(path_tree(20), brute_limit=16)
        assert report.ok
        assert not any("brute" in r.name for r in report.results)

    def test_range_basis_cross_checked_by_elimination(self, monkeypatch, tree8):
        # the right count but the wrong span: e2 leaves the column space
        units = tuple(VertexVector.unit(tree8.vertices, v) for v in (1, 2, 3, 4))
        fake = RangeBasis(tree=tree8, vectors=units, roles=("unit",) * 4)
        monkeypatch.setattr(verify, "tree_range_basis", lambda t: fake)
        report = check_tree(tree8)
        assert [r.name for r in report.failures] == ["range_basis"]

    def test_failure_detail_surfaces(self):
        # a fabricated failing result keeps its detail string
        report = check_tree(Tree([(1, 2), (2, 3)]))
        assert report.failures == ()


class TestSweep:
    def test_small_sweep_clean(self):
        res = sweep(5)
        assert res.total == 1 + 1 + 3 + 16 + 125
        assert res.failed == 0
        assert res.ok
        assert res.failures == ()

    def test_rejects_order_below_one(self):
        with pytest.raises(TooSmall):
            sweep(0)

    def test_progress_callback(self):
        seen = []
        sweep(3, progress=lambda n, total: seen.append((n, total)))
        assert seen == [(1, 1), (2, 2), (3, 5)]


class TestFixtureChecks:
    def test_all_pass(self):
        results = fixture_checks()
        assert len(results) == 19
        bad = [r for r in results if not r.ok]
        assert bad == []
