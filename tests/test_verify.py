import dataclasses

import pytest

from strees import exact, matching, verify
from strees.bases import RangeBasis, tree_null_basis, tree_range_basis
from strees.decomposition import invariant_report
from strees.errors import FormulaMismatch, TooSmall
from strees.fixtures import fixture_tree, path_tree, star_tree
from strees.generators import random_tree
from strees.identities import require
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
        assert "support_is_kernel_support" in names
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

    def test_support_cross_checked_by_certificate(self, monkeypatch):
        # a matching route that drops one supported vertex
        honest = matching.deficient_set

        def short(t):
            d, nu = honest(t)
            return d[1:], nu

        monkeypatch.setattr(matching, "deficient_set", short)
        report = check_tree(fixture_tree("tree8"), with_bases=False)
        assert "support_is_kernel_support" in {r.name for r in report.failures}

    def test_range_basis_cross_checked_by_certificate(self, monkeypatch, tree8):
        # the right count but the wrong span: e2 leaves the column space
        units = tuple(VertexVector.unit(tree8.vertices, v) for v in (1, 2, 3, 4))
        fake = RangeBasis(tree=tree8, vectors=units, roles=("unit",) * 4)
        monkeypatch.setattr(verify, "tree_range_basis", lambda t: fake)
        report = check_tree(tree8)
        assert [r.name for r in report.failures] == ["range_basis"]

    def test_null_vector_outside_kernel_fails_certificate(self, monkeypatch, tree8):
        # the right length and the same supports, but one sign flipped
        nb = list(tree_null_basis(tree8))
        x = nb[0]
        top = max(x.entries)
        bad = VertexVector(tree8.vertices, {**x.entries, top: -x.entries[top]})
        assert not exact.in_adjacency_kernel(tree8, bad)
        monkeypatch.setattr(verify, "tree_null_basis", lambda t: (bad, *nb[1:]))
        failed = {r.name for r in check_tree(tree8).failures}
        assert {"null_basis", "support_is_kernel_support"} <= failed

    def test_repeated_null_vector_fails_certificate(self, monkeypatch, tree8):
        # the right length, every vector in the kernel, but rank one short
        nb = tree_null_basis(tree8)
        monkeypatch.setattr(verify, "tree_null_basis", lambda t: (*nb[:-1], nb[0]))
        failed = {r.name for r in check_tree(tree8).failures}
        assert "null_basis" in failed
        assert "null_basis_signed_entries" not in failed

    def test_dependent_range_family_fails_certificate(self, monkeypatch, tree18):
        # orthogonal to the kernel and of the right length, but dependent
        rb = tree_range_basis(tree18)
        vecs = (*rb.vectors[:-1], rb.vectors[0])
        fake = RangeBasis(tree=tree18, vectors=vecs, roles=rb.roles)
        monkeypatch.setattr(verify, "tree_range_basis", lambda t: fake)
        report = check_tree(tree18)
        assert [r.name for r in report.failures] == ["range_basis"]

    def test_no_kernel_elimination_or_span_comparison(self, monkeypatch):
        # the certificate needs only tree_rank, kernel equations and ranks
        calls = []
        for name in ("tree_kernel", "_kernel_rows", "_eliminate", "span_equal",
                     "column_space_vectors"):
            orig = getattr(exact, name)

            def counting(*args, _name=name, _orig=orig):
                calls.append(_name)
                return _orig(*args)

            monkeypatch.setattr(exact, name, counting)
        trees = [fixture_tree(name) for name in ("tree8", "tree18", "tree6")]
        trees += [star_tree(30), path_tree(31), random_tree(40, 5)]
        for t in trees:
            assert check_tree(t).ok
        assert sweep(4).ok
        assert calls == []

    def test_failure_detail_surfaces(self, monkeypatch):
        # the brute force loses one of the path's two maximum matchings
        honest = exact.brute_force

        def short(t, limit=16):
            oracle = honest(t, limit)
            return dataclasses.replace(oracle, maximum_matchings=oracle.maximum_matchings[1:])

        monkeypatch.setattr(exact, "brute_force", short)
        report = check_tree(Tree([(1, 2), (2, 3)]))
        assert [(r.name, r.detail) for r in report.failures] == [
            ("matching_count_brute", "got 2, expected 1")
        ]
        assert all(r.detail == "" for r in report.results if r.ok)

    def test_dropped_nonsingular_part_fails(self, monkeypatch, tree18):
        # the counts come from the support and core, so the parts need a row of their own
        honest = verify.decompose

        def short(t):
            dec = honest(t)
            return dataclasses.replace(dec, nonsingular_parts=dec.nonsingular_parts[:-1])

        monkeypatch.setattr(verify, "decompose", short)
        assert not check_tree(tree18).ok

    def test_check_names_pinned(self, tree18):
        # a renamed or dropped row must be deliberate
        invariants = (
            "rank_is_twice_matching",
            "nullity_is_support_minus_core",
            "matching_from_parts",
            "independence_from_parts",
            "independence_plus_matching",
            "nonsingular_vertices_even",
            "matching_count_from_atoms",
        )
        assert invariant_report(tree18).checks == invariants
        assert [r.name for r in check_tree(tree18).results] == [
            *invariants,
            "support_is_kernel_support",
            "nonsingular_parts_outside_closed_support",
            "nonsingular_parts_match_perfectly",
            "support_parts_classify",
            "nonsingular_parts_classify",
            "atoms_classify",
            "atoms_bipartite",
            "atom_nullity_bound",
            "basic_equivalence_all_or_nothing",
            "null_basis_signed_entries",
            "null_basis",
            "range_basis",
        ]


class TestIdentityTable:
    def test_holding_rows_give_their_names(self):
        assert require(("a", 1, 1), ("b", True, True)) == ("a", "b")

    def test_failure_carries_both_sides(self):
        big = 10**5000  # past the int-to-str cap
        with pytest.raises(FormulaMismatch) as e:
            require(("a", 1, 1), ("b", big, big + 1), ("c", False, True))
        assert e.value.failures == (("b", big, big + 1), ("c", False, True))
        assert str(e.value).startswith("identity failed: b (got 1000")
        assert str(e.value).endswith("; c (got False, expected True)")


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
