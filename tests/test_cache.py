"""Derived structure is computed once per Tree object and never pins it."""

import gc
from functools import wraps

from strees import decomposition, exact, matching
from strees.bases import tree_null_basis, tree_range_basis
from strees.cli import main
from strees.decomposition import atom_set, decompose, invariant_report
from strees.fixtures import FIXTURE_NAMES, fixture_path, star_tree
from strees.generators import random_tree
from strees.ops import CoalescencePlan, coalescence_invariants, stellare_bases
from strees.tree import Tree, parse_tree, per_tree, tree_to_edge_text


def test_same_object_per_tree(tree18):
    assert exact.tree_kernel(tree18) is exact.tree_kernel(tree18)
    assert decompose(tree18) is decompose(tree18)
    assert atom_set(tree18) is atom_set(tree18)
    assert exact.tree_rank(tree18) == tree18.order - len(exact.tree_kernel(tree18))


# five legs of length three around vertex 0
SPIDER = [(0, 3 * i + 1) for i in range(5)] + [
    (3 * i + j, 3 * i + j + 1) for i in range(5) for j in (1, 2)
]


def _count_kernel_rows(monkeypatch):
    """Record the width of every kernel elimination from here on."""
    widths = []
    orig = exact._kernel_rows

    def counting(rows, col_labels):
        widths.append(len(col_labels))
        return orig(rows, col_labels)

    monkeypatch.setattr(exact, "_kernel_rows", counting)
    return widths


def _star_file(tmp_path):
    star = tmp_path / "star.edges"
    star.write_text(tree_to_edge_text(star_tree(40)))
    return str(star)


def test_null_basis_eliminates_no_kernel(capsys, monkeypatch, tmp_path):
    # support, core and nullity come from one maximum matching
    star = _star_file(tmp_path)
    widths = _count_kernel_rows(monkeypatch)
    assert main(["null-basis", fixture_path("tree18"), "--format", "json"]) == 0
    assert main(["null-basis", star, "--format", "json"]) == 0
    capsys.readouterr()
    assert widths == []


def test_range_basis_eliminates_no_kernel(capsys, monkeypatch, tmp_path):
    # the rank is 2*nu, and membership has a preimage instead of a kernel
    star = _star_file(tmp_path)
    widths = _count_kernel_rows(monkeypatch)
    assert main(["range-basis", star, "--format", "json"]) == 0
    capsys.readouterr()
    assert widths == []


def _count_eliminations(monkeypatch, name):
    """Record the row count of every call to exact.<name> from here on."""
    calls = []
    orig = getattr(exact, name)

    def counting(rows):
        calls.append(len(rows))
        return orig(rows)

    monkeypatch.setattr(exact, name, counting)
    return calls


def test_bases_eliminate_nothing(capsys, monkeypatch, tmp_path):
    # count, membership and independence by peeling: no elimination of any
    # family, kernel or rank
    spider = tmp_path / "spider.edges"
    spider.write_text(tree_to_edge_text(Tree(SPIDER)))
    calls = _count_eliminations(monkeypatch, "_eliminate")
    ranks = _count_eliminations(monkeypatch, "_rank")
    for path in (fixture_path("tree18"), _star_file(tmp_path), str(spider)):
        for cmd in ("null-basis", "range-basis"):
            assert main([cmd, path, "--format", "json"]) == 0
    capsys.readouterr()
    stellare_bases(random_tree(12, 3), [2, 3] * 6)
    assert calls == []
    assert ranks == []


def test_counts_eliminate_forward_once(capsys, monkeypatch, tmp_path):
    # invariants and classify print counts only: one rank elimination of the
    # whole tree, and no back-substitution
    spider = tmp_path / "spider.edges"
    spider.write_text(tree_to_edge_text(Tree(SPIDER)))
    widths = _count_kernel_rows(monkeypatch)
    calls = _count_eliminations(monkeypatch, "_eliminate")
    ranks = _count_eliminations(monkeypatch, "_rank")
    paths = [fixture_path(name) for name in FIXTURE_NAMES]
    paths += [_star_file(tmp_path), str(spider)]
    for path in paths:
        order = parse_tree(open(path).read()).order
        for cmd in ("invariants", "classify"):
            calls.clear()
            ranks.clear()
            assert main([cmd, path, "--format", "json"]) == 0
            assert calls == ranks == [order], (cmd, path)
    capsys.readouterr()
    calls.clear()
    ranks.clear()
    plan = CoalescencePlan(((random_tree(9, 1), 1), (star_tree(4), 1), (Tree(SPIDER), 1)))
    coalescence_invariants(plan)
    assert calls == ranks
    assert widths == []


def test_one_atom_tree_counts_matchings_once(monkeypatch):
    # a star and a spider are one atom each, a twin of the tree that starts
    # with the tree's (nu, count), so invariant_report runs the DP once
    inner = matching._matching_dp.__wrapped__
    orders = []

    @wraps(inner)
    def counting(t):
        orders.append(t.order)
        return inner(t)

    monkeypatch.setattr(matching, "_matching_dp", per_tree(counting))
    for t in (star_tree(40), Tree(SPIDER)):
        orders.clear()
        invariant_report(t)
        assert len(atom_set(t).atoms) == 1
        assert orders == [t.order]


def test_counts_build_no_parts(capsys, monkeypatch, tmp_path):
    # counts and atoms come from the support and core: no decompose call,
    # and one rooted order per tree and per atom other than the tree itself
    spider = tmp_path / "spider.edges"
    spider.write_text(tree_to_edge_text(Tree(SPIDER)))
    paths = [fixture_path(name) for name in FIXTURE_NAMES]
    paths += [_star_file(tmp_path), str(spider)]
    decomposes, roots = [], []
    orig_decompose, orig_postorder = decomposition.decompose, matching._postorder

    def counting_decompose(t):
        decomposes.append(t.order)
        return orig_decompose(t)

    def counting_postorder(adj, root):
        roots.append(len(adj))
        return orig_postorder(adj, root)

    monkeypatch.setattr(decomposition, "decompose", counting_decompose)
    monkeypatch.setattr(matching, "_postorder", counting_postorder)
    for path in paths:
        t = parse_tree(open(path).read())
        proper = [a.order for a in atom_set(t).atoms if a.order < t.order]
        for cmd, expect in (("invariants", [t.order] + proper), ("classify", [t.order])):
            roots.clear()
            assert main([cmd, path, "--format", "json"]) == 0
            assert sorted(roots) == sorted(expect), (cmd, path)
    capsys.readouterr()
    assert decomposes == []


def test_cached_structure_leaves_no_cycles():
    # a star and a spider are single atoms, whose atom is a twin of the tree
    for make in (lambda: random_tree(300, 5), lambda: star_tree(40), lambda: Tree(SPIDER)):
        gc.collect()
        gc.disable()
        try:
            t = make()
            decompose(t)
            atom_set(t)
            tree_null_basis(t)
            tree_range_basis(t)
            invariant_report(t)
            del t
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_range_basis_proven_without_span_checks(capsys, monkeypatch):
    span_calls = []
    kernel_calls = []
    orig_span, orig_rows = exact.span_equal, exact._kernel_rows

    def counting_span(a, b):
        span_calls.append(1)
        return orig_span(a, b)

    def counting_rows(rows, col_labels):
        if len(col_labels) == 18:
            kernel_calls.append(1)
        return orig_rows(rows, col_labels)

    monkeypatch.setattr(exact, "span_equal", counting_span)
    monkeypatch.setattr(exact, "_kernel_rows", counting_rows)
    assert main(["range-basis", fixture_path("tree18"), "--format", "json"]) == 0
    capsys.readouterr()
    assert span_calls == []
    assert kernel_calls == []
