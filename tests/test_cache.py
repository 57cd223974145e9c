"""Derived structure is computed once per Tree object and never pins it."""

import gc

from strees import exact
from strees.bases import tree_null_basis, tree_range_basis
from strees.cli import main
from strees.decomposition import atom_set, decompose, invariant_report
from strees.fixtures import fixture_path, star_tree
from strees.generators import random_tree
from strees.tree import tree_to_edge_text


def test_same_object_per_tree(tree18):
    assert exact.tree_kernel(tree18) is exact.tree_kernel(tree18)
    assert decompose(tree18) is decompose(tree18)
    assert atom_set(tree18) is atom_set(tree18)
    assert exact.tree_rank(tree18) == tree18.order - len(exact.tree_kernel(tree18))


def test_null_basis_eliminates_whole_tree_once(capsys, monkeypatch):
    calls = []
    orig = exact._kernel_rows

    def counting(rows, col_labels):
        if len(col_labels) == 18:
            calls.append(1)
        return orig(rows, col_labels)

    monkeypatch.setattr(exact, "_kernel_rows", counting)
    assert main(["null-basis", fixture_path("tree18"), "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_single_atom_tree_eliminated_once(capsys, monkeypatch, tmp_path):
    # a star is one atom: the atom is an equal Tree object that must reuse
    # the whole tree's kernel rather than derive it again
    star = tmp_path / "star.edges"
    star.write_text(tree_to_edge_text(star_tree(40)))
    calls = []
    orig = exact._kernel_rows

    def counting(rows, col_labels):
        if len(col_labels) == 41:
            calls.append(1)
        return orig(rows, col_labels)

    monkeypatch.setattr(exact, "_kernel_rows", counting)
    assert main(["null-basis", str(star), "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cached_structure_leaves_no_cycles():
    gc.collect()
    gc.disable()
    try:
        t = random_tree(300, 5)
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
    assert len(kernel_calls) == 1
