"""Derived structure is computed once per Tree object and never pins it."""

import gc

from strees import exact
from strees.bases import tree_null_basis, tree_range_basis
from strees.cli import main
from strees.decomposition import atom_set, decompose, invariant_report
from strees.fixtures import fixture_path
from strees.generators import random_tree


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
