"""Acceptance gate: one test per shipped guarantee, each printing a pass line.

Every check here is exact (integer/rational arithmetic); the only tolerances
are wall-clock budgets, asserted per criterion.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from freetrees import free_trees
from strees import (
    CoalescencePlan,
    brute_force,
    classify,
    coalescence_invariants,
    decompose,
    random_s_tree,
    random_tree,
    span_equal,
    stellare_bases,
    stellare_invariants,
    support_core,
    sweep,
    tree_kernel,
    tree_null_basis,
    tree_range_basis,
    tree_rank,
    tree_to_json,
)
from strees.cli import main as cli_main
from strees.fixtures import fixture_path, fixture_tree
from strees.tree import VertexVector


def _report(tag, elapsed, detail):
    print(f"{tag} PASS ({elapsed:.2f}s): {detail}")


def _vectors(t, dicts):
    return [VertexVector(t.vertices, d) for d in dicts]


def test_criterion_1_small_fixture_exact():
    t0 = time.perf_counter()
    t = fixture_tree("tree8")
    sc = support_core(t)
    assert tuple(sc.support) == (2, 3, 4, 5, 7, 8)
    assert tuple(sc.core) == (1, 6)
    kern = tree_kernel(t)
    assert len(kern) == 4
    assert tree_rank(t) == 4
    basis = tree_null_basis(t)
    want = _vectors(
        t,
        [
            {2: 1, 5: -1, 8: 1},
            {3: 1, 5: -1, 8: 1},
            {4: 1, 5: -1, 8: 1},
            {7: 1, 8: -1},
        ],
    )
    assert span_equal(list(basis), want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion-1", elapsed, "8-vertex fixture support/core/rank/null span")


def test_criterion_2_large_fixture_exact():
    t0 = time.perf_counter()
    t = fixture_tree("tree18")
    dec = decompose(t)
    assert tuple(tuple(p.vertices) for p in dec.support_parts) == (
        (1, 2, 3),
        (4, 5, 6, 7, 8),
        (9, 10, 11, 12),
    )
    assert tuple(tuple(p.vertices) for p in dec.nonsingular_parts) == (
        (13, 14),
        (15, 16, 17, 18),
    )
    nb = tree_null_basis(t)
    want = _vectors(
        t,
        [{2: 1, 3: -1}, {10: 1, 11: -1}, {10: 1, 12: -1}, {6: 1, 7: -1, 8: 1}],
    )
    assert span_equal(list(nb), want)
    rb = tree_range_basis(t)  # span vs the column space is gated internally
    assert len(rb.vectors) == 14
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion-2", elapsed, "18-vertex fixture parts/null span/range size")


@pytest.mark.slow
def test_criterion_3_exhaustive_sweep_n8():
    t0 = time.perf_counter()
    res = sweep(8)
    elapsed = time.perf_counter() - t0
    assert res.total == 280_393  # sum of n^(n-2) for n = 1..8
    assert res.failed == 0, res.failures
    assert elapsed < 900.0
    _report(
        "criterion-3",
        elapsed,
        f"{res.total} labeled trees, every invariant and basis check clean",
    )


def _uniqueness_checks(t):
    sc = support_core(t)
    rep = brute_force(t)
    assert rep.maximum_independent_sets == (tuple(sc.support),)
    assert rep.minimum_vertex_covers == (tuple(sc.core),)
    for v in sc.support:
        assert any(
            all(v not in e for e in m) for m in rep.maximum_matchings
        ), f"support vertex {v} matched by every maximum matching"


@pytest.mark.slow
def test_criterion_4_uniqueness_theorems():
    t0 = time.perf_counter()
    exhaustive = 0
    for n in range(1, 11):
        for t in free_trees(n):
            if classify(t).is_support_tree:
                exhaustive += 1
                _uniqueness_checks(t)
    sampled = 0
    for n in range(11, 17):
        accepted = 0
        seed = 0
        while accepted < 1000:
            t = random_tree(n, seed=seed)
            seed += 1
            if classify(t).is_support_tree:
                accepted += 1
                _uniqueness_checks(t)
        sampled += accepted
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        "criterion-4",
        elapsed,
        f"{exhaustive} exhaustive + {sampled} sampled trees: "
        "support/core unique as max independent set / min vertex cover",
    )


def test_criterion_5_pendant_expansion_corollary():
    t0 = time.perf_counter()
    rng = random.Random(501)
    for trial in range(500):
        base = random_tree(rng.randrange(1, 13), seed=rng.randrange(2**31))
        ks = [rng.randrange(2, 6) for _ in range(base.order)]
        stellare_invariants(base, ks)  # raises FormulaMismatch on any miss
        stellare_bases(base, ks)  # raises on kernel/span failure
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("criterion-5", elapsed, "500 seeded pendant expansions, all identities hold")


def test_criterion_6_coalescence_corollary():
    t0 = time.perf_counter()
    rng = random.Random(601)
    for trial in range(500):
        parts = []
        for _ in range(rng.randrange(2, 5)):
            part = random_s_tree(12, seed=rng.randrange(2**31))
            attach = rng.choice(support_core(part).support)
            parts.append((part, attach))
        coalescence_invariants(CoalescencePlan(tuple(parts)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        "criterion-6",
        elapsed,
        "500 seeded star merges, all identities hold with strict matching-count drop",
    )


def test_criterion_7_scale_null_basis_n200():
    worst = 0.0
    for seed in range(20):
        t = random_tree(200, seed=seed)
        t0 = time.perf_counter()
        basis = tree_null_basis(t)  # exact kernel membership + span gated inside
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert len(basis) == len(tree_kernel(t))
        assert elapsed < 60.0
    _report("criterion-7", worst, "20 random 200-vertex trees, worst per-tree time")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    # a two-part plan made of the shipped singular fixtures
    plan = {
        "parts": [
            {"tree": tree_to_json(fixture_tree("tree8")), "attach": 2},
            {"tree": tree_to_json(fixture_tree("tree6")), "attach": 1},
        ]
    }
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))

    runs = []
    for name in ("tree8", "tree18", "tree6"):
        path = fixture_path(name)
        order = fixture_tree(name).order
        ks = ",".join(["2"] * order)
        for fmt in ("text", "json", "dot"):
            runs += [
                ["decompose", path, "--format", fmt],
                ["atoms", path, "--format", fmt],
                ["stellare", path, "--ks", ks, "--format", fmt],
            ]
        for fmt in ("text", "json"):
            runs += [
                ["null-basis", path, "--format", fmt],
                ["range-basis", path, "--format", fmt],
                ["invariants", path, "--format", fmt],
                ["classify", path, "--format", fmt],
                ["verify", path, "--format", fmt],
            ]
    for fmt in ("text", "json", "dot"):
        runs.append(["coalesce", str(plan_file), "--format", fmt])
        runs.append(["random", "--n", "13", "--seed", "8", "--format", fmt])
    for fmt in ("text", "json"):
        runs.append(["enumerate", "--n", "4", "--format", fmt])
    runs.append(["verify", "--fixtures"])
    runs.append(["verify", "--exhaustive-n", "5"])

    for argv in runs:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first == second, f"non-deterministic output for {argv}"
        assert first[0] == 0, f"unexpected failure for {argv}: {first[2]}"
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-8", elapsed, f"{len(runs)} command lines, repeat runs byte-identical"
    )
