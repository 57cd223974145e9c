"""Cross-checking battery: every structural theorem against exact oracles.

check_tree starts from the rows of invariant_identities, the formulas that
invariant_report requires, and adds its own: that decompose's nonsingular
parts hold the vertices outside the closed support, the part and atom
checks, the brute force up to BRUTE_LIMIT vertices, and the bases. Each row
is (name, got, want), as in identities; a failed row's detail gives both
sides, and is formatted only for a failed row. Rank and nullity come from
the rank elimination, exact.tree_rank, and the signed bases are checked by
a certificate rather than by eliminating a second kernel. The null basis is
certified when every vector solves A x = 0, it has nullity vectors, and
their rank is the nullity: it is then a basis of the kernel. The support
read off a maximum matching must equal the union of that certified basis's
supports. The range family is certified when every vector is orthogonal to
the certified kernel basis, which puts it in the column space as A is
symmetric, and it has rank vectors of that rank. Every dimension comes from
elimination, independently of the builders' own proofs, which count from a
maximum matching. sweep runs the battery over every labeled tree up to a
given order, and keeps each failing tree as a witness. fixture_checks
reproduces the shipped fixtures' numbers as rows of the same form. All
comparisons are exact; no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable

from . import exact
from .bases import tree_null_basis, tree_range_basis
from .decomposition import (
    atom_set,
    classify,
    decompose,
    invariant_identities,
    support_core,
)
from .errors import StreesError, TooSmall
from .fixtures import fixture_tree
from .generators import enumerate_trees
from .identities import Row, mismatch
from .matching import independence_number, matching_number
from .tree import Tree, VertexVector


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    order: int
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok)


@cache
def _passed(name: str) -> CheckResult:
    """The result of a passed row: immutable, so one object per row name
    serves every report. Row names are a fixed set, so the cache stays small."""
    return CheckResult(name, True)


def _results(rows: Iterable[Row]) -> tuple[CheckResult, ...]:
    """One CheckResult per row; only a failed row's detail is formatted."""
    return tuple(
        _passed(name) if got == want else CheckResult(name, False, mismatch(got, want))
        for name, got, want in rows
    )


BRUTE_LIMIT = 16  # largest order the brute-force rows run on
MAX_FAILURES = 20  # failing trees a sweep keeps as witnesses


def check_tree(t: Tree) -> VerifyReport:
    """Evaluate every identity the library promises on one tree.

    The rows start with invariant_identities' and add the decomposition,
    atom, basis and, up to BRUTE_LIMIT vertices, brute-force rows.
    """
    report, rows = invariant_identities(t)
    rows = list(rows)
    rank, nullity = report.rank, report.nullity
    dec = decompose(t)
    ats = atom_set(t)

    nb: tuple[VertexVector, ...] | None = None
    try:
        nb = tree_null_basis(t)
        nb_got: object = (
            len(nb),
            all(exact.in_adjacency_kernel(t, x) for x in nb),
            exact.rank_of_vectors(nb),
        )
    except StreesError as e:
        nb_got = str(e)
    nb_want = (nullity, True, nullity)
    nb_ok = nb_got == nb_want
    kernel_support = sorted({v for x in nb or () for v in x.entries})

    bipartite_ok = True
    for a, sc in zip(ats.atoms, ats.atom_support_cores):
        s_set, c_set = set(sc.support), set(sc.core)
        for u, v in a.edges():
            if not ((u in s_set and v in c_set) or (u in c_set and v in s_set)):
                bipartite_ok = False

    bound_ok = True
    equiv_ok = True
    for a, sc, delta in zip(ats.atoms, ats.atom_support_cores, ats.max_core_degrees):
        a_nullity = sc.support_size - sc.core_size
        if a_nullity < delta - 1:
            bound_ok = False
        if sc.core_size > 0:
            conds = (
                delta == 2,
                sc.support_size == sc.core_size + 1,
                a_nullity == 1,
                2 * matching_number(a) == a.order - 1,
                2 * independence_number(a) == a.order + 1,
            )
            if any(conds) and not all(conds):
                equiv_ok = False

    rows += [
        ("support_is_kernel_support", (nb_ok, kernel_support), (True, list(dec.support))),
        (
            "nonsingular_parts_outside_closed_support",
            dec.nonsingular_vertex_count,
            report.nonsingular_vertex_count,
        ),
        (
            "nonsingular_parts_match_perfectly",
            all(2 * matching_number(p) == p.order for p in dec.nonsingular_parts),
            True,
        ),
        (
            "support_parts_classify",
            all(classify(p).is_support_tree for p in dec.support_parts),
            True,
        ),
        (
            "nonsingular_parts_classify",
            all(classify(p).is_nonsingular_tree for p in dec.nonsingular_parts),
            True,
        ),
        ("atoms_classify", all(classify(a).is_atom for a in ats.atoms), True),
        ("atoms_bipartite", bipartite_ok, True),
        ("atom_nullity_bound", bound_ok, True),
        ("basic_equivalence_all_or_nothing", equiv_ok, True),
    ]

    if t.order <= BRUTE_LIMIT:
        oracle = exact.brute_force(t, limit=BRUTE_LIMIT)
        forbidden = set(dec.connection_edges) | set(ats.bond_edges)
        rows += [
            ("matching_number_brute", report.matching_number, oracle.matching_number),
            ("matching_count_brute", report.max_matching_count, oracle.max_matching_count),
            ("independence_number_brute", report.independence_number, oracle.independence_number),
            (
                "connection_bond_edges_unmatched",
                all(not (set(m) & forbidden) for m in oracle.maximum_matchings),
                True,
            ),
        ]

    if nb is not None:
        signed_ok = all(all(v in (-1, 1) for v in x.entries.values()) for x in nb)
        rows.append(("null_basis_signed_entries", signed_ok, True))
    rows.append(("null_basis", nb_got, nb_want))
    try:
        rb = tree_range_basis(t).vectors
        rb_got: object = (
            nb_ok,
            len(rb),
            exact.orthogonal_to_kernel(t, nb or (), rb),
            exact.rank_of_vectors(rb),
        )
    except StreesError as e:
        rb_got = str(e)
    rows.append(("range_basis", rb_got, (True, rank, True, rank)))

    return VerifyReport(order=t.order, results=_results(rows))


@dataclass(frozen=True)
class SweepResult:
    total: int
    failed: int
    failures: tuple[tuple[int, int, tuple[str, ...], Tree], ...]  # (n, index, names, tree)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def sweep(max_n: int) -> SweepResult:
    """Run check_tree over every labeled tree with 1 <= order <= max_n.

    Each of the first MAX_FAILURES failures keeps the tree as its witness.
    """
    if max_n < 1:
        raise TooSmall(f"a sweep needs max_n >= 1, got {max_n}")
    total = failed = 0
    failures: list[tuple[int, int, tuple[str, ...], Tree]] = []
    for n in range(1, max_n + 1):
        for idx, t in enumerate(enumerate_trees(n)):
            report = check_tree(t)
            total += 1
            if not report.ok:
                failed += 1
                if len(failures) < MAX_FAILURES:
                    failures.append(
                        (n, idx, tuple(r.name for r in report.failures), t)
                    )
    return SweepResult(total=total, failed=failed, failures=tuple(failures))


def _sig(x: VertexVector) -> tuple[tuple[int, int], ...]:
    return tuple((v, x.entries[v]) for v in x.support())


def _span_check(t: Tree, got: Iterable[VertexVector], want: list[dict[int, int]]) -> bool:
    expected = [VertexVector(t.vertices, d) for d in want]
    return exact.span_equal(list(got), expected)


def fixture_checks() -> tuple[CheckResult, ...]:
    """Reproduce the shipped fixtures' published quantities exactly."""
    t8, t18, t6 = (fixture_tree(name) for name in ("tree8", "tree18", "tree6"))
    sc = support_core(t8)
    dec = decompose(t18)
    ats = atom_set(t6)
    nb6 = tree_null_basis(t6)
    rows: list[Row] = [
        ("tree8_support", sc.support, (2, 3, 4, 5, 7, 8)),
        ("tree8_core", sc.core, (1, 6)),
        ("tree8_nullity", len(exact.tree_kernel(t8)), 4),
        ("tree8_rank", exact.tree_rank(t8), 4),
        (
            "tree8_null_span",
            _span_check(
                t8,
                tree_null_basis(t8),
                [
                    {2: 1, 5: -1, 8: 1},
                    {3: 1, 5: -1, 8: 1},
                    {4: 1, 5: -1, 8: 1},
                    {7: 1, 8: -1},
                ],
            ),
            True,
        ),
        (
            "tree8_range_set",
            {_sig(x) for x in tree_range_basis(t8).vectors},
            {((1, 1),), ((2, 1), (3, 1), (4, 1), (5, 1)), ((6, 1),), ((5, 1), (7, 1), (8, 1))},
        ),
        (
            "tree18_support_parts",
            tuple(p.vertices for p in dec.support_parts),
            ((1, 2, 3), (4, 5, 6, 7, 8), (9, 10, 11, 12)),
        ),
        (
            "tree18_nonsingular_parts",
            tuple(p.vertices for p in dec.nonsingular_parts),
            ((13, 14), (15, 16, 17, 18)),
        ),
        ("tree18_connection_edges", dec.connection_edges, ((1, 13), (4, 14), (9, 13), (9, 16))),
        (
            "tree18_null_span",
            _span_check(
                t18,
                tree_null_basis(t18),
                [{2: 1, 3: -1}, {10: 1, 11: -1}, {10: 1, 12: -1}, {6: 1, 7: -1, 8: 1}],
            ),
            True,
        ),
        ("tree18_range_count", len(tree_range_basis(t18).vectors), 14),
        ("tree6_atoms", tuple(a.vertices for a in ats.atoms), ((1, 2, 3), (4, 5, 6))),
        ("tree6_bond_edges", ats.bond_edges, ((2, 5),)),
        ("tree6_null_span", _span_check(t6, nb6, [{1: 1, 3: -1}, {4: 1, 6: -1}]), True),
        (
            "tree6_range_set",
            {_sig(x) for x in tree_range_basis(t6).vectors},
            {((2, 1),), ((1, 1), (3, 1)), ((5, 1),), ((4, 1), (6, 1))},
        ),
        ("tree6_full_support", exact.full_support_vector(list(nb6)).support(), (1, 3, 4, 6)),
    ]
    rows += [
        (f"{name}_battery", tuple(r.name for r in check_tree(t).failures), ())
        for name, t in (("tree8", t8), ("tree18", t18), ("tree6", t6))
    ]
    return _results(rows)
