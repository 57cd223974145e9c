"""Cross-checking battery: every structural theorem against exact oracles.

check_tree computes the matching DP and the brute force once per tree, and
reads the kernel, decomposition and atoms from the tree's own cache; it
evaluates the full list of identities on it, and checks both signed bases
by span equality against the eliminated kernel and the adjacency columns,
independently of the builders' own proofs. sweep runs the battery over
every labeled tree up to a given order. fixture_checks reproduces the
shipped fixtures' numbers. All comparisons are exact; no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import exact
from .bases import tree_null_basis, tree_range_basis
from .decomposition import atom_set, classify, decompose, support_core
from .errors import StreesError, TooSmall
from .fixtures import fixture_tree
from .generators import enumerate_trees
from .matching import (
    independence_number,
    matching_number,
    matching_number_and_count,
)
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


def check_tree(
    t: Tree,
    with_brute: bool = True,
    with_bases: bool = True,
    brute_limit: int = 16,
) -> VerifyReport:
    """Evaluate every identity the library promises on one tree."""
    out: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        out.append(CheckResult(name, ok, detail if not ok else ""))

    nullity = len(exact.tree_kernel(t))
    rank = t.order - nullity
    dec = decompose(t)
    ats = atom_set(t)
    supp = len(dec.support)
    core = len(dec.core)
    nu, m_count = matching_number_and_count(t)
    alpha = independence_number(t)
    n_vertices = dec.nonsingular_vertex_count

    check("rank_is_twice_matching", rank == 2 * nu, f"rank {rank}, nu {nu}")
    check(
        "nullity_is_support_minus_core",
        nullity == supp - core,
        f"nullity {nullity}, supp {supp}, core {core}",
    )
    check(
        "matching_from_parts",
        nu == core + n_vertices // 2,
        f"nu {nu}, core {core}, N vertices {n_vertices}",
    )
    check(
        "independence_from_parts",
        alpha == supp + n_vertices // 2,
        f"alpha {alpha}, supp {supp}, N vertices {n_vertices}",
    )
    check("nonsingular_vertices_even", n_vertices % 2 == 0, str(n_vertices))
    check(
        "nonsingular_parts_match_perfectly",
        all(2 * matching_number(p) == p.order for p in dec.nonsingular_parts),
    )
    check(
        "support_parts_classify",
        all(classify(p).is_support_tree for p in dec.support_parts),
    )
    check(
        "nonsingular_parts_classify",
        all(classify(p).is_nonsingular_tree for p in dec.nonsingular_parts),
    )
    check("atoms_classify", all(classify(a).is_atom for a in ats.atoms))

    bipartite_ok = True
    for a, sc in zip(ats.atoms, ats.atom_support_cores):
        s_set, c_set = set(sc.support), set(sc.core)
        for u, v in a.edges():
            if not ((u in s_set and v in c_set) or (u in c_set and v in s_set)):
                bipartite_ok = False
    check("atoms_bipartite", bipartite_ok)

    bound_ok = True
    equiv_ok = True
    product = 1
    for a, sc, delta in zip(ats.atoms, ats.atom_support_cores, ats.max_core_degrees):
        a_nullity = sc.support_size - sc.core_size
        if a_nullity < delta - 1:
            bound_ok = False
        a_nu, a_count = matching_number_and_count(a)
        product *= a_count
        if sc.core_size > 0:
            a_alpha = independence_number(a)
            conds = (
                delta == 2,
                sc.support_size == sc.core_size + 1,
                a_nullity == 1,
                2 * a_nu == a.order - 1,
                2 * a_alpha == a.order + 1,
            )
            if any(conds) and not all(conds):
                equiv_ok = False
    check("atom_nullity_bound", bound_ok)
    check("basic_equivalence_all_or_nothing", equiv_ok)
    check(
        "matching_count_product",
        m_count == product,
        f"DP {m_count}, product over atoms {product}",
    )

    if with_brute and t.order <= brute_limit:
        oracle = exact.brute_force(t, limit=brute_limit)
        check("matching_number_brute", nu == oracle.matching_number)
        check(
            "matching_count_brute",
            m_count == oracle.max_matching_count,
            f"DP {m_count}, brute {oracle.max_matching_count}",
        )
        check("independence_number_brute", alpha == oracle.independence_number)
        forbidden = set(dec.connection_edges) | set(ats.bond_edges)
        check(
            "connection_bond_edges_unmatched",
            all(not (set(m) & forbidden) for m in oracle.maximum_matchings),
        )

    if with_bases:
        try:
            nb = tree_null_basis(t)
            signed_ok = all(
                all(v in (-1, 1) for v in x.entries.values()) for x in nb
            )
            check("null_basis_signed_entries", signed_ok)
            check("null_basis", exact.span_equal(nb, exact.tree_kernel(t)))
        except StreesError as e:
            check("null_basis", False, str(e))
        try:
            rb = tree_range_basis(t)
            cols = exact.column_space_vectors(t)
            check("range_basis", exact.span_equal(rb.vectors, cols))
        except StreesError as e:
            check("range_basis", False, str(e))

    return VerifyReport(order=t.order, results=tuple(out))


@dataclass(frozen=True)
class SweepResult:
    total: int
    failed: int
    failures: tuple[tuple[int, int, tuple[str, ...]], ...]  # (n, index, names)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def sweep(
    max_n: int,
    progress: Callable[[int, int], None] | None = None,
    max_failures: int = 20,
) -> SweepResult:
    """Run check_tree over every labeled tree with 1 <= order <= max_n."""
    if max_n < 1:
        raise TooSmall(f"a sweep needs max_n >= 1, got {max_n}")
    total = failed = 0
    failures: list[tuple[int, int, tuple[str, ...]]] = []
    for n in range(1, max_n + 1):
        for idx, t in enumerate(enumerate_trees(n)):
            report = check_tree(t)
            total += 1
            if not report.ok:
                failed += 1
                if len(failures) < max_failures:
                    failures.append(
                        (n, idx, tuple(r.name for r in report.failures))
                    )
        if progress is not None:
            progress(n, total)
    return SweepResult(total=total, failed=failed, failures=tuple(failures))


def _sig(x: VertexVector) -> tuple[tuple[int, int], ...]:
    return tuple((v, x.entries[v]) for v in x.support())


def _span_check(t: Tree, got: Iterable[VertexVector], want: list[dict[int, int]]) -> bool:
    expected = [VertexVector(t.vertices, d) for d in want]
    return exact.span_equal(list(got), expected)


def fixture_checks() -> tuple[CheckResult, ...]:
    """Reproduce the shipped fixtures' published quantities exactly."""
    out: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        out.append(CheckResult(name, ok, detail if not ok else ""))

    t8 = fixture_tree("tree8")
    sc = support_core(t8)
    check("tree8_support", sc.support == (2, 3, 4, 5, 7, 8), str(sc.support))
    check("tree8_core", sc.core == (1, 6), str(sc.core))
    kern = exact.tree_kernel(t8)
    check("tree8_nullity", len(kern) == 4)
    check("tree8_rank", exact.tree_rank(t8) == 4)
    nb = tree_null_basis(t8)
    check(
        "tree8_null_span",
        _span_check(
            t8,
            nb,
            [
                {2: 1, 5: -1, 8: 1},
                {3: 1, 5: -1, 8: 1},
                {4: 1, 5: -1, 8: 1},
                {7: 1, 8: -1},
            ],
        ),
    )
    rb = tree_range_basis(t8)
    check(
        "tree8_range_set",
        {_sig(x) for x in rb.vectors}
        == {((1, 1),), ((2, 1), (3, 1), (4, 1), (5, 1)), ((6, 1),), ((5, 1), (7, 1), (8, 1))},
    )

    t18 = fixture_tree("tree18")
    dec = decompose(t18)
    check(
        "tree18_support_parts",
        tuple(p.vertices for p in dec.support_parts)
        == ((1, 2, 3), (4, 5, 6, 7, 8), (9, 10, 11, 12)),
    )
    check(
        "tree18_nonsingular_parts",
        tuple(p.vertices for p in dec.nonsingular_parts)
        == ((13, 14), (15, 16, 17, 18)),
    )
    check(
        "tree18_connection_edges",
        dec.connection_edges == ((1, 13), (4, 14), (9, 13), (9, 16)),
        str(dec.connection_edges),
    )
    nb18 = tree_null_basis(t18)
    check(
        "tree18_null_span",
        _span_check(
            t18,
            nb18,
            [{2: 1, 3: -1}, {10: 1, 11: -1}, {10: 1, 12: -1}, {6: 1, 7: -1, 8: 1}],
        ),
    )
    rb18 = tree_range_basis(t18)
    check("tree18_range_count", len(rb18.vectors) == 14, str(len(rb18.vectors)))

    t6 = fixture_tree("tree6")
    ats = atom_set(t6)
    check(
        "tree6_atoms",
        tuple(a.vertices for a in ats.atoms) == ((1, 2, 3), (4, 5, 6)),
    )
    check("tree6_bond_edges", ats.bond_edges == ((2, 5),))
    nb6 = tree_null_basis(t6)
    check("tree6_null_span", _span_check(t6, nb6, [{1: 1, 3: -1}, {4: 1, 6: -1}]))
    rb6 = tree_range_basis(t6)
    check(
        "tree6_range_set",
        {_sig(x) for x in rb6.vectors}
        == {((2, 1),), ((1, 1), (3, 1)), ((5, 1),), ((4, 1), (6, 1))},
    )
    full = exact.full_support_vector(list(nb6))
    check("tree6_full_support", full.support() == (1, 3, 4, 6), str(full.support()))

    for name in ("tree8", "tree18", "tree6"):
        report = check_tree(fixture_tree(name))
        check(
            f"{name}_battery",
            report.ok,
            "; ".join(r.name for r in report.failures),
        )
    return tuple(out)
