"""Null decomposition of a tree and its atoms.

The support of a tree is the set of vertices where some kernel vector of the
adjacency matrix is nonzero; the core is the neighborhood of the support.
In a tree the support is the set of vertices some maximum matching misses,
so both come from one maximum matching (matching.deficient_set) with no
linear algebra; check_tree compares them with the eliminated kernel.
Removing the closed neighborhood of the support splits the tree into
support parts (the components induced by the closed neighborhood) and
nonsingular parts (the rest); the connection edges have one end on each
side. Cutting the core-core edges (bonds) of the closed support leaves the
atoms, in one pass with no parts built. The counts need no parts either:
the nonsingular parts hold the n - |support| - |core| vertices outside the
closed support. invariant_identities returns the counts with the rows of
their seven formulas; invariant_report requires them, and check_tree
reports them among its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exact, matching
from .errors import NotCoreVertex
from .identities import Row, require
from .tree import Edge, Tree, components, per_tree, twin


@dataclass(frozen=True)
class SupportCore:
    support: tuple[int, ...]
    core: tuple[int, ...]

    @property
    def support_size(self) -> int:
        return len(self.support)

    @property
    def core_size(self) -> int:
        return len(self.core)


@per_tree
def support_core(t: Tree) -> SupportCore:
    """Support (the matching D-set) and core (its neighbors outside it)."""
    support, _ = matching.deficient_set(t)
    supp = set(support)
    core = {w for v in support for w in t.adj[v]} - supp
    return SupportCore(support, tuple(sorted(core)))


@dataclass(frozen=True, eq=False)
class NullDecomposition:
    support: tuple[int, ...]
    core: tuple[int, ...]
    support_parts: tuple[Tree, ...]
    nonsingular_parts: tuple[Tree, ...]
    connection_edges: tuple[Edge, ...]
    part_support_cores: tuple[SupportCore, ...]  # aligned with support_parts

    @property
    def nonsingular_vertex_count(self) -> int:
        return sum(p.order for p in self.nonsingular_parts)


@per_tree
def decompose(t: Tree) -> NullDecomposition:
    sc = support_core(t)
    supp = set(sc.support)
    closed = supp | set(sc.core)
    if len(closed) == t.order:
        s_parts, n_parts = [twin(t)], []  # one part, with what t has derived so far
    else:
        s_parts = components(t.adj, closed)
        n_parts = components(t.adj, set(t.vertices) - closed)
    connection = tuple(e for e in t.edges() if (e[0] in closed) != (e[1] in closed))
    part_classes = tuple(
        SupportCore(
            tuple(v for v in p.vertices if v in supp),
            tuple(v for v in p.vertices if v in closed and v not in supp),
        )
        for p in s_parts
    )
    return NullDecomposition(
        support=sc.support,
        core=sc.core,
        support_parts=tuple(s_parts),
        nonsingular_parts=tuple(n_parts),
        connection_edges=connection,
        part_support_cores=part_classes,
    )


@dataclass(frozen=True, eq=False)
class AtomSet:
    atoms: tuple[Tree, ...]
    bond_edges: tuple[Edge, ...]
    atom_support_cores: tuple[SupportCore, ...]
    max_core_degrees: tuple[int, ...]  # per atom: largest degree of a core vertex


@per_tree
def atom_set(t: Tree) -> AtomSet:
    """Atoms: the pieces of the closed support left after cutting core-core edges."""
    sc = support_core(t)
    supp = set(sc.support)
    core = set(sc.core)
    bonds = tuple((u, w) for u in sc.core for w in t.adj[u] if u < w and w in core)
    if not bonds and len(supp) + len(core) == t.order:
        atoms = [twin(t)]  # one atom, with what t has derived so far
    else:
        cut = {v: tuple(w for w in t.adj[v] if w in supp) for v in core}
        atoms = components({**t.adj, **cut}, supp | core)
    classes = tuple(
        SupportCore(
            tuple(v for v in a.vertices if v in supp),
            tuple(v for v in a.vertices if v in core),
        )
        for a in atoms
    )
    degrees = tuple(
        max((a.degree(v) for v in cls.core), default=0)
        for a, cls in zip(atoms, classes)
    )
    return AtomSet(
        atoms=tuple(atoms),
        bond_edges=bonds,
        atom_support_cores=classes,
        max_core_degrees=degrees,
    )


def bouquet(t: Tree, v: int) -> tuple[int, ...]:
    """Supported neighbors of a core vertex."""
    sc = support_core(t)
    if v not in sc.core:
        raise NotCoreVertex(f"vertex {v} is not a core vertex")
    supp = set(sc.support)
    return tuple(w for w in t.neighbors(v) if w in supp)


@dataclass(frozen=True)
class Classification:
    is_support_tree: bool  # closed neighborhood of the support is everything
    is_nonsingular_tree: bool  # adjacency matrix invertible
    is_atom: bool  # support tree without core-core edges
    is_basic: bool  # atom whose core vertices all have degree <= 2, order > 1
    max_core_degree: int


@per_tree
def classify(t: Tree) -> Classification:
    sc = support_core(t)
    supp = set(sc.support)
    core = set(sc.core)
    closed = supp | core
    is_s = len(closed) == t.order
    is_n = not supp
    no_bond = not any(w in core for c in sc.core for w in t.adj[c])
    is_atom = is_s and no_bond
    mcd = max((t.degree(v) for v in core), default=0)
    is_basic = is_atom and t.order > 1 and mcd == 2
    return Classification(
        is_support_tree=is_s,
        is_nonsingular_tree=is_n,
        is_atom=is_atom,
        is_basic=is_basic,
        max_core_degree=mcd,
    )


@dataclass(frozen=True)
class InvariantReport:
    """Counts of one tree with every cross-formula verified."""

    order: int
    rank: int
    nullity: int
    matching_number: int
    max_matching_count: int
    independence_number: int
    support_size: int
    core_size: int
    nonsingular_vertex_count: int
    checks: tuple[str, ...]


def invariant_identities(t: Tree) -> tuple[InvariantReport, tuple[Row, ...]]:
    """Rank/nullity/matching data and the rows of the structural formulas.

    The rows are not checked here: invariant_report requires them, and
    check_tree reports them among its own.
    """
    sc = support_core(t)
    rank = exact.tree_rank(t)
    nullity = t.order - rank
    nu, m_count = matching.matching_number_and_count(t)
    alpha = matching.independence_number(t)
    supp_size = len(sc.support)
    core_size = len(sc.core)
    # the nonsingular parts partition the vertices outside the closed support
    n_count = t.order - supp_size - core_size
    prod = math.prod(matching.count_maximum_matchings(a) for a in atom_set(t).atoms)
    rows = (
        ("rank_is_twice_matching", rank, 2 * nu),
        ("nullity_is_support_minus_core", nullity, supp_size - core_size),
        ("matching_from_parts", nu, core_size + n_count // 2),
        ("independence_from_parts", alpha, supp_size + n_count // 2),
        ("independence_plus_matching", alpha + nu, t.order),
        ("nonsingular_vertices_even", n_count % 2, 0),
        ("matching_count_from_atoms", m_count, prod),
    )
    report = InvariantReport(
        order=t.order,
        rank=rank,
        nullity=nullity,
        matching_number=nu,
        max_matching_count=m_count,
        independence_number=alpha,
        support_size=supp_size,
        core_size=core_size,
        nonsingular_vertex_count=n_count,
        checks=tuple(name for name, _, _ in rows),
    )
    return report, rows


def invariant_report(t: Tree) -> InvariantReport:
    """Compute rank/nullity/matching data and verify the structural formulas.

    Raises FormulaMismatch if any identity fails; a failure here means a bug,
    not a property of the input.
    """
    report, rows = invariant_identities(t)
    require(*rows)
    return report


# -- serialization --------------------------------------------------------


def decomposition_to_json(dec: NullDecomposition) -> dict:
    return {
        "support": list(dec.support),
        "core": list(dec.core),
        "support_parts": [list(p.vertices) for p in dec.support_parts],
        "nonsingular_parts": [list(p.vertices) for p in dec.nonsingular_parts],
        "connection_edges": [list(e) for e in dec.connection_edges],
        "part_support": [list(c.support) for c in dec.part_support_cores],
        "part_core": [list(c.core) for c in dec.part_support_cores],
    }


def atom_set_to_json(ats: AtomSet) -> dict:
    return {
        "atoms": [list(a.vertices) for a in ats.atoms],
        "bond_edges": [list(e) for e in ats.bond_edges],
        "atom_support": [list(c.support) for c in ats.atom_support_cores],
        "atom_core": [list(c.core) for c in ats.atom_support_cores],
        "max_core_degrees": list(ats.max_core_degrees),
    }


def render_dot(t: Tree) -> str:
    """Graphviz rendering with the roles of decompose(t) and atom_set(t).

    Supported vertices are filled, core vertices double-circled, nonsingular
    parts sit in dotted clusters, connection edges are dashed, and bond edges
    are bold.
    """
    dec = decompose(t)
    supp = set(dec.support)
    core = set(dec.core)
    conn = set(dec.connection_edges)
    bonds = set(atom_set(t).bond_edges)
    lines = ["graph tree {", "  node [shape=circle];"]
    clustered = set()
    for i, part in enumerate(dec.nonsingular_parts):
        lines.append(f"  subgraph cluster_n{i} {{")
        lines.append("    style=dotted;")
        for v in part.vertices:
            lines.append(f"    {v};")
            clustered.add(v)
        lines.append("  }")
    for v in t.vertices:
        attrs = []
        if v in supp:
            attrs.append("style=filled")
        if v in core:
            attrs.append("shape=doublecircle")
        if attrs:
            lines.append(f"  {v} [{', '.join(attrs)}];")
        elif v not in clustered:
            lines.append(f"  {v};")
    for u, v in t.edges():
        attrs = []
        if (u, v) in conn:
            attrs.append("style=dashed")
        if (u, v) in bonds:
            attrs.append("style=bold")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
