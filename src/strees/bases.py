"""Signed {-1, 0, 1} bases for the null space and the range of a tree.

Null space: every atom contributes one basic subtree per kernel dimension.
A basic subtree is a subtree of the atom in which every core vertex has
degree exactly two and every supported vertex keeps all its atom neighbors;
its signed vector alternates +1/-1 on the supported vertices (even distance
from a chosen pendant) and vanishes elsewhere, and always satisfies the
kernel equations of the whole atom.

The forest of basic subtrees is grown greedily: seed a subtree, swap its
pendants to reach sibling leaves, graft its branches to reach pendants
hanging off already-covered core vertices, then recurse into the remaining
components with a branch of the seed attached. Accounting rows (one per
emitted basic, columns indexed by atom vertices) witness that the number of
basics is exactly support - core: each vertex is first covered by exactly
one basic, every seed row sums to +1 and every other row is a single +1.

Range: a core vertex contributes its unit vector and the indicator of its
supported neighbors; nonsingular parts contribute plain unit vectors.

Each atom's bases are proven by count, membership (for the range,
orthogonality to the kernel, since A is symmetric) and independence; the
whole-tree bases need only count and membership, as atoms are disjoint.
Failures raise ValidationFailed or SpanMismatch and are never swallowed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from . import exact
from .decomposition import atom_set, classify, decompose, support_core
from .errors import NotAtom, SpanMismatch, TooSmall, ValidationFailed
from .tree import Tree, VertexVector, components


@dataclass(frozen=True, eq=False)
class BasicSubtree:
    """A basis-generating subtree of a host atom, with its chosen pendant."""

    tree: Tree
    host: Tree
    pendant: int


def _basic(tree: Tree, host: Tree, supp: set[int], core: set[int]) -> BasicSubtree:
    """Prove a subtree of the host atom basic and pick its supported pendant."""
    verts = set(tree.vertices)
    for v in tree.vertices:
        if v in core:
            if tree.degree(v) != 2:
                raise ValidationFailed(
                    f"core vertex {v} has degree {tree.degree(v)} in its basic subtree"
                )
        elif v in supp:
            missing = [w for w in host.adj[v] if w not in verts]
            if missing:
                raise ValidationFailed(
                    f"supported vertex {v} lost neighbor {missing[0]}"
                )
        else:
            raise ValidationFailed(f"vertex {v} is neither support nor core")
    if not classify(tree).is_basic:
        raise ValidationFailed("subtree fails the basic classification")
    for v in tree.vertices:
        if v in supp and tree.degree(v) <= 1:
            return BasicSubtree(tree=tree, host=host, pendant=v)
    raise ValidationFailed("basic subtree has no supported pendant")


def basic_vector(b: BasicSubtree) -> VertexVector:
    """Alternating signed vector of a basic subtree, over the host.

    +1 at the chosen pendant, (-1)^(d/2) at even distances d from it, zero
    elsewhere. Verified to solve the host's kernel equations exactly.
    """
    dist = {b.pendant: 0}
    frontier = [b.pendant]
    while frontier:
        nxt = []
        for v in frontier:
            for w in b.tree.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    entries = {
        v: (1 if d % 4 == 0 else -1) for v, d in dist.items() if d % 2 == 0
    }
    x = VertexVector(b.host.vertices, entries)
    if not exact.in_adjacency_kernel(b.host, x):
        raise ValidationFailed("signed vector violates the kernel equations")
    return x


def grow_basic_subtree(
    atom: Tree,
    seed: int,
    rule: str = "ascending",
    _within: frozenset[int] | None = None,
) -> BasicSubtree:
    """Grow a basic subtree of an atom from a seed vertex.

    Starting from a supported seed (or from two chosen neighbors of a core
    seed), repeatedly adjoin any outside core vertex adjacent to the current
    set together with one fresh neighbor, until no core vertex borders the
    set. Choices resolve by ascending id; rule="prefer_uncovered_core"
    instead prefers a fresh neighbor adjacent to a not-yet-adjoined core
    (ties by id).
    """
    if not classify(atom).is_atom:
        raise NotAtom("basic subtrees only grow inside atoms")
    if atom.order < 3:
        raise TooSmall("growing needs an atom with at least 3 vertices")
    sc = support_core(atom)
    supp, core = set(sc.support), set(sc.core)
    avail = _within if _within is not None else frozenset(atom.vertices)
    if seed not in avail:
        raise ValidationFailed(f"seed {seed} outside the working set")

    def h_neighbors(v: int) -> list[int]:
        return [w for w in atom.adj[v] if w in avail]

    if seed in core:
        nbrs = h_neighbors(seed)
        if len(nbrs) < 2:
            raise ValidationFailed(f"core seed {seed} has fewer than 2 neighbors")
        b: set[int] = {nbrs[0], nbrs[1]}
        pending_core_seed = seed
    else:
        b = {seed}
        pending_core_seed = None

    while True:
        joiner = None
        for u in sorted(core & avail - b):
            if any(w in b for w in atom.adj[u]):
                joiner = u
                break
        if joiner is None:
            break
        inside = [w for w in h_neighbors(joiner) if w in b]
        if len(inside) == 2:
            # only the core seed can touch the set twice (its chosen pair);
            # it joins alone, keeping degree two
            if joiner != pending_core_seed:
                raise ValidationFailed(
                    f"core {joiner} reached the growing set twice"
                )
            b.add(joiner)
            continue
        if len(inside) != 1:
            raise ValidationFailed(
                f"core {joiner} borders the growing set {len(inside)} times"
            )
        fresh_choices = [w for w in h_neighbors(joiner) if w not in b]
        if not fresh_choices:
            raise ValidationFailed(f"core {joiner} has no fresh neighbor")
        if rule == "prefer_uncovered_core":
            uncovered = core & avail - b - {joiner}
            preferred = [
                w
                for w in fresh_choices
                if any(x in uncovered for x in atom.adj[w])
            ]
            fresh = min(preferred) if preferred else min(fresh_choices)
        elif rule == "ascending":
            fresh = min(fresh_choices)
        else:
            raise ValidationFailed(f"unknown growth rule {rule!r}")
        b.add(joiner)
        b.add(fresh)

    adj = {v: tuple(w for w in atom.adj[v] if w in b) for v in sorted(b)}
    return _basic(Tree._trusted(tuple(sorted(b)), adj), atom, supp, core)


@dataclass(frozen=True, eq=False)
class ForestBasis:
    """Null-space basis of one atom with its accounting rows."""

    host: Tree
    basics: tuple[BasicSubtree, ...]
    vectors: tuple[VertexVector, ...]
    columns: tuple[int, ...]
    marker_rows: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)


def marker_rows_csv(fb: ForestBasis) -> str:
    """The accounting rows as CSV, one line per basic, headed by vertex ids."""
    lines = [",".join(str(c) for c in fb.columns)]
    for row in fb.marker_rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def forest_basis(atom: Tree) -> ForestBasis:
    """The full signed null-space basis of one atom.

    Emits support - core basic subtrees by seeding, pendant swapping,
    branch grafting, and recursion into the remaining components. Every
    emitted vector is validated against the atom's kernel equations; the
    final family must have the kernel's dimension and be independent (one
    elimination of the family itself), so it is a basis.
    """
    if not classify(atom).is_atom:
        raise NotAtom("null-space bases are built per atom")
    sc = support_core(atom)
    supp, core = set(sc.support), set(sc.core)
    cols = atom.vertices
    col_pos = {v: i for i, v in enumerate(cols)}

    if atom.order == 1:
        v = atom.vertices[0]
        single = BasicSubtree(tree=atom, host=atom, pendant=v)
        vec = VertexVector.unit(cols, v)
        return ForestBasis(
            host=atom,
            basics=(single,),
            vectors=(vec,),
            columns=cols,
            marker_rows=((1,),),
        )

    used: set[int] = set()  # vertices already counted by some basic
    basics: list[BasicSubtree] = []
    vectors: list[VertexVector] = []
    rows: list[tuple[int, ...]] = []

    def emit(b: BasicSubtree, row_entries: dict[int, int]) -> None:
        basics.append(b)
        vectors.append(basic_vector(b))  # validates the kernel equations
        row = [0] * len(cols)
        for v, val in row_entries.items():
            row[col_pos[v]] = val
        rows.append(tuple(row))

    threads: deque[frozenset[int]] = deque([frozenset(atom.vertices)])
    while threads:
        h = threads.popleft()

        def h_deg(v: int) -> int:
            return sum(1 for w in atom.adj[v] if w in h)

        def h_neighbor(v: int) -> int:
            return next(w for w in atom.adj[v] if w in h)

        # (a) seed a basic subtree at the smallest supported vertex
        seed = min(v for v in h if v in supp)
        seeded = grow_basic_subtree(atom, seed, _within=h)
        seed_row = {
            v: (-1 if v in core else 1)
            for v in seeded.tree.vertices
            if v not in used
        }
        emit(seeded, seed_row)
        used.update(seeded.tree.vertices)
        round_used: set[int] = set(seeded.tree.vertices)
        current = seeded.tree

        # (b) pendant swaps: replace a pendant leaf of the latest basic with
        # an uncovered sibling pendant hanging on the same core vertex
        while True:
            swap = None
            for v in sorted(h):
                if v not in supp or v in used or h_deg(v) != 1:
                    continue
                c = h_neighbor(v)
                for leaf in sorted(current.vertices):
                    if (
                        leaf in supp
                        and h_deg(leaf) == 1
                        and leaf != v
                        and h_neighbor(leaf) == c
                        and current.degree(leaf) == 1
                    ):
                        swap = (v, leaf, c)
                        break
                if swap:
                    break
            if not swap:
                break
            v, leaf, c = swap
            edges = [e for e in current.edges() if leaf not in e]
            edges.append((min(v, c), max(v, c)))
            nxt = _basic(Tree(edges), atom, supp, core)
            emit(nxt, {v: 1})
            used.add(v)
            round_used.add(v)
            current = nxt.tree

        # (c) grafts: an uncovered pendant whose neighbor is a core vertex of
        # the seed gets that core plus one branch of the seed
        while True:
            graft = None
            for v in sorted(h):
                if v not in supp or v in used or h_deg(v) != 1:
                    continue
                x = h_neighbor(v)
                if x in core and x in seeded.tree:
                    graft = (v, x)
                    break
            if not graft:
                break
            v, x = graft
            w = min(seeded.tree.adj[x])
            branch = seeded.tree.subtree_toward(x, w)
            edges = list(branch.edges()) + [(min(x, w), max(x, w)), (min(x, v), max(x, v))]
            emit(_basic(Tree(edges), atom, supp, core), {v: 1})
            used.add(v)
            round_used.add(v)

        # (d)-(g) recurse into what is left, towing a seed branch along
        for comp in components(atom.adj, h - round_used):
            boundary = [
                (v, w)
                for v in comp.vertices
                for w in atom.adj[v]
                if w in h and w not in comp
            ]
            if len(boundary) != 1:
                raise ValidationFailed(
                    f"component has {len(boundary)} boundary edges, expected 1"
                )
            entry, out = boundary[0]
            if out not in core or out not in seeded.tree:
                raise ValidationFailed(
                    "component does not hang on a core vertex of the seed"
                )
            x = min(seeded.tree.adj[out])
            branch = seeded.tree.subtree_toward(x, out)
            threads.append(frozenset(comp.vertices + branch.vertices))

    expect = len(supp) - len(core)
    if len(vectors) != expect:
        raise ValidationFailed(
            f"emitted {len(vectors)} basics, expected support - core = {expect}"
        )
    nullity = len(exact.tree_kernel(atom))
    if len(vectors) != nullity or exact.rank_of_vectors(vectors) != nullity:
        raise SpanMismatch(f"{len(vectors)} basics do not have rank {nullity}")
    return ForestBasis(
        host=atom,
        basics=tuple(basics),
        vectors=tuple(vectors),
        columns=cols,
        marker_rows=tuple(rows),
    )


@dataclass(frozen=True, eq=False)
class RangeBasis:
    """Signed spanning set of the column space, with per-vector roles."""

    tree: Tree
    vectors: tuple[VertexVector, ...]
    roles: tuple[str, ...]  # "core_unit" | "bouquet" | "unit"


def atom_range_basis(atom: Tree) -> RangeBasis:
    """Range basis of one atom: unit plus bouquet indicator per core vertex.

    Proven by count = rank, orthogonality to the kernel and independence.
    """
    if not classify(atom).is_atom:
        raise NotAtom("range bases are built per atom")
    sc = support_core(atom)
    supp = set(sc.support)
    vectors: list[VertexVector] = []
    roles: list[str] = []
    for v in sc.core:
        vectors.append(VertexVector.unit(atom.vertices, v))
        roles.append("core_unit")
        vectors.append(
            VertexVector.indicator(
                atom.vertices, (w for w in atom.adj[v] if w in supp)
            )
        )
        roles.append("bouquet")
    if not exact.in_column_space(atom, vectors):
        raise SpanMismatch("atom range vector leaves the column space")
    r = exact.tree_rank(atom)
    if len(vectors) != r or exact.rank_of_vectors(vectors) != r:
        raise SpanMismatch(f"{len(vectors)} atom range vectors do not have rank {r}")
    return RangeBasis(tree=atom, vectors=tuple(vectors), roles=tuple(roles))


def _order_key(x: VertexVector) -> tuple:
    sup = x.support()
    return (sup[0], sup, tuple(x.entries[v] for v in sup))


def tree_null_basis(t: Tree) -> tuple[VertexVector, ...]:
    """Signed basis of the whole tree's null space, atom by atom.

    Exactly nullity vectors with entries in {-1, 0, 1}, each satisfying the
    kernel equations, ordered by smallest supported vertex. forest_basis
    proves each atom's family a basis of that atom's kernel; the atoms are
    vertex-disjoint, so the lifted families stay independent, and with the
    count equal to the nullity they form a basis of the tree's kernel.
    """
    out: list[VertexVector] = []
    for a in atom_set(t).atoms:
        for x in forest_basis(a).vectors:
            out.append(VertexVector(t.vertices, dict(x.entries)))
    out.sort(key=_order_key)
    vecs = tuple(out)
    nullity = len(exact.tree_kernel(t))
    if len(vecs) != nullity:
        raise ValidationFailed(
            f"null basis has {len(vecs)} vectors, kernel dimension is {nullity}"
        )
    for x in vecs:
        if not exact.in_adjacency_kernel(t, x):
            raise ValidationFailed("lifted null vector fails the kernel equations")
    return vecs


def tree_range_basis(t: Tree) -> RangeBasis:
    """Signed spanning basis of the whole tree's column space.

    Unit vectors on every nonsingular-part vertex, plus each atom's range
    basis, lifted: each atom's family is independent and the parts are
    disjoint, so rank vectors orthogonal to the kernel form a basis.
    """
    pairs: list[tuple[VertexVector, str]] = []
    for part in decompose(t).nonsingular_parts:
        for v in part.vertices:
            pairs.append((VertexVector.unit(t.vertices, v), "unit"))
    for a in atom_set(t).atoms:
        rb = atom_range_basis(a)
        for x, role in zip(rb.vectors, rb.roles):
            pairs.append((VertexVector(t.vertices, dict(x.entries)), role))
    pairs.sort(key=lambda p: _order_key(p[0]))
    vectors = tuple(p[0] for p in pairs)
    roles = tuple(p[1] for p in pairs)
    r = exact.tree_rank(t)
    if len(vectors) != r:
        raise ValidationFailed(
            f"range basis has {len(vectors)} vectors, rank is {r}"
        )
    if not exact.in_column_space(t, vectors):
        raise SpanMismatch("range vector leaves the column space")
    return RangeBasis(tree=t, vectors=vectors, roles=roles)


def vectors_to_json(vectors: Iterable[VertexVector]) -> list:
    """Sparse JSON form: per vector, a list of {vertex, coeff} entries."""
    out = []
    for x in vectors:
        out.append(
            [{"vertex": v, "coeff": int(x.entries[v])} for v in x.support()]
        )
    return out
