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
components with a branch of the seed attached. Each such thread carries its
own subtree of the atom; seeds grow from a heap of bordering core vertices,
and swaps and grafts take one ascending pass over the thread's uncovered
pendants. Growth thus costs about the threads' sizes plus the size of the
basics emitted. A basic is proven by its shape and by its vector solving
the atom's kernel equations, with no classification. Accounting rows (one per
emitted basic, columns indexed by atom vertices) witness that the number of
basics is exactly support - core: each vertex is first covered by exactly
one basic, every seed row sums to +1 and every other row is a single +1.
The rows are kept sparse, as {vertex: value}, and expanded on demand.

Range: a core vertex contributes its unit vector and the indicator of its
supported neighbors (its bouquet); the vertices outside the closed support,
those of the nonsingular parts, contribute plain unit vectors.

No basis is proven by elimination. The dimensions come from one maximum
matching: the kernel has order - 2*nu, the range 2*nu. Null vectors are
checked against the adjacency equations next to their support. A range
vector x lies in the column space when x - A y vanishes on the matching
D-set, which holds the kernel's support: y = 0 for a unit, y = e_c for the
bouquet of core c. Independence is proven by peeling (exact.peel_independent),
per atom for the null space, as atoms are disjoint, and over the whole
family for the range. Failures raise ValidationFailed or SpanMismatch and
are never swallowed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable

from . import exact, matching
from .decomposition import atom_set, classify, support_core
from .errors import NotAtom, SpanMismatch, TooSmall, ValidationFailed
from .tree import Tree, VertexVector, components


@dataclass(frozen=True, eq=False)
class BasicSubtree:
    """A basis-generating subtree of a host atom, with its chosen pendant."""

    tree: Tree
    host: Tree
    pendant: int


def _basic(
    tree: Tree, host: Tree, supp: set[int], core: set[int]
) -> tuple[BasicSubtree, VertexVector]:
    """Prove a subtree of the host atom basic; return it with its vector.

    In an atom every edge joins a supported vertex to a core one, as the
    support is independent and an atom has no core-core edges. A subtree in
    which every core vertex has degree two and every supported vertex keeps
    all its host neighbors is therefore bipartite, and has a core vertex
    unless the host is a single vertex. Its alternating vector, from a
    supported pendant, is nonzero on all its supported vertices. If that
    vector solves the host's kernel equations it solves the subtree's: a
    core vertex of the subtree has all its supported host neighbors in it.
    So every supported vertex of the subtree is in the subtree's support,
    and as a tree's support is independent, the subtree's support and core
    are the host's restricted to it: the subtree is an atom whose core
    vertices have degree two, a basic subtree. The vector is computed and
    checked here, before the subtree is accepted.
    """
    for v in tree.vertices:
        if v in core:
            if len(tree.adj[v]) != 2:
                raise ValidationFailed(
                    f"core vertex {v} has degree {len(tree.adj[v])} in its basic subtree"
                )
        elif v in supp:
            missing = [w for w in host.adj[v] if w not in tree.adj]
            if missing:
                raise ValidationFailed(
                    f"supported vertex {v} lost neighbor {missing[0]}"
                )
        else:
            raise ValidationFailed(f"vertex {v} is neither support nor core")
    for v in tree.vertices:
        if v in supp and len(tree.adj[v]) <= 1:
            b = BasicSubtree(tree=tree, host=host, pendant=v)
            return b, basic_vector(b)
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


def grow_basic_subtree(atom: Tree, seed: int) -> BasicSubtree:
    """Grow a basic subtree of an atom from a seed vertex.

    Starting from a supported seed (or from two chosen neighbors of a core
    seed), repeatedly adjoin the smallest outside core vertex adjacent to
    the current set together with its smallest fresh neighbor, until no
    core vertex borders the set.
    """
    if not classify(atom).is_atom:
        raise NotAtom("basic subtrees only grow inside atoms")
    if atom.order < 3:
        raise TooSmall("growing needs an atom with at least 3 vertices")
    if seed not in atom.adj:
        raise ValidationFailed(f"seed {seed} outside the atom")
    sc = support_core(atom)
    return _grow(atom, atom, seed, set(sc.support), set(sc.core))[0]


def _grow(
    atom: Tree, h: Tree, seed: int, supp: set[int], core: set[int]
) -> tuple[BasicSubtree, VertexVector]:
    """grow_basic_subtree within h, the atom's subtree induced on h's vertices.

    A heap holds every core vertex that has bordered the growing set. The set
    only grows, so the smallest entry outside it is the smallest bordering
    core vertex, the next joiner.
    """
    if seed in core:
        nbrs = h.adj[seed]
        if len(nbrs) < 2:
            raise ValidationFailed(f"core seed {seed} has fewer than 2 neighbors")
        b: set[int] = {nbrs[0], nbrs[1]}
        pending_core_seed = seed
    else:
        b = {seed}
        pending_core_seed = None
    border = [u for v in b for u in h.adj[v] if u in core]
    heapify(border)

    def adjoin(v: int) -> None:
        b.add(v)
        for u in h.adj[v]:
            if u in core and u not in b:
                heappush(border, u)

    while border:
        joiner = heappop(border)
        if joiner in b:
            continue
        inside = [w for w in h.adj[joiner] if w in b]
        if len(inside) == 2:
            # only the core seed can touch the set twice (its chosen pair);
            # it joins alone, keeping degree two
            if joiner != pending_core_seed:
                raise ValidationFailed(
                    f"core {joiner} reached the growing set twice"
                )
            adjoin(joiner)
            continue
        if len(inside) != 1:
            raise ValidationFailed(
                f"core {joiner} borders the growing set {len(inside)} times"
            )
        fresh = next((w for w in h.adj[joiner] if w not in b), None)
        if fresh is None:
            raise ValidationFailed(f"core {joiner} has no fresh neighbor")
        adjoin(joiner)
        adjoin(fresh)

    verts = tuple(sorted(b))
    adj = {v: tuple(w for w in h.adj[v] if w in b) for v in verts}
    return _basic(Tree._trusted(verts, adj), atom, supp, core)


@dataclass(frozen=True, eq=False)
class ForestBasis:
    """Null-space basis of one atom with its accounting rows."""

    host: Tree
    basics: tuple[BasicSubtree, ...]
    vectors: tuple[VertexVector, ...]
    columns: tuple[int, ...]
    markers: tuple[dict[int, int], ...]  # per basic, {vertex: marker value}

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def marker_rows(self) -> tuple[tuple[int, ...], ...]:
        """The accounting rows, dense over the columns."""
        return tuple(tuple(m.get(c, 0) for c in self.columns) for m in self.markers)


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
    final family must have the kernel's dimension, order - 2*nu, and be
    independent, so it is a basis.

    Independence is proven by peeling. It succeeds, retiring from the last
    basic back, whenever each basic holds a supported vertex that no earlier
    basic holds: a basic's vector is nonzero on all its supported vertices.
    Swap and graft basics do by construction, as their marker is such a
    vertex. A seed does if its marker row sums to +1, since it then first
    covers more supported vertices than core ones; every row tried does,
    but that is not proven, and a stall raises SpanMismatch.
    """
    if not classify(atom).is_atom:
        raise NotAtom("null-space bases are built per atom")
    sc = support_core(atom)
    supp, core = set(sc.support), set(sc.core)
    cols = atom.vertices

    if atom.order == 1:
        v = atom.vertices[0]
        single = BasicSubtree(tree=atom, host=atom, pendant=v)
        vec = VertexVector.unit(cols, v)
        return ForestBasis(
            host=atom,
            basics=(single,),
            vectors=(vec,),
            columns=cols,
            markers=({v: 1},),
        )

    used: set[int] = set()  # vertices already counted by some basic
    emitted: list[tuple[BasicSubtree, VertexVector, dict[int, int]]] = []
    # a thread is the subtree of the atom induced on the vertices it covers
    threads: deque[Tree] = deque([atom])
    while threads:
        h = threads.popleft()

        # (a) seed a basic subtree at the smallest supported vertex
        seed = min(v for v in h.vertices if v in supp)
        seeded, seed_vector = _grow(atom, h, seed, supp, core)
        seed_row = {
            v: (-1 if v in core else 1)
            for v in seeded.tree.vertices
            if v not in used
        }
        emitted.append((seeded, seed_vector, seed_row))
        used.update(seeded.tree.vertices)
        round_used: set[int] = set(seeded.tree.vertices)
        current = seeded.tree
        pendants = [
            v for v in h.vertices if v in supp and v not in used and len(h.adj[v]) == 1
        ]

        # (b) pendant swaps: replace the smallest pendant leaf of the latest
        # basic on core c with an uncovered sibling pendant on c. A swap keeps
        # c's leaves at the same count and no other core's, so whether a
        # pendant can swap is fixed by the seed: one ascending pass suffices.
        leaves_on: dict[int, list[int]] = {}  # core -> sorted leaves of current
        for v in current.vertices:
            if v in supp and len(h.adj[v]) == 1 and len(current.adj[v]) == 1:
                leaves_on.setdefault(h.adj[v][0], []).append(v)
        for v in pendants:
            c = h.adj[v][0]
            leaves = leaves_on.get(c)
            if not leaves:
                continue
            leaf = leaves[0]
            leaves[0] = v
            leaves.sort()
            edges = [e for e in current.edges() if leaf not in e]
            edges.append((min(v, c), max(v, c)))
            nxt, vec = _basic(Tree(edges), atom, supp, core)
            emitted.append((nxt, vec, {v: 1}))
            used.add(v)
            round_used.add(v)
            current = nxt.tree

        # (c) grafts: an uncovered pendant whose neighbor is a core vertex of
        # the seed gets that core plus one branch of the seed
        for v in pendants:
            x = h.adj[v][0]
            if v in used or x not in core or x not in seeded.tree.adj:
                continue
            w = seeded.tree.adj[x][0]
            branch = seeded.tree.subtree_toward(x, w)
            edges = list(branch.edges()) + [(min(x, w), max(x, w)), (min(x, v), max(x, v))]
            emitted.append((*_basic(Tree(edges), atom, supp, core), {v: 1}))
            used.add(v)
            round_used.add(v)

        # (d)-(g) recurse into what is left, towing a seed branch along; the
        # one boundary edge is the only edge between the two
        for comp in components(h.adj, set(h.vertices) - round_used):
            boundary = [
                (v, w) for v in comp.vertices for w in h.adj[v] if w not in comp.adj
            ]
            if len(boundary) != 1:
                raise ValidationFailed(
                    f"component has {len(boundary)} boundary edges, expected 1"
                )
            entry, out = boundary[0]
            if out not in core or out not in seeded.tree.adj:
                raise ValidationFailed(
                    "component does not hang on a core vertex of the seed"
                )
            branch = seeded.tree.subtree_toward(seeded.tree.adj[out][0], out)
            adj = {**comp.adj, **branch.adj}
            adj[entry] = tuple(sorted(comp.adj[entry] + (out,)))
            adj[out] = tuple(sorted(branch.adj[out] + (entry,)))
            threads.append(Tree._trusted(tuple(sorted(adj)), adj))

    basics, vectors, markers = zip(*emitted)
    expect = len(supp) - len(core)
    if len(vectors) != expect:
        raise ValidationFailed(
            f"emitted {len(vectors)} basics, expected support - core = {expect}"
        )
    nullity = atom.order - 2 * matching.deficient_set(atom)[1]
    if len(vectors) != nullity:
        raise SpanMismatch(f"{len(vectors)} basics for a kernel of dimension {nullity}")
    exact.peel_independent(vectors)
    return ForestBasis(
        host=atom, basics=basics, vectors=vectors, columns=cols, markers=markers
    )


@dataclass(frozen=True, eq=False)
class RangeBasis:
    """Signed spanning set of the column space, with per-vector roles."""

    tree: Tree
    vectors: tuple[VertexVector, ...]
    roles: tuple[str, ...]  # "core_unit" | "bouquet" | "unit"


def _range_family(t: Tree) -> list[tuple[VertexVector, str]]:
    """Units outside the closed support, then a core unit and a bouquet per
    core vertex, proven a basis of the column space.

    Count: the rank is 2*nu. Membership: each vector x has a preimage y with
    x - A y zero on the D-set, which holds the kernel's support: y = 0 for
    a unit, as units sit outside the D-set, and y = e_c for the bouquet of
    core c, as c's other neighbors are core or nonsingular. Independence:
    peeling. Units and core units each hold their own vertex alone. Rooted
    anywhere, a core vertex has two or more supported neighbors, so one is
    its child, which only deeper cores' bouquets also hold; peeling retires
    the bouquets from the deepest core up.
    """
    d, nu = matching.deficient_set(t)
    supp = set(d)
    core = support_core(t).core
    closed = supp.union(core)
    dom = t.vertices
    family = [(VertexVector.unit(dom, v), "unit", None) for v in dom if v not in closed]
    for c in core:
        family.append((VertexVector.unit(dom, c), "core_unit", None))
        bouquet = VertexVector.indicator(dom, (w for w in t.adj[c] if w in supp))
        family.append((bouquet, "bouquet", c))
    if len(family) != 2 * nu:
        raise SpanMismatch(f"{len(family)} range vectors, rank is {2 * nu}")
    for x, _, y in family:
        if not exact.in_column_space_by_witness(t, supp, x, y):
            raise SpanMismatch("range vector leaves the column space")
    exact.peel_independent([x for x, _, _ in family])
    return [(x, role) for x, role, _ in family]


def atom_range_basis(atom: Tree) -> RangeBasis:
    """Range basis of one atom: unit plus bouquet indicator per core vertex.

    Proven by count = rank, membership from a preimage and independence.
    """
    if not classify(atom).is_atom:
        raise NotAtom("range bases are built per atom")
    pairs = _range_family(atom)
    return RangeBasis(
        tree=atom,
        vectors=tuple(x for x, _ in pairs),
        roles=tuple(role for _, role in pairs),
    )


def _order_key(x: VertexVector) -> tuple:
    sup = x.support()
    return (sup[0], sup, tuple(x.entries[v] for v in sup))


def tree_null_basis(t: Tree) -> tuple[VertexVector, ...]:
    """Signed basis of the whole tree's null space, atom by atom.

    Exactly nullity vectors with entries in {-1, 0, 1}, each satisfying the
    kernel equations, ordered by smallest supported vertex. forest_basis
    proves each atom's family a basis of that atom's kernel; the atoms are
    vertex-disjoint, so the lifted families stay independent, and with the
    count equal to the nullity, order - 2*nu, they form a basis of the
    tree's kernel.
    """
    out: list[VertexVector] = []
    for a in atom_set(t).atoms:
        for x in forest_basis(a).vectors:
            out.append(VertexVector(t.vertices, dict(x.entries)))
    out.sort(key=_order_key)
    vecs = tuple(out)
    nullity = t.order - 2 * matching.deficient_set(t)[1]
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

    Unit vectors on every nonsingular-part vertex, plus each core vertex's
    unit and bouquet: every atom's range basis, read off the whole tree,
    since a core vertex's supported neighbors all lie in its atom. Proven
    over the whole family at once, ordered by smallest supported vertex.
    """
    pairs = _range_family(t)
    pairs.sort(key=lambda p: _order_key(p[0]))
    return RangeBasis(
        tree=t,
        vectors=tuple(p[0] for p in pairs),
        roles=tuple(p[1] for p in pairs),
    )


def vectors_to_json(vectors: Iterable[VertexVector]) -> list:
    """Sparse JSON form: per vector, a list of {vertex, coeff} entries."""
    out = []
    for x in vectors:
        out.append(
            [{"vertex": v, "coeff": int(x.entries[v])} for v in x.support()]
        )
    return out
