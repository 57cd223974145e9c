"""Trees on integer-labeled vertices, vertex vectors, and the basic geometry.

Vertex ids are arbitrary non-negative integers, not necessarily contiguous.
Every iteration order is sorted by id, so all downstream output is
deterministic. Trees are immutable once built.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from functools import wraps
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import DomainMismatch, NotATree, ParseError, VertexNotFound

Edge = tuple[int, int]
T = TypeVar("T")


class Tree:
    """An unrooted tree: sorted vertex tuple plus sorted adjacency lists."""

    __slots__ = ("vertices", "adj", "_edges", "_memo")

    def __init__(self, edges: Iterable[Edge], vertices: Iterable[int] = ()) -> None:
        vs: set[int] = set(vertices)
        adj: dict[int, set[int]] = {v: set() for v in vs}
        n_edges = 0
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise NotATree(f"not an edge pair: {e!r}")
            if type(u) is not int or type(v) is not int:
                if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
                    raise NotATree(f"vertex ids must be integers: {e!r}")
            if u < 0 or v < 0:
                raise NotATree(f"vertex ids must be non-negative: {e!r}")
            if u == v:
                raise NotATree(f"self-loop at {u}")
            au = adj.get(u)
            if au is None:
                au = adj[u] = set()
            elif v in au:
                raise NotATree(f"duplicate edge {{{u},{v}}}")
            av = adj.get(v)
            if av is None:
                av = adj[v] = set()
            au.add(v)
            av.add(u)
            n_edges += 1
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise NotATree(f"vertex ids must be non-negative integers: {v!r}")
        if not adj:
            raise NotATree("empty vertex set")
        if n_edges != len(adj) - 1:
            raise NotATree(f"{len(adj)} vertices need {len(adj) - 1} edges, got {n_edges}")
        # connectivity; with the edge count right this also rules out cycles
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(adj):
            raise NotATree("not connected")
        self.vertices: tuple[int, ...] = tuple(sorted(adj))
        self.adj: dict[int, tuple[int, ...]] = {v: tuple(sorted(adj[v])) for v in self.vertices}
        self._edges: tuple[Edge, ...] | None = None
        self._memo: dict[str, object] = {}  # see per_tree

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], adj: dict[int, tuple[int, ...]]) -> "Tree":
        """Internal constructor for structures already known to be valid trees."""
        t = object.__new__(cls)
        t.vertices = vertices
        t.adj = adj
        t._edges = None
        t._memo = {}
        return t

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self.adj

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tree) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges()))

    def __repr__(self) -> str:
        return f"Tree(order={self.order}, edges={list(self.edges())})"

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self.adj[v]
        except KeyError:
            raise VertexNotFound(f"vertex {v} not in tree")

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            self._edges = tuple(
                (u, v) for u in self.vertices for v in self.adj[u] if u < v
            )
        return self._edges

    # -- geometry ---------------------------------------------------------

    def path(self, u: int, v: int) -> list[int]:
        """The unique u-v path, endpoints included."""
        if u not in self.adj:
            raise VertexNotFound(f"vertex {u} not in tree")
        if v not in self.adj:
            raise VertexNotFound(f"vertex {v} not in tree")
        parent: dict[int, int] = {u: u}
        frontier = [u]
        while v not in parent and frontier:
            nxt: list[int] = []
            for x in frontier:
                for w in self.adj[x]:
                    if w not in parent:
                        parent[w] = x
                        nxt.append(w)
            frontier = nxt
        out = [v]
        while out[-1] != u:
            out.append(parent[out[-1]])
        out.reverse()
        return out

    def subtree_toward(self, u: int, v: int) -> "Tree":
        """Induced subtree on the vertices whose path from u passes through v.

        Contains v and everything on the far side of v as seen from u; for
        u == v this is the whole tree.
        """
        if u not in self.adj:
            raise VertexNotFound(f"vertex {u} not in tree")
        if v not in self.adj:
            raise VertexNotFound(f"vertex {v} not in tree")
        if u == v:
            return self
        path = self.path(u, v)
        before = path[-2]  # neighbor of v on the u side
        keep = {v}
        stack = [v]
        while stack:
            for w in self.adj[stack.pop()]:
                if w != before and w not in keep:
                    keep.add(w)
                    stack.append(w)
        return self.induced_subtree(keep)

    def _known(self, keep: Iterable[int]) -> set[int]:
        """`keep` as a set, each of its vertices checked to be in the tree."""
        ks = set(keep)
        for v in ks:
            if v not in self.adj:
                raise VertexNotFound(f"vertex {v} not in tree")
        return ks

    def induced_subtree(self, keep: Iterable[int]) -> "Tree":
        """Induced subgraph on `keep`, which must be connected."""
        ks = self._known(keep)
        verts = tuple(sorted(ks))
        adj = {v: tuple(w for w in self.adj[v] if w in ks) for v in verts}
        n_edges = sum(len(ws) for ws in adj.values()) // 2
        if n_edges != len(verts) - 1:
            raise NotATree("induced subgraph is not connected")
        return Tree._trusted(verts, adj)

    def components_within(self, keep: Iterable[int]) -> list["Tree"]:
        """Connected components of the induced subgraph, sorted by least vertex."""
        return components(self.adj, self._known(keep))


def components(adj: Mapping[int, Sequence[int]], keep: Iterable[int]) -> list[Tree]:
    """Connected components of the forest `adj` induced on `keep`.

    Each component comes back as a tree on its own vertices; the list is
    sorted by least vertex.
    """
    ks = keep if isinstance(keep, (set, frozenset)) else set(keep)
    out: list[Tree] = []
    seen: set[int] = set()
    for v in sorted(ks):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w in ks and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        verts = tuple(sorted(comp))
        out.append(Tree._trusted(verts, {x: tuple(w for w in adj[x] if w in comp) for x in verts}))
    return out


def per_tree(fn: Callable[[Tree], T]) -> Callable[[Tree], T]:
    """Compute fn(t) once per Tree object and keep it on the tree.

    Trees are immutable, so structure derived from one never goes stale.
    Every caller gets the same object, so callers must not mutate it. A
    cached value must not refer back to its own tree: the cycle would keep
    both alive until the garbage collector runs.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(t: Tree) -> T:
        memo = t._memo
        if key not in memo:
            memo[key] = fn(t)
        return memo[key]  # type: ignore[return-value]

    return cached


def twin(t: Tree) -> Tree:
    """A new Tree object equal to t that starts with what t has derived so far.

    A support part or atom spanning its whole tree is such a twin, so its
    kernel is not eliminated a second time. Cached values never refer back
    to their own tree, so the twin holds no reference to t and t none to it.
    """
    u = Tree._trusted(t.vertices, t.adj)
    u._memo.update(t._memo)
    return u


Rational = Fraction | int


class VertexVector:
    """A vector indexed by the vertices of a fixed tree or forest.

    Entries are exact rationals; vertices absent from `entries` are zero.
    The domain is the sorted vertex tuple of the indexing structure.
    """

    __slots__ = ("domain", "entries")

    def __init__(self, domain: Sequence[int], entries: Mapping[int, Rational]) -> None:
        dom = tuple(domain)
        clean: dict[int, Rational] = {}
        for v, c in entries.items():
            if not _in_domain(dom, v):
                raise DomainMismatch(f"vertex {v} outside domain")
            if c != 0:
                clean[v] = c
        self.domain: tuple[int, ...] = dom
        self.entries: dict[int, Rational] = clean

    @classmethod
    def _trusted(cls, domain: tuple[int, ...], entries: dict[int, Rational]) -> "VertexVector":
        """Internal constructor for entries already known to be nonzero and in
        the domain, such as those read off the tree's own adjacency."""
        x = object.__new__(cls)
        x.domain = domain
        x.entries = entries
        return x

    @classmethod
    def unit(cls, domain: Sequence[int], v: int) -> "VertexVector":
        return cls(domain, {v: 1})

    @classmethod
    def indicator(cls, domain: Sequence[int], vs: Iterable[int]) -> "VertexVector":
        return cls(domain, {v: 1 for v in vs})

    def __getitem__(self, v: int) -> Rational:
        if not _in_domain(self.domain, v):
            raise DomainMismatch(f"vertex {v} outside domain")
        return self.entries.get(v, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexVector)
            and self.domain == other.domain
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.domain, tuple(sorted(self.entries.items()))))

    def __repr__(self) -> str:
        terms = " ".join(f"{'+' if c > 0 else '-'}{abs(c)}*e{v}" for v, c in sorted(self.entries.items()))
        return f"VertexVector({terms or '0'})"


def _in_domain(dom: tuple[int, ...], v: int) -> bool:
    """Whether v is in the domain, in O(log n) when the domain is sorted.

    Domains are sorted vertex tuples, so a binary search finds every member;
    a miss is confirmed by a scan, which only an unsorted tuple can overturn.
    """
    try:
        i = bisect_left(dom, v)
    except TypeError:  # v does not compare with vertex ids
        i = len(dom)
    return (i < len(dom) and dom[i] == v) or v in dom


# -- parsing and serialization -------------------------------------------


def parse_tree(text: str) -> Tree:
    """Parse the edge-list format (or its JSON mirror) into a Tree.

    Edge list: one 'u v' pair per line, '#' starts a comment, a bare 'v'
    line declares an isolated vertex (only valid for an order-1 tree).
    JSON: an object {"vertices": [...], "edges": [[u, v], ...]}.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from None
        return tree_from_json(obj)
    edges: list[Edge] = []
    singles: list[int] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        try:
            if len(parts) == 2:
                edges.append((int(parts[0]), int(parts[1])))
                continue
            nums = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"line {lineno}: expected integers, got {line.strip()!r}")
        if len(nums) == 1:
            singles.append(nums[0])
        elif nums:
            raise ParseError(f"line {lineno}: expected 'u v', got {line.strip()!r}")
    if any(v < 0 for v in singles) or any(u < 0 or v < 0 for u, v in edges):
        raise ParseError("vertex ids must be non-negative")
    if not edges and not singles:
        raise ParseError("no vertices found in input")
    return Tree(edges, vertices=singles)


def int_text(n: int) -> str:
    """Decimal text of n, also past CPython's 4,300-digit int-to-str cap."""
    try:
        return int.__repr__(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def tree_to_edge_text(t: Tree) -> str:
    if t.order == 1:
        return f"{t.vertices[0]}\n"
    return "".join(f"{u} {v}\n" for u, v in t.edges())


def tree_to_json(t: Tree) -> dict:
    return {
        "vertices": list(t.vertices),
        "edges": [[u, v] for u, v in t.edges()],
    }


def tree_from_json(obj: object) -> Tree:
    if not isinstance(obj, dict):
        raise ParseError("tree JSON must be an object")
    verts = obj.get("vertices", [])
    edges = obj.get("edges", [])
    if not isinstance(verts, list) or not isinstance(edges, list):
        raise ParseError("tree JSON needs 'vertices' and 'edges' lists")
    pairs: list[Edge] = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise ParseError(f"bad edge entry: {e!r}")
        pairs.append((e[0], e[1]))
    for v in verts:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"bad vertex entry: {v!r}")
    return Tree(pairs, vertices=verts)
