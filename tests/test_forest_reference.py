"""forest_basis against the rescanning builder it replaced.

The reference below rescans the whole thread for every swap, graft and
joiner, and filters the atom's adjacency for every degree it needs; it is
quadratic but plainly follows the greedy rules. The builder must emit the
same basics, pendants, vectors and marker rows, in the same order.
"""

from collections import deque

import pytest
from hypothesis import given, settings

from strees.bases import forest_basis, grow_basic_subtree
from strees.decomposition import atom_set, classify, support_core
from strees.errors import ValidationFailed
from strees.generators import random_s_tree, random_tree
from strees.ops import stellare
from strees.tree import Tree, components
from test_adversarial import caterpillar, double_stellare, spider
from test_properties import relabeled_trees


def rescan_basic(tree, host, supp, core):
    """Shape checks, the basic classification, and the smallest supported leaf."""
    verts = set(tree.vertices)
    for v in tree.vertices:
        if v in core:
            if tree.degree(v) != 2:
                raise ValidationFailed(f"core vertex {v} has degree {tree.degree(v)}")
        elif v in supp:
            if any(w not in verts for w in host.adj[v]):
                raise ValidationFailed(f"supported vertex {v} lost a neighbor")
        else:
            raise ValidationFailed(f"vertex {v} is neither support nor core")
    if not classify(tree).is_basic:
        raise ValidationFailed("subtree fails the basic classification")
    for v in tree.vertices:
        if v in supp and tree.degree(v) <= 1:
            return tree, v
    raise ValidationFailed("basic subtree has no supported pendant")


def rescan_vector(tree, pendant):
    """+1 at the pendant, (-1)^(d/2) at even distances d from it."""
    dist = {pendant: 0}
    frontier = [pendant]
    while frontier:
        nxt = []
        for v in frontier:
            for w in tree.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return {v: (1 if d % 4 == 0 else -1) for v, d in dist.items() if d % 2 == 0}


def rescan_grow(atom, seed, within):
    """Adjoin the smallest core vertex bordering the set, found by a rescan."""
    sc = support_core(atom)
    supp, core = set(sc.support), set(sc.core)

    def h_neighbors(v):
        return [w for w in atom.adj[v] if w in within]

    if seed in core:
        nbrs = h_neighbors(seed)
        b = {nbrs[0], nbrs[1]}
        pending_core_seed = seed
    else:
        b = {seed}
        pending_core_seed = None
    while True:
        joiner = None
        for u in sorted(core & within - b):
            if any(w in b for w in atom.adj[u]):
                joiner = u
                break
        if joiner is None:
            break
        inside = [w for w in h_neighbors(joiner) if w in b]
        if len(inside) == 2:
            assert joiner == pending_core_seed
            b.add(joiner)
            continue
        assert len(inside) == 1
        b.add(joiner)
        b.add(min(w for w in h_neighbors(joiner) if w not in b))
    adj = {v: tuple(w for w in atom.adj[v] if w in b) for v in sorted(b)}
    return rescan_basic(Tree._trusted(tuple(sorted(b)), adj), atom, supp, core)


def rescan_forest_basis(atom):
    """(tree, pendant) per basic and its marker row, in emission order."""
    sc = support_core(atom)
    supp, core = set(sc.support), set(sc.core)
    if atom.order == 1:
        return [(atom, atom.vertices[0])], [{atom.vertices[0]: 1}]
    used = set()
    basics, markers = [], []
    threads = deque([frozenset(atom.vertices)])
    while threads:
        h = threads.popleft()

        def h_deg(v):
            return sum(1 for w in atom.adj[v] if w in h)

        def h_neighbor(v):
            return next(w for w in atom.adj[v] if w in h)

        seeded, pendant = rescan_grow(atom, min(v for v in h if v in supp), h)
        basics.append((seeded, pendant))
        markers.append({v: (-1 if v in core else 1) for v in seeded.vertices if v not in used})
        used.update(seeded.vertices)
        round_used = set(seeded.vertices)
        current = seeded
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
            edges = [e for e in current.edges() if leaf not in e] + [(min(v, c), max(v, c))]
            current, pendant = rescan_basic(Tree(edges), atom, supp, core)
            basics.append((current, pendant))
            markers.append({v: 1})
            used.add(v)
            round_used.add(v)
        while True:
            graft = None
            for v in sorted(h):
                if v not in supp or v in used or h_deg(v) != 1:
                    continue
                x = h_neighbor(v)
                if x in core and x in seeded:
                    graft = (v, x)
                    break
            if not graft:
                break
            v, x = graft
            w = min(seeded.adj[x])
            branch = seeded.subtree_toward(x, w)
            edges = list(branch.edges()) + [(min(x, w), max(x, w)), (min(x, v), max(x, v))]
            basics.append(rescan_basic(Tree(edges), atom, supp, core))
            markers.append({v: 1})
            used.add(v)
            round_used.add(v)
        for comp in components(atom.adj, h - round_used):
            boundary = [
                (v, w) for v in comp.vertices for w in atom.adj[v] if w in h and w not in comp
            ]
            assert len(boundary) == 1
            out = boundary[0][1]
            assert out in core and out in seeded
            branch = seeded.subtree_toward(min(seeded.adj[out]), out)
            threads.append(frozenset(comp.vertices + branch.vertices))
    return basics, markers


def assert_matches_reference(t):
    for atom in atom_set(t).atoms:
        fb = forest_basis(atom)
        ref_basics, ref_markers = rescan_forest_basis(atom)
        assert [(b.tree.vertices, b.tree.edges(), b.pendant) for b in fb.basics] == [
            (tree.vertices, tree.edges(), pendant) for tree, pendant in ref_basics
        ]
        assert [x.entries for x in fb.vectors] == [
            rescan_vector(tree, pendant) for tree, pendant in ref_basics
        ]
        assert list(fb.markers) == ref_markers
        if atom.order >= 3:
            sc = support_core(atom)
            for seed in sc.support[:3] + sc.core[:3]:
                tree, pendant = rescan_grow(atom, seed, frozenset(atom.vertices))
                b = grow_basic_subtree(atom, seed)
                assert (b.tree.edges(), b.pendant) == (tree.edges(), pendant)


@given(t=relabeled_trees())
@settings(max_examples=150, deadline=None)
def test_matches_reference_on_relabeled_trees(t):
    assert_matches_reference(t)


def nested_stellare(seed):
    base = random_tree(12, seed)
    once = stellare(base, [2 + (v + seed) % 3 for v in base.vertices]).tree
    return stellare(once, [2 + v % 2 for v in once.vertices]).tree


SHAPES = {
    "path": lambda: Tree([(i, i + 1) for i in range(301)]),
    "star": lambda: Tree([(0, i) for i in range(1, 300)]),
    "caterpillar": lambda: caterpillar(75, 3),
    "spider": lambda: spider(100, 3),
    "double_stellare": lambda: double_stellare(random_tree(33, 4)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_matches_reference_on_adversarial_shapes(shape):
    assert_matches_reference(SHAPES[shape]())


@pytest.mark.parametrize("seed", range(4))
def test_matches_reference_on_nested_stellare(seed):
    assert_matches_reference(nested_stellare(seed))
    # compositions of stellare and coalescence; these seeds give 167-285
    # vertices with swaps and recursion
    assert_matches_reference(random_s_tree(300, (11, 12, 20, 25)[seed]))


@pytest.mark.parametrize("seed", range(2))
def test_matches_reference_on_random_trees(seed):
    # grafts are rare in the shapes above; random trees have them
    assert_matches_reference(random_tree(400, seed))
