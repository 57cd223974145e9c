"""Deterministic tree sources: Prüfer codes, exhaustive streams, seeded RNG.

Seeded generation uses random.Random (Mersenne Twister) so identical seeds
reproduce identical trees on any platform; cross-language consumers should
share emitted edge lists rather than reimplement the generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .decomposition import classify, decompose, support_core
from .errors import BadCode, TooSmall
from .identities import require
from .ops import CoalescencePlan, s_coalescence, stellare
from .tree import Tree


@dataclass(frozen=True)
class PruferCode:
    """A labeled tree on [0, n) encoded as its Prüfer sequence."""

    n: int
    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadCode("need at least one vertex")
        expect = max(0, self.n - 2)
        if len(self.sequence) != expect:
            raise BadCode(
                f"sequence length {len(self.sequence)}, expected {expect} for n={self.n}"
            )
        for x in self.sequence:
            if not isinstance(x, int) or not 0 <= x < self.n:
                raise BadCode(f"entry {x!r} out of range [0, {self.n})")


def prufer_decode(code: PruferCode) -> Tree:
    """The unique labeled tree on [0, n) with the given Prüfer sequence."""
    n = code.n
    if n == 1:
        return Tree._trusted((0,), {0: ()})
    if n == 2:
        return Tree._trusted((0, 1), {0: (1,), 1: (0,)})
    seq = code.sequence
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    adj: list[list[int]] = [[] for _ in range(n)]
    ptr = -1
    leaf = -1
    for x in seq:
        if leaf == -1:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        adj[leaf].append(x)
        adj[x].append(leaf)
        deg[leaf] -= 1
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
    u = deg.index(1)
    v = deg.index(1, u + 1)
    adj[u].append(v)
    adj[v].append(u)
    return Tree._trusted(
        tuple(range(n)), {i: tuple(sorted(adj[i])) for i in range(n)}
    )


def enumerate_trees(n: int) -> Iterator[Tree]:
    """All n^(n-2) labeled trees on [0, n), duplicate-free, in code order."""
    if n < 1:
        raise TooSmall("need at least one vertex")
    if n <= 2:
        yield prufer_decode(PruferCode(n, ()))
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_decode(PruferCode(n, seq))


def random_tree(n: int, seed: int) -> Tree:
    """A uniformly random labeled tree on [0, n): uniform Prüfer sequence."""
    if n < 1:
        raise TooSmall("need at least one vertex")
    rng = random.Random(seed)
    seq = tuple(rng.randrange(n) for _ in range(max(0, n - 2)))
    return prufer_decode(PruferCode(n, seq))


def random_s_tree(budget: int, seed: int) -> Tree:
    """A random tree whose supported vertices dominate every vertex.

    Composes pendant explosions and identification at supported vertices,
    both of which preserve the domination property, starting from a single
    vertex; never exceeds budget vertices. The result is re-certified.
    """
    if budget < 1:
        raise TooSmall("need a positive vertex budget")
    rng = random.Random(seed)
    t = Tree._trusted((0,), {0: ()})
    while True:
        n = t.order
        ops = []
        if 3 * n <= budget:
            ops.append("explode")
        if n + 2 <= budget:
            ops.append("merge")
        if not ops:
            break
        if n >= 3 and rng.random() < 0.3:
            break
        op = rng.choice(ops)
        if op == "explode":
            ks = [2] * n
            slack = min(budget - 3 * n, 2 * n)
            for _ in range(rng.randrange(slack + 1) if slack else 0):
                ks[rng.randrange(n)] += 1
            t = stellare(t, ks).tree
        else:
            k = rng.randrange(2, min(5, budget - n) + 1)
            star = stellare(Tree._trusted((0,), {0: ()}), [k]).tree
            attach_t = rng.choice(support_core(t).support)
            attach_star = rng.choice(support_core(star).support)
            plan = CoalescencePlan(((t, attach_t), (star, attach_star)))
            t = s_coalescence(plan).tree
    require(
        ("within_budget", t.order <= budget, True),
        ("is_support_tree", classify(t).is_support_tree, True),
        ("no_nonsingular_parts", len(decompose(t).nonsingular_parts), 0),
    )
    return t
