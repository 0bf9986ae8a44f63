"""Instance generators: three random models plus a deterministic gadget suite.

The gnm model is unstructured noise (loops and parallel edges included, so
normalization has something to do). The bubble-forest model grows a small
tree of vertex clusters joined by S-edges with one or two hub vertices
attached, which is the shape the reduction rules care about. The planted
model scales that shape up: a tree of cycles joined by S-edges, plus k hubs
that solve it, so its answer is "yes" at any size. The gadget
suite is a fixed list of hand-built instances, each engineered to make one
specific rule fire, with its expected answer and, where needed, a scripted
feasible-Z provider.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .multigraph import Multigraph, PairInstance
from .oracle import FeasibleZ


def gnm(n: int, m: int, s_count: int, k: int, seed: int) -> PairInstance:
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if m > 0 and n == 0:
        raise ValueError("edges need at least one vertex")
    if not 0 <= s_count <= m:
        raise ValueError(f"s must be between 0 and m ({m}), got {s_count}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    rng = random.Random(seed)
    g = Multigraph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    eids = []
    for _ in range(m):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        eids.append(g.add_edge(u, v))
    s = frozenset(rng.sample(eids, s_count)) if s_count else frozenset()
    return PairInstance(g, s, frozenset(), k)


def planted(n: int, k: int, d: int, seed: int) -> PairInstance:
    """A "yes" instance with a planted solution: the k hubs 1, ..., k.

    The n - k other vertices form random cycles of 3-7 vertices (blocks),
    joined in a random tree by S-edges, so every S-edge is a bridge once the
    hubs are gone. Each hub then gets d plain edges to distinct random block
    vertices; d is the difficulty knob.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n - k < 3:
        raise ValueError(f"n must be at least k + 3 ({k + 3}), got {n}")
    if not 0 <= d <= n - k:
        raise ValueError(f"d must be between 0 and n - k ({n - k}), got {d}")
    rng = random.Random(seed)
    others = list(range(k + 1, n + 1))
    rng.shuffle(others)
    blocks: list[list[int]] = []
    start = 0
    while start < len(others):
        left = len(others) - start
        size = rng.randint(3, 7)
        if left - size < 3:   # keep the remainder a whole block
            size = left if left <= 7 else left - 3
        blocks.append(others[start:start + size])
        start += size
    g = Multigraph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for block in blocks:
        for i, v in enumerate(block):
            g.add_edge(v, block[i - 1])
    s = set()
    for i in range(1, len(blocks)):
        j = rng.randrange(i)
        s.add(g.add_edge(rng.choice(blocks[i]), rng.choice(blocks[j])))
    for h in range(1, k + 1):
        for v in rng.sample(others, d):
            g.add_edge(h, v)
    return PairInstance(g, frozenset(s), frozenset(), k)


def bubble_forest(seed: int, n_max: int = 16) -> PairInstance:
    """Random small bubble tree: clusters joined by S-edges, plus hubs."""
    rng = random.Random(seed)
    g = Multigraph()
    nxt = 1

    def fresh() -> int:
        nonlocal nxt
        v = nxt
        nxt += 1
        g.add_vertex(v)
        return v

    nb = rng.randint(2, 5)
    clusters: list[list[int]] = []
    for _ in range(nb):
        size = rng.randint(1, 2)
        vs = [fresh() for _ in range(size)]
        if len(vs) == 2:
            g.add_edge(vs[0], vs[1])
            if rng.random() < 0.3:
                g.add_edge(vs[0], vs[1])  # parallel, for the normalizer
        clusters.append(vs)

    s: set[int] = set()
    for i in range(1, nb):
        j = rng.randrange(i)
        u = rng.choice(clusters[i])
        v = rng.choice(clusters[j])
        s.add(g.add_edge(u, v))

    hubs = [fresh() for _ in range(rng.randint(1, 2))]
    for cl in clusters:
        for h in hubs:
            if rng.random() < 0.7:
                g.add_edge(rng.choice(cl), h)
    if len(hubs) == 2 and rng.random() < 0.5:
        g.add_edge(hubs[0], hubs[1])

    if rng.random() < 0.2:
        v = rng.choice(clusters[0])
        s.add(g.add_edge(v, v))  # S-loop, forces a deletion in normalization
    if rng.random() < 0.2:
        u = rng.choice(clusters[-1])
        s.add(g.add_edge(u, rng.choice(clusters[rng.randrange(nb)])))

    k = rng.randint(0, 3)
    if g.n > n_max:
        raise AssertionError(f"bubble forest has {g.n} > {n_max} vertices")
    return PairInstance(g, frozenset(s), frozenset(), k)


# ------------------------------------------------------------ gadget suite


@dataclass
class Gadget:
    name: str
    pinst: PairInstance
    expected: bool
    provider: Optional[Callable[[Multigraph, frozenset], FeasibleZ]]
    fires: tuple[int, ...]   # rules this instance is built to trigger


def _scripted(z: frozenset[int]):
    def provider(g: Multigraph, s: frozenset) -> FeasibleZ:
        return FeasibleZ(z, None)
    return provider


def _g_budget_exhausted() -> Gadget:
    # S-triangle at k=0: rule 1 answers no
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    e = g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 1)
    pinst = PairInstance(g, frozenset([e]), frozenset(), 0)
    return Gadget("budget-exhausted", pinst, False, _scripted(frozenset([3])), (1,))


def _g_bridge_and_s_bridge() -> Gadget:
    # square with two S-edges plus a paired component: rules 2 and 3
    g = Multigraph()
    for v in range(1, 7):
        g.add_vertex(v)
    e1 = g.add_edge(1, 2)
    g.add_edge(2, 3)
    e2 = g.add_edge(3, 4)
    g.add_edge(4, 1)
    g.add_edge(5, 6)
    pinst = PairInstance(g, frozenset([e1, e2]), frozenset([frozenset([5, 6])]), 1)
    return Gadget("s-edge-bridge", pinst, False, None, (2, 3))


def _g_pair_fan() -> Gadget:
    # one vertex in two pairs at k=1: rule 4 forces it
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    pairs = frozenset([frozenset([1, 2]), frozenset([1, 3])])
    pinst = PairInstance(g, frozenset(), pairs, 1)
    return Gadget("pair-fan", pinst, True, _scripted(frozenset()), (2, 4))


def _g_pair_overflow() -> Gadget:
    # two disjoint pairs at k=1: rule 5 answers no
    g = Multigraph()
    for v in (1, 2, 3, 4):
        g.add_vertex(v)
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    pairs = frozenset([frozenset([1, 2]), frozenset([3, 4])])
    pinst = PairInstance(g, frozenset(), pairs, 1)
    return Gadget("pair-overflow", pinst, False, _scripted(frozenset()), (2, 5))


def _g_flower() -> Gadget:
    # two S-triangles sharing an apex at k=1: rule 6 deletes the apex,
    # then the leftover pair exhausts the budget via rule 1
    g = Multigraph()
    for v in range(1, 8):
        g.add_vertex(v)
    e1 = g.add_edge(2, 3)
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    e2 = g.add_edge(4, 5)
    g.add_edge(1, 4)
    g.add_edge(1, 5)
    g.add_edge(6, 7)
    pinst = PairInstance(g, frozenset([e1, e2]),
                         frozenset([frozenset([6, 7])]), 1)
    return Gadget("flower", pinst, False, _scripted(frozenset([1])), (1, 2, 6))


def _g_seen_pair() -> Gadget:
    # three matched dumbbells all seeing the hub pair (x, y), k=1: rule 7
    # records the pair and rule 5 then answers no
    g = Multigraph()
    x, y = 1, 2
    for v in range(1, 11):
        g.add_vertex(v)
    g.add_edge(x, y)
    s = set()
    for i in range(3):
        a, b = 3 + 2 * i, 4 + 2 * i
        s.add(g.add_edge(a, b))
        g.add_edge(a, x)
        g.add_edge(b, y)
    g.add_edge(9, 10)
    pinst = PairInstance(g, frozenset(s), frozenset([frozenset([9, 10])]), 1)
    return Gadget("seen-pair", pinst, False,
                  _scripted(frozenset([x, y])), (2, 5, 7))


def _g_recorded_dumbbells() -> Gadget:
    # four dumbbells at k=2: rule 7 records (x, y), rule 8 then demotes
    # every dumbbell edge; the instance stays solvable
    g = Multigraph()
    x, y = 1, 2
    for v in range(1, 13):
        g.add_vertex(v)
    g.add_edge(x, y)
    s = set()
    for i in range(4):
        a, b = 3 + 2 * i, 4 + 2 * i
        s.add(g.add_edge(a, b))
        g.add_edge(a, x)
        g.add_edge(b, y)
    g.add_edge(11, 12)
    pinst = PairInstance(g, frozenset(s), frozenset([frozenset([11, 12])]), 2)
    return Gadget("recorded-dumbbells", pinst, True,
                  _scripted(frozenset([x, y])), (2, 7, 8))


def leaf_fan(leaves: int, k: int) -> PairInstance:
    """A hub h with S-edges to `leaves` leaves that all return through y, a
    path h-x-y, and one recorded pair on a separate edge. Deleting h (or y)
    kills every S-cycle and the pair needs one more vertex, so the minimum
    solution has size 2 at any number of leaves: yes iff k >= 2."""
    g = Multigraph()
    h, x, y = 1, 2, 3
    for v in range(1, 4 + leaves + 2):
        g.add_vertex(v)
    g.add_edge(h, x)
    g.add_edge(x, y)
    s = set()
    for i in range(leaves):
        li = 4 + i
        s.add(g.add_edge(h, li))
        g.add_edge(li, y)
    pa, pb = 4 + leaves, 5 + leaves
    g.add_edge(pa, pb)
    return PairInstance(g, frozenset(s), frozenset([frozenset([pa, pb])]), k)


def _g_leaf_fan(leaves: int, k: int, expected: bool,
                fires: tuple[int, ...]) -> Gadget:
    # with Z = {x, y} = {2, 3} the blocker isolates h, so uncovered leaves
    # see the pair (h, y)
    return Gadget(f"leaf-fan-{leaves}", leaf_fan(leaves, k), expected,
                  _scripted(frozenset([2, 3])), fires)


def gadget_suite() -> list[Gadget]:
    return [
        _g_budget_exhausted(),
        _g_bridge_and_s_bridge(),
        _g_pair_fan(),
        _g_pair_overflow(),
        _g_flower(),
        _g_seen_pair(),
        _g_recorded_dumbbells(),
        _g_leaf_fan(4, 1, False, (2, 5, 9)),
        _g_leaf_fan(5, 2, True, (2, 9, 10)),
    ]
