"""Small-instance reference solvers.

These are deliberately simple and exhaustive. They anchor the randomized and
rule-based machinery: every fast path in the package is tested against one of
the solvers here on instances small enough to enumerate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .multigraph import (Instance, Multigraph, PairInstance, base_of,
                         find_s_cycle, has_s_cycle)

MAX_EXACT_VERTICES = 25
MAX_EXACT_BUDGET = 6


@dataclass
class SolveResult:
    found: bool
    witness: Optional[frozenset[int]]


def _unhit_pair(pairs, deleted):
    for pair in sorted(pairs, key=sorted):
        if not (set(pair) & deleted):
            return pair
    return None


def _branch(g: Multigraph, s: frozenset[int], pairs, budget: int,
            deleted: set[int], avoid: frozenset[int]) -> Optional[set[int]]:
    """Branch on the first unhit pair, else on a shortest S-cycle of
    g - deleted: one of its vertices outside `avoid` joins the solution."""
    hit = _unhit_pair(pairs, deleted) or find_s_cycle(g, s, deleted)
    if hit is None:
        return set(deleted)
    if budget == 0:
        return None
    for v in sorted(set(hit)):
        if v in avoid:
            continue
        deleted.add(v)
        got = _branch(g, s, pairs, budget - 1, deleted, avoid)
        if got is not None:
            return got
        deleted.remove(v)
    return None


def solve_exact(inst: Instance | PairInstance, max_k: Optional[int] = None,
                n_cap: Optional[int] = None) -> SolveResult:
    """Branch on a shortest violated cycle / unhit pair, budget-iterated so the
    returned witness has minimum size. Capped to keep runtimes honest."""
    if max_k is not None and max_k < 0:     # min(k, max_k) would try no budget
        raise ValueError(f"max_k (--max-k) must be at least 0, got {max_k}")
    pinst = inst.with_pairs() if isinstance(inst, Instance) else inst
    pinst.validate()
    k = pinst.k if max_k is None else min(pinst.k, max_k)
    cap = MAX_EXACT_VERTICES if n_cap is None else n_cap
    if pinst.graph.n > cap:
        raise ValueError(f"exact solver capped at {cap} vertices")
    if k > MAX_EXACT_BUDGET:
        raise ValueError(f"exact solver capped at budget {MAX_EXACT_BUDGET}")
    for budget in range(k + 1):
        got = _branch(pinst.graph, pinst.s, pinst.pairs, budget, set(),
                      frozenset())
        if got is not None:
            return SolveResult(True, frozenset(got))
    return SolveResult(False, None)


@dataclass
class FeasibleZ:
    z: frozenset[int]
    factor: Optional[int]  # None: no approximation certificate


def _base_endpoints(g: Multigraph, s: frozenset[int]) -> list[int]:
    # the bases of the S-edge endpoints: the original endpoints each
    # subdivided edge landed on
    vs = {v for eid in s for v in g.endpoints(eid)}
    return sorted({base_of(g, s, p) for p in vs} - vs)


def feasible_z_exact(g: Multigraph, s: frozenset[int]) -> FeasibleZ:
    """Minimum vertex set avoiding V(S) that kills every S-cycle."""
    vs = set()
    for eid in s:
        vs.update(g.endpoints(eid))
    for budget in range(g.n + 1):
        got = _branch(g, s, frozenset(), budget, set(), frozenset(vs))
        if got is not None:
            return FeasibleZ(frozenset(got), 1)
    raise AssertionError("an avoiding hitting set always exists after normalization")


def feasible_z_greedy(g: Multigraph, s: frozenset[int]) -> FeasibleZ:
    """Feasible but uncertified: start from all base endpoints, prune greedily.

    Each base endpoint v, in increasing order, leaves Z unless G - (Z - v)
    has an S-cycle. G - Z has none, so its S-edges are bridges, and v's
    edges are plain, since Z avoids V(S). Such a cycle is then v plus a path
    between two of v's neighbours across an S-bridge, which exists exactly
    when the two lie in one component of G - Z but in different bubbles
    (components of G - Z - S). Two union-finds keep the components and the
    bubbles of G - Z and merge both as vertices leave Z.
    """
    z = set(_base_endpoints(g, s))
    if has_s_cycle(g, s, z):
        raise AssertionError("base endpoints must hit every S-cycle")
    comp = {v: v for v in g.vertices() if v not in z}
    bubble = dict(comp)

    def find(parent: dict[int, int], v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for eid, (a, b) in g.edges.items():
        if a in comp and b in comp:
            comp[find(comp, a)] = find(comp, b)
            if eid not in s:
                bubble[find(bubble, a)] = find(bubble, b)

    for v in sorted(z):
        near = {w for eid in g.incident(v) for w in g.edges[eid] if w in comp}
        roots = {find(bubble, w): find(comp, w) for w in near}
        if len(set(roots.values())) < len(roots):
            continue               # two bubbles in one component: an S-cycle
        z.discard(v)
        comp[v] = bubble[v] = v
        for b, c in roots.items():
            bubble[b] = comp[c] = v
    return FeasibleZ(frozenset(z), None)


def _candidate_petals(g: Multigraph, s: frozenset[int], z: int):
    """All vertex sets C - z over simple S-cycles through z, plus the count of
    S-loops sitting directly on z."""
    loops = sum(1 for eid in g.incident(z)
                if eid in s and g.is_loop(eid))
    petals: set[frozenset[int]] = set()

    def s_between(a: int, b: int) -> bool:
        return any(eid in s for eid in g.edges_between(a, b))

    def plain_between(a: int, b: int) -> bool:
        return any(eid not in s and not g.is_loop(eid)
                   for eid in g.edges_between(a, b))

    # 2-cycles: need two parallel edges, at least one of them in S
    for u in sorted(g.neighbors(z)):
        if u == z:
            continue
        band = [eid for eid in g.edges_between(z, u) if not g.is_loop(eid)]
        if len(band) >= 2 and any(eid in s for eid in band):
            petals.add(frozenset([u]))

    def extend(path: list[int], seen_s: bool) -> None:
        tail = path[-1]
        for u in sorted(g.neighbors(tail)):
            if u == z:
                if len(path) >= 3:
                    got = seen_s or s_between(tail, z)
                    if got:
                        petals.add(frozenset(path[1:]))
                continue
            if u in path:
                continue
            extend(path + [u], seen_s or s_between(tail, u))

    for u in sorted(g.neighbors(z)):
        if u != z:
            if plain_between(z, u) or s_between(z, u):
                extend([z, u], s_between(z, u))
    return loops, sorted(petals, key=lambda c: (len(c), sorted(c)))


def brute_force_flower(g: Multigraph, s: frozenset[int], z: int) -> int:
    """Maximum number of S-cycles through z that are vertex-disjoint except at
    z, by exhaustive packing over all simple cycles. Test oracle only."""
    if not g.has_vertex(z):
        return 0
    loops, petals = _candidate_petals(g, s, z)

    best = 0

    def pack(idx: int, used: set[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (len(petals) - idx) <= best:
            return
        for i in range(idx, len(petals)):
            c = petals[i]
            if not (c & used):
                pack(i + 1, used | c, count + 1)

    pack(0, set(), 0)
    return loops + best
