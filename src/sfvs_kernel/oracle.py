"""Small-instance reference solvers.

These are deliberately simple and exhaustive. They anchor the randomized and
rule-based machinery: every fast path in the package is tested against one of
the solvers here on instances small enough to enumerate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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
                avoid: Iterable[int] = (), n_cap: Optional[int] = None) -> SolveResult:
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
    avoid = frozenset(avoid)
    for budget in range(k + 1):
        got = _branch(pinst.graph, pinst.s, pinst.pairs, budget, set(), avoid)
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
    has an S-cycle. G - Z has none, so such a cycle runs through v and,
    besides v, stays in one component C of G - Z that v has two edges into.
    Z never holds an S-edge endpoint, so the cycle's S-edges lie in C. A
    union-find keeps the components of G - Z and the S-edges inside each,
    merging them as vertices leave Z. Only when some such C holds an S-edge
    does a bridge pass run, and only on v's component of G - (Z - v).
    """
    z = set(_base_endpoints(g, s))
    if has_s_cycle(g, s, z):
        raise AssertionError("base endpoints must hit every S-cycle")
    parent = {v: v for v in g.vertices() if v not in z}
    inner: dict[int, list[int]] = {v: [] for v in parent}   # root -> S-edges

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def join(ra: int, rb: int) -> int:
        """Merge two roots, the one with fewer S-edges under the other."""
        if ra == rb:
            return ra
        if len(inner[ra]) > len(inner[rb]):
            ra, rb = rb, ra
        parent[ra] = rb
        inner[rb] += inner.pop(ra)
        return rb

    for eid in sorted(g.edges):
        a, b = g.edges[eid]
        if a in parent and b in parent:
            root = join(find(a), find(b))
            if eid in s:
                inner[root].append(eid)

    for v in sorted(z):
        touches: dict[int, int] = {}       # root -> edges from v into it
        for eid in g.incident(v):
            a, b = g.edges[eid]
            w = b if a == v else a
            if w in parent:
                r = find(w)
                touches[r] = touches.get(r, 0) + 1
        live = {e for r, c in touches.items() if c >= 2 for e in inner[r]}
        z.discard(v)
        if live and not live <= g.bridges(z, roots=[v]):
            z.add(v)
            continue
        parent[v], inner[v] = v, []
        root = v
        for r in touches:
            root = join(root, r)
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
