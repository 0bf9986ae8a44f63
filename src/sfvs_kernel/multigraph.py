"""Multigraphs with explicit edge identities, plus the instance types built on them.

Vertices and edge ids are ints. Parallel edges and loops are first-class: a loop
contributes 2 to the degree of its endpoint, is never a bridge, and a loop whose
edge is special forms a cycle of length 1. All iteration orders are sorted so
that every operation in the package is deterministic.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Collection, Iterable, Optional

class Multigraph:
    """Undirected multigraph. Edges are identified by id, not by endpoints."""

    def __init__(self) -> None:
        self.edges: dict[int, tuple[int, int]] = {}
        self._inc: dict[int, set[int]] = {}
        # auto ids start at 1 to match the instance-file numbering, so a
        # freshly built graph serializes and parses back unchanged
        self._next_eid = 1

    @classmethod
    def from_edges(cls, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Multigraph":
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    # -- construction ------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        self._inc.setdefault(v, set())

    def add_edge(self, u: int, v: int, eid: Optional[int] = None) -> int:
        if eid is None:
            eid = self._next_eid
        if eid in self.edges:
            raise ValueError(f"edge id {eid} already present")
        self._next_eid = max(self._next_eid, eid + 1)
        self.add_vertex(u)
        self.add_vertex(v)
        self.edges[eid] = (u, v)
        self._inc[u].add(eid)
        self._inc[v].add(eid)
        return eid

    def remove_edge(self, eid: int) -> None:
        u, v = self.edges.pop(eid)
        self._inc[u].discard(eid)
        self._inc[v].discard(eid)

    def remove_vertex(self, v: int) -> set[int]:
        """Remove v and all incident edges; returns the removed edge ids."""
        gone = set(self._inc[v])
        for eid in gone:
            self.remove_edge(eid)
        del self._inc[v]
        return gone

    def copy(self) -> "Multigraph":
        g = Multigraph()
        g.edges = dict(self.edges)
        g._inc = {v: set(s) for v, s in self._inc.items()}
        g._next_eid = self._next_eid
        return g

    def __eq__(self, other: object) -> bool:
        """Same vertices and the same id -> endpoint-pair mapping."""
        if not isinstance(other, Multigraph):
            return NotImplemented
        if self._inc.keys() != other._inc.keys():
            return False
        if self.edges.keys() != other.edges.keys():
            return False
        return all(sorted(self.edges[e]) == sorted(other.edges[e])
                   for e in self.edges)

    __hash__ = None  # mutable

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._inc)

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> list[int]:
        return sorted(self._inc)

    def has_vertex(self, v: int) -> bool:
        return v in self._inc

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def is_loop(self, eid: int) -> bool:
        u, v = self.edges[eid]
        return u == v

    def incident(self, v: int) -> list[int]:
        return sorted(self._inc[v])

    def degree(self, v: int) -> int:
        # loops count twice
        return len(self._inc[v]) + sum(1 for e in self._inc[v] if self.is_loop(e))

    def neighbors(self, v: int) -> list[int]:
        out = set()
        for eid in self._inc[v]:
            a, b = self.edges[eid]
            out.add(b if a == v else a)
        out.discard(v)
        return sorted(out)

    def edges_between(self, u: int, v: int) -> list[int]:
        if u not in self._inc or v not in self._inc:
            return []
        return sorted(e for e in self._inc[u] if v in self.edges[e] and
                      (self.edges[e] == (u, v) or self.edges[e] == (v, u)))

    # -- structure ---------------------------------------------------------

    def components(self, banned_vertices: Collection[int] = (),
                   banned_edges: Collection[int] = ()) -> list[list[int]]:
        """Sorted components of g minus the banned vertices and edges, in
        order of their smallest vertex. Nothing is copied."""
        seen = set(banned_vertices)
        comps = []
        for start in self.vertices():
            if start in seen:
                continue
            comp = []
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for eid in self._inc[v]:
                    if eid in banned_edges:
                        continue
                    a, b = self.edges[eid]
                    w = b if a == v else a
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def induced(self, w: Iterable[int]) -> "Multigraph":
        """Induced subgraph on w; edge ids are preserved."""
        ws = set(w)
        g = Multigraph()
        for v in sorted(ws):
            if not self.has_vertex(v):
                raise ValueError(f"vertex {v} not in graph")
            g.add_vertex(v)
        for eid in sorted(self.edges):
            u, v = self.edges[eid]
            if u in ws and v in ws:
                g.add_edge(u, v, eid)
        g._next_eid = self._next_eid
        return g

    def shortest_path(self, src: int, dst: int,
                      banned_vertices: frozenset[int] = frozenset(),
                      banned_edges: frozenset[int] = frozenset(),
                      limit: Optional[int] = None) -> Optional[list[int]]:
        """BFS path from src to dst as a vertex list, or None. Given a limit,
        a path of more than `limit` vertices counts as none, and the search
        stops at that depth."""
        if src in banned_vertices or dst in banned_vertices:
            return None
        if src == dst:
            return [src]
        prev: dict[int, int] = {src: src}
        depth = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            if limit is not None and depth[v] + 2 > limit:
                return None    # the queue holds no shallower vertex
            for eid in self.incident(v):
                if eid in banned_edges:
                    continue
                a, b = self.edges[eid]
                w = b if a == v else a
                if w in prev or w in banned_vertices:
                    continue
                prev[w] = v
                depth[w] = depth[v] + 1
                if w == dst:
                    path = [w]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(w)
        return None

    def bridges(self, banned_vertices: Collection[int] = ()) -> set[int]:
        """Edge ids of g minus the banned vertices whose removal disconnects
        their endpoints there; edges at a banned vertex are not reported.

        Loops and edges with a parallel sibling are never bridges. Tarjan's
        lowlink in one iterative depth-first pass, O(n + m): the search skips
        only the edge id it arrived by, so a parallel sibling of that edge
        counts as a back edge.
        """
        order: dict[int, int] = {}
        low: dict[int, int] = {}
        out = set()
        for root in self._inc:
            if root in order or root in banned_vertices:
                continue
            order[root] = low[root] = len(order)
            stack = [(root, -1, iter(self._inc[root]))]
            while stack:
                v, via, it = stack[-1]
                for eid in it:
                    if eid == via:
                        continue
                    a, b = self.edges[eid]
                    w = b if a == v else a
                    if w in banned_vertices:
                        continue
                    if w not in order:
                        order[w] = low[w] = len(order)
                        stack.append((w, eid, iter(self._inc[w])))
                        break
                    low[v] = min(low[v], order[w])
                else:
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        low[u] = min(low[u], low[v])
                        if low[v] > order[u]:
                            out.add(via)
        return out


# -- instances ---------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A graph, a set of special edge ids, and a deletion budget."""
    graph: Multigraph
    s: frozenset[int]
    k: int

    def validate(self) -> None:
        if not self.s <= set(self.graph.edges):
            raise ValueError("special edges must be edges of the graph")

    def with_pairs(self) -> "PairInstance":
        return PairInstance(self.graph, self.s, frozenset(), self.k)


@dataclass(frozen=True)
class PairInstance:
    """Instance plus vertex pairs of which every solution must contain a member."""
    graph: Multigraph
    s: frozenset[int]
    pairs: frozenset[frozenset[int]]
    k: int

    def validate(self) -> None:
        if not self.s <= set(self.graph.edges):
            raise ValueError("special edges must be edges of the graph")
        for pair in self.pairs:
            if len(pair) != 2:
                raise ValueError("pairs must have two distinct vertices")
            if not all(self.graph.has_vertex(x) for x in pair):
                raise ValueError("pair vertex missing from graph")

    def drop_pairs(self) -> Instance:
        if self.pairs:
            raise ValueError("instance still carries pairs")
        return Instance(self.graph, self.s, self.k)


def find_s_cycle(g: Multigraph, s: frozenset[int],
                 deleted: frozenset[int] = frozenset()) -> Optional[list[int]]:
    """Vertices of some shortest cycle through a special edge in g - deleted.

    A special loop yields [v]; a special edge with a parallel sibling yields
    [u, v]. Returns None when no special edge lies on a cycle.
    """
    best: Optional[list[int]] = None
    for eid in sorted(s):
        u, v = g.edges[eid]
        if u in deleted or v in deleted:
            continue
        if u == v:
            return [u]
        if len([e for e in g.edges_between(u, v) if e != eid]) > 0:
            if best is None or len(best) > 2:
                best = [u, v]
            continue
        path = g.shortest_path(u, v, banned_vertices=deleted,
                               banned_edges=frozenset([eid]),
                               limit=None if best is None else len(best) - 1)
        if path is not None:
            best = path
    return best


def s_cycle_packing(g: Multigraph, s: frozenset[int],
                    limit: int) -> list[list[int]]:
    """Up to `limit` vertex-disjoint S-cycles, as vertex lists: a shortest
    S-cycle, then a shortest one avoiding its vertices, and so on until
    `limit` are found or none is left. Greedy, so fewer than `limit` does
    not mean no larger packing exists."""
    cycles: list[list[int]] = []
    used: set[int] = set()
    while len(cycles) < limit:
        cycle = find_s_cycle(g, s, used)
        if cycle is None:
            break
        cycles.append(cycle)
        used.update(cycle)
    return cycles


def is_s_cycle(g: Multigraph, s: frozenset[int], cycle: list[int]) -> bool:
    """Is the vertex list a cycle of g through a special edge? [v] needs a
    special loop at v, and [u, v] two parallel edges, one of them special.
    Longer lists need distinct vertices, an edge between each consecutive
    pair, last and first included, and a special edge between one pair."""
    if not cycle or len(set(cycle)) != len(cycle) or \
            not all(g.has_vertex(v) for v in cycle):
        return False
    if len(cycle) == 1:
        return any(e in s for e in g.edges_between(cycle[0], cycle[0]))
    if len(cycle) == 2:
        band = g.edges_between(*cycle)
        return len(band) >= 2 and any(e in s for e in band)
    bands = [g.edges_between(a, b)
             for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return all(bands) and any(e in s for band in bands for e in band)


def has_s_cycle(g: Multigraph, s: frozenset[int],
                deleted: frozenset[int] = frozenset()) -> bool:
    """Does some special edge lie on a cycle of g - deleted?

    A special edge with both ends alive lies on a cycle exactly when it is not
    a bridge of g - deleted (Tarjan 1974), so one bridge pass, O(n + m),
    answers for all of them. Loops and edges with a parallel sibling are never
    bridges, which covers the cycles of length 1 and 2.
    """
    live = {e for e in s if not deleted.intersection(g.edges[e])}
    return bool(live) and not live <= g.bridges(deleted)


def is_solution(inst: Instance | PairInstance, deleted: frozenset[int]) -> bool:
    """Does deleting the given vertices kill every special cycle (and hit every pair)?"""
    if not deleted <= set(inst.graph._inc):
        raise ValueError("deleted vertices must exist in the graph")
    if has_s_cycle(inst.graph, inst.s, deleted):
        return False
    if isinstance(inst, PairInstance):
        for pair in inst.pairs:
            if not pair & deleted:
                return False
    return True


# -- normalization -----------------------------------------------------------


@dataclass
class Normalization:
    """Result of normalize: the rewritten instance plus lifting data.

    landing maps every vertex of the normalized graph to a vertex of the input
    graph (identity on surviving originals; subdivision vertices land on the
    endpoint they were split off from). forced holds input vertices whose
    deletion was already charged against k.
    """
    instance: PairInstance
    landing: dict[int, int]
    forced: frozenset[int]

    def lift(self, deleted: frozenset[int]) -> frozenset[int]:
        return frozenset(self.landing[v] for v in deleted) | self.forced


def normalize(inst: Instance | PairInstance) -> Normalization:
    """Rewrite an instance so the special edges form an induced set of disjoint paths.

    After normalization every special edge {p, q} has degree-2 endpoints, and
    the other neighbour of each is neither p, q nor an endpoint of any special
    edge. There are no loops, at most one plain edge per vertex pair, and
    exactly one plain sibling next to a special edge's original span. An
    optimal solution avoiding all special edge endpoints exists for the
    rewritten instance, and solutions lift back via Normalization.landing.

    A special edge that already has this shape, and whose endpoints lie in no
    pair, is left alone: every cycle through p passes through p's other
    neighbour, which is no special endpoint, so a solution can trade p for
    it. Every other special edge {u, v} is subdivided into u-p, p-q
    (special), q-v with fresh p and q. Normalizing a normalized instance
    therefore changes nothing.
    """
    if isinstance(inst, Instance):
        inst = inst.with_pairs()
    g = inst.graph.copy()
    s = set(inst.s)
    pairs = set(inst.pairs)
    k = inst.k

    # special loops force their vertex into every solution
    forced = sorted({g.edges[e][0] for e in s if g.is_loop(e)})
    for v in forced:
        gone = g.remove_vertex(v)
        s -= gone
        pairs = {p for p in pairs if v not in p}
        k -= 1

    for eid in sorted(g.edges):
        if g.is_loop(eid):
            g.remove_edge(eid)

    # multiplicity: one plain edge per pair, plus one special edge if any
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid in sorted(g.edges):
        u, v = g.edges[eid]
        by_pair.setdefault((min(u, v), max(u, v)), []).append(eid)
    for _, eids in sorted(by_pair.items()):
        special = [e for e in eids if e in s]
        plain = [e for e in eids if e not in s]
        if not special:
            keep = {plain[0]}
        elif len(eids) == 1:
            keep = {special[0]}
        else:
            # a second special copy stands in for a missing plain sibling; any
            # cycle through it has a sibling cycle on the same vertices, so
            # demoting it keeps the solution set unchanged
            kept_plain = plain[0] if plain else special[1]
            s.discard(kept_plain)
            keep = {special[0], kept_plain}
        for e in eids:
            if e not in keep:
                g.remove_edge(e)
                s.discard(e)

    ends = {x for e in s for x in g.edges[e]}
    in_pairs = {x for pr in pairs for x in pr}

    def settled(eid: int) -> bool:
        for x in g.edges[eid]:
            if len(g._inc[x]) != 2 or x in in_pairs:
                return False
            (other,) = g._inc[x] - {eid}
            a, b = g.edges[other]
            if (b if a == x else a) in ends:
                return False
        return True

    landing = {v: v for v in g.vertices()}
    next_v = max(g.vertices(), default=0) + 1
    for eid in [e for e in sorted(s) if not settled(e)]:
        u, v = g.edges[eid]
        p, q = next_v, next_v + 1
        next_v += 2
        g.remove_edge(eid)
        s.discard(eid)
        g.add_edge(u, p)
        mid = g.add_edge(p, q)
        g.add_edge(q, v)
        s.add(mid)
        landing[p] = u
        landing[q] = v

    out = PairInstance(g, frozenset(s), frozenset(pairs), k)
    return Normalization(out, landing, frozenset(forced))


def base_of(g: Multigraph, s: Collection[int], p: int) -> int:
    """The base of S-edge endpoint p: its neighbour besides its partner.
    Raises ValueError unless p has the shape normalize leaves: degree 2,
    one S-edge, and a neighbour besides its partner."""
    if g.degree(p) != 2:
        raise ValueError("S-edge endpoints must have degree 2")
    sids = [e for e in g.incident(p) if e in s]
    if len(sids) != 1:
        raise ValueError("S-edges must form an induced matching")
    others = [w for w in g.neighbors(p) if w not in g.endpoints(sids[0])]
    if len(others) != 1:
        raise ValueError("S-edge endpoints need a neighbour besides their partner")
    return others[0]


def check_normalized(inst: Instance | PairInstance) -> None:
    """Raise ValueError unless inst has the shape normalize leaves: no
    S-loops, every S-edge endpoint of degree 2 on one S-edge with a base
    (base_of) off V(S), and no pair touching V(S)."""
    g, s = inst.graph, inst.s
    ends = {v for eid in s for v in g.endpoints(eid)}
    for eid in s:
        u, v = g.endpoints(eid)
        if u == v:
            raise ValueError("normalized instances have no S-loops")
        if base_of(g, s, u) in ends or base_of(g, s, v) in ends:
            raise ValueError("bases of S-edge endpoints must lie off V(S)")
    if isinstance(inst, PairInstance) and \
            any(not ends.isdisjoint(pr) for pr in inst.pairs):
        raise ValueError("recorded pairs must avoid V(S)")


# -- torso -------------------------------------------------------------------


def torso(g: Multigraph, w: Iterable[int]) -> Multigraph:
    """Induced graph on w plus plain edges for w-pairs joined through the outside.

    Two vertices of w get a new plain edge when some component of g - w is
    adjacent to both. Edge ids inside w are preserved. Multiplicity is capped
    at two: a 2-cycle witnessing a special edge consists of that edge plus one
    other connection, so a single parallel copy is enough, and the added plain
    edges cannot create special cycles of their own. No loops are created
    (a cycle leaving w and returning to the same vertex has no special edge).
    """
    ws = set(w)
    tg = g.induced(ws)
    mult = Counter((min(e), max(e)) for e in tg.edges.values() if e[0] != e[1])
    for comp in g.components(banned_vertices=ws):
        boundary = set()
        for c in comp:
            for u in g.neighbors(c):
                if u in ws:
                    boundary.add(u)
        bnd = sorted(boundary)
        for i, u in enumerate(bnd):
            for v in bnd[i + 1:]:
                if mult[u, v] < 2:
                    mult[u, v] += 1
                    tg.add_edge(u, v)
    return tg
