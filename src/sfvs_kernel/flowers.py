"""Maximum flowers: packings of S-cycles that pairwise meet only at a center z.

Every S-edge is first subdivided into a two-vertex S-segment, which makes
loops and parallel S-edges at the center look like ordinary triangles and
2-paths. A packing of t petals is then exactly a set of t S-segments whose
2t endpoints can be linked to N(z) by fully vertex-disjoint paths in G - z,
so the order is computed by a parity-constrained search over that gammoid:
depth-first over segment subsets with a flow feasibility check.

The decision version is deterministic and answers "no" in one of two ways
before it searches. Every petal ends at two neighbours of z of its own, so
fewer than 2t neighbours in the subdivided graph certify "no"; that count is
read off G in O(deg z), before anything is subdivided. Every petal also
contains an N(z)-path of the subdivided G - z, so a maximum packing of fewer
than t disjoint N(z)-paths (Gallai's A-path theorem, one certified matching
in `pathpacking`) certifies "no" too. Only the search answers "yes": it stops
at the first t linked segments and never explores more than half as many
segments as z has neighbours.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

# no caller here: kept because perfbench/layers.py probes flowers.linked and
# flowers.represent
from .gammoid import Digraph, bidirected, disjoint_paths, linked, represent
from .multigraph import Multigraph
from .pathpacking import gallai_blocker_or_packing


@dataclass
class Petal:
    vertices: tuple[int, ...]   # cyclic order, starts at the center
    edge_ids: tuple[int, ...]


@dataclass
class Flower:
    center: int
    petals: list[Petal]

    @property
    def order(self) -> int:
        return len(self.petals)


def _subdivide_all(g: Multigraph, s: frozenset[int]):
    """Replace every S-edge {u, v} by u-p, p-q (the S part), q-v."""
    g2 = g.copy()
    s2: set[int] = set()
    orig_eid: dict[int, int] = {}
    fresh = max(g.vertices(), default=0) + 1
    for eid in sorted(g.edges):
        orig_eid[eid] = eid
    for eid in sorted(s):
        u, v = g2.endpoints(eid)
        g2.remove_edge(eid)
        p, q = fresh, fresh + 1
        fresh += 2
        g2.add_vertex(p)
        g2.add_vertex(q)
        e1 = g2.add_edge(u, p)
        e2 = g2.add_edge(p, q)
        e3 = g2.add_edge(q, v)
        orig_eid[e1] = orig_eid[e2] = orig_eid[e3] = eid
        s2.add(e2)
    return g2, frozenset(s2), orig_eid


def _search(d: Digraph, sources: list[int], pairs: list[tuple[int, int]],
            target: Optional[int]
            ) -> tuple[list[tuple[int, int]], list[list[Hashable]]]:
    """Exact max parity-independent set of segment pairs, cut off early once
    `target` many are found, with the disjoint paths that link its segment
    ends to the sources. A set of c pairs needs 2c sources, so no branch
    grows past len(sources) // 2; the pairs returned do not depend on that."""
    src = set(sources)
    cap = len(sources) // 2
    best: list[tuple[int, int]] = []
    best_paths: list[list[Hashable]] = []
    last: list[list[Hashable]] = []     # the paths of the last linked set

    def feasible(chosen) -> bool:
        nonlocal last
        t = {v for pq in chosen for v in pq}
        paths = disjoint_paths(d, src, t, cutoff=len(t))
        if len(paths) < len(t):
            return False
        last = paths
        return True

    def dfs(i: int, chosen: list[tuple[int, int]]) -> bool:
        nonlocal best, best_paths
        if len(chosen) > len(best):
            # chosen grew by one pair that feasible() has just linked
            best, best_paths = list(chosen), last
            if target is not None and len(best) >= target:
                return True
        for j in range(i, len(pairs)):
            if min(len(chosen) + len(pairs) - j, cap) <= len(best):
                break
            chosen.append(pairs[j])
            if feasible(chosen) and dfs(j + 1, chosen):
                return True
            chosen.pop()
        return False

    dfs(0, [])
    return best, best_paths


def _lift_cycle(g2_cycle: list[int], g2_edges: list[int],
                orig_eid: dict[int, int], original: set[int]) -> Petal:
    verts = [v for v in g2_cycle if v in original]
    eids: list[int] = []
    for e in g2_edges:
        oe = orig_eid[e]
        if not eids or eids[-1] != oe:
            eids.append(oe)
    while len(eids) > 1 and eids[0] == eids[-1]:
        eids.pop()
    return Petal(tuple(verts), tuple(eids))


def _reconstruct(g2: Multigraph, z: int, chosen: list[tuple[int, int]],
                 paths: list[list[Hashable]], orig_eid: dict[int, int],
                 original: set[int]) -> list[Petal]:
    """The petals of the chosen segments, from the disjoint paths that link
    their ends to the neighbours of z."""
    path_to = {p[-1]: p for p in paths}
    if set(path_to) != {v for pq in chosen for v in pq}:
        raise AssertionError("chosen segments must stay linked")

    def edge_between(a: int, b: int) -> int:
        cands = [e for e in g2.edges_between(a, b) if not g2.is_loop(e)]
        if not cands:
            raise AssertionError(f"no edge between {a} and {b}")
        return min(cands)

    petals = []
    for p, q in chosen:
        walk = [z] + path_to[p] + list(reversed(path_to[q]))
        edges = [edge_between(walk[i], walk[i + 1]) for i in range(len(walk) - 1)]
        edges.append(edge_between(walk[-1], z))
        petals.append(_lift_cycle(walk, edges, orig_eid, original))
    return petals


def _petal_ends(g: Multigraph, s: frozenset[int], z: int) -> int:
    """The number of neighbours of z in the subdivided graph, read off g:
    distinct plain neighbours other than z, plus one segment end per S-edge
    at z and two for an S-loop."""
    plain: set[int] = set()
    ends = 0
    for eid in g.incident(z):
        u, v = g.endpoints(eid)
        if eid in s:
            ends += 2 if u == v else 1
        elif u != v:
            plain.add(v if u == z else u)
    return ends + len(plain)


def _setup(g: Multigraph, s: frozenset[int], z: int):
    """The subdivided graph G2, G2 - z, the neighbours of z in G2 and the
    S-segments' end pairs, with each edge of G2 mapped to its edge of g."""
    g2, s2, orig_eid = _subdivide_all(g, s)
    rest = g2.copy()
    rest.remove_vertex(z)
    sources = sorted(v for v in g2.neighbors(z) if v != z)
    pairs = [tuple(sorted(g2.endpoints(e))) for e in sorted(s2)]
    return g2, rest, sources, pairs, orig_eid


def max_flower(g: Multigraph, s: frozenset[int], z: int) -> Flower:
    """Exact maximum flower at z, with petals materialized."""
    if not g.has_vertex(z) or not s:
        return Flower(z, [])
    g2, rest, sources, pairs, orig_eid = _setup(g, s, z)
    chosen, paths = _search(bidirected(rest), sources, pairs, None)
    petals = _reconstruct(g2, z, chosen, paths, orig_eid, set(g.vertices()))
    return Flower(z, petals)


def has_flower_of_order(g: Multigraph, s: frozenset[int], z: int,
                        t: int) -> bool:
    """Decision version, exact. Fewer than t S-edges or fewer than 2t petal
    ends at z answer no before the subdivided graph is built.

    Next, fewer than t disjoint N(z)-paths in G2 - z answer no. That bound is
    sound: every petal in G2 is a cycle through z of length at least 3, so
    its part in G2 - z runs between two distinct neighbours of z and contains
    an N(z)-path; petals share only z, so t petals give t disjoint N(z)-paths.
    The packing comes from `gallai_blocker_or_packing`, which checks its
    Tutte-Berge witness and its blocker before it returns; a failed check
    raises AssertionError and is never taken for a no.

    The search decides the rest, and answers yes as soon as it has linked t
    segments. A yes deletes z, so it is checked first: the paths of that
    last flow become petals, which `validate_flower` inspects on g; a failed
    check raises AssertionError."""
    if t <= 0:
        return True
    if not g.has_vertex(z) or len(s) < t or _petal_ends(g, s, z) < 2 * t:
        return False
    g2, rest, sources, pairs, orig_eid = _setup(g, s, z)
    if gallai_blocker_or_packing(rest, sources, t - 1).packing is None:
        return False
    chosen, paths = _search(bidirected(rest), sources, pairs, t)
    if len(chosen) < t:
        return False
    petals = _reconstruct(g2, z, chosen, paths, orig_eid, set(g.vertices()))
    validate_flower(g, s, Flower(z, petals))
    return True


def validate_flower(g: Multigraph, s: frozenset[int], fl: Flower) -> None:
    z = fl.center
    seen: set[int] = set()
    for petal in fl.petals:
        vs, es = petal.vertices, petal.edge_ids
        if vs[0] != z:
            raise AssertionError("petals start at the center")
        if len(set(vs)) != len(vs):
            raise AssertionError("petal cycles are simple")
        inner = set(vs) - {z}
        if inner & seen:
            raise AssertionError("petals may only share the center")
        seen |= inner
        if not any(e in s for e in es):
            raise AssertionError("every petal needs an S-edge")
        if len(es) != len(vs):
            raise AssertionError("one edge per petal vertex")
        if len(vs) == 1:
            u, w = g.endpoints(es[0])
            if not u == w == z:
                raise AssertionError("a one-vertex petal is a loop at the center")
            continue
        if len(set(es)) != len(es):
            raise AssertionError("petal edges are distinct")
        for i in range(len(vs)):
            a, b = vs[i], vs[(i + 1) % len(vs)]
            u, w = g.endpoints(es[i])
            if {u, w} != {a, b}:
                raise AssertionError("petal edges must trace the cycle")
