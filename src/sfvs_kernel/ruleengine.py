"""Reduction rules that shrink S to a polynomial of the budget k.

The input has the shape normalize leaves (multigraph.check_normalized):
each S-edge endpoint has degree 2 and a base off V(S), and no pair touches
V(S), so a solution can trade an S-edge endpoint for its base and some
minimum solution avoids V(S). Everything is organized around a feasible
deletion set Z, disjoint from the S-edge endpoints, that hits every S-cycle;
a Z certified within a factor f of the least such set answers "no" when
|Z| > f k. The components of G - Z - S are called bubbles; linking two
bubbles whenever an S-edge runs between them gives a forest (a cycle would
lift to an S-cycle avoiding Z). Bubbles are solitary, leaves, or inner by
their degree in that forest.

The engine repeatedly applies the lowest-numbered applicable rule. Rules
either answer the instance outright, delete graph material, demote S-edges to
plain edges, or record a vertex pair that every solution must hit; recorded
pairs are realized as parallel S-edges once no rule applies.

Rules 7-10 are one count, made twice: over the edges M of a matching of the
bubble forest that covers every inner bubble (rules 7/8), then over the
edges L of the uncovered leaves, seen through the pieces left when the
blockers B join Z (rules 9/10). A pair of z-vertices seen by k + 2 edges
with disjoint parts must be hit and is recorded (7, 9); failing that, an
edge whose every sighting is already recorded is demoted (8, 10).

Between steps the engine keeps what the last step provably left unchanged
and rebuilds the rest. In the loop G only loses vertices and edges (rules 2,
4, 6), S and Z only shrink and k only falls, so (n, m) names G, and
(n, m, |S|, |Z|, k) names everything but the pairs. Each kept item carries
the sizes it was built at and is used only while they still hold:

- Rule 2 runs only when (n, m) differs from the end of its last pass. A
  pass leaves no bridge (no cycle uses a bridge, so removing bridges makes
  no new one) and no component without an S-edge or a pair vertex. While G
  stays, a step records a pair, which only protects more, or demotes an
  S-edge e, and e's component keeps an S-edge or a pair vertex. Rule 3
  demotes only a non-bridge whose ends G - S does not join, so every cycle
  through e uses a second S-edge. Rules 8/10 demote e only when rule 3 found
  nothing, so a path of G - S joins e's two sides, and each side sees some
  vertex of Z (or Z + B); as they see none in common, e's pairs across are
  all recorded, and each holds a vertex next to e's side.
- Rule 3 runs only when (n, m) differs from its last pass that found no
  edge: a demotion only merges components of G - S, so it cannot make an
  S-edge join two of them.
- Rules 7-10's bubble decomposition, cover matching, blockers, Z + B
  decomposition and sightings are kept while (n, m, |S|, |Z|, k) holds,
  which is after a step of rule 7 or 9: pairs enter only the count, so the
  next step recounts the same sightings.
- Rule 6's "no flower of order t at z" answers carry over, kept as (z, t)
  pairs. A flower in a subgraph, with a subset of S, is a flower of the
  larger instance too, and every rule that does not answer outright only
  deletes edges, vertices and S-edges or records a pair (pairs play no part
  in a flower), so the instance only shrinks and a "no" stays "no". Rules 4
  and 6 lower k, after which rule 6 asks about another order t = k + 1: a
  different key, so a fresh search. Nothing ever needs to forget an answer.

Soundness of the counting rules leans on witnesses being vertex-disjoint,
which is asserted at the moment each rule fires rather than trusted.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .flowers import has_flower_of_order
from .multigraph import (Instance, Multigraph, PairInstance, base_of,
                         check_normalized, has_s_cycle, is_solution)
from .oracle import FeasibleZ, feasible_z_exact
from .pathpacking import exists_apath, gallai_blocker_or_packing
from .skernel import canonical_no, canonical_yes

Provider = Callable[[Multigraph, frozenset], FeasibleZ]


# ---------------------------------------------------------------- structure


@dataclass
class Decomposition:
    y: frozenset[int]
    bubbles: list[frozenset[int]]
    bubble_of: dict[int, int]
    adj: dict[int, dict[int, int]]      # bubble -> neighbor bubble -> s-eid
    link: dict[int, tuple[int, int]]    # s-eid -> (bubble, bubble)
    yadj: dict[int, frozenset[int]]     # bubble -> adjacent Y vertices

    def degree(self, b: int) -> int:
        return len(self.adj[b])

    def leaves(self) -> list[int]:
        return [b for b in range(len(self.bubbles)) if self.degree(b) == 1]


def decompose(g: Multigraph, s: frozenset[int], y: frozenset[int]) -> Decomposition:
    for eid in s:
        for v in g.endpoints(eid):
            if v in y:
                raise AssertionError("Y must avoid S-edge endpoints")
    bubbles = [frozenset(c) for c in g.components(y, s)]
    bubble_of = {v: i for i, c in enumerate(bubbles) for v in c}

    adj: dict[int, dict[int, int]] = {i: {} for i in range(len(bubbles))}
    link: dict[int, tuple[int, int]] = {}
    for eid in sorted(s):
        u, v = g.endpoints(eid)
        bu, bv = bubble_of[u], bubble_of[v]
        if bu == bv:
            raise AssertionError(
                "an S-edge inside a bubble contradicts feasibility of Y")
        if bv in adj[bu]:
            raise AssertionError(
                "parallel S-edges between bubbles contradict feasibility")
        adj[bu][bv] = eid
        adj[bv][bu] = eid
        link[eid] = (bu, bv)

    yset: dict[int, set[int]] = {i: set() for i in range(len(bubbles))}
    for eid in sorted(g.edges):
        if eid in s or g.is_loop(eid):
            continue
        u, v = g.endpoints(eid)
        if u in y and v in y:
            continue
        if u in y:
            yset[bubble_of[v]].add(u)
        elif v in y:
            yset[bubble_of[u]].add(v)
        elif bubble_of[u] != bubble_of[v]:
            raise AssertionError("plain edges cannot cross bubbles")
    yadj = {i: frozenset(vs) for i, vs in yset.items()}
    return Decomposition(y, bubbles, bubble_of, adj, link, yadj)


def cover_matching(dec: Decomposition) -> set[int]:
    """Matching in the bubble forest covering every inner bubble, in one
    top-down pass: each component is rooted at its smallest bubble and
    walked parents first, and each bubble with children that its parent did
    not take is matched to its smallest child. AssertionError unless each
    component has one link fewer than bubbles, that is, is a tree."""
    n = len(dec.bubbles)
    parent: dict[int, Optional[int]] = {}
    matched: set[int] = set()
    covered: set[int] = set()
    for root in range(n):
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for x in order:                    # breadth first: parents first
            for w in dec.adj[x]:
                if w not in parent:
                    parent[w] = x
                    order.append(w)
        if sum(dec.degree(x) for x in order) != 2 * (len(order) - 1):
            raise AssertionError("bubble graph must be a forest")
        for x in order:
            kids = [w for w in dec.adj[x] if w != parent[x]]
            if kids and x not in covered:
                v = min(kids)
                matched.add(dec.adj[x][v])
                covered |= {x, v}
    for b in range(n):
        if dec.degree(b) >= 2 and b not in covered:
            raise AssertionError("matching must cover every inner bubble")
    return matched


def uncovered_leaves(dec: Decomposition, matched: set[int]) -> list[int]:
    covered = {b for eid in matched for b in dec.link[eid]}
    return [b for b in dec.leaves() if b not in covered]


# ------------------------------------------------------------------ blocker


def compute_blocker(g: Multigraph, s: frozenset[int], dec: Decomposition,
                    z: int, k: int) -> frozenset[int]:
    """Vertices (outside V(S), inside partner territory) whose removal cuts
    every path between two z-adjacent leaves through the inner bubbles.

    Gallai's A is the set of partner endpoints: the far ends q of the
    z-adjacent leaves' S-edges whose far bubble is inner. An A-path in the
    plain graph of those bubbles is exactly the inner part of a
    leaf-to-leaf path, so with fewer than two such q there is none and the
    blocker is empty. k+1 disjoint such paths would lift to a flower of
    order k+1 at z, which rule 6 has already ruled out, so finding them
    raises AssertionError. Blocker vertices on S-edges move to their bases,
    which still cut every A-path: a q's only plain neighbour is its base.
    """
    a: set[int] = set()
    inner_union: set[int] = set()
    for leaf in dec.leaves():
        if z not in dec.yadj[leaf]:
            continue
        (far, eid), = dec.adj[leaf].items()
        if dec.degree(far) >= 2:
            u, v = g.endpoints(eid)
            a.add(v if u in dec.bubbles[leaf] else u)
            inner_union |= dec.bubbles[far]
    if len(a) < 2:
        return frozenset()
    gz = g.induced(inner_union)
    for eid in gz.edges.keys() & s:
        gz.remove_edge(eid)

    res = gallai_blocker_or_packing(gz, a, k)
    if res.packing is not None:
        raise AssertionError(f"k+1 leaf-to-leaf paths lift to a flower at {z}, "
                             "which rule 6 has ruled out")
    out = {base_of(g, s, x) if any(e in s for e in g.incident(x)) else x
           for x in res.blocker}

    if not out <= inner_union or \
            any(e in s for x in out for e in g.incident(x)):
        raise AssertionError("blocker leaves the inner bubbles or touches V(S)")
    if len(out) > 2 * k:
        raise AssertionError("blocker exceeds 2k vertices")
    if exists_apath(gz, a, out):
        raise AssertionError(
            "replacement vertices must still block every leaf-to-leaf path")
    return frozenset(out)


# ------------------------------------------------------------------- engine


@dataclass
class _PairView:
    """Rules 7-10's structure at the G, S, Z and k that `at` names: the
    bubble decomposition, its cover matching and M's sightings, and, once
    rules 9/10 are reached, the blocker union B and L's sightings."""
    at: tuple[int, int, int, int, int]   # (n, m, |S|, |Z|, k)
    dec: Decomposition
    matched: set[int]
    m_sightings: list
    b: frozenset[int] = frozenset()
    l_sightings: Optional[list] = None


@dataclass
class _Kept:
    """Derived structure kept between steps, each part stamped with the
    sizes of G (and of S, Z and k) it was built at; see the module
    docstring."""
    # (n, m) of G after the last pass of rule 2, and at the last pass of
    # rule 3 that found nothing
    rule2_clean_at: Optional[tuple[int, int]] = None
    rule3_clean_at: Optional[tuple[int, int]] = None
    view: Optional[_PairView] = None


@dataclass
class _State:
    graph: Multigraph
    s: set[int]
    pairs: set[frozenset[int]]
    k: int
    z: set[int]
    counts: Counter = field(default_factory=Counter)
    forced: list[int] = field(default_factory=list)
    outcome: Optional[str] = None
    steps: int = 0
    stats: Optional[dict] = None
    last_blocker: frozenset[int] = frozenset()
    no_flower: set[tuple[int, int]] = field(default_factory=set)  # (z, order)
    kept: _Kept = field(default_factory=_Kept)


@dataclass
class EngineReport:
    outcome: str                      # "reduced" | "trivial-yes" | "trivial-no"
    final: Instance                   # pairs realized (or a canonical instance)
    fixpoint: Optional[PairInstance]  # state when no rule applied
    z: frozenset[int]
    blocker: frozenset[int]
    rule_counts: dict[int, int]
    forced: tuple[int, ...]
    stats: dict


def _delete_vertex(st: _State, v: int) -> None:
    removed = st.graph.remove_vertex(v)
    st.s -= set(removed)
    st.pairs = {p for p in st.pairs if v not in p}
    st.z.discard(v)
    st.k -= 1
    st.forced.append(v)


def _pair_vertices(st: _State) -> set[int]:
    return {v for p in st.pairs for v in p}


def _rule2(st: _State) -> bool:
    g, kept = st.graph, st.kept
    if kept.rule2_clean_at == (g.n, g.m):
        return False
    acted = False
    for eid in sorted(g.bridges()):
        g.remove_edge(eid)
        st.s.discard(eid)
        acted = True
    keep = _pair_vertices(st)
    s_ends = {v for eid in st.s for v in g.endpoints(eid)}
    for comp in g.components():
        if s_ends.isdisjoint(comp) and keep.isdisjoint(comp):
            for v in comp:
                g.remove_vertex(v)
                st.z.discard(v)
            acted = True
    kept.rule2_clean_at = (g.n, g.m)
    return acted


def _rule3(st: _State) -> Optional[int]:
    g, kept = st.graph, st.kept
    if kept.rule3_clean_at == (g.n, g.m):
        return None
    comp_of: dict[int, int] = {}
    for i, comp in enumerate(g.components(banned_edges=st.s)):
        for v in comp:
            comp_of[v] = i
    for eid in sorted(st.s):
        u, v = g.endpoints(eid)
        if comp_of[u] != comp_of[v]:
            return eid
    kept.rule3_clean_at = (g.n, g.m)
    return None


def _m_sees(dec: Decomposition, matched: set[int]):
    """Sightings of the matched edges: both bubbles, the z-vertices both
    see, and the pairs one sees with the other, as sorted tuples."""
    out = []
    for eid in sorted(matched):
        a, b = dec.link[eid]
        za, zb = dec.yadj[a], dec.yadj[b]
        prs = {(min(x, y), max(x, y)) for x in za for y in zb if x != y}
        out.append((eid, (a, b), za & zb, prs))
    return out


def _leaf_edges(g: Multigraph, st: _State, dec: Decomposition, lset: list[int],
                deczb: Decomposition):
    """Sightings of the uncovered leaves' S-edges: the leaf's piece and its
    partner piece in the Z+B decomposition, the z-vertices both see, and
    the pairs (partner side, leaf side) they see, oriented."""
    out = []
    for leaf in lset:
        (far, eid), = dec.adj[leaf].items()
        if dec.degree(far) < 2:
            raise AssertionError("partners of uncovered leaves are inner")
        u, v = g.endpoints(eid)
        p, q = (u, v) if u in dec.bubbles[leaf] else (v, u)
        izb = deczb.bubble_of[p]
        if deczb.bubbles[izb] != dec.bubbles[leaf]:
            raise AssertionError("blockers never cut into leaf bubbles")
        fzb = deczb.bubble_of[q]
        ey = deczb.yadj[izb]
        if not ey <= st.z:
            raise AssertionError("leaf pieces see only Z")
        fy = deczb.yadj[fzb]
        singles = fy & ey
        oriented = {(x, y) for x in fy for y in ey if x != y}
        out.append((eid, (izb, fzb), singles, oriented))
    return out


def _count_sightings(st: _State, sightings) -> Optional[int]:
    """Rules 7/8 (on M) or 9/10 (on L) over sightings (eid, parts, singles,
    keys): an S-edge, the two bubbles or pieces it joins, the z-vertices
    both see, and one key per pair of z-vertices it sees. Records the least
    unrecorded key seen through k + 2 disjoint parts (returns 0), or else
    demotes the lowest-id edge with no singles whose pairs are all recorded
    (returns 1); None when neither applies."""
    k = st.k
    cnt = Counter(key for *_, keys in sightings for key in keys)
    cands = sorted(key for key, c in cnt.items()
                   if c >= k + 2 and frozenset(key) not in st.pairs)
    if cands:
        pick = cands[0]
        wit = [parts for _, parts, _, keys in sightings if pick in keys]
        if len(wit) < k + 2:
            raise AssertionError("a recorded pair needs k+2 witnesses")
        used: set[int] = set()
        for parts in wit:
            if used.intersection(parts):
                raise AssertionError("witness parts must be disjoint")
            used.update(parts)
        st.pairs.add(frozenset(pick))
        return 0
    for eid, _, singles, keys in sorted(sightings, key=lambda sg: sg[0]):
        if not singles and all(frozenset(key) in st.pairs for key in keys):
            st.s.discard(eid)
            return 1
    return None


def _apply_once(st: _State) -> Optional[int]:
    g = st.graph
    k = st.k
    sfro = frozenset(st.s)

    # rule 1: out of budget
    if k < 0 or (k == 0 and (st.pairs or has_s_cycle(g, sfro, set()))):
        st.outcome = "trivial-no"
        return 1

    # rule 2: bridges and S-free components (components carrying a recorded
    # pair stay: the pair is a real constraint even without S-edges nearby)
    if _rule2(st):
        return 2

    # rule 3: an S-edge no cycle can use without a second S-edge
    eid = _rule3(st)
    if eid is not None:
        st.s.discard(eid)
        return 3

    # rule 4: a vertex in more pairs than the budget can miss
    cnt = Counter(v for p in st.pairs for v in p)
    hot = sorted(v for v, c in cnt.items() if c >= k + 1)
    if hot:
        _delete_vertex(st, hot[0])
        return 4

    # rule 5: more pairs than any budget-k solution can cover
    if len(st.pairs) > k * k:
        st.outcome = "trivial-no"
        return 5

    # rule 6: a flower exceeding the budget forces its center
    for zv in sorted(st.z):
        if (zv, k + 1) in st.no_flower:
            continue
        if has_flower_of_order(g, sfro, zv, k + 1):
            _delete_vertex(st, zv)
            return 6
        st.no_flower.add((zv, k + 1))

    # rules 7/8: a pair seen by k+2 matched edges, or a matched edge whose
    # every sighting is already recorded
    at = (g.n, g.m, len(st.s), len(st.z), k)
    view = st.kept.view
    if view is None or view.at != at:
        dec = decompose(g, sfro, frozenset(st.z))
        matched = cover_matching(dec)
        view = st.kept.view = _PairView(at, dec, matched,
                                        _m_sees(dec, matched))
    fired = _count_sightings(st, view.m_sightings)
    if fired is not None:
        return 7 + fired

    # rules 9/10 look at uncovered leaves through the blocker-refined pieces
    if view.l_sightings is None:
        view.b = frozenset().union(*(compute_blocker(g, sfro, view.dec, zv, k)
                                     for zv in sorted(st.z)))
        deczb = decompose(g, sfro, frozenset(st.z) | view.b)
        lset = uncovered_leaves(view.dec, view.matched)
        view.l_sightings = _leaf_edges(g, st, view.dec, lset, deczb)
    st.last_blocker = view.b
    st.stats = {
        "z": len(st.z), "b": len(view.b), "m": len(view.matched),
        "l": len(view.l_sightings), "pairs": len(st.pairs), "s": len(st.s),
        "k": st.k, "n": g.n,
    }

    # rules 9/10: the same count over the uncovered leaves' edges, with
    # oriented pairs
    fired = _count_sightings(st, view.l_sightings)
    return None if fired is None else 9 + fired


def finalize(g: Multigraph, s: set[int], pairs: set[frozenset[int]],
             k: int) -> Instance:
    """Realize each recorded pair as an S-edge parallel to a plain edge."""
    out = g.copy()
    s2 = set(s)
    for pr in sorted(pairs, key=sorted):
        x, y = sorted(pr)
        if x == y or not (out.has_vertex(x) and out.has_vertex(y)):
            raise AssertionError("a pair joins two distinct live vertices")
        if not [e for e in out.edges_between(x, y) if not out.is_loop(e)]:
            out.add_edge(x, y)
        s2.add(out.add_edge(x, y))
    return Instance(out, frozenset(s2), k)


def reduce_pairs(pinst: PairInstance, provider: Optional[Provider] = None,
                 max_steps: Optional[int] = None) -> EngineReport:
    pinst.validate()
    check_normalized(pinst)
    if provider is None:
        provider = feasible_z_exact

    g = pinst.graph.copy()
    s = set(pinst.s)
    pairs = {frozenset(p) for p in pinst.pairs}
    k = pinst.k

    fz = provider(g, frozenset(s))
    vs = {v for eid in s for v in g.endpoints(eid)}
    if not fz.z.isdisjoint(vs):
        raise AssertionError("providers must avoid S-edge endpoints")
    if has_s_cycle(g, frozenset(s), set(fz.z)):
        raise AssertionError("provider output must be feasible")

    empty_stats = {"z": len(fz.z), "b": 0, "m": 0, "l": 0,
                   "pairs": len(pairs), "s": len(s), "k": k, "n": g.n}
    if k >= 0 and len(fz.z) <= k and is_solution(pinst, fz.z):
        return EngineReport("trivial-yes", canonical_yes(k), None, fz.z,
                            frozenset(), {}, (), empty_stats)
    if fz.factor is not None and len(fz.z) > fz.factor * max(k, 0):
        return EngineReport("trivial-no", canonical_no(), None, fz.z,
                            frozenset(), {}, (), empty_stats)

    st = _State(g, s, pairs, k, set(fz.z))
    cap = max_steps if max_steps is not None else \
        2 * (g.n + g.m + len(s) + k * k) + 50
    while st.outcome is None:
        st.steps += 1
        if st.steps > cap:
            raise AssertionError("rule loop exceeded its termination bound")
        fired = _apply_once(st)
        if fired is None:
            break
        st.counts[fired] += 1

    blocker = st.last_blocker
    if st.outcome == "trivial-no":
        final = canonical_no()
        fix = None
    else:
        nz, kk = len(st.z), st.k
        stats = st.stats or {}
        m_sz, l_sz, b_sz = stats.get("m", 0), stats.get("l", 0), stats.get("b", 0)
        if len(st.pairs) > kk * kk:
            raise AssertionError("more than k^2 pairs")
        if m_sz > (kk + 1) * nz * nz + kk * nz:
            raise AssertionError("|M| exceeds (k+1)|Z|^2 + k|Z|")
        if b_sz > 2 * kk * nz:
            raise AssertionError("|B| exceeds 2k|Z|")
        if l_sz > (kk + 1) * nz * (b_sz + nz) + kk * nz:
            raise AssertionError("|L| exceeds (k+1)|Z|(|B|+|Z|) + k|Z|")
        if len(st.s) > 2 * m_sz + l_sz:
            raise AssertionError("|S| exceeds 2|M| + |L|")
        fix = PairInstance(st.graph, frozenset(st.s),
                           frozenset(st.pairs), st.k)
        final = finalize(st.graph, st.s, st.pairs, st.k)
        st.outcome = "reduced"

    report_stats = st.stats or empty_stats
    return EngineReport(st.outcome, final, fix, frozenset(st.z), blocker,
                        dict(st.counts), tuple(st.forced), report_stats)
