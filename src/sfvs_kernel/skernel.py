"""Shrinking the graph around a small S: the randomized torso stage.

After normalization the S-edges form an induced matching whose endpoints T
have degree two. First the graph shrinks to its cycle core (cycle_core):
vertices outside T of degree <= 1 lie on no cycle and are pruned, and a
chain of degree-2 vertices outside T becomes one plain edge between its
ends. Every cycle through a chain vertex passes through both ends, so a
solution can trade it for an end, and the torso onto the kept vertices has
the same S-cycles as G - X for every X inside them. The plain neighbour of
a T-vertex is never pruned, and a chain with both ends in T keeps one
vertex, so every T-vertex keeps degree two and a plain neighbour outside T.
Then remove the S-edges from the core, bidirect what is left, and take the
gammoid with sources T on the original vertices, extended by two sink copies
per vertex (random combinations of its in-neighbours' columns, see
gammoid.sink_copies), and a rank-k uniform matroid with one column v-hat per
vertex. A vertex v matters for some solution only if {v', v'', v-hat}
extends to an independent set of the direct sum of the two, so a
representative family of those triples pins down a set W with all of T such
that the torso of the core onto W is an equivalent instance. The gammoid is
held as the echelon form of its transversal matrix, with T's columns last
(gammoid.transversal_form): T must be independent in it, since the sources
always link to themselves, and that holds exactly when no pivot falls in a
column of T, which is checked on every call. The direct sum is never built:
the filter gets the transversal form, each sink copy as its drawn
coefficients, and the uniform columns (see repsets). Its certificate reads
only the images of the gammoid's columns under a small random map,
back-solved through the echelon rows, so the dual is read only for the exact
fallback, which packs each column once and combines the copies from those,
as the certificate combines images. A vertex with at most one in-neighbour
has sink copies that are multiples of one column, so its triple has a zero
wedge, which the filter would drop; it is left out beforehand.
Fails (as in: may keep a wrong subfamily) only with the tiny probability that
a random matrix misrepresents the gammoid. The representative-set filter adds
no failure probability: its random sketch decides only how fast it runs, not
what it keeps (see repsets).
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Collection, Optional

# represent: no caller here, kept because perfbench/layers.py probes
# skernel.represent
from .gammoid import (Digraph, bidirected, represent, sink_copies,
                      transversal_form, uniform_rep)
from .multigraph import Instance, Multigraph, check_normalized, torso
from .repsets import representative_triples


@dataclass
class KernelReport:
    instance: Instance
    w: frozenset[int]
    t: tuple[int, ...]
    kept_triples: int
    shortcut: Optional[str]
    n_input: int              # vertices handed to the stage
    n_core: int               # vertices left by cycle_core, before the gammoid
    # how the filter settled: "certified", "refuted" or "no-sketch" (see
    # repsets.Kept); None on a shortcut
    filter_path: Optional[str] = None


def canonical_yes(k: int) -> Instance:
    return Instance(Multigraph.from_edges([], []), frozenset(), k)


def canonical_no() -> Instance:
    g = Multigraph()
    g.add_vertex(1)
    eid = g.add_edge(1, 1)
    return Instance(g, frozenset([eid]), 0)


def cycle_core(g: Multigraph, t: Collection[int]) -> Multigraph:
    """Torso of g onto its cycle core, for a normalized g with S-endpoints t.

    Repeats to a fixpoint: vertices outside t of degree <= 1 are pruned,
    except the plain neighbour of a t-vertex (t keeps degree 2), and each
    maximal chain of degree-2 vertices outside t becomes one plain edge
    between its ends; a chain with both ends in t keeps its smallest vertex,
    so no two S-endpoints become adjacent.
    """
    ts = set(t)
    while True:
        anchors = ts | {u for p in ts for u in g.neighbors(p)}
        deg = {v: g.degree(v) for v in g.vertices()}
        low = [v for v, d in deg.items() if d <= 1 and v not in anchors]
        gone = set(low)
        while low:
            v = low.pop()
            for eid in g.incident(v):
                a, b = g.endpoints(eid)
                u = b if a == v else a
                if u in gone:
                    continue
                deg[u] -= 1
                if deg[u] <= 1 and u not in anchors:
                    gone.add(u)
                    low.append(u)
        core = {v for v in deg if v not in gone and (deg[v] != 2 or v in ts)}
        for chain in g.components(banned_vertices=core | gone):
            ends = {u for v in chain for u in g.neighbors(v) if u in core}
            if ends and ends <= ts:
                core.add(chain[0])
        if len(core) == g.n:
            return g
        g = torso(g, core)


def _wedge_candidates(d: Digraph) -> list[int]:
    """Vertices of d with at least two in-neighbours, in increasing order:
    the only ones whose triple can have a nonzero wedge. Any other vertex's
    sink copies are multiples of one column, or zero."""
    indegree = Counter(w for ws in d.succ for w in ws)
    return sorted(v for i, v in enumerate(d.vertices) if indegree[i] >= 2)


def kernelize_by_s(inst: Instance, seed: int) -> KernelReport:
    """Equivalent instance on at most C(|T|,2)*k + |T| vertices, |T| = 2|S|."""
    inst.validate()
    check_normalized(inst)
    g, s, k = inst.graph, inst.s, inst.k

    if not s:
        return KernelReport(canonical_yes(k), frozenset(), (), 0, "no S-edges",
                            g.n, g.n)
    if len(s) <= k:
        # one endpoint per S-edge is a solution
        return KernelReport(canonical_yes(k), frozenset(), (), 0, "|S| <= k",
                            g.n, g.n)

    rng = random.Random(seed)
    t = sorted({v for eid in s for v in g.endpoints(eid)})
    if len(t) != 2 * len(s):
        raise AssertionError("S-edges of a normalized instance form a matching")

    g = cycle_core(g, t)
    try:
        check_normalized(Instance(g, s, k))
    except ValueError as exc:
        raise AssertionError(
            f"cycle core broke the normalized shape: {exc}") from exc

    dg = bidirected(g, skip_edges=s)
    form = transversal_form(dg, t, rng)
    copies = sink_copies(dg, rng)
    if not form.links_sources:
        raise AssertionError("sources always link to themselves")
    hats = uniform_rep([("hat", v) for v in sorted(g.vertices())], k)

    triples = [(("c1", v), ("c2", v), ("hat", v))
               for v in _wedge_candidates(dg)]
    kept = representative_triples(hats.columns, len(t), k, triples, copies,
                                  form)

    w = frozenset(t) | frozenset(lab[1] for _, _, lab in kept)
    out = torso(g, w)
    if not s <= set(out.edges):
        raise AssertionError("S-edges live inside W")
    if out.n > comb(len(t), 2) * k + len(t):
        raise AssertionError("kernel exceeds C(|T|,2)*k + |T| vertices")
    return KernelReport(Instance(out, s, k), w, tuple(t), len(kept), None,
                        inst.graph.n, g.n, kept.path)
