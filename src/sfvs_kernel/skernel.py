"""Shrinking the graph around a small S: the randomized torso stage.

After normalization the S-edges form an induced matching whose endpoints T
have degree two. Remove the S-edges, bidirect what is left, and take the
gammoid with sources T on the original vertices, extended by two sink copies
per vertex (columns drawn from the span of its neighbours, see
gammoid.add_sink_copies) and summed with a rank-k uniform matroid.
A vertex v matters for some solution only if {v', v'', v-hat} extends to an
independent set, so a representative family of those triples pins down a set
W with all of T such that the torso of G onto W is an equivalent instance.
Fails (as in: may keep a wrong subfamily) only with the tiny probability that
a random matrix misrepresents the gammoid. The representative-set filter adds
no failure probability: its random sketch decides only how fast it runs, not
what it keeps (see repsets).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Optional

from .gammoid import (add_sink_copies, bidirected, direct_sum, represent,
                      uniform_rep)
from .multigraph import Instance, Multigraph, torso
from .repsets import representative_triples


@dataclass
class KernelReport:
    instance: Instance
    w: frozenset[int]
    t: tuple[int, ...]
    kept_triples: int
    shortcut: Optional[str]


def canonical_yes(k: int) -> Instance:
    return Instance(Multigraph.from_edges([], []), frozenset(), k)


def canonical_no() -> Instance:
    g = Multigraph()
    g.add_vertex(1)
    eid = g.add_edge(1, 1)
    return Instance(g, frozenset([eid]), 0)


def check_normalized(inst: Instance) -> None:
    g, s = inst.graph, inst.s
    for eid in s:
        u, v = g.endpoints(eid)
        if u == v:
            raise ValueError("normalized instances have no S-loops")
        for p in (u, v):
            if g.degree(p) != 2:
                raise ValueError("S-edge endpoints must have degree 2")
            if sum(1 for e in g.incident(p) if e in s) != 1:
                raise ValueError("S-edges must form an induced matching")


def kernelize_by_s(inst: Instance, seed: int) -> KernelReport:
    """Equivalent instance on at most C(|T|,2)*k + |T| vertices, |T| = 2|S|."""
    inst.validate()
    check_normalized(inst)
    g, s, k = inst.graph, inst.s, inst.k

    if not s:
        return KernelReport(canonical_yes(k), frozenset(), (), 0, "no S-edges")
    if len(s) <= k:
        # one endpoint per S-edge is a solution
        return KernelReport(canonical_yes(k), frozenset(), (), 0, "|S| <= k")

    rng = random.Random(seed)
    t = sorted({v for eid in s for v in g.endpoints(eid)})
    if len(t) != 2 * len(s):
        raise AssertionError("S-edges of a normalized instance form a matching")

    dg = bidirected(g, skip_edges=s)
    m1 = add_sink_copies(represent(dg, t, dg.vertices, rng), dg, rng)
    if m1.rank_of(t) != len(t):
        raise AssertionError("sources always link to themselves")
    m2 = uniform_rep([("hat", v) for v in sorted(g.vertices())], k)
    m = direct_sum(m1, m2)

    triples = [(("c1", v), ("c2", v), ("hat", v)) for v in sorted(g.vertices())]
    kept = representative_triples(m, len(t), k, triples)

    w = frozenset(t) | frozenset(lab[1] for _, _, lab in kept)
    out = torso(g, w)
    if not s <= set(out.edges):
        raise AssertionError("S-edges live inside W")
    if out.n > comb(len(t), 2) * k + len(t):
        raise AssertionError("kernel exceeds C(|T|,2)*k + |T| vertices")
    return KernelReport(Instance(out, s, k), w, tuple(t), len(kept), None)
