"""Linear representations of gammoids and the block matroids built from them.

A set is independent in the gammoid of a digraph with fixed sources iff it can
be linked to the sources by fully vertex-disjoint paths (a source reaches
itself by a length-0 path). The representation goes through the classical
dual-of-transversal construction: build the bipartite link graph (arc (u, w)
gives an edge from u to the copy of w; every non-source also gets an edge to
its own copy), fill a random matrix over F_p on its support, and dualize.
One row reduction of that matrix gives both its full-rank test and the dual.

Sink copies (vertices with another vertex's in-arcs and no out-arcs) are not
added to the digraph: add_sink_copies appends them as random combinations of
existing columns, so the elimination runs on the original vertices only.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .fieldlinalg import PRIME, FieldMatrix, dualize
from .multigraph import Multigraph
from .pathpacking import _unit_flow_paths


@dataclass
class Digraph:
    vertices: tuple[Hashable, ...]
    arcs: frozenset[tuple[Hashable, Hashable]]

    @classmethod
    def build(cls, vertices: Iterable[Hashable],
              arcs: Iterable[tuple[Hashable, Hashable]]) -> "Digraph":
        vs = tuple(sorted(set(vertices), key=str))
        arcset = frozenset(arcs)
        vset = set(vs)
        for u, w in arcset:
            if u not in vset or w not in vset:
                raise ValueError("arc endpoint outside vertex set")
        return cls(vs, arcset)


def linked(d: Digraph, sources: Iterable[Hashable], t: Iterable[Hashable]) -> bool:
    """Can t be hit by |t| fully vertex-disjoint paths from the sources?"""
    tset = set(t)
    out = {v: [] for v in d.vertices}
    for u, w in d.arcs:
        out[u].append(w)
    paths = _unit_flow_paths(list(d.vertices), lambda v: out[v],
                             set(sources), tset, cutoff=len(tset))
    return len(paths) == len(tset)


@dataclass
class MatroidRep:
    """Columns over F_p indexed by ground-set labels."""
    mat: FieldMatrix
    ground: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(self.ground) != self.mat.ncols:
            raise ValueError("one column per ground element")
        self.col_of = {g: i for i, g in enumerate(self.ground)}
        if len(self.col_of) != len(self.ground):
            raise ValueError("duplicate ground labels")

    @property
    def rank(self) -> int:
        return self.mat.rank()

    def column(self, label: Hashable) -> list[int]:
        return self.mat.column(self.col_of[label])

    def rank_of(self, labels: Iterable[Hashable]) -> int:
        return self.mat.rank_of_columns(self.col_of[x] for x in labels)

    def is_independent(self, labels: Sequence[Hashable]) -> bool:
        labels = list(labels)
        if len(set(labels)) != len(labels):
            return False
        return self.rank_of(labels) == len(labels)


def represent(d: Digraph, sources: Iterable[Hashable],
              ground: Sequence[Hashable], rng: random.Random) -> MatroidRep:
    """Random representation of the gammoid on `ground`; sound with probability
    1 - O(poly/p) over the rng draws."""
    sources = set(sources)
    vs = list(d.vertices)
    vset = set(vs)
    if not sources <= vset or not set(ground) <= vset:
        raise ValueError("sources and ground must be vertices of the digraph")
    non_sources = [v for v in vs if v not in sources]
    row_of = {v: i for i, v in enumerate(non_sources)}
    col_of = {v: j for j, v in enumerate(vs)}

    support: set[tuple[int, int]] = set()
    for v in non_sources:
        support.add((row_of[v], col_of[v]))
    for u, w in sorted(d.arcs, key=str):
        if w not in sources:
            support.add((row_of[w], col_of[u]))

    for _ in range(4):
        mat = FieldMatrix.zeros(len(non_sources), len(vs))
        for i, j in sorted(support):
            mat.rows[i][j] = rng.randrange(1, PRIME)
        try:
            dual = dualize(mat)
        except ValueError:      # not of full row rank: draw again
            continue
        return MatroidRep(dual.columns([col_of[g] for g in ground]),
                          tuple(ground))
    raise AssertionError("transversal matrix failed to reach full row rank")


def bidirected(g: Multigraph, skip_edges: Iterable[int] = ()) -> Digraph:
    """Both arcs of every edge of g outside skip_edges; a loop gives one arc."""
    skip = set(skip_edges)
    arcs: set[tuple[Hashable, Hashable]] = set()
    for eid, (u, w) in g.edges.items():
        if eid not in skip:
            arcs.add((u, w))
            arcs.add((w, u))
    return Digraph.build(g.vertices(), arcs)


def add_sink_copies(rep: MatroidRep, d: Digraph,
                    rng: random.Random) -> MatroidRep:
    """Extend a representation of d's gammoid (ground: all of d's vertices) by
    two columns ("c1", v) and ("c2", v) per vertex v, each a fresh random
    combination of the columns of v's in-neighbours.

    The column stands for a sink copy of v, a new vertex with v's in-arcs and
    no out-arcs. A path can end at the copy only through an in-neighbour u of
    v that no other path uses, so X plus the copy is linked exactly when X
    plus some u outside X is: the copy is freely placed on the flat spanned
    by N(v), a principal extension, and a random combination of N(v)'s
    columns represents it with probability 1 - O(n/p). The original columns
    are kept as they are, so the elimination behind rep stays on |V(d)|
    columns.
    """
    preds: dict[Hashable, list[int]] = {v: [] for v in d.vertices}
    for u, w in d.arcs:
        preds[w].append(rep.col_of[u])
    combos = []
    ground = list(rep.ground)
    for v in d.vertices:
        js = sorted(preds[v])
        for tag in ("c1", "c2"):
            combos.append([(j, rng.randrange(1, PRIME)) for j in js])
            ground.append((tag, v))
    rows = [row + [sum(row[j] * x for j, x in combo) % PRIME for combo in combos]
            for row in rep.mat.rows]
    return MatroidRep(FieldMatrix(rows, len(ground)), tuple(ground))


def direct_sum(a: MatroidRep, b: MatroidRep) -> MatroidRep:
    """Block-diagonal sum; grounds must be disjoint."""
    if set(a.ground) & set(b.ground):
        raise ValueError("grounds overlap")
    ra, rb = a.mat.nrows, b.mat.nrows
    ca, cb = a.mat.ncols, b.mat.ncols
    rows = [list(r) + [0] * cb for r in a.mat.rows]
    rows += [[0] * ca + list(r) for r in b.mat.rows]
    return MatroidRep(FieldMatrix(rows, ca + cb), a.ground + b.ground)


def uniform_rep(ground: Sequence[Hashable], k: int) -> MatroidRep:
    """Uniform matroid of rank k as a Vandermonde matrix; deterministic."""
    n = len(ground)
    rows = [[pow(j + 1, i, PRIME) for j in range(n)] for i in range(k)]
    return MatroidRep(FieldMatrix(rows, n), tuple(ground))
