"""Linear representations of gammoids, and the matroids built from their columns.

A set is independent in the gammoid of a digraph with fixed sources iff it can
be linked to the sources by fully vertex-disjoint paths (a source reaches
itself by a length-0 path). `disjoint_paths` finds such paths: a unit-capacity
flow, by BFS augmenting, on the digraph with every vertex split into an in-node
and an out-node, kept over integer vertex indices as flat arc lists.

The representation goes through the classical dual-of-transversal
construction: build the bipartite link graph (arc (u, w) gives an edge from u
to the copy of w; every non-source also gets an edge to its own copy), fill a
random matrix A over F_p on its support, and take its null space. A's rows are
reduced once, in packed rows, to echelon form with the sources' columns last
(transversal_form). The form serves three ends. The sources are independent
in the gammoid's representation exactly when no pivot falls in a source's
column. The images of the null space's standard basis [-R | I] under
a small random map are back-solved through the echelon rows, which is all the
certificate of the representative-set filter reads (see repsets). Only when
that certificate fails is the null space written out, in a sparser basis from
a second reduction of the same rows (TransversalForm.columns).

Sink copies (vertices with another vertex's in-arcs and no out-arcs) are not
added to the digraph: sink_copies draws each as a random combination of
existing columns, so the elimination runs on the original vertices only, and
the combinations are kept as coefficients until a caller builds them
(add_sink_copies builds every one at full width).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .fieldlinalg import PRIME, IncrementalBasis, combine
from .multigraph import Multigraph


@dataclass
class Digraph:
    """A digraph on hashable labels, indexed once when it is built.

    `index` numbers the vertices in the order of `vertices`, and `succ[i]`
    lists the successors of vertex i by index in increasing order. The split
    graph behind `disjoint_paths` is laid out by `split`, the first time a
    flow needs it. Vertex i becomes the in-node 2i and the out-node 2i + 1.
    Arc e of the split graph ends at head[e] and its reverse is arc e ^ 1: arc
    2i runs from the in-node of i to its out-node, and each arc (u, w) with
    u != w runs from the out-node of u to the in-node of w. `arcs_at[x]` lists
    the arcs leaving node x, ordered by the vertex at their other end.
    """
    vertices: tuple[Hashable, ...]
    arcs: frozenset[tuple[Hashable, Hashable]]

    def __post_init__(self) -> None:
        self.index = {v: i for i, v in enumerate(self.vertices)}
        succ: list[list[int]] = [[] for _ in self.vertices]
        for u, w in self.arcs:
            if u not in self.index or w not in self.index:
                raise ValueError("arc endpoint outside vertex set")
            succ[self.index[u]].append(self.index[w])
        self.succ = [sorted(ws) for ws in succ]

    @cached_property
    def split(self) -> tuple[list[int], list[list[int]]]:
        """The split graph as (head, arcs_at)."""
        n = len(self.vertices)
        pairs = [(2 * v, 2 * v + 1) for v in range(n)]
        pairs += [(2 * u + 1, 2 * w) for u, ws in enumerate(self.succ)
                  for w in ws if w != u]
        head: list[int] = []
        at: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
        for x, y in pairs:
            e = len(head)
            head += (y, x)
            at[x].append((y >> 1, e))
            at[y].append((x >> 1, e + 1))
        return head, [[e for _, e in sorted(es)] for es in at]

    @classmethod
    def build(cls, vertices: Iterable[Hashable],
              arcs: Iterable[tuple[Hashable, Hashable]]) -> "Digraph":
        return cls(tuple(sorted(set(vertices), key=str)), frozenset(arcs))


def disjoint_paths(d: Digraph, sources: Iterable[Hashable],
                   sinks: Iterable[Hashable],
                   cutoff: Optional[int] = None) -> list[list[Hashable]]:
    """Maximum set of fully vertex-disjoint source-to-sink paths in d, or
    `cutoff` many of them.

    Every vertex carries capacity one, so a vertex that is both source and
    sink yields a length-0 path. Each augmenting BFS starts from the unused
    sources in vertex order and stops at the first out-node of an unused
    sink; labels outside d are ignored.
    """
    n = len(d.vertices)
    src = sorted({d.index[v] for v in sources if v in d.index})
    free_src = set(src)
    free_sink = {d.index[t] for t in sinks if t in d.index}
    head, arcs_at = d.split
    cap = [1, 0] * (len(head) // 2)
    ends: set[int] = set()

    while cutoff is None or len(ends) < cutoff:
        via = [-1] * (2 * n)        # the arc that reached each node, -2 at roots
        queue = [2 * s for s in src if s in free_src]
        for x in queue:
            via[x] = -2
        end = -1
        for x in queue:             # the loop visits the nodes appended below
            if x & 1 and (x >> 1) in free_sink:
                end = x
                break
            for e in arcs_at[x]:
                y = head[e]
                if cap[e] and via[y] == -1:
                    via[y] = e
                    queue.append(y)
        if end < 0:
            break
        free_sink.discard(end >> 1)
        ends.add(end >> 1)
        x = end
        while via[x] != -2:
            e = via[x]
            cap[e] -= 1
            cap[e ^ 1] += 1
            x = head[e ^ 1]
        free_src.discard(x >> 1)

    # from each used source, follow the used arc out of each out-node
    paths = []
    for s in src:
        if s in free_src:
            continue
        path = [s]
        while path[-1] not in ends:
            out = 2 * path[-1] + 1
            nxt = [head[e] >> 1 for e in arcs_at[out] if not e & 1 and not cap[e]]
            if not nxt:
                raise AssertionError("flow decomposition lost a path")
            path.append(nxt[0])
        paths.append([d.vertices[v] for v in path])
    return paths


def linked(d: Digraph, sources: Iterable[Hashable], t: Iterable[Hashable]) -> bool:
    """Can t be hit by |t| fully vertex-disjoint paths from the sources?"""
    tset = set(t)
    return len(disjoint_paths(d, sources, tset, cutoff=len(tset))) == len(tset)


@dataclass
class MatroidRep:
    """A linear matroid over F_p: one column per ground-set label, in the
    order the labels were added."""
    columns: dict[Hashable, list[int]]

    def rank_of(self, labels: Iterable[Hashable]) -> int:
        basis = IncrementalBasis()
        return sum(basis.add(self.columns[x]) for x in labels)

    def is_independent(self, labels: Sequence[Hashable]) -> bool:
        labels = list(labels)
        if len(set(labels)) != len(labels):
            return False
        return self.rank_of(labels) == len(labels)


@dataclass
class TransversalForm:
    """A gammoid's random transversal matrix A in packed echelon form.

    `rows` holds A's drawn entries, row by row as (vertex index, value),
    and `degree` the number of entries in each vertex's column. `basis`
    holds A's rows reduced to echelon form with vertex v at column slot[v]:
    the non-sources first, in ascending order of degree, which keeps the
    rows sparse for longer, then the sources, the last `sources` slots.

    A's null space represents the gammoid. images() sketches the columns of
    its standard basis N (see IncrementalBasis.null_images) without
    writing N out. The sources are independent there, by duality, exactly
    when the square block of A at the non-sources is nonsingular; with the
    sources last, that is exactly when every pivot falls in a non-source
    slot (links_sources). Then the free slots are the sources', and N is
    [-R | I] in standard form, one coordinate per source.

    columns() writes the null space out in another basis, the dual of the
    same rows eliminated with every column in ascending order of degree:
    its free columns fall mostly on high-degree vertices, and its columns
    are sparse where N's are full, which the exact filter's cost grows
    with. Both bases represent the same matroid.
    """
    basis: IncrementalBasis
    slot: dict[Hashable, int]
    sources: int
    rows: list[list[tuple[int, int]]]
    degree: list[int]

    @property
    def dim(self) -> int:
        """The length of each column: the number of free slots."""
        return len(self.slot) - len(self.basis)

    @property
    def links_sources(self) -> bool:
        pivots = self.basis.pivots
        return not pivots or pivots[-1] < len(self.slot) - self.sources

    def __contains__(self, label: Hashable) -> bool:
        return label in self.slot

    def __len__(self) -> int:
        return len(self.slot)

    def images(self, free: Sequence[int],
               canonical: Callable[[int], int]) -> dict[Hashable, int]:
        """L N[:, slot[v]] for every vertex v, packed as free[i] = L e_i is,
        the i-th free slot first; sums of up to len(self) products."""
        images = self.basis.null_images(free, canonical)
        return {v: images[q] for v, q in self.slot.items()}

    def columns(self) -> dict[Hashable, list[int]]:
        """The gammoid's column of every vertex, in the order of the
        digraph, read off the rows eliminated in ascending order of
        degree."""
        slot = _slots(sorted(range(len(self.slot)),
                             key=self.degree.__getitem__))
        dual = _eliminated(self.rows, slot).dual_columns()
        return {v: dual[slot[i]] for i, v in enumerate(self.slot)}


def _slots(order: Sequence[int]) -> list[int]:
    """slot[u] = the position of u in order."""
    slot = [0] * len(order)
    for q, u in enumerate(order):
        slot[u] = q
    return slot


def _eliminated(rows: Sequence[Sequence[tuple[int, int]]],
                slot: Sequence[int]) -> IncrementalBasis:
    """The rows, entries (u, x) placed at slot[u], added to a basis."""
    basis = IncrementalBasis(len(slot))
    for entries in rows:
        basis.add_packed(basis.pack_sparse([(slot[u], x) for u, x in entries]))
    return basis


def transversal_form(d: Digraph, sources: Iterable[Hashable],
                     rng: random.Random) -> TransversalForm:
    """The packed echelon form of a random transversal matrix behind d's
    gammoid with these sources; it represents the gammoid with probability
    1 - O(poly/p) over the rng draws.

    The matrix has a row per non-source w, with random nonzero entries at
    w's own column and its in-neighbours' columns, drawn row by row in
    vertex order and, within a row, in column order; if the rows are
    dependent, all of them are drawn again, up to four times.
    """
    sources = set(sources)
    if not sources <= d.index.keys():
        raise ValueError("sources must be vertices of the digraph")
    n = len(d.vertices)
    support = {w: {w} for w, v in enumerate(d.vertices) if v not in sources}
    for u, ws in enumerate(d.succ):
        for w in ws:
            if w in support:
                support[w].add(u)
    cols = [sorted(us) for us in support.values()]
    degree = [0] * n
    for us in cols:
        for u in us:
            degree[u] += 1
    slot = _slots(sorted(range(n), key=lambda u: (u not in support,
                                                  degree[u])))
    for _ in range(4):
        rows = [[(u, rng.randrange(1, PRIME)) for u in us] for us in cols]
        basis = _eliminated(rows, slot)
        if len(basis) == len(rows):
            return TransversalForm(basis, dict(zip(d.vertices, slot)),
                                   n - len(rows), rows, degree)
    raise AssertionError("transversal matrix failed to reach full row rank")


def represent(d: Digraph, sources: Iterable[Hashable],
              ground: Sequence[Hashable], rng: random.Random) -> MatroidRep:
    """Random representation of the gammoid on `ground`: the columns of
    transversal_form(d, sources, rng) written out. Sound with probability
    1 - O(poly/p) over the rng draws."""
    if not set(ground) <= d.index.keys():
        raise ValueError("ground must be vertices of the digraph")
    columns = transversal_form(d, sources, rng).columns()
    return MatroidRep({g: columns[g] for g in ground})


def bidirected(g: Multigraph, skip_edges: Iterable[int] = ()) -> Digraph:
    """Both arcs of every edge of g outside skip_edges; a loop gives one arc."""
    skip = set(skip_edges)
    arcs: set[tuple[Hashable, Hashable]] = set()
    for eid, (u, w) in g.edges.items():
        if eid not in skip:
            arcs.add((u, w))
            arcs.add((w, u))
    return Digraph.build(g.vertices(), arcs)


def sink_copies(d: Digraph,
                rng: random.Random) -> dict[Hashable, list[tuple[Hashable, int]]]:
    """Two sink copies ("c1", v) and ("c2", v) per vertex v of d, each a
    fresh random combination [(u, x_u), ...] of the gammoid columns of v's
    in-neighbours u.

    The combination stands for a sink copy of v, a new vertex with v's
    in-arcs and no out-arcs. A path can end at the copy only through an
    in-neighbour u of v that no other path uses, so X plus the copy is
    linked exactly when X plus some u outside X is: the copy is freely
    placed on the flat spanned by N(v), a principal extension, and a random
    combination of N(v)'s columns represents it with probability
    1 - O(n/p). Only the coefficients are drawn here, so the copies cost no
    column of the elimination behind the gammoid, and a filter that needs
    only their images under a linear map builds them at full width only if
    it must (see repsets). Coefficients are drawn vertex by vertex in d's
    order, ("c1", v) before ("c2", v), in-neighbours in d's order.
    """
    preds: list[list[Hashable]] = [[] for _ in d.vertices]
    for u, ws in enumerate(d.succ):
        for w in ws:
            preds[w].append(d.vertices[u])
    out = {}
    for v, us in zip(d.vertices, preds):
        for tag in ("c1", "c2"):
            out[(tag, v)] = [(u, rng.randrange(1, PRIME)) for u in us]
    return out


def add_sink_copies(rep: MatroidRep, d: Digraph,
                    rng: random.Random) -> MatroidRep:
    """rep, a representation of d's gammoid (ground: all of d's vertices),
    extended by the columns of sink_copies(d, rng) built at full width by
    fieldlinalg.combine, the routine the filter's fallback builds them
    with. The original columns are kept as they are."""
    width = len(next(iter(rep.columns.values()), ()))
    return MatroidRep(rep.columns | combine(rep.columns, sink_copies(d, rng),
                                            width))


def uniform_rep(ground: Sequence[Hashable], k: int) -> MatroidRep:
    """Uniform matroid of rank k as Vandermonde columns; deterministic."""
    return MatroidRep({g: [pow(j + 1, i, PRIME) for i in range(k)]
                       for j, g in enumerate(ground)})
