"""Shared builders and exhaustive reference oracles for the test suite."""
import itertools
import random
from typing import Optional

import networkx as nx

from sfvs_kernel import repsets, skernel
from sfvs_kernel.fieldlinalg import PRIME, IncrementalBasis
from sfvs_kernel.gammoid import MatroidRep, add_sink_copies
from sfvs_kernel.generators import gnm
from sfvs_kernel.multigraph import (Instance, Multigraph, PairInstance, is_solution,
                                     normalize)


def random_multigraph(rng, n_lo=2, n_hi=10, m_hi=None, allow_loops=True):
    n = rng.randint(n_lo, n_hi)
    g = Multigraph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    m = rng.randint(1, m_hi if m_hi is not None else 2 * n)
    eids = []
    for _ in range(m):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if not allow_loops and u == v:
            continue
        eids.append(g.add_edge(u, v))
    return g, eids


def random_instance(rng, n_lo=2, n_hi=10, s_hi=4, k_hi=3, with_pairs=False):
    g, eids = random_multigraph(rng, n_lo, n_hi)
    s = frozenset(rng.sample(eids, min(len(eids), rng.randint(0, s_hi))))
    k = rng.randint(0, k_hi)
    pairs = frozenset()
    if with_pairs and g.n >= 2 and rng.random() < 0.5:
        vs = g.vertices()
        got = set()
        for _ in range(rng.randint(1, 2)):
            x, y = rng.sample(vs, 2)
            got.add(frozenset((x, y)))
        pairs = frozenset(got)
    return PairInstance(g, s, pairs, k)


def brute_solve(pinst: PairInstance) -> Optional[frozenset]:
    """Smallest solution by exhaustive subset search, None if none fits."""
    vs = pinst.graph.vertices()
    for size in range(min(pinst.k, len(vs)) + 1):
        for combo in itertools.combinations(vs, size):
            x = frozenset(combo)
            if is_solution(pinst, x):
                return x
    return None


def all_apaths(g: Multigraph, a):
    """Every simple path with both ends in a and interior outside it.

    Each path is reported once (smaller endpoint first)."""
    aset = set(a)
    out = []

    def extend(path):
        v = path[-1]
        for eid in g.incident(v):
            x, y = g.endpoints(eid)
            w = y if x == v else x
            if w in path:
                continue
            if w in aset:
                if len(path) >= 1 and path[0] <= w:
                    out.append(path + [w])
            else:
                extend(path + [w])

    for v in sorted(aset):
        extend([v])
    # a single edge between two a-vertices yields one report already; dedup
    # multi-edge duplicates by vertex sequence
    seen = set()
    uniq = []
    for p in out:
        key = tuple(p)
        if key not in seen:
            seen.add(key)
            uniq.append(p)
    return uniq


def brute_nu(g: Multigraph, a) -> int:
    """Maximum number of fully vertex-disjoint A-paths, exhaustively."""
    paths = [set(p) for p in all_apaths(g, a)]
    best = 0

    def pack(idx, used, count):
        nonlocal best
        best = max(best, count)
        if count + (len(paths) - idx) <= best:
            return
        for i in range(idx, len(paths)):
            if not (paths[i] & used):
                pack(i + 1, used | paths[i], count + 1)

    pack(0, set(), 0)
    return best


def gallai_edmonds_d(adj) -> list[bool]:
    """x is in D iff nu(G - x) = nu(G): one maximum matching per node."""
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((x, y) for x, nbrs in enumerate(adj) for y in nbrs)
    nu = len(nx.max_weight_matching(g, maxcardinality=True))
    d = []
    for x in range(len(adj)):
        h = g.copy()
        h.remove_node(x)
        d.append(len(nx.max_weight_matching(h, maxcardinality=True)) == nu)
    return d


def as_pair_free(inst: Instance) -> PairInstance:
    return PairInstance(inst.graph, inst.s, frozenset(), inst.k)


def random_block_matroid(rng, d1_hi=5, d2_hi=2, ground_hi=10):
    """Two full-row-rank random blocks plus candidate triples.

    Returns label -> column with the first block's labels ("g", i), of
    length d1, and the second's ("h", j), of length d2; then d1, d2 and the
    triples."""
    from sfvs_kernel.fieldlinalg import PRIME, FieldMatrix

    def full_rank(d, n):
        while True:
            m = FieldMatrix([[rng.randrange(PRIME) for _ in range(n)]
                             for _ in range(d)], n)
            if m.rank() == d:
                return m

    while True:
        d1, d2 = rng.randint(1, d1_hi), rng.randint(1, d2_hi)
        n1 = rng.randint(max(d1, 2), ground_hi - d2)
        n2 = rng.randint(d2, min(3, ground_hi - n1))
        if n1 + n2 <= ground_hi:
            break
    g1 = tuple(("g", i) for i in range(n1))
    g2 = tuple(("h", j) for j in range(n2))
    m1, m2 = full_rank(d1, n1), full_rank(d2, n2)
    columns = {lab: m1.column(i) for i, lab in enumerate(g1)}
    columns |= {lab: m2.column(j) for j, lab in enumerate(g2)}
    pairs = list(itertools.combinations(g1, 2))
    triples = [(a, b, c) for (a, b) in pairs for c in g2]
    rng.shuffle(triples)
    triples = triples[:rng.randint(1, min(8, len(triples)))]
    return columns, d1, d2, triples


def direct_sum(columns, d1, d2):
    """The two blocks of random_block_matroid as one matroid: first-block
    columns padded with d2 zeros below, second-block ones with d1 above."""
    from sfvs_kernel.gammoid import MatroidRep

    return MatroidRep({lab: col + [0] * d2 if lab[0] == "g" else [0] * d1 + col
                       for lab, col in columns.items()})


def check_representative(columns, d1, d2, triples, kept):
    """Exhaustively confirm kept is (d1+d2-3)-representative for triples in
    the direct sum of the two blocks.

    Returns the number of (B, triple) demands checked."""
    m = direct_sum(columns, d1, d2)
    q = d1 + d2 - 3
    ground = tuple(m.columns)
    checked = 0
    for size in range(0, max(q, -1) + 1):
        for b in itertools.combinations(ground, size):
            if m.rank_of(b) != size:
                continue
            for t in triples:
                if m.rank_of(set(b) | set(t)) != size + 3:
                    continue
                checked += 1
                assert any(m.rank_of(set(b) | set(t2)) == size + 3
                           for t2 in kept), (b, t)
    return checked


def matroid_wide(n):
    """The benchmark's matroid-wide inputs: normalized gnm(n, 3n/2, n/6 + 2)."""
    return normalize(gnm(n, 3 * n // 2, n // 6 + 2, 3, 11)).instance


def wide_core(n=10):
    """Two S-edges hanging off a Moebius ladder on n vertices, at k = 1:
    every ladder vertex has degree >= 3, so the cycle core keeps them all
    and more than C(4,2) * 1 = 6 of them have a nonzero wedge."""
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(i, i + n // 2) for i in range(1, n // 2 + 1)]
    g = Multigraph.from_edges(range(1, n + 1), edges)
    s = []
    for a, b, p in ((1, 4, n + 1), (6, 8, n + 3)):
        g.add_edge(a, p)
        s.append(g.add_edge(p, p + 1))
        g.add_edge(p + 1, b)
    return Instance(g, frozenset(s), 1)


def petal_hub(petals, k=1):
    """A K4 on 0, 1, 2 and 3, an S-edge hanging between 0 and 1 and one
    between 2 and 3, and `petals` vertices each joined to the hub 0 by three
    parallel edges. The petals and the S-endpoints have one in-neighbour
    each once the S-edges are skipped, so only 0, 1, 2 and 3 are wedge
    candidates, and 0 has petals + 4 in-neighbours."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(0, v) for v in range(8, 8 + petals) for _ in range(3)]
    g = Multigraph.from_edges(range(8 + petals), edges)
    s = []
    for a, p, b in ((0, 4, 1), (2, 6, 3)):
        g.add_edge(a, p)
        s.append(g.add_edge(p, p + 1))
        g.add_edge(p + 1, b)
    return Instance(g, frozenset(s), k)


def broken_core(g, t):
    """A stand-in for skernel.cycle_core whose smallest S-endpoint lost its
    plain edge."""
    g = g.copy()
    p = min(t)
    g.remove_edge(next(e for e in g.incident(p)
                       if set(g.endpoints(e)) - set(t)))
    return g


def hub_instance(rng, z=0):
    """A center z joined to most of 5-8 vertices, with S-loops, parallel
    S-edges and plain loops at z and S-edges among the rest."""
    n = rng.randint(5, 8)
    g = Multigraph()
    for v in range(n + 1):
        g.add_vertex(v)
    s = set()
    for v in range(1, n + 1):
        if rng.random() < 0.8:
            g.add_edge(z, v)
        if rng.random() < 0.3:
            s.add(g.add_edge(z, v))
    for _ in range(rng.randint(0, 2)):
        s.add(g.add_edge(z, z))
    for _ in range(rng.randint(0, 2)):
        g.add_edge(z, z)
    for _ in range(rng.randint(n // 2, n + 2)):
        u, v = rng.sample(range(1, n + 1), 2)
        e = g.add_edge(u, v)
        if rng.random() < 0.4:
            s.add(e)
    return g, frozenset(s)


def dualize(m):
    """Representation of the dual matroid of a full-row-rank FieldMatrix,
    columns kept in their original order: m brought to [I | B] by row
    reduction (up to the column permutation of its pivots), and [-B^T | I]
    returned with the permutation undone."""
    from sfvs_kernel.fieldlinalg import PRIME, FieldMatrix

    red, pivots = m.rref()
    if len(pivots) != m.nrows:
        raise ValueError("matrix must have full row rank")
    pivot_set = set(pivots)
    non_pivots = [j for j in range(m.ncols) if j not in pivot_set]
    out = FieldMatrix.zeros(len(non_pivots), m.ncols)
    for i, q in enumerate(non_pivots):
        out.rows[i][q] = 1
        for j, p in enumerate(pivots):
            out.rows[i][p] = (-red.rows[j][q]) % PRIME
    return out


def wedge3_coordinates(a, b, c):
    """Coordinates of a ^ b ^ c, one by one: a and b of length d1 in the
    first space, c of length d2 in the second. Pairs {i < j} of first-space
    coordinates lexicographically, coordinate l of c innermost; length
    C(d1, 2) * d2. The reference for IncrementalBasis.wedge."""
    from sfvs_kernel.fieldlinalg import PRIME

    if len(a) != len(b):
        raise ValueError("a and b must have the same length")
    out = []
    for i in range(len(a)):
        ai = a[i] % PRIME
        bi = b[i] % PRIME
        for j in range(i + 1, len(a)):
            minor = (ai * b[j] - a[j] * bi) % PRIME
            out += [minor * x % PRIME for x in c]
    return out


def transversal_rows(d, sources, rng):
    """gammoid.transversal_form's matrix as first written: a row per
    non-source and a column per vertex, random nonzero entries at the row's
    own column and its in-neighbours' columns, drawn in sorted (row, column)
    order."""
    non_sources = [i for i, v in enumerate(d.vertices) if v not in sources]
    row_of = {v: r for r, v in enumerate(non_sources)}
    support = {(r, v) for r, v in enumerate(non_sources)}
    support |= {(row_of[w], u) for u, ws in enumerate(d.succ)
                for w in ws if w in row_of}
    rows = [[0] * len(d.vertices) for _ in non_sources]
    for i, j in sorted(support):
        rows[i][j] = rng.randrange(1, PRIME)
    return rows


def unstride(basis, v, r, d2):
    """The r coordinates of v packed at stride d2."""
    w = basis.width
    buf = v.to_bytes(w * r * d2, "big")
    return [int.from_bytes(buf[(i + 1) * d2 * w - w:(i + 1) * d2 * w], "big")
            for i in range(r)]


class Scripted(random.Random):
    """An rng whose randrange returns `values` in turn, then 1."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def randrange(self, *args):
        return next(self.values, 1)


def singular_block():
    """Two S-edges 3-4 and 5-6 whose plain ends meet at 1 and 2, and a
    plain edge 1-2, at k = 1, with the scripted draws that make the
    non-source block [[1, 1], [1, 1]] of its transversal matrix singular
    while the matrix keeps full row rank: rows 1 and 2 get entries at
    columns (1, 2, 3, 5) and (1, 2, 4, 6)."""
    g = Multigraph.from_edges([], [(1, 3), (1, 5), (2, 4), (2, 6), (1, 2)])
    s = frozenset([g.add_edge(3, 4), g.add_edge(5, 6)])
    return Instance(g, s, 1), [1, 1, 2, 3, 1, 1, 4, 5]


def standard_columns(form):
    """The columns of the standard basis N of a TransversalForm's null
    space, the vectors its images() sketches, by vertex."""
    dual = form.basis.dual_columns()
    return {v: dual[q] for v, q in form.slot.items()}


# -- the matroid stage's filter, spied on ---------------------------------------


def stage_filter_calls(monkeypatch, inst, seed):
    """kernelize_by_s(inst, seed) with its filter spied on: the filter's
    arguments and kept list, and its gammoid columns, read in full off the
    filter's transversal form, with the sink copies built at full width by
    add_sink_copies from the same draws."""
    seen = {}
    draw, filt = skernel.sink_copies, skernel.representative_triples

    def drawn(dg, rng):
        seen["dg"], seen["state"] = dg, rng.getstate()
        return draw(dg, rng)

    def filtered(*args):
        seen["args"], seen["kept"] = args, filt(*args)
        return seen["kept"]

    with monkeypatch.context() as mp:
        mp.setattr(skernel, "sink_copies", drawn)
        mp.setattr(skernel, "representative_triples", filtered)
        report = skernel.kernelize_by_s(inst, seed)
    assert report.shortcut is None
    assert report.kept_triples == len(seen["kept"])
    assert report.filter_path == seen["kept"].path
    form, dg = seen["args"][5], seen["dg"]
    rng = random.Random()
    rng.setstate(seen["state"])
    full = add_sink_copies(MatroidRep(form.columns()), dg, rng)
    return seen["args"], seen["kept"], full.columns, dg


def exact_filter(columns, d1, d2, triples):
    """The streaming filter with no certificate: every wedge written out and
    reduced against the basis of the wedges kept before it. The reference
    for the filter on vectors all given at full width."""
    basis = IncrementalBasis()
    kept = []
    for a, b, c in triples:
        if [len(columns[x]) for x in (a, b, c)] != [d1, d1, d2]:
            raise ValueError("vector lengths must match the two block dimensions")
        vec = wedge3_coordinates(columns[a], columns[b], columns[c])
        if any(vec) and basis.add(vec):
            kept.append((a, b, c))
    return kept


def exact_pass_wedges(monkeypatch):
    """Spy on the filter's exact pass: a list that gets one list per call of
    repsets._exact, holding (basis, a, b, wedge) for each wedge the call
    writes, with a and b the packed first-block images."""
    calls, active = [], []
    exact, wedge = repsets._exact, IncrementalBasis.wedge

    def spied_exact(*args):
        calls.append([])
        active.append(True)
        try:
            return exact(*args)
        finally:
            active.pop()

    def spied_wedge(self, a, b, c):
        w = wedge(self, a, b, c)
        if active:
            calls[-1].append((self, a, b, w))
        return w

    monkeypatch.setattr(repsets, "_exact", spied_exact)
    monkeypatch.setattr(IncrementalBasis, "wedge", spied_wedge)
    return calls
