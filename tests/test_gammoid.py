"""Gammoid representations against the flow oracle, plus sink copies and the
uniform matroid."""
import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from networkx.algorithms.connectivity import local_node_connectivity

from helpers import (Scripted, random_multigraph, singular_block,
                     standard_columns, transversal_rows, unstride)
from sfvs_kernel import repsets
from sfvs_kernel.gammoid import (Digraph, add_sink_copies, bidirected,
                                 disjoint_paths, linked, represent,
                                 transversal_form, uniform_rep)
from sfvs_kernel.fieldlinalg import PRIME, FieldMatrix, IncrementalBasis
from sfvs_kernel.multigraph import Multigraph


def random_digraph(rng, n_hi=8):
    n = rng.randint(1, n_hi)
    vs = list(range(n))
    arcs = set()
    for _ in range(rng.randint(0, 3 * n)):
        u, w = rng.randrange(n), rng.randrange(n)
        if u != w:
            arcs.add((u, w))
    return Digraph.build(vs, arcs)


def test_digraph_build_rejects_stray_arcs():
    with pytest.raises(ValueError):
        Digraph.build([1, 2], [(1, 3)])


def test_linked_hand_case():
    d = Digraph.build([1, 2, 3, 4], [(1, 3), (2, 4), (3, 4)])
    assert linked(d, [1, 2], [3, 4])
    assert linked(d, [1], [4])       # 1 -> 3 -> 4
    assert not linked(d, [1], [3, 4])  # one source, two targets
    assert linked(d, [1], [1])       # a source reaches itself


def test_disjoint_paths_match_networkx_node_connectivity():
    """Path count against networkx's node connectivity between a super
    source and a super sink; every packing is checked path by path."""
    rng = random.Random(23)
    overlaps = loops = cut = 0
    for trial in range(300):
        n = rng.randint(1, 12)
        arcs = {(rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 3 * n))}
        d = Digraph.build(range(n), arcs)
        loops += any(u == w for u, w in arcs)
        for _ in range(4):
            sources = set(rng.sample(range(n), rng.randint(0, n)))
            sinks = set(rng.sample(range(n), rng.randint(0, n)))
            cutoff = rng.choice([None, rng.randint(0, n)])
            overlaps += bool(sources & sinks)
            g = nx.DiGraph(list(arcs))
            g.add_nodes_from([*range(n), "S", "T"])
            g.add_edges_from(("S", v) for v in sources)
            g.add_edges_from((v, "T") for v in sinks)
            want = local_node_connectivity(g, "S", "T")
            if cutoff is not None and cutoff < want:
                want = cutoff
                cut += 1
            paths = disjoint_paths(d, sources, sinks, cutoff)
            assert len(paths) == want, (trial, sources, sinks, cutoff)
            used = set()
            for p in paths:
                assert p[0] in sources and p[-1] in sinks, (trial, p)
                assert all(a in arcs for a in zip(p, p[1:])), (trial, p)
                assert len(set(p)) == len(p) and not used & set(p), (trial, p)
                used |= set(p)
    assert overlaps > 100 and loops > 100 and cut > 50, (overlaps, loops, cut)


def test_disjoint_paths_ignores_labels_outside_the_digraph():
    d = Digraph.build(["a", "b"], [("a", "b")])
    assert disjoint_paths(d, ["a", "x"], ["b", "y"]) == [["a", "b"]]
    assert not linked(d, ["a"], ["b", "y"])
    assert linked(d, ["x"], [])


def test_rank_agrees_with_linkage():
    rng = random.Random(11)
    for _ in range(40):
        d = random_digraph(rng, n_hi=7)
        vs = list(d.vertices)
        sources = rng.sample(vs, rng.randint(0, min(3, len(vs))))
        rep = represent(d, sources, vs, rng)
        # the dual construction has one row per source
        assert all(len(col) == len(set(sources))
                   for col in rep.columns.values())
        for size in range(0, 4):
            for t in itertools.combinations(vs, size):
                want = linked(d, sources, t)
                assert rep.is_independent(t) == want, (sources, t)


def test_is_independent_rejects_duplicates():
    d = Digraph.build([1, 2, 3], [(1, 3), (2, 3)])
    rep = represent(d, [1, 2], [1, 2, 3], random.Random(0))
    assert rep.is_independent([1, 2])
    assert not rep.is_independent([2, 2])


def sink_copy_digraph(g, skip_edges=()):
    """The gammoid digraph with explicit sink copies: vertex v becomes
    ("v", v) with copies ("c1", v) and ("c2", v); every edge {u, w} outside
    skip_edges yields both arcs between the originals plus arcs from each
    endpoint into the other's copies. Copies have no out-arcs."""
    skip = set(skip_edges)
    vertices = []
    for v in g.vertices():
        vertices += [("v", v), ("c1", v), ("c2", v)]
    arcs = set()
    for eid in sorted(g.edges):
        if eid in skip:
            continue
        u, w = g.edges[eid]
        for a, b in ((u, w), (w, u)):
            arcs.add((("v", a), ("v", b)))
            arcs.add((("v", a), ("c1", b)))
            arcs.add((("v", a), ("c2", b)))
    return Digraph.build(vertices, arcs)


def copies_rep(g, sources, skip_edges, rng):
    d = bidirected(g, skip_edges)
    return add_sink_copies(represent(d, sources, d.vertices, rng), d, rng)


def test_sink_copy_columns_structure():
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    e12 = g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 3)
    d = bidirected(g)
    assert d.vertices == (1, 2, 3)
    assert d.arcs == {(1, 2), (2, 1), (2, 3), (3, 2), (3, 3)}
    # skipping the 1-2 edge removes exactly its arcs
    d2 = bidirected(g, skip_edges=[e12])
    assert d2.arcs == {(2, 3), (3, 2), (3, 3)}

    rng = random.Random(0)
    base = represent(d2, [1, 2], d2.vertices, rng)
    rep = add_sink_copies(base, d2, rng)
    assert tuple(rep.columns) == (1, 2, 3, ("c1", 1), ("c2", 1), ("c1", 2),
                                  ("c2", 2), ("c1", 3), ("c2", 3))
    # the gammoid's own columns are kept as they are
    assert all(len(col) == 2 for col in rep.columns.values())
    for v in (1, 2, 3):
        assert rep.columns[v] == base.columns[v]
    # 1 has no in-arcs left, so nothing can end at its copies
    assert rep.columns["c1", 1] == [0, 0] == rep.columns["c2", 1]
    # 2's only in-neighbour is 3, so its copies are parallel to 3
    assert rep.rank_of([3, ("c1", 2), ("c2", 2)]) == 1
    assert rep.rank_of([1, ("c1", 2)]) == 2
    # 3's copies are fed by 2 and, through the loop, by 3 itself; every
    # path into them starts at source 2
    assert rep.rank_of([2, 3, ("c1", 3), ("c2", 3)]) == 1
    assert rep.is_independent([("c1", 3)])


def test_sink_copies_let_two_paths_end_at_one_vertex():
    g = Multigraph.from_edges([1, 2, 3], [(1, 2), (3, 2)])
    d = sink_copy_digraph(g)
    src = [("v", 1), ("v", 3)]
    assert linked(d, src, [("c1", 2), ("c2", 2)])
    assert not linked(d, [("v", 1)], [("c1", 2), ("c2", 2)])
    rng = random.Random(3)
    assert copies_rep(g, [1, 3], (), rng).is_independent([("c1", 2), ("c2", 2)])
    assert not copies_rep(g, [1], (), rng).is_independent([("c1", 2), ("c2", 2)])


def test_sink_copy_columns_agree_with_flow_oracle():
    """The n-column representation with copies against `linked` on the
    digraph with explicit copies, on every subset of size <= 3."""
    rng = random.Random(23)
    compared = 0
    for trial in range(8):
        g, eids = random_multigraph(rng, n_lo=3 if trial % 4 else 10,
                                    n_hi=8 if trial % 4 else 12)
        skip = rng.sample(eids, rng.randint(0, min(4, len(eids))))
        vs = g.vertices()
        sources = rng.sample(vs, rng.randint(1, min(4, len(vs))))
        rep = copies_rep(g, sources, skip, rng)
        d = sink_copy_digraph(g, skip)
        as_vertex = {v: ("v", v) for v in vs}
        src = [as_vertex[v] for v in sources]
        for size in range(4):
            for x in itertools.combinations(rep.columns, size):
                t = [as_vertex.get(lab, lab) for lab in x]
                assert rep.is_independent(x) == linked(d, src, t), \
                    (trial, sources, x)
                compared += 1
    assert compared > 10000, compared


def row_wise_sink_copies(rep, d, rng):
    """add_sink_copies on the matrix's rows, as it was first written: each
    row gains one entry per copy, a combination of that row's entries at the
    in-neighbours. A reference for the column-wise one's draw order and
    values; returns label -> column."""
    ground = list(rep.columns)
    col_of = {g: j for j, g in enumerate(ground)}
    rows = [list(r) for r in zip(*rep.columns.values())]
    preds = {v: [] for v in d.vertices}
    for u, w in d.arcs:
        preds[w].append(col_of[u])
    combos = []
    for v in d.vertices:
        js = sorted(preds[v])
        for tag in ("c1", "c2"):
            combos.append([(j, rng.randrange(1, PRIME)) for j in js])
            ground.append((tag, v))
    rows = [row + [sum(row[j] * x for j, x in combo) % PRIME
                   for combo in combos] for row in rows]
    return {lab: [row[j] for row in rows] for j, lab in enumerate(ground)}


def test_sink_copy_columns_match_the_row_wise_construction():
    """Same columns, same labels in the same order, and the same draws, so
    the output of the matroid stage cannot move with the layout."""
    rng = random.Random(41)
    seen = {"loop": 0, "isolated": 0}
    for _ in range(80):
        g, eids = random_multigraph(rng, n_lo=1, n_hi=12)
        g.add_vertex(g.n + 1)
        skip = rng.sample(eids, rng.randint(0, min(3, len(eids))))
        d = bidirected(g, skip)
        seen["loop"] += any(u == w for u, w in d.arcs)
        seen["isolated"] += any(not ws for ws in d.succ)
        vs = list(d.vertices)
        sources = rng.sample(vs, rng.randint(1, min(4, len(vs))))
        base = represent(d, sources, d.vertices, rng)
        before = {lab: list(col) for lab, col in base.columns.items()}
        state = rng.getstate()
        want = row_wise_sink_copies(base, d, rng)
        drawn = rng.getstate()
        rng.setstate(state)
        got = add_sink_copies(base, d, rng)
        assert rng.getstate() == drawn
        assert list(got.columns) == list(want)
        assert got.columns == want
        assert base.columns == before
    assert seen["loop"] > 10 and seen["isolated"] == 80


def test_uniform_rep_rank_profile():
    m = uniform_rep(tuple(f"e{i}" for i in range(5)), 2)
    assert m.rank_of(m.columns) == 2
    for pair in itertools.combinations(m.columns, 2):
        assert m.rank_of(pair) == 2
    for triple in itertools.combinations(m.columns, 3):
        assert m.rank_of(triple) == 2
    assert m.rank_of(["e0"]) == 1


# -- the transversal form: the sources' pivot test and the null images --------


class Coarse(random.Random):
    """An rng whose randrange draws from {1, ..., top} only, so the
    non-source block of a transversal matrix is now and then singular."""

    def __init__(self, seed, top):
        super().__init__(seed)
        self.top = top

    def randrange(self, *args):
        return super().randrange(1, self.top + 1)


def test_pivot_test_agrees_with_the_rank_of_the_sources():
    """No pivot in a source slot exactly when the sources are independent
    in the representation read off the same draws."""
    rng = random.Random(51)
    seen = Counter()
    for _ in range(1200):
        # a bidirected edge between two non-sources is a 2 x 2 block of ones
        d = random_digraph(rng) if rng.random() < 0.5 else \
            bidirected(random_multigraph(rng, n_hi=8)[0])
        sources = rng.sample(d.vertices, rng.randint(0, len(d.vertices)))
        seed, top = rng.randrange(1 << 30), rng.choice((1, 1, 1, 3, PRIME))
        draws = Coarse(seed, top) if top < PRIME else random.Random(seed)
        state = draws.getstate()
        try:
            form = transversal_form(d, sources, draws)
        except AssertionError:      # four rank-deficient draws in a row
            seen["deficient"] += 1
            continue
        draws.setstate(state)
        rep = represent(d, sources, d.vertices, draws)
        independent = rep.rank_of(sources) == len(sources)
        assert form.links_sources == independent, (d, sources)
        assert form.dim == len(sources)
        seen[independent] += 1
    assert seen[True] > 500 and seen[False] > 30, seen


def test_singular_source_block_fails_the_pivot_test():
    inst, values = singular_block()
    d = bidirected(inst.graph, skip_edges=inst.s)
    t = [3, 4, 5, 6]
    form = transversal_form(d, t, Scripted(values))
    assert len(form.basis) == 2 and not form.links_sources
    assert represent(d, t, d.vertices, Scripted(values)).rank_of(t) < 4
    assert transversal_form(d, t, random.Random(0)).links_sources


def test_null_images_are_sketches_of_the_dual():
    """Each back-solved vector is in the null space of the transversal
    matrix drawn from the same rng state, and the image of every vertex is
    U times its column of the standard basis N read off the same echelon
    rows, for U drawn as the filter's certificate draws it. represent's
    dual, read off the same draws in another column order, spans the same
    space as N."""
    rng = random.Random(52)
    solved = 0
    for _ in range(150):
        d = random_digraph(rng, n_hi=10)
        sources = rng.sample(d.vertices, rng.randint(0, len(d.vertices)))
        state = rng.getstate()
        form = transversal_form(d, sources, rng)
        rng.setstate(state)
        a = transversal_rows(d, set(sources), rng)
        rng.setstate(state)
        dual = represent(d, sources, d.vertices, rng).columns
        n_cols = standard_columns(form)
        r, d2 = rng.randint(1, 5), rng.randint(1, 3)
        basis = IncrementalBasis.of_wedges(r, d2, terms=len(form) + form.dim)
        units = repsets._random_units(random.Random(repsets._SKETCH_SEED),
                                      form.dim, r, d2, basis)
        images = form.images(units, basis.canonical)
        assert list(images) == list(d.vertices)
        x = [unstride(basis, images[v], r, d2) for v in d.vertices]
        for i in range(r):
            for row in a:
                assert sum(e * xv[i] for e, xv in zip(row, x)) % PRIME == 0
            solved += any(xv[i] for xv in x)
        for v in d.vertices:
            assert images[v] == repsets._project(units, n_cols[v], basis)
        n = len(d.vertices)
        n_rows = [list(row) for row in zip(*(n_cols[v] for v in d.vertices))]
        dual_rows = [list(row) for row in zip(*(dual[v] for v in d.vertices))]
        assert FieldMatrix(n_rows, n).rank() == form.dim
        assert FieldMatrix(dual_rows, n).rank() == form.dim
        assert FieldMatrix(n_rows + dual_rows, n).rank() == form.dim
    assert solved > 200
