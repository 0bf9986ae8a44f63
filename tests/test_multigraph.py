"""Multigraph primitives, cycle detection, normalization, torso."""
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance, random_multigraph
from sfvs_kernel.multigraph import (Instance, Multigraph, PairInstance,
                                    check_normalized, find_s_cycle,
                                    has_s_cycle, is_s_cycle, is_solution,
                                    normalize, s_cycle_packing, torso)
from sfvs_kernel.generators import gnm
from sfvs_kernel.oracle import solve_exact


def skeleton(g: Multigraph, banned_vertices=(), banned_edges=()) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(v for v in g.vertices() if v not in banned_vertices)
    for eid in g.edges:
        u, v = g.endpoints(eid)
        if u != v and eid not in banned_edges and h.has_node(u) and h.has_node(v):
            h.add_edge(u, v)
    return h


def test_basic_ops():
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    e1 = g.add_edge(1, 2)
    e2 = g.add_edge(1, 2)
    e3 = g.add_edge(2, 3)
    loop = g.add_edge(3, 3)
    assert g.n == 3 and g.m == 4
    assert g.degree(1) == 2
    assert g.degree(3) == 3  # loop counts twice
    assert set(g.edges_between(1, 2)) == {e1, e2}
    assert g.is_loop(loop) and not g.is_loop(e3)
    assert g.neighbors(2) == [1, 3]
    removed = g.remove_vertex(2)
    assert removed == {e1, e2, e3}
    assert g.n == 2 and g.m == 1


def test_add_edge_explicit_id_collision():
    g = Multigraph()
    g.add_vertex(1)
    g.add_vertex(2)
    g.add_edge(1, 2, eid=7)
    with pytest.raises(ValueError):
        g.add_edge(1, 2, eid=7)


def test_endpoints_of_missing_edge():
    g = Multigraph()
    g.add_vertex(1)
    with pytest.raises(KeyError):
        g.endpoints(5)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_components_match_reference(seed):
    rng = random.Random(seed)
    g, eids = random_multigraph(rng, n_lo=1, n_hi=12)
    banned_v = set(rng.sample(g.vertices(), rng.randint(0, g.n)))
    banned_e = set(rng.sample(eids, rng.randint(0, len(eids))))
    for xs, fs in (((), ()), (banned_v, ()), ((), banned_e),
                   (banned_v, banned_e)):
        comps = g.components(xs, fs)
        ref = nx.connected_components(skeleton(g, xs, fs))
        assert {frozenset(c) for c in comps} == {frozenset(c) for c in ref}
        assert all(c == sorted(c) for c in comps)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_bridges_match_reference(seed):
    rng = random.Random(seed)
    g, _ = random_multigraph(rng, n_lo=2, n_hi=12)
    banned = set(rng.sample(g.vertices(), rng.randint(0, g.n)))
    for xs in ((), banned):
        expect = set()
        for u, v in nx.bridges(skeleton(g, xs)):
            eids = g.edges_between(u, v)
            if len(eids) == 1:
                expect.add(eids[0])
        assert g.bridges(xs) == expect


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_bridges_on_a_deep_path_with_parallels(seed):
    # the path is deeper than the interpreter's default recursion limit
    rng = random.Random(seed)
    n = rng.randint(1200, 2500)
    g = Multigraph.from_edges(range(1, n + 1), [(v, v + 1) for v in range(1, n)])
    doubled = {v: g.add_edge(v, v + 1) for v in rng.sample(range(1, n), 30)}
    for v in rng.sample(range(1, n + 1), 10):
        g.add_edge(v, v)
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(1, n + 1), 2)
        g.add_edge(u, v)
    expect = set()
    for u, v in nx.bridges(skeleton(g)):
        eids = g.edges_between(u, v)
        if len(eids) == 1:
            expect.add(eids[0])
    assert g.bridges() == expect
    assert not expect & set(doubled.values())


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_shortest_path_is_shortest(seed):
    rng = random.Random(seed)
    g, _ = random_multigraph(rng, n_lo=2, n_hi=12)
    sk = skeleton(g)
    vs = g.vertices()
    src, dst = rng.choice(vs), rng.choice(vs)
    path = g.shortest_path(src, dst)
    if path is None:
        assert not nx.has_path(sk, src, dst)
        return
    assert path[0] == src and path[-1] == dst
    for a, b in zip(path, path[1:]):
        assert g.edges_between(a, b)
    assert len(set(path)) == len(path)
    assert len(path) - 1 == nx.shortest_path_length(sk, src, dst)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_shortest_path_limit_drops_only_longer_paths(seed):
    rng = random.Random(seed)
    g, _ = random_multigraph(rng, n_lo=2, n_hi=12)
    vs = g.vertices()
    src, dst = rng.choice(vs), rng.choice(vs)
    path = g.shortest_path(src, dst)
    for limit in range(1, g.n + 2):
        got = g.shortest_path(src, dst, limit=limit)
        assert got == (path if path is not None and len(path) <= limit else None)


@pytest.mark.parametrize("graph_seed", range(40))
def test_find_s_cycle_matches_the_unbounded_search(graph_seed):
    # the bounded BFS must pick the very cycle the unbounded one picks
    def unbounded(g, s, deleted):
        best = None
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
                                   banned_edges=frozenset([eid]))
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        return best

    rng = random.Random(graph_seed)
    n = rng.randint(5, 60)
    pinst = gnm(n, rng.randint(n, 2 * n), rng.randint(1, n // 2), 2, graph_seed)
    for inst in (pinst, normalize(pinst).instance):
        g, s = inst.graph, inst.s
        for _ in range(5):
            deleted = frozenset(rng.sample(g.vertices(), rng.randint(0, g.n // 4)))
            assert find_s_cycle(g, s, deleted) == unbounded(g, s, deleted)


def test_induced_keeps_parallels_and_loops():
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    g.add_edge(1, 2)
    g.add_edge(1, 2)
    g.add_edge(1, 1)
    g.add_edge(2, 3)
    h = g.induced({1, 2})
    assert h.n == 2 and h.m == 3
    assert len(h.edges_between(1, 2)) == 2


# -- special-cycle detection --------------------------------------------------


def ref_has_s_cycle(g, s, deleted=frozenset()):
    # an S-edge lies on a cycle iff it is a loop or its endpoints stay
    # connected without it
    for eid in s:
        u, v = g.endpoints(eid)
        if u in deleted or v in deleted:
            continue
        if u == v:
            return True
        if g.shortest_path(u, v, banned_vertices=frozenset(deleted),
                           banned_edges=frozenset([eid])) is not None:
            return True
    return False


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_s_cycle_detection_matches_reference(seed):
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=9)
    g, s = pinst.graph, pinst.s
    vs = g.vertices()
    deleted = frozenset(rng.sample(vs, rng.randint(0, min(3, len(vs)))))
    assert has_s_cycle(g, s, deleted) == ref_has_s_cycle(g, s, deleted)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_find_s_cycle_returns_a_real_cycle(seed):
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=9)
    g, s = pinst.graph, pinst.s
    cyc = find_s_cycle(g, s)
    if cyc is None:
        assert not ref_has_s_cycle(g, s)
        return
    assert len(set(cyc)) == len(cyc)
    if len(cyc) == 1:
        assert any(g.is_loop(e) and e in s for e in g.incident(cyc[0]))
    elif len(cyc) == 2:
        u, v = cyc
        eids = g.edges_between(u, v)
        assert len(eids) >= 2 and any(e in s for e in eids)
    else:
        closed = cyc + [cyc[0]]
        hit = False
        for a, b in zip(closed, closed[1:]):
            eids = g.edges_between(a, b)
            assert eids
            hit = hit or any(e in s for e in eids)
        assert hit


def test_is_s_cycle_hand_cases():
    g = Multigraph.from_edges(range(1, 8), [])
    loop, plain_loop = g.add_edge(1, 1), g.add_edge(2, 2)
    s_pair, sibling = g.add_edge(3, 4), g.add_edge(3, 4)
    lone = g.add_edge(4, 5)
    tri = [g.add_edge(5, 6), g.add_edge(6, 7), g.add_edge(7, 5)]
    s = frozenset([loop, s_pair, lone, tri[0]])
    assert is_s_cycle(g, s, [1])
    assert not is_s_cycle(g, s, [2])                 # a plain loop
    assert is_s_cycle(g, s, [3, 4]) and is_s_cycle(g, s, [4, 3])
    assert not is_s_cycle(g, s - {s_pair}, [3, 4])   # two plain parallels
    assert not is_s_cycle(g, s, [4, 5])              # one edge, no sibling
    assert is_s_cycle(g, s, [5, 6, 7]) and is_s_cycle(g, s, [7, 6, 5])
    assert not is_s_cycle(g, s - {tri[0]}, [5, 6, 7])
    assert not is_s_cycle(g, s, [3, 4, 5])           # 5 and 3 are apart
    assert not is_s_cycle(g, s, [5, 6, 5])           # repeats a vertex
    assert not is_s_cycle(g, s, [5, 6, 9])           # 9 is no vertex
    assert not is_s_cycle(g, s, [])
    g.remove_edge(sibling)
    assert not is_s_cycle(g, s, [3, 4])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_s_cycle_packing_is_disjoint_and_maximal(seed):
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=12)
    g, s = pinst.graph, pinst.s
    limit = rng.randint(0, 4)
    cycles = s_cycle_packing(g, s, limit)
    assert len(cycles) <= limit
    used = [v for c in cycles for v in c]
    assert len(used) == len(set(used))
    assert all(is_s_cycle(g, s, c) for c in cycles)
    if len(cycles) < limit:
        assert not ref_has_s_cycle(g, s, frozenset(used))
    if cycles:
        assert len(cycles[0]) == len(find_s_cycle(g, s))


def test_is_solution_checks_pairs():
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    g.add_edge(1, 2)
    se = g.add_edge(2, 3)
    g.add_edge(3, 1)
    s = frozenset([se])
    pinst = PairInstance(g, s, frozenset([frozenset((2, 3))]), 2)
    assert not is_solution(pinst, frozenset())          # triangle survives
    assert not is_solution(pinst, frozenset([1]))       # pair unhit
    assert is_solution(pinst, frozenset([2]))
    with pytest.raises(ValueError):
        is_solution(pinst, frozenset([99]))


# -- normalization ------------------------------------------------------------


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_normalize_output_shape(seed):
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=8, with_pairs=True)
    norm = normalize(pinst)
    out = norm.instance
    out.validate()
    check_normalized(out)
    assert out.k == pinst.k - len(norm.forced)
    for v in out.graph.vertices():
        assert norm.landing[v] in set(pinst.graph.vertices())
    # no loops and no parallel S-edges survive anywhere
    for eid in out.graph.edges:
        assert not out.graph.is_loop(eid)
    for eid in out.s:
        u, v = out.graph.endpoints(eid)
        assert len(out.graph.edges_between(u, v)) == 1


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_normalize_preserves_answer_and_lifts_witnesses(seed):
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=7, k_hi=2, with_pairs=True)
    norm = normalize(pinst)
    want = solve_exact(pinst)
    if norm.instance.k < 0:
        assert not want.found
        return
    got = solve_exact(norm.instance)
    assert got.found == want.found
    if got.found:
        lifted = norm.lift(got.witness)
        assert len(lifted) <= pinst.k
        assert is_solution(pinst, lifted)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_normalize_is_idempotent(seed):
    rng = random.Random(seed)
    once = normalize(random_instance(rng, n_hi=8, with_pairs=True)).instance
    twice = normalize(once)
    out = twice.instance
    assert (out.graph.n, out.graph.m, len(out.s)) == \
        (once.graph.n, once.graph.m, len(once.s))
    assert out.graph == once.graph and out.s == once.s
    assert out.pairs == once.pairs and out.k == once.k
    assert twice.forced == frozenset()
    assert all(w == v for v, w in twice.landing.items())


def settled_instance(rng):
    """A random plain multigraph plus S-edges p-q that are already in
    normalized shape: fresh p and q joined to base vertices u and v (which
    may coincide), and pairs only among base vertices."""
    g, _ = random_multigraph(rng, n_hi=7)
    base = g.vertices()
    s = set()
    fresh = max(base) + 1
    for _ in range(rng.randint(1, 3)):
        p, q = fresh, fresh + 1
        fresh += 2
        g.add_edge(rng.choice(base), p)
        s.add(g.add_edge(p, q))
        g.add_edge(q, rng.choice(base))
    pairs = set()
    if len(base) >= 2 and rng.random() < 0.5:
        pairs.add(frozenset(rng.sample(base, 2)))
    return PairInstance(g, frozenset(s), frozenset(pairs), rng.randint(0, 2))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_normalize_leaves_settled_s_edges_alone(seed):
    rng = random.Random(seed)
    pinst = settled_instance(rng)
    norm = normalize(pinst)
    out = norm.instance
    assert out.s == pinst.s
    assert set(out.graph.vertices()) == set(pinst.graph.vertices())
    assert all(w == v for v, w in norm.landing.items())
    check_normalized(out)
    want = solve_exact(pinst)
    got = solve_exact(out)
    assert got.found == want.found
    if got.found:
        lifted = norm.lift(got.witness)
        assert len(lifted) <= pinst.k
        assert is_solution(pinst, lifted)


def test_normalize_subdivides_s_edges_that_are_not_settled():
    # 1-2 (S) has a plain sibling: the other neighbour of 1 is 2 itself
    g = Multigraph.from_edges([1, 2], [(1, 2), (1, 2)])
    out = normalize(Instance(g, frozenset([1]), 1)).instance
    assert out.graph.n == 4 and out.s != frozenset([1])
    # 2-3 and 4-5 are S-edges and 3-4 joins them: 3's other neighbour is an
    # S-endpoint, so both get subdivided
    g = Multigraph.from_edges(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5),
                                            (5, 6)])
    out = normalize(Instance(g, frozenset([2, 4]), 1)).instance
    assert out.graph.n == 10
    # a pair on an endpoint keeps the edge from being settled
    g = Multigraph.from_edges(range(1, 5), [(1, 2), (2, 3), (3, 4)])
    settled = normalize(Instance(g, frozenset([2]), 1)).instance
    assert settled.graph.n == 4
    pinned = normalize(PairInstance(g, frozenset([2]),
                                    frozenset([frozenset((2, 4))]), 1))
    assert pinned.instance.graph.n == 6


def test_normalize_forces_s_loop_carriers():
    g = Multigraph()
    g.add_vertex(1)
    g.add_vertex(2)
    sloop = g.add_edge(1, 1)
    g.add_edge(1, 2)
    pinst = PairInstance(g, frozenset([sloop]), frozenset([frozenset((1, 2))]), 2)
    norm = normalize(pinst)
    assert norm.forced == frozenset([1])
    assert norm.instance.k == 1
    assert norm.instance.pairs == frozenset()  # pair satisfied by the forced vertex


def test_normalize_demotes_second_s_copy():
    g = Multigraph()
    g.add_vertex(1)
    g.add_vertex(2)
    e1 = g.add_edge(1, 2)
    e2 = g.add_edge(1, 2)
    inst = Instance(g, frozenset([e1, e2]), 1)
    out = normalize(inst).instance
    # one S-edge survives (subdivided), its sibling becomes plain
    assert len(out.s) == 1
    assert solve_exact(out).found == solve_exact(inst).found


# -- torso --------------------------------------------------------------------


def test_torso_keeps_two_cycle_through_outside_component():
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    se = g.add_edge(1, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 3)
    s = frozenset([se])  # vertex 3 is outside w yet closes a cycle through the S-edge
    t = torso(g, [1, 2])
    assert len(t.edges_between(1, 2)) == 2
    assert has_s_cycle(t, s)
    assert has_s_cycle(g, s)


def test_torso_adds_no_loops():
    # a component hanging off one w-vertex twice contributes nothing
    g = Multigraph.from_edges([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    t = torso(g, [1])
    assert t.n == 1 and t.m == 0


def test_torso_connects_across_component():
    g = Multigraph.from_edges([1, 2, 3, 4], [(1, 3), (3, 4), (4, 2)])
    t = torso(g, [1, 2])
    assert len(t.edges_between(1, 2)) == 1


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_torso_preserves_s_cycles_under_deletions(seed):
    import itertools
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=9)
    g, s = pinst.graph, pinst.s
    vs_of_s = {v for e in s for v in g.endpoints(e)}
    extra = [v for v in g.vertices() if v not in vs_of_s]
    rng.shuffle(extra)
    w = sorted(vs_of_s | set(extra[:rng.randint(0, len(extra))]))
    t = torso(g, w)
    assert s <= set(t.edges)
    for size in range(0, 3):
        for x in itertools.combinations(w, size):
            assert has_s_cycle(g, s, frozenset(x)) == \
                has_s_cycle(t, s, frozenset(x))


def torso_by_edges_between(g, w):
    """The torso as it was first written: one edges_between scan per
    boundary pair. The reference for the edge ids torso assigns."""
    ws = set(w)
    tg = g.induced(ws)
    for comp in g.components(banned_vertices=ws):
        bnd = sorted({u for c in comp for u in g.neighbors(c) if u in ws})
        for i, u in enumerate(bnd):
            for v in bnd[i + 1:]:
                if len(tg.edges_between(u, v)) < 2:
                    tg.add_edge(u, v)
    return tg


def test_torso_matches_the_edges_between_reference():
    rng = random.Random(17)
    added = 0
    for _ in range(300):
        g, _ = random_multigraph(rng, n_hi=14, m_hi=30)
        w = rng.sample(g.vertices(), rng.randint(1, g.n))
        t, want = torso(g, w), torso_by_edges_between(g, w)
        assert t.edges == want.edges and t.vertices() == want.vertices()
        added += t.m - g.induced(w).m
    assert added > 100
