"""Exact solver against exhaustive search; feasible-set providers; flower brute force."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_solve, random_instance
from sfvs_kernel.generators import bubble_forest, gnm, planted
from sfvs_kernel.multigraph import (Instance, Multigraph, PairInstance,
                                    find_s_cycle, has_s_cycle, is_solution,
                                    normalize)
from sfvs_kernel.oracle import (MAX_EXACT_BUDGET, MAX_EXACT_VERTICES,
                                _base_endpoints, brute_force_flower,
                                feasible_z_exact, feasible_z_greedy,
                                solve_exact)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_solver_matches_exhaustive_search(seed):
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=8, k_hi=2, with_pairs=True)
    res = solve_exact(pinst)
    ref = brute_solve(pinst)
    assert res.found == (ref is not None)
    if res.found:
        assert is_solution(pinst, res.witness)
        assert len(res.witness) == len(ref)  # budget iteration gives a minimum witness


def test_solver_respects_avoid():
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    se = g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 1)
    inst = Instance(g, frozenset([se]), 1)
    assert solve_exact(inst).found
    # the exact provider avoids the S-edge's endpoints 1 and 2
    assert feasible_z_exact(g, frozenset([se])).z == {3}


def test_solver_max_k_tightens_budget():
    # two disjoint S-triangles need two deletions
    g = Multigraph()
    for v in range(1, 7):
        g.add_vertex(v)
    s1 = g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 1)
    s2 = g.add_edge(4, 5)
    g.add_edge(5, 6)
    g.add_edge(6, 4)
    inst = Instance(g, frozenset([s1, s2]), 3)
    assert solve_exact(inst).found
    assert not solve_exact(inst, max_k=1).found
    # max_k only lowers the header budget, never raises it
    assert not solve_exact(Instance(g, frozenset([s1, s2]), 1), max_k=3).found


def test_solver_caps():
    g = Multigraph()
    for v in range(1, MAX_EXACT_VERTICES + 2):
        g.add_vertex(v)
    with pytest.raises(ValueError):
        solve_exact(Instance(g, frozenset(), 0))
    small = Multigraph.from_edges([1], [])
    with pytest.raises(ValueError):
        solve_exact(Instance(small, frozenset(), MAX_EXACT_BUDGET + 1))
    # n_cap overrides the default vertex cap
    assert solve_exact(Instance(g, frozenset(), 0), n_cap=g.n + 1).found


def test_trivial_instances():
    g = Multigraph.from_edges([1, 2], [(1, 2)])
    assert solve_exact(Instance(g, frozenset(), 0)).found
    loop = Multigraph()
    loop.add_vertex(1)
    le = loop.add_edge(1, 1)
    assert not solve_exact(Instance(loop, frozenset([le]), 0)).found
    assert solve_exact(Instance(loop, frozenset([le]), 1)).witness == frozenset([1])


def test_pair_branching():
    g = Multigraph.from_edges([1, 2, 3, 4], [])
    pinst = PairInstance(g, frozenset(), frozenset([frozenset((1, 2)), frozenset((3, 4))]), 1)
    assert not solve_exact(pinst).found
    pinst2 = PairInstance(g, frozenset(), frozenset([frozenset((1, 2))]), 1)
    res = solve_exact(pinst2)
    assert res.found and res.witness < frozenset((1, 2))


# -- providers ----------------------------------------------------------------


def normalized_sample(rng):
    from sfvs_kernel.multigraph import normalize
    pinst = random_instance(rng, n_hi=8, k_hi=3)
    norm = normalize(pinst)
    return norm.instance


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_exact_provider_contract(seed):
    rng = random.Random(seed)
    ninst = normalized_sample(rng)
    g, s = ninst.graph, ninst.s
    fz = feasible_z_exact(g, s)
    assert fz.factor == 1
    vs = {v for e in s for v in g.endpoints(e)}
    assert fz.z.isdisjoint(vs)
    assert not has_s_cycle(g, s, fz.z)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_greedy_provider_contract(seed):
    rng = random.Random(seed)
    ninst = normalized_sample(rng)
    g, s = ninst.graph, ninst.s
    fz = feasible_z_greedy(g, s)
    assert fz.factor is None
    vs = {v for e in s for v in g.endpoints(e)}
    assert fz.z.isdisjoint(vs)
    assert not has_s_cycle(g, s, fz.z)
    # greedy output is inclusion-minimal
    for v in fz.z:
        assert has_s_cycle(g, s, fz.z - {v})


def quadratic_greedy_z(g, s):
    """The greedy provider as it was before the union-find: one whole-graph
    bridge pass per base endpoint. Test oracle only."""
    z = set(_base_endpoints(g, s))
    for v in sorted(z):
        z.discard(v)
        if has_s_cycle(g, s, z):
            z.add(v)
    return frozenset(z)


def test_confined_pruning_matches_the_quadratic_reference():
    rng = random.Random(16)
    cases = []
    for i in range(100):
        n = rng.randint(4, 80)
        cases.append(gnm(n, rng.randint(n, 2 * n), rng.randint(0, n // 3 + 1),
                         3, seed=i))
        cases.append(bubble_forest(i))
        k = rng.randint(0, 3)
        cases.append(planted(rng.randint(k + 3, 150), k, rng.randint(0, 3),
                             seed=i))
    sizes = []
    for pinst in cases:
        ninst = normalize(pinst).instance
        g, s = ninst.graph, ninst.s
        z = feasible_z_greedy(g, s).z
        assert z == quadratic_greedy_z(g, s)
        sizes.append(len(z))
    assert max(sizes) >= 10


@pytest.mark.parametrize("pinst", [planted(300, 3, 4, seed=11),
                                   gnm(46, 69, 7, 3, seed=11)],
                         ids=["planted-300", "gnm-46"])
def test_greedy_pruning_makes_one_bridge_pass(pinst, monkeypatch):
    # the entry check is the only bridge pass: each pruning test reads the
    # components and bubbles of G - Z from union-finds
    ninst = normalize(pinst).instance
    calls = []
    bridges = Multigraph.bridges

    def spy(self, *args, **kwargs):
        calls.append(1)
        return bridges(self, *args, **kwargs)

    monkeypatch.setattr(Multigraph, "bridges", spy)
    z = feasible_z_greedy(ninst.graph, ninst.s).z
    assert len(calls) == 1
    monkeypatch.undo()
    assert len(z) >= 2
    assert z == quadratic_greedy_z(ninst.graph, ninst.s)


def test_bridge_test_agrees_with_cycle_search_at_scale():
    # has_s_cycle asks one bridge pass, find_s_cycle searches a path per
    # S-edge; on normalized gnm graphs of a few hundred vertices they agree,
    # and the search judges the greedy Z feasible and inclusion-minimal
    rng = random.Random(7)
    answers = set()
    for n in (150, 250, 400):
        ninst = normalize(gnm(n, 3 * n // 2, n // 6, 3, seed=n)).instance
        g, s = ninst.graph, ninst.s
        z = feasible_z_greedy(g, s).z
        assert find_s_cycle(g, s, z) is None
        for v in z:
            assert find_s_cycle(g, s, z - {v}) is not None
        vs = g.vertices()
        for _ in range(30):
            kept = rng.sample(sorted(z), rng.randint(0, len(z)))
            deleted = frozenset(kept + rng.sample(vs, rng.randint(0, n // 20)))
            got = has_s_cycle(g, s, deleted)
            assert got == (find_s_cycle(g, s, deleted) is not None)
            answers.add(got)
    assert answers == {False, True}


def test_exact_provider_is_minimum():
    rng = random.Random(9)
    import itertools
    for _ in range(25):
        ninst = normalized_sample(rng)
        g, s = ninst.graph, ninst.s
        fz = feasible_z_exact(g, s)
        vs = {v for e in s for v in g.endpoints(e)}
        allowed = [v for v in g.vertices() if v not in vs]
        best = None
        for size in range(len(allowed) + 1):
            for combo in itertools.combinations(allowed, size):
                if not has_s_cycle(g, s, set(combo)):
                    best = size
                    break
            if best is not None:
                break
        assert len(fz.z) == best


# -- flower brute force -------------------------------------------------------


def test_brute_force_flower_hand_cases():
    # two triangles sharing only the apex: order 2
    g = Multigraph()
    for v in range(1, 6):
        g.add_vertex(v)
    s1 = g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 1)
    s2 = g.add_edge(1, 4)
    g.add_edge(4, 5)
    g.add_edge(5, 1)
    s = frozenset([s1, s2])
    assert brute_force_flower(g, s, 1) == 2
    assert brute_force_flower(g, s, 2) == 1
    assert brute_force_flower(g, s, 99) == 0
    # an S-loop on z counts as its own petal
    sloop = g.add_edge(1, 1)
    assert brute_force_flower(g, s | {sloop}, 1) == 3


def test_brute_force_flower_needs_s_edge():
    g = Multigraph.from_edges([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    assert brute_force_flower(g, frozenset(), 1) == 0
