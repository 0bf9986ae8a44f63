"""Reduction-rule engine: per-rule gadgets, decompositions, fixpoint bounds."""
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hub_instance, random_instance
from sfvs_kernel import flowers, ruleengine
from sfvs_kernel.generators import (_scripted, gadget_suite, gnm, leaf_fan,
                                    planted)
from sfvs_kernel.instancefile import serialize_instance
from sfvs_kernel.multigraph import (Instance, Multigraph, PairInstance,
                                    base_of, has_s_cycle, normalize,
                                    s_cycle_packing)
from sfvs_kernel.oracle import FeasibleZ, feasible_z_greedy, solve_exact
from sfvs_kernel.pathpacking import (exists_apath, gallai_blocker_or_packing,
                                     max_disjoint_apaths)
from sfvs_kernel.pipeline import run_full, run_rules
from sfvs_kernel.ruleengine import (Decomposition, cover_matching, decompose,
                                    finalize, reduce_pairs, uncovered_leaves)
from sfvs_kernel.verify import sweep_instances


def answer_of(inst: Instance) -> bool:
    return solve_exact(inst.with_pairs(), n_cap=60).found


# -- gadgets: one deterministic trigger per rule ------------------------------


@pytest.mark.parametrize("gad", gadget_suite(), ids=lambda g: g.name)
def test_gadget_fires_its_rules_and_keeps_the_answer(gad):
    want = solve_exact(gad.pinst).found
    assert want == gad.expected

    rep = run_rules(gad.pinst, provider=gad.provider)
    assert rep.engine is not None
    for rule in gad.fires:
        assert rep.engine.rule_counts.get(rule, 0) >= 1, \
            f"{gad.name} was built to fire rule {rule}"
    assert answer_of(rep.final) == want

    full = run_full(gad.pinst, provider=gad.provider)
    assert answer_of(full.final) == want


def test_gadget_suite_covers_all_rules():
    declared = set()
    for gad in gadget_suite():
        declared |= set(gad.fires)
    assert declared == set(range(1, 11))


# -- decomposition ------------------------------------------------------------


def normalized_with_z(seed):
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=9, s_hi=3)
    ninst = normalize(pinst).instance
    g, s = ninst.graph, ninst.s
    if not s:
        return None
    fz = feasible_z_greedy(g, s)
    return g, s, fz.z


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_decompose_structure(seed):
    got = normalized_with_z(seed)
    if got is None:
        return
    g, s, z = got
    dec = decompose(g, s, z)
    live = [v for v in g.vertices() if v not in z]
    # bubbles partition the surviving vertices
    assert sorted(v for b in dec.bubbles for v in b) == sorted(live)
    for v in live:
        assert v in dec.bubbles[dec.bubble_of[v]]
    # each S-edge links the bubbles of its two endpoints
    for eid, (b1, b2) in dec.link.items():
        u, w = g.endpoints(eid)
        assert {dec.bubble_of[u], dec.bubble_of[w]} == {b1, b2}
        assert b1 != b2, "a feasible Z never leaves an S-edge inside one bubble"
    # the bubble graph of a feasible Z is a forest
    n_b = len(dec.bubbles)
    seen = set()
    comps = 0
    for b in range(n_b):
        if b in seen:
            continue
        comps += 1
        stack = [b]
        seen.add(b)
        while stack:
            x = stack.pop()
            for y in dec.adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    assert len(dec.link) == n_b - comps
    # yadj points back into z
    for b, ys in dec.yadj.items():
        assert ys <= z


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_cover_matching_covers_inner_bubbles(seed):
    got = normalized_with_z(seed)
    if got is None:
        return
    g, s, z = got
    dec = decompose(g, s, z)
    matched = cover_matching(dec)
    assert matched <= set(dec.link)
    touched = []
    for eid in matched:
        touched += list(dec.link[eid])
    assert len(touched) == len(set(touched)), "matching reuses a bubble"
    covered = set(touched)
    for b in range(len(dec.bubbles)):
        if dec.degree(b) >= 2:
            assert b in covered
    for b in uncovered_leaves(dec, matched):
        assert dec.degree(b) == 1 and b not in covered


def bubble_forest_decomposition(edges, n):
    """A hand-built decomposition: bubble i is the vertex i, and the j-th
    forest edge is the S-edge j."""
    adj = {i: {} for i in range(n)}
    link = {}
    for eid, (a, b) in enumerate(edges):
        adj[a][b] = adj[b][a] = eid
        link[eid] = (a, b)
    return Decomposition(frozenset(), [frozenset([i]) for i in range(n)],
                         {i: i for i in range(n)}, adj, link,
                         {i: frozenset() for i in range(n)})


def recursive_cover_matching(dec):
    """The recursive form of cover_matching, kept as the reference."""
    n = len(dec.bubbles)
    seen = [False] * n
    matched = set()

    def children_of(v, parent):
        return sorted(w for w in dec.adj[v] if w != parent)

    def rec(r, parent):
        kids = children_of(r, parent)
        v = kids[0]
        matched.add(dec.adj[r][v])
        for w in children_of(v, r) + kids[1:]:
            if children_of(w, v if w in dec.adj[v] else r):
                rec(w, v if w in dec.adj[v] else r)

    for b in range(n):
        if seen[b] or not dec.adj[b]:
            seen[b] = True
            continue
        comp, stack = [b], [b]
        seen[b] = True
        while stack:
            x = stack.pop()
            for w in dec.adj[x]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        rec(min(comp), None)
    return matched


def test_cover_matching_on_a_deep_path():
    n = 3000
    dec = bubble_forest_decomposition([(i, i + 1) for i in range(n - 1)], n)
    matched = cover_matching(dec)
    assert matched == set(range(0, n - 1, 2))


@pytest.mark.parametrize("edges, n", [([(0, 1), (1, 2), (2, 0)], 3),
                                      ([(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)], 6)])
def test_cover_matching_rejects_a_bubble_cycle(edges, n):
    with pytest.raises(AssertionError, match="forest"):
        cover_matching(bubble_forest_decomposition(edges, n))


def test_cover_matching_matches_the_recursive_version():
    rng = random.Random(7)
    for trial in range(400):
        n = rng.randint(1, 40)
        labels = list(range(n))
        rng.shuffle(labels)
        edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)
                 if rng.random() < 0.8]   # a random forest
        dec = bubble_forest_decomposition(edges, n)
        assert cover_matching(dec) == recursive_cover_matching(dec), trial


def test_decompose_rejects_z_touching_s():
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    se = g.add_edge(1, 2)
    g.add_edge(2, 3)
    with pytest.raises(AssertionError):
        decompose(g, frozenset([se]), frozenset([1]))


# -- finalize -----------------------------------------------------------------


def test_finalize_realizes_pairs():
    g = Multigraph.from_edges([1, 2, 3], [(1, 2)])
    out = finalize(g, set(), {frozenset((1, 3))}, 2)
    eids = out.graph.edges_between(1, 3)
    assert len(eids) == 2
    assert sum(1 for e in eids if e in out.s) == 1
    # existing plain edge is reused, only the S-copy is added
    out2 = finalize(g, set(), {frozenset((1, 2))}, 2)
    assert len(out2.graph.edges_between(1, 2)) == 2
    # deleting neither 1 nor 2 leaves the forced 2-cycle
    assert has_s_cycle(out2.graph, out2.s, frozenset())
    assert not has_s_cycle(out2.graph, out2.s, frozenset([1]))


# -- engine contracts ---------------------------------------------------------


def normalized_gadget(name="recorded-dumbbells"):
    for gad in gadget_suite():
        if gad.name == name:
            ninst = normalize(gad.pinst).instance
            return ninst, gad.provider
    raise LookupError(name)


def test_engine_rejects_unnormalized_input():
    g = Multigraph()
    for v in (1, 2, 3, 4):
        g.add_vertex(v)
    g.add_edge(1, 2)
    se = g.add_edge(2, 3)
    g.add_edge(3, 1)
    g.add_edge(2, 4)
    pinst = PairInstance(g, frozenset([se]), frozenset(), 1)
    with pytest.raises(ValueError):
        reduce_pairs(pinst)


def test_engine_rejects_a_pair_on_v_s():
    # the S-triangle 1-2-3 with S-edge 2-3 is normalized; a recorded pair
    # through the S-endpoint 2 is not
    g = Multigraph.from_edges([], [(1, 2), (2, 3), (3, 1), (1, 4)])
    pinst = PairInstance(g, frozenset([2]), frozenset([frozenset((2, 4))]), 1)
    reduce_pairs(PairInstance(g, frozenset([2]), frozenset(), 1))
    with pytest.raises(ValueError, match="pairs"):
        reduce_pairs(pinst)


def test_engine_rejects_provider_touching_s_endpoints():
    ninst, _ = normalized_gadget()
    bad = lambda g, s: FeasibleZ(frozenset(g.endpoints(next(iter(s)))[:1]), None)
    with pytest.raises(AssertionError):
        reduce_pairs(ninst, provider=bad)


def test_engine_rejects_infeasible_provider():
    ninst, _ = normalized_gadget()
    bad = lambda g, s: FeasibleZ(frozenset(), None)
    if not has_s_cycle(ninst.graph, ninst.s, frozenset()):
        pytest.skip("gadget lost its cycles")
    with pytest.raises(AssertionError):
        reduce_pairs(ninst, provider=bad)


def test_engine_step_cap_trips():
    ninst, provider = normalized_gadget()
    with pytest.raises(AssertionError):
        reduce_pairs(ninst, provider=provider, max_steps=0)


def test_factor_certified_overlarge_z_is_a_no():
    # one S-triangle, budget 0: any feasible z is larger than 8 * k
    g = Multigraph.from_edges([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    ninst = normalize(Instance(g, frozenset([1]), 0)).instance
    fz = feasible_z_greedy(ninst.graph, ninst.s)
    certified = lambda gg, ss: FeasibleZ(fz.z, 8)
    rep = reduce_pairs(ninst, provider=certified)
    assert rep.outcome == "trivial-no"
    assert rep.rule_counts == {}
    assert not solve_exact(rep.final).found


def test_exact_z_past_k_is_a_no_the_packing_misses():
    # one of small-batch's bubble forests at k = 1: its S-cycles pairwise
    # meet, so the packing holds one, yet no vertex hits them all. The exact
    # provider's Z, a least set avoiding V(S), has two vertices: more than
    # factor * k = 1, though not more than 8k
    g = Multigraph.from_edges(range(1, 9), [
        (3, 4), (5, 6), (5, 6), (1, 2), (2, 3), (4, 5), (1, 7), (1, 8),
        (2, 8), (4, 7), (5, 8), (7, 8)])
    pinst = PairInstance(g, frozenset([4, 5, 6]), frozenset(), 1)
    ninst = normalize(pinst).instance
    assert len(s_cycle_packing(ninst.graph, ninst.s, 2)) == 1
    rep = reduce_pairs(ninst)
    assert rep.outcome == "trivial-no" and rep.rule_counts == {}
    assert len(rep.z) == 2
    assert run_full(pinst).outcome == "trivial-no"
    assert not solve_exact(pinst).found


def test_exact_z_of_size_k_does_not_answer_no():
    # the S-cycle 1-2-3-4-5 (S-edge 2-3) and the pair {5, 6} at k = 1: {5}
    # hits both, while the exact Z, one vertex off V(S), may miss the pair;
    # |Z| = k proves nothing, so the rules must run
    g = Multigraph.from_edges(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5),
                                            (5, 1)])
    pinst = PairInstance(g, frozenset([2]), frozenset([frozenset((5, 6))]), 1)
    rep = reduce_pairs(pinst)
    assert len(rep.z) == 1 and not rep.z & {5, 6}
    assert rep.outcome == "reduced"
    assert solve_exact(rep.final).found


def test_trivial_yes_shortcut():
    # a plain triangle with one S-edge and budget 1: the provider's z is a solution
    g = Multigraph.from_edges([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    ninst = normalize(Instance(g, frozenset([1]), 1)).instance
    rep = reduce_pairs(ninst)
    assert rep.outcome == "trivial-yes"
    assert solve_exact(rep.final).found


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_engine_preserves_answer_on_random_instances(seed):
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=9, k_hi=2, with_pairs=True)
    provider = (lambda g, s: feasible_z_greedy(g, s)) if seed % 2 else None
    want = solve_exact(pinst).found
    rep = run_rules(pinst, provider=provider)
    assert answer_of(rep.final) == want
    if rep.outcome == "reduced" and rep.engine is not None:
        st_ = rep.engine.stats
        kk, nz = st_["k"], st_["z"]
        assert len(rep.engine.fixpoint.pairs) <= kk * kk
        assert st_["m"] <= (kk + 1) * nz * nz + kk * nz
        assert st_["l"] <= (kk + 1) * nz * (st_["b"] + nz) + kk * nz
        assert len(rep.final.s) <= 2 * st_["m"] + st_["l"] + kk * kk


# -- rule 6's stored "no flower" answers --------------------------------------


def recheck_stored_answers(monkeypatch):
    """Before every engine step, decide each stored (z, t) whose z is still
    in Z afresh; every one must still be a "no". Returns the (z, t) checked."""
    checked = []
    step = ruleengine._apply_once

    def wrapped(st_):
        s = frozenset(st_.s)
        for z, t in sorted(st_.no_flower):
            if z in st_.z:
                assert not flowers.has_flower_of_order(st_.graph, s, z, t), \
                    f"a flower of order {t} at {z} after a stored no"
                checked.append((z, t))
        return step(st_)

    monkeypatch.setattr(ruleengine, "_apply_once", wrapped)
    return checked


def count_decisions(monkeypatch):
    """Record (z, t, answer) for every flower decision rule 6 runs."""
    decisions = []
    decide = ruleengine.has_flower_of_order

    def counted(g, s, z, t):
        decisions.append((z, t, decide(g, s, z, t)))
        return decisions[-1][2]

    monkeypatch.setattr(ruleengine, "has_flower_of_order", counted)
    return decisions


def test_stored_no_answers_hold_on_the_verify_sweep(monkeypatch):
    checked = recheck_stored_answers(monkeypatch)
    cases = [(gad.pinst, gad.provider) for gad in gadget_suite()]
    cases += [(pinst, provider) for _, pinst, provider, _
              in sweep_instances(200, 0, 10, 3)]   # `sfvs verify`'s defaults
    for pinst, provider in cases:
        run_rules(pinst, provider=provider)
    assert len(checked) > 20


def hub_cluster(rng, hubs):
    """`hubs` hub instances, the c-th shifted by 6c, so that neighbouring
    ones share up to three vertices."""
    g, s = Multigraph(), set()
    for c in range(hubs):
        h, hs = hub_instance(rng)
        for v in h.vertices():
            if not g.has_vertex(v + 6 * c):
                g.add_vertex(v + 6 * c)
        for e in sorted(h.edges):
            u, v = h.endpoints(e)
            ne = g.add_edge(u + 6 * c, v + 6 * c)
            if e in hs:
                s.add(ne)
    return g, frozenset(s)


def test_stored_no_answers_hold_on_fans_and_hubs(monkeypatch):
    # straight to the engine: the S-cycle packing of `run_rules` answers many
    # of the hub clusters before any rule runs
    checked = recheck_stored_answers(monkeypatch)
    cases = [leaf_fan(leaves, k) for leaves in range(5, 10) for k in (2, 3)]
    rng = random.Random(3)
    for i in range(150):
        g, s = hub_cluster(rng, 2 + i % 2)
        cases.append(PairInstance(g, s, frozenset(), rng.randint(1, 4)))
    for pinst in cases:
        for provider in (None, feasible_z_greedy):
            reduce_pairs(normalize(pinst).instance, provider=provider)
    assert len(checked) > 100


def add_triangle_petals(g, s, hub, count):
    """`count` triangles hub-a-b with the S-edge a-b, on fresh vertices."""
    for _ in range(count):
        a = max(g.vertices()) + 1
        g.add_vertex(a)
        g.add_vertex(a + 1)
        g.add_edge(hub, a)
        s.add(g.add_edge(a, a + 1))
        g.add_edge(a + 1, hub)


def test_rule6_asks_again_after_its_own_drop_in_k(monkeypatch):
    # at k = 2, hub 1 has a flower of order 2 and hub 2 one of order 3: rule
    # 6 forces 2 first, then, at k = 1, hub 1. Hub 3's one petal keeps the
    # provider's Z over budget, so the engine runs at all. Three hubs give
    # three disjoint S-triangles, which `run_rules` answers before the engine
    decisions = count_decisions(monkeypatch)
    g, s = Multigraph.from_edges([1, 2, 3], []), set()
    for hub, petals in ((1, 2), (2, 3), (3, 1)):
        add_triangle_petals(g, s, hub, petals)
    pinst = PairInstance(g, frozenset(s), frozenset(), 2)
    rep = reduce_pairs(normalize(pinst).instance,
                       provider=_scripted(frozenset([1, 2, 3])))
    assert rep.rule_counts[6] == 2
    assert set(rep.forced) == {1, 2}
    assert decisions[:3] == [(1, 3, False), (2, 3, True), (1, 2, True)]
    assert answer_of(rep.final) == solve_exact(pinst).found


def test_rule6_asks_again_after_rule4_lowers_k(monkeypatch):
    # at k = 2, hub 1 has a flower of order 2; x = 2 sits in two pairs, and
    # four dumbbells x-a-b-y make rule 7 record {x, y}; rule 4 then deletes
    # x, and at k = 1 rule 6 forces hub 1
    decisions = count_decisions(monkeypatch)
    hub, x, y = 1, 2, 3
    g, s = Multigraph.from_edges([hub, x, y, 4, 5], [(x, y)]), set()
    for _ in range(4):
        a = max(g.vertices()) + 1
        g.add_vertex(a)
        g.add_vertex(a + 1)
        g.add_edge(x, a)
        s.add(g.add_edge(a, a + 1))
        g.add_edge(a + 1, y)
    add_triangle_petals(g, s, hub, 2)
    pairs = frozenset([frozenset((x, 4)), frozenset((x, 5))])
    pinst = PairInstance(g, frozenset(s), pairs, 2)
    rep = run_rules(pinst, provider=_scripted(frozenset([hub, x, y])))
    assert rep.engine.rule_counts[7] == 1
    assert rep.engine.rule_counts[4] == 1
    assert rep.engine.rule_counts[6] == 1
    assert rep.engine.forced == (x, hub)
    assert (hub, 3, False) in decisions and decisions[-1] == (hub, 2, True)
    assert answer_of(rep.final) == solve_exact(pinst).found


@pytest.mark.parametrize("leaves", [5, 6, 7])
def test_fan_decides_its_hub_once(monkeypatch, leaves):
    # every one of the fan's rule-9/10 steps reaches rule 6 at the same k,
    # so the exact provider's hub is searched once and its "no" carries over
    decisions = count_decisions(monkeypatch)
    rep = run_rules(leaf_fan(leaves, 2))
    assert rep.engine.rule_counts == {2: 1, 9: 1, 10: leaves - 2}
    assert decisions == [(1, 3, False)]


def test_greedy_gnm_decisions_are_all_distinct(monkeypatch):
    decisions = count_decisions(monkeypatch)
    # `run_rules` answers this "no" with its S-cycle packing, so the engine
    # is called directly
    rep = reduce_pairs(normalize(gnm(100, 150, 16, 3, seed=11)).instance,
                       provider=feasible_z_greedy)
    # rule 6 is reached once, after one rule-2 step: nothing carries over
    assert rep.outcome == "reduced"
    assert len(decisions) == len(set(decisions)) == 9


# -- blockers -----------------------------------------------------------------


def pseudo_vertex_blocker(g, s, dec, z, k):
    """Reference blocker on a pseudo-vertex graph: one new vertex per
    z-adjacent leaf, joined to the leaf's partner endpoint q when q's bubble
    is inner, and those new vertices are A in the plain graph of the inner
    bubbles plus them. Returns that graph, its A, and the blocker with every
    new vertex mapped to its q and every S-endpoint to its base."""
    lz = sorted(b for b in dec.leaves() if z in dec.yadj[b])
    fresh = max(g.vertices(), default=0) + 1
    q_of, inner_union = {}, set()
    for i, leaf in enumerate(lz):
        (far, eid), = dec.adj[leaf].items()
        u, v = g.endpoints(eid)
        q_of[fresh + i] = v if u in dec.bubbles[leaf] else u
        if dec.degree(far) >= 2:
            inner_union |= dec.bubbles[far]
    aux = Multigraph.from_edges(sorted(inner_union) + sorted(q_of), [])
    for eid in sorted(g.edges):
        u, v = g.endpoints(eid)
        if eid not in s and u != v and {u, v} <= inner_union:
            aux.add_edge(u, v)
    for pid, q in q_of.items():
        if q in inner_union:
            aux.add_edge(pid, q)
    res = gallai_blocker_or_packing(aux, set(q_of), k)
    assert res.packing is None
    out = set()
    for x in res.blocker:
        x = q_of.get(x, x)
        out.add(base_of(g, s, x) if any(e in s for e in g.incident(x)) else x)
    return aux, frozenset(q_of), frozenset(out)


def compare_blockers(monkeypatch):
    """Check every blocker `compute_blocker` returns against the
    pseudo-vertex version: the graph and A it hands to Gallai's theorem
    must have a maximum A-path packing as large as the pseudo-vertex
    graph's, and its blocker must cut every A-path of that graph. Returns
    the (new, old) blocker of every call."""
    calls, handed = [], []
    gallai, blocker = ruleengine.gallai_blocker_or_packing, ruleengine.compute_blocker

    def spied(g, a, k):
        handed.append((g, a))
        return gallai(g, a, k)

    def compared(g, s, dec, z, k):
        handed.clear()
        got = blocker(g, s, dec, z, k)
        aux, pids, old = pseudo_vertex_blocker(g, s, dec, z, k)
        packed = len(max_disjoint_apaths(*handed[0])) if handed else 0
        assert packed == len(max_disjoint_apaths(aux, pids))
        assert not exists_apath(aux, pids, got)
        calls.append((got, old))
        return got

    monkeypatch.setattr(ruleengine, "gallai_blocker_or_packing", spied)
    monkeypatch.setattr(ruleengine, "compute_blocker", compared)
    return calls


def test_blockers_match_the_pseudo_vertex_version(monkeypatch):
    calls = compare_blockers(monkeypatch)
    for _, pinst, provider, _ in sweep_instances(200, 0, 10, 3):
        run_rules(pinst, provider=provider)
    for leaves in range(3, 13):
        for provider in (None, feasible_z_greedy):
            run_rules(leaf_fan(leaves, 2), provider=provider)
    for n in (300, 1000):
        run_rules(planted(n, 3, 4, 11), provider=feasible_z_greedy)
    rng = random.Random(5)
    for i in range(150):
        g, s = hub_cluster(rng, 2 + i % 2)
        pinst = PairInstance(g, s, frozenset(), rng.randint(1, 4))
        for provider in (None, feasible_z_greedy):
            reduce_pairs(normalize(pinst).instance, provider=provider)
    assert len(calls) > 250 and sum(1 for got, _ in calls if got) > 100


def two_leaves_at_hub(inner_plain, inner_s, q1, q2):
    """Hub 1 with leaves {2, 3} and {4, 5} whose S-edges 3-q1 and 5-q2 run
    into inner bubbles made of the given plain edges and S-edges."""
    g = Multigraph.from_edges([], [(1, 2), (2, 3), (1, 4), (4, 5)] + inner_plain)
    s = {g.add_edge(u, v) for u, v in [(3, q1), (5, q2)] + inner_s}
    return g, frozenset(s)


@pytest.mark.parametrize("inner_plain, inner_s, q1, q2, want", [
    # both partner endpoints hang off the base 6, so 6 must be cut
    ([(6, 7), (6, 8)], [], 7, 8, {6}),
    # the partner endpoints 7 and 10 lie in two inner bubbles that only
    # the S-edge 8-11 joins: no leaf-to-leaf path runs through plain edges
    ([(6, 7), (6, 8), (9, 10), (9, 11)], [(8, 11)], 7, 10, set()),
])
def test_blocker_by_hand(monkeypatch, inner_plain, inner_s, q1, q2, want):
    calls = compare_blockers(monkeypatch)
    g, s = two_leaves_at_hub(inner_plain, inner_s, q1, q2)
    dec = decompose(g, s, frozenset([1]))
    assert ruleengine.compute_blocker(g, s, dec, 1, 1) == want
    assert calls == [(want, want)]


def test_blocker_raises_on_k_plus_1_leaf_to_leaf_paths():
    g, s = two_leaves_at_hub([(6, 7), (6, 8)], [], 7, 8)
    dec = decompose(g, s, frozenset([1]))
    with pytest.raises(AssertionError, match="flower"):
        ruleengine.compute_blocker(g, s, dec, 1, 0)


def mirrored_dumbbells() -> PairInstance:
    """Four dumbbells between hubs 1 and 2 at k = 2, every other one
    reversed, so the matched edges see {1, 2} from both sides."""
    g, s = Multigraph.from_edges(range(1, 13), [(1, 2), (11, 12)]), set()
    for i in range(4):
        a, b = 3 + 2 * i, 4 + 2 * i
        s.add(g.add_edge(a, b))
        x, y = (1, 2) if i % 2 == 0 else (2, 1)
        g.add_edge(a, x)
        g.add_edge(b, y)
    return PairInstance(g, frozenset(s), frozenset([frozenset((11, 12))]), 2)


def two_fans() -> PairInstance:
    """Hubs 1 and 2 with {1, 2} recorded at k = 2, a dumbbell 3-4, and fans
    at 5 and 8 with two leaves each, one leaf on either hub."""
    plain = [(2, 3), (1, 4), (2, 5), (1, 5), (1, 6), (2, 7), (1, 8), (2, 8),
             (1, 9), (2, 10)]
    g = Multigraph.from_edges([], plain)
    s = {g.add_edge(u, v) for u, v in [(3, 4), (5, 6), (5, 7), (8, 9), (8, 10)]}
    return PairInstance(g, frozenset(s), frozenset([frozenset((1, 2))]), 2)


def rule_stage_digest() -> str:
    """sha256 over the outcome and serialized kernel of `run_full` on the
    gadgets, the verify sweep's first 200 trials, leaf fans, two planted
    points, and two inputs whose output depends on the pairs of rules 7/8
    being unordered and those of rules 9/10 oriented: together they fire
    every rule."""
    cases = [(gad.pinst, gad.provider, 0) for gad in gadget_suite()]
    cases += [(pinst, provider, iseed) for _, pinst, provider, iseed
              in sweep_instances(200, 0, 10, 3)]
    cases += [(leaf_fan(leaves, 2), None, 0) for leaves in (5, 6, 7)]
    cases += [(planted(n, 3, 4, 11), feasible_z_greedy, 0) for n in (300, 1000)]
    cases += [(mirrored_dumbbells(), _scripted(frozenset((1, 2))), 0),
              (two_fans(), feasible_z_greedy, 0)]
    h = hashlib.sha256()
    for pinst, provider, seed in cases:
        rep = run_full(pinst, provider=provider, seed=seed)
        h.update(f"# outcome: {rep.outcome}\n".encode())
        h.update(serialize_instance(rep.final.with_pairs()).encode())
    return h.hexdigest()


# as written before rules 7/8 and 9/10 shared one counting routine
RULE_STAGE_SHA256 = \
    "c5d81c7ddb67fa65416139a944c6b6ba71e37663f58de8f51306a3f53f8151de"


def test_rule_stage_output_is_pinned():
    assert rule_stage_digest() == RULE_STAGE_SHA256


# -- structure kept between steps ---------------------------------------------


def engine_record(pinst, provider, direct):
    """What `run_rules` reports (or, if direct, the engine on the normalized
    input), with the final instance serialized, and the engine's report
    when the engine ran."""
    if direct:
        eng = reduce_pairs(normalize(pinst).instance, provider=provider)
        out = (eng.outcome, serialize_instance(eng.final.with_pairs()))
    else:
        rep = run_rules(pinst, provider=provider)
        out = (rep.outcome, serialize_instance(rep.final.with_pairs()))
        eng = rep.engine
    if eng is None:
        return out
    return out + (eng.rule_counts, eng.forced, eng.z, eng.blocker, eng.stats)


def dumbbell_cluster(rng):
    """Dumbbells x-a-b-y (S-edge a-b) between random pairs of 2-4 hubs, some
    with a longer arm b-c-y, plain chords among the other vertices, maybe a
    recorded pair of hubs; with the hubs as the input's Z, rules 8 and 10
    demote many of the S-edges."""
    h = rng.randint(2, 4)
    g, s = Multigraph.from_edges(range(1, h + 1), []), set()
    for _ in range(rng.randint(2, 9)):
        x, y = rng.sample(range(1, h + 1), 2)
        a = max(g.vertices()) + 1
        g.add_edge(x, a)
        s.add(g.add_edge(a, a + 1))
        if rng.random() < 0.3:
            g.add_edge(a + 1, a + 2)
            a += 1
        g.add_edge(a + 1, y)
    for _ in range(rng.randint(0, 3)):
        g.add_edge(*rng.sample(range(h + 1, max(g.vertices()) + 1), 2))
    pairs = [frozenset(rng.sample(range(1, h + 1), 2))] * rng.randint(0, 1)
    pinst = PairInstance(g, frozenset(s), frozenset(pairs), rng.randint(1, 3))
    return pinst, frozenset(range(1, h + 1))


def kept_state_cases():
    """(input, provider, straight to the engine) for the rule stage."""
    cases = [(gad.pinst, gad.provider, False) for gad in gadget_suite()]
    cases += [(pinst, provider, False) for _, pinst, provider, _
              in sweep_instances(200, 0, 10, 3)]
    cases += [(leaf_fan(leaves, 2), provider, False) for leaves in range(3, 13)
              for provider in (None, feasible_z_greedy)]
    cases += [(planted(n, 3, 4, 11), feasible_z_greedy, False)
              for n in (300, 1000)]
    cases += [(mirrored_dumbbells(), _scripted(frozenset((1, 2))), False),
              (two_fans(), feasible_z_greedy, False)]
    # rule 6 deletes hubs whose petals are left as bridges; the S-cycle
    # packing of `run_rules` would answer these before the engine
    g, s = Multigraph.from_edges([1, 2, 3], []), set()
    for hub, petals in ((1, 2), (2, 3), (3, 1)):
        add_triangle_petals(g, s, hub, petals)
    cases.append((PairInstance(g, frozenset(s), frozenset(), 2),
                  _scripted(frozenset([1, 2, 3])), True))
    rng = random.Random(6)
    for i in range(60):
        g, s = hub_cluster(rng, 2 + i % 2)
        pinst = PairInstance(g, s, frozenset(), rng.randint(1, 4))
        cases += [(pinst, None, True), (pinst, feasible_z_greedy, True)]
    while len(cases) < 600:
        pinst, hubs = dumbbell_cluster(rng)
        ninst = normalize(pinst).instance
        if not has_s_cycle(ninst.graph, ninst.s, hubs):
            cases += [(pinst, provider, True) for provider in
                      (_scripted(hubs), None, feasible_z_greedy)]
    return cases


def test_kept_structure_matches_a_rebuild_at_every_step(monkeypatch):
    # the same engine with everything it keeps between steps thrown away
    # before each step must report the same, while building less
    built = []
    dec = ruleengine.decompose

    def counted(*args):
        built.append(1)
        return dec(*args)

    monkeypatch.setattr(ruleengine, "decompose", counted)
    cases = kept_state_cases()
    kept = [engine_record(*case) for case in cases]
    kept_builds = len(built)
    step = ruleengine._apply_once

    def rebuilt(st_):
        st_.kept = ruleengine._Kept()
        return step(st_)

    monkeypatch.setattr(ruleengine, "_apply_once", rebuilt)
    for case, want in zip(cases, kept):
        assert engine_record(*case) == want
    assert kept_builds < len(built) - kept_builds


def test_the_step_after_rule_9_rebuilds_nothing(monkeypatch):
    calls, fired = [[]], []     # calls[i]: what step i called; 0 before
    step = ruleengine._apply_once

    def stepped(st_):
        calls.append([])
        fired.append(step(st_))
        return fired[-1]

    def spy(name, fn):
        def wrapped(*args):
            calls[-1].append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(ruleengine, "_apply_once", stepped)
    monkeypatch.setattr(ruleengine, "decompose",
                        spy("decompose", ruleengine.decompose))
    monkeypatch.setattr(ruleengine, "compute_blocker",
                        spy("blocker", ruleengine.compute_blocker))
    monkeypatch.setattr(Multigraph, "bridges",
                        spy("bridges", Multigraph.bridges))
    run_rules(leaf_fan(7, 2))
    assert fired == [2, 9, 10, 10, 10, 10, 10, None]
    assert calls[3] == []
    # the rule-9 step builds both decompositions and a blocker, and so does
    # every step after a demotion; only rule 2's own step runs a bridge pass
    for i in (2, 4, 5, 6, 7, 8):
        assert calls[i].count("decompose") == 2 and "blocker" in calls[i]
    assert [i for i in range(1, 9) if "bridges" in calls[i]] == [1]
