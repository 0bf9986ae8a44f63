"""Flower search against the exhaustive packer."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from helpers import hub_instance, random_instance, random_multigraph
from sfvs_kernel import flowers, ruleengine
from sfvs_kernel.flowers import has_flower_of_order, max_flower, validate_flower
from sfvs_kernel.generators import gnm, leaf_fan
from sfvs_kernel.multigraph import Multigraph, normalize
from sfvs_kernel.oracle import brute_force_flower, feasible_z_greedy
from sfvs_kernel.ruleengine import reduce_pairs


def test_two_triangle_flower():
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
    fl = max_flower(g, s, 1)
    assert fl.order == 2
    validate_flower(g, s, fl)
    assert has_flower_of_order(g, s, 1, 2)
    assert not has_flower_of_order(g, s, 1, 3)
    assert has_flower_of_order(g, s, 1, 0)


def two_triangles_and_a_far_segment():
    """Triangles 1-2-3 and 1-4-5 with S-edges 1-2 and 1-4, and an S-edge
    6-7 out of reach of 1: a flower of order 2 at 1 and one S-edge that is
    in no petal."""
    g = Multigraph.from_edges(range(1, 8), [(2, 3), (3, 1), (4, 5), (5, 1)])
    s = frozenset(g.add_edge(u, v) for u, v in [(1, 2), (1, 4), (6, 7)])
    return g, s


def test_a_yes_from_unlinked_segments_raises(monkeypatch):
    # the search claims a linked set that holds the far segment, with the
    # paths of one flow to all four segment ends: the yes is rebuilt into
    # petals before it is returned, and the rebuild fails
    g, s = two_triangles_and_a_far_segment()

    def forged(d, sources, pairs, target):
        ends = set(pairs[0] + pairs[-1])
        return [pairs[0], pairs[-1]], flowers.disjoint_paths(d, sources, ends,
                                                              len(ends))

    monkeypatch.setattr(flowers, "_search", forged)
    with pytest.raises(AssertionError, match="stay linked"):
        has_flower_of_order(g, s, 1, 2)


def test_a_yes_with_a_bad_petal_raises(monkeypatch):
    # petals whose edges are rotated by one no longer trace their cycles
    g, s = two_triangles_and_a_far_segment()
    rebuild = flowers._reconstruct

    def forged(*args):
        return [flowers.Petal(p.vertices, p.edge_ids[1:] + p.edge_ids[:1])
                for p in rebuild(*args)]

    assert has_flower_of_order(g, s, 1, 2)
    monkeypatch.setattr(flowers, "_reconstruct", forged)
    with pytest.raises(AssertionError, match="trace the cycle"):
        has_flower_of_order(g, s, 1, 2)


def test_flower_at_absent_or_cycle_free_vertex():
    g = Multigraph()
    g.add_vertex(1)
    g.add_vertex(2)
    se = g.add_edge(1, 2)
    assert max_flower(g, frozenset([se]), 1).order == 0
    assert max_flower(g, frozenset([se]), 99).order == 0


def test_s_loops_count_as_petals():
    g = Multigraph()
    g.add_vertex(1)
    g.add_vertex(2)
    sloop = g.add_edge(1, 1)
    se = g.add_edge(1, 2)
    g.add_edge(2, 1)
    s = frozenset([sloop, se])
    fl = max_flower(g, s, 1)
    assert fl.order == 2  # the loop plus the 2-cycle
    validate_flower(g, s, fl)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_flower_order_matches_brute_force(seed):
    rng = random.Random(seed)
    pinst = random_instance(rng, n_hi=8, s_hi=4)
    g, s = pinst.graph, pinst.s
    z = rng.choice(g.vertices())
    want = brute_force_flower(g, s, z)
    fl = max_flower(g, s, z)
    assert fl.order == want
    validate_flower(g, s, fl)
    for t in range(want + 2):
        assert has_flower_of_order(g, s, z, t) == (t <= want)


def test_validate_flower_rejects_overlap():
    from sfvs_kernel.flowers import Flower
    g = Multigraph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    se = g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 1)
    s = frozenset([se])
    fl = max_flower(g, s, 1)
    assert fl.order == 1
    doubled = Flower(fl.center, list(fl.petals) + list(fl.petals))
    with pytest.raises(AssertionError):
        validate_flower(g, s, doubled)


def test_petal_ends_count_the_subdivided_neighbours():
    rng = random.Random(5)
    for _ in range(300):
        if rng.random() < 0.5:
            g, s = hub_instance(rng)
            z = 0
        else:
            pinst = random_instance(rng, n_hi=8, s_hi=6)
            g, s = pinst.graph, pinst.s
            z = rng.choice(g.vertices())
        _, _, sources, _, _ = flowers._setup(g, s, z)
        assert flowers._petal_ends(g, s, z) == len(sources)


def test_too_few_petal_ends_answer_no_without_search(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the count alone must settle this decision")

    cases = []
    rng = random.Random(9)
    for _ in range(300):
        g, s = hub_instance(rng)
        ends = flowers._petal_ends(g, s, 0)
        cases += [(g, s, t, brute_force_flower(g, s, 0))
                  for t in range(1, len(s) + 1) if ends < 2 * t]
    assert len(cases) > 100
    for name in ("_setup", "_search"):
        monkeypatch.setattr(flowers, name, boom)
    for g, s, t, want in cases:
        assert want < t
        assert not has_flower_of_order(g, s, 0, t)


def test_hub_flowers_match_brute_force(monkeypatch):
    searches = []
    search, link = flowers._search, flowers.disjoint_paths

    def counted(*args):
        searches.append(args)
        return search(*args)

    def capped(d, sources, targets, cutoff):
        # the search never asks for more petal ends than z has neighbours
        assert len(targets) <= len(sources)
        return link(d, sources, targets, cutoff)

    monkeypatch.setattr(flowers, "_search", counted)
    monkeypatch.setattr(flowers, "disjoint_paths", capped)
    rng = random.Random(13)
    for _ in range(60):
        g, s = hub_instance(rng)
        want = brute_force_flower(g, s, 0)
        assert max_flower(g, s, 0).order == want
        for t in range(want + 2):
            assert has_flower_of_order(g, s, 0, t) == (t <= want)
    # every decision the count cannot settle goes to the search
    assert sum(1 for args in searches if args[3] is not None) > 60


def test_greedy_ladder_flower_decisions_need_no_search(monkeypatch):
    decisions = []
    decide = ruleengine.has_flower_of_order

    def counted(*args):
        decisions.append(decide(*args))
        return decisions[-1]

    def boom(*args, **kwargs):
        raise AssertionError("the DFS ran")

    monkeypatch.setattr(ruleengine, "has_flower_of_order", counted)
    monkeypatch.setattr(flowers, "_search", boom)
    # straight to the engine: `run_rules` answers this "no" with its
    # S-cycle packing
    rep = reduce_pairs(normalize(gnm(100, 150, 16, 3, seed=11)).instance,
                       provider=feasible_z_greedy)
    assert rep.outcome == "reduced"
    assert len(decisions) > 0


def test_greedy_ladder_yes_decisions_link_one_set_per_petal(monkeypatch):
    # the search settles each "yes" on its first branch: one flow per
    # segment added, t in all, and the petals come from the last of them
    calls = []
    decisions = []
    decide, link = ruleengine.has_flower_of_order, flowers.disjoint_paths

    def counted_link(*args, **kwargs):
        calls.append(args)
        return link(*args, **kwargs)

    def counted(*args):
        before = len(calls)
        yes = decide(*args)
        decisions.append((args[3], yes, len(calls) - before))
        return yes

    monkeypatch.setattr(flowers, "disjoint_paths", counted_link)
    monkeypatch.setattr(ruleengine, "has_flower_of_order", counted)
    rep = reduce_pairs(normalize(gnm(150, 225, 25, 3, seed=11)).instance,
                       provider=feasible_z_greedy)
    assert rep.outcome == "trivial-no"
    yes = [(t, n) for t, ok, n in decisions if ok]
    assert yes
    assert all(n == t for t, n in yes)


def _loaded_center(rng, z=1):
    """A random small multigraph with S-loops and parallel S-edges at z, and
    some S-edges elsewhere."""
    g, eids = random_multigraph(rng, n_hi=7)
    s = set(rng.sample(eids, rng.randint(0, min(3, len(eids)))))
    for _ in range(rng.randint(0, 2)):
        s.add(g.add_edge(z, z))
    for v in rng.sample(g.vertices(), rng.randint(0, min(3, g.n))):
        if v != z:
            for _ in range(rng.randint(1, 2)):
                s.add(g.add_edge(z, v))
    return g, frozenset(s)


def test_apath_bound_keeps_every_decision(monkeypatch):
    settled = []
    bound = flowers.gallai_blocker_or_packing

    def counted(*args):
        res = bound(*args)
        settled.append(res.packing is None)
        return res

    monkeypatch.setattr(flowers, "gallai_blocker_or_packing", counted)
    rng = random.Random(21)
    for i in range(400):
        g, s = hub_instance(rng) if i % 2 else _loaded_center(rng)
        z = 0 if i % 2 else 1
        want = brute_force_flower(g, s, z)
        for t in range(want + 2):
            assert has_flower_of_order(g, s, z, t) == (t <= want)
    # the bound both answers "no" and lets decisions through to the search
    assert settled.count(True) > 80
    assert settled.count(False) > 800


@pytest.mark.parametrize("leaves", [5, 7, 12, 20, 30])
def test_leaf_fan_hub_no_needs_no_flow(monkeypatch, leaves):
    # every petal at the hub runs through y, so one N(z)-path at most: the
    # bound settles t = 3 and 4 however many leaves the fan has
    def boom(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(flowers, "_search", boom)
    monkeypatch.setattr(flowers, "disjoint_paths", boom)
    inst = leaf_fan(leaves, 2)
    for t in (3, 4):
        assert not has_flower_of_order(inst.graph, inst.s, 1, t)
