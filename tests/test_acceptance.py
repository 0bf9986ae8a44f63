"""Acceptance suite: nine end-to-end checks, one pass/fail line each.

Every check is a plain pytest test; the printed line summarizes the evidence
(trial counts, zero-violation tallies) once its assertions have all passed.
Sample sizes here are the suite's contract, not tuning knobs: equivalence
sweeps run at 500 instances, oracle cross-checks at 100-250 depending on the
cost of their exhaustive reference.
"""
import itertools
import random
from math import comb

import pytest

from helpers import (brute_nu, check_representative, random_block_matroid,
                     random_instance, random_multigraph)
from sfvs_kernel.flowers import max_flower
from sfvs_kernel.gammoid import linked, represent
from sfvs_kernel.generators import bubble_forest, gadget_suite, gnm
from sfvs_kernel.multigraph import has_s_cycle, normalize, torso
from sfvs_kernel.oracle import brute_force_flower, feasible_z_greedy
from sfvs_kernel.pathpacking import (exists_apath, gallai_blocker_or_packing,
                                     max_disjoint_apaths, verify_apaths)
from sfvs_kernel.pipeline import run_matroid, run_rules
from sfvs_kernel.repsets import representative_triples
from sfvs_kernel.verify import run_sweep
from test_gammoid import random_digraph


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(trials=500, seed=20260816, n_max=16, k_max=3)


def test_criterion_1_full_pipeline_equivalence(sweep):
    assert sweep.trials >= 500
    for msg in sweep.failures:
        print("FAIL", msg)
    assert sweep.failures == []
    print(f"criterion 1 (full-pipeline equivalence): PASS "
          f"({sweep.trials} trials, n <= 16, k <= 3, both generators, "
          f"0 mismatches)")


def test_criterion_2_matroid_stage_size_bound():
    rng = random.Random(92)
    runs = reduced = 0
    for _ in range(200):
        pinst = random_instance(rng, n_hi=12, s_hi=5, k_hi=3)
        rep = run_matroid(pinst.drop_pairs(), seed=rng.randrange(1 << 30))
        if rep.kernel is None:      # normalization overran the budget
            continue
        kr = rep.kernel
        t = len(kr.t)
        bound = comb(t, 2) * kr.instance.k + t
        assert kr.instance.graph.n <= bound, (t, kr.instance.k)
        runs += 1
        if kr.shortcut is None:
            reduced += 1
    assert reduced >= 10
    print(f"criterion 2 (matroid-stage size bound): PASS "
          f"({runs} kernel runs, {reduced} past the shortcuts, "
          f"|V| <= C(|T|,2)k + |T| in all, 0 violations)")


def test_criterion_3_rule_stage_size_bounds():
    rng = random.Random(93)
    checked = 0
    jobs = [(gad.pinst, gad.provider) for gad in gadget_suite()]
    for i in range(200):
        if i % 2 == 0:
            m = rng.randint(1, 20)
            pinst = gnm(rng.randint(2, 12), m, rng.randint(0, min(5, m)),
                        rng.randint(0, 3), seed=rng.randrange(1 << 30))
        else:
            pinst = bubble_forest(rng.randrange(1 << 30), n_max=12)
        provider = (lambda g, s: feasible_z_greedy(g, s)) if i % 4 < 2 else None
        jobs.append((pinst, provider))
    for pinst, provider in jobs:
        rep = run_rules(pinst, provider=provider)
        eng = rep.engine
        if eng is None or rep.outcome != "reduced":
            continue
        stats = eng.stats
        kk, nz, b = stats["k"], stats["z"], stats["b"]
        assert len(eng.fixpoint.pairs) <= kk * kk
        assert stats["m"] <= (kk + 1) * nz * nz + kk * nz
        assert stats["l"] <= (kk + 1) * nz * (b + nz) + kk * nz
        assert len(rep.final.s) <= 2 * stats["m"] + stats["l"] + kk * kk
        checked += 1
    assert checked >= 2
    print(f"criterion 3 (rule-stage size bounds): PASS "
          f"({len(jobs)} engine runs, {checked} reached a counted fixpoint, "
          f"|P|, |M|, |L|, |S'| all within bounds, 0 violations)")


def test_criterion_4_representative_triples():
    rng = random.Random(94)
    demands = 0
    for _ in range(120):
        m, d1, d2, triples = random_block_matroid(rng, d1_hi=5, d2_hi=2,
                                                  ground_hi=10)
        kept = representative_triples(m, d1, d2, triples)
        demands += check_representative(m, d1, d2, triples, kept)
    assert demands > 0
    print(f"criterion 4 (representative triples): PASS "
          f"(120 block matroids, |T| <= 5, k <= 2, ground <= 10, "
          f"{demands} extension demands met exhaustively, 0 violations)")


def test_criterion_5_gammoid_representation():
    rng = random.Random(95)
    compared = 0
    for _ in range(120):
        d = random_digraph(rng, n_hi=8)
        vs = list(d.vertices)
        sources = rng.sample(vs, rng.randint(0, min(4, len(vs))))
        rep = represent(d, sources, vs, rng)
        for size in range(0, 5):
            for t in itertools.combinations(vs, size):
                assert rep.is_independent(t) == linked(d, sources, t), \
                    (sources, t)
                compared += 1
    print(f"criterion 5 (gammoid representation): PASS "
          f"(120 digraphs <= 8 vertices, {compared} subsets of size <= 4 "
          f"against the flow oracle, 0 disagreements)")


def test_criterion_6_flower_oracle():
    rng = random.Random(96)
    for trial in range(220):
        pinst = random_instance(rng, n_hi=9, s_hi=4)
        g, s = pinst.graph, pinst.s
        z = rng.choice(g.vertices())
        assert max_flower(g, s, z).order == brute_force_flower(g, s, z), trial
    print("criterion 6 (flower oracle equivalence): PASS "
          "(220 instances <= 9 vertices, |S| <= 4, orders equal in all, "
          "0 mismatches)")


def test_criterion_7_gallai_duality():
    rng = random.Random(97)
    packings = blockers = 0
    for _ in range(220):
        g, _ = random_multigraph(rng, n_hi=9)
        vs = g.vertices()
        a = frozenset(rng.sample(vs, rng.randint(0, min(5, len(vs)))))
        k = rng.randint(0, 3)
        nu = brute_nu(g, a)
        assert len(max_disjoint_apaths(g, a)) == nu
        res = gallai_blocker_or_packing(g, a, k)
        if res.packing is not None:
            verify_apaths(g, a, res.packing.paths)
            assert len(res.packing) == k + 1 and nu >= k + 1
            packings += 1
        else:
            assert nu <= k
            assert len(res.blocker) <= 2 * nu
            assert not exists_apath(g, a, res.blocker)
            blockers += 1
    print(f"criterion 7 (packing/blocker duality): PASS "
          f"(220 queries, {packings} verified packings, {blockers} verified "
          f"blockers <= 2 nu, max packing matched exhaustively, 0 violations)")


def test_criterion_8_torso_equivalence():
    rng = random.Random(98)
    checked = 0
    for _ in range(250):
        pinst = random_instance(rng, n_hi=10)
        g, s = pinst.graph, pinst.s
        vs_of_s = {v for e in s for v in g.endpoints(e)}
        extra = [v for v in g.vertices() if v not in vs_of_s]
        rng.shuffle(extra)
        w = sorted(vs_of_s | set(extra[:rng.randint(0, len(extra))]))
        t = torso(g, w)
        assert s <= set(t.edges)
        for size in range(0, 4):
            for x in itertools.combinations(w, size):
                assert has_s_cycle(g, s, frozenset(x)) == \
                    has_s_cycle(t, s, frozenset(x)), (w, x)
                checked += 1
    print(f"criterion 8 (torso equivalence): PASS "
          f"(250 graphs <= 10 vertices, {checked} deletion sets of size <= 3, "
          f"0 disagreements)")


def test_criterion_9_every_rule_fires(sweep):
    missing = [r for r in range(1, 11) if sweep.rule_counts.get(r, 0) < 1]
    assert not missing, f"rules never fired: {missing}"
    fired = {r: sweep.rule_counts[r] for r in sorted(sweep.rule_counts)}
    print(f"criterion 9 (rule coverage): PASS "
          f"(sweep fired every rule 1-10: {fired})")
