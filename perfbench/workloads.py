"""The benchmark's workloads: the instances each one builds from the workload
seed, the `sfvs kernelize` flags it runs them with, and the per-layer metrics
it is meant to move.

The instance files are fixed; the workload seed gives each kernelize call its
`--seed`, the draws of the kernelizer's randomized steps (the flowers'
algebraic bound and the gammoid representation). Inputs that change with the
seed would swamp what a run measures: the kernelizer is not label-invariant,
and relabeling the n=50 gnm-ladder graph moved its time between 0.4 s and
1.6 s, relabeling a leaf fan moved its kernel between 15 and 20 vertices, and
with small-batch relabeled per seed its p99 latency ranged over 12-25 ms in
ten runs, against 11-16 ms in five runs of one fixed labeling.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from sfvs_kernel import Multigraph, PairInstance, bubble_forest, gnm, normalize

# ROADMAP's baseline family is gnm(n, 1.5n, n/6, k=3, seed=11). The sizes
# keep every call near a second or less, so that a run repeats each one and
# measures it against the reference runs around it (README, "Workloads").
GNM_SIZES = (36, 40, 46)
GNM_GRAPH_SEED = 11
FAN_LEAVES = (5, 6, 7)
FAN_K = 2
MATROID_SIZES = (90, 100, 105)
SMALL_COUNT = 1000
SMALL_SWEEP_SEED = 0     # `sfvs verify`'s default seed
SMALL_N_MAX = 12
SMALL_K_MAX = 3


@dataclass(frozen=True)
class Case:
    """One instance and the seed its kernelize call gets."""
    label: str
    pinst: PairInstance
    kseed: int
    expect: Optional[bool]   # known answer; None means ask solve_exact


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stage: str
    provider: str
    moves: tuple[str, ...]   # per-layer metrics it is meant to move
    build: Callable[[random.Random], list[Case]]
    warmup: Callable[[], PairInstance]   # a small instance for the first call

    def flags(self, case: Case) -> list[str]:
        return ["--stage", self.stage, "--provider", self.provider,
                "--seed", str(case.kseed)]


def leaf_fan(leaves: int, k: int) -> PairInstance:
    """A hub h with S-edges to `leaves` leaves that all return through y,
    a path h-x-y, and one recorded pair on a separate edge. Deleting h (or y)
    kills every S-cycle and the pair needs one more vertex, so the minimum
    solution has size 2 at any number of leaves: yes iff k >= 2."""
    g = Multigraph()
    h, x, y = 1, 2, 3
    for v in range(1, leaves + 6):
        g.add_vertex(v)
    g.add_edge(h, x)
    g.add_edge(x, y)
    s = set()
    for i in range(leaves):
        leaf = 4 + i
        s.add(g.add_edge(h, leaf))
        g.add_edge(leaf, y)
    pa, pb = leaves + 4, leaves + 5
    g.add_edge(pa, pb)
    return PairInstance(g, frozenset(s), frozenset([frozenset((pa, pb))]), k)


def _kseed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def _gnm_ladder(rng: random.Random) -> list[Case]:
    return [Case(f"gnm-{n}", gnm(n, 3 * n // 2, n // 6, 3, GNM_GRAPH_SEED),
                 _kseed(rng), None)
            for n in GNM_SIZES]


def _fan_steps(rng: random.Random) -> list[Case]:
    return [Case(f"fan-{leaves}", leaf_fan(leaves, FAN_K), _kseed(rng),
                 expect=FAN_K >= 2)
            for leaves in FAN_LEAVES]


def _matroid_input(n: int) -> PairInstance:
    """Normalized, pair-free gnm(n, 3n/2, n/6 + 2, 3)."""
    return normalize(gnm(n, 3 * n // 2, n // 6 + 2, 3, GNM_GRAPH_SEED)).instance


def _matroid_wide(rng: random.Random) -> list[Case]:
    return [Case(f"matroid-{n}", _matroid_input(n), _kseed(rng), None)
            for n in MATROID_SIZES]


def _small_batch(rng: random.Random) -> list[Case]:
    # the draw of `sfvs verify`'s random sweep at its default seed
    sweep = random.Random(SMALL_SWEEP_SEED)
    out = []
    for i in range(SMALL_COUNT):
        iseed = sweep.randrange(1 << 30)
        if i % 2 == 0:
            n = sweep.randint(4, SMALL_N_MAX)
            m = sweep.randint(max(2, n - 3), n + 4)
            pinst = gnm(n, m, sweep.randint(0, min(5, m)),
                        sweep.randint(0, SMALL_K_MAX), iseed)
            label = f"gnm[{i}]"
        else:
            pinst = bubble_forest(iseed)
            label = f"bubble-forest[{i}]"
        out.append(Case(label, pinst, _kseed(rng), None))
    return out


def _small_fan() -> PairInstance:
    return leaf_fan(3, 2)   # runs the engine and the matroid stage in ~30 ms


def _small_matroid() -> PairInstance:
    return normalize(gnm(16, 24, 5, 1, GNM_GRAPH_SEED)).instance


WORKLOADS = {w.name: w for w in (
    Workload(
        "gnm-ladder",
        "ROADMAP's baseline gnm family at n=36/40/46: one or two engine steps, "
        "spent in the Gallai-Edmonds witness and the flower decisions",
        "full", "greedy",
        ("pathpacking.gallai_calls", "pathpacking.gallai_s",
         "pathpacking.matching_calls", "pathpacking.matching_s",
         "pathpacking.apath_check_calls", "flowers.decide_calls",
         "flowers.decide_s", "gammoid.linked_calls", "gammoid.linked_s",
         "gammoid.represent_s", "fieldlinalg.rref_s", "oracle.provider_s",
         "multigraph.s_cycle_calls"),
        _gnm_ladder, _small_fan),
    Workload(
        "fan-steps",
        "leaf fans with 5-7 leaves at k=2: many rule-9/10 steps on one small "
        "graph, so per-step recomputation dominates, not asymptotics",
        "full", "exact",
        ("ruleengine.steps", "ruleengine.self_s", "ruleengine.blocker_calls",
         "ruleengine.blocker_s", "ruleengine.decompose_calls",
         "ruleengine.fired_r9", "ruleengine.fired_r10",
         "flowers.decide_calls", "flowers.decide_s",
         "pathpacking.gallai_calls", "pathpacking.matching_calls",
         "multigraph.bridges_calls", "multigraph.bridges_s",
         "oracle.provider_s"),
        _fan_steps, _small_fan),
    Workload(
        "matroid-wide",
        "normalized pair-free gnm at n=90/100/105 through --stage matroid: "
        "mod-p elimination on the 3n-column gammoid, no rule engine",
        "matroid", "exact",
        ("gammoid.represent_calls", "gammoid.represent_s",
         "gammoid.represent_cols", "fieldlinalg.rref_calls",
         "fieldlinalg.rref_s", "fieldlinalg.rref_cells",
         "fieldlinalg.basis_adds", "fieldlinalg.basis_add_s",
         "fieldlinalg.basis_accept_ratio", "repsets.filter_s",
         "repsets.offered", "repsets.kept", "skernel.kernel_s",
         "skernel.kept_over_dim", "skernel.bound_headroom",
         "multigraph.torso_s"),
        _matroid_wide, _small_matroid),
    Workload(
        "small-batch",
        "1000 tiny verify-sweep instances: per-call fixed costs (argparse, "
        "file I/O, set-up of graphs) dominate, so set-up-heavy speed-ups lose",
        "full", "exact",
        ("instancefile.parse_s", "instancefile.serialize_s",
         "multigraph.normalize_s", "multigraph.torso_s",
         "multigraph.bridges_calls", "multigraph.bridges_s",
         "multigraph.s_cycle_calls", "oracle.provider_calls",
         "oracle.provider_s", "other.self_s"),
        _small_batch, _small_fan),
)}
