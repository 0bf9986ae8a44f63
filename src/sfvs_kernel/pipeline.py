"""End-to-end reduction: normalize, run the pair rules, realize the pairs,
normalize again, then shrink around S with the matroid stage.

Each stage returns an equivalent instance. The staged entry points exist so
the CLI can stop after the rule stage or run the matroid stage alone.

Before the rules run, a greedy packing of vertex-disjoint S-cycles settles
the easy "no": k + 1 of them need k + 1 deletions. The matroid stage alone
skips this exit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .multigraph import (Instance, PairInstance, is_s_cycle, normalize,
                         s_cycle_packing)
from .ruleengine import EngineReport, Provider, reduce_pairs
from .skernel import KernelReport, canonical_no, kernelize_by_s


@dataclass
class PipelineReport:
    outcome: str              # "reduced" | "trivial-yes" | "trivial-no"
    final: Instance
    engine: Optional[EngineReport]
    kernel: Optional[KernelReport]


def _normalized(pinst: PairInstance) -> Optional[PairInstance]:
    """None means the forced deletions already overran the budget."""
    norm = normalize(pinst)
    if norm.instance.k < 0:
        return None
    return norm.instance


def _packs_past_budget(inst: PairInstance) -> bool:
    """Does a packing of k + 1 vertex-disjoint S-cycles answer "no"? Not
    tried at k = 0, where rule 1 answers with one bridge pass. The packing is
    re-checked before it is believed; a bad one raises, never answers."""
    if inst.k < 1:
        return False
    cycles = s_cycle_packing(inst.graph, inst.s, inst.k + 1)
    if len(cycles) <= inst.k:
        return False
    used: set[int] = set()
    for cycle in cycles:
        if used.intersection(cycle):
            raise AssertionError("packed S-cycles must be vertex-disjoint")
        used.update(cycle)
        if not is_s_cycle(inst.graph, inst.s, cycle):
            raise AssertionError(f"packed vertex list {cycle} is not an S-cycle")
    return True


def run_rules(pinst: PairInstance,
              provider: Optional[Provider] = None) -> PipelineReport:
    pinst.validate()
    ninst = _normalized(pinst)
    if ninst is None or _packs_past_budget(ninst):
        return PipelineReport("trivial-no", canonical_no(), None, None)
    rep = reduce_pairs(ninst, provider=provider)
    return PipelineReport(rep.outcome, rep.final, rep, None)


def run_matroid(inst: Instance, seed: int = 0) -> PipelineReport:
    inst.validate()
    ninst = _normalized(inst.with_pairs())
    if ninst is None:
        return PipelineReport("trivial-no", canonical_no(), None, None)
    kr = kernelize_by_s(ninst.drop_pairs(), seed)
    outcome = "trivial-yes" if kr.shortcut else "reduced"
    return PipelineReport(outcome, kr.instance, None, kr)


def run_full(pinst: PairInstance, provider: Optional[Provider] = None,
             seed: int = 0) -> PipelineReport:
    first = run_rules(pinst, provider=provider)
    if first.outcome != "reduced":
        return first
    second = run_matroid(first.final, seed=seed)
    return PipelineReport(second.outcome, second.final,
                          first.engine, second.kernel)
