"""Randomized end-to-end checking.

A sweep mixes the two random models with the gadget suite, runs the full
reduction on each instance, and compares answers with the exhaustive solver.
Providers alternate between the exact one and the greedy one: with the exact
provider every yes-instance short-circuits before the rules run, so the
greedy provider (which carries no approximation certificate and therefore
never triggers the early no-answer) is what exercises the rules on solvable
inputs.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .generators import bubble_forest, gadget_suite, gnm
from .multigraph import PairInstance
from .oracle import (MAX_EXACT_BUDGET, MAX_EXACT_VERTICES, feasible_z_greedy,
                     solve_exact)
from .pipeline import run_matroid, run_rules

SOLVE_CAP = 60   # reduced outputs stay small; the default oracle cap is tighter


@dataclass
class SweepReport:
    trials: int = 0
    failures: list[str] = field(default_factory=list)
    rule_counts: Counter = field(default_factory=Counter)
    outcomes: Counter = field(default_factory=Counter)
    largest_output: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [f"trials: {self.trials}",
               f"failures: {len(self.failures)}",
               f"outcomes: {dict(sorted(self.outcomes.items()))}",
               f"rule firings: {dict(sorted(self.rule_counts.items()))}",
               f"largest reduced instance: {self.largest_output} vertices"]
        out += [f"FAIL {msg}" for msg in self.failures]
        return out


def _check_one(rep: SweepReport, tag: str, pinst: PairInstance,
               provider, seed: int) -> dict[int, int]:
    """Run both stages on one instance and compare all answers; returns the
    rule firing counts."""
    rep.trials += 1
    want = solve_exact(pinst).found
    counts: dict[int, int] = {}
    try:
        stage1 = run_rules(pinst, provider=provider)
        if stage1.engine is not None:
            counts = stage1.engine.rule_counts
        mid = solve_exact(stage1.final, n_cap=SOLVE_CAP).found
        if mid != want:
            rep.failures.append(f"{tag}: rule stage flipped {want} to {mid}")
            return counts
        full = stage1
        if stage1.outcome == "reduced":
            full = run_matroid(stage1.final, seed)
        rep.outcomes[full.outcome] += 1
        rep.largest_output = max(rep.largest_output, full.final.graph.n)
        got = solve_exact(full.final, n_cap=SOLVE_CAP).found
        if got != want:
            rep.failures.append(f"{tag}: full pipeline flipped {want} to {got}")
    except Exception as exc:   # surface, never hide, a crashing reduction
        rep.failures.append(f"{tag}: {type(exc).__name__}: {exc}")
        return counts
    for rule, c in counts.items():
        rep.rule_counts[rule] += c
    return counts


def run_sweep(trials: int = 200, seed: int = 0, n_max: int = 10,
              k_max: int = 3) -> SweepReport:
    for name, value, least, most in (
            ("trials", trials, 0, None),
            ("n_max", n_max, 4, MAX_EXACT_VERTICES),
            ("k_max", k_max, 0, MAX_EXACT_BUDGET)):
        flag = f"{name} (--{name.replace('_', '-')})"
        if value < least:   # randint fails on an empty range; range() is silent
            raise ValueError(f"{flag} must be at least {least}, got {value}")
        if most is not None and value > most:   # the exact solver's caps
            raise ValueError(f"{flag} must be at most {most}, got {value}")
    rep = SweepReport()

    for gad in gadget_suite():
        want = solve_exact(gad.pinst).found
        if want != gad.expected:
            rep.failures.append(
                f"gadget {gad.name}: expected answer {gad.expected}, "
                f"solver says {want}")
            continue
        counts = _check_one(rep, f"gadget {gad.name}", gad.pinst,
                            gad.provider, seed)
        missing = [r for r in gad.fires if not counts.get(r)]
        if missing:
            rep.failures.append(
                f"gadget {gad.name}: rules {missing} did not fire "
                f"(got {sorted(counts)})")

    for tag, pinst, provider, iseed in sweep_instances(trials, seed, n_max,
                                                       k_max):
        _check_one(rep, tag, pinst, provider, iseed)

    return rep


def sweep_instances(trials: int, seed: int, n_max: int, k_max: int):
    """The sweep's random trials after the gadgets: (tag, instance, provider,
    seed of the matroid stage) for each."""
    rng = random.Random(seed)
    for i in range(trials):
        iseed = rng.randrange(1 << 30)
        if i % 2 == 0:
            n = rng.randint(4, n_max)
            m = rng.randint(max(2, n - 3), n + 4)
            pinst = gnm(n, m, rng.randint(0, min(5, m)),
                        rng.randint(0, k_max), iseed)
            tag = f"gnm[{i}] seed={iseed}"
        else:
            pinst = bubble_forest(iseed)
            tag = f"bubble-forest[{i}] seed={iseed}"
        provider = None if (i // 2) % 2 == 0 else feasible_z_greedy
        yield tag, pinst, provider, iseed
