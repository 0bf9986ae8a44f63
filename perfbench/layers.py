"""Where the traced pass probes each layer, and the per-layer metrics it reports.

A layer is a module of `src/sfvs_kernel/`. Each probe wraps a function at the
attribute its caller looks up (`ruleengine.has_flower_of_order`, not
`flowers.has_flower_of_order`), so the program itself is not changed. Self
times are per layer; time spent in a kernelize call outside every probe
(argparse, file I/O, unprobed helpers) is the layer `other`. Inclusive times
(`*_s` other than `self_s`) assume a probe never runs inside itself, which
holds for every probe below.
"""
from __future__ import annotations

from collections import Counter
from math import comb

import networkx

from sfvs_kernel import (cli, fieldlinalg, flowers, multigraph, oracle,
                         pathpacking, pipeline, ruleengine, skernel)
from .tracer import Probe, Tracer

LAYERS = ("instancefile", "pipeline", "multigraph", "oracle", "ruleengine",
          "flowers", "pathpacking", "gammoid", "fieldlinalg", "repsets",
          "skernel")
OTHER = "other"


def _yes(key: str):
    def count(c: Counter, args: tuple, result) -> None:
        c[key] += bool(result)
    return count


def _fired(c: Counter, args: tuple, rule) -> None:
    if rule is not None:
        c[f"ruleengine.fired_r{rule}"] += 1


def _represent_cols(c: Counter, args: tuple, result) -> None:
    c["gammoid.represent_cols"] += len(args[0].vertices)


def _rref_cells(c: Counter, args: tuple, result) -> None:
    m = args[0]
    c["fieldlinalg.rref_cells"] += m.nrows * m.ncols


def _filtered(c: Counter, args: tuple, kept) -> None:
    c["repsets.offered"] += len(args[3])
    c["repsets.kept"] += len(kept)


def _kernel(c: Counter, args: tuple, rep) -> None:
    if rep.shortcut is not None:
        return
    t, k = len(rep.t), rep.instance.k
    dim = comb(t, 2) * k
    c["skernel.kept"] += rep.kept_triples
    c["skernel.dim"] += dim
    c["skernel.out_n"] += rep.instance.graph.n
    c["skernel.bound"] += dim + t


def probes() -> list[Probe]:
    return [
        Probe(cli, "parse_instance", "instancefile.parse"),
        Probe(cli, "serialize_instance", "instancefile.serialize"),
        Probe(cli, "run_full", "pipeline.run_full"),
        Probe(cli, "run_rules", "pipeline.run_rules"),
        Probe(pipeline, "run_rules", "pipeline.run_rules"),
        Probe(cli, "run_matroid", "pipeline.run_matroid"),
        Probe(pipeline, "run_matroid", "pipeline.run_matroid"),
        Probe(pipeline, "normalize", "multigraph.normalize"),
        Probe(skernel, "torso", "multigraph.torso"),
        Probe(multigraph.Multigraph, "bridges", "multigraph.bridges"),
        Probe(multigraph, "has_s_cycle", "multigraph.has_s_cycle"),
        Probe(oracle, "has_s_cycle", "multigraph.has_s_cycle"),
        Probe(ruleengine, "has_s_cycle", "multigraph.has_s_cycle"),
        Probe(cli, "feasible_z_greedy", "oracle.provider"),
        Probe(ruleengine, "feasible_z_exact", "oracle.provider"),
        Probe(pipeline, "reduce_pairs", "ruleengine.reduce_pairs"),
        Probe(ruleengine, "_apply_once", "ruleengine.step", _fired),
        Probe(ruleengine, "decompose", "ruleengine.decompose"),
        Probe(ruleengine, "compute_blocker", "ruleengine.blocker"),
        Probe(ruleengine, "has_flower_of_order", "flowers.decide",
              _yes("flowers.yes")),
        Probe(ruleengine, "gallai_blocker_or_packing", "pathpacking.gallai"),
        Probe(ruleengine, "exists_apath", "pathpacking.apath_check"),
        Probe(pathpacking, "exists_apath", "pathpacking.apath_check"),
        Probe(networkx, "max_weight_matching", "pathpacking.matching"),
        Probe(flowers, "linked", "gammoid.linked", _yes("gammoid.linked_yes")),
        Probe(flowers, "represent", "gammoid.represent", _represent_cols),
        Probe(skernel, "represent", "gammoid.represent", _represent_cols),
        Probe(fieldlinalg.FieldMatrix, "rref", "fieldlinalg.rref", _rref_cells),
        Probe(fieldlinalg.IncrementalBasis, "add", "fieldlinalg.basis_add",
              _yes("fieldlinalg.basis_accepted")),
        Probe(skernel, "representative_triples", "repsets.filter", _filtered),
        Probe(pipeline, "kernelize_by_s", "skernel.kernelize", _kernel),
    ]


# (name, unit, better); BENCHMARK.json's per_layer list is this list
METRICS = [
    ("pathpacking.gallai_calls", "count", "lower"),
    ("pathpacking.gallai_s", "s", "lower"),
    ("pathpacking.matching_calls", "count", "lower"),
    ("pathpacking.matching_s", "s", "lower"),
    ("pathpacking.apath_check_calls", "count", "lower"),
    ("pathpacking.self_s", "s", "lower"),
    ("flowers.decide_calls", "count", "lower"),
    ("flowers.decide_s", "s", "lower"),
    ("flowers.yes_ratio", "ratio", "higher"),
    ("flowers.self_s", "s", "lower"),
    ("gammoid.linked_calls", "count", "lower"),
    ("gammoid.linked_s", "s", "lower"),
    ("gammoid.linked_yes_ratio", "ratio", "higher"),
    ("gammoid.represent_calls", "count", "lower"),
    ("gammoid.represent_s", "s", "lower"),
    ("gammoid.represent_cols", "count", "lower"),
    ("gammoid.self_s", "s", "lower"),
    ("ruleengine.steps", "count", "lower"),
    ("ruleengine.self_s", "s", "lower"),
    ("ruleengine.blocker_calls", "count", "lower"),
    ("ruleengine.blocker_s", "s", "lower"),
    ("ruleengine.decompose_calls", "count", "lower"),
] + [(f"ruleengine.fired_r{r}", "count", "lower") for r in range(1, 11)] + [
    ("fieldlinalg.rref_calls", "count", "lower"),
    ("fieldlinalg.rref_s", "s", "lower"),
    ("fieldlinalg.rref_cells", "count", "lower"),
    ("fieldlinalg.basis_adds", "count", "lower"),
    ("fieldlinalg.basis_add_s", "s", "lower"),
    ("fieldlinalg.basis_accept_ratio", "ratio", "higher"),
    ("fieldlinalg.self_s", "s", "lower"),
    ("repsets.filter_s", "s", "lower"),
    ("repsets.offered", "count", "lower"),
    ("repsets.kept", "count", "lower"),
    ("repsets.self_s", "s", "lower"),
    ("skernel.kernel_s", "s", "lower"),
    ("skernel.kept_over_dim", "ratio", "lower"),
    ("skernel.bound_headroom", "ratio", "lower"),
    ("skernel.self_s", "s", "lower"),
    ("multigraph.normalize_s", "s", "lower"),
    ("multigraph.torso_s", "s", "lower"),
    ("multigraph.bridges_calls", "count", "lower"),
    ("multigraph.bridges_s", "s", "lower"),
    ("multigraph.s_cycle_calls", "count", "lower"),
    ("multigraph.self_s", "s", "lower"),
    ("oracle.provider_calls", "count", "lower"),
    ("oracle.provider_s", "s", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("instancefile.parse_s", "s", "lower"),
    ("instancefile.serialize_s", "s", "lower"),
    ("instancefile.self_s", "s", "lower"),
    ("pipeline.rules_s", "s", "lower"),
    ("pipeline.matroid_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def layer_of(sp) -> str:
    return OTHER if sp.parent < 0 else sp.name.partition(".")[0]


def self_by_layer(tracer: Tracer) -> dict[str, float]:
    """Self time per layer, `other` included; the values add up to the
    summed duration of the root spans."""
    out = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    for sp, own in zip(tracer.spans, tracer.self_times()):
        out[layer_of(sp)] += own
    return out


def _ratio(num: float, den: float) -> float:
    """0 when nothing was attempted."""
    return num / den if den else 0.0


def summarize(tracer: Tracer) -> dict[str, float]:
    """Every metric of METRICS except trace.overhead_ratio, for one pass."""
    calls: Counter = Counter()
    incl: Counter = Counter()
    for sp in tracer.spans:
        calls[sp.name] += 1
        incl[sp.name] += sp.duration
    c = tracer.counts
    out = {f"{layer}.self_s": s for layer, s in self_by_layer(tracer).items()}
    out.update({
        "pathpacking.gallai_calls": calls["pathpacking.gallai"],
        "pathpacking.gallai_s": incl["pathpacking.gallai"],
        "pathpacking.matching_calls": calls["pathpacking.matching"],
        "pathpacking.matching_s": incl["pathpacking.matching"],
        "pathpacking.apath_check_calls": calls["pathpacking.apath_check"],
        "flowers.decide_calls": calls["flowers.decide"],
        "flowers.decide_s": incl["flowers.decide"],
        "flowers.yes_ratio": _ratio(c["flowers.yes"], calls["flowers.decide"]),
        "gammoid.linked_calls": calls["gammoid.linked"],
        "gammoid.linked_s": incl["gammoid.linked"],
        "gammoid.linked_yes_ratio": _ratio(c["gammoid.linked_yes"],
                                           calls["gammoid.linked"]),
        "gammoid.represent_calls": calls["gammoid.represent"],
        "gammoid.represent_s": incl["gammoid.represent"],
        "gammoid.represent_cols": c["gammoid.represent_cols"],
        "ruleengine.steps": calls["ruleengine.step"],
        "ruleengine.blocker_calls": calls["ruleengine.blocker"],
        "ruleengine.blocker_s": incl["ruleengine.blocker"],
        "ruleengine.decompose_calls": calls["ruleengine.decompose"],
        "fieldlinalg.rref_calls": calls["fieldlinalg.rref"],
        "fieldlinalg.rref_s": incl["fieldlinalg.rref"],
        "fieldlinalg.rref_cells": c["fieldlinalg.rref_cells"],
        "fieldlinalg.basis_adds": calls["fieldlinalg.basis_add"],
        "fieldlinalg.basis_add_s": incl["fieldlinalg.basis_add"],
        "fieldlinalg.basis_accept_ratio": _ratio(c["fieldlinalg.basis_accepted"],
                                                 calls["fieldlinalg.basis_add"]),
        "repsets.filter_s": incl["repsets.filter"],
        "repsets.offered": c["repsets.offered"],
        "repsets.kept": c["repsets.kept"],
        "skernel.kernel_s": incl["skernel.kernelize"],
        "skernel.kept_over_dim": _ratio(c["skernel.kept"], c["skernel.dim"]),
        "skernel.bound_headroom": _ratio(c["skernel.out_n"], c["skernel.bound"]),
        "multigraph.normalize_s": incl["multigraph.normalize"],
        "multigraph.torso_s": incl["multigraph.torso"],
        "multigraph.bridges_calls": calls["multigraph.bridges"],
        "multigraph.bridges_s": incl["multigraph.bridges"],
        "multigraph.s_cycle_calls": calls["multigraph.has_s_cycle"],
        "oracle.provider_calls": calls["oracle.provider"],
        "oracle.provider_s": incl["oracle.provider"],
        "instancefile.parse_s": incl["instancefile.parse"],
        "instancefile.serialize_s": incl["instancefile.serialize"],
        "pipeline.rules_s": incl["pipeline.run_rules"],
        "pipeline.matroid_s": incl["pipeline.run_matroid"],
    })
    for r in range(1, 11):
        key = f"ruleengine.fired_r{r}"
        out[key] = c[key]
    return out
