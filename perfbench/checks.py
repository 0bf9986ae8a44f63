"""Checks of kernelize outputs, made from outside the program and outside the
timed region, so they hold under `python -O` too.

An answer check runs the exhaustive solver on the kernel and compares it with
the known answer or with the solver's answer on the input. The solver's
25-vertex default cap is lifted: at budget k <= 3 its branching stays small
even on a few hundred vertices.
"""
from __future__ import annotations

from math import comb
from typing import Optional

from sfvs_kernel import PairInstance, parse_instance, solve_exact

LIFTED_CAP = 10 ** 6


def matroid_bound(pinst: PairInstance) -> int:
    """C(|T|,2)*k + |T| with |T| = 2|S|: the size bound of the matroid stage."""
    t = 2 * len(pinst.s)
    return comb(t, 2) * pinst.k + t


def check_output(stage: str, expect: Optional[bool], input_text: str,
                 output_text: str) -> list[str]:
    """Reasons the output is wrong; empty when it is right."""
    try:
        pinst = parse_instance(input_text)
        kernel = parse_instance(output_text)
    except ValueError as exc:
        return [f"unreadable instance: {exc}"]
    problems = []
    if stage == "matroid" and kernel.graph.n > matroid_bound(pinst):
        problems.append(f"matroid output has {kernel.graph.n} vertices, "
                        f"bound {matroid_bound(pinst)}")
    want = expect if expect is not None else \
        solve_exact(pinst, n_cap=LIFTED_CAP).found
    got = solve_exact(kernel, n_cap=LIFTED_CAP).found
    if got != want:
        problems.append(f"answer flipped from {want} to {got}")
    return problems
