"""Representative triples over a block matroid via exterior-algebra filtering.

Each triple maps to the coordinate vector of the wedge of its three columns
(two from the first block, one from the second). A triple whose wedge lies in
the span of the wedges kept so far can be dropped: any independent extension
of the dropped triple is also an independent extension of some kept one. The
filter is a single streaming pass, so the kept family never exceeds the wedge
space dimension.
"""
from __future__ import annotations

from math import comb
from typing import Hashable, Sequence

from .fieldlinalg import IncrementalBasis, wedge3_coordinates
from .gammoid import MatroidRep


def representative_triples(rep: MatroidRep, d1: int, d2: int,
                           triples: Sequence[tuple[Hashable, Hashable, Hashable]],
                           ) -> list[tuple[Hashable, Hashable, Hashable]]:
    """Keep a max-rank subfamily of wedge vectors, in input order.

    `rep` must be a direct sum whose first block spans rows 0..d1-1 and second
    block rows d1..d1+d2-1; each triple is (first-block, first-block,
    second-block) column labels. Triples with a zero or dependent wedge are
    dropped.
    """
    if rep.mat.nrows != d1 + d2:
        raise ValueError("row count must match the two block dimensions")
    dim = comb(d1, 2) * d2
    basis = IncrementalBasis()
    kept: list[tuple[Hashable, Hashable, Hashable]] = []
    for a, b, c in triples:
        ca, cb, cc = rep.column(a), rep.column(b), rep.column(c)
        vec = wedge3_coordinates(ca, cb, cc, d1, d2)
        if any(vec) and basis.add(vec):
            kept.append((a, b, c))
    if len(kept) > dim:
        raise AssertionError("kept wedges exceed the wedge space dimension")
    return kept
