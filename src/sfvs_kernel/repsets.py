"""Representative triples in a direct sum of two matroids via
exterior-algebra filtering.

The direct sum is only the math here: each triple is given as its own three
vectors, two of length d1 from the first summand and one of length d2 from
the second. A triple maps to the wedge of those vectors, a vector of
C(d1,2)*d2 coordinates. A triple whose wedge lies in the span of the wedges
kept so far can be dropped: any independent extension of the dropped triple
is also an independent extension of some kept one. The filter is a single
streaming pass, so the kept family never exceeds the wedge space dimension,
and the pass stops as soon as the kept wedges span that space.

Before that pass runs, a certificate is tried. Triples with a zero wedge are
found by 2x2 minors alone. The m nonzero wedges a^b^c are projected by one
random r x d1 matrix U to (Ua)^(Ub)^c, which has only C(r,2)*d2
coordinates, with r the least value for which that is at least m (at most
d1). The projection w -> (Lambda^2 U (x) I) w is linear, so a dependent
family of wedges has a dependent image; if the m projected wedges are
independent, so are the wedges, and the streaming pass would keep exactly
those m triples, which are returned directly. Otherwise the streaming pass
runs over the m triples as before. Either way the result is exact: the
projection's draws decide only how long the filter takes, so it adds no
failure probability and needs no caller's randomness. Wedges sharing a
factor v span a space that the projection maps into (Uv)^F^r(x)F^d2, of
dimension (r-1)*d2, so a large such "star" family can refute the
certificate although it is independent; it then pays for the exact pass.
"""
from __future__ import annotations

import random
from math import comb
from typing import Callable, Hashable, Mapping, Sequence

from .fieldlinalg import (PRIME, IncrementalBasis, wedge3_coordinates,
                          wedge3_nonzero)

Columns = tuple[Sequence[int], Sequence[int], Sequence[int]]

# Any fixed value: the kept family does not depend on the draws.
_SKETCH_SEED = 8


def representative_triples(columns: Mapping[Hashable, Sequence[int]],
                           d1: int, d2: int,
                           triples: Sequence[tuple[Hashable, Hashable, Hashable]],
                           ) -> list[tuple[Hashable, Hashable, Hashable]]:
    """Keep a max-rank subfamily of wedge vectors, in input order.

    `columns` maps each label to its vector over F_p, entries any ints: the
    first two labels of a triple must name vectors of length d1 and the third
    a vector of length d2. Triples with a zero or dependent wedge are dropped.
    """
    vec = {x: [e % PRIME for e in columns[x]]
           for x in dict.fromkeys(x for t in triples for x in t)}
    cols = [(vec[a], vec[b], vec[c]) for a, b, c in triples]
    if any((len(a), len(b), len(c)) != (d1, d1, d2) for a, b, c in cols):
        raise ValueError("a triple's vectors must have lengths d1, d1 and d2")
    dim = comb(d1, 2) * d2
    live = [i for i, (a, b, c) in enumerate(cols) if wedge3_nonzero(a, b, c)]
    live_cols = [cols[i] for i in live]
    if not (len(live) <= dim and _independent(live_cols)):
        live = [live[j] for j in _eliminate(live_cols, dim)]
    kept = [triples[i] for i in live]
    if len(kept) > dim:
        raise AssertionError("kept wedges exceed the wedge space dimension")
    return kept


def _independent(cols: list[Columns]) -> bool:
    """True if the wedges of cols are certainly linearly independent: their
    projected wedges (Ua)^(Ub)^c are, for one random r x d1 matrix U with the
    least r such that C(r,2)*d2 >= len(cols), at most d1. False means the
    projected wedges were dependent, which independent wedges give by chance
    or when many of them share a factor. Entries must lie in [0, p)."""
    m = len(cols)
    if not m:
        return True
    d1, d2 = len(cols[0][0]), len(cols[0][2])
    r = next((r for r in range(2, d1) if comb(r, 2) * d2 >= m), d1)
    project = _random_projector(random.Random(_SKETCH_SEED), d1, r)
    basis = IncrementalBasis()
    return all(basis.add(wedge3_coordinates(project(a), project(b), c))
               for a, b, c in cols)


def _random_projector(rng: random.Random, dim: int, count: int
                      ) -> Callable[[Sequence[int]], list[int]]:
    """The map v -> [f . v for f in F] for `count` random functionals F on
    vectors of length `dim` with entries in [0, p).

    Kronecker substitution: coordinate j of every functional lives in one
    int, a slot of `width` bytes per functional holding a random value below
    2^61, with room above it so that no dot product carries into the next
    slot. One combination of these ints holds all the dot products at once,
    unreduced, and drawing a coordinate is one draw of random bytes.
    """
    width = (2 * PRIME.bit_length() + dim.bit_length() + 7) // 8
    size = width * count
    slot = (1 << PRIME.bit_length()) - 1
    mask = int.from_bytes(slot.to_bytes(width, "little") * count, "little")
    packed = [int.from_bytes(rng.randbytes(size), "little") & mask
              for _ in range(dim)]

    def project(v: Sequence[int]) -> list[int]:
        buf = sum(p * x for p, x in zip(packed, v) if x).to_bytes(size, "little")
        return [int.from_bytes(buf[i:i + width], "little")
                for i in range(0, size, width)]
    return project


def _eliminate(cols: list[Columns], dim: int) -> list[int]:
    """The streaming filter: indices of the cols whose wedge is independent
    of the wedges kept before it. Once `dim` wedges are kept they span the
    wedge space, so every later one is dependent and none is written out."""
    basis = IncrementalBasis()
    return [i for i, (a, b, c) in enumerate(cols)
            if len(basis) < dim and basis.add(wedge3_coordinates(a, b, c))]
