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
from operator import mul
from typing import Callable, Hashable, Mapping, Sequence

from .fieldlinalg import PRIME, IncrementalBasis, wedge3_nonzero

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
    cols = [(columns[a], columns[b], columns[c]) for a, b, c in triples]
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
    or when many of them share a factor."""
    m = len(cols)
    if not m:
        return True
    d1, d2 = len(cols[0][0]), len(cols[0][2])
    r = next((r for r in range(2, d1) if comb(r, 2) * d2 >= m), d1)
    basis = IncrementalBasis.of_wedges(r, d2, terms=d1)
    project = _random_projector(random.Random(_SKETCH_SEED), d1, r, d2, basis)
    return all(basis.add_packed(basis.wedge(project(a), project(b),
                                            basis.pack(c)))
               for a, b, c in cols)


def _random_projector(rng: random.Random, dim: int, count: int, stride: int,
                      basis: IncrementalBasis
                      ) -> Callable[[Sequence[int]], int]:
    """The map v -> U v for a random count x dim matrix U, its image packed
    by `basis` at `stride`, slots below p. Entries of v may be any ints.

    Kronecker substitution: column j of U is packed once, its entries random
    values below 2^61, so the sum of v_j times those ints holds all count
    dot products at once, one per slot. The basis's slots must fit dim
    products of two values below 2^61, so none carries into the next.
    """
    packed = [basis.pack([rng.getrandbits(61) for _ in range(count)], stride)
              for _ in range(dim)]

    def project(v: Sequence[int]) -> int:
        if v and (min(v) < 0 or max(v) >= PRIME):
            v = [x % PRIME for x in v]
        return basis.canonical(sum(map(mul, packed, v)))
    return project


def _eliminate(cols: list[Columns], dim: int) -> list[int]:
    """The streaming filter: indices of the cols whose wedge is independent
    of the wedges kept before it. Once `dim` wedges are kept they span the
    wedge space, so every later one is dependent and none is written out."""
    if not cols:
        return []
    d1, d2 = len(cols[0][0]), len(cols[0][2])
    basis = IncrementalBasis.of_wedges(d1, d2)
    kept = []
    for i, (a, b, c) in enumerate(cols):
        if len(basis) == dim:
            break
        if basis.add_packed(basis.wedge(basis.pack(a, d2), basis.pack(b, d2),
                                        basis.pack(c))):
            kept.append(i)
    return kept
