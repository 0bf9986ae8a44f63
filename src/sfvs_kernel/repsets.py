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

A first-block vector may be given as a linear combination of other vectors
rather than written out (the matroid stage's sink copies are), and first-block
vectors may be given implicitly, by an object that gives their images under a
linear map and writes them out only on request (the matroid stage's gammoid
columns are: see gammoid.TransversalForm). A certificate is tried first,
without writing any of them out. The m wedges a^b^c are projected by one
random r x d1 matrix U to (Ua)^(Ub)^c, which has only C(r,2)*d2 coordinates,
with r the least value for which that is at least m (at most d1). U is
linear, so the image of a combination sum x_u col_u is sum x_u (U col_u):
each given vector is projected once, each implicit one's image is given, and
no combination is built at full width. The projection w -> (Lambda^2 U (x) I) w
is linear too, so a dependent family of wedges, or one with a zero wedge, has
a dependent image; if the m projected wedges are independent, so are the
wedges, and the streaming pass would keep exactly those m triples, which are
returned directly. Only when the certificate fails, or m exceeds the wedge
space dimension, are the implicit vectors written out (possibly in another
basis of their span: an invertible change of first-block basis changes no
wedge's dependence on the others) and the combinations built at full width;
the triples with a zero wedge, found by 2x2 minors alone, are dropped, and
the streaming pass runs once over the rest. Either way the result is exact:
the projection's draws decide only how long the filter takes, so it adds no
failure probability and needs no caller's randomness. Wedges sharing a factor
v span a space that the projection maps into (Uv)^F^r(x)F^d2, of dimension
(r-1)*d2, so a large such "star" family can refute the certificate although
it is independent; it then pays for the exact pass. The kept list records
which of the three paths settled it (Kept.path).
"""
from __future__ import annotations

import random
from collections import ChainMap
from math import comb
from operator import mul
from typing import (Callable, Hashable, Iterable, Mapping, Optional, Protocol,
                    Sequence)

from .fieldlinalg import PRIME, IncrementalBasis, combine, wedge3_nonzero

Columns = tuple[Sequence[int], Sequence[int], Sequence[int]]
Triple = tuple[Hashable, Hashable, Hashable]
Combinations = Mapping[Hashable, Sequence[tuple[Hashable, int]]]

# Any fixed value: the kept family does not depend on the draws.
_SKETCH_SEED = 8


class Implicit(Protocol):
    """First-block vectors of length `dim`, by label, that are not written
    out (gammoid.TransversalForm is one). images(free, canonical) gives
    each one's image under the linear map L with L e_i = free[i], packed as
    free is, through sums of up to len(self) products of two values below
    p; columns() writes them all out."""
    dim: int

    def __contains__(self, label: Hashable) -> bool: ...
    def __len__(self) -> int: ...
    def images(self, free: Sequence[int], canonical: Callable[[int], int]
               ) -> Mapping[Hashable, int]: ...
    def columns(self) -> Mapping[Hashable, Sequence[int]]: ...


class Kept(list):
    """The kept triples, in input order, and how the filter settled them:
    `path` is "certified" (the sketch kept every triple), "refuted" (the
    sketch found a dependent image, and the streaming pass ran) or
    "no-sketch" (more triples than the wedge space dimension, so the
    streaming pass ran at once)."""

    def __init__(self, triples: Iterable[Triple], path: str) -> None:
        super().__init__(triples)
        self.path = path


def representative_triples(columns: Mapping[Hashable, Sequence[int]],
                           d1: int, d2: int, triples: Sequence[Triple],
                           combinations: Optional[Combinations] = None,
                           implicit: Optional[Implicit] = None) -> Kept:
    """Keep a max-rank subfamily of wedge vectors, in input order.

    `columns` maps each label to its vector over F_p, entries any ints;
    `implicit` holds further first-block vectors that are not written out,
    and `combinations` maps further labels to first-block vectors given as
    combinations [(u, x), ...], the sum of x * (u's vector). The first two
    labels of a triple must name vectors of length d1, in any of the three,
    and the third a vector of length d2 in `columns`. Triples with a zero or
    dependent wedge are dropped.
    """
    combinations = combinations or {}
    if implicit is not None and implicit.dim != d1:
        raise ValueError("implicit first-block vectors must have length d1")
    for a, b, c in triples:
        parts = [u for lab in (a, b)
                 for u, _ in combinations.get(lab, ((lab, 1),))]
        if len(columns[c]) != d2 or any(
                len(columns[u]) != d1 for u in parts
                if implicit is None or u not in implicit):
            raise ValueError("a triple's vectors must have lengths d1, d1 and d2")
    dim = comb(d1, 2) * d2
    if len(triples) <= dim and _independent(columns, combinations, triples,
                                            d1, d2, implicit):
        kept = Kept(triples, "certified")
    else:
        written = ChainMap(columns, implicit.columns() if implicit else {})
        built = combine(written, {lab: combinations[lab] for tr in triples
                                  for lab in tr[:2] if lab in combinations},
                        d1)
        vectors = ChainMap(built, written)
        cols = [(vectors[a], vectors[b], vectors[c]) for a, b, c in triples]
        live = [i for i, (a, b, c) in enumerate(cols)
                if wedge3_nonzero(a, b, c)]
        kept = Kept((triples[live[j]]
                     for j in _eliminate([cols[i] for i in live], dim)),
                    "refuted" if len(triples) <= dim else "no-sketch")
    if len(kept) > dim:
        raise AssertionError("kept wedges exceed the wedge space dimension")
    return kept


def _independent(columns: Mapping[Hashable, Sequence[int]],
                 combinations: Combinations, triples: Sequence[Triple],
                 d1: int, d2: int, implicit: Optional[Implicit] = None
                 ) -> bool:
    """True if the wedges of the triples are certainly linearly independent:
    their projected wedges (Ua)^(Ub)^c are, for one random r x d1 matrix U
    with the least r such that C(r,2)*d2 >= len(triples), at most d1. Each
    vector of `columns` is projected once, the vectors of `implicit` give
    their images themselves, and a combination's image is the same
    combination of those images. False means the projected wedges were
    dependent, which a zero wedge or dependent wedges always give, and
    independent wedges give by chance or when many of them share a factor."""
    m = len(triples)
    if not m:
        return True
    r = next((r for r in range(2, d1) if comb(r, 2) * d2 >= m), d1)
    # a slot sums d1 products in a projection, one per term in a
    # combination, and up to len(implicit) in an implicit vector's image
    terms = max([d1, len(implicit or ())] + [
        len(combinations[lab]) for tr in triples
        for lab in tr[:2] if lab in combinations])
    basis = IncrementalBasis.of_wedges(r, d2, terms=terms)
    units = _random_units(random.Random(_SKETCH_SEED), d1, r, d2, basis)
    images: dict[Hashable, int] = {}
    if implicit is not None:
        images.update(implicit.images(units, basis.canonical))

    def projected(u: Hashable) -> int:
        if u not in images:
            images[u] = _project(units, columns[u], basis)
        return images[u]

    def image(lab: Hashable) -> int:
        if lab not in combinations:
            return projected(lab)
        return basis.canonical(sum(x * projected(u)
                                   for u, x in combinations[lab]))

    return all(basis.add_packed(basis.wedge(image(a), image(b),
                                            basis.pack(columns[c])))
               for a, b, c in triples)


def _random_units(rng: random.Random, dim: int, count: int, stride: int,
                  basis: IncrementalBasis) -> list[int]:
    """U e_j for j < dim, for a random count x dim matrix U, each packed by
    `basis` at `stride`, slots below p: column j of U, its entries random
    values below 2^61, reduced mod p."""
    return [basis.pack([rng.getrandbits(61) for _ in range(count)], stride)
            for _ in range(dim)]


def _project(units: Sequence[int], v: Sequence[int],
             basis: IncrementalBasis) -> int:
    """U v packed, from units[j] = U e_j, for v of any ints.

    Kronecker substitution: the sum of v_j times the packed columns holds
    all dot products at once, one per slot. The basis's slots must fit
    len(v) products of two values below 2^61, so none carries into the
    next.
    """
    if v and (min(v) < 0 or max(v) >= PRIME):
        v = [x % PRIME for x in v]
    return basis.canonical(sum(map(mul, units, v)))


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
