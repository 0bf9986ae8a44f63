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
columns are: see gammoid.TransversalForm). The streaming pass (_accepted)
reads each given vector's packed image under a linear map L once, and the
image of a combination sum x_u col_u is sum x_u (L col_u), so no combination
is built as a list. A zero wedge comes out as 0, which the basis refuses like
any dependent wedge. A certificate is tried first, with L one random r x d1
matrix U, so each wedge a^b^c becomes (Ua)^(Ub)^c, of only C(r,2)*d2
coordinates, with r the least value for which that is at least m, the number
of triples (at most d1). The projection w -> (Lambda^2 U (x) I) w is linear
too, so a dependent family of wedges, or one with a zero wedge, has a
dependent image; if the m projected wedges are independent, so are the
wedges, and the streaming pass would keep exactly those m triples, which are
returned directly. Only when the certificate fails, or m exceeds the wedge
space dimension, does the exact pass run, with L the identity: the implicit
vectors are written out (possibly in another basis of their span: an
invertible change of first-block basis changes no wedge's dependence on the
others). Either way the result is exact: the projection's draws decide only
how long the filter takes, so it adds no failure probability and needs no
caller's randomness. Wedges sharing a factor v span a space that the
projection maps into (Uv)^F^r(x)F^d2, of dimension (r-1)*d2, so a large such
"star" family can refute the certificate although it is independent; it then
pays for the exact pass. The kept list records which of the three paths
settled it (Kept.path).
"""
from __future__ import annotations

import random
from functools import cache
from itertools import compress, islice
from math import comb
from operator import mul
from typing import (Callable, Hashable, Iterable, Iterator, Mapping, Optional,
                    Protocol, Sequence)

from .fieldlinalg import PRIME, IncrementalBasis

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
    combinations [(u, x), ...], the sum of x * (u's vector), x below p. The
    first two labels of a triple must name vectors of length d1, in any of
    the three, and the third a vector of length d2 in `columns`. Triples
    with a zero or dependent wedge are dropped.
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
        kept = Kept(_exact(columns, combinations, triples, d1, d2, implicit),
                    "refuted" if len(triples) <= dim else "no-sketch")
    if len(kept) > dim:
        raise AssertionError("kept wedges exceed the wedge space dimension")
    return kept


def _accepted(basis: IncrementalBasis, image_of: Callable[[Hashable], int],
              columns: Mapping[Hashable, Sequence[int]],
              combinations: Combinations, triples: Sequence[Triple]
              ) -> Iterator[bool]:
    """The streaming pass: for each triple in turn, whether `basis` took its
    wedge image(a) ^ image(b) ^ c. image_of(u) packs the image of a given
    first-block vector at the second block's stride, once per label, and a
    combination's image is the same combination of those images."""
    given = cache(image_of)

    def image(lab: Hashable) -> int:
        if lab not in combinations:
            return given(lab)
        return basis.canonical(sum(x * given(u)
                                   for u, x in combinations[lab]))

    for a, b, c in triples:
        yield basis.add_packed(basis.wedge(image(a), image(b),
                                           basis.pack(columns[c])))


def _longest(combinations: Combinations, triples: Sequence[Triple]) -> int:
    """The most terms in a combination that a triple names: the slots of
    the streaming pass's basis must fit a sum of that many products."""
    return max((len(combinations[lab]) for tr in triples for lab in tr[:2]
                if lab in combinations), default=0)


def _independent(columns: Mapping[Hashable, Sequence[int]],
                 combinations: Combinations, triples: Sequence[Triple],
                 d1: int, d2: int, implicit: Optional[Implicit] = None
                 ) -> bool:
    """True if the wedges of the triples are certainly linearly independent:
    their projected wedges (Ua)^(Ub)^c are, for one random r x d1 matrix U
    with the least r such that C(r,2)*d2 >= len(triples), at most d1. Each
    vector of `columns` is projected once, and the vectors of `implicit`
    give their images themselves. False means the projected wedges were
    dependent, which a zero wedge or dependent wedges always give, and
    independent wedges give by chance or when many of them share a factor."""
    m = len(triples)
    if not m:
        return True
    r = next((r for r in range(2, d1) if comb(r, 2) * d2 >= m), d1)
    # a slot sums d1 products in a projection, one per term in a
    # combination, and up to len(implicit) in an implicit vector's image
    terms = max(d1, len(implicit or ()), _longest(combinations, triples))
    basis = IncrementalBasis.of_wedges(r, d2, terms=terms)
    units = _random_units(random.Random(_SKETCH_SEED), d1, r, d2, basis)
    images = {} if implicit is None else implicit.images(units,
                                                         basis.canonical)
    return all(_accepted(basis, lambda u: images[u] if u in images
                         else _project(units, columns[u], basis),
                         columns, combinations, triples))


def _exact(columns: Mapping[Hashable, Sequence[int]],
           combinations: Combinations, triples: Sequence[Triple],
           d1: int, d2: int, implicit: Optional[Implicit] = None
           ) -> list[Triple]:
    """The streaming pass with every first-block vector written out (the
    implicit ones by implicit.columns()) and packed at stride d2. It stops
    at the C(d1,2)*d2-th kept triple, whose wedge fills the wedge space, so
    no later wedge is written out."""
    basis = IncrementalBasis.of_wedges(d1, d2,
                                       terms=_longest(combinations, triples))
    written = {**columns, **(implicit.columns() if implicit else {})}
    accepted = _accepted(basis, lambda u: basis.pack(written[u], d2),
                         columns, combinations, triples)
    return list(islice(compress(triples, accepted), comb(d1, 2) * d2))


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
