"""Exact linear algebra over the prime field F_p, p = 2^61 - 1.

A FieldMatrix is a list of rows of ints in [0, p). Every elimination in the
package (rref, rank, dualize, the representative-set filter) runs in an
IncrementalBasis, which packs each of its rows, and each vector it reduces,
into one Python int with a fixed-width slot per coordinate, so a row update
is one multiply and one add of whole ints. Everything is deterministic:
elimination always picks the first nonzero entry as pivot. The prime is large
enough that every randomized construction in one pipeline run stays far below
any noticeable failure probability, and small enough that Python int products
stay cheap.
"""
from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

PRIME = (1 << 61) - 1
_BITS = PRIME.bit_length()


def inverse(a: int) -> int:
    a %= PRIME
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, -1, PRIME)


class FieldMatrix:
    def __init__(self, rows: Sequence[Sequence[int]], ncols: Optional[int] = None):
        self.rows = [[x % PRIME for x in row] for row in rows]
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols does not match rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def _wrap(cls, rows: list[list[int]], ncols: int) -> "FieldMatrix":
        """Adopt rows that are already reduced mod p and of width ncols."""
        m = cls.__new__(cls)
        m.rows, m.ncols = rows, ncols
        return m

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "FieldMatrix":
        return cls._wrap([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "FieldMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.rows]

    def rref(self) -> tuple["FieldMatrix", list[int]]:
        """Reduced row echelon form and its pivot columns: the rows go into an
        IncrementalBasis, then each row, bottom-up, is reduced against the
        rows below it. The form is unique, whatever the order of operations."""
        basis = _basis_of(self.rows)
        rows = basis._rows
        for i in reversed(range(len(rows))):
            rows[i] = basis._reduce(rows[i], i + 1)
        out = [basis._unpack(r) for r in rows]
        out += [[0] * self.ncols for _ in range(self.nrows - len(rows))]
        return FieldMatrix._wrap(out, self.ncols), list(basis._pivots)

    def rank(self) -> int:
        return len(_basis_of(self.rows))


def dualize(m: FieldMatrix) -> FieldMatrix:
    """Representation of the dual matroid, columns kept in their original order.

    Brings m to [I | B] by row reduction (up to the column permutation induced
    by the pivot positions) and returns [-B^T | I] with the permutation undone.
    Requires full row rank.
    """
    red, pivots = m.rref()
    if len(pivots) != m.nrows:
        raise ValueError("matrix must have full row rank")
    pivot_set = set(pivots)
    non_pivots = [j for j in range(m.ncols) if j not in pivot_set]
    out = FieldMatrix.zeros(len(non_pivots), m.ncols)
    for i, q in enumerate(non_pivots):
        out.rows[i][q] = 1
        for j, p in enumerate(pivots):
            out.rows[i][p] = (-red.rows[j][q]) % PRIME
    return out


def wedge3_coordinates(a: Sequence[int], b: Sequence[int],
                       c: Sequence[int]) -> list[int]:
    """Coordinates of a ^ b ^ c in the direct sum of two spaces: a and b of
    length d1 in the first, c of length d2 in the second.

    Index order: pairs {i < j} of first-space coordinates lexicographically,
    coordinate l of c innermost. Output length is C(d1, 2) * d2.
    """
    if len(a) != len(b):
        raise ValueError("a and b must have the same length")
    out = []
    for i in range(len(a)):
        ai = a[i] % PRIME
        bi = b[i] % PRIME
        for j in range(i + 1, len(a)):
            minor = (ai * b[j] - a[j] * bi) % PRIME
            out += [minor * x % PRIME for x in c]
    return out


def wedge3_nonzero(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> bool:
    """Whether a ^ b ^ c is nonzero, with the layout of wedge3_coordinates,
    in O(d1 + d2) and without its coordinates.

    The wedge vanishes exactly when c is zero or a and b are parallel. With
    a[i] the first nonzero entry of a, b is parallel to a iff every 2x2 minor
    a[i] b[j] - a[j] b[i] is zero.
    """
    if len(a) != len(b):
        raise ValueError("a and b must have the same length")
    if not any(x % PRIME for x in c):
        return False
    i = next((i for i, x in enumerate(a) if x % PRIME), None)
    if i is None:
        return False
    ai, bi = a[i], b[i]
    return any((ai * bj - aj * bi) % PRIME for aj, bj in zip(a, b))


class IncrementalBasis:
    """Grow a basis one vector at a time; add() reports linear independence.

    Rows are kept in echelon form, sorted by pivot column. Each row has a 1 at
    its pivot and zeros left of it, and is reduced against the rows that were
    in the basis when it was added.

    Every stored row, and every vector being reduced, is one Python int. The
    first vector's length n fixes a slot of w = 2*61 + bit_length(n) + 1
    bits, rounded up to whole bytes, and coordinate j sits in slot n - 1 - j
    counted from the least significant end; so a row with pivot c is below
    2^((n - c) w). Reducing against a row with pivot c takes f = (that slot)
    mod p and adds (p - f) * row: one multiply and one add of whole ints.
    Slots are not reduced between updates, so they stay non-negative, and
    none carries into the next: a slot starts below p, each update adds at
    most (p - 1)^2 < 2^122 to it, and there are at most n updates (n - 1
    when FieldMatrix.rref back-substitutes a stored row against the rows
    after it), so it stays below 2^61 + n 2^122 < 2^(w - 1). After the last
    update every slot is brought below p at once (see _canonical).
    """

    def __init__(self) -> None:
        self._ncols: Optional[int] = None
        self._pivots: list[int] = []
        self._rows: list[int] = []

    def __len__(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        return self._unpack(self._reduce(self._pack(vec)))

    def add(self, vec: Sequence[int]) -> bool:
        v = self._reduce(self._pack(vec))
        if not v:
            return False
        top = (v.bit_length() - 1) // self._bits   # the first nonzero slot
        pivot = self._ncols - 1 - top
        i = bisect_left(self._pivots, pivot)
        self._pivots.insert(i, pivot)
        self._rows.insert(i, self._canonical(v * inverse(v >> top * self._bits)))
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return not self._reduce(self._pack(vec))

    def _pack(self, vec: Sequence[int]) -> int:
        """vec as one int, coordinates reduced mod p. The first vector fixes
        the length and the slot layout; later ones must match it."""
        n = len(vec)
        if self._ncols is None:
            self._ncols = n
            self._width = (2 * _BITS + n.bit_length() + 1 + 7) // 8
            self._bits = 8 * self._width
            self._zero = bytes(self._width)
            # 1, p and 2^(bits - 61) - 1 in every slot, for _canonical
            self._ones = int.from_bytes((1).to_bytes(self._width, "big") * n, "big")
            self._low = self._ones * PRIME
            self._high = self._ones * ((1 << (self._bits - _BITS)) - 1)
        elif n != self._ncols:
            raise ValueError(f"vector of length {n} in a basis of length {self._ncols}")
        w, zero = self._width, self._zero
        return int.from_bytes(b"".join(
            [(x % PRIME).to_bytes(w, "big") if x else zero for x in vec]), "big")

    def _unpack(self, v: int) -> list[int]:
        """The coordinates of v, slots below p < 2^64: 8 strided slices gather
        each slot's low 8 bytes, read at once as big-endian words."""
        w, n = self._width, self._ncols
        buf, low = v.to_bytes(w * n, "big"), bytearray(8 * n)
        for k in range(8):
            low[k::8] = buf[w - 8 + k::w]
        return list(struct.unpack(f">{n}Q", low))

    def _reduce(self, v: int, start: int = 0) -> int:
        """v against rows start, start + 1, ... in pivot order; slots below p."""
        last, bits = self._ncols - 1, self._bits
        slot = (1 << bits) - 1
        for col, row in zip(self._pivots[start:], self._rows[start:]):
            f = ((v >> (last - col) * bits) & slot) % PRIME
            if f:
                v += (PRIME - f) * row
        return self._canonical(v)

    def _canonical(self, v: int) -> int:
        """v with every slot reduced mod p, all slots at once.

        p = 2^61 - 1, so s = 2^61 h + l is congruent to h + l: folding each
        slot's bits above 61 onto its low 61 bits until none are left leaves
        every slot in [0, p], and the slots equal to p, found as those where
        adding 1 reaches bit 61, are cleared.
        """
        ones, low, high = self._ones, self._low, self._high
        while True:
            h = (v >> _BITS) & high
            if not h:
                break
            v = (v & low) + h
        return v - (((v + ones) >> _BITS) & ones) * PRIME


def _basis_of(vecs: Iterable[Sequence[int]]) -> IncrementalBasis:
    basis = IncrementalBasis()
    for vec in vecs:
        basis.add(vec)
    return basis
