"""Exact linear algebra over the prime field F_p, p = 2^61 - 1.

Every elimination in the package (the gammoid's dual, the representative-set
filter, rank checks) runs in an IncrementalBasis, which packs each of its
rows, and each vector it reduces, into one Python int with a fixed-width slot
per coordinate, so a row update is one multiply and one add of whole ints.
The basis also writes the filter's wedge products and reads a dual off its
reduced rows, both in that packed form. A FieldMatrix, a list of rows of ints
in [0, p), is the plain-matrix view (rref, rank) on the same basis; the
pipeline no longer builds one. Everything is deterministic: elimination
always picks the first nonzero entry as pivot. The prime is large enough that
every randomized construction in one pipeline run stays far below any
noticeable failure probability, and small enough that Python int products
stay cheap.
"""
from __future__ import annotations

import struct
from bisect import bisect_left
from math import comb
from typing import Hashable, Iterable, Mapping, Optional, Sequence

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
        basis._back_substitute()
        out = [basis._unpack(r) for r in basis._rows]
        out += [[0] * self.ncols for _ in range(self.nrows - len(basis))]
        return FieldMatrix._wrap(out, self.ncols), list(basis._pivots)

    def rank(self) -> int:
        return len(_basis_of(self.rows))


def combine(columns: Mapping[Hashable, Sequence[int]],
            combinations: Mapping[Hashable, Sequence[tuple[Hashable, int]]],
            length: int) -> dict[Hashable, list[int]]:
    """Each combination [(u, x), ...] built as the vector sum of x * columns[u],
    of the given length with entries below p, by label, in the order of
    `combinations`."""
    zero = [0] * length
    out = {}
    for lab, terms in combinations.items():
        acc = zero
        for u, x in terms:
            acc = [a + x * c for a, c in zip(acc, columns[u])]
        out[lab] = [a % PRIME for a in acc]
    return out


def wedge3_nonzero(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> bool:
    """Whether a ^ b ^ c is nonzero, for a and b of length d1 and c of
    length d2, in O(d1 + d2) and without its coordinates.

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
    length n, fixed by the first vector or by the constructor, fixes a slot
    of `width` bytes, w = 2*61 + bit_length(n) + 1 bits rounded up to whole
    bytes, and coordinate j sits in slot n - 1 - j counted from the least
    significant end; so a row with pivot c is below 2^((n - c) w). Reducing
    against a row with pivot c takes f = (that slot) mod p and adds
    (p - f) * row: one multiply and one add of whole ints. Slots are not
    reduced between updates, so they stay non-negative, and none carries
    into the next: a slot starts below p^2, each update adds at most
    (p - 1)^2 < 2^122 to it, and there are at most n updates, so it stays
    below (n + 1) 2^122 <= 2^(w - 1). After the last update every slot is
    brought below p at once (see canonical).
    """

    def __init__(self, ncols: Optional[int] = None) -> None:
        """`ncols` fixes the length now, else the first vector does."""
        self._ncols: Optional[int] = None
        self._pivots: list[int] = []
        self._rows: list[int] = []
        if ncols is not None:
            self._layout(ncols)

    @classmethod
    def of_wedges(cls, d1: int, d2: int, terms: int = 0) -> "IncrementalBasis":
        """An empty basis of length C(d1, 2) * d2 for the wedges a ^ b ^ c of
        a and b of length d1 and c of length d2 (see wedge). Its slots also
        hold a sum of `terms` products of two values below 2^61, and
        canonical() also takes a and b packed at stride d2."""
        basis = cls()
        basis._layout(comb(d1, 2) * d2, max(d1 * d2, terms))
        basis._d1, basis._d2 = d1, d2
        return basis

    def _layout(self, n: int, room: int = 0) -> None:
        """Length n, with the slot width and canonical's masks sized for
        max(n, room) slots."""
        slots = max(n, room)
        self._ncols = n
        self.width = (2 * _BITS + slots.bit_length() + 1 + 7) // 8
        self._bits = 8 * self.width
        self._zero = bytes(self.width)
        # 1, p and 2^(bits - 61) - 1 in every slot, for canonical
        self._ones = int.from_bytes((1).to_bytes(self.width, "big") * slots, "big")
        self._low = self._ones * PRIME
        self._high = self._ones * ((1 << (self._bits - _BITS)) - 1)

    def __len__(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        return self._unpack(self._reduce(self._vector(vec)))

    def add(self, vec: Sequence[int]) -> bool:
        return self.add_packed(self._vector(vec))

    def add_packed(self, v: int) -> bool:
        """add() for a vector packed in this basis's layout, every slot below
        p^2 (as pack, pack_sparse and wedge give them)."""
        v = self._reduce(v)
        if not v:
            return False
        top = (v.bit_length() - 1) // self._bits   # the first nonzero slot
        pivot = self._ncols - 1 - top
        i = bisect_left(self._pivots, pivot)
        self._pivots.insert(i, pivot)
        self._rows.insert(i, self.canonical(v * inverse(v >> top * self._bits)))
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return not self._reduce(self._vector(vec))

    def _vector(self, vec: Sequence[int]) -> int:
        """vec packed. The first vector fixes the length and the slot layout,
        unless the constructor did; later ones must match it."""
        n = len(vec)
        if self._ncols is None:
            self._layout(n)
        elif n != self._ncols:
            raise ValueError(f"vector of length {n} in a basis of length {self._ncols}")
        return self.pack(vec)

    def pack(self, vec: Sequence[int], stride: int = 1) -> int:
        """vec as one int, coordinates reduced mod p, coordinate j in slot
        (len(vec) - 1 - j) * stride and zeros between."""
        w = self.width
        pad = bytes((stride - 1) * w)
        zero = pad + self._zero
        return int.from_bytes(b"".join(
            [pad + (x % PRIME).to_bytes(w, "big") if x else zero for x in vec]),
            "big")

    def pack_sparse(self, entries: Iterable[tuple[int, int]]) -> int:
        """The vector of this basis's length with x % p at coordinate j for
        each (j, x) of entries, and zeros elsewhere."""
        w = self.width
        buf = bytearray(w * self._ncols)
        for j, x in entries:
            buf[j * w:(j + 1) * w] = (x % PRIME).to_bytes(w, "big")
        return int.from_bytes(buf, "big")

    def wedge(self, a: int, b: int, c: int) -> int:
        """a ^ b ^ c packed, with a and b packed at stride d2 and c packed,
        all slots below p, for a basis made by of_wedges(d1, d2). Slots come
        out below p^2. Coordinates: pairs {i < j} of a's coordinates
        lexicographically, coordinate l of c innermost, so the wedge is the
        column of 2x2 minors a_i b_j - a_j b_i tensored with c.

        With A_{>i} and B_{>i} the parts of a and b after coordinate i, still
        at stride d2, row i's block of minors is a_i B_{>i} + (p - b_i) A_{>i}
        (slots below 2p^2). The blocks are joined as bytes, row 0 first,
        brought below p by one canonical pass, and one product with c puts
        m c_l in the l-th of each minor m's d2 slots.
        """
        if not self._ncols:
            return 0
        d1, w = self._d1, self.width
        step = self._d2 * w                 # bytes per coordinate of a
        size = d1 * step
        abuf = memoryview(a.to_bytes(size, "big"))
        bbuf = memoryview(b.to_bytes(size, "big"))
        blocks = []
        for lo in range(step, size, step):  # coordinate i ends at lo
            ai = int.from_bytes(abuf[lo - w:lo], "big")
            bi = int.from_bytes(bbuf[lo - w:lo], "big")
            if ai or bi:
                block = (ai * int.from_bytes(bbuf[lo:], "big")
                         + (PRIME - bi) * int.from_bytes(abuf[lo:], "big"))
                blocks.append(block.to_bytes(size - lo, "big"))
            else:
                blocks.append(bytes(size - lo))
        return self.canonical(int.from_bytes(b"".join(blocks), "big")) * c

    def dual_columns(self) -> list[list[int]]:
        """The columns of a matrix whose rows are a basis of the vectors
        orthogonal to every stored row: the dual matroid's representation
        when the rows added were those of a full-row-rank matrix.

        The stored rows are first brought to reduced row echelon form. Then
        free column q_i (no pivot there) is the unit vector e_i, and pivot
        column c of row r is minus r's entries at the free columns.
        """
        self._back_substitute()
        pivots = set(self._pivots)
        free = [q for q in range(self._ncols) if q not in pivots]
        cols: list[list[int]] = [[0] * len(free) for _ in range(self._ncols)]
        for i, q in enumerate(free):
            cols[q][i] = 1
        for c, row in zip(self._pivots, self._rows):
            entries = self._unpack(row)
            cols[c] = [(PRIME - entries[q]) % PRIME for q in free]
        return cols

    def _back_substitute(self) -> None:
        """Reduce each stored row, bottom-up, against the rows below it."""
        rows = self._rows
        for i in reversed(range(len(rows))):
            rows[i] = self._reduce(rows[i], i + 1)

    def _unpack(self, v: int) -> list[int]:
        """The coordinates of v, slots below p < 2^64: 8 strided slices gather
        each slot's low 8 bytes, read at once as big-endian words."""
        w, n = self.width, self._ncols
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
        return self.canonical(v)

    def canonical(self, v: int) -> int:
        """v with every slot reduced mod p, all slots at once; each slot of v
        must fit its w bits.

        p = 2^61 - 1, so s = 2^61 h + l is congruent to h + l. Folding each
        slot's bits above 61 onto its low 61 bits twice leaves it below
        2^61 + 2^(w - 122) + 1, which is below 2p for every w up to 182 bits
        (every layout of fewer than 2^53 slots). The slots at or above p,
        found as those where adding 1 reaches bit 61, then lose p.
        """
        ones, low, high = self._ones, self._low, self._high
        v = (v & low) + ((v >> _BITS) & high)
        v = (v & low) + ((v >> _BITS) & high)
        return v - (((v + ones) >> _BITS) & ones) * PRIME


def _basis_of(vecs: Iterable[Sequence[int]]) -> IncrementalBasis:
    basis = IncrementalBasis()
    for vec in vecs:
        basis.add(vec)
    return basis
