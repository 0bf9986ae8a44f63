"""Exact dense linear algebra over the prime field F_p, p = 2^61 - 1.

Matrices are lists of rows of ints in [0, p). Everything is deterministic:
elimination always picks the first nonzero entry as pivot. The prime is large
enough that every randomized construction in one pipeline run stays far below
any noticeable failure probability, and small enough that Python int products
stay cheap.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Sequence

PRIME = (1 << 61) - 1


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
        return cls([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "FieldMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    def copy(self) -> "FieldMatrix":
        return FieldMatrix([list(r) for r in self.rows], self.ncols)

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.rows]

    def columns(self, js: Iterable[int]) -> "FieldMatrix":
        js = list(js)
        return FieldMatrix([[row[j] for j in js] for row in self.rows], len(js))

    def rref(self) -> tuple["FieldMatrix", list[int]]:
        """Reduced row echelon form and its pivot columns (Gauss-Jordan)."""
        m = [list(r) for r in self.rows]
        pivots: list[int] = []
        r = 0
        for col in range(self.ncols):
            if r == len(m):
                break
            sel = next((i for i in range(r, len(m)) if m[i][col]), None)
            if sel is None:
                continue
            m[r], m[sel] = m[sel], m[r]
            lead = m[r]
            iv = inverse(lead[col])
            tail = [x * iv % PRIME for x in lead[col:]]
            lead[col:] = tail
            for i, row in enumerate(m):
                f = row[col]
                if f and i != r:
                    _sub_multiple(row, col, f, tail)
            pivots.append(col)
            r += 1
        return FieldMatrix._wrap(m, self.ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def rank_of_columns(self, js: Iterable[int]) -> int:
        basis = IncrementalBasis()
        for j in js:
            basis.add(self.column(j))
        return len(basis)


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


def wedge3_coordinates(a: Sequence[int], b: Sequence[int], c: Sequence[int],
                       d1: int, d2: int) -> list[int]:
    """Coordinates of a ^ b ^ c when a, b live on the first d1 rows and c on the last d2.

    Index order: pairs {i < j} of first-block rows lexicographically, unit l of
    the second block innermost. Output length is C(d1, 2) * d2.
    """
    _check_wedge_blocks(a, b, c, d1, d2)
    out = []
    for i in range(d1):
        ai = a[i] % PRIME
        bi = b[i] % PRIME
        for j in range(i + 1, d1):
            minor = (ai * b[j] - a[j] * bi) % PRIME
            for l in range(d2):
                out.append(minor * c[d1 + l] % PRIME)
    return out


def wedge3_nonzero(a: Sequence[int], b: Sequence[int], c: Sequence[int],
                   d1: int, d2: int) -> bool:
    """Whether a ^ b ^ c is nonzero, with the block layout of
    wedge3_coordinates, in O(d1 + d2) and without its coordinates.

    The wedge vanishes exactly when c is zero or a and b are parallel on the
    first block. With a[i] the first nonzero entry of a, b is parallel to a
    iff every 2x2 minor a[i] b[j] - a[j] b[i] is zero.
    """
    _check_wedge_blocks(a, b, c, d1, d2)
    if not any(x % PRIME for x in c[d1:]):
        return False
    i = next((i for i in range(d1) if a[i] % PRIME), None)
    if i is None:
        return False
    ai, bi = a[i], b[i]
    return any((ai * b[j] - a[j] * bi) % PRIME for j in range(d1))


def _check_wedge_blocks(a: Sequence[int], b: Sequence[int], c: Sequence[int],
                        d1: int, d2: int) -> None:
    if len(a) != d1 + d2 or len(b) != d1 + d2 or len(c) != d1 + d2:
        raise ValueError("vector length must be d1 + d2")
    if any(x % PRIME for x in a[d1:]) or any(x % PRIME for x in b[d1:]):
        raise ValueError("a and b must vanish on the second block")
    if any(x % PRIME for x in c[:d1]):
        raise ValueError("c must vanish on the first block")


class IncrementalBasis:
    """Grow a basis one vector at a time; add() reports linear independence.

    Rows are kept in echelon form, sorted by pivot column. Each row is stored
    from its pivot (a 1) rightward; left of it the row is zero.
    """

    def __init__(self) -> None:
        self._pivots: list[int] = []
        self._tails: list[list[int]] = []

    def __len__(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        v = [x % PRIME for x in vec]
        for col, tail in zip(self._pivots, self._tails):
            f = v[col]
            if f:
                _sub_multiple(v, col, f, tail)
        return v

    def add(self, vec: Sequence[int]) -> bool:
        v = self.reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        iv = inverse(v[pivot])
        i = bisect_left(self._pivots, pivot)
        self._pivots.insert(i, pivot)
        self._tails.insert(i, [x * iv % PRIME for x in v[pivot:]])
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return all(x == 0 for x in self.reduce(vec))


def _sub_multiple(row: list[int], col: int, f: int, tail: Sequence[int]) -> None:
    """row -= f * lead in place, where lead is zero left of col and tail is
    lead[col:]. The one row update behind rref (and so rank and dualize) and
    IncrementalBasis: columns left of col do not change, so they are skipped."""
    row[col:] = [(x - f * y) % PRIME for x, y in zip(row[col:], tail)]

