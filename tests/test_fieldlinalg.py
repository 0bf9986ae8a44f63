"""Exact mod-p linear algebra: rref, rank, duals, wedge coordinates."""
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dualize, matroid_wide, wedge3_coordinates
from sfvs_kernel import gammoid
from sfvs_kernel.fieldlinalg import (PRIME, FieldMatrix, IncrementalBasis,
                                     inverse)
from sfvs_kernel.skernel import kernelize_by_s


def rand_matrix(rng, nrows, ncols, small=False):
    hi = 5 if small else PRIME - 1
    return FieldMatrix([[rng.randint(0, hi) for _ in range(ncols)]
                        for _ in range(nrows)], ncols)


def rank_of_columns(m, js):
    basis = IncrementalBasis()
    return sum(basis.add(m.column(j)) for j in js)


def test_inverse():
    for a in (1, 2, 17, PRIME - 1):
        assert a * inverse(a) % PRIME == 1
    with pytest.raises(ZeroDivisionError):
        inverse(0)
    assert inverse(PRIME + 2) == inverse(2)


def test_matrix_construction_errors():
    with pytest.raises(ValueError):
        FieldMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        FieldMatrix([[1, 2]], ncols=3)
    m = FieldMatrix([], ncols=4)
    assert m.nrows == 0 and m.ncols == 4


def test_rank_known_cases():
    assert FieldMatrix.identity(4).rank() == 4
    assert FieldMatrix.zeros(3, 5).rank() == 0
    m = FieldMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 0]])
    assert m.rank() == 2
    assert rank_of_columns(m, [0, 1]) == 2
    assert rank_of_columns(m, [0]) == 1
    assert rank_of_columns(m, []) == 0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_rref_properties(seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), small=True)
    red, pivots = m.rref()
    assert len(pivots) == m.rank()
    assert pivots == sorted(pivots)
    for i, p in enumerate(pivots):
        col = red.column(p)
        assert col[i] == 1
        assert all(x == 0 for j, x in enumerate(col) if j != i)
    # row spaces agree: every original row reduces to zero against the rref rows
    basis = IncrementalBasis()
    for row in red.rows:
        basis.add(row)
    for row in m.rows:
        assert basis.contains(row)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_dual_rank_identity(seed):
    import itertools
    rng = random.Random(seed)
    nrows = rng.randint(1, 3)
    ncols = rng.randint(nrows, 6)
    m = rand_matrix(rng, nrows, ncols)
    if m.rank() != nrows:
        return
    d = dualize(m)
    assert d.nrows == ncols - nrows and d.ncols == ncols
    # orthogonality of the two row spaces
    for r1 in m.rows:
        for r2 in d.rows:
            assert sum(x * y for x, y in zip(r1, r2)) % PRIME == 0
    # matroid duality: rk*(A) = |A| + rk(E - A) - rk(E) on every subset
    full = list(range(ncols))
    for size in range(ncols + 1):
        for a in itertools.combinations(full, size):
            rest = [j for j in full if j not in a]
            want = len(a) + rank_of_columns(m, rest) - nrows
            assert rank_of_columns(d, a) == want


def test_dualize_requires_full_row_rank():
    with pytest.raises(ValueError):
        dualize(FieldMatrix([[1, 2], [2, 4]]))


# -- wedge coordinates --------------------------------------------------------


def block_vectors(rng, d1, d2):
    a = [rng.randrange(PRIME) for _ in range(d1)]
    b = [rng.randrange(PRIME) for _ in range(d1)]
    c = [rng.randrange(PRIME) for _ in range(d2)]
    return a, b, c


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_wedge_shape_and_alternation(seed):
    rng = random.Random(seed)
    d1, d2 = rng.randint(2, 5), rng.randint(1, 3)
    a, b, c = block_vectors(rng, d1, d2)
    w = wedge3_coordinates(a, b, c)
    assert len(w) == comb(d1, 2) * d2
    swapped = wedge3_coordinates(b, a, c)
    assert [(x + y) % PRIME for x, y in zip(w, swapped)] == [0] * len(w)
    # a ^ a ^ c vanishes
    assert wedge3_coordinates(a, a, c) == [0] * len(w)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_wedge_linear_in_each_slot(seed):
    rng = random.Random(seed)
    d1, d2 = rng.randint(2, 4), rng.randint(1, 3)
    a, b, c = block_vectors(rng, d1, d2)
    _, _, c2 = block_vectors(rng, d1, d2)
    lam = rng.randrange(1, PRIME)
    lhs = wedge3_coordinates(a, b, [(x + lam * y) % PRIME for x, y in zip(c, c2)])
    w1 = wedge3_coordinates(a, b, c)
    w2 = wedge3_coordinates(a, b, c2)
    assert lhs == [(x + lam * y) % PRIME for x, y in zip(w1, w2)]


def test_wedge_rejects_misplaced_support():
    # a and b live in the same space, so their lengths must agree
    with pytest.raises(ValueError):
        wedge3_coordinates([1, 0, 1], [1, 0], [1])
    with pytest.raises(ValueError):
        wedge3_coordinates([1], [1, 0], [1, 0, 1])
    with pytest.raises(ValueError):
        wedge3_coordinates([1, 0], [1, 0, 0], [0, 0, 1])


def test_wedge_matches_rank_semantics():
    # nonzero wedge exactly when the three columns are independent
    rng = random.Random(5)
    for _ in range(60):
        d1, d2 = rng.randint(2, 4), rng.randint(1, 2)
        a, b, c = block_vectors(rng, d1, d2)
        if rng.random() < 0.3:
            lam = rng.randrange(PRIME)
            b = [lam * x % PRIME for x in a]  # force dependence
        # the three columns in the direct sum of the two spaces
        m = FieldMatrix([list(col) for col in zip(a + [0] * d2, b + [0] * d2,
                                                  [0] * d1 + c)], 3)
        w = wedge3_coordinates(a, b, c)
        assert (m.rank() == 3) == any(w)


def packed_wedge(a, b, c):
    """IncrementalBasis.wedge on the lists a, b and c, and its basis."""
    d1, d2 = len(a), len(c)
    basis = IncrementalBasis.of_wedges(d1, d2)
    stride = max(d2, 1)     # at d2 = 0 there is no coordinate to write
    return basis, basis.wedge(basis.pack(a, stride), basis.pack(b, stride),
                              basis.pack(c))


WEDGE_KINDS = ("random", "unreduced", "negative", "zero a", "zero b",
               "parallel", "zero c", "sparse")


def wedge_inputs(rng, d1, d2, kind):
    def vec(n):
        return [rng.randrange(PRIME) for _ in range(n)]

    a, b, c = vec(d1), vec(d1), vec(d2)
    if kind == "unreduced":
        a = [x + PRIME * rng.randint(1, 40) for x in a]
        c = [x + (PRIME << 70) for x in c]
    elif kind == "negative":
        a, b = [-x for x in a], [x - PRIME * rng.randint(1, 3) for x in b]
    elif kind == "zero a":
        a = [0] * d1
    elif kind == "zero b":
        b = [rng.choice((0, PRIME, -PRIME)) for _ in range(d1)]
    elif kind == "parallel":
        lam = rng.randrange(PRIME)
        b = [lam * x - PRIME for x in a]
    elif kind == "zero c":
        c = [0] * d2
    elif kind == "sparse":
        a = [x if rng.random() < 0.2 else 0 for x in a]
        b = [x if rng.random() < 0.2 else 0 for x in b]
        c = [x if rng.random() < 0.5 else 0 for x in c]
    return a, b, c


@pytest.mark.parametrize("d1, d2", [(0, 2), (1, 3), (2, 0), (6, 0), (2, 1),
                                    (3, 2), (5, 3), (8, 1), (8, 3), (40, 3),
                                    (47, 2)])
def test_packed_wedge_matches_the_coordinates(d1, d2):
    """Slots come out below p^2, and brought below p they are the packed
    coordinates, for r <= 8 like the certificate and d1 >= 40 like the
    exact filter on a large S."""
    rng = random.Random(d1 * 10 + d2)
    for kind in WEDGE_KINDS:
        for _ in range(3):
            a, b, c = wedge_inputs(rng, d1, d2, kind)
            want = wedge3_coordinates(a, b, c)
            basis, w = packed_wedge(a, b, c)
            assert w < 1 << (8 * basis.width * len(want))
            assert all(x < PRIME ** 2 for x in unpack_wide(basis, w))
            assert basis.canonical(w) == basis.pack(want)
            assert basis._unpack(basis.canonical(w)) == want
            if kind in ("zero a", "zero b", "parallel", "zero c"):
                assert not any(want)


def unpack_wide(basis, v):
    """Every slot of v, of any size below 2^(8 width)."""
    w, n = basis.width, basis._ncols
    buf = v.to_bytes(w * n, "big")
    return [int.from_bytes(buf[i:i + w], "big") for i in range(0, w * n, w)]


def test_packed_wedge_takes_the_largest_minors():
    """a_i = p - 1 and b_j = p - 1 with a_j = 1 and b_i = 0: every block slot
    reaches (p - 1)^2 + p before the canonical pass."""
    for d1, d2 in ((3, 1), (9, 2), (41, 3)):
        a = [PRIME - 1] * d1
        b = [PRIME - 1] * d1
        b[0] = 0
        a[1:] = [1] * (d1 - 1)
        c = [PRIME - 1] * d2
        basis, w = packed_wedge(a, b, c)
        assert basis.canonical(w) == basis.pack(wedge3_coordinates(a, b, c))


# -- incremental basis --------------------------------------------------------


def test_incremental_basis_tracks_span():
    ib = IncrementalBasis()
    assert ib.add([1, 0, 0])
    assert ib.add([1, 1, 0])
    assert not ib.add([3, 5, 0])
    assert len(ib) == 2
    assert ib.contains([7, 2, 0])
    assert not ib.contains([0, 0, 1])
    assert ib.add([0, 0, 2])
    assert len(ib) == 3


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_incremental_basis_agrees_with_rank(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    vecs = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(1, 8))]
    ib = IncrementalBasis()
    for v in vecs:
        ib.add(v)
    assert len(ib) == FieldMatrix(vecs, n).rank()


# -- the shared elimination against plain full-row references -----------------


def ref_rref(rows, ncols):
    """Gauss-Jordan that updates whole rows."""
    m = [list(r) for r in rows]
    pivots, r = [], 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        iv = inverse(m[r][col])
        m[r] = [x * iv % PRIME for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % PRIME for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def ref_dual(rows, ncols):
    red, pivots = ref_rref(rows, ncols)
    non_pivots = [j for j in range(ncols) if j not in pivots]
    out = [[0] * ncols for _ in non_pivots]
    for i, q in enumerate(non_pivots):
        out[i][q] = 1
        for j, p in enumerate(pivots):
            out[i][p] = (-red[j][q]) % PRIME
    return out


class RefBasis:
    """Whole-row reduction against a pivot map sorted on every call."""

    def __init__(self):
        self.rows, self.pivot_of = [], {}

    def reduce(self, vec):
        v = [x % PRIME for x in vec]
        for col, ri in sorted(self.pivot_of.items()):
            if v[col]:
                f = v[col]
                v = [(x - f * y) % PRIME for x, y in zip(v, self.rows[ri])]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        iv = inverse(v[pivot])
        self.pivot_of[pivot] = len(self.rows)
        self.rows.append([x * iv % PRIME for x in v])
        return True


def shaped_matrix(rng, shape):
    """A random square, wide (more columns) or rank-deficient matrix, with
    zero columns sprinkled in so pivots skip columns."""
    nrows = rng.randint(1, 7)
    ncols = {"square": nrows, "wide": nrows + rng.randint(1, 6),
             "deficient": rng.randint(1, 9)}[shape]
    if shape == "deficient":
        r = rng.randint(0, min(nrows, ncols) - 1)
        left = [[rng.randrange(PRIME) for _ in range(r)] for _ in range(nrows)]
        right = [[rng.randrange(PRIME) for _ in range(ncols)] for _ in range(r)]
        rows = [[sum(a * right[i][j] for i, a in enumerate(row)) % PRIME
                 for j in range(ncols)] for row in left]
    else:
        rows = [[rng.randrange(PRIME) for _ in range(ncols)]
                for _ in range(nrows)]
    for j in range(ncols):
        if rng.random() < 0.2:
            for row in rows:
                row[j] = 0
    return FieldMatrix(rows, ncols)


@pytest.mark.parametrize("shape", ["square", "wide", "deficient"])
def test_elimination_matches_full_row_reference(shape):
    rng = random.Random(shape)
    deficient = 0
    for _ in range(150):
        m = shaped_matrix(rng, shape)
        want_rows, want_pivots = ref_rref(m.rows, m.ncols)
        red, pivots = m.rref()
        assert pivots == want_pivots
        assert red.rows == want_rows
        assert m.rank() == len(want_pivots)
        if len(pivots) == m.nrows:
            assert dualize(m).rows == ref_dual(m.rows, m.ncols)
        else:
            deficient += 1
            with pytest.raises(ValueError):
                dualize(m)

        basis, ref = IncrementalBasis(), RefBasis()
        for row in m.rows + [[rng.randrange(PRIME) for _ in range(m.ncols)]]:
            assert basis.add(row) == ref.add(row)
        assert basis._pivots == sorted(ref.pivot_of)
        assert [basis._unpack(row) for row in basis._rows] \
            == [ref.rows[ref.pivot_of[p]] for p in sorted(ref.pivot_of)]
        probe = [rng.randrange(PRIME) for _ in range(m.ncols)]
        assert basis.reduce(probe) == ref.reduce(probe)
    assert (deficient == 150) == (shape == "deficient")


# -- rref on packed rows against ref_rref at the callers' sizes ---------------


def assert_rref_matches_ref(m):
    want_rows, want_pivots = ref_rref(m.rows, m.ncols)
    red, pivots = m.rref()
    assert pivots == want_pivots
    assert red.rows == want_rows
    assert m.rank() == len(want_pivots)
    if len(pivots) == m.nrows:
        assert dualize(m).rows == ref_dual(m.rows, m.ncols)
    return pivots


def test_packed_rref_on_the_matroid_wide_transversal_matrix(monkeypatch):
    """The matrix gammoid.represent eliminates for matroid_wide(90), in the
    column order of its basis: the reduced rows and pivots it reaches and
    the dual it reads off them, against ref_rref and ref_dual."""
    rows, seen = {}, []
    pack_sparse = IncrementalBasis.pack_sparse
    dual_columns = IncrementalBasis.dual_columns

    def spy_pack(self, entries):
        entries = list(entries)
        row = [0] * self._ncols
        for j, x in entries:
            row[j] = x
        rows.setdefault(id(self), []).append(row)
        return pack_sparse(self, entries)

    def spy_dual(self):
        cols = dual_columns(self)
        seen.append((FieldMatrix(rows[id(self)], self._ncols), self, cols))
        return cols

    monkeypatch.setattr(IncrementalBasis, "pack_sparse", spy_pack)
    monkeypatch.setattr(IncrementalBasis, "dual_columns", spy_dual)
    kernelize_by_s(matroid_wide(90).drop_pairs(), seed=0)
    assert seen and all(m.nrows >= 40 and m.ncols > m.nrows for m, _, _ in seen)
    for m, basis, cols in seen:
        assert len(assert_rref_matches_ref(m)) == m.nrows
        want_rows, want_pivots = ref_rref(m.rows, m.ncols)
        assert basis._pivots == want_pivots
        assert [basis._unpack(row) for row in basis._rows] == want_rows
        assert [list(r) for r in zip(*cols)] == ref_dual(m.rows, m.ncols)


def transversal_rows(d, sources, rng):
    """gammoid.represent's matrix as first written: a row per non-source
    and a column per vertex, random nonzero entries at the row's own column
    and its in-neighbours' columns, drawn in sorted (row, column) order."""
    non_sources = [i for i, v in enumerate(d.vertices) if v not in sources]
    row_of = {v: r for r, v in enumerate(non_sources)}
    support = {(r, v) for r, v in enumerate(non_sources)}
    support |= {(row_of[w], u) for u, ws in enumerate(d.succ)
                for w in ws if w in row_of}
    rows = [[0] * len(d.vertices) for _ in non_sources]
    for i, j in sorted(support):
        rows[i][j] = rng.randrange(1, PRIME)
    return rows


def same_row_space(x, y, ncols):
    rank = FieldMatrix(x, ncols).rank()
    return rank == FieldMatrix(y, ncols).rank() == FieldMatrix(x + y, ncols).rank()


def test_represent_spans_the_reference_dual():
    """represent's columns, as rows over the vertices, span what ref_dual
    spans for the same matrix drawn from the same rng state, and represent
    draws exactly that matrix's entries."""
    rng = random.Random(31)
    digraphs = []
    for _ in range(60):
        n = rng.randint(0, 12)
        arcs = {(rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 3 * n))} if n else set()
        d = gammoid.Digraph.build(range(n), arcs)
        digraphs.append((d, rng.sample(range(n), rng.randint(0, n))))
    wide = matroid_wide(90)
    d = gammoid.bidirected(wide.graph, skip_edges=wide.s)
    digraphs.append((d, sorted({v for e in wide.s for v in wide.graph.endpoints(e)})))
    for d, sources in digraphs:
        state = rng.getstate()
        rep = gammoid.represent(d, sources, d.vertices, rng)
        drawn = rng.getstate()
        rng.setstate(state)
        m = transversal_rows(d, set(sources), rng)
        assert rng.getstate() == drawn
        n = len(d.vertices)
        got = [list(r) for r in zip(*(rep.columns[v] for v in d.vertices))]
        want = ref_dual(m, n)
        assert all(len(col) == len(set(sources)) for col in rep.columns.values())
        assert same_row_space(got, want, n), (n, sources)


@pytest.mark.parametrize("seed", range(3))
def test_packed_rref_sparse_with_dependent_rows(seed):
    """About 5 nonzeros per row over 256 or more columns (bit_length(n) is 9
    there, against 8 up to 255), dependent rows mixed in, so zero rows are
    padded below."""
    rng = random.Random(seed)
    ncols = rng.randint(256, 300)
    rows = []
    for _ in range(50):
        row = [0] * ncols
        for j in rng.sample(range(ncols), 5):
            row[j] = rng.randrange(1, PRIME)
        rows.append(row)
    for i in (7, 20, 33, 46):
        rows.insert(i, combination(rng, rows[:i], ncols))
    rows.insert(10, [0] * ncols)
    m = FieldMatrix(rows, ncols)
    assert len(assert_rref_matches_ref(m)) == 50


@pytest.mark.parametrize("ncols", [16, 31])
def test_packed_rref_back_substitution_takes_the_largest_updates(ncols):
    """Upper-triangular rows with 1 on and above the diagonal, and the last
    column chosen so the reduced rows are e_i - e_last. Back-substituting
    row 0 meets f = 1 at each later pivot and adds (p - 1) * (p - 1) to the
    last slot ncols - 2 times, the most that slot can get. At 16 and 31
    columns the slot is exactly 2*61 + 6 = 128 bits, with no spare bit from
    rounding up to whole bytes."""
    last = ncols - 1
    rows = [[0] * i + [1] * (last - i) + [-(last - i) % PRIME]
            for i in range(last)]
    m = FieldMatrix(rows, ncols)
    red, pivots = m.rref()
    assert pivots == list(range(last))
    assert red.rows == [[int(j == i) for j in range(last)] + [PRIME - 1]
                        for i in range(last)]
    assert_rref_matches_ref(m)
    # 1 on the diagonal and p - 1 above it reduces to the identity
    square = FieldMatrix([[0] * i + [1] + [PRIME - 1] * (last - i)
                          for i in range(ncols)], ncols)
    assert square.rref()[0].rows == FieldMatrix.identity(ncols).rows
    assert_rref_matches_ref(square)


# -- the packed basis against RefBasis at the callers' sizes ------------------


def assert_matches_ref(rows, probes):
    """Feed rows to both bases; every answer, the pivots, the stored rows
    (unpacked) and each probe's reduction must agree."""
    basis, ref = IncrementalBasis(), RefBasis()
    for row in rows:
        assert basis.add(row) == ref.add(row)
    assert len(basis) == len(ref.rows)
    assert basis._pivots == sorted(ref.pivot_of)
    assert [basis._unpack(row) for row in basis._rows] \
        == [ref.rows[ref.pivot_of[p]] for p in sorted(ref.pivot_of)]
    for probe in probes:
        want = ref.reduce(probe)
        assert basis.reduce(probe) == want
        assert basis.contains(probe) == (not any(want))


def combination(rng, rows, ncols):
    picked = rng.sample(rows, min(3, len(rows)))
    coef = [rng.randrange(PRIME) for _ in picked]
    return [sum(c * r[j] for c, r in zip(coef, picked)) % PRIME
            for j in range(ncols)]


@pytest.mark.parametrize("m", [60, 89, 120])
def test_packed_basis_square_certificate_size(m):
    """m x m rows like the certificate's image rows, with a few dependent
    rows mixed in before the basis is full."""
    rng = random.Random(m)
    rows = []
    for _ in range(m):
        if len(rows) > 3 and rng.random() < 0.1:
            rows.append(combination(rng, rows, m))
        rows.append([rng.randrange(PRIME) for _ in range(m)])
    probes = [[rng.randrange(PRIME) for _ in range(m)], combination(rng, rows, m)]
    assert_matches_ref(rows, probes)


@pytest.mark.parametrize("seed", range(4))
def test_packed_basis_wide_short_exact_filter_size(seed):
    """About 8 x 600 rows like the exact filter's wedge rows: long runs of
    zero columns between sparse supports, and dependent rows."""
    rng = random.Random(seed)
    ncols = rng.randint(560, 640)
    support = sorted(rng.sample(range(ncols), 40))
    rows = []
    for _ in range(8):
        row = [0] * ncols
        for j in rng.sample(support, 12):
            row[j] = rng.randrange(1, PRIME)
        rows.append(row)
    for i in (3, 6, 9):
        rows.insert(i, combination(rng, rows[:i], ncols))
    rows.append([0] * ncols)
    probes = [combination(rng, rows, ncols),
              [rng.randrange(PRIME) if j in support else 0 for j in range(ncols)]]
    assert_matches_ref(rows, probes)


def test_packed_basis_reduces_unreduced_entries():
    rng = random.Random(5)
    ncols = 30
    rows = [[rng.choice([-1, -PRIME, PRIME, PRIME + 1, 2 * PRIME - 1, -(PRIME + 7),
                         rng.randrange(-10 * PRIME, 10 * PRIME), 0, PRIME ** 3 + 2])
             for _ in range(ncols)] for _ in range(40)]
    probes = [[-x for x in rows[0]], [x + PRIME for x in rows[1]],
              [rng.randrange(-PRIME ** 2, PRIME ** 2) for _ in range(ncols)]]
    assert_matches_ref(rows, probes)
    basis = IncrementalBasis()
    assert basis.add([PRIME + 2, -1, 0])
    assert not basis.add([2, PRIME - 1, 0])
    assert basis.contains([-2 * PRIME - 4, 2, PRIME])


@pytest.mark.parametrize("ncols", [16, 31, 255, 600])
def test_packed_basis_slot_takes_the_largest_updates(ncols):
    """Rows e_i + (p - 1) e_last, i < last, with f = 1 at every pivot: the
    probe's last slot starts at p - 1 and receives ncols - 1 updates of
    (p - 1)^2, the most any slot can get that are that large (the row with
    a slot's own pivot adds less than p). 16 and 31 columns use a slot of
    exactly 2*61 + 6 = 128 bits, so no spare bit comes from rounding."""
    last = ncols - 1
    rows = []
    for i in range(last):
        row = [0] * ncols
        row[i], row[last] = 1, PRIME - 1
        rows.append(row)
    probe = [1] * last + [PRIME - 1]
    basis = IncrementalBasis()
    assert all(basis.add(row) for row in rows)
    # (p - 1) + (n - 1)(p - 1)^2 = -1 + (n - 1) = n - 2 mod p
    assert basis.reduce(probe) == [0] * last + [ncols - 2]
    if ncols <= 255:
        assert_matches_ref(rows, [probe])


def test_packed_basis_empty_vector():
    basis = IncrementalBasis()
    assert not basis.add([])
    assert len(basis) == 0
    assert basis.reduce([]) == []
    assert basis.contains([])
    with pytest.raises(ValueError):
        basis.add([1])


def test_basis_rejects_a_length_mismatch():
    basis = IncrementalBasis()
    assert basis.add([1, 2, 3])
    for call in (basis.add, basis.reduce, basis.contains):
        with pytest.raises(ValueError):
            call([1, 2])
        with pytest.raises(ValueError):
            call([0, 0, 0, 1])
    assert len(basis) == 1 and basis._pivots == [0]
    # the first vector fixes the length, even when it is dependent
    zero_first = IncrementalBasis()
    assert not zero_first.add([0, 0])
    with pytest.raises(ValueError):
        zero_first.add([1, 0, 0])
