"""Streaming representative-triple filter over block matroids."""
import random
from collections import Counter
from math import comb

import pytest

from helpers import (check_representative, exact_filter, exact_pass_wedges,
                     matroid_wide, petal_hub, random_block_matroid,
                     random_multigraph, stage_filter_calls, standard_columns,
                     unstride, wedge3_coordinates, wide_core)
from sfvs_kernel import pipeline, repsets
from sfvs_kernel.cli import main
from sfvs_kernel.fieldlinalg import (PRIME, FieldMatrix, IncrementalBasis,
                                     combine)
from sfvs_kernel.gammoid import (add_sink_copies, bidirected, represent,
                                 sink_copies, uniform_rep)
from sfvs_kernel.generators import gnm
from sfvs_kernel.instancefile import write_instance
from sfvs_kernel.multigraph import Instance, Multigraph, normalize
from sfvs_kernel.repsets import representative_triples
from sfvs_kernel.skernel import _wedge_candidates, kernelize_by_s
from sfvs_kernel.verify import run_sweep


def test_kept_family_is_representative():
    rng = random.Random(2)
    demands = 0
    for _ in range(30):
        m, d1, d2, triples = random_block_matroid(rng)
        kept = representative_triples(m, d1, d2, triples)
        assert set(kept) <= set(triples)
        assert len(kept) <= comb(d1, 2) * d2
        # input order survives filtering
        idx = [triples.index(t) for t in kept]
        assert idx == sorted(idx)
        demands += check_representative(m, d1, d2, triples, kept)
    assert demands > 0


def test_dependent_triples_are_dropped():
    # rank-1 first block: no pair of its columns is independent
    a = {"x0": [1], "x1": [2], "x2": [3]}
    b = uniform_rep(("y0",), 1)
    m = a | b.columns
    kept = representative_triples(m, 1, 1, [("x0", "x1", "y0")])
    assert kept == []


def test_duplicate_wedges_keep_first():
    a = {"x0": [1, 0], "x1": [0, 1], "x2": [1, 1]}
    b = uniform_rep(("y0",), 1)
    m = a | b.columns
    t1 = ("x0", "x1", "y0")
    t2 = ("x1", "x0", "y0")  # same wedge up to sign
    kept = representative_triples(m, 2, 1, [t1, t2])
    assert kept == [t1]


def test_row_count_mismatch_rejected():
    # every vector has length 2, so c is one too long for d2 = 1
    m = uniform_rep(("a", "b", "c"), 2)
    with pytest.raises(ValueError):
        representative_triples(m.columns, 2, 1, [("a", "b", "c")])


# -- the certificate against the exact streaming filter ------------------------


@pytest.fixture
def paths(monkeypatch):
    """Count how each call of the filter was settled: `certified`,
    `refuted` (the sketch found a dependent image row) and `exact` (the
    exact streaming pass ran)."""
    seen = Counter()
    independent, exact = repsets._independent, repsets._exact

    def counted_independent(*args):
        ok = independent(*args)
        seen["certified" if ok else "refuted"] += 1
        return ok

    def counted_exact(*args):
        seen["exact"] += 1
        return exact(*args)

    monkeypatch.setattr(repsets, "_independent", counted_independent)
    monkeypatch.setattr(repsets, "_exact", counted_exact)
    return seen


def block_rep(first, second, first_labels, second_labels):
    """The columns of two explicit blocks, given as lists of rows."""
    return {lab: list(col) for labels, rows in ((first_labels, first),
                                                (second_labels, second))
            for lab, col in zip(labels, zip(*rows))}


def test_certificate_matches_exact_filter_on_random_block_matroids(paths):
    rng = random.Random(81)
    for _ in range(300):
        m, d1, d2, triples = random_block_matroid(rng, d1_hi=6, d2_hi=3,
                                                  ground_hi=12)
        assert representative_triples(m, d1, d2, triples) == \
            exact_filter(m, d1, d2, triples)
    # the random family reaches the certificate and the exact filter both
    assert paths["certified"] > 0 and paths["exact"] > 0


def test_independent_wedges_are_certified(paths, monkeypatch):
    # e0^e1, e0^e2, e1^e2 tensored with independent y's: all independent
    rep = block_rep([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]],
                    ("x0", "x1", "x2"), ("y0", "y1"))
    triples = [("x0", "x1", "y0"), ("x0", "x2", "y1"), ("x1", "x2", "y0"),
               ("x0", "x1", "y1")]
    monkeypatch.setattr(repsets, "_exact", None)   # must not be reached
    assert representative_triples(rep, 3, 2, triples) == triples
    assert paths["certified"] == 1


def test_dependent_nonzero_wedges_fall_back_to_exact_filter(paths):
    # x2 = x0 + x1, so x0^x2 = x0^x1: nonzero and dependent, with 3 <= dim 3
    rep = block_rep([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]], [[1]],
                    ("x0", "x1", "x2", "x3"), ("y0",))
    triples = [("x0", "x1", "y0"), ("x0", "x2", "y0"), ("x1", "x3", "y0")]
    want = [triples[0], triples[2]]
    assert exact_filter(rep, 3, 1, triples) == want
    assert representative_triples(rep, 3, 1, triples) == want
    assert paths == Counter(refuted=1, exact=1)


def test_more_nonzero_wedges_than_dimension_skip_the_sketch(paths):
    # d1 = 2, d2 = 1: the wedge space has dimension 1
    rep = block_rep([[1, 0, 1], [0, 1, 1]], [[1]], ("x0", "x1", "x2"), ("y0",))
    triples = [("x0", "x1", "y0"), ("x0", "x2", "y0"), ("x1", "x2", "y0")]
    assert representative_triples(rep, 2, 1, triples) == triples[:1]
    assert paths == Counter(exact=1)


def test_exact_filter_stops_once_the_basis_is_full(paths, monkeypatch):
    # d1 = 3, d2 = 1: the wedge space has dimension 3, and the fourth triple
    # fills it; x3 = x0 + x1 + x2, so each later wedge is nonzero
    rep = block_rep([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [[1]],
                    ("x0", "x1", "x2", "x3"), ("y0",))
    triples = [("x0", "x1", "y0"), ("x1", "x0", "y0"), ("x0", "x2", "y0"),
               ("x1", "x2", "y0"), ("x0", "x3", "y0"), ("x1", "x3", "y0"),
               ("x2", "x3", "y0")]
    want = exact_filter(rep, 3, 1, triples)
    assert want == [triples[0], triples[2], triples[3]]
    written = []
    wedge = IncrementalBasis.wedge

    def counted(self, a, b, c):
        w = wedge(self, a, b, c)
        written.append(self._unpack(self.canonical(w)))
        return w

    monkeypatch.setattr(IncrementalBasis, "wedge", counted)
    assert representative_triples(rep, 3, 1, triples) == want
    assert written == [wedge3_coordinates(rep[a], rep[b], rep[c])
                       for a, b, c in triples[:4]]
    assert paths == Counter(exact=1)


def test_each_kind_of_zero_wedge_is_dropped(paths, monkeypatch):
    # z0 is a zero column of the first block, x2 = 2*x0, y1 a zero column
    rep = block_rep([[1, 0, 2, 0, 0], [0, 1, 0, 1, 0], [0, 0, 0, 1, 0]],
                    [[1, 0, 3]], ("x0", "x1", "x2", "x3", "z0"),
                    ("y0", "y1", "y2"))
    zero = [("x0", "x1", "y1"),     # c = 0
            ("z0", "x1", "y0"),     # a = 0
            ("x1", "z0", "y2"),     # b = 0
            ("x0", "x2", "y0")]     # a parallel to b
    live = [("x0", "x1", "y0"), ("x1", "x3", "y2"), ("x0", "x3", "y0")]
    triples = [zero[0], live[0], zero[1], zero[2], live[1], zero[3], live[2]]
    for a, b, c in zero:
        assert not any(wedge3_coordinates(rep[a], rep[b], rep[c]))
    handed = exact_pass_wedges(monkeypatch)
    # 7 triples in dimension 3 skip the sketch; 3 of them, one with a zero
    # wedge, project to a dependent family
    offered = (triples, [live[0], zero[3], live[1]])
    assert representative_triples(rep, 3, 1, offered[0]) == live
    assert representative_triples(rep, 3, 1, offered[1]) == live[:2]
    assert exact_filter(rep, 3, 1, triples) == live
    assert paths == Counter(refuted=1, exact=2)
    # the exact pass writes each zero wedge as the int 0, which the basis
    # refuses, and each nonzero one as its coordinates
    assert [[0 if not w else basis._unpack(basis.canonical(w))
             for basis, _, _, w in call] for call in handed] == \
        [[0 if (a, b, c) in zero else
          wedge3_coordinates(rep[a], rep[b], rep[c]) for a, b, c in want]
         for want in offered]


def test_same_triples_after_an_invertible_change_of_first_block_basis(paths):
    """Columns P a for one invertible P change every wedge by
    Lambda^2 P (x) I, so the kept list stays: the freedom that lets
    gammoid.represent read its dual off any column order."""
    rng = random.Random(88)
    for _ in range(200):
        m, d1, d2, triples = random_block_matroid(rng, d1_hi=6, d2_hi=3,
                                                  ground_hi=12)
        while True:
            p = [[rng.randrange(PRIME) for _ in range(d1)] for _ in range(d1)]
            if FieldMatrix(p, d1).rank() == d1:
                break
        moved = {lab: [sum(x * y for x, y in zip(row, col)) for row in p]
                 if lab[0] == "g" else col for lab, col in m.items()}
        assert representative_triples(moved, d1, d2, triples) == \
            representative_triples(m, d1, d2, triples)
    assert paths["certified"] > 100 and paths["exact"] > 20


def test_projector_images_are_packed_dot_products():
    """The projection of v is U v mod p packed at stride d2, U read off the
    images of the unit vectors, for unreduced and negative v too; and the
    wedge of two images is that of the unpacked ones."""
    rng = random.Random(89)
    for d1, r, d2 in ((5, 2, 1), (9, 4, 3), (40, 8, 3), (64, 2, 1)):
        basis = IncrementalBasis.of_wedges(r, d2, terms=d1)
        units = repsets._random_units(rng, d1, r, d2, basis)

        def project(v):
            return repsets._project(units, v, basis)

        u = [unstride(basis, project([int(i == j) for i in range(d1)]), r, d2)
             for j in range(d1)]
        for _ in range(5):
            a = [rng.choice((PRIME - 1, -1, rng.randrange(-PRIME, 3 * PRIME)))
                 for _ in range(d1)]
            b = [rng.randrange(PRIME) for _ in range(d1)]
            c = [rng.randrange(PRIME) for _ in range(d2)]
            ua, ub = project(a), project(b)
            assert unstride(basis, ua, r, d2) == \
                [sum(x * col[i] for x, col in zip(a, u)) % PRIME
                 for i in range(r)]
            assert basis.pack(unstride(basis, ua, r, d2), d2) == ua
            lists = [unstride(basis, v, r, d2) for v in (ua, ub)]
            assert basis.canonical(basis.wedge(ua, ub, basis.pack(c))) == \
                basis.pack(wedge3_coordinates(*lists, c))


def test_zero_wedge_predicate_matches_coordinates():
    rng = random.Random(82)
    kinds = Counter()
    for _ in range(400):
        d1, d2 = rng.randint(0, 5), rng.randint(0, 3)

        def block(n):
            return [rng.choice((0, 1, PRIME - 1, rng.randrange(PRIME)))
                    for _ in range(n)]

        a, b, c = block(d1), block(d1), block(d2)
        kind = rng.randrange(4)
        if kind == 1:                           # b parallel to a
            lam = rng.randrange(PRIME)
            b = [lam * x for x in a]
        elif kind == 2:                         # entries not reduced mod p
            a = [x + PRIME * rng.randint(-2, 2) for x in a]
            c = [x - PRIME for x in c]
        elif kind == 3:                         # a zero or c zero
            a, c = (a, [0] * len(c)) if rng.random() < 0.5 else ([0] * len(a), c)
        # the first block packed at stride d2; at d2 = 0 the wedge space is
        # {0} and wedge reads no vector
        basis = IncrementalBasis.of_wedges(d1, d2)
        got = basis.wedge(basis.pack(a, max(d2, 1)), basis.pack(b, max(d2, 1)),
                          basis.pack(c)) != 0
        assert got == any(wedge3_coordinates(a, b, c))
        kinds[got] += 1
    assert kinds[True] > 50 and kinds[False] > 50


def test_malformed_blocks_are_rejected_on_every_path(monkeypatch):
    # d1 = 2 and d2 = 1: "w" fits neither block, and a triple that puts
    # "y0" first or "x2" last has a vector of the other block's length
    rep = {"x0": [1, 0], "x1": [0, 1], "x2": [1, 1], "y0": [1], "w": [1, 0, 1]}
    bad = [[("w", "x0", "y0")], [("x0", "x1", "w")],
           [("x0", "x1", "y0"), ("x1", "w", "y0")],
           [("x0", "x1", "y0"), ("x0", "x2", "y0"), ("x0", "x1", "w")],
           [("y0", "x0", "y0")], [("x0", "x1", "y0"), ("x0", "x1", "x2")]]
    for triples in bad:
        with pytest.raises(ValueError):
            representative_triples(rep, 2, 1, triples)
    monkeypatch.setattr(repsets, "_independent", lambda *args: False)
    for triples in bad:
        with pytest.raises(ValueError):
            representative_triples(rep, 2, 1, triples)


def random_vec(rng, n):
    return [rng.randrange(PRIME) for _ in range(n)]


def labelled(cols):
    """Triples of explicit vectors as labels, the vectors by label, d1 and
    d2."""
    labels = [((i, 0), (i, 1), (i, 2)) for i in range(len(cols))]
    columns = {lab: vec for tr, vecs in zip(labels, cols)
               for lab, vec in zip(tr, vecs)}
    return columns, labels, len(cols[0][0]), len(cols[0][2])


def certify(cols):
    """The certificate on triples of explicit vectors."""
    columns, labels, d1, d2 = labelled(cols)
    return repsets._independent(columns, {}, labels, d1, d2)


def exact_pass(cols):
    """The indices of the triples of explicit vectors that the exact pass
    keeps."""
    columns, labels, d1, d2 = labelled(cols)
    return [labels.index(tr)
            for tr in repsets._exact(columns, {}, labels, d1, d2)]


def fresh_family(rng, d1, d2, m):
    """m triples of fresh random vectors: independent wedges when m <= dim,
    up to a chance of order m / p."""
    return [(random_vec(rng, d1), random_vec(rng, d1), random_vec(rng, d2))
            for _ in range(m)]


def test_dependent_families_never_certify():
    rng = random.Random(83)
    kinds = Counter()
    for _ in range(200):
        d1, d2 = rng.randint(3, 6), rng.randint(1, 3)
        dim = comb(d1, 2) * d2
        cols = fresh_family(rng, d1, d2, rng.randint(2, dim - 1))
        kind = rng.choice(("sum", "repeat", "parallel"))
        kinds[kind] += 1
        a, b, c = cols[0]
        if kind == "sum":     # a^b^c + a^b'^c = a^(b+b')^c, or the same in c
            if rng.random() < 0.5:
                b2 = cols[1][1]
                cols[1] = (a, b2, c)
                extra = (a, [(x + y) % PRIME for x, y in zip(b, b2)], c)
            else:
                c2 = cols[1][2]
                cols[1] = (a, b, c2)
                extra = (a, b, [(x + y) % PRIME for x, y in zip(c, c2)])
        elif kind == "repeat":
            extra = cols[0]
        else:                 # (la + mb)^(b)^(nc) is a multiple of a^b^c
            lam, mu, nu = (rng.randrange(1, PRIME) for _ in range(3))
            extra = ([(lam * x + mu * y) % PRIME for x, y in zip(a, b)], b,
                     [nu * z % PRIME for z in c])
        cols.insert(rng.randint(0, len(cols)), extra)
        rng.shuffle(cols)
        assert all(any(wedge3_coordinates(*t)) for t in cols)
        assert len(exact_pass(cols)) < len(cols) <= dim
        assert not certify(cols)
    assert min(kinds.values()) > 40


def test_certificate_agrees_with_exact_filter_on_independent_families():
    rng = random.Random(84)
    for _ in range(150):
        d1, d2 = rng.randint(2, 7), rng.randint(1, 3)
        dim = comb(d1, 2) * d2
        # m = dim projects by a full d1 x d1 matrix; smaller m by r < d1 rows
        m = rng.choice((1, dim, rng.randint(1, dim)))
        cols = fresh_family(rng, d1, d2, m)
        assert exact_pass(cols) == list(range(m))
        assert certify(cols)


def test_star_family_is_refuted_and_filtered_exactly(paths):
    # v^b_1, ..., v^b_7 are independent, but their projections lie in
    # (Uv)^F^r with r = 5, a space of dimension 4
    rng = random.Random(85)
    d1 = 8
    rep = {"v": random_vec(rng, d1), "y": [1]}
    rep |= {("b", t): random_vec(rng, d1) for t in range(7)}
    triples = [("v", ("b", t), "y") for t in range(7)]
    want = exact_filter(rep, d1, 1, triples)
    assert want == triples
    assert representative_triples(rep, d1, 1, triples) == want
    assert paths == Counter(refuted=1, exact=1)


def test_unreduced_parallel_copy_is_not_certified(paths):
    # a + 32p is a; with c2 = 2 c1 the two wedges are parallel
    rng = random.Random(86)
    a, b = random_vec(rng, 4), random_vec(rng, 4)
    rep = {"a": a, "a+32p": [x + 32 * PRIME for x in a], "b": b,
           "c1": [1], "c2": [2]}
    triples = [("a", "b", "c1"), ("a+32p", "b", "c2")]
    assert representative_triples(rep, 4, 1, triples) == triples[:1]
    assert paths == Counter(refuted=1, exact=1)


@pytest.mark.parametrize("path", ["certified", "refuted", "no-sketch"])
def test_vectors_are_reduced_mod_p_on_entry(paths, path):
    rng = random.Random(87)
    if path == "certified":
        d1, d2 = 4, 2
        rep = {("x", i): random_vec(rng, d1) for i in range(5)}
        rep |= {("y", j): random_vec(rng, d2) for j in range(2)}
        triples = [(("x", i), ("x", (i + 1) % 5), ("y", i % 2))
                   for i in range(5)]
    else:
        # x2 = x0 + x1: refuted with 3 wedges in dimension 3; with d1 = 2
        # the dimension is 1 and the 3 wedges skip the sketch
        d1, d2 = (3, 1) if path == "refuted" else (2, 1)
        rows = [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]][:d1]
        rep = block_rep(rows, [[5]], ("x0", "x1", "x2", "x3"), ("y0",))
        triples = [("x0", "x1", "y0"), ("x0", "x2", "y0"), ("x1", "x2", "y0")]
    want = representative_triples(rep, d1, d2, triples)
    assert want == exact_filter(rep, d1, d2, triples)
    # negating every vector negates every wedge, so the kept list stays
    shifts = (lambda x: x + 32 * PRIME, lambda x: x + (PRIME << 80),
              lambda x: x - PRIME, lambda x: -x)
    for shift in shifts:
        moved = {lab: [shift(x) for x in vec] for lab, vec in rep.items()}
        assert representative_triples(moved, d1, d2, triples) == want
    settled = {"certified": Counter(certified=5),
               "refuted": Counter(refuted=5, exact=5),
               "no-sketch": Counter(exact=5)}
    assert paths == settled[path]


# -- the certificate inside the matroid stage ----------------------------------


def test_matroid_wide_inputs_need_no_elimination(monkeypatch):
    """The certified path reads no dual and runs no exact filter: it
    sketches the null space of the transversal matrix instead."""
    def refuse(*args):
        raise AssertionError("the dual was read or the exact filter ran")

    monkeypatch.setattr(repsets, "_exact", refuse)
    monkeypatch.setattr(IncrementalBasis, "dual_columns", refuse)
    for n, kept in ((90, 47), (100, 55), (105, 54)):
        report = kernelize_by_s(matroid_wide(n).drop_pairs(), seed=3)
        assert report.shortcut is None and report.kept_triples == kept
        assert report.filter_path == "certified"


def test_failed_certificate_writes_the_same_bytes(tmp_path, monkeypatch):
    path = tmp_path / "in.sfvs"
    write_instance(str(path), matroid_wide(90))

    def kernelize(seed, tag):
        out = tmp_path / f"{tag}-{seed}.out"
        assert main(["kernelize", str(path), "--stage", "matroid",
                     "--seed", seed, "-o", str(out)]) == 0
        return out.read_bytes()

    certified = {seed: kernelize(seed, "certified") for seed in ("1", "11")}
    monkeypatch.setattr(repsets, "_independent", lambda *args: False)
    for seed, want in certified.items():
        got = kernelize(seed, "exact")
        assert got.startswith(b"# outcome: reduced\n")
        assert got == want


def test_default_sweep_runs_both_paths(monkeypatch):
    settled = Counter()

    def recorded(inst, seed):
        report = kernelize_by_s(inst, seed)
        settled[report.filter_path] += 1
        return report

    monkeypatch.setattr(pipeline, "kernelize_by_s", recorded)
    assert run_sweep().ok
    assert settled["certified"] > 0
    assert settled["refuted"] > 0
    # the sweep's cores are small, so a call with m > dim comes from here
    report = kernelize_by_s(wide_core(), seed=0)
    assert report.n_core == report.n_input == 14
    assert report.filter_path == "no-sketch"


# -- sink copies given as combinations -----------------------------------------


def hub_with_parallel_copies():
    """Two S-edges hanging off the hub 0 of a K4 on 0-3, at k = 1: every
    path from T passes 0, so the sink copies of 1, 2 and 3 are parallel and
    their wedges zero, which refutes the certificate."""
    g = Multigraph.from_edges(range(8), [(a, b) for a in range(4)
                                         for b in range(a + 1, 4)])
    s = []
    for p in (4, 6):
        g.add_edge(0, p)
        s.append(g.add_edge(p, p + 1))
        g.add_edge(p + 1, 0)
    return Instance(g, frozenset(s), 1)


def leaf_ends():
    """Two S-edges, each endpoint with one leaf as its plain neighbour, at
    k = 1: the cycle core keeps the leaves, and no vertex has two
    in-neighbours, so no triple is offered."""
    g = Multigraph.from_edges(range(1, 9), [(3, 1), (2, 4), (7, 5), (6, 8)])
    return Instance(g, frozenset([g.add_edge(1, 2), g.add_edge(5, 6)]), 1)


def one_s_edge():
    """|T| = 2: one S-edge between two vertices of a K4, at k = 0."""
    g = Multigraph.from_edges(range(1, 7), [(a, b) for a in range(3, 7)
                                            for b in range(a + 1, 7)])
    g.add_edge(1, 3)
    g.add_edge(2, 4)
    return Instance(g, frozenset([g.add_edge(1, 2)]), 0)


def test_combinations_keep_the_full_width_triples_in_the_matroid_stage(paths,
                                                              monkeypatch):
    """The kept list of the stage, its sink copies given as combinations,
    equals that of the same draws' copies built at full width, and each
    input takes the path it is built for."""
    cases = {("matroid-wide", n, seed): (matroid_wide(n).drop_pairs(), seed)
             for n in (90, 100, 105) for seed in range(1, 6)}
    cases |= {
        "m > dim": (wide_core(), 0),
        "k = 0": (normalize(gnm(16, 24, 5, 1, 11)).instance.drop_pairs(), 0),
        "|T| = 2": (one_s_edge(), 0),
        "no candidates": (leaf_ends(), 0),
        "hub": (petal_hub(40), 0),
        "zero wedges": (hub_with_parallel_copies(), 0)}
    settled, shape = {}, {}
    for name, (inst, seed) in cases.items():
        before = Counter(paths)
        args, kept, full, dg = stage_filter_calls(monkeypatch, inst, seed)
        settled[name] = (kept.path, paths - before)
        columns, d1, d2, offered, copies, _ = args
        assert kept == exact_filter(columns | full, d1, d2, offered), name
        shape[name] = (d1, d2, len(offered),
                       max((len(copies[a]) for a, _, _ in offered), default=0))
    certified = ("certified", Counter(certified=1))
    for name in cases:
        if name[0] == "matroid-wide":
            assert settled[name] == certified
    assert settled["m > dim"] == ("no-sketch", Counter(exact=1))
    assert shape["m > dim"][2] > comb(4, 2) * 1
    # d2 = 0: the wedge space is {0}, so every offered triple is dropped
    assert shape["k = 0"][1] == 0 and shape["k = 0"][2] > 0
    assert shape["|T| = 2"][:2] == (2, 0) and shape["|T| = 2"][2] > 0
    assert settled["no candidates"] == certified
    assert shape["no candidates"][2] == 0
    d1, d2, _, indegree = shape["hub"]
    assert settled["hub"] == certified and indegree > d1 * d2
    assert settled["zero wedges"] == ("refuted", Counter(refuted=1, exact=1))


def test_combinations_keep_the_full_width_triples_on_random_digraphs(paths):
    rng = random.Random(12)
    sizes = Counter()
    for _ in range(150):
        g, _ = random_multigraph(rng, n_hi=9)
        dg = bidirected(g)
        t = rng.sample(dg.vertices, rng.randint(1, min(4, g.n)))
        k = rng.randint(1, 3)
        state = rng.getstate()
        rep = represent(dg, t, dg.vertices, rng)
        copies = sink_copies(dg, rng)
        drawn = rng.getstate()
        rng.setstate(state)
        full = add_sink_copies(represent(dg, t, dg.vertices, rng), dg, rng)
        assert rng.getstate() == drawn
        hats = uniform_rep([("hat", v) for v in sorted(g.vertices())],
                           k).columns
        offered = [(("c1", v), ("c2", v), ("hat", v))
                   for v in _wedge_candidates(dg)]
        before = paths["certified"]
        got = representative_triples(rep.columns | hats, len(t), k, offered,
                                     copies)
        if len(t) == 2 and paths["certified"] > before:
            sizes["certified with |T| = 2"] += 1
        assert got == exact_filter(full.columns | hats, len(t), k, offered)
    assert sizes["certified with |T| = 2"] > 5
    assert paths["certified"] > 20 and paths["refuted"] > 5


def test_certificate_images_are_projections_of_full_width_copies(
        monkeypatch):
    """The certificate's images of a triple's two sink copies are U times
    the copies built at full width from the standard basis that the
    transversal form sketches: on matroid-wide, and at a hub whose
    in-degree, 304, is far above |T| * k = 4, so its slots must be sized for
    304 products, not for |T| * k."""
    wedge = IncrementalBasis.wedge
    for inst in (matroid_wide(90).drop_pairs(), petal_hub(300)):
        seen = []

        def spied(self, a, b, c):
            seen.append((self, a, b))
            return wedge(self, a, b, c)

        with monkeypatch.context() as mp:
            mp.setattr(IncrementalBasis, "wedge", spied)
            args, kept, _, _ = stage_filter_calls(monkeypatch, inst, 7)
        columns, d1, d2, offered, copies, form = args
        full = combine(standard_columns(form), copies, d1)
        assert kept == offered and kept.path == "certified"
        assert len(seen) == len(offered)
        for (basis, a, b), (c1, c2, _) in zip(seen, offered):
            r = basis._d1
            ref = IncrementalBasis.of_wedges(r, d2, terms=d1)
            units = repsets._random_units(
                random.Random(repsets._SKETCH_SEED), d1, r, d2, ref)
            for image, lab in ((a, c1), (b, c2)):
                assert unstride(basis, image, r, d2) == \
                    unstride(ref, repsets._project(units, full[lab], ref),
                             r, d2)
    assert max(len(terms) for terms in copies.values()) == 304 > d1 * d2


def test_star_of_combinations_is_refuted_and_filtered_exactly(paths):
    # each ("c1", t) is a multiple of v, so the 7 independent wedges share
    # the factor v and project into (Uv)^F^r with r = 5, of dimension 4
    rng = random.Random(91)
    d1 = 8
    columns = {"v": random_vec(rng, d1), "y": [1]}
    columns |= {("u", i): random_vec(rng, d1) for i in range(10)}
    combos = {}
    for t in range(7):
        combos["c1", t] = [("v", rng.randrange(1, PRIME))]
        combos["c2", t] = [(("u", i), rng.randrange(1, PRIME))
                           for i in rng.sample(range(10), 3)]
    triples = [(("c1", t), ("c2", t), "y") for t in range(7)]
    want = exact_filter(columns | combine(columns, combos, d1), d1, 1, triples)
    assert want == triples
    assert representative_triples(columns, d1, 1, triples, combos) == want
    assert paths == Counter(refuted=1, exact=1)

