"""Matroid-stage kernel: shortcuts, cycle core, size bound, answer preservation."""
import os
import random
import subprocess
import sys
from pathlib import Path
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (broken_core, matroid_wide, random_instance,
                     random_multigraph, stage_filter_calls)
from sfvs_kernel import pipeline, skernel
from sfvs_kernel.cli import main
from sfvs_kernel.fieldlinalg import combine, wedge3_nonzero
from sfvs_kernel.gammoid import (add_sink_copies, bidirected, represent,
                                 uniform_rep)
from sfvs_kernel.generators import gnm
from sfvs_kernel.instancefile import serialize_instance, write_instance
from sfvs_kernel.multigraph import (Instance, Multigraph, check_normalized,
                                    normalize)
from sfvs_kernel.oracle import solve_exact
from sfvs_kernel.repsets import representative_triples
from sfvs_kernel.skernel import (_wedge_candidates, canonical_no,
                                 canonical_yes, cycle_core, kernelize_by_s)
from sfvs_kernel.verify import run_sweep

LIFTED_CAP = 10 ** 6   # as in perfbench/checks.py: k <= 3 keeps the search small


def normalized_sample(rng, n_hi=8, k_hi=3):
    pinst = random_instance(rng, n_hi=n_hi, k_hi=k_hi)
    norm = normalize(pinst)
    inst = norm.instance.drop_pairs()
    return inst if inst.k >= 0 else None


def test_canonical_instances():
    yes = canonical_yes(2)
    assert solve_exact(yes).found
    assert yes.graph.n == 0 and yes.k == 2
    no = canonical_no()
    assert not solve_exact(no).found


def test_check_normalized_rejects_raw_graphs():
    # S-edge endpoint of degree 3
    g = Multigraph()
    for v in (1, 2, 3, 4):
        g.add_vertex(v)
    g.add_edge(1, 2)
    se = g.add_edge(2, 3)
    g.add_edge(3, 1)
    g.add_edge(2, 4)
    with pytest.raises(ValueError):
        check_normalized(Instance(g, frozenset([se]), 1))
    # S-loop
    loop = Multigraph()
    loop.add_vertex(1)
    le = loop.add_edge(1, 1)
    with pytest.raises(ValueError):
        check_normalized(Instance(loop, frozenset([le]), 1))
    # two S-edges meeting at one vertex
    path = Multigraph()
    for v in (1, 2, 3):
        path.add_vertex(v)
    sa = path.add_edge(1, 2)
    sb = path.add_edge(2, 3)
    with pytest.raises(ValueError):
        check_normalized(Instance(path, frozenset([sa, sb]), 1))
    # S-edges 1-2 and 3-4 on the cycle 5-1-2-3-4-5: the base of 2 is 3,
    # an endpoint of the other S-edge
    ring = Multigraph.from_edges([], [(5, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(ValueError, match="off V"):
        check_normalized(Instance(ring, frozenset([2, 4]), 1))


def test_shortcut_no_s_edges():
    g = Multigraph.from_edges([1, 2], [(1, 2)])
    rep = kernelize_by_s(Instance(g, frozenset(), 1), seed=0)
    assert rep.shortcut is not None
    assert solve_exact(rep.instance).found


def test_shortcut_small_s():
    # |S| <= k: deleting one endpoint per S-edge always fits the budget
    pinst = random_instance(random.Random(4), n_hi=6, s_hi=2, k_hi=3)
    norm = normalize(pinst)
    inst = norm.instance.drop_pairs()
    if inst.k >= 0 and len(inst.s) <= inst.k:
        rep = kernelize_by_s(inst, seed=0)
        assert rep.shortcut is not None


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_kernel_size_bound_and_s_preserved(seed):
    rng = random.Random(seed)
    inst = normalized_sample(rng)
    if inst is None:
        return
    rep = kernelize_by_s(inst, seed=seed)
    t = len(rep.t)
    assert rep.instance.graph.n <= comb(t, 2) * inst.k + t
    if rep.shortcut is None:
        assert inst.s <= set(rep.instance.graph.edges)
        assert rep.instance.s == inst.s


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_kernel_preserves_answer(seed):
    rng = random.Random(seed)
    inst = normalized_sample(rng, n_hi=7, k_hi=2)
    if inst is None:
        return
    rep = kernelize_by_s(inst, seed=seed)
    want = solve_exact(inst, n_cap=60).found
    got = solve_exact(rep.instance, n_cap=60).found
    assert got == want


def test_kernel_deterministic_per_seed():
    rng = random.Random(17)
    inst = None
    while inst is None or len(inst.s) <= inst.k:
        inst = normalized_sample(rng, n_hi=8, k_hi=1)
    a = kernelize_by_s(inst, seed=5)
    b = kernelize_by_s(inst, seed=5)
    assert serialize_instance(a.instance.with_pairs()) == \
        serialize_instance(b.instance.with_pairs())


def test_kernel_rejects_unnormalized():
    g = Multigraph()
    for v in (1, 2, 3, 4):
        g.add_vertex(v)
    g.add_edge(1, 2)
    se = g.add_edge(2, 3)
    g.add_edge(3, 1)
    g.add_edge(2, 4)
    with pytest.raises(ValueError):
        kernelize_by_s(Instance(g, frozenset([se]), 1), seed=0)


# -- the cycle core ------------------------------------------------------------

# K4 on 1..4 with the S-edge 10-11 hanging between 1 and 2
K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def s_graph(plain, special):
    """Normalized instance from plain and S-edge endpoint pairs, with its T."""
    g = Multigraph.from_edges([], plain)
    s = frozenset(g.add_edge(u, v) for u, v in special)
    t = sorted({v for eid in s for v in g.endpoints(eid)})
    inst = Instance(g, s, 1)
    check_normalized(inst)
    return inst, t


def core_of(plain, special):
    inst, t = s_graph(plain, special)
    core = cycle_core(inst.graph, t)
    check_normalized(Instance(core, inst.s, inst.k))
    assert inst.s <= set(core.edges)
    assert not any(core.is_loop(e) for e in core.edges)
    return inst.graph, core


def test_core_prunes_a_pendant_tree():
    g, core = core_of(K4 + [(1, 10), (11, 2), (4, 20), (20, 21), (20, 22),
                            (21, 23)], [(10, 11)])
    assert core == g.induced([1, 2, 3, 4, 10, 11])


def test_core_bypasses_a_chain_with_one_plain_edge():
    plain = [e for e in K4 if e != (3, 4)]
    g, core = core_of(plain + [(1, 10), (11, 2), (3, 20), (20, 21), (21, 4)],
                      [(10, 11)])
    assert core.vertices() == [1, 2, 3, 4, 10, 11]
    (eid,) = core.edges_between(3, 4)
    assert eid not in g.edges
    assert core.degree(3) == core.degree(4) == 3


def test_core_keeps_one_vertex_of_a_chain_between_s_endpoints():
    # 11 ... 12 joins two S-edges, 10 ... 11 one S-edge's own ends
    g, core = core_of(K4 + [(1, 10), (11, 20), (20, 21), (21, 22), (22, 12),
                            (13, 2)], [(10, 11), (12, 13)])
    assert core.vertices() == [1, 2, 3, 4, 10, 11, 12, 13, 20]
    assert core.neighbors(20) == [11, 12]
    g, core = core_of([(10, 20), (20, 21), (21, 11)], [(10, 11)])
    assert core.vertices() == [10, 11, 20]
    assert core.neighbors(20) == [10, 11]


def test_core_drops_a_chain_that_returns_to_its_start():
    g, core = core_of(K4 + [(1, 10), (11, 2), (3, 20), (20, 21), (21, 3)],
                      [(10, 11)])
    assert core == g.induced([1, 2, 3, 4, 10, 11])
    # a chain around an otherwise degree-3 vertex leaves it on a chain itself
    plain = [e for e in K4 if e != (3, 4)]
    g, core = core_of(plain + [(1, 10), (11, 2), (3, 20), (20, 21), (21, 3)],
                      [(10, 11)])
    assert core.vertices() == [1, 2, 10, 11]
    assert len(core.edges_between(1, 2)) == 2


def test_core_caps_parallel_edges_at_two():
    g, core = core_of(K4 + [(1, 10), (11, 2), (3, 20), (20, 4), (3, 21),
                            (21, 4), (3, 22), (22, 4)], [(10, 11)])
    assert core.vertices() == [1, 2, 3, 4, 10, 11]
    assert len(core.edges_between(3, 4)) == 2
    assert g.edges_between(3, 4)[0] in core.edges_between(3, 4)


def test_core_keeps_the_plain_neighbour_of_an_s_endpoint():
    # 12-13 lies on no cycle; its end 12 keeps degree 2 through 30
    g, core = core_of(K4 + [(1, 10), (11, 2), (12, 30), (30, 31), (13, 3)],
                      [(10, 11), (12, 13)])
    assert core.vertices() == [1, 2, 3, 4, 10, 11, 12, 13, 30]
    assert core.degree(30) == 1 and core.degree(12) == 2


def shrink_samples(count, seed=0):
    """Normalized instances past the |S| <= k shortcut, with their T."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            pinst = random_instance(rng, n_hi=9, k_hi=2)
        else:
            n = rng.randint(6, 20)
            pinst = gnm(n, rng.randint(n, 2 * n), rng.randint(1, 5),
                        rng.randint(0, 2), rng.randrange(1 << 30))
        inst = normalize(pinst).instance.drop_pairs()
        if inst.k >= 0 and len(inst.s) > inst.k:
            yield inst, sorted({v for e in inst.s for v in inst.graph.endpoints(e)})


def test_core_and_kernel_keep_the_answer_on_shrunk_instances():
    shrunk = 0
    for i, (inst, t) in enumerate(shrink_samples(800)):
        core = cycle_core(inst.graph, t)
        check_normalized(Instance(core, inst.s, inst.k))
        assert cycle_core(core, t) is core      # a fixpoint
        if core.n == inst.graph.n:
            continue
        shrunk += 1
        want = solve_exact(inst, n_cap=60).found
        assert solve_exact(Instance(core, inst.s, inst.k), n_cap=60).found == want
        rep = kernelize_by_s(inst, seed=i)
        assert (rep.n_input, rep.n_core) == (inst.graph.n, core.n)
        assert solve_exact(rep.instance, n_cap=60).found == want
    assert shrunk > 300


def test_matroid_wide_answers_survive_the_core():
    for n, sizes in ((90, (119, 82)), (100, (136, 94)), (105, (143, 92))):
        inst = matroid_wide(n).drop_pairs()
        t = sorted({v for e in inst.s for v in inst.graph.endpoints(e)})
        core = Instance(cycle_core(inst.graph, t), inst.s, inst.k)
        rep = kernelize_by_s(inst, seed=3)
        assert (rep.n_input, rep.n_core) == sizes == (inst.graph.n, core.graph.n)
        want = solve_exact(inst, n_cap=LIFTED_CAP).found
        assert solve_exact(core, n_cap=LIFTED_CAP).found == want
        assert solve_exact(rep.instance, n_cap=LIFTED_CAP).found == want


def test_default_sweep_shrinks_some_matroid_calls(monkeypatch):
    sizes = []

    def recorded(inst, seed):
        rep = kernelize_by_s(inst, seed)
        sizes.append((rep.n_input, rep.n_core))
        return rep

    monkeypatch.setattr(pipeline, "kernelize_by_s", recorded)
    assert run_sweep().ok
    assert all(core <= n for n, core in sizes)
    assert any(core < n for n, core in sizes)


def test_broken_core_is_an_internal_error(tmp_path, monkeypatch):
    monkeypatch.setattr(skernel, "cycle_core", broken_core)
    with pytest.raises(AssertionError, match="cycle core broke"):
        kernelize_by_s(matroid_wide(90).drop_pairs(), seed=0)
    path = tmp_path / "in.sfvs"
    write_instance(str(path), matroid_wide(90))
    assert main(["kernelize", str(path), "--stage", "matroid"]) == 3


# what `kernelize --stage matroid` writes for perfbench's matroid warm-up input
WARMUP_KERNEL = """\
# outcome: reduced
# reduced: 6 vertices, 9 edges, 3 special, budget 0
p sfvs 6 9 0
# 1 was 16
# 2 was 17
# 3 was 18
# 4 was 19
# 5 was 20
# 6 was 21
e 1 2 s
e 3 4 s
e 5 6 s
e 2 3 -
e 2 4 -
e 2 6 -
e 3 4 -
e 3 6 -
e 4 6 -
"""


def test_benchmark_matroid_warmup_input_is_kernelized(tmp_path):
    """perfbench's matroid-wide warm-up input normalizes to k = 0 with
    |S| = 3, so the uniform block has no coordinates and every wedge is
    zero; the benchmark does not look at the warm-up call's exit code."""
    inst = normalize(gnm(16, 24, 5, 1, 11)).instance
    assert inst.k == 0 and len(inst.s) == 3
    path, out = tmp_path / "warmup.in", tmp_path / "warmup.out"
    path.write_text(serialize_instance(inst), encoding="ascii")
    assert main(["kernelize", str(path), "--stage", "matroid",
                 "-o", str(out)]) == 0
    assert out.read_text(encoding="ascii") == WARMUP_KERNEL


def test_broken_core_is_caught_under_python_O(tmp_path):
    path = tmp_path / "in.sfvs"
    write_instance(str(path), matroid_wide(90))
    script = (
        "import sys\n"
        "from helpers import broken_core\n"
        "from sfvs_kernel import skernel\n"
        "from sfvs_kernel.cli import main\n"
        "skernel.cycle_core = broken_core\n"
        f"sys.exit(main(['kernelize', {str(path)!r}, '--stage', 'matroid']))\n")
    src = str(Path(skernel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(Path(__file__).resolve().parent)] +
        [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 3, run.stderr
    assert "internal error: AssertionError: cycle core broke" in run.stderr


# -- triples left out before the filter -----------------------------------------


def triple(v):
    return (("c1", v), ("c2", v), ("hat", v))


def check_left_out(columns, d1, d2, every, offered):
    """Every triple of `every` missing from `offered` has a zero wedge, and
    the filter keeps the same triples from both lists. Returns how many
    were left out and how many triples of `every` have a zero wedge."""
    left = [tr for tr in every if tr not in set(offered)]
    for a, b, c in left:
        assert not wedge3_nonzero(columns[a], columns[b], columns[c])
    zero = sum(1 for a, b, c in every
               if not wedge3_nonzero(columns[a], columns[b], columns[c]))
    assert representative_triples(columns, d1, d2, offered) == \
        representative_triples(columns, d1, d2, every)
    return len(left), zero


def test_left_out_triples_have_zero_wedges_on_matroid_wide(monkeypatch):
    left_total = 0
    for n in (90, 100, 105):
        args, _, full, _ = stage_filter_calls(
            monkeypatch, matroid_wide(n).drop_pairs(), 5)
        columns, d1, d2, offered, copies = args
        assert combine(columns, copies, d1) == \
            {lab: col for lab, col in full.items() if lab not in columns}
        columns = columns | full
        every = [triple(lab[1]) for lab in columns
                 if isinstance(lab, tuple) and lab[0] == "hat"]
        left, zero = check_left_out(columns, d1, d2, every, offered)
        # every zero wedge there comes from a vertex with one in-neighbour
        assert left == zero
        left_total += left
    assert left_total == 112


def test_left_out_triples_have_zero_wedges_on_random_digraphs():
    rng = random.Random(12)
    left_total = 0
    for _ in range(150):
        g, _ = random_multigraph(rng, n_hi=9)
        dg = bidirected(g)
        t = rng.sample(dg.vertices, rng.randint(1, min(4, g.n)))
        k = rng.randint(1, 3)
        rep = add_sink_copies(represent(dg, t, dg.vertices, rng), dg, rng)
        columns = rep.columns | uniform_rep(
            [("hat", v) for v in sorted(g.vertices())], k).columns
        offered = [triple(v) for v in _wedge_candidates(dg)]
        every = [triple(v) for v in sorted(g.vertices())]
        left_total += check_left_out(columns, len(t), k, every, offered)[0]
    assert left_total > 100
