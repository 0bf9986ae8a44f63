"""The pipeline's S-cycle packing exit, and planted "yes" instances end to end."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfvs_kernel
from sfvs_kernel import pipeline
from sfvs_kernel.cli import main
from sfvs_kernel.generators import gadget_suite, gnm, planted
from sfvs_kernel.instancefile import serialize_instance, write_instance
from sfvs_kernel.multigraph import Multigraph, PairInstance, normalize
from sfvs_kernel.oracle import feasible_z_greedy, solve_exact
from sfvs_kernel.pipeline import run_full, run_rules


def s_triangles(count: int, k: int) -> PairInstance:
    """`count` vertex-disjoint triangles, each with one S-edge."""
    g, s = Multigraph(), set()
    for i in range(count):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        s.add(g.add_edge(a, b))
        g.add_edge(b, c)
        g.add_edge(c, a)
    return PairInstance(g, frozenset(s), frozenset(), k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_plus_one_disjoint_s_cycles_answer_no_before_the_engine(k):
    rep = run_rules(s_triangles(k + 1, k))
    assert rep.outcome == "trivial-no"
    assert rep.engine is None
    assert solve_exact(rep.final).found is False


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_disjoint_s_cycles_do_not_answer_no(k):
    for provider in (None, feasible_z_greedy):
        rep = run_full(s_triangles(k, k), provider=provider)
        assert rep.outcome != "trivial-no"
        assert solve_exact(rep.final, n_cap=60).found is True


def test_the_packing_waits_for_k_of_at_least_one():
    # at k = 0, rule 1 answers from one bridge pass
    (gad,) = [gad for gad in gadget_suite() if gad.name == "budget-exhausted"]
    assert gad.pinst.k == 0
    rep = run_rules(gad.pinst, provider=gad.provider)
    assert rep.outcome == "trivial-no"
    assert rep.engine is not None and rep.engine.rule_counts.get(1) == 1


# bad packings for four S-triangles 1-2-3, 4-5-6, ... (S-edges 1-2, 4-5, ...)
# plus the plain triangle 13-14-15, at k = 2
BAD_PACKINGS = {
    "overlapping": [[1, 2, 3], [3, 1, 2], [7, 8, 9]],
    "repeated-vertex": [[1, 2, 1], [4, 5, 6], [7, 8, 9]],
    "vertex-without-loop": [[1], [4, 5, 6], [7, 8, 9]],
    "single-edge": [[4, 5], [1, 2, 3], [7, 8, 9]],
    "not-closed": [[1, 2, 4], [7, 8, 9], [10, 11, 12]],
    "no-s-edge": [[13, 14, 15], [1, 2, 3], [7, 8, 9]],
    "missing-vertex": [[1, 2, 3], [7, 8, 9], [97, 98, 99]],
}


@pytest.mark.parametrize("name", sorted(BAD_PACKINGS))
def test_a_bad_packing_raises(monkeypatch, name):
    pinst = s_triangles(4, 2)
    g = pinst.graph
    for a, b in ((13, 14), (14, 15), (15, 13)):
        g.add_edge(a, b)
    monkeypatch.setattr(pipeline, "s_cycle_packing",
                        lambda g, s, limit: BAD_PACKINGS[name])
    with pytest.raises(AssertionError):
        run_rules(pinst)


def _run_cli(args, *flags):
    src = str(Path(sfvs_kernel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys\n"
            "from sfvs_kernel import cli, pipeline\n"
            "pipeline.s_cycle_packing = lambda g, s, limit: [[1, 2, 3]] * limit\n"
            f"sys.exit(cli.main({args!r}))\n")
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_a_bad_packing_exits_3_through_the_cli(tmp_path, flags):
    path = tmp_path / "in.sfvs"
    write_instance(str(path), s_triangles(4, 2))
    run = _run_cli(["kernelize", str(path)], *flags)
    assert run.returncode == 3, run.stdout + run.stderr
    assert run.stdout == ""
    assert run.stderr.startswith("internal error: AssertionError: packed S-cycles")


# sha256 of `kernelize --stage matroid` on the matroid-wide benchmark inputs,
# as written before the packing exit existed; the seed does not change them
MATROID_WIDE_SHA256 = {
    90: "89c7902224fbc3513eb45dd3106dc760e41f00c86152f665ac7e9e71eda8bae1",
    100: "889f92373e14b4a8ba0502a695cb9a9aa3f05ae7f61fe6006198b35d6fa87381",
    105: "64c3fc488e705ad1dd124609c1b05c7767b7f62ae3968289af00ea2c2e3ee96a",
}


@pytest.mark.parametrize("n", sorted(MATROID_WIDE_SHA256))
def test_matroid_stage_skips_the_packing(tmp_path, n):
    pinst = normalize(gnm(n, 3 * n // 2, n // 6 + 2, 3, 11)).instance
    path, out = tmp_path / "in.sfvs", tmp_path / "out.sfvs"
    path.write_text(serialize_instance(pinst))
    assert main(["kernelize", str(path), "--stage", "matroid", "--seed", "5",
                 "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MATROID_WIDE_SHA256[n]
    # the same input is a "no" that the rule stage's packing settles
    assert main(["kernelize", str(path), "--stage", "rules", "-o", str(out)]) == 0
    assert out.read_text().startswith("# outcome: trivial-no\n")


@pytest.mark.parametrize("n", [100, 200, 300])
@pytest.mark.parametrize("d", [3, 4, 20])
def test_planted_instances_never_answer_no(n, d):
    rep = run_full(planted(n, 3, d, seed=11), provider=feasible_z_greedy)
    assert rep.outcome != "trivial-no"
    if rep.outcome == "reduced":
        assert solve_exact(rep.final, n_cap=10 ** 6).found
