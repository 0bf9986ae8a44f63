"""Command line behavior: exit codes, stages, determinism."""
import ast
import io
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import sfvs_kernel
from sfvs_kernel import cli, ruleengine, verify
from sfvs_kernel.cli import main
from sfvs_kernel.instancefile import parse_instance, serialize_instance, write_instance
from sfvs_kernel.generators import gnm, planted
from sfvs_kernel.multigraph import Multigraph, PairInstance, normalize
from sfvs_kernel.oracle import MAX_EXACT_BUDGET, MAX_EXACT_VERTICES, solve_exact


def gen_file(tmp_path, name="in.sfvs", **kw):
    args = dict(n=8, m=12, s=3, k=2, seed=5)
    args.update(kw)
    p = gnm(args["n"], args["m"], args["s"], args["k"], args["seed"])
    path = tmp_path / name
    write_instance(str(path), p)
    return path, p


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out = tmp_path / "g.sfvs"
    assert main(["gen", "--model", "gnm", "--n", "6", "--m", "9", "--s", "2",
                 "--k", "1", "--seed", "7", "-o", str(out)]) == 0
    p = parse_instance(out.read_text())
    assert p.graph.n == 6 and p.graph.m == 9
    # stdout form matches the file form
    assert main(["gen", "--model", "gnm", "--n", "6", "--m", "9", "--s", "2",
                 "--k", "1", "--seed", "7"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_gen_bubble_forest_model(tmp_path):
    out = tmp_path / "bf.sfvs"
    assert main(["gen", "--model", "bubble-forest", "--seed", "3",
                 "-o", str(out)]) == 0
    parse_instance(out.read_text()).validate()


def test_gen_planted_model(tmp_path):
    out = tmp_path / "planted.sfvs"
    assert main(["gen", "--model", "planted", "--n", "60", "--k", "3",
                 "--d", "5", "--seed", "3", "-o", str(out)]) == 0
    p = parse_instance(out.read_text())
    assert serialize_instance(p) == serialize_instance(planted(60, 3, 5, seed=3))


def test_solve_exit_codes(tmp_path, capsys):
    path, p = gen_file(tmp_path)
    code = main(["solve", str(path)])
    out = capsys.readouterr().out.strip()
    want = solve_exact(p)
    if want.found:
        assert code == 0 and out.startswith("yes")
        witness = frozenset(map(int, out.split()[1:]))
        assert len(witness) <= p.k
    else:
        assert code == 1 and out == "no"


def test_solve_no_instance(tmp_path, capsys):
    # an S-loop with budget 0 has no solution
    g = Multigraph()
    g.add_vertex(1)
    le = g.add_edge(1, 1)
    path = tmp_path / "no.sfvs"
    write_instance(str(path), PairInstance(g, frozenset([le]), frozenset(), 0))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().out.strip() == "no"


def test_solve_rejects_a_negative_max_k(tmp_path, capsys):
    # the empty instance is a yes-instance; a budget cap of -1 tried no budget
    # and answered "no"
    path = tmp_path / "empty.sfvs"
    assert main(["gen", "--n", "0", "--m", "0", "--s", "0", "--k", "0",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["solve", str(path), "--max-k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-k" in captured.err


def test_solve_reads_stdin(tmp_path, capsys, monkeypatch):
    _, p = gen_file(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_instance(p)))
    code = main(["solve", "-"])
    assert code in (0, 1)


def test_kernelize_stages_and_headers(tmp_path, capsys):
    path, p = gen_file(tmp_path)
    for stage in ("full", "rules", "matroid"):
        out = tmp_path / f"{stage}.sfvs"
        code = main(["kernelize", str(path), "--stage", stage, "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# outcome: ")
        reduced = parse_instance(text)
        # answers agree between input and output
        assert solve_exact(reduced, n_cap=60).found == solve_exact(p).found


def test_kernelize_greedy_provider(tmp_path):
    path, p = gen_file(tmp_path, seed=11)
    out = tmp_path / "g.out"
    assert main(["kernelize", str(path), "--provider", "greedy",
                 "-o", str(out)]) == 0
    reduced = parse_instance(out.read_text())
    assert solve_exact(reduced, n_cap=60).found == solve_exact(p).found


def test_kernelize_is_deterministic(tmp_path):
    path, _ = gen_file(tmp_path)
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert main(["kernelize", str(path), "--seed", "9", "-o", str(a)]) == 0
    assert main(["kernelize", str(path), "--seed", "9", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_rule_stage_output_does_not_depend_on_seed(tmp_path):
    # the rule stage draws nothing at random; --seed reaches only the matroid
    # stage. A planted "yes" instance, so the rule stage reduces it.
    path = tmp_path / "planted.sfvs"
    write_instance(str(path), planted(80, 3, 4, seed=11))
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"rules-{seed}.out"
        assert main(["kernelize", str(path), "--stage", "rules", "--provider",
                     "greedy", "--seed", seed, "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0].startswith(b"# outcome: reduced\n")
    assert outs[0] == outs[1]


def test_kernelize_matroid_rejects_pairs(tmp_path, capsys):
    g = Multigraph.from_edges([1, 2], [(1, 2)])
    p = PairInstance(g, frozenset(), frozenset([frozenset((1, 2))]), 1)
    path = tmp_path / "pairs.sfvs"
    write_instance(str(path), p)
    assert main(["kernelize", str(path), "--stage", "matroid"]) == 2


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sfvs"
    bad.write_text("p sfvs 2 1 0\ne 1 5 -\n")
    assert main(["solve", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.sfvs")]) == 2


def test_directory_as_input_or_output_exits_2(tmp_path, capsys):
    # unreadable input and unwritable output are input errors, not crashes
    assert main(["kernelize", str(tmp_path)]) == 2
    assert main(["gen", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_verify_small_sweep(capsys):
    assert main(["verify", "--trials", "24", "--n-max", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "failures: 0" in out
    assert "rule firings:" in out


@pytest.mark.parametrize("flag, value", [("--trials", "-3"), ("--n-max", "2"),
                                         ("--k-max", "-1")])
def test_verify_rejects_a_bad_range(flag, value, capsys):
    assert main(["verify", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and "randrange" not in captured.err


@pytest.mark.parametrize("flag, value, cap", [
    ("--n-max", "26", MAX_EXACT_VERTICES), ("--n-max", "30", MAX_EXACT_VERTICES),
    ("--k-max", "7", MAX_EXACT_BUDGET), ("--k-max", "8", MAX_EXACT_BUDGET)])
def test_verify_rejects_sizes_above_the_solver_caps_before_any_trial(
        flag, value, cap, monkeypatch, capsys):
    # the exact solver would refuse such an instance only once one is drawn
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(verify, "_check_one", no_trial)
    monkeypatch.setattr(verify, "gadget_suite", no_trial)
    assert main(["verify", "--trials", "40", flag, value]) == 2
    assert f"must be at most {cap}, got {value}" in capsys.readouterr().err


def test_verify_accepts_the_solver_caps(capsys):
    assert main(["verify", "--trials", "2", "--n-max", str(MAX_EXACT_VERTICES),
                 "--k-max", str(MAX_EXACT_BUDGET)]) == 0
    assert "failures: 0" in capsys.readouterr().out


def test_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_matroid_stage_runs_under_python_O(tmp_path):
    # the stage's soundness checks raise instead of assert, so -O keeps them
    pinst = normalize(gnm(16, 24, 5, 1, seed=11)).instance
    t = 2 * len(pinst.s)
    assert not pinst.pairs and len(pinst.s) > pinst.k
    src_path, out_path = tmp_path / "in.sfvs", tmp_path / "out.sfvs"
    write_instance(str(src_path), pinst)
    src = str(Path(sfvs_kernel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    run = subprocess.run(
        [sys.executable, "-O", "-m", "sfvs_kernel.cli", "kernelize",
         str(src_path), "--stage", "matroid", "--seed", "3",
         "-o", str(out_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    text = out_path.read_text()
    assert text.startswith("# outcome: reduced\n")
    out = parse_instance(text)
    assert out.graph.n <= comb(t, 2) * pinst.k + t
    assert out.s and out.k == pinst.k


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    # a failed soundness check must not read as solve's "no" (exit 1)
    path, _ = gen_file(tmp_path)

    def broken(*args, **kwargs):
        raise AssertionError("invariant\nbroken")

    monkeypatch.setattr(cli, "solve_exact", broken)
    assert main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: invariant broken\n"


def test_value_error_inside_the_pipeline_exits_3(tmp_path, capsys,
                                                 monkeypatch):
    # a ValueError from the pipeline is an internal failure, not bad input
    path, _ = gen_file(tmp_path)

    def broken(inst):
        raise ValueError("not normalized")

    monkeypatch.setattr(ruleengine, "check_normalized", broken)
    assert main(["kernelize", str(path), "--stage", "rules"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: not normalized\n"


def test_non_ascii_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sfvs"
    bad.write_bytes("p sfvs 2 1 0\ne 1 2 - # caf\u00e9\n".encode("utf-8"))
    assert main(["kernelize", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: 'ascii' codec")


def test_verify_sweep_runs_under_python_O():
    # rules, flowers and the matroid stage keep their checks under -O
    src = str(Path(sfvs_kernel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    run = subprocess.run(
        [sys.executable, "-O", "-m", "sfvs_kernel.cli", "verify",
         "--trials", "20"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "failures: 0" in run.stdout
    firings = next(line for line in run.stdout.splitlines()
                   if line.startswith("rule firings:"))
    fired = ast.literal_eval(firings.split(":", 1)[1].strip())
    assert all(fired.get(r, 0) > 0 for r in range(1, 11)), firings


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so soundness checks must raise
    pkg = Path(sfvs_kernel.__file__).resolve().parent
    found = []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(pkg.rglob("*.py"))) > 10
    assert found == []
