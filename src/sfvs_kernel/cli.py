"""Command line front end.

    sfvs kernelize INPUT [-o OUT] [--stage full|rules|matroid] [--seed N]
                   [--provider exact|greedy]
    sfvs solve INPUT [--max-k N]
    sfvs gen [-o OUT] --model gnm|bubble-forest|planted [--n N --m M --s S --k K]
             [--d D] --seed N
    sfvs verify [--trials N] [--n-max N] [--k-max N] [--seed N]

Exit codes: 0 on success (for solve: the answer is yes; for verify: all
checks passed), 1 for a negative result (no solution / failed checks),
2 for usage errors, input that cannot be read or parsed, an output that
cannot be written, and arguments that solve, gen or verify reject, 3 for an
internal error (a failed soundness check, or any other exception, a
ValueError raised while kernelize runs the pipeline included), which is
never an answer.
"""
from __future__ import annotations

import argparse
import sys

from .generators import bubble_forest, gnm, planted
from .instancefile import FormatError, parse_instance, serialize_instance
from .oracle import feasible_z_greedy, solve_exact
from .pipeline import run_full, run_matroid, run_rules
from .verify import run_sweep


def _read(path: str):
    if path == "-":
        return parse_instance(sys.stdin.read())
    with open(path, "r", encoding="ascii") as fh:
        return parse_instance(fh.read())


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_kernelize(args) -> int:
    pinst = _read(args.input)
    provider = feasible_z_greedy if args.provider == "greedy" else None
    if args.stage == "rules":
        rep = run_rules(pinst, provider=provider)
    elif args.stage == "matroid":
        if pinst.pairs:
            print("matroid stage takes pair-free instances", file=sys.stderr)
            return 2
        rep = run_matroid(pinst.drop_pairs(), seed=args.seed)
    else:
        rep = run_full(pinst, provider=provider, seed=args.seed)
    body = serialize_instance(rep.final.with_pairs())
    g = rep.final.graph
    head = (f"# outcome: {rep.outcome}\n"
            f"# reduced: {g.n} vertices, {g.m} edges, "
            f"{len(rep.final.s)} special, budget {rep.final.k}\n")
    _emit(head + body, args.output)
    return 0


def cmd_solve(args) -> int:
    pinst = _read(args.input)
    res = solve_exact(pinst, max_k=args.max_k)
    if res.found:
        print("yes " + " ".join(map(str, sorted(res.witness))))
        return 0
    print("no")
    return 1


def cmd_gen(args) -> int:
    if args.model == "gnm":
        pinst = gnm(args.n, args.m, args.s, args.k, args.seed)
    elif args.model == "planted":
        pinst = planted(args.n, args.k, args.d, args.seed)
    else:
        pinst = bubble_forest(args.seed)
    _emit(serialize_instance(pinst), args.output)
    return 0


def cmd_verify(args) -> int:
    rep = run_sweep(trials=args.trials, seed=args.seed,
                    n_max=args.n_max, k_max=args.k_max)
    for line in rep.lines():
        print(line)
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sfvs",
                                description="subset feedback vertex set kernelizer")
    sub = p.add_subparsers(dest="command", required=True)

    kz = sub.add_parser("kernelize", help="reduce an instance")
    kz.add_argument("input", help="instance file, or - for stdin")
    kz.add_argument("-o", "--output", default="-")
    kz.add_argument("--stage", choices=("full", "rules", "matroid"),
                    default="full")
    kz.add_argument("--provider", choices=("exact", "greedy"), default="exact")
    kz.add_argument("--seed", type=int, default=0,
                    help="seed of the matroid stage's random representation")
    kz.set_defaults(func=cmd_kernelize, arg_errors=())

    sv = sub.add_parser("solve", help="exhaustively solve a small instance")
    sv.add_argument("input", help="instance file, or - for stdin")
    sv.add_argument("--max-k", type=int, default=None,
                    help="try budgets up to min(N, header budget)")
    sv.set_defaults(func=cmd_solve, arg_errors=(ValueError,))

    gn = sub.add_parser("gen", help="generate a random instance")
    gn.add_argument("-o", "--output", default="-")
    gn.add_argument("--model", choices=("gnm", "bubble-forest", "planted"),
                    default="gnm")
    gn.add_argument("--n", type=int, default=10)
    gn.add_argument("--m", type=int, default=14)
    gn.add_argument("--s", type=int, default=4)
    gn.add_argument("--k", type=int, default=2)
    gn.add_argument("--d", type=int, default=4,
                    help="plain edges per hub (planted model)")
    gn.add_argument("--seed", type=int, default=0)
    gn.set_defaults(func=cmd_gen, arg_errors=(ValueError,))

    vf = sub.add_parser("verify", help="randomized self-check sweep")
    vf.add_argument("--trials", type=int, default=200)
    vf.add_argument("--n-max", type=int, default=10)
    vf.add_argument("--k-max", type=int, default=3)
    vf.add_argument("--seed", type=int, default=0)
    vf.set_defaults(func=cmd_verify, arg_errors=(ValueError,))

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # input that is not ASCII fails to decode; solve, gen and verify check
    # their arguments with ValueError, which in kernelize is internal
    except (FormatError, OSError, UnicodeDecodeError, *args.arg_errors) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
