"""Command-line interface: solve, gen, verify, price, approx.

Exit codes: 0 success, 1 input/parse failure, 2 negative cycle detected
(with an exactly verified witness printed).  All output is exact; the
--decimal flag adds human-readable decimal approximations next to the
exact values.  Seeds resolve from --seed, then the RATPATH_SEED
environment variable, then 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Optional

from . import graph as graphmod
from .distcmp import _CONSTANTS, _check_constant, _check_seed
from .graph import NegativeCycle, parse, parse_tree, serialize, serialize_tree
from .rational import BigRational, WordBudget, _fraction_text
from .sssp import dijkstra_nonneg, negative_sssp
from .cfrac import best_approx


def _resolve_seed(value: Optional[int]) -> int:
    where = "--seed"
    if value is None:
        where = "RATPATH_SEED"
        env = os.environ.get(where)
        try:
            value = int(env) if env else 0
        except ValueError:
            raise ValueError(f"RATPATH_SEED must be an integer, got {env!r}") from None
    _check_seed(value, where)  # for every command, mode and strategy
    return value


def _write_stats(path: str, stats: Dict[str, object]) -> None:
    lines = ["v 1"]
    for key in sorted(stats):
        val = stats[key]
        if isinstance(val, list):
            val = ",".join(str(x) for x in val)
        lines.append(f"{key} {val}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _check_decimal(digits: Optional[int]) -> None:
    if digits is not None and digits < 0:
        raise ValueError(f"--decimal must be non-negative, got {digits}")


def _fmt(x: BigRational, decimal: Optional[int]) -> str:
    if decimal is None:
        return str(x)
    return f"{x} ({x.to_decimal(decimal)})"


def cmd_solve(args: argparse.Namespace) -> int:
    # The constants given are checked here for every mode and strategy,
    # also where nothing reads the value, so that a bad constant never
    # passes unnoticed.
    constants = {name: getattr(args, name) for name in _CONSTANTS
                 if getattr(args, name) is not None}
    try:
        for name, value in constants.items():
            _check_constant(name, value)
        _check_decimal(args.decimal)
        seed = _resolve_seed(args.seed)
        budget = WordBudget(args.word_bits)
        with open(args.input) as fh:
            g = parse(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    s = args.source if args.source is not None else (g.source or 0)
    if not 0 <= s < g.n:
        print(f"error: source {s} out of range", file=sys.stderr)
        return 1
    mode = args.mode
    if mode == "auto":
        mode = "neg" if g.has_negative_weight() else "nonneg"
    stats: Dict[str, object] = {"mode": mode, "seed": seed, "n": g.n, "m": g.m}
    try:
        if mode == "nonneg":
            result = dijkstra_nonneg(
                g, s, strategy=args.strategy, seed=seed, budget=budget, collect=stats,
                constants=constants,
            )
        else:
            result = negative_sssp(g, s, k=args.k, seed=seed, budget=budget, collect=stats)
    except ValueError as exc:  # NegativeWeightError and rejected parameters
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, NegativeCycle):
        cyc = " ".join(str(v) for v in result.vertices)
        print(f"negative cycle: {cyc}")
        print(f"cycle weight: {_fmt(result.weight, args.decimal)}")
        if args.stats:
            stats["negative_cycle"] = 1
            _write_stats(args.stats, stats)
        return 2
    _emit(serialize_tree(result), args.output)
    if args.decimal is not None and args.output not in (None, "-"):
        dist = result.distances()
        for v in range(result.n):
            if dist[v] is not None:
                print(f"d {v} {_fmt(dist[v], args.decimal)}")
    if args.stats:
        _write_stats(args.stats, stats)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        seed = _resolve_seed(args.seed)
        if args.family == "smalldiff":
            g, gap = graphmod.gen_small_diff(
                args.prime_bound, padding=not args.no_padding, chain=args.chain, window=args.window
            )
            print(f"gap {_fraction_text(gap)}", file=sys.stderr)
        elif args.family == "random":
            g = graphmod.gen_random(args.n, args.m, seed, args.weight_class, "none")
        elif args.family == "priced":
            g = graphmod.gen_random(args.n, args.m, seed, args.weight_class, "priced")
        else:
            raise ValueError(f"unknown family {args.family!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(serialize(g), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.instance) as fh:
            g = parse(fh.read())
        with open(args.tree) as fh:
            tree = parse_tree(fh.read())
        outcome = graphmod.verify_sssp(g, tree)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if outcome.valid:
        print("valid")
        return 0
    if outcome.witness is not None:
        w = outcome.witness
        print(f"invalid: {outcome.reason}; witness e {w.tail} {w.head} {_fraction_text(w.weight)}")
    else:
        print(f"invalid: {outcome.reason}")
    return 2


def cmd_price(args: argparse.Namespace) -> int:
    from .scaling import eps_feasible_price

    try:
        _check_decimal(args.decimal)
        with open(args.input) as fh:
            g = parse(fh.read())
        result = eps_feasible_price(g, args.k, budget=WordBudget(args.word_bits))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, NegativeCycle):
        cyc = " ".join(str(v) for v in result.vertices)
        print(f"negative cycle: {cyc}")
        print(f"cycle weight: {_fmt(result.weight, args.decimal)}")
        return 2
    lines = [f"v {v} {_fraction_text(result[v])}" for v in range(g.n)]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    try:
        x = BigRational.parse(args.value)
        ap = best_approx(x, args.bits)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"lo {_fraction_text(ap.lo)}")
    print(f"hi {_fraction_text(ap.hi)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ratpath", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a shortest-paths tree")
    solve.add_argument("--input", required=True)
    solve.add_argument("--source", type=int)
    solve.add_argument("--mode", choices=["nonneg", "neg", "auto"], default="auto")
    solve.add_argument(
        "--strategy", choices=["exact_oracle", "distcmp", "pairwise_delta"], default="distcmp"
    )
    solve.add_argument("--seed", type=int)
    solve.add_argument("--k", type=int)
    solve.add_argument("--stats")
    solve.add_argument("--decimal", type=int)
    solve.add_argument("--word-bits", type=int, default=64, help="word budget B")
    solve.add_argument("--C", type=float, help="level thinning constant (non-negative mode; "
                       f"default {_CONSTANTS['C']})")
    solve.add_argument("--lam", type=float, help="cover instance multiplier (non-negative mode; "
                       f"default {_CONSTANTS['lam']})")
    solve.add_argument("--output", "-o")
    solve.set_defaults(func=cmd_solve)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument("family", choices=["smalldiff", "random", "priced"])
    gen.add_argument("--prime-bound", type=int, default=6)
    gen.add_argument("--no-padding", action="store_true")
    gen.add_argument("--chain", type=int, default=1)
    gen.add_argument("--window", type=int)
    gen.add_argument("--n", type=int, default=16)
    gen.add_argument("--m", type=int, default=48)
    gen.add_argument("--weight-class", default="small", choices=sorted(graphmod._WEIGHT_CLASSES))
    gen.add_argument("--seed", type=int)
    gen.add_argument("--output", "-o")
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="check a tree against an instance")
    verify.add_argument("instance")
    verify.add_argument("tree")
    verify.set_defaults(func=cmd_verify)

    price = sub.add_parser("price", help="2^-k-feasible price function")
    price.add_argument("--input", required=True)
    price.add_argument("--k", type=int, default=8)
    price.add_argument("--word-bits", type=int, default=64)
    price.add_argument("--decimal", type=int)
    price.add_argument("--output", "-o")
    price.set_defaults(func=cmd_price)

    approx = sub.add_parser("approx", help="best b-bit rational approximation")
    approx.add_argument("value")
    approx.add_argument("--bits", type=int, required=True)
    approx.set_defaults(func=cmd_approx)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
