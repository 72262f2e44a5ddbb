"""Command-line front-end.

Exit codes: 0 success (including "tileable" and Valid), 1 clean
negative (not tileable, not representable, Invalid, Infeasible),
2 bad input or violated precondition, 3 resource limits hit.
Every failure is a single stderr line "error: <Type>: <message>".

main builds its parser once per process, on its first call, and parses
every later argv with it: the parser depends on no input, and argparse
keeps no state between parse_args calls.  build_parser returns a fresh
one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from .codec import encode, load_tiling, save_tiling
from .constructor import BrickSystem, construct_box, gn_bound
from .errors import CapExceededError, FrobtileError, SearchLimitError
from .model import (
    ROTATION_AXIS_PERMUTATIONS,
    ROTATION_FIXED,
    BoxShape,
    Brick,
    Tiling,
    verify_full,
    verify_sampled,
)
from .oracle import (
    EXHAUSTED,
    FOUND,
    SearchConfig,
    exact_cover_search,
    threshold_scan,
)
from .planar import (
    Decision,
    corollary1_construct,
    corollary1_threshold,
    decide_single_brick,
    decide_two_squares,
    prime_cubes_bound,
    prime_cubes_construct,
    tile_square_235p,
)
from .render import RENDER_FORMATS, RenderOptions, render_ascii, render_svg
from .semigroup import (
    GeneratorSet,
    closed_form_primes,
    frobenius_general,
    frobenius_pair,
    reduce_brauer_shockley,
    represent,
)


class _Parser(argparse.ArgumentParser):
    """argparse that fails with one machine-parseable line, exit code 2."""

    def error(self, message):
        print(f"error: ArgumentError: {message}", file=sys.stderr)
        raise SystemExit(2)


def _shape(text: str) -> tuple[int, ...]:
    """Parse '6x4' or '10x10x10' into a side tuple."""
    try:
        sides = tuple(int(part) for part in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected sides like 6x4, got {text!r}")
    if not sides or any(s < 1 for s in sides):
        raise argparse.ArgumentTypeError(f"sides must be positive integers, got {text!r}")
    return sides


def _write_tiling(t: Tiling, path: str) -> None:
    save_tiling(t, path)
    print(f"wrote {path} ({len(t.brick_index)} placements)")


def _emit_tiling(t: Tiling, out: Optional[str]) -> None:
    if out is None:
        print(encode(t))
    else:
        _write_tiling(t, out)


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        rotation_policy=args.rotations,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        parallel=args.parallel,
    )


# ---------------------------------------------------------------- frob


def _cmd_frob_pair(args) -> int:
    print(frobenius_pair(args.gens[0], args.gens[1]))
    return 0


def _cmd_frob_general(args) -> int:
    print(frobenius_general(GeneratorSet(args.gens)))
    return 0


def _cmd_frob_reduced(args) -> int:
    print(reduce_brauer_shockley(GeneratorSet(args.gens)))
    return 0


def _cmd_frob_represent(args) -> int:
    rep = represent(args.target, GeneratorSet(args.gens))
    if rep is None:
        print(f"{args.target} is not representable")
        return 1
    print(" ".join(str(c) for c in rep.coefficients))
    return 0


def _cmd_frob_closed_form(args) -> int:
    print(closed_form_primes(args.primes))
    return 0


# ---------------------------------------------------------------- bound


def _cmd_bound_gn(args) -> int:
    system = BrickSystem(tuple(Brick(sides) for sides in args.bricks))
    print(gn_bound(system))
    return 0


def _cmd_bound_corollary1(args) -> int:
    print(corollary1_threshold(args.p, args.q, args.r, args.s))
    return 0


def _cmd_bound_prime_cubes(args) -> int:
    print(prime_cubes_bound(args.primes))
    return 0


# ---------------------------------------------------------------- tile


def _cmd_tile_construct(args) -> int:
    system = BrickSystem(tuple(Brick(sides) for sides in args.bricks))
    _emit_tiling(construct_box(BoxShape(args.box), system), args.out)
    return 0


def _cmd_tile_corollary1(args) -> int:
    t = corollary1_construct(args.box[0], args.box[1], args.p, args.q, args.r, args.s)
    _emit_tiling(t, args.out)
    return 0


def _cmd_tile_prime_cubes(args) -> int:
    _emit_tiling(prime_cubes_construct(args.side, args.primes), args.out)
    return 0


def _cmd_tile_squares_235p(args) -> int:
    decision = tile_square_235p(args.side, args.p)
    if not decision.tileable:
        print(str(decision))
        return 1
    _emit_tiling(decision.witness, args.out)
    return 0


# ---------------------------------------------------------------- decide


def _finish_decision(decision: Decision, witness_path: Optional[str]) -> int:
    print(str(decision))
    if decision.tileable and witness_path is not None:
        _write_tiling(decision.witness, witness_path)
    return 0 if decision.tileable else 1


def _cmd_decide_single_brick(args) -> int:
    a1, a2 = args.box
    x1, x2 = args.brick
    return _finish_decision(decide_single_brick(a1, a2, x1, x2), args.witness)


def _cmd_decide_two_squares(args) -> int:
    a1, a2 = args.box
    return _finish_decision(decide_two_squares(a1, a2, args.x, args.y), args.witness)


def _cmd_decide_235p(args) -> int:
    return _finish_decision(tile_square_235p(args.side, args.p), args.witness)


# ---------------------------------------------------------------- oracle


def _cmd_oracle_search(args) -> int:
    bricks = tuple(Brick(sides) for sides in args.bricks)
    result = exact_cover_search(BoxShape(args.box), bricks, _search_config(args))
    print(str(result))
    if args.stats:
        print(json.dumps(dataclasses.asdict(result.stats)), file=sys.stderr)
    if result.status == FOUND:
        if args.out is not None:
            _write_tiling(result.tiling, args.out)
        return 0
    return 3 if result.status == EXHAUSTED else 1


def _cmd_oracle_scan(args) -> int:
    bricks = tuple(Brick(sides) for sides in args.bricks)
    misses = threshold_scan(bricks, args.limit, _search_config(args))
    print(" ".join(str(a) for a in misses))
    return 0


# ---------------------------------------------------------------- verify


def _cmd_verify_full(args) -> int:
    report = verify_full(load_tiling(args.tiling))
    print(str(report))
    return 0 if report.valid else 1


def _cmd_verify_sampled(args) -> int:
    report = verify_sampled(load_tiling(args.tiling), samples=args.samples, seed=args.seed)
    print(str(report))
    return 0 if report.valid else 1


# ---------------------------------------------------------------- render


def _cmd_render(args) -> int:
    t = load_tiling(args.tiling)
    if args.format == "ascii":
        text = render_ascii(t)
    else:
        text = render_svg(t, RenderOptions(cell_size=args.cell_size))
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------- parser


def _add_search_flags(sub) -> None:
    sub.add_argument("--rotations", choices=(ROTATION_FIXED, ROTATION_AXIS_PERMUTATIONS),
                     default=ROTATION_AXIS_PERMUTATIONS, help="brick rotation policy")
    sub.add_argument("--node-limit", type=int, default=100_000_000)
    sub.add_argument("--time-limit", type=float, default=600.0)
    sub.add_argument("--parallel", action="store_true",
                     help="split the root branches over worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frobtile",
                     description="Frobenius numbers and brick tilings of boxes.")
    top = parser.add_subparsers(dest="command", required=True)

    frob = top.add_parser("frob", help="Frobenius numbers and representations")
    sub = frob.add_subparsers(dest="action", required=True)
    s = sub.add_parser("pair", help="two coprime generators, closed form")
    s.add_argument("--gens", type=int, nargs=2, required=True)
    s.set_defaults(func=_cmd_frob_pair)
    s = sub.add_parser("general", help="any Frobenius-valid generator set")
    s.add_argument("--gens", type=int, nargs="+", required=True)
    s.set_defaults(func=_cmd_frob_general)
    s = sub.add_parser("reduced", help="general, after identity-based reduction")
    s.add_argument("--gens", type=int, nargs="+", required=True)
    s.set_defaults(func=_cmd_frob_reduced)
    s = sub.add_parser("represent", help="nonnegative combination of the generators")
    s.add_argument("--target", type=int, required=True)
    s.add_argument("--gens", type=int, nargs="+", required=True)
    s.set_defaults(func=_cmd_frob_represent)
    s = sub.add_parser("closed-form", help="ascending distinct primes")
    s.add_argument("--primes", type=int, nargs="+", required=True)
    s.set_defaults(func=_cmd_frob_closed_form)

    bound = top.add_parser("bound", help="tileability side bounds")
    sub = bound.add_subparsers(dest="action", required=True)
    s = sub.add_parser("gn", help="largest Frobenius number of a brick system")
    s.add_argument("--bricks", type=_shape, nargs="+", required=True)
    s.set_defaults(func=_cmd_bound_gn)
    s = sub.add_parser("corollary1", help="threshold for (p x q), (r x s), (s x r)")
    for flag in ("--p", "--q", "--r", "--s"):
        s.add_argument(flag, type=int, required=True)
    s.set_defaults(func=_cmd_bound_corollary1)
    s = sub.add_parser("prime-cubes", help="hypercube system of ascending primes")
    s.add_argument("--primes", type=int, nargs="+", required=True)
    s.set_defaults(func=_cmd_bound_prime_cubes)

    tile = top.add_parser("tile", help="construct tilings")
    sub = tile.add_subparsers(dest="action", required=True)
    s = sub.add_parser("construct", help="general box from a brick system")
    s.add_argument("--box", type=_shape, required=True)
    s.add_argument("--bricks", type=_shape, nargs="+", required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_tile_construct)
    s = sub.add_parser("corollary1", help="rectangle from (p x q), (r x s), (s x r)")
    s.add_argument("--box", type=_shape, required=True)
    for flag in ("--p", "--q", "--r", "--s"):
        s.add_argument(flag, type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_tile_corollary1)
    s = sub.add_parser("prime-cubes", help="hypercube of side a from prime bricks")
    s.add_argument("--side", type=int, required=True)
    s.add_argument("--primes", type=int, nargs="+", required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_tile_prime_cubes)
    s = sub.add_parser("squares-235p", help="square from squares 2, 3 and p")
    s.add_argument("--side", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_tile_squares_235p)

    decide = top.add_parser("decide", help="tileability criteria with witnesses")
    sub = decide.add_subparsers(dest="action", required=True)
    s = sub.add_parser("single-brick", help="one brick, rotations allowed")
    s.add_argument("--box", type=_shape, required=True)
    s.add_argument("--brick", type=_shape, required=True)
    s.add_argument("--witness", help="write the witness tiling here when tileable")
    s.set_defaults(func=_cmd_decide_single_brick)
    s = sub.add_parser("two-squares", help="two coprime square bricks")
    s.add_argument("--box", type=_shape, required=True)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--y", type=int, required=True)
    s.add_argument("--witness")
    s.set_defaults(func=_cmd_decide_two_squares)
    s = sub.add_parser("235p", help="square against squares 2, 3 and p")
    s.add_argument("--side", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--witness")
    s.set_defaults(func=_cmd_decide_235p)

    oracle = top.add_parser("oracle", help="exhaustive exact-cover search")
    sub = oracle.add_subparsers(dest="action", required=True)
    s = sub.add_parser("search", help="search one box")
    s.add_argument("--box", type=_shape, required=True)
    s.add_argument("--bricks", type=_shape, nargs="+", required=True)
    _add_search_flags(s)
    s.add_argument("--out", help="write the found tiling here")
    s.add_argument("--stats", action="store_true",
                   help="print the search's counts as one JSON line on stderr")
    s.set_defaults(func=_cmd_oracle_search)
    s = sub.add_parser("scan", help="non-tileable square sides up to a limit")
    s.add_argument("--bricks", type=_shape, nargs="+", required=True)
    s.add_argument("--limit", type=int, required=True)
    _add_search_flags(s)
    s.set_defaults(func=_cmd_oracle_scan)

    verify = top.add_parser("verify", help="check a serialized tiling")
    sub = verify.add_subparsers(dest="action", required=True)
    s = sub.add_parser("full", help="exact cell-coverage verification")
    s.add_argument("--tiling", required=True)
    s.set_defaults(func=_cmd_verify_full)
    s = sub.add_parser("sampled", help="randomized cell-coverage verification")
    s.add_argument("--tiling", required=True)
    s.add_argument("--samples", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_verify_sampled)

    render = top.add_parser("render", help="draw a 2-D tiling")
    render.add_argument("--tiling", required=True)
    render.add_argument("--format", choices=RENDER_FORMATS, default="ascii")
    render.add_argument("--cell-size", type=int, default=10)
    render.add_argument("--out")
    render.set_defaults(func=_cmd_render)

    return parser


# main's parser, built on its first call
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (SearchLimitError, CapExceededError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (FrobtileError, OverflowError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
