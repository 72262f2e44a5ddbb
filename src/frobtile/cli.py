"""Command-line front-end.

Each verb is one row of _VERBS: its group, name, help text, argument
specs, and either a writer with the library call it writes, or a
handler of its own.  There is one writer per kind of result: _value
prints a value, _tiling a tiling (to --out or stdout), _decision a
verdict (its witness to --witness) and _report a verification report.
frob represent, tile squares-235p, oracle search and render have
handlers.

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

from .codec import encode_pieces, load_tiling, save_tiling
from .constructor import BrickSystem, construct_box, gn_bound
from .errors import CapExceededError, FrobtileError, PreconditionError, SearchLimitError
from .model import (
    ROTATION_AXIS_PERMUTATIONS,
    ROTATION_POLICIES,
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


def _sides2(flag: str, sides: tuple[int, ...]) -> tuple[int, ...]:
    """The sides of a --box or --brick that must be 2-D."""
    if len(sides) != 2:
        raise PreconditionError(f"{flag} must have 2 sides, got {len(sides)}")
    return sides


def _bricks(shapes) -> tuple[Brick, ...]:
    return tuple(Brick(sides) for sides in shapes)


def _write_tiling(t: Tiling, path: str) -> None:
    save_tiling(t, path)
    print(f"wrote {path} ({len(t.brick_index)} placements)")


def _emit_tiling(t: Tiling, out: Optional[str]) -> None:
    """Write t to out, or print it a piece at a time, as print(encode(t)) would."""
    if out is None:
        # looked up per call, so that a redirected stdout gets the text
        sys.stdout.writelines(encode_pieces(t))
        sys.stdout.write("\n")
    else:
        _write_tiling(t, out)


# the writers: each runs the verb's library call, args.call, and writes its result


def _value(args) -> int:
    print(args.call(args))
    return 0


def _tiling(args) -> int:
    _emit_tiling(args.call(args), args.out)
    return 0


def _decision(args) -> int:
    decision = args.call(args)
    print(str(decision))
    if decision.tileable and args.witness is not None:
        _write_tiling(decision.witness, args.witness)
    return 0 if decision.tileable else 1


def _report(args) -> int:
    report = args.call(args)
    print(str(report))
    return 0 if report.valid else 1


def _represent(args) -> int:
    rep = represent(args.target, GeneratorSet(args.gens))
    if rep is None:
        print(f"{args.target} is not representable")
        return 1
    print(" ".join(str(c) for c in rep.coefficients))
    return 0


def _squares_235p(args) -> int:
    decision = tile_square_235p(args.side, args.p)
    if not decision.tileable:
        print(str(decision))
        return 1
    _emit_tiling(decision.witness, args.out)
    return 0


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        rotation_policy=args.rotations,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        parallel=args.parallel,
    )


def _search(args) -> int:
    result = exact_cover_search(BoxShape(args.box), _bricks(args.bricks), _search_config(args))
    print(str(result))
    if args.stats:
        print(json.dumps(dataclasses.asdict(result.stats)), file=sys.stderr)
    if result.status == FOUND:
        if args.out is not None:
            _write_tiling(result.tiling, args.out)
        return 0
    return 3 if result.status == EXHAUSTED else 1


def _render(args) -> int:
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


# an argument spec is (flag, add_argument keywords)


def _ints(flag: str, nargs=None) -> tuple:
    return flag, {"type": int, "nargs": nargs, "required": True}


_BOX = "--box", {"type": _shape, "required": True}
_BRICKS = "--bricks", {"type": _shape, "nargs": "+", "required": True}
_OUT = "--out", {}
_WITNESS = "--witness", {}
_TILING = "--tiling", {"required": True}
_GENS = _ints("--gens", "+")
_PRIMES = _ints("--primes", "+")
_SIDE = _ints("--side")
_P = _ints("--p")
_PQRS = [_ints(flag) for flag in ("--p", "--q", "--r", "--s")]
_SEARCH = [
    ("--rotations", {"choices": ROTATION_POLICIES,
                     "default": ROTATION_AXIS_PERMUTATIONS, "help": "brick rotation policy"}),
    ("--node-limit", {"type": int, "default": 100_000_000}),
    ("--time-limit", {"type": float, "default": 600.0}),
    ("--parallel", {"action": "store_true",
                    "help": "search each root shape in its own worker process"}),
]

# group: help text, in the order the groups are listed
_GROUPS = {
    "frob": "Frobenius numbers and representations",
    "bound": "tileability side bounds",
    "tile": "construct tilings",
    "decide": "tileability criteria with witnesses",
    "oracle": "exhaustive exact-cover search",
    "verify": "check a serialized tiling",
    "render": "draw a 2-D tiling",
}

# (group, verb, help, argument specs, writer or handler, library call);
# a verb of None is the group itself
_VERBS = (
    ("frob", "pair", "two coprime generators, closed form", [_ints("--gens", 2)],
     _value, lambda a: frobenius_pair(*a.gens)),
    ("frob", "general", "any Frobenius-valid generator set", [_GENS],
     _value, lambda a: frobenius_general(GeneratorSet(a.gens))),
    ("frob", "reduced", "general, after identity-based reduction", [_GENS],
     _value, lambda a: reduce_brauer_shockley(GeneratorSet(a.gens))),
    ("frob", "represent", "nonnegative combination of the generators",
     [_ints("--target"), _GENS], _represent, None),
    ("frob", "closed-form", "ascending distinct primes", [_PRIMES],
     _value, lambda a: closed_form_primes(a.primes)),
    ("bound", "gn", "largest Frobenius number of a brick system", [_BRICKS],
     _value, lambda a: gn_bound(BrickSystem(_bricks(a.bricks)))),
    ("bound", "corollary1", "threshold for (p x q), (r x s), (s x r)", _PQRS,
     _value, lambda a: corollary1_threshold(a.p, a.q, a.r, a.s)),
    ("bound", "prime-cubes", "hypercube system of ascending primes", [_PRIMES],
     _value, lambda a: prime_cubes_bound(a.primes)),
    ("tile", "construct", "general box from a brick system", [_BOX, _BRICKS, _OUT],
     _tiling, lambda a: construct_box(BoxShape(a.box), BrickSystem(_bricks(a.bricks)))),
    ("tile", "corollary1", "rectangle from (p x q), (r x s), (s x r)", [_BOX, *_PQRS, _OUT],
     _tiling, lambda a: corollary1_construct(*_sides2("--box", a.box), a.p, a.q, a.r, a.s)),
    ("tile", "prime-cubes", "hypercube of side a from prime bricks", [_SIDE, _PRIMES, _OUT],
     _tiling, lambda a: prime_cubes_construct(a.side, a.primes)),
    ("tile", "squares-235p", "square from squares 2, 3 and p", [_SIDE, _P, _OUT],
     _squares_235p, None),
    ("decide", "single-brick", "one brick, rotations allowed",
     [_BOX, ("--brick", {"type": _shape, "required": True}),
      ("--witness", {"help": "write the witness tiling here when tileable"})],
     _decision,
     lambda a: decide_single_brick(*_sides2("--box", a.box), *_sides2("--brick", a.brick))),
    ("decide", "two-squares", "two coprime square bricks",
     [_BOX, _ints("--x"), _ints("--y"), _WITNESS],
     _decision, lambda a: decide_two_squares(*_sides2("--box", a.box), a.x, a.y)),
    ("decide", "235p", "square against squares 2, 3 and p", [_SIDE, _P, _WITNESS],
     _decision, lambda a: tile_square_235p(a.side, a.p)),
    ("oracle", "search", "search one box",
     [_BOX, _BRICKS, *_SEARCH, ("--out", {"help": "write the found tiling here"}),
      ("--stats", {"action": "store_true",
                   "help": "print the search's counts as one JSON line on stderr"})],
     _search, None),
    ("oracle", "scan", "non-tileable square sides up to a limit",
     [_BRICKS, _ints("--limit"), *_SEARCH], _value,
     lambda a: " ".join(map(str, threshold_scan(_bricks(a.bricks), a.limit,
                                                _search_config(a))))),
    ("verify", "full", "exact cell-coverage verification", [_TILING],
     _report, lambda a: verify_full(load_tiling(a.tiling))),
    ("verify", "sampled", "randomized cell-coverage verification",
     [_TILING, ("--samples", {"type": int, "default": 100_000}),
      ("--seed", {"type": int, "default": 0})],
     _report, lambda a: verify_sampled(load_tiling(a.tiling), samples=a.samples, seed=a.seed)),
    ("render", None, None,
     [_TILING, ("--format", {"choices": RENDER_FORMATS, "default": "ascii"}),
      ("--cell-size", {"type": int, "default": 10}), _OUT],
     _render, None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frobtile",
                     description="Frobenius numbers and brick tilings of boxes.")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {group: top.add_parser(group, help=help) for group, help in _GROUPS.items()}
    verbs = {}
    for group, verb, help, specs, run, call in _VERBS:
        sub = groups[group]
        if verb is not None:
            if group not in verbs:
                verbs[group] = sub.add_subparsers(dest="action", required=True)
            sub = verbs[group].add_parser(verb, help=help)
        for flag, kwargs in specs:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=run, call=call)
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
