"""Regenerate perfbench/verdicts.json, the table negative verdicts are checked against.

    python3 perfbench/verdicts.py            # rewrite the table (about a minute)
    python3 perfbench/verdicts.py --check    # recompute and compare, write nothing

Every entry comes from reference.can_tile, a skyline exact-cover search
written apart from frobtile.oracle, or from one of two certificates that
need no search: a box that one brick grids, and the frame lemma for
squares: if squares of sides 2 and 3 are available and the b x b square
is tileable, so is the (b + 6) x (b + 6) square (the 6-wide frame is two
rectangles with one side a multiple of 6, cut into strips of height 2
and 3).

The table covers a fixed universe (below).  The benchmark asks
frobtile only questions inside it, so every negative verdict it sees
has an entry to be compared with.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from reference import can_tile

TABLE = Path(__file__).resolve().parent / "verdicts.json"

# decide workload: boxes up to DECIDE_SIDE on each side
DECIDE_SIDE = 24
SINGLE_BRICKS = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6))
SQUARE_PAIRS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7))
# squares {2, 3, p}: every side up to 3p for the search workload's p, every
# side up to p for the decide workload's p
SEARCH_PS = (5, 7, 11)
DECIDE_PS = (5, 7, 11, 13, 17, 19, 23)
# fixed exact_cover_search instances that are not inside the ranges above
EXTRA_SQUARES = ((19, 17), (23, 17))


def brick_key(bricks):
    """'2x3' for one brick, '2x2,3x3,5x5' for squares: sides sorted."""
    return ",".join(f"{min(b)}x{max(b)}" for b in sorted(tuple(sorted(b)) for b in bricks))


def box_key(a1, a2):
    return f"{min(a1, a2)}x{max(a1, a2)}"


def _squares_235p(p, top):
    """Verdict for every side 1..top against squares 2, 3 and p."""
    bricks = [(2, 2), (3, 3), (p, p)]
    out = {}
    for a in range(1, top + 1):
        if a % 2 == 0 or a % 3 == 0 or a % p == 0:
            out[a] = True
        elif a > 6 and out[a - 6]:
            out[a] = True
        else:
            out[a] = can_tile(a, a, bricks)
    return out


def build_table(log=None):
    table = {}
    for brick in SINGLE_BRICKS:
        bricks = [brick]
        table[brick_key(bricks)] = {
            box_key(a1, a2): can_tile(a1, a2, bricks)
            for a1 in range(1, DECIDE_SIDE + 1)
            for a2 in range(a1, DECIDE_SIDE + 1)
        }
    for x, y in SQUARE_PAIRS:
        bricks = [(x, x), (y, y)]
        table[brick_key(bricks)] = {
            box_key(a1, a2): can_tile(a1, a2, bricks)
            for a1 in range(1, DECIDE_SIDE + 1)
            for a2 in range(a1, DECIDE_SIDE + 1)
        }
    for p in sorted(set(SEARCH_PS) | set(DECIDE_PS)):
        top = 3 * p if p in SEARCH_PS else p
        verdicts = _squares_235p(p, top)
        table[brick_key([(2, 2), (3, 3), (p, p)])] = {
            box_key(a, a): v for a, v in verdicts.items()
        }
        if log:
            log(f"squares 2, 3, {p}: not tileable {[a for a, v in verdicts.items() if not v]}")
    for side, p in EXTRA_SQUARES:
        bricks = [(2, 2), (3, 3), (p, p)]
        table[brick_key(bricks)][box_key(side, side)] = can_tile(side, side, bricks)
    return table


def load_table():
    return json.loads(TABLE.read_text(encoding="utf-8"))["verdicts"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the stored table")
    args = ap.parse_args(argv)
    table = build_table(log=lambda line: print(line, file=sys.stderr))
    doc = {
        "regenerate": "python3 perfbench/verdicts.py",
        "meaning": "box 'AxB' -> can the box be tiled by the bricks (rotations allowed)",
        "verdicts": table,
    }
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.check:
        if load_table() != table:
            print("verdicts.json differs from a fresh computation", file=sys.stderr)
            return 1
        print("verdicts.json matches a fresh computation")
        return 0
    TABLE.write_text(text, encoding="utf-8")
    print(f"wrote {TABLE.name}: {sum(len(v) for v in table.values())} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
