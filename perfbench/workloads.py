"""The four workloads: their inputs, their operations and the checks on outputs.

A workload is a list of operations generated per round from the seed
(round r of seed s always holds the same inputs).  An operation is one
user-level job, for instance construct -> encode -> decode -> verify; its
latency is the time spent inside frobtile calls (Calls.call), so the
benchmark's own glue and checks are not counted.  Every output is checked
after the operation, against reference.py, the stored verdict table, or
a property the output must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from itertools import combinations

from frobtile import (
    BoxShape,
    Brick,
    BrickSystem,
    GeneratorSet,
    Placement,
    SearchConfig,
    Tiling,
    encode,
)

import reference
from verdicts import (
    DECIDE_PS,
    DECIDE_SIDE,
    SEARCH_PS,
    SINGLE_BRICKS,
    SQUARE_PAIRS,
    box_key,
    brick_key,
    load_table,
)

KNOWN_MISSES = {(2, 3, 5): [1, 7], (2, 3, 7): [1, 5, 11]}
SCAN_LIMIT = 30


class CheckError(Exception):
    """An output of frobtile is wrong."""


def expect(ok, message):
    if not ok:
        raise CheckError(message)


def _rng(workload, seed, round_index):
    return random.Random(f"{workload}:{seed}:{round_index}")


STRATUM_JITTER = 0.2


def _strata(rng, count):
    """count values in [0, 1), one from each of count equal slices, in order.

    The seed moves each value within the middle STRATUM_JITTER of its
    slice only, so the spread of operation costs, on which op_p50_ms and
    op_p90_ms depend, is much the same for every seed.
    """
    return [(i + 0.5 + STRATUM_JITTER * (rng.random() - 0.5)) / count for i in range(count)]


def _log_uniform_strata(rng, count, low, high):
    return [low * (high / low) ** u for u in _strata(rng, count)]


def check_tiling(t, box, brick_sides, label):
    """t covers box exactly, with bricks whose sides are brick_sides."""
    expect(tuple(t.box.sides) == tuple(box), f"{label}: box {t.box.sides}, asked {box}")
    expect(
        [tuple(b.sides) for b in t.bricks] == [tuple(b) for b in brick_sides],
        f"{label}: bricks {[b.sides for b in t.bricks]}, asked {brick_sides}",
    )
    problem = reference.raster_problem(t)
    expect(problem is None, f"{label}: not an exact tiling: {problem}")


def check_doc(doc, t, label):
    """The tiling/1 document written for t describes exactly t."""
    parsed = json.loads(doc)
    expect(parsed["format"] == "tiling/1", f"{label}: format {parsed['format']!r}")
    expect(parsed["box"] == list(t.box.sides), f"{label}: document box differs")
    expect(parsed["bricks"] == [list(b.sides) for b in t.bricks], f"{label}: document bricks differ")
    expect(parsed["rotation_policy"] == t.rotation_policy, f"{label}: document policy differs")
    expect(
        [(e["brick"], tuple(e["orientation"]), tuple(e["origin"])) for e in parsed["placements"]]
        == [(p.brick_index, tuple(p.orientation), tuple(p.origin)) for p in t.placements],
        f"{label}: document placements differ",
    )


class Workload:
    name = ""
    # operations faster than this run again in repeat passes; None where a
    # repeat would find the library's caches warm
    repeat_below_s = 2.5

    def __init__(self, seed: int):
        self.seed = seed
        self.table = load_table()

    def expected(self, bricks, a1, a2):
        """Tileability from the verdict table, or None outside its universe."""
        return self.table.get(brick_key(bricks), {}).get(box_key(a1, a2))

    def round(self, r: int) -> list:
        raise NotImplementedError

    def run(self, calls, item):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError

    def warm_up(self, calls) -> None:
        """Run a few small operations, so lazy imports and first calls fall in set-up."""
        for item in self.warm_items():
            self.check(item, self.run(calls, item))

    def warm_items(self) -> list:
        return []


# ---------------------------------------------------------------------------
# frobenius: semigroup arithmetic
# ---------------------------------------------------------------------------

FROB_OPS = 90
GN_OPS = 14
FROB_M = (1e2, 3e4)


class Frobenius(Workload):
    """Frobenius numbers, reductions and representations; gn_bound on brick systems."""

    name = "frobenius"
    repeat_below_s = None

    def __init__(self, seed):
        super().__init__(seed)
        self.seen = set()

    def _generators(self, rng, m, k):
        """m and k-1 more generators in (m, 2m), no k-1 of them sharing a factor.

        Below 2m no generator is a sum of others, and with no common factor
        among k-1 of them no reduction applies, so the cost of an operation
        follows m and k rather than luck in the draw.
        """
        while True:
            gens = tuple(sorted({m} | {rng.randrange(m + 1, 2 * m) for _ in range(k - 1)}))
            if (len(gens) == k and gens not in self.seen
                    and all(math.gcd(*(gens[:j] + gens[j + 1:])) == 1 for j in range(k))):
                self.seen.add(gens)
                return gens

    def _brick_system(self, rng, n):
        """n+1 bricks whose sides along each axis are pairwise coprime (so admissible)."""
        while True:
            axes = [_pairwise_coprime(rng, n + 1) for _ in range(n)]
            sides = [tuple(axis[i] for axis in axes) for i in range(n + 1)]
            if tuple(sides) not in self.seen:
                self.seen.add(tuple(sides))
                return sides

    @staticmethod
    def _axis_sets(sides):
        n = len(sides) - 1
        for k in range(1, n + 1):
            for subset in combinations(range(n + 1), k + 1):
                yield reference.products_over_one([sides[i][k - 1] for i in subset])

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        items = []
        span = math.log(FROB_M[1] / FROB_M[0])
        for i in range(FROB_OPS):
            m = round(FROB_M[0] * math.exp(span * (i + rng.random()) / FROB_OPS))
            gens = self._generators(rng, m, 3 + i % 3)
            items.append(("frob", gens, rng.randrange(1 << 30), rng.randrange(1 << 30)))
        for i in range(GN_OPS):
            items.append(("gn", self._brick_system(rng, 2 + i % 2)))
        # the order of the strata is the same for every seed: the Apery
        # tables the library caches, and so the peak memory, follow it
        return [items[j] for j in random.Random(len(items)).sample(range(len(items)), len(items))]

    def warm_items(self):
        return [("frob", (6, 10, 15), 5, 7), ("gn", [(2, 2), (3, 3), (5, 5)])]

    def run(self, calls, item):
        if item[0] == "gn":
            system = BrickSystem(Brick(s) for s in item[1])
            return {"gn": calls.call("gn_bound", system)}
        _, gens, off1, off2 = item
        S = GeneratorSet(gens)
        g = calls.call("frobenius_general", S)
        calls.note(residues=gens[0] * (len(gens) - 1))
        reduced = calls.call("reduce_brauer_shockley", S)
        m = gens[0]
        targets = (g, g + 1, g + 1 + off1 % m, g + m + off2 % (g + m))
        reps = [calls.call("represent", t, S) for t in targets]
        return {"g": g, "reduced": reduced, "targets": targets, "reps": reps}

    def check(self, item, out):
        if item[0] == "gn":
            want = max(reference.frobenius(s)[0] for s in self._axis_sets(item[1]))
            expect(out["gn"] == want, f"gn_bound{item[1]} = {out['gn']}, reference {want}")
            return
        gens = item[1]
        g, dist = reference.frobenius(gens)
        expect(out["g"] == g, f"frobenius_general{gens} = {out['g']}, reference {g}")
        expect(out["reduced"] == g, f"reduce_brauer_shockley{gens} = {out['reduced']}, reference {g}")
        for target, rep in zip(out["targets"], out["reps"]):
            if reference.representable(target, gens, dist):
                expect(rep is not None, f"represent({target}, {gens}) found none")
                expect(
                    rep.target == target and reference.check_representation(rep.coefficients, target, gens),
                    f"represent({target}, {gens}) = {rep.coefficients} is wrong",
                )
            else:
                expect(rep is None, f"represent({target}, {gens}) found {rep}, but it is not representable")


def _pairwise_coprime(rng, count):
    while True:
        picked = []
        for v in rng.sample(range(2, 16), 14):
            if all(math.gcd(v, w) == 1 for w in picked):
                picked.append(v)
                if len(picked) == count:
                    return picked


# ---------------------------------------------------------------------------
# construct: constructor -> codec -> model
# ---------------------------------------------------------------------------

CONSTRUCT_OPS = 100
CONSTRUCT_PLACEMENTS = (400, 3200)
CORRUPT_EVERY = 5          # one operation in five verifies a corrupted copy
CUBE_SIDE, CUBE_PRIMES, CUBE_SAMPLES = 384, (2, 3, 5, 7), 100_000
COROLLARY1 = (6, 4, 5, 7)  # bricks 6x4, 5x7, 7x5
COROLLARY1_MIN = 198
CORRUPTIONS = ("moved", "dropped", "duplicated")


class Construct(Workload):
    """Build tilings and move them through encode, decode and verify."""

    name = "construct"

    def __init__(self, seed):
        super().__init__(seed)
        self.seen = set()

    def _box(self, rng, placements, square):
        # {2,3,5} squares hold about side^2 / 25 placements, corollary-1
        # rectangles about area / 31; corollary 1 needs both sides >= 198
        if square or placements * 31 < COROLLARY1_MIN ** 2 * 1.1:
            side = max(30, round(5 * math.sqrt(placements)))
            while ("sq", side) in self.seen:
                side += 1
            self.seen.add(("sq", side))
            return ("primes", side, (2, 3, 5))
        area = round(placements * 31)
        while True:
            a1 = rng.randrange(COROLLARY1_MIN, max(COROLLARY1_MIN + 1, area // COROLLARY1_MIN + 1))
            a2 = max(COROLLARY1_MIN, round(area / a1))
            if ("c1", a1, a2) not in self.seen:
                self.seen.add(("c1", a1, a2))
                return ("corollary1", a1, a2)

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        items = []
        for i, m in enumerate(_log_uniform_strata(rng, CONSTRUCT_OPS, *CONSTRUCT_PLACEMENTS)):
            corruption = None
            if i % CORRUPT_EVERY == 0:
                corruption = (CORRUPTIONS[(i // CORRUPT_EVERY) % 3], rng.random())
            items.append((self._box(rng, m, square=i % 2 == 0), "full", corruption))
        rng.shuffle(items)
        return [(("primes", CUBE_SIDE, CUBE_PRIMES), "sampled", None)] + items

    def warm_items(self):
        return [
            (("primes", 31, (2, 3, 5)), "full", None),
            (("primes", 32, (2, 3, 5)), "full", ("moved", 0.5)),
            (("corollary1", 198, 199), "full", ("dropped", 0.1)),
            (("primes", 33, (2, 3, 5)), "full", ("duplicated", 0.9)),
            (("primes", 34, (2, 3, 5)), "sampled", None),
        ]

    @staticmethod
    def box_and_bricks(box):
        if box[0] == "primes":
            _, side, primes = box
            return (side,) * (len(primes) - 1), [(p,) * (len(primes) - 1) for p in primes]
        p, q, r, s = COROLLARY1
        return box[1:], [(p, q), (r, s), (s, r)]

    def run(self, calls, item):
        box, verify, corruption = item
        if box[0] == "primes":
            t = calls.call("prime_cubes_construct", box[1], box[2])
        else:
            t = calls.call("corollary1_construct", box[1], box[2], *COROLLARY1)
        calls.note(placements=len(t.placements))
        doc = calls.call("encode", t)
        calls.note(bytes=len(doc))
        t2 = calls.call("decode", doc)
        calls.note(bytes=len(doc))
        out = {"t": t, "doc": doc, "t2": t2, "checked": t2}
        if corruption is not None:
            out["checked"], out["expect"] = corrupt(t2, *corruption)
        if verify == "sampled":
            out["report"] = calls.call("verify_sampled", out["checked"], CUBE_SAMPLES, self.seed)
            calls.note(samples=CUBE_SAMPLES)
        else:
            out["report"] = calls.call("verify_full", out["checked"])
            calls.note(placements=len(out["checked"].placements))
        return out

    def check(self, item, out):
        box, bricks = self.box_and_bricks(item[0])
        label = f"construct {item[0]}"
        # the 384 cube's tiling is large: drop each copy once it is checked
        t, doc, t2 = out.pop("t"), out.pop("doc"), out.pop("t2")
        expect(t2 == t, f"{label}: decode(encode(t)) != t")
        del t
        expect(encode(t2) == doc, f"{label}: encode(decode(doc)) differs from doc")
        del doc
        check_tiling(t2, box, bricks, label)
        report = out["report"]
        if item[2] is None:
            expect(report.valid, f"{label}: verifier rejected a valid tiling: {report}")
            return
        expect(reference.raster_problem(out["checked"]) is not None, f"{label}: corruption left an exact tiling")
        want = out["expect"]
        got = {k: getattr(report, k) for k in want}
        expect(not report.valid and got == want, f"{label} {item[2][0]}: verifier said {report}, expected {want}")


def corrupt(t, kind, u):
    """A copy of t with one placement moved, dropped or duplicated.

    Returns the copy and the report fields verify_full must give for it:
    a moved placement overlaps its neighbours (the first overlapping pair
    in index order is reported), a dropped one leaves a volume gap, and a
    duplicate appended at the end overlaps only its original.
    """
    ps = list(t.placements)
    k = int(u * len(ps))
    box = t.box.sides
    volume = math.prod(box)
    if kind == "dropped":
        size = math.prod(t.bricks[ps[k].brick_index].sides)
        del ps[k]
        want = {"reason": "volume_mismatch", "expected_volume": volume, "actual_volume": volume - size}
    elif kind == "duplicated":
        ps.append(ps[k])
        want = {"reason": "overlap", "overlap_pair": (k, len(ps) - 1)}
    else:
        lo, hi = reference.placement_bounds(t)
        # shift by one cell along the first axis where it stays inside the box
        axis = next(a for a in range(len(box)) if hi[k, a] < box[a] or lo[k, a] > 0)
        step = 1 if hi[k, axis] < box[axis] else -1
        origin = list(ps[k].origin)
        origin[axis] += step
        ps[k] = Placement(ps[k].brick_index, ps[k].orientation, tuple(origin))
        lo[k, axis] += step
        hi[k, axis] += step
        first = min(((min(k, j), max(k, j)) for j in reference.overlapping(lo, hi, k)), default=None)
        want = {"reason": "overlap", "overlap_pair": first}
    return Tiling(t.box, t.bricks, ps, rotation_policy=t.rotation_policy), want


# ---------------------------------------------------------------------------
# search: planar gap windows and the oracle
# ---------------------------------------------------------------------------

SEARCH_INSTANCES = (
    ((13, 13), (2, 3, 5)),
    ((17, 17), (2, 3, 7)),
    ((11, 11), (2, 3, 7)),
    ((19, 19), (2, 3, 17)),
    ((23, 23), (2, 3, 17)),
    ((64, 64), (1,)),
)
# odd rectangles against squares 2 and 3: all infeasible, with search costs
# from 0.2 ms to 0.2 s spread evenly on a log scale, so that op_p90_ms falls
# among many operations of similar cost instead of on a gap between clusters
GRADED_INSTANCES = tuple(
    ((a, b), (2, 3))
    for a, b in (
        (5, 5), (5, 7), (5, 11), (5, 13), (5, 17), (5, 19), (5, 23),
        (7, 7), (7, 11), (7, 13), (7, 17), (7, 19), (7, 23),
        (11, 11), (11, 13), (11, 17), (11, 19),
        (13, 13), (13, 17), (13, 19),
        (17, 17), (17, 19),
        (19, 19),
    )
)


class Search(Workload):
    """tile_square_235p on every side up to 3p, fixed exact-cover instances, two scans."""

    name = "search"

    def round(self, r):
        items = [("235p", a, p) for p in SEARCH_PS for a in range(1, 3 * p + 1)]
        items += [("ecs", box, squares) for box, squares in SEARCH_INSTANCES + GRADED_INSTANCES]
        items += [("scan", squares) for squares in KNOWN_MISSES]
        # the instances are fixed, and so is their order: the peak memory
        # depends on which searches ran before the largest one
        return [items[j] for j in random.Random(len(items)).sample(range(len(items)), len(items))]

    def warm_items(self):
        return [("235p", 13, 5), ("235p", 7, 5), ("ecs", (8, 9), (2, 3)), ("scan", (2, 3, 5))]

    def run(self, calls, item):
        cfg = SearchConfig(parallel=False)
        if item[0] == "235p":
            _, a, p = item
            d = calls.call("tile_square_235p", a, p)
            calls.note(window=p < a < 3 * p, placements=len(d.witness.placements) if d.witness else 0)
            return d
        if item[0] == "ecs":
            _, box, squares = item
            result = calls.call(
                "exact_cover_search", BoxShape(box), [Brick((s, s)) for s in squares], cfg
            )
            calls.note(nodes=result.nodes)
            return result
        return calls.call("threshold_scan", [Brick((s, s)) for s in item[1]], SCAN_LIMIT, cfg)

    def check(self, item, out):
        if item[0] == "235p":
            _, a, p = item
            check_square_decision(self, out, a, p, f"tile_square_235p({a}, {p})")
        elif item[0] == "ecs":
            _, box, squares = item
            label = f"exact_cover_search {box} {squares}"
            want = self.expected([(s, s) for s in squares], *box)
            if out.status == "found":
                check_tiling(out.tiling, box, [(s, s) for s in squares], label)
                expect(want is not False, f"{label}: found a tiling, the verdict table says none exists")
            else:
                expect(out.status == "infeasible", f"{label}: {out}")
                expect(want is False, f"{label}: infeasible, the verdict table says {want}")
        else:
            squares = item[1]
            table = [a for a in range(1, SCAN_LIMIT + 1) if self.expected([(s, s) for s in squares], a, a) is False]
            expect(out == KNOWN_MISSES[squares] == table, f"threshold_scan{squares} = {out}, expected {KNOWN_MISSES[squares]}")


def check_square_decision(wl, d, a, p, label):
    """A tile_square_235p decision agrees with its witness or the verdict table."""
    squares = [(2, 2), (3, 3), (p, p)]
    want = wl.expected(squares, a, a)
    if d.tileable:
        check_tiling(d.witness, (a, a), squares, label)
        expect(want is not False, f"{label}: tileable, the verdict table says not")
    else:
        expect(d.witness is None, f"{label}: negative decision with a witness")
        expect(want is False, f"{label}: not tileable, the verdict table says {want}")


# ---------------------------------------------------------------------------
# decide: closed-form deciders, small witnesses, render and the CLI
# ---------------------------------------------------------------------------

DECIDE_GRID_OPS = 40       # each of single-brick and two-squares
DECIDE_235P_OPS = 40
DECIDE_BIG_OPS = 4
DECIDE_235P_TOP = {True: 120, False: 200}  # by whether side = p mod 3
BIG_SIDE = (1e5, 1e7)
CLI_EVERY = 4              # one grid question in four goes through cli.main
_SVG_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)"')
SVG_CELL = 10


class Decide(Workload):
    """Deciders over a grid of boxes, 2/3/p squares outside the gap window, the CLI."""

    name = "decide"

    def __init__(self, seed):
        super().__init__(seed)
        # (kind, brick shape, answer) -> boxes a1 <= a2 with that answer, by area
        self.boxes = {}
        for kind, shapes in (("single", SINGLE_BRICKS), ("squares", SQUARE_PAIRS)):
            for shape in shapes:
                for want in (True, False):
                    boxes = [
                        (a1, a2)
                        for a1 in range(1, DECIDE_SIDE + 1)
                        for a2 in range(a1, DECIDE_SIDE + 1)
                        if self._expected((kind, "api", a1, a2) + shape) is want
                    ]
                    self.boxes[(kind, shape, want)] = sorted(boxes, key=lambda b: (b[0] * b[1], b))

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        seen = set()
        items = []

        def add(item):
            if item in seen:
                return False
            seen.add(item)
            items.append(item)
            return True

        # half of the questions have a positive answer, so the share of
        # cheap negative answers is the same in every round; the box is
        # taken at a seeded quantile (one per slice) of the boxes, by area,
        # that have that answer, so witness sizes are spread alike in every
        # round and op_p50_ms does not follow luck in the draw.  Which way
        # round box and brick are asked changes the witness's cost, so it
        # follows the question's index, not the seed.
        for kind, shapes in (("single", SINGLE_BRICKS), ("squares", SQUARE_PAIRS)):
            for i, u in enumerate(_strata(rng, DECIDE_GRID_OPS)):
                via = "cli" if i % CLI_EVERY == 0 else "api"
                shape = shapes[i % len(shapes)] if i // 4 % 2 else shapes[i % len(shapes)][::-1]
                boxes = self.boxes[(kind, tuple(sorted(shape)), (i % 2 == 0) == (kind == "single"))]
                k = int(u * len(boxes))
                while True:
                    a1, a2 = boxes[k % len(boxes)]
                    if i // 2 % 2:
                        a1, a2 = a2, a1
                    if add((kind, via, a1, a2) + shape):
                        break
                    k += 1
        below = DECIDE_235P_OPS // 2
        for i, u in enumerate(_strata(rng, below)):
            # below the window only the 2- and 3-squares fit; half positive;
            # the side is the first from a seeded quantile of 1..p on that
            # has the answer wanted
            p = DECIDE_PS[i % len(DECIDE_PS)]
            a = int(u * p)
            while True:
                item = ("235p", "api", a % p + 1, p)
                if self._expected(item) == (i % 2 == 0) and add(item):
                    break
                a += 1
        for i, u in enumerate(_strata(rng, DECIDE_235P_OPS - below)):
            # above the window: sides prime to 6p, half of them congruent to
            # p mod 3 (witness: a p-square beside a grid of about a^2/4
            # 2-squares) and half not (a 3-square grid and strips); within a
            # class the witness grows smoothly with the side
            p = DECIDE_PS[i % len(DECIDE_PS)]
            same_class = i % 2 == 0
            top = DECIDE_235P_TOP[same_class]
            a = round(3 * p * (top / (3 * p)) ** u)
            while (math.gcd(a, 6 * p) != 1 or (a % 3 == p % 3) != same_class
                   or not add(("235p", "api", a, p))):
                a += 1
        for i, s in enumerate(_log_uniform_strata(rng, DECIDE_BIG_OPS, *BIG_SIDE)):
            add(("single", "cli" if i % 2 else "api", 4, round(s) | 1, 2, 4))
        rng.shuffle(items)
        return items

    def warm_items(self):
        return [("single", "api", 6, 6, 2, 3), ("single", "cli", 6, 5, 2, 3),
                ("squares", "api", 6, 5, 2, 3), ("squares", "cli", 5, 5, 2, 3),
                ("235p", "api", 41, 5), ("235p", "api", 43, 5)]

    def run(self, calls, item):
        kind, via = item[0], item[1]
        if via == "cli":
            if kind == "single":
                argv = ["decide", "single-brick", "--box", f"{item[2]}x{item[3]}", "--brick", f"{item[4]}x{item[5]}"]
            else:
                argv = ["decide", "two-squares", "--box", f"{item[2]}x{item[3]}", "--x", str(item[4]), "--y", str(item[5])]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = calls.call("main", argv)
            return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        if kind == "single":
            d = calls.call("decide_single_brick", *item[2:])
        elif kind == "squares":
            d = calls.call("decide_two_squares", *item[2:])
        else:
            d = calls.call("tile_square_235p", item[2], item[3])
        calls.note(window=False, placements=len(d.witness.placements) if d.witness else 0)
        out = {"d": d}
        if d.witness is not None:
            out["report"] = calls.call("verify_full", d.witness)
            calls.note(placements=len(d.witness.placements))
            out["doc"] = calls.call("encode", d.witness)
            calls.note(bytes=len(out["doc"]))
            if sum(d.witness.box.sides) % 4 < 2:
                out["ascii"] = calls.call("render_ascii", d.witness)
            else:
                out["svg"] = calls.call("render_svg", d.witness)
        return out

    def _expected(self, item):
        kind, _via, a1, a2, *rest = item
        if kind == "235p":
            return self.expected([(2, 2), (3, 3), (a2, a2)], a1, a1)
        if kind == "single":
            x1, x2 = rest
            if (a1 * a2) % (x1 * x2):
                return False  # the area is not a multiple of the brick's
            return self.expected([(x1, x2)], a1, a2)
        x, y = rest
        return self.expected([(x, x), (y, y)], a1, a2)

    def check(self, item, out):
        kind, via = item[0], item[1]
        label = f"{kind} {item[2:]}"
        if kind == "235p":
            a, p = item[2], item[3]
            d = out["d"]
            if a >= 3 * p:
                # every side from 3p up is tileable: the compositions cover it
                expect(d.tileable, f"{label}: not tileable above the window")
            check_square_decision(self, d, a, p, label)
        else:
            want = self._expected(item)
            expect(want is not None, f"{label}: outside the verdict table")
            if via == "cli":
                lines = out["stdout"].splitlines()
                verdict = "tileable" if want else "not tileable"
                expect(out["code"] == (0 if want else 1), f"{label}: cli exit {out['code']}, expected {verdict}")
                expect(len(lines) == 1 and re.fullmatch(rf"{verdict} \([a-z-]+\)", lines[0]) is not None,
                       f"{label}: cli printed {out['stdout']!r}, expected {verdict}")
                expect(out["stderr"] == "", f"{label}: cli wrote to stderr: {out['stderr']!r}")
                return
            d = out["d"]
            expect(d.tileable == want, f"{label}: {d}, the verdict table says {want}")
            if d.tileable:
                if kind == "single":
                    bricks = [item[4:6]]
                else:
                    bricks = [(item[4],) * 2, (item[5],) * 2]
                check_tiling(d.witness, item[2:4], bricks, label)
        d = out["d"]
        if d.witness is None:
            expect(d.witness is None and "doc" not in out, f"{label}: negative with outputs")
            return
        expect(out["report"].valid, f"{label}: verify_full rejected the witness: {out['report']}")
        check_doc(out["doc"], d.witness, label)
        if "ascii" in out:
            check_ascii(out["ascii"], d.witness, label)
        else:
            check_svg(out["svg"], d.witness, label)


def check_ascii(text, t, label):
    """One letter per cell, constant over each placement, nothing uncovered."""
    rows = text.split("\n")
    h, w = t.box.sides
    expect(len(rows) == h and all(len(r) == w for r in rows), f"{label}: ascii picture is not {h}x{w}")
    expect("." not in text, f"{label}: ascii picture has uncovered cells")
    lo, hi = reference.placement_bounds(t)
    for (r0, c0), (r1, c1) in zip(lo.tolist(), hi.tolist()):
        letters = {row[c0:c1] for row in rows[r0:r1]}
        expect(len(letters) == 1 and len(set(letters.pop())) == 1,
               f"{label}: ascii placement at {(r0, c0)} is not one letter")


def check_svg(text, t, label):
    """One rect per placement, at the placement's cells, in placement order."""
    rects = [tuple(int(v) for v in m.groups()) for m in _SVG_RECT.finditer(text)]
    lo, hi = reference.placement_bounds(t)
    want = [
        (c0 * SVG_CELL, r0 * SVG_CELL, (c1 - c0) * SVG_CELL, (r1 - r0) * SVG_CELL)
        for (r0, c0), (r1, c1) in zip(lo.tolist(), hi.tolist())
    ]
    expect(rects == want, f"{label}: svg rects do not match the placements")
    expect(text.startswith("<svg") and text.rstrip().endswith("</svg>"), f"{label}: not an svg document")


WORKLOADS = {w.name: w for w in (Frobenius, Construct, Search, Decide)}
