"""Timing of the calls the benchmark makes into frobtile, with optional spans.

Every library call in a workload goes through Calls.call(name, ...),
which times it and adds the time to the current operation's latency.
With tracing on, each call also becomes a span (layer, function,
operation id, start, end, notes); spans stay in memory and are written
out once, when the run ends.  The layer of a call is the frobtile module
that does the work (LAYERS below).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

from speed import SAMPLER

# function name -> (layer, module that exports it)
LAYERS = {
    "frobenius_general": ("semigroup", "frobtile.semigroup"),
    "reduce_brauer_shockley": ("semigroup", "frobtile.semigroup"),
    "represent": ("semigroup", "frobtile.semigroup"),
    "gn_bound": ("constructor", "frobtile.constructor"),
    "construct_box": ("constructor", "frobtile.constructor"),
    # thin wrappers in planar that validate and call construct_box
    "prime_cubes_construct": ("constructor", "frobtile.planar"),
    "corollary1_construct": ("constructor", "frobtile.planar"),
    "verify_full": ("model", "frobtile.model"),
    "verify_sampled": ("model", "frobtile.model"),
    "encode": ("codec", "frobtile.codec"),
    "decode": ("codec", "frobtile.codec"),
    "exact_cover_search": ("oracle", "frobtile.oracle"),
    "threshold_scan": ("oracle", "frobtile.oracle"),
    "tile_square_235p": ("planar", "frobtile.planar"),
    "decide_single_brick": ("planar", "frobtile.planar"),
    "decide_two_squares": ("planar", "frobtile.planar"),
    "render_ascii": ("render", "frobtile.render"),
    "render_svg": ("render", "frobtile.render"),
    "main": ("cli", "frobtile.cli"),
}
LAYER_NAMES = ("semigroup", "constructor", "model", "codec", "oracle", "planar", "render", "cli")
CONSTRUCTORS = ("construct_box", "prime_cubes_construct", "corollary1_construct")
DECIDERS = ("decide_single_brick", "decide_two_squares", "tile_square_235p")


def resolve_functions():
    """name -> the frobtile function, looked up in the module that owns it."""
    import importlib

    return {
        name: getattr(importlib.import_module(module), name)
        for name, (_, module) in LAYERS.items()
    }


class Calls:
    """Times library calls; records spans when tracing."""

    def __init__(self, functions, tracing: bool):
        self.functions = functions
        self.tracing = tracing
        self.spans: list[list] = []
        self.op_id = None
        self.op_busy = 0.0

    def begin(self, op_id) -> None:
        self.op_id = op_id
        self.op_busy = 0.0

    def call(self, name, *args, **kwargs):
        fn = self.functions[name]
        start = perf_counter()
        spent = SAMPLER.spent
        out = fn(*args, **kwargs)
        # the speed sampler's handler may have run inside the call
        end = perf_counter() - (SAMPLER.spent - spent)
        self.op_busy += end - start
        if self.tracing:
            self.spans.append([LAYERS[name][0], name, self.op_id, start, end, None])
        return out

    def note(self, **values) -> None:
        """Attach counts (placements, bytes, nodes...) to the last span."""
        if self.tracing:
            self.spans[-1][5] = values


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, rounds: int) -> dict:
    """The per-layer metrics, as {name: (value, unit)}.

    Sums (busy time, calls, counts) are per round: totals over the traced
    rounds divided by their number.  Per-call figures are medians over
    every call.
    """
    by_fn = defaultdict(list)
    for layer, name, _op, start, end, notes in spans:
        by_fn[name].append((end - start, notes or {}))

    def durations(*names, where=None):
        return [
            d for n in names for d, notes in by_fn.get(n, ()) if where is None or where(notes)
        ]

    def noted(key, *names, where=None):
        return sum(
            notes.get(key, 0)
            for n in names
            for _, notes in by_fn.get(n, ())
            if where is None or where(notes)
        )

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out = {}
    for layer in LAYER_NAMES:
        mine = [end - start for lay, _n, _o, start, end, _x in spans if lay == layer]
        out[f"{layer}.calls"] = (len(mine) / rounds, "count")
        out[f"{layer}.busy_s"] = (sum(mine) / rounds, "s")

    frob = durations("frobenius_general")
    out["semigroup.frobenius_ms"] = (_p50(frob) * 1e3, "ms")
    out["semigroup.reduced_ms"] = (_p50(durations("reduce_brauer_shockley")) * 1e3, "ms")
    out["semigroup.represent_us"] = (_p50(durations("represent")) * 1e6, "us")
    out["semigroup.residues_per_s"] = (rate(noted("residues", "frobenius_general"), sum(frob)), "1/s")

    out["constructor.gn_bound_ms"] = (_p50(durations("gn_bound")) * 1e3, "ms")
    built = durations(*CONSTRUCTORS)
    out["constructor.construct_s"] = (sum(built) / rounds, "s")
    out["constructor.placements_per_s"] = (rate(noted("placements", *CONSTRUCTORS), sum(built)), "1/s")

    full = durations("verify_full")
    out["model.verify_full_s"] = (sum(full) / rounds, "s")
    out["model.verify_full_placements_per_s"] = (rate(noted("placements", "verify_full"), sum(full)), "1/s")
    sampled = durations("verify_sampled")
    out["model.verify_sampled_s"] = (sum(sampled) / rounds, "s")
    out["model.samples_per_s"] = (rate(noted("samples", "verify_sampled"), sum(sampled)), "1/s")

    enc, dec = durations("encode"), durations("decode")
    out["codec.encode_s"] = (sum(enc) / rounds, "s")
    out["codec.decode_s"] = (sum(dec) / rounds, "s")
    out["codec.encode_mb_per_s"] = (rate(noted("bytes", "encode") / 1e6, sum(enc)), "MB/s")
    out["codec.decode_mb_per_s"] = (rate(noted("bytes", "decode") / 1e6, sum(dec)), "MB/s")

    searched = durations("exact_cover_search")
    nodes = noted("nodes", "exact_cover_search")
    out["oracle.search_s"] = (sum(durations("exact_cover_search", "threshold_scan")) / rounds, "s")
    out["oracle.nodes"] = (nodes / rounds, "count")
    out["oracle.nodes_per_s"] = (rate(nodes, sum(searched)), "1/s")

    def in_window(notes):
        return notes.get("window", False)

    def not_in_window(notes):
        return not notes.get("window", False)

    out["planar.gap_s"] = (sum(durations("tile_square_235p", where=in_window)) / rounds, "s")
    decided = durations(*DECIDERS, where=not_in_window)
    out["planar.decide_us"] = (_p50(decided) * 1e6, "us")
    out["planar.witness_placements"] = (
        noted("placements", *DECIDERS, where=not_in_window) / rounds,
        "count",
    )

    out["render.ascii_ms"] = (_p50(durations("render_ascii")) * 1e3, "ms")
    out["render.svg_ms"] = (_p50(durations("render_svg")) * 1e3, "ms")
    out["cli.main_ms"] = (_p50(durations("main")) * 1e3, "ms")
    return out
