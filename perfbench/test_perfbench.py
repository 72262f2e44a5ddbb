"""Quick tests of the benchmark itself (about a minute).

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs a reduced round 0 through every check, and each
check is shown to catch a deliberately wrong output.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import speed  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402
from tracing import Calls, resolve_functions  # noqa: E402
from workloads import CheckError  # noqa: E402

SEED = 7


def small(name, item):
    """Items of round 0 cheap enough for a quick test."""
    if name == "frobenius":
        return item[0] == "gn" or item[1][0] < 3000
    if name == "construct":
        box = item[0]
        return box[0] == "corollary1" or box[1] <= 220 and len(box[2]) == 3
    if name == "search":
        if item[0] == "235p":
            return item[2] <= 7 or item[1] <= item[2]
        if item[0] == "ecs":
            return item[1][0] * item[1][1] <= 300
        return True
    return item[0] != "single" or item[3] < 10**6


@pytest.fixture(scope="module")
def calls():
    return Calls(resolve_functions(), tracing=True)


def run_checked(wl, calls, item):
    out = wl.run(calls, item)
    # construct's check consumes its output dict; keep the caller's copy whole
    wl.check(item, dict(out) if isinstance(out, dict) else out)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_round_passes_every_check(name, calls):
    wl = workloads.WORKLOADS[name](SEED)
    items = [item for item in wl.round(0) if small(name, item)]
    assert len(items) >= 20
    for item in items:
        run_checked(wl, calls, item)


def test_rounds_follow_the_seed():
    for name, cls in workloads.WORKLOADS.items():
        if name == "construct":
            continue
        assert cls(SEED).round(1) == cls(SEED).round(1)
    frob = workloads.Frobenius(SEED).round(0)
    assert frob != workloads.Frobenius(SEED + 1).round(0)
    assert len({item[1] for item in frob if item[0] == "frob"}) == workloads.FROB_OPS


def test_wrong_frobenius_number_is_caught(calls):
    wl = workloads.Frobenius(SEED)
    item = ("frob", (101, 131, 157), 5, 9)
    out = run_checked(wl, calls, item)
    with pytest.raises(CheckError, match="frobenius_general"):
        wl.check(item, dict(out, g=out["g"] + 1))
    bad = replace(out["reps"][1], coefficients=(0, 0, 0))
    with pytest.raises(CheckError, match="represent"):
        wl.check(item, dict(out, reps=[out["reps"][0], bad] + out["reps"][2:]))


def test_wrong_tilings_are_caught(calls):
    wl = workloads.Construct(SEED)
    item = (("primes", 41, (2, 3, 5)), "full", ("moved", 0.3))
    out = run_checked(wl, calls, item)
    # a verifier that accepts the corrupted copy is wrong
    valid = replace(out["report"], valid=True, reason=None, overlap_pair=None)
    with pytest.raises(CheckError, match="verifier said"):
        wl.check(item, dict(out, report=valid))
    # a moved placement is found by the raster, whatever the verifier says
    assert reference.raster_problem(out["checked"]) is not None
    with pytest.raises(CheckError, match="not an exact tiling"):
        workloads.check_tiling(out["checked"], (41, 41), [(2, 2), (3, 3), (5, 5)], "moved")


def test_wrong_search_verdict_is_caught(calls):
    wl = workloads.Search(SEED)
    item = ("235p", 25, 5)
    d = run_checked(wl, calls, item)
    assert d.tileable
    with pytest.raises(CheckError, match="verdict table"):
        wl.check(item, replace(d, tileable=False, witness=None))
    with pytest.raises(CheckError, match="threshold_scan"):
        wl.check(("scan", (2, 3, 5)), [1, 7, 11])


def test_wrong_cli_answer_is_caught(calls):
    wl = workloads.Decide(SEED)
    item = ("single", "cli", 5, 7, 2, 3)
    out = run_checked(wl, calls, item)
    assert out["code"] == 1
    with pytest.raises(CheckError, match="cli exit"):
        wl.check(item, dict(out, code=0, stdout="tileable (grid)\n"))


def test_speed_correction_uses_the_samples_around_a_call(monkeypatch):
    monkeypatch.setattr(speed, "NEAR", 2)
    sampler = speed.Sampler()
    ref = speed.REF_SAMPLE_S
    sampler.stamps = [0.0, 1.0, 2.0, 3.0]
    sampler.times = [ref, ref, 2 * ref, 2 * ref]
    sampler.stop()
    # two samples inside [2, 3]: the machine ran at half the reference speed
    assert sampler.corrected(1.0, 2.0, 3.0) == pytest.approx(0.5)
    # one sample inside [0, 0.5], widened to two at full speed
    assert sampler.corrected(1.0, 0.0, 0.5) == pytest.approx(1.0)


def test_sampler_time_is_taken_out_of_calls():
    calls = Calls({"spin": lambda n: sum(i * i for i in range(n))}, tracing=False)
    speed.SAMPLER.start()
    try:
        calls.begin(0)
        calls.call("spin", 3_000_000)
    finally:
        speed.SAMPLER.stop()
    assert len(speed.SAMPLER.times) >= 5
    assert speed.SAMPLER.spent > 0 and calls.op_busy > 0


def test_reference_search_agrees_with_small_known_cases():
    assert reference.can_tile(13, 13, [(2, 2), (3, 3), (5, 5)])
    assert not reference.can_tile(7, 7, [(2, 2), (3, 3), (5, 5)])
    assert not reference.can_tile(5, 7, [(2, 3)])
    assert reference.can_tile(5, 6, [(2, 3)])
    assert reference.frobenius([6, 10, 15])[0] == 29
    assert reference.frobenius_by_bitmask([20, 31]) == 569


def test_verdict_table_regenerates_for_small_p():
    table = verdicts.load_table()
    for p in (5, 7):
        fresh = verdicts._squares_235p(p, 3 * p)
        key = verdicts.brick_key([(2, 2), (3, 3), (p, p)])
        assert {verdicts.box_key(a, a): v for a, v in fresh.items()} == table[key]


def test_end_to_end_output_matches_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "decide", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        for m in spec[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = dict(os.environ, PYTHONPATH="")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
