"""Command-line interface tests, driving main() in process."""

import argparse
import json
import subprocess
import sys

import pytest

from frobtile import cli, codec
from frobtile.cli import main
from frobtile.codec import encode, load_tiling
from frobtile.constructor import BrickSystem, construct_box
from frobtile.model import BoxShape, Brick, verify_full


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFrob:
    def test_pair(self, capsys):
        code, out, _ = run(capsys, "frob", "pair", "--gens", "5", "7")
        assert code == 0 and out.strip() == "23"

    def test_general(self, capsys):
        code, out, _ = run(capsys, "frob", "general", "--gens", "20", "28", "35")
        assert code == 0 and out.strip() == "197"

    def test_reduced(self, capsys):
        code, out, _ = run(capsys, "frob", "reduced", "--gens", "6", "10", "15")
        assert code == 0 and out.strip() == "29"

    def test_represent(self, capsys):
        code, out, _ = run(capsys, "frob", "represent", "--target", "24", "--gens", "5", "7")
        assert code == 0 and out.strip() == "2 2"

    def test_represent_absent(self, capsys):
        code, out, _ = run(capsys, "frob", "represent", "--target", "23", "--gens", "5", "7")
        assert code == 1 and "not representable" in out

    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "frob", "closed-form", "--primes", "2", "3", "5", "7")
        assert code == 0 and out.strip() == "383"

    @pytest.mark.parametrize("verb", [("general",), ("reduced",), ("represent", "--target", "7")])
    def test_table_too_large_to_hold_is_exit_3(self, capsys, verb):
        # the first table's 10^15 entries exceed the address space, so its
        # allocation fails at once
        gens = [str(10**15 + k) for k in (0, 1, 3)]
        code, out, err = run(capsys, "frob", *verb, "--gens", *gens)
        assert code == 3 and out == ""
        assert err.startswith("error: CapExceededError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("count", [2, 3])
    def test_smallest_generator_past_int64_is_exit_2(self, capsys, count):
        gens = [str(2**63 + k) for k in (1, 2, 3)][:count]
        code, out, err = run(capsys, "frob", "general", "--gens", *gens)
        assert code == 2 and out == ""
        assert err.startswith("error: OverflowError: ") and err.count("\n") == 1

    def test_noncoprime_is_exit_2(self, capsys):
        code, out, err = run(capsys, "frob", "pair", "--gens", "4", "6")
        assert code == 2
        assert err.startswith("error: NonCoprimeError:") and err.count("\n") == 1


class TestBound:
    def test_gn(self, capsys):
        code, out, _ = run(capsys, "bound", "gn", "--bricks", "6x4", "5x7", "7x5")
        assert code == 0 and out.strip() == "197"

    def test_gn_past_int64_products(self, capsys):
        bricks = (str(2**62 + 1) + "x5", "2x3", "3x2")
        code, out, _ = run(capsys, "bound", "gn", "--bricks", *bricks)
        assert code == 0 and out.strip() == str(2**63 - 1)

    def test_corollary1(self, capsys):
        code, out, _ = run(
            capsys, "bound", "corollary1", "--p", "6", "--q", "4", "--r", "5", "--s", "7"
        )
        assert code == 0 and out.strip() == "198"

    def test_corollary1_past_int64_is_exit_2(self, capsys):
        code, out, err = run(
            capsys, "bound", "corollary1", "--p", str(2**62 + 1), "--q", "5", "--r", "2", "--s", "3"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: OverflowError:") and "64-bit contract" in err

    def test_prime_cubes(self, capsys):
        code, out, _ = run(capsys, "bound", "prime-cubes", "--primes", "2", "3", "5")
        assert code == 0 and out.strip() == "29"

    def test_bad_shape_is_exit_2(self, capsys):
        for argv in (["bound", "gn", "--bricks", "6xfour"],
                     ["oracle", "search", "--box", "0x3", "--bricks", "2x2"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert capsys.readouterr().err.startswith("error: ArgumentError:")


class TestTileAndVerify:
    def test_construct_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code, out, _ = run(
            capsys, "tile", "construct", "--box", "30x30",
            "--bricks", "2x2", "3x3", "5x5", "--out", str(path),
        )
        assert code == 0 and "wrote" in out
        assert verify_full(load_tiling(str(path))).valid

    def test_construct_stdout_is_json(self, capsys):
        code, out, _ = run(
            capsys, "tile", "construct", "--box", "24", "--bricks", "5", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["box"] == [24]

    def test_corollary1_bound_not_met(self, capsys):
        code, _, err = run(
            capsys, "tile", "corollary1", "--box", "100x100",
            "--p", "6", "--q", "4", "--r", "5", "--s", "7",
        )
        assert code == 2 and "BoundNotMetError" in err

    def test_prime_cubes(self, capsys, tmp_path):
        path = tmp_path / "cube.json"
        code, out, _ = run(
            capsys, "tile", "prime-cubes", "--side", "30",
            "--primes", "2", "3", "5", "--out", str(path),
        )
        assert code == 0
        assert load_tiling(str(path)).box.sides == (30, 30)

    @pytest.mark.parametrize("argv", [
        ("construct", "--box", str(2**63 - 1), "--bricks", "2", "3"),
        ("prime-cubes", "--side", str(2**63 - 1), "--primes", "2", "3", "5"),
    ])
    def test_box_too_large_to_hold_is_exit_3(self, capsys, argv):
        # a grid block this large is refused, not allocated
        code, out, err = run(capsys, "tile", *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: CapExceededError: ") and err.count("\n") == 1

    def test_squares_235p_negative(self, capsys):
        code, out, _ = run(capsys, "tile", "squares-235p", "--side", "7", "--p", "5")
        assert code == 1 and "not tileable" in out

    def test_verify_full_valid(self, capsys, tmp_path):
        path = tmp_path / "t13.json"
        run(capsys, "tile", "squares-235p", "--side", "13", "--p", "5", "--out", str(path))
        code, out, _ = run(capsys, "verify", "full", "--tiling", str(path))
        assert code == 0 and out.startswith("Valid")

    def test_verify_detects_damage(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "tile", "construct", "--box", "30x30",
            "--bricks", "2x2", "3x3", "5x5", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["placements"] = doc["placements"][:-1]  # drop one brick
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "full", "--tiling", str(path))
        assert code == 1 and "volume" in out

    def test_verify_full_rejects_origin_near_int64_max(self, capsys, tmp_path):
        # origin + side wraps around in int64; the placement is still outside
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "format": "tiling/1", "box": [4], "rotation_policy": "fixed", "bricks": [[2]],
            "placements": [
                {"brick": 0, "orientation": [0], "origin": [0]},
                {"brick": 0, "orientation": [0], "origin": [2**63 - 2]},
            ],
        }))
        code, out, _ = run(capsys, "verify", "full", "--tiling", str(path))
        assert code == 1 and "placement_out_of_bounds" in out and "placement=1" in out

    def test_verify_sampled(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "tile", "construct", "--box", "30x30",
            "--bricks", "2x2", "3x3", "5x5", "--out", str(path))
        code, out, _ = run(
            capsys, "verify", "sampled", "--tiling", str(path),
            "--samples", "500", "--seed", "7",
        )
        assert code == 0 and out.startswith("Valid")

    def test_verify_sampled_negative_seed_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "sq.json"
        run(capsys, "tile", "prime-cubes", "--side", "30", "--primes", "2", "3", "5",
            "--out", str(path))
        code, out, err = run(capsys, "verify", "sampled", "--tiling", str(path), "--seed", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error: PreconditionError:") and err.count("\n") == 1

    def test_verify_sampled_unholdable_samples_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "sq.json"
        run(capsys, "tile", "prime-cubes", "--side", "30", "--primes", "2", "3", "5",
            "--out", str(path))
        code, out, err = run(
            capsys, "verify", "sampled", "--tiling", str(path), "--samples", str(2**62)
        )
        assert code == 3 and out == ""
        assert err.startswith("error: CapExceededError:") and err.count("\n") == 1

    def test_missing_tiling_file(self, capsys):
        code, _, err = run(capsys, "verify", "full", "--tiling", "/no/such/file.json")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("verb", [("verify", "full"), ("verify", "sampled"), ("render",)])
    def test_unreadable_tiling_file_is_exit_2(self, capsys, tmp_path, verb):
        # bytes that are not UTF-8, nesting past the recursion limit, and
        # an integer past Python's digit limit
        for data in (b'{"format": "\xff"}', b"[" * 200_000, b'{"box": [' + b"9" * 5000 + b"]}"):
            path = tmp_path / "bad.json"
            path.write_bytes(data)
            code, out, err = run(capsys, *verb, "--tiling", str(path))
            assert code == 2 and out == ""
            assert err.startswith("error: TilingParseError: ") and err.count("\n") == 1


class TestDecide:
    def test_single_brick_positive_with_witness(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, out, _ = run(
            capsys, "decide", "single-brick", "--box", "5x6", "--brick", "2x3",
            "--witness", str(path),
        )
        assert code == 0 and out.startswith("tileable")
        assert verify_full(load_tiling(str(path))).valid

    def test_single_brick_negative(self, capsys):
        code, out, _ = run(capsys, "decide", "single-brick", "--box", "7x7", "--brick", "2x3")
        assert code == 1 and out.startswith("not tileable")

    def test_two_squares(self, capsys):
        code, out, _ = run(
            capsys, "decide", "two-squares", "--box", "6x5", "--x", "2", "--y", "3"
        )
        assert code == 0 and "strips" in out

    def test_two_squares_witness_too_large_is_exit_3(self, capsys):
        code, out, err = run(capsys, "decide", "two-squares", "--box", f"{2**62}x6",
                             "--x", "2", "--y", "3")
        assert code == 3 and out == ""
        assert err == f"error: CapExceededError: a grid block of {3 * 2**61} placements is too large to hold\n"

    def test_single_brick_origin_past_int64_is_exit_2(self, capsys):
        code, out, err = run(capsys, "decide", "single-brick", "--box", f"{3 * 2**62}x4",
                             "--brick", f"{2**62}x4")
        assert code == 2 and out == ""
        assert err.startswith("error: OverflowError:") and err.count("\n") == 1
        assert "64-bit contract" in err

    def test_235p(self, capsys):
        code, out, _ = run(capsys, "decide", "235p", "--side", "17", "--p", "7")
        assert code == 0 and out == "tileable (pinwheel)\n"

    def test_235p_window_side_past_search_reach(self, capsys):
        code, out, _ = run(capsys, "decide", "235p", "--side", "31", "--p", "17")
        assert code == 0 and out == "tileable (pinwheel)\n"


class TestOracle:
    def test_search_found_writes_tiling(self, capsys, tmp_path):
        path = tmp_path / "found.json"
        code, out, _ = run(
            capsys, "oracle", "search", "--box", "6x6",
            "--bricks", "2x2", "3x3", "--out", str(path),
        )
        assert code == 0 and out.startswith("Found(")
        assert verify_full(load_tiling(str(path))).valid

    def test_search_infeasible(self, capsys):
        code, out, _ = run(capsys, "oracle", "search", "--box", "7x7",
                           "--bricks", "2x2", "3x3", "5x5")
        assert code == 1 and out.startswith("Infeasible(")

    def test_search_node_limit_exhausts(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "search", "--box", "13x13",
            "--bricks", "2x2", "3x3", "5x5", "--node-limit", "3",
        )
        assert code == 3 and out.startswith("Exhausted(")
        # the time limit too: 25x25 takes 134,412 nodes, about 0.5 s, unlimited
        code, out, _ = run(
            capsys, "oracle", "search", "--box", "25x25",
            "--bricks", "2x2", "3x3", "17x17", "--time-limit", "0.01",
        )
        assert code == 3 and out.startswith("Exhausted(time_limit, ")

    def test_search_stats_go_to_stderr(self, capsys):
        argv = ("oracle", "search", "--box", "7x7", "--bricks", "2x2", "3x3", "5x5")
        code, out, err = run(capsys, *argv)
        assert err == ""
        code_s, out_s, err_s = run(capsys, *argv, "--stats")
        assert (code_s, out_s) == (code, out) == (1, out)
        line, = err_s.splitlines()
        stats = json.loads(line)
        assert set(stats) == {
            "nodes", "volume_prunes", "column_prunes", "row_width_prunes",
            "weight_prunes", "memo_hits", "memo_size", "max_depth", "elapsed_s",
        }
        assert f"Infeasible({stats['nodes']} nodes)" == out.strip()

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "oracle", "scan", "--bricks", "2x2", "3x3", "7x7",
                           "--limit", "30")
        assert code == 0 and out.strip() == "1 5 11"

    def test_scan_cap_is_exit_3(self, capsys):
        code, _, err = run(capsys, "oracle", "scan", "--bricks", "2x2", "3x3",
                           "--limit", "200")
        assert code == 3 and "CapExceededError" in err

    def test_zero_time_limit_is_exit_2(self, capsys):
        code, out, err = run(capsys, "oracle", "search", "--box", "6x6",
                             "--bricks", "2x2", "--time-limit", "0")
        assert code == 2 and out == ""
        assert err == "error: PreconditionError: time_limit must be > 0, got 0.0\n"


class TestRender:
    def test_ascii_stdout(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        run(capsys, "tile", "squares-235p", "--side", "13", "--p", "5", "--out", str(path))
        code, out, _ = run(capsys, "render", "--tiling", str(path))
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 13 and all(len(l) == 13 for l in lines)

    def test_svg_file(self, capsys, tmp_path):
        tiling = tmp_path / "t.json"
        run(capsys, "tile", "squares-235p", "--side", "13", "--p", "5", "--out", str(tiling))
        svg = tmp_path / "t.svg"
        code, _, _ = run(capsys, "render", "--tiling", str(tiling),
                         "--format", "svg", "--cell-size", "8", "--out", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and 'width="104"' in text

    def test_missing_subcommand_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frob"])
        assert info.value.code == 2


def test_main_keeps_one_parser(capsys, monkeypatch):
    """Calls through main's one parser match calls through a fresh one."""
    calls = [
        (["decide", "two-squares", "--box", "12x13", "--x", "two", "--y", "3"], 2),
        (["frob", "pair", "--gens", "4", "6"], 2),
        (["decide", "two-squares", "--box", "5x5", "--x", "2", "--y", "3"], 1),
        (["decide", "two-squares", "--box", "12x13", "--x", "2", "--y", "3"], 0),
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    outcome(["frob", "pair", "--gens", "5", "7"])
    parser = cli._PARSER
    shared = [outcome(argv) for argv, _ in calls]
    assert cli._PARSER is parser
    fresh = []
    for argv, _ in calls:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [code for _, code in calls]
    argparse_err = shared[0][2]
    assert argparse_err.startswith("error: ArgumentError:") and argparse_err.count("\n") == 1
    assert shared[1][2].startswith("error: NonCoprimeError:")
    assert shared[3][1].startswith("tileable")
    assert cli.build_parser() is not cli.build_parser()


def test_console_entry_point():
    """The installed script must behave like main()."""
    proc = subprocess.run(
        [sys.executable, "-m", "frobtile.cli", "frob", "pair", "--gens", "5", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "23"


def _parser_paths(parser, path=()):
    """The argv prefix of every parser under parser, itself first."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_paths(sub, (*path, name))


def test_every_parser_prints_its_help(capsys):
    paths = list(_parser_paths(cli.build_parser()))
    assert len(paths) == 27
    for path in paths:
        with pytest.raises(SystemExit) as info:
            main([*path, "--help"])
        captured = capsys.readouterr()
        assert info.value.code == 0 and captured.err == ""
        assert captured.out.startswith(" ".join(["usage: frobtile", *path]) + " ")


def test_construct_stdout_is_encode_and_a_newline(capsys):
    """Printed a piece at a time, the tiling reads as print(encode(t)) would."""
    code, out, err = run(capsys, "tile", "construct", "--box", "15001", "--bricks", "2", "3")
    t = construct_box(BoxShape((15001,)), BrickSystem((Brick((2,)), Brick((3,)))))
    assert len(t.brick_index) > codec._LINES_CHUNK
    assert (code, err) == (0, "")
    assert out == encode(t) + "\n"


@pytest.mark.parametrize("argv, flag, count", [
    (["decide", "single-brick", "--box", "12x6x2", "--brick", "3"], "--box", 3),
    (["decide", "single-brick", "--box", "5", "--brick", "2x3x4"], "--box", 1),
    (["decide", "single-brick", "--box", "12x6", "--brick", "3"], "--brick", 1),
    (["decide", "two-squares", "--box", "12x13x5", "--x", "2", "--y", "3"], "--box", 3),
    (["tile", "corollary1", "--box", "200", "--p", "6", "--q", "4", "--r", "5", "--s", "7"],
     "--box", 1),
    (["tile", "corollary1", "--box", "200x201x7", "--p", "6", "--q", "4", "--r", "5", "--s", "7"],
     "--box", 3),
])
def test_2d_verbs_reject_other_shapes(capsys, tmp_path, argv, flag, count):
    """A 2-D verb answers for no box or brick of another dimension."""
    path = tmp_path / "w.json"
    code, out, err = run(capsys, *argv, "--witness" if argv[0] == "decide" else "--out", str(path))
    assert (code, out) == (2, "") and not path.exists()
    assert err == f"error: PreconditionError: {flag} must have 2 sides, got {count}\n"
