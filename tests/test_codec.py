"""Serialization round-trips and strict parsing."""

import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from frobtile import codec
from frobtile.codec import _canonical, codec_roundtrip, decode, encode, load_tiling, save_tiling
from frobtile.errors import TilingParseError
from frobtile.model import BoxShape, Brick, Placement, Tiling, grid_fill


def sample_tiling():
    return grid_fill(BoxShape((4, 6)), Brick((2, 3)))


def rotated_tiling():
    return Tiling(
        box=BoxShape((3, 2)),
        bricks=(Brick((2, 3)),),
        placements=(Placement(0, (1, 0), (0, 0)),),
        rotation_policy="axis-permutations",
    )


def test_roundtrip_identity():
    for t in (sample_tiling(), rotated_tiling()):
        back = codec_roundtrip(t)
        assert back == t


def test_roundtrip_empty_placements():
    t = Tiling(BoxShape((1, 1)), (Brick((1, 1)),), ())
    assert codec_roundtrip(t) == t


def test_file_roundtrip(tmp_path):
    t = sample_tiling()
    path = tmp_path / "t.json"
    save_tiling(t, path)
    assert load_tiling(path) == t


def test_save_tiling_writes_encode_a_piece_at_a_time(tmp_path):
    t = grid_fill(BoxShape((130, 130)), Brick((2, 2)))
    assert len(t.brick_index) > codec._LINES_CHUNK
    pieces = list(codec.encode_pieces(t))
    assert len(pieces) == 4  # head, two chunks of lines, close
    path = tmp_path / "t.json"
    save_tiling(t, path)
    assert path.read_bytes() == encode(t).encode("utf-8") == "".join(pieces).encode("utf-8")


def test_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    t = grid_fill(BoxShape((130, 130)), Brick((2, 2)))
    path = tmp_path / "t.json"
    path.write_text("old")
    pieces = codec.encode_pieces

    def failing(t):
        it = pieces(t)
        yield next(it)  # the head
        yield next(it)  # the first chunk of lines
        raise RuntimeError("failed after the first chunk")

    monkeypatch.setattr(codec, "encode_pieces", failing)
    with pytest.raises(RuntimeError, match="first chunk"):
        save_tiling(t, path)
    assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


def test_save_follows_symlinks_and_keeps_the_mode(tmp_path):
    t = sample_tiling()
    path = tmp_path / "t.json"
    path.write_text("old")
    path.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(path)
    save_tiling(t, link)
    assert link.is_symlink() and load_tiling(path) == t
    assert path.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "t.json"]


def test_save_errors_name_the_path(tmp_path):
    path = tmp_path / "missing" / "t.json"
    with pytest.raises(FileNotFoundError) as e:
        save_tiling(sample_tiling(), path)
    assert e.value.filename == str(path)


def test_encode_shape():
    text = encode(sample_tiling())
    assert text.startswith('{\n  "format": "tiling/1"')
    assert '"box": [4, 6]' in text
    assert text.count('"brick":') == 4


def test_truncated_document():
    text = encode(sample_tiling())
    with pytest.raises(TilingParseError, match="line"):
        decode(text[: len(text) // 2])


def test_unknown_fields_are_named():
    text = encode(sample_tiling()).replace('"box":', '"bogus": 1,\n  "box":')
    with pytest.raises(TilingParseError, match="bogus"):
        decode(text)
    text2 = encode(sample_tiling()).replace('"origin":', '"rotate": 1, "origin":')
    with pytest.raises(TilingParseError, match="rotate"):
        decode(text2)


def test_missing_and_mistyped_fields():
    t = sample_tiling()
    with pytest.raises(TilingParseError, match="missing field"):
        decode('{"format": "tiling/1"}')
    with pytest.raises(TilingParseError, match="format"):
        decode(encode(t).replace("tiling/1", "tiling/9"))
    with pytest.raises(TilingParseError, match=r"box"):
        decode(encode(t).replace("[4, 6]", '["four", 6]'))
    with pytest.raises(TilingParseError, match=r"placements\[0\]"):
        decode(encode(t).replace('{"brick": 0,', '{"brick": "zero",', 1))
    head = '{"format": "tiling/1", "box": [4, 6], "rotation_policy": "fixed", "bricks": [[2, 3]]'
    entry = '{"brick": 0, "orientation": [0, 1], "origin": [0, 0]}'
    for text, message in [
        ("[]", "top level: expected an object"),
        (head.replace('"fixed"', "0") + ', "placements": []}', "rotation_policy: expected a string"),
        (head.replace("[[2, 3]]", "{}") + ', "placements": []}', "bricks: expected a list"),
        (head + ', "placements": {}}', "placements: expected a list"),
        (head + ', "placements": [0]}', r"placements\[0\]: expected an object"),
        (head + ', "placements": [{"brick": 0, "origin": [0, 0]}]}', "missing field 'orientation'"),
        (head + ', "placements": [' + entry.replace("[0, 0]", "0") + "]}", r"origin: expected a list"),
    ]:
        with pytest.raises(TilingParseError, match=message):
            decode(text)


def test_semantic_violations_become_parse_errors():
    t = sample_tiling()
    # brick index out of range
    with pytest.raises(TilingParseError):
        decode(encode(t).replace('"brick": 0, "orientation": [0, 1], "origin": [0, 0]',
                                 '"brick": 5, "orientation": [0, 1], "origin": [0, 0]'))
    # rotation under fixed policy
    with pytest.raises(TilingParseError):
        decode(encode(t).replace('"orientation": [0, 1], "origin": [0, 0]',
                                 '"orientation": [1, 0], "origin": [0, 0]'))


def test_load_missing_file(tmp_path):
    with pytest.raises(TilingParseError, match="cannot read"):
        load_tiling(tmp_path / "absent.json")


def test_unreadable_texts_are_parse_errors(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(encode(sample_tiling()).encode("utf-8").replace(b"fixed", b"fix\xe9d"))
    with pytest.raises(TilingParseError, match="not UTF-8"):
        load_tiling(path)
    # nesting past the recursion limit, and integers past Python's digit
    # limit: in the head that the layout's reader parses, and in a placement
    text, long = encode(sample_tiling()), "9" * 5000
    head, entry = text.replace("[4, 6]", f"[4, {long}]"), text.replace("[0, 0]", f"[0, {long}]", 1)
    for bad in ("[" * 200_000, head, entry):
        with pytest.raises(TilingParseError, match="unreadable JSON"):
            decode(bad)
    # the digit limit in the library's words, without Python's advice
    limit = sys.get_int_max_str_digits()
    for bad in (head, entry):
        with pytest.raises(TilingParseError) as info:
            decode(bad)
        assert str(info.value) == f"unreadable JSON: an integer has more than {limit} digits"


def outcome(text):
    """decode's result as comparable fields, or its error message."""
    try:
        t = decode(text)
    except TilingParseError as e:
        return ("error", str(e))
    return ("ok", t.box, t.bricks, t.rotation_policy, t.placements)


# edits of sample_tiling's document; a trailing space sends the edited
# text through json.loads, which must give the same outcome
EDITS = [
    ('"origin": [0, 0]', '"origin": [00, 0]'),
    ('"origin": [0, 0]', '"origin": [0, -0]'),
    ('"origin": [0, 0]', '"origin": [-2, 0]'),
    ('"origin": [0, 0]', '"origin": [0.0, 0]'),
    ('"origin": [0, 0]', '"origin": [0, 1e1]'),
    ('"origin": [0, 0]', '"origin": [9223372036854775808, 0]'),
    ('"origin": [0, 0]', '"origin": [0 , 0]'),
    ('"origin": [0, 0]', '"origin": [0, 0, 0]'),
    ('"origin": [0, 0]', '"origin": [0]'),
    ('"origin": [0, 0]', '"origin": [٠, 0]'),
    ('"brick": 0', '"brick": 1'),
    ('"brick": 0', '"brick": true'),
    ('"brick": 0', '"b1rick": 0'),
    ('"brick": 0', '"brick": 0, "brick": 0'),
    ('"box": [4, 6]', '"box": [4, 6, 2]'),
    ('"box": [4, 6]', '"box": [4]'),
    ('"box": [4, 6]', '"box": []'),
    ('"box": [4, 6]', '"box": 4'),
    ('"format"', '"placements": 5,\n  "format"'),
    ('"format"', '"bogus": 1,\n  "format"'),
    ('{\n  "format"', '[{\n  "format"'),
    ('"bricks": [[2, 3]],', '"bricks": {"a": [[2, 3]],'),
    ('"bricks": [[2, 3]],', '"bricks": "[[2, 3]],\n  \\"placements\\": [\n"'),
    ("},\n", "}\n"),
    ("},\n", "},\n\n"),
    ("},\n", "}, \n"),
    ("},\n", "},,\n"),
    ("}\n  ]", "},\n  ]"),
    ("}\n  ]", "} \n  ]"),
    ("}\n  ]", "}]\n  ]"),
]


@pytest.mark.parametrize("old, new", EDITS)
def test_canonical_read_matches_json_read(old, new):
    text = encode(sample_tiling())
    assert old in text
    edited = text.replace(old, new, 1)
    assert outcome(edited) == outcome(edited + " ")


def test_canonical_read_matches_json_read_on_every_document_of_encode():
    for t in (sample_tiling(), rotated_tiling()):
        text = encode(t)
        assert _canonical(text) is not None and _canonical(text + " ") is None
        assert outcome(text) == outcome(text + " ") == ("ok", t.box, t.bricks, t.rotation_policy, t.placements)


def test_canonical_read_checks_where_each_gap_falls():
    # the same text between the runs, and as many runs, but a digit moved
    # into a gap and two numbers joined: not JSON
    t = Tiling(BoxShape((40, 40)), (Brick((1, 1)),) * 12, (Placement(11, (0, 1), (23, 45)),))
    old = '{"brick": 11, "orientation": [0, 1], "origin": [23, 45]}'
    new = '{"brick": 1, 1"orientation": [0, 1], "origin": [2345, ]}'
    text = encode(t)
    assert old in text
    edited = text.replace(old, new)
    assert _canonical(edited) is None
    assert outcome(edited)[0] == "error"
    assert outcome(edited) == outcome(edited + " ")


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_canonical_read_splits_into_windows_of_lines(chunk):
    t = grid_fill(BoxShape((12, 18)), Brick((2, 3)))
    text = encode(t)
    want = _canonical(text)
    windows = []

    def read_window(window, *args):
        windows.append(window)
        return real(window, *args)

    real = codec._read_window
    with mock.patch.object(codec, "_LINES_CHUNK", chunk), mock.patch.object(codec, "_read_window", read_window):
        got = _canonical(text)
    # a window holds at most _LINES_CHUNK lines, and ends with one
    assert len(windows) >= len(t.brick_index) / chunk > 1
    assert all(w.endswith(b"},\n") for w in windows)
    assert got[0] == want[0]
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)


def test_decode_memory_is_bounded_by_windows():
    """decode holds the text, the columns and one window of lines: an
    unwindowed reader holds several copies of the text."""
    t = grid_fill(BoxShape((400, 250)), Brick((1, 1)))
    text = encode(t)
    assert len(t.brick_index) == 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = decode(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert back == t
    assert peak < 3 * len(text)
