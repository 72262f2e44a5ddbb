"""Serialization round-trips and strict parsing."""

import pytest

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
