"""Canonical tiling serialization: the "tiling/1" JSON document.

Layout:

    {
      "format": "tiling/1",
      "box": [24, 35],
      "rotation_policy": "fixed",
      "bricks": [[5, 5], [7, 7]],
      "placements": [
        {"brick": 0, "orientation": [0, 1], "origin": [0, 0]},
        ...
      ]
    }

Decoding is strict: unknown fields are rejected by name, missing or
mistyped fields are reported with their JSON path, and syntax errors
carry the line number from the parser.  encode/decode round-trips are
lossless field-for-field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .errors import FrobtileError, TilingParseError
from .model import BoxShape, Brick, Placement, Tiling

FORMAT_TAG = "tiling/1"

_TOP_FIELDS = {"format", "box", "rotation_policy", "bricks", "placements"}
_PLACEMENT_FIELDS = {"brick", "orientation", "origin"}


_PLACEMENTS_OPEN = '  "placements": [\n'
_PLACEMENTS_CLOSE = "\n  ]\n}\n"
# every byte but the ASCII digits becomes a space
_DIGITS_ONLY = bytes(c if 48 <= c <= 57 else 32 for c in range(256))
# placements formatted per string, so that no temporary holds them all
_LINES_CHUNK = 1 << 14


def _placement_lines(brick_index, orientation, origin):
    """The lines of at least one placement, joined by ",\n", as strings of
    up to _LINES_CHUNK lines each."""
    rows = np.column_stack([brick_index, orientation])
    # distinct rows, compared as raw bytes
    _, first, which = np.unique(
        rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1),
        return_index=True,
        return_inverse=True,
    )
    keys = rows[first]
    origin_field = "[" + ", ".join(["%d"] * origin.shape[1]) + "]"
    templates = [
        '    {"brick": %d, "orientation": %s, "origin": ' % (key[0], json.dumps(key[1:]))
        + origin_field
        + "}"
        for key in keys.tolist()
    ]
    which = which.reshape(-1).tolist()
    for s in range(0, len(which), _LINES_CHUNK):
        chunk = ",\n".join(map(templates.__getitem__, which[s : s + _LINES_CHUNK]))
        if s:
            chunk = ",\n" + chunk
        yield chunk % tuple(origin[s : s + _LINES_CHUNK].reshape(-1).tolist())


def encode(t: Tiling) -> str:
    """Serialize a tiling; placements one per line for diffability.

    Each distinct (brick, orientation) pair gets one cached line
    template; the origins are filled into the joined templates in one
    formatting pass per _LINES_CHUNK placements.
    """
    lines = [
        "{",
        f'  "format": {json.dumps(FORMAT_TAG)},',
        f'  "box": {json.dumps(list(t.box.sides))},',
        f'  "rotation_policy": {json.dumps(t.rotation_policy)},',
        f'  "bricks": {json.dumps([list(b.sides) for b in t.bricks])},',
        '  "placements": [',
    ]
    if len(t.brick_index):
        lines.append("".join(_placement_lines(t.brick_index, t.orientation, t.origin)))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_list(value, path: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise TilingParseError(f"{path}: expected a non-empty list of integers")
    for v in value:
        if not _is_int(v):
            raise TilingParseError(f"{path}: expected integers, found {v!r}")
    return value


def _check_entry(entry, path: str) -> None:
    """Raise on the first syntax error of one placement entry."""
    if not isinstance(entry, dict):
        raise TilingParseError(f"{path}: expected an object")
    unknown = set(entry) - _PLACEMENT_FIELDS
    if unknown:
        raise TilingParseError(f"{path}: unknown field {sorted(unknown)[0]!r}")
    missing = _PLACEMENT_FIELDS - set(entry)
    if missing:
        raise TilingParseError(f"{path}: missing field {sorted(missing)[0]!r}")
    if not _is_int(entry["brick"]):
        raise TilingParseError(f"{path}.brick: expected an integer")
    _int_list(entry["orientation"], f"{path}.orientation")
    origin = entry["origin"]
    if not isinstance(origin, list):
        raise TilingParseError(f"{path}.origin: expected a list of integers")
    for v in origin:
        if not _is_int(v):
            raise TilingParseError(f"{path}.origin: expected integers, found {v!r}")


def _canonical(text: str):
    """(document, columns) when the placements are laid out exactly as
    encode writes them, else None.

    The text is cut at the placements list, which must run to its end.
    The part before it, closed with an empty list, is parsed as JSON: that
    parse succeeds only where the list is the top-level object's last
    field.  The list's numbers are read in one pass and kept only if
    writing them again gives back the same characters, so json.loads of
    the whole text would give the same document with these placements.
    The document's placements field is the empty list.
    """
    start = text.find(_PLACEMENTS_OPEN)
    body_start = start + len(_PLACEMENTS_OPEN)
    body_end = len(text) - len(_PLACEMENTS_CLOSE)
    if start < 0 or body_end <= body_start or not text.endswith(_PLACEMENTS_CLOSE):
        return None
    try:
        doc = json.loads(text[:start] + '  "placements": []\n}')
        digits = text[body_start:body_end].encode("ascii").translate(_DIGITS_ONLY)
        values = np.fromstring(digits, dtype=np.int64, sep=" ")
    except (json.JSONDecodeError, UnicodeEncodeError, ValueError):
        return None
    del digits
    if not isinstance(doc, dict) or not isinstance(doc.get("box"), list) or not doc["box"]:
        return None
    n = len(doc["box"])
    if len(values) % (2 * n + 1):
        return None
    rows = values.reshape(-1, 2 * n + 1)
    columns = tuple(np.ascontiguousarray(c) for c in (rows[:, 0], rows[:, 1 : n + 1], rows[:, n + 1 :]))
    del values, rows
    at = body_start
    for chunk in _placement_lines(*columns):
        if not text.startswith(chunk, at):
            return None
        at += len(chunk)
    if at != body_end:
        return None
    return doc, columns


def decode(text: str) -> Tiling:
    """Parse a tiling/1 document into a Tiling.

    A document laid out as encode writes it has its placements read
    straight into columns (_canonical).  Any other goes through
    json.loads, and its entries are checked one by one, so that the
    error names the first bad one by its JSON path.
    """
    canonical = _canonical(text)
    if canonical is not None:
        doc, columns = canonical
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise TilingParseError(f"line {e.lineno}: {e.msg}") from None
        columns = None
    if not isinstance(doc, dict):
        raise TilingParseError("top level: expected an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise TilingParseError(f"unknown field {sorted(unknown)[0]!r}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise TilingParseError(f"missing field {sorted(missing)[0]!r}")
    if doc["format"] != FORMAT_TAG:
        raise TilingParseError(f"format: expected {FORMAT_TAG!r}, found {doc['format']!r}")
    if not isinstance(doc["rotation_policy"], str):
        raise TilingParseError("rotation_policy: expected a string")
    if not isinstance(doc["bricks"], list):
        raise TilingParseError("bricks: expected a list")
    if not isinstance(doc["placements"], list):
        raise TilingParseError("placements: expected a list")

    box_sides = _int_list(doc["box"], "box")
    brick_sides = [
        _int_list(b, f"bricks[{i}]") for i, b in enumerate(doc["bricks"])
    ]
    entries = doc["placements"]
    if columns is None:
        for i, entry in enumerate(entries):
            _check_entry(entry, f"placements[{i}]")
    try:
        box = BoxShape(box_sides)
        bricks = tuple(Brick(b) for b in brick_sides)
        if columns is not None:
            return Tiling.from_arrays(box, bricks, *columns, rotation_policy=doc["rotation_policy"])
        # well formed entries, maybe with lists of the wrong length or
        # values past int64: the constructor names the first such one
        placements = [
            Placement(e["brick"], tuple(e["orientation"]), tuple(e["origin"])) for e in entries
        ]
        return Tiling(box, bricks, placements, rotation_policy=doc["rotation_policy"])
    except FrobtileError as e:
        raise TilingParseError(str(e)) from None


def codec_roundtrip(t: Tiling) -> Tiling:
    """decode(encode(t)); equals t field-for-field."""
    return decode(encode(t))


def save_tiling(t: Tiling, path: Union[str, Path]) -> None:
    Path(path).write_text(encode(t), encoding="utf-8")


def load_tiling(path: Union[str, Path]) -> Tiling:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise TilingParseError(f"cannot read {path}: {e.strerror}") from None
    return decode(text)
