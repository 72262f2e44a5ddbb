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

Every placement line follows one layout (_layout): fixed literal text
around 2n + 1 integers, the brick index, the orientation and the
origin, each written as its shortest decimal.  encode fills the lines
into byte matrices from that layout; under the fixed policy the
orientation, the identity on every line, is part of the literal text,
so a line has n + 1 numbers to fill.  One numpy line writer
(_fill_lines) fills them, and render.render_svg writes its <rect> lines
with it too.  encode_pieces yields the text a chunk of lines at a time,
and save_tiling writes each piece as it is made, so that no copy of
the whole text is held, to a file that replaces the target only once
it is whole.  decode reads a
document in that layout straight into columns (_canonical), a window of
whole lines at a time.  In a window it finds the runs of digits once,
and the text left when the digits are deleted must be the layout's
literal text, once per line.  Then it takes one column at a time: the
text before each of the column's runs must be as long as the layout's
piece there, and each run a shortest decimal of at most 18 digits, so
that it fits int64; the column's values are converted in place.  Once
every gap between runs has its piece's length, the digit-free text
being the layout's means that every gap is its piece, so in whatever
order the checks run, they accept exactly the windows whose runs are
shortest decimals set between the layout's pieces.  For any columns,
encode writes exactly such a text, and two different texts of that form
never hold the same numbers, so the checks say the same as writing the
columns again and comparing.  Any other document, 19-digit numbers
included, goes through json.loads.

Decoding is strict: unknown fields are rejected by name, missing or
mistyped fields are reported with their JSON path, and syntax errors
carry the line number from the parser.  encode/decode round-trips are
lossless field-for-field.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import sys
from pathlib import Path
from typing import Union

import numpy as np

from .errors import FrobtileError, TilingParseError
from .model import ROTATION_FIXED, BoxShape, Brick, Placement, Tiling

FORMAT_TAG = "tiling/1"

_TOP_FIELDS = {"format", "box", "rotation_policy", "bricks", "placements"}
_PLACEMENT_FIELDS = {"brick", "orientation", "origin"}


_PLACEMENTS_OPEN = '  "placements": [\n'
_PLACEMENTS_CLOSE = "  ]\n}\n"
# placements written and read this many lines at a time, so that no
# temporary holds them all
_LINES_CHUNK = 1 << 12
# 10**k for k = 0..18; the longest run the reader converts has 18 digits
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _group_table() -> np.ndarray:
    """Three decimal digits as four bytes, the first of them NUL: entry v
    < 1000 is v padded with NULs, entry 1000 + v is v padded with zeros,
    entry 2000 is all NULs."""
    v = np.arange(1000)[:, None]
    digits = v // np.array([100, 10, 1]) % 10 + ord("0")
    table = np.zeros((2001, 4), dtype=np.uint8)
    table[:1000, 1:] = np.where(v < np.array([100, 10, 0]), 0, digits)
    table[1000:2000, 1:] = digits
    return table.view(np.uint32).reshape(-1)


# one gather writes three digits; a pass per digit costs a division, a
# remainder and a mask each, and made encoding the side-384 cube about
# 30 ms slower
_GROUPS = _group_table()


def _layout(n: int, fixed: bool = False) -> list[bytes]:
    """The literal text around a placement line's 2n + 1 integers (brick,
    orientation, origin), the last piece closing the line; with fixed,
    the identity orientation is literal text and n + 1 integers remain."""
    between = [b", "] * (n - 1)
    layout = [b'    {"brick": ', b', "orientation": [', *between, b'], "origin": [', *between, b"]},\n"]
    if fixed:
        # the identity's digits fill the orientation's n fields
        orientation = b"".join(piece + b"%d" % j for j, piece in enumerate(layout[1 : n + 1]))
        layout[1 : n + 2] = [orientation + layout[n + 1]]
    return layout


def _decimals(values: np.ndarray, groups: int) -> np.ndarray:
    """values in [0, 1000**groups) as right-aligned ASCII decimals, a
    row of 4 * groups bytes each, NUL wherever there is no digit."""
    out = np.empty((len(values), groups), dtype=np.uint32)
    for g in range(groups):
        index = values // 1000**g % 1000 if groups > 1 else values
        if g + 1 < groups:
            index += 1000 * (values >= 1000 ** (g + 1))
        if g:
            index[values < 1000**g] = 2000
        out[:, groups - 1 - g] = _GROUPS[index]
    return out.view(np.uint8)


def _fill_lines(layout: list[bytes], fields) -> str:
    """One line of text per row of the fields: layout[0], then each field
    followed by the next piece of the layout.

    A field is an int64 column of values >= 0, written as shortest
    decimals, or a uint8 matrix of text, a row per line, NUL-padded to a
    fixed width.  The lines are filled into one byte matrix from a
    template, every number right-aligned in a field as wide as the
    longest of all the integer columns, which one _decimals call writes
    together; the NULs that pad the shorter ones are dropped, and the
    text is decoded once.
    """
    cells = list(fields)
    numbers = [k for k, f in enumerate(fields) if f.ndim == 1]
    if numbers:
        # one call, not one per column: each cost about 5 us on small tilings
        values = np.concatenate([fields[k] for k in numbers])
        digits = _decimals(values, (len(str(values.max())) + 2) // 3)
        for k, rows in zip(numbers, digits.reshape(len(numbers), len(fields[0]), -1)):
            cells[k] = rows
    template = layout[0] + b"".join(b"\0" * c.shape[1] + text for c, text in zip(cells, layout[1:]))
    lines = np.empty((len(cells[0]), len(template)), dtype=np.uint8)
    lines[:] = np.frombuffer(template, dtype=np.uint8)
    at = len(layout[0])
    for c, text in zip(cells, layout[1:]):
        lines[:, at : at + c.shape[1]] = c
        at += c.shape[1] + len(text)
    return lines.tobytes().translate(None, b"\0").decode("utf-8")


def encode_pieces(t: Tiling):
    """The text of encode(t) in pieces: the head, the placement lines
    _LINES_CHUNK at a time (_fill_lines over the layout, _layout), and
    the close."""
    yield "\n".join(
        [
            "{",
            f'  "format": {json.dumps(FORMAT_TAG)},',
            f'  "box": {json.dumps(list(t.box.sides))},',
            f'  "rotation_policy": {json.dumps(t.rotation_policy)},',
            f'  "bricks": {json.dumps([list(b.sides) for b in t.bricks])},',
            _PLACEMENTS_OPEN,
        ]
    )
    fixed = t.rotation_policy == ROTATION_FIXED
    layout = _layout(t.dimension, fixed)
    m = len(t.brick_index)
    for s in range(0, m, _LINES_CHUNK):
        e = min(s + _LINES_CHUNK, m)
        orientation = [] if fixed else t.orientation[s:e].T
        text = _fill_lines(layout, [t.brick_index[s:e], *orientation, *t.origin[s:e].T])
        # the last line ends "]}\n", without the comma the others have
        yield text if e < m else text[:-2] + "\n"
    yield _PLACEMENTS_CLOSE


def encode(t: Tiling) -> str:
    """Serialize a tiling; placements one per line for diffability."""
    return "".join(encode_pieces(t))


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


def _read_window(window: bytes, layout: list[bytes], columns: list[np.ndarray], row: int):
    """Read the whole placement lines of window into columns, one per
    integer of a line, from the given row on; the number of lines, or
    None unless the text between the runs of digits is the layout's,
    piece by piece, and every run a shortest decimal of at most 18 digits.

    The run count and the digit-free text are checked for the whole
    window, the rest one column at a time.  The gap after the last run
    is not measured: the digit-free text fixes the sum of the gaps, and
    every other gap has its piece's length.
    """
    w = np.frombuffer(window, dtype=np.uint8)
    digit = (w >= ord("0")) & (w <= ord("9"))
    if digit[0] or digit[-1]:
        return None
    # runs alternate start, end; line r's run of column c starts at edge
    # 2 * (r * cols + c)
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    cols = len(layout) - 1
    rows = len(edges) // (2 * cols)
    if not rows or len(edges) != 2 * rows * cols:
        return None
    if window.translate(None, b"0123456789") != b"".join(layout) * rows:
        return None
    # the text before a line's first run is the last piece of the line
    # before and the first piece of this one; the first line is measured
    # from the end of a line taken to end just before the window
    previous = np.concatenate(([-len(layout[-1])], edges[2 * cols - 1 : -1 : 2 * cols]))
    for c, column in enumerate(columns):
        starts = edges[2 * c :: 2 * cols]
        ends = edges[2 * c + 1 :: 2 * cols]
        lengths = ends - starts
        longest = lengths.max()
        if (
            longest > 18
            or (starts - previous != len(layout[c] if c else layout[-1] + layout[0])).any()
            or longest > 1 and ((w[starts] == ord("0")) & (lengths > 1)).any()
        ):
            return None
        values = column[row : row + rows]
        # widened before any arithmetic: uint8 digits times 10**k would wrap
        np.subtract(w[ends - 1], ord("0"), out=values, dtype=np.int64)
        for k in range(1, longest):
            digits = w[ends - 1 - k].astype(np.int64) - ord("0")
            digits[lengths <= k] = 0
            values += digits * _POW10[k]
        previous = ends
    return rows


def _canonical(text: str):
    """(document, columns) when the placements are laid out exactly as
    encode writes them, else None.

    The text is cut at the placements list, which must run to its end.
    The part before it, closed with an empty list, is parsed as JSON: that
    parse succeeds only where the list is the top-level object's last
    field.  The list is read in windows of whole lines, at most
    _LINES_CHUNK lines of the layout each (_read_window), straight into
    columns sized for as many lines as the list could hold.  In each, the
    runs of ASCII digits are found; the text between them must be the
    layout's literal text (_layout), piece by piece, and every run a
    number as encode writes it: no leading zero and at most 18 digits.
    encode writes exactly such a list for any columns, and the runs
    determine the columns, so this is the same check as writing the
    columns again and comparing the text.  json.loads of the whole text
    would then give the same document with these placements.  The
    document's placements field is the empty list.
    """
    start = text.find(_PLACEMENTS_OPEN)
    body_start = start + len(_PLACEMENTS_OPEN)
    body_end = len(text) - len(_PLACEMENTS_CLOSE)
    # the last line ends "}\n", without the comma the others have
    if start < 0 or body_end - 2 < body_start or not text.endswith("}\n" + _PLACEMENTS_CLOSE):
        return None
    try:
        doc = json.loads(text[:start] + '  "placements": []\n}')
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("box"), list) or not doc["box"]:
        return None
    n = len(doc["box"])
    layout = _layout(n)
    # the length of the layout's shortest line, one digit a run; the list,
    # its last line one comma short, holds at most m lines, and a window
    # passes its checks only if it holds as many as its length allows
    shortest = sum(map(len, layout)) + 2 * n + 1
    m = (body_end - body_start + 1) // shortest
    brick_index = np.empty(m, dtype=np.int64)
    orientation = np.empty((m, n), dtype=np.int64)
    origin = np.empty((m, n), dtype=np.int64)
    columns = [brick_index, *orientation.T, *origin.T]
    # a window ends with the line that reaches the length of _LINES_CHUNK
    # shortest lines, so it holds at most _LINES_CHUNK lines of the layout
    span = _LINES_CHUNK * shortest
    at, row = body_start, 0
    while at < body_end:
        stop = text.find("\n", at + span - 1, body_end) + 1 or body_end
        # the last line gets the comma the others end with
        window = text[at:stop] if stop < body_end else text[at : body_end - 2] + "},\n"
        try:
            window = window.encode("ascii")
        except UnicodeEncodeError:
            return None
        rows = _read_window(window, layout, columns, row)
        if rows is None:
            return None
        at, row = stop, row + rows
    # no view of the columns is left, so they shrink in place
    del columns
    for a in (brick_index, orientation, origin):
        a.resize((row, *a.shape[1:]), refcheck=False)
    return doc, (brick_index, orientation, origin)


def decode(text: str) -> Tiling:
    """Parse a tiling/1 document into a Tiling.

    A document laid out as encode writes it has its placements read
    straight into columns (_canonical).  Any other goes through
    json.loads, and its entries are checked one by one, so that the
    error names the first bad one by its JSON path.  Every text that is
    not a valid document is a TilingParseError, including JSON nested
    past the recursion limit and integers past Python's digit limit.
    """
    canonical = _canonical(text)
    if canonical is not None:
        doc, columns = canonical
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise TilingParseError(f"line {e.lineno}: {e.msg}") from None
        except ValueError:
            # the int digit limit, said without Python's advice to raise it
            limit = sys.get_int_max_str_digits()
            raise TilingParseError(f"unreadable JSON: an integer has more than {limit} digits") from None
        except RecursionError as e:
            raise TilingParseError(f"unreadable JSON: {e}") from None
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
    """Write encode(t) to path piece by piece (encode_pieces), atomically.

    The pieces go to a temporary file beside the target, which is synced
    and then renamed over it, so a save that fails part way leaves the
    old file untouched and no temporary file behind.  As with open(path,
    "w"), symlinks are followed, an existing file must be writable and
    keeps its permission bits, a new one gets 0o666 less the umask, and
    an error names path.  A target that is not a regular file, such as
    /dev/stdout, cannot be replaced and is written through.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(encode_pieces(t))
        return
    target = os.path.realpath(path)
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            mode = None
        if mode is not None and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.chmod(temp, mode)
            fh.writelines(encode_pieces(t))
            fh.flush()
            os.fsync(fd)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def load_tiling(path: Union[str, Path]) -> Tiling:
    """decode the UTF-8 text of path.  A file that cannot be read, is not
    UTF-8 or does not decode is a TilingParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise TilingParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise TilingParseError(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None
    return decode(text)
