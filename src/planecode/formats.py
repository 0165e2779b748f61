"""Text file formats and JSON records.

Plane files:   "plane n=<n> points=<N> lines=<N>" then one line of sorted
               0-based point indices per geometric line.
PLS files:     "pls points=<N> lines=<M>" then one line per structure line.
Word files:    "word p=<p> len=<L>" then "pos:value" pairs for the support,
               sorted by position; run records carry a JSON mirror.
Embeddings:    JSON {"point_map": [...], "line_map": [...]}, integer lists.

Exporters and ingesters are exact inverses on the textual relation; all
machine output elsewhere is JSON.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
import time
from pathlib import Path

import numpy as np

from .antipodal import PartialLinearSpace
from .codes import CodeWord
from .field import _TABLE_LIMIT, is_prime
from .geometry import INGEST_ORDER_CAP, Plane, plane_from_incidence
from .search import Embedding


class FormatError(ValueError):
    pass


def _parse_header(text: str, usage: str) -> tuple[int, dict[str, int], list]:
    """Split a text file into its header and its non-blank body lines.

    usage is the header's form, e.g. "word p=<p> len=<L>": the first
    non-blank line must start with the same word and give a non-negative
    integer for every key, or a FormatError names its 1-based line.
    Returns the header's line number, its values by key, and the body as
    (line number, text) pairs.
    """
    kind, *keys = (part.split("=")[0] for part in usage.split())
    numbered = [(n, l) for n, l in enumerate(text.splitlines(), 1) if l.strip()]
    if not numbered:
        raise FormatError(f"line 1: expected '{usage}', the file is empty")
    line, head = numbered[0]
    words = head.split()
    try:
        if words[0] != kind:
            raise ValueError
        given = dict(kv.split("=") for kv in words[1:])
        fields = {k: int(given[k]) for k in keys}
        if min(fields.values()) < 0:
            raise ValueError
    except (KeyError, ValueError):
        raise FormatError(f"line {line}: expected '{usage}'") from None
    return line, fields, numbered[1:]


_PLAIN = b"0123456789 \t"  # the bytes of a body line that needs no int() parse
_INT64_MAX = np.iinfo(np.int64).max  # np.fromstring's value for an index too large for int64
_KEY_SPAN = 1 << 32  # points at or above it share one sort key: their rows are read again
_PLS_POINTS_CAP = INGEST_ORDER_CAP**2 + INGEST_ORDER_CAP + 1


def _incidence_rows(text: str, usage: str) -> tuple[int, dict[str, int], np.ndarray, np.ndarray]:
    """The header, the point indices of a plane or pls file in one int64
    array, and the number of points in each row.  Every point index must
    lie below the header's points=, no row may repeat a point, a row must
    have n+1 points (a plane of order n) or at least 2 (a pls), and the
    number of rows must equal its lines=.  The first faulty row raises.
    A pls may have as many points as a plane of order INGEST_ORDER_CAP,
    checked before its body is read: PartialLinearSpace keeps a list per point."""
    line, fields, body = _parse_header(text, usage)
    npoints = fields["points"]
    size = fields["n"] + 1 if "n" in fields else None
    if size is None and npoints > _PLS_POINTS_CAP:
        raise FormatError(
            f"line {line}: points={npoints} exceeds {_PLS_POINTS_CAP}, "
            f"the points of a plane of order {INGEST_ORDER_CAP}"
        )
    entries = [entry for _, entry in body]
    stop = len(entries)  # the first row that is not all integers
    if not _plain("".join(entries)):  # a sign, or a form only int() reads
        for i, entry in enumerate(entries):
            if not _plain(entry):
                try:
                    entries[i] = " ".join(map(str, map(int, entry.split())))
                except ValueError:
                    stop = i
                    break
    vals, counts = _body_integers(entries[:stop])
    row = np.arange(stop).repeat(counts)
    # one sort of the keys row*span + point: equal neighbours are a repeated
    # point, or two points the clip merged, which the range test marks anyway
    span = min(npoints, _KEY_SPAN) + 1
    keys = np.sort(row * span + np.clip(vals, 0, span - 1))
    # the rows the arrays cannot clear are read again, in file order, and
    # the first the per-row check faults raises
    suspect = np.zeros(stop + 1, dtype=bool)
    suspect[row[(vals < 0) | (vals >= npoints) | (vals == _INT64_MAX)]] = True
    suspect[keys[1:][keys[1:] == keys[:-1]] // span] = True
    suspect[:stop] |= counts != size if size else counts < 2
    suspect[stop] = stop < len(entries)
    for i in np.flatnonzero(suspect).tolist():
        n, entry = body[i]
        fault = _row_fault(entry, npoints, size)
        if fault:
            raise FormatError(f"line {n}: {fault}")
    if len(entries) != fields["lines"]:
        raise FormatError(
            f"line {line}: header says lines={fields['lines']}, file has {len(entries)} rows"
        )
    return line, fields, vals, counts


def _body_integers(rows: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The integers of plain rows in one int64 array, and how many each row
    holds: one np.fromstring over the rows joined by newlines, and the row
    lengths from one pass over its bytes (_row_lengths)."""
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    data = "\n".join(["", *rows, ""])  # each row between two newlines
    counts = _row_lengths(data)
    return np.fromstring(data, dtype=np.int64, sep=" "), counts


def _row_lengths(data: str) -> np.ndarray:
    """The number of integers on each row of plain text that begins and ends
    with a newline and has one between rows: the digit runs that start
    between two consecutive newlines."""
    raw = np.frombuffer(data.encode("ascii"), dtype=np.uint8)
    digit = raw >= ord("0")  # a plain row holds only digits, spaces and tabs
    starts = np.flatnonzero(digit[1:] > digit[:-1])  # the byte before each run
    return np.diff(np.searchsorted(starts, np.flatnonzero(raw == ord("\n"))))


def _plain(text: str) -> bool:
    """Whether text holds only ASCII digits, spaces and tabs."""
    return text.isascii() and not text.encode("ascii").translate(None, _PLAIN)


def _row_fault(entry: str, npoints: int, size: int | None) -> str | None:
    """What is wrong with one row of a plane or pls file, or None."""
    try:
        row = list(map(int, entry.split()))
    except ValueError:
        return f"non-integer entry in {entry.strip()!r}"
    if min(row) < 0 or max(row) >= npoints:
        return f"point index outside 0..{npoints - 1} in {entry.strip()!r}"
    if len(set(row)) != len(row):
        return f"repeated point in {entry.strip()!r}"
    if len(row) != size if size else len(row) < 2:
        return f"row {entry.strip()!r} of size {len(row)}, expected {size or 'at least 2'} points"
    return None


# -- planes ----------------------------------------------------------------------


def _rows_text(head: str, npoints: int, rows) -> str:
    """A header line, then each row of point indices on its own line."""
    names = list(map(str, range(npoints)))  # one string per point, joined by every row
    return head + "\n" + "\n".join(" ".join(map(names.__getitem__, r)) for r in rows) + "\n"


def plane_to_text(plane: Plane) -> str:
    head = f"plane n={plane.order} points={plane.npoints} lines={plane.npoints}"
    return _rows_text(head, plane.npoints, plane.lines_arr.tolist())


def plane_from_text(text: str) -> Plane:
    line, fields, vals, _ = _incidence_rows(text, "plane n=<n> points=<N> lines=<N>")
    n = fields["n"]
    if fields["points"] != n * n + n + 1:
        raise FormatError(
            f"line {line}: points={fields['points']}, but a plane of order {n} "
            f"has {n * n + n + 1}"
        )
    return plane_from_incidence(vals.reshape(-1, n + 1), n)


def write_plane(plane: Plane, path) -> None:
    Path(path).write_text(plane_to_text(plane))


def read_plane(path) -> Plane:
    return plane_from_text(Path(path).read_text())


# -- partial linear spaces ---------------------------------------------------------


def pls_to_text(pls: PartialLinearSpace) -> str:
    head = f"pls points={pls.n_points} lines={len(pls.lines)}"
    return _rows_text(head, pls.n_points, pls.lines)


def pls_from_text(text: str) -> PartialLinearSpace:
    _, fields, vals, counts = _incidence_rows(text, "pls points=<N> lines=<M>")
    flat, ends = vals.tolist(), np.cumsum(counts).tolist()
    return PartialLinearSpace(fields["points"], [flat[e - c : e] for e, c in zip(ends, counts.tolist())])


def write_pls(pls: PartialLinearSpace, path) -> None:
    Path(path).write_text(pls_to_text(pls))


def read_pls(path) -> PartialLinearSpace:
    return pls_from_text(Path(path).read_text())


# -- code words --------------------------------------------------------------------


def _support_pairs(w: CodeWord) -> zip:
    """The (position, value) pairs of a word's support as Python ints."""
    return zip(w.support.tolist(), w.values[w.support].tolist())


def word_to_text(w: CodeWord) -> str:
    head = f"word p={w.p} len={w.length}"
    return "\n".join([head, *(f"{i}:{v}" for i, v in _support_pairs(w))]) + "\n"


_NUMBER = "[ \t]*[0-9]{1,18}[ \t]*"  # at most 18 digits: every value fits in int64
_ENTRY = f"{_NUMBER}:{_NUMBER}"
_ENTRIES = re.compile(f"{_ENTRY}(?:\n{_ENTRY})*")  # [0-9], not \d: \d matches other digits
_LEN_MAX = _TABLE_LIMIT**2 + _TABLE_LIMIT + 1  # the points of PG(2,q) at the largest field order


def _support_word(p: int, length: int, body: list) -> CodeWord:
    """The word with value b at position a for each "a:b" entry of a word
    file's body, given as (line number, text) pairs; a FormatError names
    the line of a bad entry."""

    def where(i: int) -> str:
        return f"line {body[i][0]} ({body[i][1].strip()!r})"

    joined = "\n".join(entry for _, entry in body)
    if _ENTRIES.fullmatch(joined):  # plain digits throughout: one parse of the whole body
        pos, val = np.fromstring(joined.replace(":", " "), dtype=np.int64, sep=" ").reshape(-1, 2).T
    else:  # entry by entry, as int() reads them; the first malformed one raises
        pos = np.empty(len(body), dtype=np.int64)
        val = np.empty(len(body), dtype=np.int64)
        for i, (_, entry) in enumerate(body):
            try:
                a, b = entry.split(":")
                pos[i], val[i] = int(a), int(b)
            except ValueError:
                raise FormatError(f"{where(i)}: malformed entry, expected pos:value") from None
            except OverflowError:
                raise FormatError(f"{where(i)}: number out of range") from None
    order = np.argsort(pos, kind="stable")
    dup = np.zeros(pos.size, dtype=bool)
    dup[order[1:]] = pos[order[1:]] == pos[order[:-1]]
    problems = (
        ((pos < 0) | (pos >= length), f"position outside 0..{length - 1}"),
        ((val <= 0) | (val >= p), f"value outside 1..{p - 1}"),
        (dup, "duplicate position"),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in problems]))
    if bad.size:
        i = int(bad[0])
        why = next(why for mask, why in problems if mask[i])
        raise FormatError(f"{where(i)}: {why}")
    values = np.zeros(length, dtype=np.int64)
    values[pos] = val
    return CodeWord(p, values)


def word_from_text(text: str) -> CodeWord:
    line, fields, body = _parse_header(text, "word p=<p> len=<L>")
    p, length = fields["p"], fields["len"]  # both bounded before the word is allocated
    bound = (
        f"p a prime up to {_TABLE_LIMIT}" if p > _TABLE_LIMIT or not is_prime(p)
        else f"L up to {_LEN_MAX}, the points of the largest plane pg2 builds" if length > _LEN_MAX
        else None
    )
    if bound:
        raise FormatError(f"line {line}: expected 'word p=<p> len=<L>' with {bound}")
    return _support_word(p, length, body)


def word_to_json(w: CodeWord) -> dict:
    return {"p": w.p, "len": w.length, "support": {str(i): v for i, v in _support_pairs(w)}}


def write_word(w: CodeWord, path) -> None:
    Path(path).write_text(word_to_text(w))


def read_word(path) -> CodeWord:
    return word_from_text(Path(path).read_text())


# -- embeddings --------------------------------------------------------------------


def embedding_to_json(emb: Embedding) -> dict:
    return {"point_map": list(emb.point_map), "line_map": list(emb.line_map)}


def embedding_from_json(obj) -> Embedding:
    """The embedding in an object of two integer lists, point_map and
    line_map; their range and injectivity are verify_embedding's to check."""
    maps = []
    for key in ("point_map", "line_map"):
        entries = obj.get(key) if isinstance(obj, dict) else None
        if not isinstance(entries, list):
            raise FormatError(f"expected an object whose {key!r} is a list of integers")
        for i, x in enumerate(entries):
            try:
                if isinstance(x, (str, bool)):
                    raise TypeError
                operator.index(x)
            except TypeError:
                raise FormatError(f"{key} entry {i}: {x!r} is not an integer") from None
        maps.append(tuple(entries))
    return Embedding(*maps)


def write_embedding(emb: Embedding, path) -> None:
    Path(path).write_text(json.dumps(embedding_to_json(emb), indent=2))


def read_embedding(path) -> Embedding:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"line {e.lineno}: {e.msg}") from None
    return embedding_from_json(obj)


# -- run records -------------------------------------------------------------------


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_record(command: str, config: dict, inputs: dict, outcome: dict) -> dict:
    """A self-contained record of one CLI invocation."""
    import planecode

    return {
        "command": command,
        "config": config,
        "versions": {
            "planecode": planecode.__version__,
            "numpy": np.__version__,
        },
        "input_hashes": {
            name: file_sha256(path) for name, path in inputs.items() if Path(path).exists()
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outcome": outcome,
    }


def dump_record(record: dict, out: str | None) -> str:
    text = json.dumps(record, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    return text
