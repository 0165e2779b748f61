"""Round trips of the plane, pls and word text formats on random relabellings
of PG(2,q), q <= 7."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from planecode import formats
from planecode.antipodal import PartialLinearSpace
from planecode.codes import CodeWord
from planecode.field import field_new
from planecode.geometry import pg2, plane_from_incidence

PLANES = {q: pg2(field_new(*f)) for q, f in {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}.items()}


@st.composite
def relabelled(draw):
    """A relabelled PG(2,q): its order and rows (line i of the plane holds the
    images of the points of line line_perm[i])."""
    q = draw(st.sampled_from(sorted(PLANES)))
    plane = PLANES[q]
    perm = draw(st.permutations(range(plane.npoints)))
    line_perm = draw(st.permutations(range(plane.npoints)))
    rows = [[perm[x] for x in plane.lines[l]] for l in line_perm]
    return q, rows


@settings(max_examples=40, deadline=None)
@given(relabelled())
def test_plane_text_round_trip(case):
    q, rows = case
    plane = plane_from_incidence(rows, q)
    text = formats.plane_to_text(plane)
    back = formats.plane_from_text(text)
    assert back.lines == tuple(tuple(sorted(r)) for r in rows)
    assert np.array_equal(back.point_lines_arr, plane.point_lines_arr)
    assert formats.plane_to_text(back) == text


@settings(max_examples=40, deadline=None)
@given(relabelled())
def test_pls_text_round_trip(case):
    q, rows = case
    pls = PartialLinearSpace(q * q + q + 1, rows)
    text = formats.pls_to_text(pls)
    back = formats.pls_from_text(text)
    assert back == pls and back.lines == pls.lines
    assert formats.pls_to_text(back) == text


@settings(max_examples=40, deadline=None)
@given(relabelled(), st.data())
def test_word_text_round_trip(case, data):
    # the difference of two relabelled lines, scaled, over the plane's prime
    q, rows = case
    p = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7}[q]
    i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    lam = data.draw(st.integers(1, p - 1))
    values = np.zeros(q * q + q + 1, dtype=np.int64)
    values[rows[i]] += lam
    values[rows[j]] -= lam
    w = CodeWord(p, values)
    text = formats.word_to_text(w)
    back = formats.word_from_text(text)
    assert back == w and back.weight == 2 * q
    assert formats.word_to_text(back) == text


# each fault kind rewrites the tokens of one body line of a valid file
# (its points, or a word entry's position and value); the file gives n
# points, a prime p, the plane's row size (None for a pls or a word) and the
# tokens of its first body line
def _non_integer(toks, draw, file):
    i = draw(st.integers(0, len(toks) - 1))
    return toks[:i] + [draw(st.sampled_from(["x", "1.5", "\u00bd", "0x1"]))] + toks[i + 1 :]


def _spellings(y: str) -> list[str]:
    """int() reads "+y", "1_0" and Arabic-Indic digits, so a line holding
    them leaves the plain-digit path: y, spelled so, and its negative."""
    underscored = y[0] + "_" + y[1:] if len(y) > 1 else "0_" + y
    return ["+" + y, underscored, "".join(chr(0x660 + int(c)) for c in y), "-" + y]


def _signed_point(toks, draw, file):
    i = draw(st.integers(1, len(toks) - 1))
    return toks[:i] + [draw(st.sampled_from(_spellings(toks[0])))] + toks[i + 1 :]


def _signed_position(toks, draw, file):
    return [draw(st.sampled_from(_spellings(file["first"][0]))), toks[1]]


def _out_of_range(toks, draw, file):
    i = draw(st.integers(0, len(toks) - 1))
    return toks[:i] + [str(draw(st.integers(file["n"], 2 * file["n"])))] + toks[i + 1 :]


def _repeated_point(toks, draw, file):
    i, j = draw(st.lists(st.integers(0, len(toks) - 1), min_size=2, max_size=2, unique=True))
    return [toks[j] if k == i else t for k, t in enumerate(toks)]


def _wrong_size(toks, draw, file):
    if not file["size"] or draw(st.booleans()):
        return toks[:1]
    if draw(st.booleans()):
        return toks[:-1]
    return toks + [str(x) for x in range(file["n"]) if str(x) not in toks][:1]


def _three_parts(toks, draw, file):
    return [":".join(toks + [draw(st.sampled_from(toks))])]


def _duplicate_position(toks, draw, file):
    return [file["first"][0], toks[1]]


def _value_zero(toks, draw, file):
    return [toks[0], draw(st.sampled_from(["0", "00", str(file["p"])]))]


INCIDENCE_FAULTS = [_non_integer, _signed_point, _out_of_range, _repeated_point, _wrong_size,
                    _three_parts]
WORD_FAULTS = [_non_integer, _signed_position, _out_of_range, _three_parts, _duplicate_position,
               _value_zero]


def _word_entry_fault(entry: str, p: int, n: int) -> str:
    """The reason the per-entry check gives for a faulty entry, when the
    only earlier entry it can repeat is the first."""
    try:
        a, b = map(int, entry.split(":"))
    except ValueError:
        return "malformed entry, expected pos:value"
    if not 0 <= a < n:
        return f"position outside 0..{n - 1}"
    return f"value outside 1..{p - 1}" if not 0 < b < p else "duplicate position"


@settings(max_examples=150, deadline=None)
@given(relabelled(), st.sampled_from(["plane", "pls", "word"]), st.data())
def test_a_corrupted_line_is_named_with_its_own_check(case, kind, data):
    """One faulty body line raises the FormatError that the per-line check
    of the fallback path writes for it, whatever path the other lines take."""
    q, rows = case
    n = q * q + q + 1
    p = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7}[q]
    if kind == "word":
        values = np.zeros(n, dtype=np.int64)
        values[rows[0]] += 1
        values[rows[1]] -= 1
        text = formats.word_to_text(CodeWord(p, values))
        fault = data.draw(st.sampled_from(WORD_FAULTS))
    else:
        head = f"plane n={q} points={n} lines={n}" if kind == "plane" else f"pls points={n} lines={n}"
        text = head + "\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
        fault = data.draw(st.sampled_from(INCIDENCE_FAULTS))
    lines = text.splitlines()
    i = data.draw(st.integers(2, len(lines) - 1))  # a body line after the first
    sep = ":" if kind == "word" else data.draw(st.sampled_from([" ", "  ", "\t"]))
    toks = lines[i].split(sep.strip() or None)
    size = q + 1 if kind == "plane" else None
    file = {"n": n, "p": p, "size": size, "first": lines[1].split(sep.strip() or None)}
    lines[i] = sep.join(fault(toks, data.draw, file))
    bad = "\n".join(lines) + "\n"
    if kind == "word":
        want = f"line {i + 1} ({lines[i].strip()!r}): {_word_entry_fault(lines[i], p, n)}"
        parse = formats.word_from_text
    else:
        why = formats._row_fault(lines[i], n, size)
        assert why is not None
        want = f"line {i + 1}: {why}"
        parse = formats.plane_from_text if kind == "plane" else formats.pls_from_text
    with pytest.raises(formats.FormatError) as err:
        parse(bad)
    assert str(err.value) == want
