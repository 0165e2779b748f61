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
