"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one pass/fail line; `planecode suite acceptance` runs the
same battery from the command line.
"""

import re

import pytest

from planecode import acceptance as acc


@pytest.fixture(scope="module")
def ctx():
    return acc.AcceptanceContext(seed=0)


def _run(criterion, ctx):
    result = criterion(ctx)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_dimension_formula(ctx):
    _run(acc.criterion_1_dimension_formula, ctx)


def test_criterion_02_primal_minimum_weight(ctx):
    _run(acc.criterion_2_primal_minimum, ctx)


def test_criterion_03_dual_minimum_weight_even_q(ctx):
    _run(acc.criterion_3_dual_minimum_even, ctx)


def test_criterion_04_dual_minimum_weight_prime_q(ctx):
    _run(acc.criterion_4_dual_minimum_prime, ctx)


def test_criterion_05_baer_witnesses(ctx):
    _run(acc.criterion_5_baer_witnesses, ctx)


def test_criterion_06_isbaer_roundtrip(ctx):
    _run(acc.criterion_6_isbaer_roundtrip, ctx)


def test_criterion_07_embedding_truth_table(ctx):
    _run(acc.criterion_7_embedding_truth_table, ctx)


def test_criterion_08_menelaos_ceva(ctx):
    _run(acc.criterion_8_menelaos_ceva, ctx)


def test_criterion_09_antipodal_models(ctx):
    _run(acc.criterion_9_antipodal_models, ctx)


def test_criterion_10_analyzer_suite(ctx):
    _run(acc.criterion_10_analyzer_suite, ctx)


def test_criterion_11_bagchi_bound(ctx):
    # depends on the words recorded by criteria 5 and 10
    if not ctx.checked_words:
        acc.criterion_5_baer_witnesses(ctx)
        acc.criterion_10_analyzer_suite(ctx)
    _run(acc.criterion_11_bagchi_bound, ctx)


def test_criterion_06_releases_pg2_49():
    # criteria 5 and 6 are the only users of PG(2,49); its tables must not
    # stay alive under the later rows
    own = acc.AcceptanceContext(seed=0)
    assert acc.criterion_5_baer_witnesses(own).passed
    assert (7, 2) in own._planes
    assert acc.criterion_6_isbaer_roundtrip(own).passed
    assert (7, 2) not in own._planes
    assert {(3, 2), (5, 2)} <= set(own._planes)


def test_analyzer_rows_report_check_tallies():
    # criteria 5 and 10 count every analyzer check as pass, na or fail, so a
    # "0 failed checks" that is mostly na shows; 12 checks per word
    own = acc.AcceptanceContext(seed=0)
    for row, words_in in (
        (acc.criterion_5_baer_witnesses(own), lambda part: 1),
        (acc.criterion_10_analyzer_suite(own),
         lambda part: int(re.search(r"(\d+) words", part)[1])),
    ):
        parts = row.detail.split("; ")
        assert len(parts) == 3
        for part in parts:
            failed = re.search(r"(\d+) failed checks|failed checks (\d+)", part)
            tally = re.search(r"\(pass (\d+), na (\d+), fail (\d+)\)$", part)
            passed, na, fail = (int(g) for g in tally.groups())
            assert passed + na + fail == 12 * words_in(part), part
            assert na > 0 and fail == 0 == int(failed[1] or failed[2]), part


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_dual_words_match_the_per_word_products(ctx, seed):
    """Criterion 10's batched words equal one vector-matrix product per draw."""
    import numpy as np

    for p, h in ((2, 2), (3, 2), (5, 2)):
        dual = ctx.dual_code(p, h)
        for count in (500, 250):
            rng = np.random.default_rng(seed)
            want = [
                (rng.integers(0, p, size=dual.dimension) @ dual.generator) % p
                for _ in range(count)
            ]
            got = acc.random_dual_words(dual, np.random.default_rng(seed), count)
            assert len(got) == count
            assert all(np.array_equal(w.values, v) for w, v in zip(got, want))
