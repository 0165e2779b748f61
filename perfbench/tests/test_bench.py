"""Tests of the benchmark itself: tiny-size runs of every workload, and checks
that reject deliberately corrupted outputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from planecode.codes import CodeWord  # noqa: E402



def tiny(name, tmp_path):
    return {
        "code-dual": wl.CodeDual(fields=((2, 2), (5, 1))),
        "plane-words": wl.PlaneWords(sizes=(9, 16), ingest_q=9, extract_q=9,
                                     line_words=5, extractions=3),
        "suite": wl.Suite(tmp_path),
    }[name]


def outputs(workload, seed=3):
    """(case, output) for every case of one pass, each already checked clean."""
    out = []
    for case in workload.cases(workload.setup(seed)):
        result = case.run()
        assert case.check(result) == [], case.name
        out.append((case, result))
    return out


@pytest.mark.parametrize("name", ["code-dual", "plane-words", "suite"])
def test_tiny_pass_is_correct(name, tmp_path):
    w = tiny(name, tmp_path)
    runner = run.Runner(w, w.setup(5))
    runner.run_pass(traced=False)
    assert runner.attempted > 0
    assert (runner.failed, runner.problems) == (0, [])


def test_setup_is_seeded():
    w = tiny("plane-words", None)
    a, b, c = w.setup(1), w.setup(1), w.setup(2)
    assert a[9][0] == b[9][0] and a[9][0] != c[9][0]
    assert (a[9][2][0] == b[9][2][0]).all()


def test_raising_case_fails_its_ops_and_the_run_goes_on():
    def boom():
        raise RuntimeError("boom")

    class Broken:
        def cases(self, inputs):
            return [wl.Case("boom", 3, boom, lambda out: []),
                    wl.Case("fine", 2, lambda: None, lambda out: [])]

    runner = run.Runner(Broken(), None)
    runner.run_pass(traced=False)
    assert (runner.attempted, runner.failed) == (5, 3)
    assert "boom" in runner.problems[0]


def test_code_dual_rejects_wrong_rank_and_non_dual_basis():
    (case, out), _ = outputs(tiny("code-dual", None))
    dropped = dataclasses.replace(out, generator=out.generator[:-1])
    assert case.check(dropped)
    bad = out.dual.copy()
    bad[0, -1] = (bad[0, -1] + 1) % out.p
    assert case.check(dataclasses.replace(out, dual=bad))


def test_plane_words_rejects_non_dual_word_and_bad_round_trips():
    (case, out), _ = outputs(tiny("plane-words", None))
    w = out.words[0]
    values = w.word.values.copy()
    values[int(np.flatnonzero(values == 0)[0])] = 1
    non_dual = CodeWord(w.word.p, values)
    for bad in (
        dataclasses.replace(w, word=non_dual, round_trip=non_dual),
        dataclasses.replace(w, dual=False),
        dataclasses.replace(w, failed_checks=["clmod"]),
        dataclasses.replace(w, classification="two-colour-other"),
        dataclasses.replace(w, round_trip=w.word.neg()),
    ):
        assert case.check(dataclasses.replace(out, words=[bad] + out.words[1:])), bad
    secant, pts, got_pts, got_secant = out.extractions[0]
    wrong = [(secant, pts, got_pts, got_secant + 1)] + out.extractions[1:]
    assert case.check(dataclasses.replace(out, extractions=wrong))
    want, got = out.ingest
    moved = [tuple(sorted(got[0][:-1] + (got[1][-1],)))] + list(got[1:])
    assert case.check(dataclasses.replace(out, ingest=(want, moved)))


def test_suite_check_rejects_failed_rows_and_broken_records():
    record = {"outcome": {"rows": [{"number": i, "passed": True} for i in range(1, 12)]}}
    assert wl.check_suite((0, json.dumps(record))) == []
    record["outcome"]["rows"][9]["passed"] = False
    assert len(wl.check_suite((1, json.dumps(record)))) == 1
    assert len(wl.check_suite((0, "{not json"))) == wl.SUITE_ROWS
    record["outcome"]["rows"] = record["outcome"]["rows"][:10]
    assert wl.check_suite((0, json.dumps(record)))
    assert wl.check_suite((1, json.dumps({"outcome": {"rows": []}})))


def test_traced_pass_restores_program_and_counts_exactly():
    import planecode.acceptance
    import planecode.geometry

    before = (planecode.geometry.pg2, list(planecode.acceptance.ALL_CRITERIA))
    tracer = tracing.Tracer()
    w = tiny("plane-words", None)
    runner = run.Runner(w, w.setup(5), tracer)
    runner.run_pass(traced=True)
    runner.run_pass(traced=True)
    assert (planecode.geometry.pg2, list(planecode.acceptance.ALL_CRITERIA)) == before
    passes = [tracing.layer_metrics([s for s in tracer.spans if s.pass_id == i]) for i in (0, 1)]
    for m in passes:
        assert m["construct.words"] == (13 + 5) + (21 + 5)  # Baer secants + line pairs
        assert m["analyze.words"] == m["construct.words"] + 3  # plus the extractions
        assert m["geometry.pg2_s.q16"] > 0 and m["bench.self_s"] > 0
    counts = [n for n, unit, _ in tracing.METRICS if unit == "count" and n != "trace.spans"]
    assert [passes[0].get(n) for n in counts] == [passes[1].get(n) for n in counts]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(wl.workloads(Path(".")))
    assert set(tracing.CODE_SIZES) == {p**h for p, h in wl.CodeDual().fields}
    assert set(tracing.PLANE_SIZES) == set(tracing.CODE_SIZES) | set(wl.PlaneWords().sizes)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout
