"""Spans at planecode's layer boundaries, recorded from outside the program.

`Tracer.install` wraps public functions of the planecode modules in place
(every module namespace that holds the function, plus the acceptance
criteria list) and `uninstall` restores them; no source file changes.  Each
span keeps its name, layer, start, end, parent span and pass id, plus a few
counters read from the function's public return value.  Spans stay in
memory; `layer_metrics` turns one pass's spans into the per-layer metrics.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  Hot inner calls (`verify_embedding` at every search
leaf, `_closure` per quadrangle) are deliberately not wrapped: a span per
call would distort the very loops being measured.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("bench", "cli", "acceptance", "analyze", "construct", "search",
          "antipodal", "geometry", "codes", "field", "formats")

CODE_SIZES = (16, 25)  # code-dual
PLANE_SIZES = (16, 25, 49)  # code-dual and plane-words

# (name, unit, better) for every per-layer metric; absent layers report 0.
METRICS = (
    [("field.build_s", "s", "lower")]
    + [("geometry.pg2_s", "s", "lower")]
    + [(f"geometry.pg2_s.q{q}", "s", "lower") for q in PLANE_SIZES]
    + [
        ("geometry.ingest_s", "s", "lower"),
        ("geometry.baer_s", "s", "lower"),
        ("geometry.table_mb", "MB", "lower"),
        ("geometry.subplane_s", "s", "lower"),
        ("codes.code_s", "s", "lower"),
        ("codes.dual_s", "s", "lower"),
    ]
    + [(f"codes.{m}.q{q}", "s", "lower") for m in ("code_s", "dual_s") for q in CODE_SIZES]
    + [("codes.rank", "count", "higher")]
    + [(f"codes.rank.q{q}", "count", "higher") for q in CODE_SIZES]
    + [
        ("codes.elim_nominal_gop", "Gop", "lower"),
        ("codes.elim_gop_per_s", "Gop/s", "higher"),
    ]
    + [(f"codes.elim_gop_per_s.q{q}", "Gop/s", "higher") for q in CODE_SIZES]
    + [
        ("codes.dual_check_s", "s", "lower"),
        ("codes.min_weight_s", "s", "lower"),
        ("construct.s", "s", "lower"),
        ("construct.words", "count", "higher"),
        ("analyze.s", "s", "lower"),
        ("analyze.word_ms.p50", "ms", "lower"),
        ("analyze.word_ms.p95", "ms", "lower"),
        ("analyze.words", "count", "higher"),
        ("analyze.checks_pass", "count", "higher"),
        ("analyze.checks_na", "count", "lower"),
        ("analyze.checks_fail", "count", "lower"),
        ("analyze.applicable_ratio", "ratio", "higher"),
        ("analyze.extract_s", "s", "lower"),
        ("antipodal.s", "s", "lower"),
        ("search.plain_s", "s", "lower"),
        ("search.nodes", "count", "lower"),
        ("search.nodes_per_s", "1/s", "higher"),
        ("search.embeddings", "count", "higher"),
        ("search.leaf_ratio", "ratio", "higher"),
    ]
    + [(f"search.prunes.{k}", "count", "lower")
       for k in ("injectivity", "incidence", "non_incidence", "line_injectivity")]
    + [
        ("search.frame_s", "s", "lower"),
        ("search.frame_nodes", "count", "lower"),
        ("formats.plane_text_s", "s", "lower"),
        ("formats.plane_text_kb", "KB", "lower"),
        ("formats.word_roundtrip_s", "s", "lower"),
    ]
    + [(f"acceptance.c{i:02d}_s", "s", "lower") for i in range(1, 12)]
    + [("acceptance.rows_passed", "count", "higher")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("trace.spans", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def _order_of(npoints: int) -> int:
    return round((npoints - 0.75) ** 0.5 - 0.5)


def _table_bytes(plane) -> int:
    table = getattr(plane, "pair_line", None)
    return table.nbytes if isinstance(table, np.ndarray) else 0


def _plane_info(args, kwargs, out):
    return {"q": out.order, "table_bytes": _table_bytes(out)}


def _code_info(args, kwargs, out):
    return {"q": _order_of(out.length), "n": out.length, "rank": out.dimension}


def _dual_info(args, kwargs, out):
    k = args[0].dimension
    return {"q": _order_of(out.length), "n": out.length, "k": k}


def _embed_info(args, kwargs, out):
    plane = args[1]
    normalize = kwargs.get("normalize")
    # the documented default: frame-normalise generated planes without exclusions
    frame = normalize if normalize is not None else (
        plane.source == "generated" and not kwargs.get("exclude"))
    return {"frame": frame, "nodes": out.stats.nodes, "prunes": dict(out.stats.prunes),
            "embeddings": len(out.embeddings)}


# (module, function, layer, info); info reads the public return value.
WRAPPED = (
    ("field", "field_new", "field", None),
    ("geometry", "pg2", "geometry", _plane_info),
    ("geometry", "plane_from_incidence", "geometry", _plane_info),
    ("geometry", "baer_subfield_subplane", "geometry", None),
    # the quadrangle-closure enumerator of subplane_search, run by criterion 10
    ("construct", "disjoint_baer_pair", "geometry", None),
    ("codes", "code_of_plane", "codes", _code_info),
    ("codes", "dual_basis", "codes", _dual_info),
    ("codes", "is_dual_word", "codes", None),
    ("codes", "enumerate_min_weight", "codes", None),
    ("construct", "line_diff", "construct", None),
    ("construct", "baer_diff", "construct", None),
    ("construct", "subplane_diff", "construct", None),
    ("construct", "antipodal_diff", "construct", None),
    ("analyze", "analyze", "analyze",
     lambda a, k, o: {"statuses": Counter(c.status for c in o.checks)}),
    ("analyze", "extract_baer", "analyze", None),
    ("analyze", "extract_antipodal", "analyze", None),
    ("antipodal", "cyclic_antipodal", "antipodal", None),
    ("antipodal", "validate_antipodal", "antipodal", None),
    ("antipodal", "antipodal_from_pg24", "antipodal", None),
    ("antipodal", "isomorphism", "antipodal", None),
    ("search", "embed_search", "search", _embed_info),
    ("formats", "plane_to_text", "formats", lambda a, k, o: {"bytes": len(o)}),
    ("formats", "plane_from_text", "formats", None),
    ("formats", "word_to_text", "formats", None),
    ("formats", "word_from_text", "formats", None),
    ("formats", "run_record", "formats", None),
    ("formats", "dump_record", "formats", None),
    ("acceptance", "run_all", "acceptance",
     lambda a, k, o: {"passed": sum(r.passed for r in o)}),
    ("cli", "main", "cli", None),
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "pass_id", "info")

    def __init__(self, name, layer, parent, pass_id):
        self.name, self.layer, self.parent, self.pass_id = name, layer, parent, pass_id
        self.start, self.end, self.info = time.perf_counter(), None, {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[Span] = []
        self._restore: list[tuple] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent, self.pass_id)
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "planecode" or n.startswith("planecode.")]
        for mod_name, attr, layer, info in WRAPPED:
            fn = getattr(sys.modules[f"planecode.{mod_name}"], attr)
            traced = self.wrap(fn, f"{mod_name}.{attr}", layer, info)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, traced)
        criteria = sys.modules["planecode.acceptance"].ALL_CRITERIA
        original = list(criteria)
        for i, fn in enumerate(original):
            criteria[i] = self.wrap(fn, f"acceptance.c{i + 1:02d}", "acceptance")
        self._restore.append((criteria, None, original))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            if key is None:
                target[:] = value
            else:
                setattr(target, key, value)
        self._restore.clear()


def _percentile(values: list, pct: float) -> float:
    return float(np.percentile(values, pct)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (the spans of a single pass id)."""
    child = Counter()
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.seconds
    m: Counter = Counter()
    for s in spans:
        m[f"{s.layer}.self_s"] += s.seconds - child[id(s)]

    def total(*names):
        return sum(s.seconds for s in spans if s.name in names)

    def named(name):
        return [s for s in spans if s.name == name]

    m["field.build_s"] = total("field.field_new")
    m["geometry.pg2_s"] = total("geometry.pg2")
    for s in named("geometry.pg2"):
        if s.info.get("q") in PLANE_SIZES:
            m[f"geometry.pg2_s.q{s.info['q']}"] += s.seconds
    m["geometry.ingest_s"] = total("geometry.plane_from_incidence")
    m["geometry.baer_s"] = total("geometry.baer_subfield_subplane")
    tables = [s.info["table_bytes"] for s in spans if "table_bytes" in s.info]
    m["geometry.table_mb"] = max(tables, default=0) / 2**20
    m["geometry.subplane_s"] = total("construct.disjoint_baer_pair")

    gop = Counter()
    secs = Counter()
    for s in named("codes.code_of_plane"):
        q, n, k = s.info["q"], s.info["n"], s.info["rank"]
        m["codes.rank"] += k
        gop[q] += k * n * n / 1e9  # rank-1 updates of a rank-k elimination of n x n
        secs[q] += s.seconds
        if q in CODE_SIZES:
            m[f"codes.rank.q{q}"] += k
            m[f"codes.code_s.q{q}"] += s.seconds
    for s in named("codes.dual_basis"):
        q, n, k = s.info["q"], s.info["n"], s.info["k"]
        gop[q] += (k * k * n + (n - k) ** 2 * n) / 1e9  # nullspace RREF, then basis RREF
        secs[q] += s.seconds
        if q in CODE_SIZES:
            m[f"codes.dual_s.q{q}"] += s.seconds
    m["codes.code_s"] = total("codes.code_of_plane")
    m["codes.dual_s"] = total("codes.dual_basis")
    m["codes.elim_nominal_gop"] = sum(gop.values())
    m["codes.elim_gop_per_s"] = _rate(sum(gop.values()), sum(secs.values()))
    for q in CODE_SIZES:
        m[f"codes.elim_gop_per_s.q{q}"] = _rate(gop[q], secs[q])
    m["codes.dual_check_s"] = total("codes.is_dual_word")
    m["codes.min_weight_s"] = total("codes.enumerate_min_weight")

    word_makers = ("construct.line_diff", "construct.baer_diff",
                   "construct.subplane_diff", "construct.antipodal_diff")
    m["construct.s"] = total(*word_makers)
    m["construct.words"] = sum(1 for s in spans if s.name in word_makers)

    analyses = named("analyze.analyze")
    statuses = sum((s.info["statuses"] for s in analyses), Counter())
    word_ms = [s.seconds * 1e3 for s in analyses]
    m["analyze.s"] = total("analyze.analyze")
    m["analyze.word_ms.p50"] = _percentile(word_ms, 50)
    m["analyze.word_ms.p95"] = _percentile(word_ms, 95)
    m["analyze.words"] = len(analyses)
    m["analyze.checks_pass"] = statuses["pass"]
    m["analyze.checks_na"] = statuses["na"]
    m["analyze.checks_fail"] = statuses["fail"]
    all_checks = sum(statuses.values())
    m["analyze.applicable_ratio"] = (statuses["pass"] + statuses["fail"]) / all_checks if all_checks else 0.0
    m["analyze.extract_s"] = total("analyze.extract_baer", "analyze.extract_antipodal")

    m["antipodal.s"] = sum(s.seconds for s in spans if s.layer == "antipodal"
                           and (s.parent is None or s.parent.layer != "antipodal"))

    searches = named("search.embed_search")
    plain = [s for s in searches if not s.info["frame"]]
    frame = [s for s in searches if s.info["frame"]]
    m["search.plain_s"] = sum(s.seconds for s in plain)
    m["search.nodes"] = sum(s.info["nodes"] for s in plain)
    m["search.nodes_per_s"] = _rate(m["search.nodes"], m["search.plain_s"])
    m["search.embeddings"] = sum(s.info["embeddings"] for s in plain)
    m["search.leaf_ratio"] = m["search.embeddings"] / m["search.nodes"] if m["search.nodes"] else 0.0
    for s in plain:
        for k, v in s.info["prunes"].items():
            m[f"search.prunes.{k}"] += v
    m["search.frame_s"] = sum(s.seconds for s in frame)
    m["search.frame_nodes"] = sum(s.info["nodes"] for s in frame)

    m["formats.plane_text_s"] = sum(
        s.seconds - child[id(s)] for s in spans
        if s.name in ("formats.plane_to_text", "formats.plane_from_text"))
    m["formats.plane_text_kb"] = sum(s.info["bytes"] for s in named("formats.plane_to_text")) / 1024
    m["formats.word_roundtrip_s"] = total("formats.word_to_text", "formats.word_from_text")

    for s in spans:
        if s.name.startswith("acceptance.c"):
            m[f"{s.name}_s"] += s.seconds
    m["acceptance.rows_passed"] = sum(s.info["passed"] for s in named("acceptance.run_all"))
    m["trace.spans"] = len(spans)
    return dict(m)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    names = [name for name, _, _ in METRICS]
    return {n: statistics.median(p.get(n, 0.0) for p in per_pass) for n in names}
