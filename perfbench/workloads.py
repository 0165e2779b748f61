"""The benchmark's workloads: seeded inputs, the cases of one pass, and
the checks on every output.

A workload is set up once per process from the seed (`setup`), then runs
passes.  A pass is a list of cases; each case calls into planecode and
returns its outputs, and the case's check turns those outputs into a list
of problems, one per failed operation.  A case that raises fails all of its
operations.  Every pass rebuilds its fields and planes: a command-line user
pays that cost on every run, so nothing is cached between passes.

The workloads call the program through module attributes (`geometry.pg2`,
not a name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

from planecode import cli, codes, construct, field, formats, geometry
from planecode import analyze as analyzer


@dataclass
class Case:
    """One unit of a pass: `ops` checked operations produced by one `run`."""

    name: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def factor_prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    h = 0
    while q > 1:
        if q % p:
            raise ValueError(f"{p ** h * q} is not a prime power")
        q //= p
        h += 1
    return p, h


def relabel_plane_text(text: str, perm: np.ndarray, order: np.ndarray) -> str:
    """A plane file with point x renamed perm[x] and its lines listed in the given order."""
    head, *rows = text.splitlines()
    rows = [r.split() for r in rows if r.strip()]
    body = (" ".join(str(int(perm[int(x)])) for x in rows[i]) for i in order)
    return head + "\n" + "\n".join(body) + "\n"


# -- code-dual -------------------------------------------------------------------


def is_rref(m: np.ndarray, p: int) -> bool:
    """Reduced row echelon form over GF(p) with no zero rows (so full rank)."""
    if m.size == 0:
        return True
    if m.min() < 0 or m.max() >= p or not m.any(axis=1).all():
        return False
    lead = (m != 0).argmax(axis=1)
    return bool(
        (np.diff(lead) > 0).all()
        and (m[:, lead] == np.eye(len(lead), dtype=m.dtype)).all()
    )


def residues_vanish(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    """a @ b.T == 0 mod p, by a float64 product that is exact for these sizes."""
    if a.shape[1] * (p - 1) ** 2 >= 2**53:
        raise ValueError("float64 product would not be exact")
    return not (np.rint(a.astype(np.float64) @ b.T.astype(np.float64)) % p).any()


@dataclass
class CodeDualOut:
    p: int
    h: int
    lines: tuple
    generator: np.ndarray
    dual: np.ndarray


def run_code_dual(p: int, h: int) -> CodeDualOut:
    plane = geometry.pg2(field.field_new(p, h))
    code = codes.code_of_plane(plane, p)
    dual = codes.dual_basis(code)
    return CodeDualOut(p, h, plane.lines, code.generator, dual.generator)


def check_code_dual(out: CodeDualOut) -> list[str]:
    """Rank is the closed form C(p+1,2)^h + 1 (Hamada); both bases are full
    rank RREF; the dual is orthogonal to the code and to every line.  With
    the rank known, these certify that the dual is exactly the dual code."""
    p, q = out.p, out.p**out.h
    n = q * q + q + 1
    k = comb(p + 1, 2) ** out.h + 1
    g, d = out.generator, out.dual
    incidence = np.zeros((n, n), dtype=np.int64)
    for i, line in enumerate(out.lines):
        incidence[i, list(line)] = 1
    problems = []
    if g.shape != (k, n) or not is_rref(g, p):
        problems.append(f"q={q}: code is not a rank-{k} RREF basis (shape {g.shape})")
    if d.shape != (n - k, n) or not is_rref(d, p):
        problems.append(f"q={q}: dual is not a rank-{n - k} RREF basis (shape {d.shape})")
    if not problems and not residues_vanish(g, d, p):
        problems.append(f"q={q}: generator @ dual.T is not 0 mod {p}")
    if not problems and not residues_vanish(incidence, d, p):
        problems.append(f"q={q}: a dual basis row is not orthogonal to every line")
    return problems[:1]


class CodeDual:
    """Plane code and dual basis: deterministic, so the seed is ignored."""

    name = "code-dual"

    def __init__(self, fields=((5, 2), (2, 4))):
        self.fields = fields

    def setup(self, seed: int):
        return None

    def cases(self, inputs) -> list[Case]:
        return [
            Case(f"q{p**h}", 1, lambda p=p, h=h: run_code_dual(p, h), check_code_dual)
            for p, h in self.fields
        ]


# -- plane-words -----------------------------------------------------------------


@dataclass
class WordOut:
    kind: str  # "baer" | "line"
    word: object
    dual: bool
    failed_checks: list
    classification: str
    round_trip: object


@dataclass
class PlaneWordsOut:
    q: int
    lines: tuple
    sub_points: tuple
    words: list
    extractions: list  # (secant, expected points, extracted points, extracted secant)
    ingest: tuple | None  # (expected line set, ingested lines)


def run_plane_words(q: int, pairs, picks, relabel) -> PlaneWordsOut:
    plane = geometry.pg2(field.field_new(*factor_prime_power(q)))
    sub = geometry.baer_subfield_subplane(plane)
    made = [("baer", construct.baer_diff(plane, sub, secant=s)) for s in sub.lines]
    made += [("line", construct.line_diff(plane, a, b)) for a, b in pairs]
    words = []
    for kind, w in made:
        dual = codes.is_dual_word(w, plane)[0]
        a = analyzer.analyze(w, plane)
        back = formats.word_from_text(formats.word_to_text(w))
        words.append(WordOut(kind, w, dual, [c.name for c in a.failed()], a.classification, back))
    extractions = []
    for i in picks:
        got_sub, got_secant = analyzer.extract_baer(made[i][1], plane)
        extractions.append((sub.lines[i], sub.points, got_sub.points, got_secant))
    ingest = None
    if relabel is not None:
        perm, order = relabel
        text = relabel_plane_text(formats.plane_to_text(plane), perm, order)
        want = {tuple(sorted(int(perm[x]) for x in l)) for l in plane.lines}
        ingest = (want, formats.plane_from_text(text).lines)
    return PlaneWordsOut(q, plane.lines, sub.points, words, extractions, ingest)


def check_plane_words(out: PlaneWordsOut) -> list[str]:
    q = out.q
    p, _ = factor_prime_power(q)
    m = round(q**0.5)
    weight = {"baer": (m * m + m + 1) + (q + 1) - 2 * (m + 1), "line": 2 * q}
    lines = np.array(out.lines)
    problems = []
    for i, w in enumerate(out.words):
        v = w.word.values
        bad = []
        if (v[lines].sum(axis=1) % p).any() or not w.dual:
            bad.append("not a dual word")
        if w.word.weight != weight[w.kind]:
            bad.append(f"weight {w.word.weight}, want {weight[w.kind]}")
        if w.failed_checks:
            bad.append(f"failed analyzer checks {w.failed_checks}")
        if w.kind == "baer" and q == p * p and w.classification != "baer":
            bad.append(f"classified {w.classification!r}, want 'baer'")
        if w.round_trip.p != w.word.p or not np.array_equal(w.round_trip.values, v):
            bad.append("word text round trip changed the word")
        if bad:
            problems.append(f"q={q} {w.kind} word {i}: " + "; ".join(bad))
    for secant, pts, got_pts, got_secant in out.extractions:
        if tuple(got_pts) != tuple(pts) or got_secant != secant:
            problems.append(f"q={q}: extract_baer on secant {secant} gave secant {got_secant}")
    if out.ingest is not None:
        want, got = out.ingest
        if len(got) != len(want) or set(got) != want:
            problems.append(f"q={q}: ingested plane differs from the relabelled generated one")
    return problems


class PlaneWords:
    """Generated planes, Baer subplanes, dual words, the analyzer, the word
    and plane text formats, and re-ingestion of a relabelled plane file."""

    name = "plane-words"

    def __init__(self, sizes=(25, 49), ingest_q=49, extract_q=49, line_words=50, extractions=10):
        self.sizes, self.ingest_q, self.extract_q = sizes, ingest_q, extract_q
        self.line_words, self.extractions = line_words, extractions

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        inputs = {}
        for q in self.sizes:
            n = q * q + q + 1
            pairs = [tuple(int(x) for x in rng.choice(n, 2, replace=False))
                     for _ in range(self.line_words)]
            picks = []
            if q == self.extract_q:
                m = round(q**0.5)
                picks = [int(i) for i in rng.choice(m * m + m + 1, self.extractions, replace=False)]
            relabel = (rng.permutation(n), rng.permutation(n)) if q == self.ingest_q else None
            inputs[q] = (pairs, picks, relabel)
        return inputs

    def cases(self, inputs) -> list[Case]:
        out = []
        for q in self.sizes:
            pairs, picks, relabel = inputs[q]
            m = round(q**0.5)
            ops = (m * m + m + 1) + len(pairs) + len(picks) + (relabel is not None)
            out.append(Case(f"q{q}", ops, lambda q=q, a=inputs[q]: run_plane_words(q, *a),
                            check_plane_words))
        return out


# -- suite -----------------------------------------------------------------------

SUITE_ROWS = 11


def run_suite(seed: int, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"suite-{os.getpid()}.json"
    try:
        code = cli.main(["suite", "acceptance", "--seed", str(seed), "--out", str(path)])
        return code, path.read_text()
    finally:
        path.unlink(missing_ok=True)


def check_suite(out) -> list[str]:
    code, text = out
    try:
        rows = json.loads(text)["outcome"]["rows"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"run record does not parse: {e}"] * SUITE_ROWS
    problems = [f"criterion {r.get('number')} failed: {r.get('detail')}"
                for r in rows if not r.get("passed")]
    if len(rows) != SUITE_ROWS:
        problems.append(f"{len(rows)} rows, want {SUITE_ROWS}")
    if code != 0 and not problems:
        problems.append(f"exit code {code}")
    return problems


class Suite:
    """`planecode suite acceptance --seed S` through cli.main, in-process."""

    name = "suite"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self, seed: int):
        return seed

    def cases(self, seed) -> list[Case]:
        return [Case("acceptance", SUITE_ROWS, lambda: run_suite(seed, self.out_dir), check_suite)]


def workloads(out_dir: Path) -> dict:
    return {w.name: w for w in (CodeDual(), PlaneWords(), Suite(out_dir))}
