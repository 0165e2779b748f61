"""Command-line entry point.

Subcommands: plane | code | construct | analyze | antipodal | embed | suite.
Every invocation writes one JSON run record to stdout (or --out) and a
short human summary to stderr.  Usage errors exit 2, domain errors exit 1
with a structured error in the record, success exits 0.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import acceptance, formats
from .analyze import analyze as analyze_word
from .antipodal import (
    antipodal_from_pg24,
    cyclic_antipodal,
    validate_antipodal,
)
from .codes import DEFAULT_ENUM_BUDGET, code_of_plane, dual_basis, enumerate_min_weight
from .construct import antipodal_diff, baer_diff, line_diff, subplane_diff
from .field import field_new, parse_field_spec
from .geometry import (
    SubplaneResult,
    baer_subfield_subplane,
    pg2,
    subplane_result_from_points,
)
from .search import DEFAULT_BUDGET, embed_search


class CliError(ValueError):
    pass


def _parse_field_args(args):
    p, h = parse_field_spec(args.field)
    return field_new(p, h, _int_list(args.modulus, "--modulus") if args.modulus else None)


def _load_plane(args):
    if args.plane and args.modulus:
        raise CliError("--modulus applies to --field, not to a --plane file")
    return formats.read_plane(args.plane) if args.plane else pg2(_parse_field_args(args))


def _load_pls(spec: str):
    if spec == "builtin:mk":
        return cyclic_antipodal(2)
    if spec == "builtin:ap3":
        return cyclic_antipodal(3)
    return formats.read_pls(spec)


def _int_list(text: str, option: str) -> list[int]:
    out = []
    for x in text.replace(",", " ").split():
        try:
            out.append(int(x))
        except ValueError:
            raise CliError(f"{option}: {x!r} is not an integer") from None
    return out


def _subplane_from_arg(plane, text: str, option: str) -> SubplaneResult:
    pts = _int_list(text, option)
    m = 1
    while m * m + m + 1 < len(pts):
        m += 1
    sub = subplane_result_from_points(plane, frozenset(pts), m)
    if sub is None:
        raise CliError(f"point set of size {len(pts)} is not a subplane")
    return sub


def _word_record(args, w, extra: dict) -> dict:
    if args.word_out:
        formats.write_word(w, args.word_out)
    return {"word": formats.word_to_json(w), "weight": w.weight, **extra}


# -- subcommand handlers ---------------------------------------------------------


def cmd_plane(args) -> dict:
    if args.action == "build":
        field = _parse_field_args(args)
        plane = pg2(field)
        if args.plane_out:
            formats.write_plane(plane, args.plane_out)
        return {
            "field": field.describe(),
            "modulus": list(field.modulus),
            "order": plane.order,
            "points": plane.npoints,
            "written": args.plane_out,
        }
    plane = formats.read_plane(args.file)  # action == "validate"
    return {"order": plane.order, "points": plane.npoints, "valid": True}


def cmd_code(args) -> dict:
    plane = _load_plane(args)
    code = code_of_plane(plane, args.p)
    if args.action == "dim":
        return {"dimension": code.dimension, "length": code.length}
    target = dual_basis(code) if args.dual else code  # action == "min-weight"
    res = enumerate_min_weight(target, budget=args.budget)
    return {
        "dual": bool(args.dual),
        "dimension": target.dimension,
        "min_weight": res.min_weight,
        "words_at_minimum": len(res.words),
        "words_checked": res.words_checked,
    }


def cmd_construct(args) -> dict:
    plane = _load_plane(args)
    if args.recipe == "line-diff":
        lines = _int_list(args.lines, "--lines") if args.lines else [0, 1]
        if len(lines) != 2:
            raise CliError(f"--lines needs two line indices, got {len(lines)}")
        l1, l2 = lines
        w = line_diff(plane, l1, l2)
        return _word_record(args, w, {"recipe": "line-diff", "lines": [l1, l2], "dual": True})
    if args.recipe == "baer-diff":
        sub = baer_subfield_subplane(plane)
        secant = args.secant if args.secant is not None else sub.lines[0]
        w = baer_diff(plane, sub, secant=secant)
        return _word_record(
            args, w,
            {"recipe": "baer-diff", "subplane_order": sub.order, "secant": secant, "dual": True},
        )
    if args.recipe == "subplane-diff":
        s1 = _subplane_from_arg(plane, args.points1, "--points1")
        s2 = _subplane_from_arg(plane, args.points2, "--points2")
        w, dual = subplane_diff(plane, s1, s2)
        return _word_record(args, w, {"recipe": "subplane-diff", "dual": dual})
    pls = _load_pls(args.pls)  # recipe == "antipodal-diff"
    first, second = (formats.read_embedding(path) for path in (args.emb1, args.emb2))
    w, dual = antipodal_diff(plane, (pls, first), (pls, second))
    return _word_record(args, w, {"recipe": "antipodal-diff", "dual": dual})


def cmd_analyze(args) -> dict:
    plane = _load_plane(args)
    w = formats.read_word(args.word)
    a = analyze_word(w, plane, override_non_dual=args.override_non_dual)
    return a.to_report()


def cmd_antipodal(args) -> dict:
    if args.action == "build":
        pls = antipodal_from_pg24() if args.from_pg24 else cyclic_antipodal(args.order)
        if args.pls_out:
            formats.write_pls(pls, args.pls_out)
        ap = validate_antipodal(pls)
        return {
            "points": pls.n_points,
            "lines": len(pls.lines),
            "order": ap.order,
            "written": args.pls_out,
        }
    pls = formats.read_pls(args.file)  # action == "validate"
    ap = validate_antipodal(pls)
    return {
        "points": pls.n_points,
        "lines": len(pls.lines),
        "order": ap.order,
        "perp_point": list(ap.perp_point),
        "perp_line": list(ap.perp_line),
    }


def cmd_embed(args) -> dict:
    pls = _load_pls(args.pls)
    plane = _load_plane(args)
    exclude = frozenset(_int_list(args.exclude, "--exclude")) if args.exclude else frozenset()
    out = embed_search(pls, plane, cap=args.cap, budget=args.budget, exclude=exclude)
    record = {
        "status": out.status,
        "embeddings_found": len(out.embeddings),
        "nodes": out.stats.nodes,
        "prunes": out.stats.prunes,
        "seconds": round(out.stats.seconds, 3),
    }
    if out.embeddings:
        record["first_embedding"] = formats.embedding_to_json(out.embeddings[0])
        if args.emb_out:
            formats.write_embedding(out.embeddings[0], args.emb_out)
    return record


def cmd_suite(args) -> dict:
    results = acceptance.run_all(seed=args.seed)
    for r in results:
        print(r.line(), file=sys.stderr)
    return {
        "suite": "acceptance",
        "passed": all(r.passed for r in results),
        "rows": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 2),
            }
            for r in results
        ],
    }


# -- parser ------------------------------------------------------------------------


def _add_plane_source(x, field_only: bool = False):
    """--field, or with field_only unset exactly one of --field and --plane."""
    source = x if field_only else x.add_mutually_exclusive_group(required=True)
    if not field_only:
        source.add_argument("--plane", help="plane file")
    source.add_argument("--field", help='field as "p^h", e.g. 3^2', required=field_only)
    x.add_argument("--modulus", help="optional modulus coefficients, low degree first")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planecode",
        description="Projective plane codes, antipodal planes, and embeddability search",
    )
    ap.add_argument("--out", help="write the JSON run record here instead of stdout")
    # --out is accepted after the subcommand too; SUPPRESS keeps the leaf
    # parser from clobbering the top-level default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plane", help="build or validate planes")
    pa = p.add_subparsers(dest="action", required=True)
    b = pa.add_parser("build", parents=[common])
    _add_plane_source(b, field_only=True)
    b.add_argument("--plane-out", dest="plane_out", help="write the plane file here")
    v = pa.add_parser("validate", parents=[common])
    v.add_argument("--file", required=True)

    c = sub.add_parser("code", help="plane code dimensions and minimum weights")
    ca = c.add_subparsers(dest="action", required=True)
    for name in ("dim", "min-weight"):
        x = ca.add_parser(name, parents=[common])
        _add_plane_source(x)
        x.add_argument("--p", type=int, required=True)
        if name == "min-weight":
            x.add_argument("--dual", action="store_true")
            x.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)

    k = sub.add_parser("construct", help="build dual code words from geometry")
    ka = k.add_subparsers(dest="recipe", required=True)
    for name in ("line-diff", "baer-diff", "subplane-diff", "antipodal-diff"):
        x = ka.add_parser(name, parents=[common])
        _add_plane_source(x)
        x.add_argument("--word-out", dest="word_out", help="write the word file here")
        if name == "line-diff":
            x.add_argument("--lines", help='two line indices, e.g. "0,1"')
        if name == "baer-diff":
            x.add_argument("--secant", type=int)
        if name == "subplane-diff":
            x.add_argument("--points1", required=True)
            x.add_argument("--points2", required=True)
        if name == "antipodal-diff":
            x.add_argument("--pls", required=True)
            x.add_argument("--emb1", required=True)
            x.add_argument("--emb2", required=True)

    a = sub.add_parser("analyze", parents=[common], help="diagnostic report for a dual word")
    a.add_argument("--word", required=True)
    _add_plane_source(a)
    a.add_argument("--override-non-dual", action="store_true")

    t = sub.add_parser("antipodal", help="build or validate antipodal planes")
    ta = t.add_subparsers(dest="action", required=True)
    b = ta.add_parser("build", parents=[common])
    source = b.add_mutually_exclusive_group(required=True)
    source.add_argument("--order", type=int, choices=(2, 3))
    source.add_argument("--from-pg24", action="store_true")
    b.add_argument("--pls-out", dest="pls_out")
    v = ta.add_parser("validate", parents=[common])
    v.add_argument("--file", required=True)

    e = sub.add_parser("embed", parents=[common], help="embeddability search")
    e.add_argument("--pls", required=True, help="pls file, builtin:mk, or builtin:ap3")
    _add_plane_source(e)
    e.add_argument("--cap", type=int, default=1)
    e.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    e.add_argument("--exclude", help="plane point indices barred as images")
    e.add_argument("--emb-out", dest="emb_out", help="write the first embedding as JSON")

    s = sub.add_parser("suite", help="reproducibility suites")
    sa = s.add_subparsers(dest="action", required=True)
    acc = sa.add_parser("acceptance", parents=[common])
    acc.add_argument("--seed", type=int, default=0)
    return ap


HANDLERS = {
    "plane": cmd_plane,
    "code": cmd_code,
    "construct": cmd_construct,
    "analyze": cmd_analyze,
    "antipodal": cmd_antipodal,
    "embed": cmd_embed,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k != "out" and v is not None}
    inputs = {
        k: getattr(args, k)
        for k in ("plane", "file", "word", "pls", "emb1", "emb2")
        if getattr(args, k, None)
    }
    t0 = time.perf_counter()
    try:
        outcome = HANDLERS[args.command](args)
        code = 1 if outcome.get("passed") is False else 0
    except Exception as e:  # domain errors: structured record, exit 1
        outcome = {"error": type(e).__name__, "message": str(e)}
        code = 1
    record = formats.run_record(
        command=" ".join(argv if argv is not None else sys.argv[1:]),
        config=config,
        inputs=inputs,
        outcome=outcome,
    )
    record["wall_seconds"] = round(time.perf_counter() - t0, 3)
    text = formats.dump_record(record, args.out)
    if not args.out:
        print(text)
    summary = outcome.get("error") or {
        "plane": "plane ready",
        "code": "code computed",
        "construct": f"word of weight {outcome.get('weight')}" if code == 0 else "failed",
        "analyze": f"classification {outcome.get('classification')}" if code == 0 else "failed",
        "antipodal": "antipodal structure ok" if code == 0 else "failed",
        "embed": outcome.get("status", "failed"),
        "suite": "all rows passed" if code == 0 else "suite failed",
    }.get(args.command, "done")
    print(f"planecode {args.command}: {summary}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
