import json
import random
import time
import types

import numpy as np
import pytest

from planecode import cli, formats
from planecode import field as field_module
from planecode.antipodal import cyclic_antipodal
from planecode.cli import main
from planecode.construct import baer_diff
from planecode.field import field_new
from planecode.geometry import AxiomViolationError, baer_subfield_subplane, pg2
from planecode.search import Embedding


@pytest.fixture(scope="module")
def pg9():
    return pg2(field_new(3, 2))


@pytest.fixture(scope="module")
def pg4():
    return pg2(field_new(2, 2))


def test_plane_roundtrip(tmp_path, pg9):
    path = tmp_path / "pg9.plane"
    formats.write_plane(pg9, path)
    back = formats.read_plane(path)
    assert back.lines == pg9.lines
    assert back.order == pg9.order
    # byte-exact re-export
    assert formats.plane_to_text(back) == formats.plane_to_text(pg9)


def test_plane_header(tmp_path, pg9):
    text = formats.plane_to_text(pg9)
    assert text.splitlines()[0] == "plane n=9 points=91 lines=91"


def test_corrupt_plane_fails_validation(tmp_path, pg9):
    text = formats.plane_to_text(pg9)
    lines = text.splitlines()
    lines[3] = lines[2]  # duplicate a geometric line
    with pytest.raises(AxiomViolationError):
        formats.plane_from_text("\n".join(lines))


FANO = "0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n"
PLANE, PLS = formats.plane_from_text, formats.pls_from_text


@pytest.mark.parametrize(
    "parse,text,match",
    [
        (PLANE, "", r"^line 1: expected 'plane n=.*empty"),
        (PLS, "\n  \n", r"^line 1: expected 'pls points=.*empty"),
        (PLANE, "pls points=7 lines=7\n" + FANO, r"^line 1: expected 'plane"),
        (PLANE, "\nplane n=2 points=7 lines\n" + FANO, r"^line 2: expected"),
        (PLANE, "plane n=two points=7 lines=7\n" + FANO, r"^line 1: expected"),
        (PLANE, "plane n=2 points=7\n" + FANO, r"^line 1: expected"),
        (PLS, "pls lines=1\n0 1\n", r"^line 1: expected 'pls points="),
        (PLS, "pls points=3 lines=-1\n", r"^line 1: expected"),
        (PLANE, "plane n=2 points=7 lines=7\n0 1 2\n\n0 3 x\n", r"^line 4: non-integer"),
        (PLS, "pls points=3 lines=1\n0 1.5\n", r"^line 2: non-integer"),
        (PLANE, "plane n=2 points=7 lines=6\n" + FANO, r"^line 1: header says lines=6, file has 7"),
        (PLS, "\npls points=3 lines=2\n0 1\n", r"^line 2: header says lines=2, file has 1"),
        (PLANE, "plane n=2 points=8 lines=7\n" + FANO, r"^line 1: points=8"),
        (PLANE, "plane n=2 points=7 lines=7\n" + FANO.replace("0 3 4", "0 3 99999999999999999999999"),
         r"^line 3: point index outside 0\.\.6"),
        (PLANE, "plane n=2 points=7 lines=7\n" + FANO.replace("2 4 5", "2 4 7"),
         r"^line 8: point index outside 0\.\.6"),
        (PLS, "pls points=3 lines=1\n\n-1 1\n", r"^line 3: point index outside 0\.\.2"),
        (PLANE, "plane n=2 points=7 lines=7\n" + FANO.replace("0 1 2", "0 0 1"),
         r"^line 2: repeated point in '0 0 1'"),
        (PLS, "pls points=3 lines=2\n0 1\n\n2 1 2\n", r"^line 4: repeated point in '2 1 2'"),
        (PLANE, "plane n=2 points=7 lines=7\n" + FANO.replace("0 3 4", "0 3"),
         r"^line 3: row '0 3' of size 2, expected 3 points$"),
        (PLANE, "plane n=2 points=7 lines=7\n" + FANO.replace("1 3 5", "1 3 5 6"),
         r"^line 5: row '1 3 5 6' of size 4, expected 3 points$"),
        (PLS, "pls points=3 lines=1\n\n0\n", r"^line 3: row '0' of size 1, expected at least 2 points$"),
        (PLS, "pls points=4 lines=2\n0 1 2\n\n1 2 3\n",
         r"^line 4: points \(1, 2\) already lie on the row on line 2$"),
    ],
)
def test_plane_and_pls_text_reject_malformed_files(parse, text, match):
    with pytest.raises(formats.FormatError, match=match):
        parse(text)


def test_row_lengths_match_str_split_on_blanks_and_tabs():
    # the byte pass counts what str.split() counts on each row
    rng = random.Random(5)
    blanks = [" ", "  ", "\t", " \t ", "\t\t", "   "]
    rows = []
    for _ in range(300):
        points = rng.sample(range(1000), rng.randrange(2, 12))
        row = "".join(rng.choice(blanks) + str(x) for x in points) + rng.choice(["", *blanks])
        rows.append(row if rng.random() < 0.5 else row.lstrip())
    rows += ["0 1", "\t2\t3\t", "  4    5  ", "6\t \t7"]
    text = f"pls points=1000 lines={len(rows)}\n" + "\n".join(rows) + "\n"
    _, _, vals, counts = formats._incidence_rows(text, "pls points=<N> lines=<M>")
    assert counts.tolist() == [len(row.split()) for row in rows]
    assert vals.tolist() == [int(x) for row in rows for x in row.split()]
    assert formats._row_lengths("\n").tolist() == []


def reference_incidence_rows(text, usage):
    """The per-line parser of plane and pls bodies: every row through int()
    and its checks in file order."""
    line, fields, body = formats._parse_header(text, usage)
    npoints = fields["points"]
    size = fields["n"] + 1 if "n" in fields else None
    rows = []
    for n, entry in body:
        try:
            row = list(map(int, entry.split()))
        except ValueError:
            raise formats.FormatError(f"line {n}: non-integer entry in {entry.strip()!r}") from None
        if min(row) < 0 or max(row) >= npoints:
            raise formats.FormatError(
                f"line {n}: point index outside 0..{npoints - 1} in {entry.strip()!r}"
            )
        if len(set(row)) != len(row):
            raise formats.FormatError(f"line {n}: repeated point in {entry.strip()!r}")
        if len(row) != size if size else len(row) < 2:
            raise formats.FormatError(
                f"line {n}: row {entry.strip()!r} of size {len(row)}, "
                f"expected {size or 'at least 2'} points"
            )
        rows.append(row)
    if len(rows) != fields["lines"]:
        raise formats.FormatError(
            f"line {line}: header says lines={fields['lines']}, file has {len(rows)} rows"
        )
    return rows


def _parsed_rows(parse, text, usage):
    """The rows parse reads from text, or the message of its FormatError."""
    try:
        got = parse(text, usage)
    except formats.FormatError as e:
        return str(e)
    if isinstance(got, list):
        return got
    _, _, vals, counts = got
    ends = np.cumsum(counts).tolist()
    return [vals[e - c : e].tolist() for e, c in zip(ends, counts.tolist())]


def _non_integer(rows, rng):
    row = rows[rng.randrange(len(rows))]
    row[rng.randrange(len(row))] = rng.choice(
        ["x", "1.5", "-", "+", "- 3", "3-", "0x1", "1e2", "٣", "1_0", "+3", "007", "\x1f4"]
    )


def _index_out_of_range(rows, rng):
    row = rows[rng.randrange(len(rows))]
    row[rng.randrange(len(row))] = rng.choice([-1, "-0", len(rows), len(rows) + 9])


def _repeated_point(rows, rng):
    row = rows[rng.randrange(len(rows))]
    a, b = rng.sample(range(len(row)), 2)
    row[a] = row[b]


def _short_row(rows, rng):
    row = rows[rng.randrange(len(rows))]
    del row[rng.randrange(len(row)) :]  # down to no point: a blank line drops the row


def _long_row(rows, rng):
    rows[rng.randrange(len(rows))].append(rng.randrange(len(rows)))


def _missing_row(rows, rng):
    del rows[rng.randrange(len(rows))]


def _overflowing_integer(rows, rng):
    row = rows[rng.randrange(len(rows))]
    row[rng.randrange(len(row))] = rng.choice(
        [2**63, 2**63 - 1, -(2**63) - 1, 10**25, -(10**25), "9" * 5000]
    )


MUTATIONS = [
    _non_integer, _index_out_of_range, _repeated_point, _short_row, _long_row,
    _missing_row, _overflowing_integer,
]


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("q", [2, 3, 4])
def test_array_parser_matches_the_per_line_parser(q, mutate):
    # the first faulty row is found from the arrays and named by the same
    # message as the per-line parser, whatever else is wrong further on
    plane = pg2(field_new(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]))
    faults = []
    for seed in range(12):
        rng = random.Random(seed)
        perm = list(range(plane.npoints))
        rng.shuffle(perm)
        rows = [[perm[x] for x in plane.lines[i]] for i in perm]
        mutate(rows, rng)
        for _ in range(seed % 3):  # later seeds add other faults, to test their order
            rng.choice(MUTATIONS)(rows, rng)
        body = "\n".join(rng.choice([" ", "  ", "\t"]).join(map(str, r)) for r in rows)
        head = f"n={q} points={plane.npoints} lines={plane.npoints}"
        for usage, text in (
            ("plane n=<n> points=<N> lines=<N>", f"plane {head}\n{body}\n"),
            ("pls points=<N> lines=<M>", f"pls {head.split(' ', 1)[1]}\n\n{body}"),
        ):
            want = _parsed_rows(reference_incidence_rows, text, usage)
            assert _parsed_rows(formats._incidence_rows, text, usage) == want
            faults.append(isinstance(want, str))
    assert sum(faults) >= len(faults) // 2


def test_pls_rows_read_integers_as_int_does():
    # a sign, leading zeros, an underscore or a non-ASCII digit is no fault
    pls = formats.pls_from_text("pls points=11 lines=1\n+3 007 1_0 \u0664\n")
    assert pls.lines == ((3, 4, 7, 10),)
    assert all(type(x) is int for x in pls.lines[0])


def test_pls_roundtrip(tmp_path):
    pls = cyclic_antipodal(3)
    path = tmp_path / "ap3.pls"
    formats.write_pls(pls, path)
    back = formats.read_pls(path)
    assert back == pls
    assert formats.pls_to_text(back).splitlines()[0] == "pls points=14 lines=14"


def test_word_roundtrip(tmp_path, pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    path = tmp_path / "w.word"
    formats.write_word(w, path)
    back = formats.read_word(path)
    assert back == w
    mirror = formats.word_to_json(w)  # the JSON form that run records carry
    assert (mirror["p"], mirror["len"]) == (3, 91)
    assert [f"{i}:{v}" for i, v in mirror["support"].items()] == formats.word_to_text(w).split()[3:]


def test_word_header(pg9):
    w = baer_diff(pg9, baer_subfield_subplane(pg9))
    head = formats.word_to_text(w).splitlines()[0]
    assert head == "word p=3 len=91"


@pytest.mark.parametrize(
    "body,line,why",
    [
        ("0:1\n-1:2", 3, "position outside 0..12"),
        ("0:1\n13:2", 3, "position outside 0..12"),
        ("0:1\n\n4:0", 4, "value outside 1..2"),
        ("1:5", 2, "value outside 1..2"),
        ("2:-1", 2, "value outside 1..2"),
        ("3:1\n0:2\n3:2", 4, "duplicate position"),
        ("0:1\n1", 3, "malformed entry"),
        ("0:1:2", 2, "malformed entry"),
        ("x:1", 2, "malformed entry"),
        ("1:99999999999999999999", 2, "number out of range"),
    ],
)
def test_word_text_rejects_bad_entries(body, line, why):
    with pytest.raises(formats.FormatError, match=rf"^line {line} .*: {why}"):
        formats.word_from_text("word p=3 len=13\n" + body + "\n")


@pytest.mark.parametrize(
    "text",
    ["", "word p=3\n0:1\n", "\nword p=x len=4\n", "word p=3 len\n", "word p=3 len=-1\n",
     "plane p=3 len=4\n", "word p=1 len=4\n"],
)
def test_word_text_rejects_bad_header(text):
    with pytest.raises(formats.FormatError, match=r"^line [12]: expected 'word p="):
        formats.word_from_text(text)


@pytest.mark.parametrize(
    "text,bound",
    [
        ("word p=4 len=4\n0:1\n", "p a prime up to 4096"),
        (f"\nword p={10**24} len=4\n0:1\n", "p a prime up to 4096"),
        ("word p=4099 len=4\n0:1\n", "p a prime up to 4096"),
        ("word p=3 len=16781314\n0:1\n", "L up to 16781313, the points of the largest plane"),
        (f"word p=3 len={10**20}\n0:1\n", "L up to 16781313, "),
    ],
)
def test_word_text_bounds_its_header(text, bound):
    # refused on the header line, before a word of len entries is allocated
    line = 2 if text.startswith("\n") else 1
    want = rf"^line {line}: expected 'word p=<p> len=<L>' with {bound}"
    with pytest.raises(formats.FormatError, match=want):
        formats.word_from_text(text)


def test_word_text_takes_the_largest_prime():
    assert formats.word_from_text("word p=4093 len=7\n6:4092\n").values.tolist() == [0] * 6 + [4092]


def test_pls_text_bounds_its_points():
    # a plane of order 49 has 2451 points; PartialLinearSpace keeps a list per point
    want = r"^line 1: points=2452 exceeds 2451, the points of a plane of order 49$"
    with pytest.raises(formats.FormatError, match=want):
        formats.pls_from_text("pls points=2452 lines=1\n0 1\n")
    assert formats.pls_from_text("pls points=2451 lines=1\n0 2450\n").lines == ((0, 2450),)


def test_word_text_accepts_unsorted_support():
    w = formats.word_from_text("word p=3 len=13\n5:2\n0:1\n")
    assert w.values.tolist() == [1, 0, 0, 0, 0, 2] + [0] * 7


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_cli_plane_build_and_code_dim(tmp_path, capsys):
    plane_file = tmp_path / "pg9.plane"
    code, record = run_cli(
        capsys, "plane", "build", "--field", "3^2", "--plane-out", str(plane_file)
    )
    assert code == 0
    assert record["outcome"]["points"] == 91
    code, record = run_cli(
        capsys, "code", "dim", "--plane", str(plane_file), "--p", "3"
    )
    assert code == 0
    assert record["outcome"]["dimension"] == 37
    assert str(plane_file) in record["input_hashes"] or "plane" in record["input_hashes"]


def test_cli_construct_and_analyze(tmp_path, capsys):
    word_file = tmp_path / "baer.word"
    code, record = run_cli(
        capsys, "construct", "baer-diff", "--field", "3^2",
        "--word-out", str(word_file),
    )
    assert code == 0
    assert record["outcome"]["weight"] == 15
    assert record["outcome"]["dual"] is True
    code, record = run_cli(
        capsys, "analyze", "--word", str(word_file), "--field", "3^2"
    )
    assert code == 0
    assert record["outcome"]["classification"] == "baer"
    assert record["outcome"]["epsilon"] == 1


def test_cli_antipodal_build_validate(tmp_path, capsys):
    pls_file = tmp_path / "ap3.pls"
    code, record = run_cli(
        capsys, "antipodal", "build", "--order", "3", "--pls-out", str(pls_file)
    )
    assert code == 0 and record["outcome"]["order"] == 3
    code, record = run_cli(capsys, "antipodal", "validate", "--file", str(pls_file))
    assert code == 0
    assert len(record["outcome"]["perp_point"]) == 14


@pytest.mark.parametrize("argv", [[], ["--order", "2", "--from-pg24"]])
def test_cli_antipodal_build_needs_exactly_one_source(argv):
    with pytest.raises(SystemExit) as e:
        main(["antipodal", "build", *argv])
    assert e.value.code == 2


@pytest.mark.parametrize("spec", ["mk.pls", "./mk.pls"])
def test_cli_embed_hashes_a_relative_pls_path(tmp_path, monkeypatch, capsys, spec):
    monkeypatch.chdir(tmp_path)
    formats.write_pls(cyclic_antipodal(2), "mk.pls")
    code, record = run_cli(capsys, "embed", "--pls", spec, "--field", "3")
    assert code == 0
    assert record["input_hashes"] == {"pls": formats.file_sha256("mk.pls")}


def test_cli_embed_builtin(tmp_path, capsys):
    code, record = run_cli(
        capsys, "embed", "--pls", "builtin:mk", "--field", "7"
    )
    assert code == 0
    assert record["outcome"]["status"] == "found"
    assert record["input_hashes"] == {}
    code, record = run_cli(
        capsys, "embed", "--pls", "builtin:mk", "--field", "5"
    )
    assert code == 0
    assert record["outcome"]["status"] == "exhausted-none"


def test_cli_embed_budget_failure_is_visible(capsys):
    code, record = run_cli(
        capsys, "embed", "--pls", "builtin:mk", "--field", "5", "--budget", "5"
    )
    assert record["outcome"]["status"] == "budget-exceeded"


def test_cli_domain_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.plane"
    bad.write_text("plane n=2 points=7 lines=7\n0 1 2\n0 1 2\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n")
    code, record = run_cli(capsys, "plane", "validate", "--file", str(bad))
    assert code == 1
    assert record["outcome"]["error"] == "AxiomViolationError"


BIG_PRIME = 2**61 - 1  # trial division of it alone would take about a minute


def test_cli_code_dim_refuses_a_huge_p_at_once(capsys):
    t0 = time.perf_counter()
    code, record = run_cli(capsys, "code", "dim", "--field", "2^2", "--p", str(BIG_PRIME))
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert record["outcome"]["error"] == "PrimeMismatchError"
    assert f"p = {BIG_PRIME} is not the characteristic 2 " in record["outcome"]["message"]


def test_cli_analyze_refuses_a_word_over_a_huge_prime_at_once(tmp_path, capsys):
    # a word file's header admits only the primes a Field takes
    word = tmp_path / "big.word"
    word.write_text(f"word p={BIG_PRIME} len=21\n0:1\n5:{BIG_PRIME - 1}\n")
    t0 = time.perf_counter()
    code, record = run_cli(capsys, "analyze", "--field", "2^2", "--word", str(word))
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert record["outcome"]["error"] == "FormatError"
    want = "line 1: expected 'word p=<p> len=<L>' with p a prime up to 4096"
    assert record["outcome"]["message"] == want


def test_cli_analyze_refuses_a_word_over_another_prime(tmp_path, capsys):
    word = tmp_path / "w3.word"
    word.write_text("word p=3 len=21\n0:1\n5:2\n")
    code, record = run_cli(capsys, "analyze", "--field", "2^2", "--word", str(word))
    assert code == 1
    assert record["outcome"]["error"] == "AnalyzeError"
    assert "word prime 3 is not the characteristic 2 " in record["outcome"]["message"]


@pytest.mark.parametrize(
    "args",
    [
        ["line-diff", "--field", "3", "--lines=-1,0"],
        ["line-diff", "--field", "3", "--lines=0,99"],
        ["baer-diff", "--field", "3^2", "--secant", "999"],
        ["baer-diff", "--field", "3^2", "--secant=-1"],
    ],
)
def test_cli_line_index_out_of_range(capsys, args):
    code, record = run_cli(capsys, "construct", *args)
    assert code == 1
    assert record["outcome"]["error"] == "LineIndexError"


@pytest.mark.parametrize("lines", ["--lines=0", "--lines=0,1,2"])
def test_cli_line_diff_needs_two_lines(capsys, lines):
    code, record = run_cli(capsys, "construct", "line-diff", "--field", "3", lines)
    assert code == 1
    assert record["outcome"]["error"] == "CliError"
    assert "--lines" in record["outcome"]["message"]


@pytest.mark.parametrize(
    "argv,option,entry",
    [
        (["embed", "--pls", "builtin:mk", "--field", "3", "--exclude", "1,a"], "--exclude", "a"),
        (["construct", "subplane-diff", "--field", "2^2", "--points1", "1,x", "--points2", "1"],
         "--points1", "x"),
        (["construct", "subplane-diff", "--field", "2^2", "--points1", "0,1,2,5,6,9,10",
          "--points2", "2;3"], "--points2", "2;3"),
        (["construct", "line-diff", "--field", "3", "--lines", "0,1.5"], "--lines", "1.5"),
        (["plane", "build", "--field", "2^2", "--modulus", "1,1,z"], "--modulus", "z"),
    ],
)
def test_cli_integer_lists_name_the_option_and_the_bad_entry(capsys, argv, option, entry):
    code, record = run_cli(capsys, *argv)
    assert code == 1
    assert record["outcome"]["error"] == "CliError"
    assert record["outcome"]["message"] == f"{option}: {entry!r} is not an integer"


@pytest.mark.parametrize("args", [["--cap", "0"], ["--cap", "-5"], ["--exclude", "99999"]])
def test_cli_embed_refuses_a_bad_cap_or_exclusion(capsys, args):
    code, record = run_cli(capsys, "embed", "--pls", "builtin:mk", "--field", "3", *args)
    assert code == 1
    assert record["outcome"]["error"] == "SearchError"


@pytest.mark.parametrize("spec", ["x", "3^", "3^2^2"])
def test_cli_names_a_malformed_field(capsys, spec):
    code, record = run_cli(capsys, "embed", "--pls", "builtin:mk", "--field", spec)
    assert code == 1
    assert record["outcome"]["error"] == "FieldError"
    assert record["outcome"]["message"] == f"field {spec!r} is not of the form p or p^h"


def test_cli_subplane_with_a_negative_index_alias(capsys, pg4):
    pts = list(baer_subfield_subplane(pg4).points)
    alias = pts[:3] + [pts[3] - pg4.npoints] + pts[4:]  # numpy would read it as pts[3]
    code, record = run_cli(
        capsys, "construct", "subplane-diff", "--field", "2^2",
        "--points1=" + ",".join(map(str, alias)), "--points2=" + ",".join(map(str, pts)),
    )
    assert code == 1
    assert record["outcome"]["error"] == "CliError"


def test_cli_subplane_diff_refuses_a_triangle(capsys):
    # three points are no subplane: a plane has order at least 2
    code, record = run_cli(
        capsys, "construct", "subplane-diff", "--field", "3",
        "--points1", "0 1 5", "--points2", "2 6 9",
    )
    assert code == 1
    assert record["outcome"]["error"] == "CliError"
    assert record["outcome"]["message"] == "point set of size 3 is not a subplane"


def test_cli_builds_a_field_with_a_modulus_once(capsys, monkeypatch):
    # x^12 + x^6 + x^4 + x + 1; the plane itself (16.8 million points) is stubbed
    modulus = [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1]
    built = []
    init = field_module.Field.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(field_module.Field, "__init__", counting)
    monkeypatch.setattr(
        cli, "pg2", lambda f: types.SimpleNamespace(order=f.q, npoints=f.q * f.q + f.q + 1)
    )
    code, record = run_cli(
        capsys, "plane", "build", "--field", "2^12", "--modulus", ",".join(map(str, modulus))
    )
    assert code == 0
    assert built == [(2, 12, modulus)]
    assert record["outcome"]["modulus"] == modulus
    assert record["outcome"]["order"] == 4096


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["code", "dim"])  # missing --p
    assert e.value.code == 2


@pytest.mark.parametrize("before", [True, False])
def test_cli_threads_flag_is_gone(before):
    argv = ["code", "dim", "--field", "2", "--p", "2"]
    argv = ["--threads", "2"] + argv if before else argv + ["--threads", "2"]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


def test_cli_raw_flag_is_gone():
    # every recipe scales its word so that the lowest-index symbol is 1
    with pytest.raises(SystemExit) as e:
        main(["construct", "line-diff", "--field", "3", "--raw"])
    assert e.value.code == 2


def test_cli_no_normalize_flag_is_gone():
    # frame pinning follows from the target; a plane file gets the plain search
    with pytest.raises(SystemExit) as e:
        main(["embed", "--pls", "builtin:mk", "--field", "3", "--no-normalize"])
    assert e.value.code == 2


@pytest.mark.parametrize("source", [[], ["--field", "2", "--plane", "pg9.plane"]])
def test_cli_needs_exactly_one_plane_source(source):
    with pytest.raises(SystemExit) as e:
        main(["code", "dim", "--p", "2", *source])
    assert e.value.code == 2


def test_cli_modulus_with_a_plane_file_is_refused(tmp_path, capsys):
    path = tmp_path / "pg3.plane"
    formats.write_plane(pg2(field_new(3)), path)
    argv = ["code", "dim", "--p", "3", "--plane", str(path)]
    code, record = run_cli(capsys, *argv, "--modulus", "1,1,1")
    assert code == 1
    assert record["outcome"]["error"] == "CliError"
    assert "--modulus" in record["outcome"]["message"]
    code, record = run_cli(capsys, *argv)
    assert code == 0
    assert record["outcome"] == {"dimension": 7, "length": 13}


def test_cli_record_determinism(tmp_path, capsys):
    _, r1 = run_cli(capsys, "code", "dim", "--field", "2^2", "--p", "2")
    _, r2 = run_cli(capsys, "code", "dim", "--field", "2^2", "--p", "2")
    r1.pop("timestamp"), r2.pop("timestamp")
    r1.pop("wall_seconds"), r2.pop("wall_seconds")
    assert r1 == r2


def test_cli_suite_acceptance_runs(capsys):
    code, record = run_cli(capsys, "suite", "acceptance")
    assert code == 0
    assert record["outcome"]["passed"] is True
    assert len(record["outcome"]["rows"]) == 11


def test_cli_antipodal_diff_via_embeddings(tmp_path, capsys):
    e1 = tmp_path / "e1.json"
    e2 = tmp_path / "e2.json"
    code, record = run_cli(
        capsys, "embed", "--pls", "builtin:mk", "--field", "3^2",
        "--emb-out", str(e1),
    )
    assert code == 0
    first_points = record["outcome"]["first_embedding"]["point_map"]
    code, record = run_cli(
        capsys, "embed", "--pls", "builtin:mk", "--field", "3^2",
        "--exclude", ",".join(str(x) for x in first_points),
        "--emb-out", str(e2),
    )
    assert code == 0
    code, record = run_cli(
        capsys, "construct", "antipodal-diff", "--field", "3^2",
        "--pls", "builtin:mk", "--emb1", str(e1), "--emb2", str(e2),
    )
    assert code == 0
    assert record["outcome"]["weight"] == 16
    assert record["outcome"]["dual"] in (True, False)


def test_embedding_json_roundtrip(tmp_path):
    emb = Embedding((3, 0, 7), (1, 2))
    path = tmp_path / "e.json"
    formats.write_embedding(emb, path)
    assert json.loads(path.read_text()) == formats.embedding_to_json(emb)
    assert formats.read_embedding(path) == emb


@pytest.mark.parametrize(
    "obj,match",
    [
        ([0, 1], r"'point_map' is a list"),
        ("point_map", r"'point_map' is a list"),
        ({"line_map": [0]}, r"'point_map' is a list"),
        ({"point_map": [0]}, r"'line_map' is a list"),
        ({"point_map": {"0": 1}, "line_map": []}, r"'point_map' is a list"),
        ({"point_map": [0], "line_map": 3}, r"'line_map' is a list"),
        ({"point_map": [0, True, 3], "line_map": []}, r"^point_map entry 1: True is not"),
        ({"point_map": [0], "line_map": [1.0]}, r"^line_map entry 0: 1.0 is not"),
        ({"point_map": [0], "line_map": [2, "3"]}, r"^line_map entry 1: '3' is not"),
        ({"point_map": [None], "line_map": []}, r"^point_map entry 0: None is not"),
    ],
)
def test_embedding_json_rejects_malformed_objects(obj, match):
    with pytest.raises(formats.FormatError, match=match):
        formats.embedding_from_json(obj)


def test_embedding_file_that_is_not_json_names_the_line(tmp_path):
    path = tmp_path / "e.json"
    path.write_text('{"point_map": [0, 1],\n "line_map": [0,, 1]}')
    with pytest.raises(formats.FormatError, match=r"^line 2: "):
        formats.read_embedding(path)


def test_cli_antipodal_diff_refuses_a_malformed_embedding_file(tmp_path, capsys):
    e1 = tmp_path / "e1.json"
    e1.write_text(json.dumps({"point_map": [0, True, 3, 10, 11, 12, 13, 14], "line_map": []}))
    code, record = run_cli(
        capsys, "construct", "antipodal-diff", "--field", "3^2",
        "--pls", "builtin:mk", "--emb1", str(e1), "--emb2", str(e1),
    )
    assert code == 1
    assert record["outcome"]["error"] == "FormatError"
    assert record["outcome"]["message"] == "point_map entry 1: True is not an integer"
