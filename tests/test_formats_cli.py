import json

import pytest

from planecode import formats
from planecode.antipodal import cyclic_antipodal
from planecode.cli import main
from planecode.construct import baer_diff
from planecode.field import field_new
from planecode.geometry import AxiomViolationError, baer_subfield_subplane, pg2


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
    ],
)
def test_plane_and_pls_text_reject_malformed_files(parse, text, match):
    with pytest.raises(formats.FormatError, match=match):
        parse(text)


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
    assert formats.word_from_json(formats.word_to_json(w)) == w


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
    "support,why",
    [
        ({"-1": 2}, "position outside"),
        ({"13": 1}, "position outside"),
        ({"4": 0}, "value outside"),
        ({"1": 5}, "value outside"),
        ({"3": 1, "03": 2}, "duplicate position"),
        ({"a": 1}, "malformed entry"),
        ({"1": None}, "malformed entry"),
        ({"1": 2.5}, "malformed entry"),
    ],
)
def test_word_json_rejects_bad_entries(support, why):
    with pytest.raises(formats.FormatError, match=why):
        formats.word_from_json({"p": 3, "len": 13, "support": support})


@pytest.mark.parametrize(
    "text",
    ["", "word p=3\n0:1\n", "\nword p=x len=4\n", "word p=3 len\n", "word p=3 len=-1\n",
     "plane p=3 len=4\n", "word p=1 len=4\n"],
)
def test_word_text_rejects_bad_header(text):
    with pytest.raises(formats.FormatError, match=r"^line [12]: expected 'word p="):
        formats.word_from_text(text)


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


def test_cli_subplane_with_a_negative_index_alias(capsys, pg4):
    pts = list(baer_subfield_subplane(pg4).points)
    alias = pts[:3] + [pts[3] - pg4.npoints] + pts[4:]  # numpy would read it as pts[3]
    code, record = run_cli(
        capsys, "construct", "subplane-diff", "--field", "2^2",
        "--points1=" + ",".join(map(str, alias)), "--points2=" + ",".join(map(str, pts)),
    )
    assert code == 1
    assert record["outcome"]["error"] == "CliError"


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
