"""Command-line interface: file formats, outputs, and exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mcgcert import constructions
from mcgcert.cli import entry, run
from mcgcert.constructions import (
    check_ids,
    punctured_sphere_presentation,
    twist_chain,
)
from mcgcert.fpgroup import format_presentation, parse_presentation, todd_coxeter
from mcgcert.stallings import subgroup_graph
from mcgcert.words import Alphabet, format_word


def cli(*argv):
    """Run the CLI and capture (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    chain = "".join(format_word(w) + "\n" for w in twist_chain(4))
    (d / "f4.txt").write_text("gens: c d\n" + chain)
    (d / "squares.txt").write_text("aa\nbb\n")
    (d / "sphere4.txt").write_text(
        format_presentation(punctured_sphere_presentation(4))
    )
    (d / "assign.txt").write_text("points: 4\na: 2 1 3 4\nb: 1 3 2 4\nc: 1 2 4 3\n")
    return d


@pytest.fixture(scope="module")
def pipeline(workdir):
    """Coset table plus every rewriting variant, computed once."""
    table = workdir / "table.json"
    res = {"table_path": str(table)}
    res["coset"] = cli(
        "fpg",
        "coset",
        str(workdir / "sphere4.txt"),
        "--sub",
        str(workdir / "squares.txt"),
        "--json",
        str(table),
    )
    base = ("fpg", "rs", str(workdir / "sphere4.txt"), "--table", str(table))
    res["rs_text"] = cli(*base)
    res["rs_json"] = cli(*base, "--json")
    res["rs_simple"] = cli(*base, "--simplify", "10000")
    res["rs_simple_json"] = cli(*base, "--simplify", "10000", "--json")
    return res


# --- word-list files ----------------------------------------------------------


def test_member_excluded_square(workdir):
    code, out, err = cli(
        "stallings", "member", "--gens", str(workdir / "f4.txt"), "--word", "cc"
    )
    assert (code, out, err) == (0, "false\n", "")


def test_member_included_power(workdir):
    code, out, _ = cli(
        "stallings", "member", "--gens", str(workdir / "f4.txt"), "--word", "c^3"
    )
    assert (code, out) == (0, "true\n")


def test_headerless_alphabet_inference(tmp_path):
    f = tmp_path / "gens.txt"
    f.write_text("# two generators inferred from letters\n\naba\nbb  # comment\n")
    code, out, _ = cli("stallings", "invariants", "--gens", str(f))
    assert code == 0
    assert out == "vertices: 4\nedges: 5\nrank: 2\nindex: infinite\n"


def test_header_rank_mismatch(workdir, tmp_path):
    f = tmp_path / "sub.txt"
    f.write_text("gens: w x y z\nww\n")
    code, _, err = cli(
        "fpg", "coset", str(workdir / "sphere4.txt"), "--sub", str(f)
    )
    assert code == 2
    assert "declares rank 4, expected 3" in err


def test_empty_gens_header(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("gens:\naa\n")
    code, _, err = cli("stallings", "build", "--gens", str(f))
    assert code == 2 and "empty gens: header" in err


def test_missing_file():
    code, _, err = cli("stallings", "invariants", "--gens", "/nonexistent/x.txt")
    assert code == 2 and "cannot read" in err


def test_bad_word_in_file(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("a!b\n")
    code, _, err = cli("stallings", "build", "--gens", str(f))
    assert code == 2 and "bad.txt" in err


def test_bad_word_argument(workdir):
    code, _, err = cli(
        "stallings", "member", "--gens", str(workdir / "f4.txt"), "--word", "xx"
    )
    assert code == 2 and "unknown generator" in err


def test_word_argument_expanding_too_far(workdir):
    gens = str(workdir / "f4.txt")
    code, _, err = cli("stallings", "member", "--gens", gens, "--word", "(c^1000)^1001")
    assert code == 2 and "expands to more than" in err


# --- stallings ------------------------------------------------------------------


def test_invariants_text(workdir):
    code, out, _ = cli("stallings", "invariants", "--gens", str(workdir / "f4.txt"))
    assert code == 0
    assert out == "vertices: 3\nedges: 6\nrank: 4\nindex: 3\n"


def test_invariants_json(workdir):
    code, out, _ = cli(
        "stallings", "invariants", "--gens", str(workdir / "f4.txt"), "--json"
    )
    assert code == 0
    assert json.loads(out) == {"vertices": 3, "edges": 6, "rank": 4, "index": 3}


def test_basis_matches_library(workdir):
    code, out, _ = cli("stallings", "basis", "--gens", str(workdir / "f4.txt"))
    assert code == 0
    cd = Alphabet(2, names=("c", "d"))
    expected = [format_word(w) for w in subgroup_graph(cd, twist_chain(4)).basis()]
    assert out.splitlines() == expected


def test_build_json_payload(workdir):
    code, out, _ = cli(
        "stallings", "build", "--gens", str(workdir / "f4.txt"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["basis", "edges", "index", "rank", "vertices"]
    assert payload["rank"] == 4 and len(payload["basis"]) == 4


def test_intersect_across_generator_names(workdir):
    code, out, _ = cli(
        "stallings",
        "intersect",
        "--gens",
        str(workdir / "f4.txt"),
        "--gens2",
        str(workdir / "squares.txt"),
    )
    assert code == 0
    lines = out.splitlines()
    assert "vertices: 9" in lines and "rank: 4" in lines
    assert "index: infinite" in lines
    assert sum(1 for l in lines if l.startswith("basis: ")) == 4


def test_intersect_rank_mismatch(workdir, tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("aa\n")
    code, _, err = cli(
        "stallings",
        "intersect",
        "--gens",
        str(workdir / "f4.txt"),
        "--gens2",
        str(f),
    )
    assert code == 2 and "rank 1 does not match" in err


# --- fpg ------------------------------------------------------------------------


def test_abelianize_text(workdir):
    code, out, _ = cli("fpg", "abelianize", str(workdir / "sphere4.txt"))
    assert (code, out) == (0, "Z/6\n")


def test_abelianize_json(workdir):
    code, out, _ = cli("fpg", "abelianize", str(workdir / "sphere4.txt"), "--json")
    assert code == 0
    assert json.loads(out) == {"description": "Z/6", "free_rank": 0, "moduli": [6]}


def test_abelianize_exponent_longer_than_int_accepts(tmp_path):
    f = tmp_path / "huge.txt"
    f.write_text("gens: a\nrels: a^" + "9" * 5000 + "\n")
    code, out, err = cli("fpg", "abelianize", str(f))
    assert (code, out) == (2, "") and "expands to more than" in err


def test_coset_regular_enumeration(tmp_path):
    f = tmp_path / "klein.txt"
    f.write_text("gens: a b\nrel: aa\nrel: bb\nrel: abab\n")
    code, out, _ = cli("fpg", "coset", str(f))
    assert (code, out) == (0, "cosets: 4\n")


def test_coset_output_and_table_file(pipeline):
    code, out, _ = pipeline["coset"]
    assert (code, out) == (0, "cosets: 24\n")
    with open(pipeline["table_path"], "r", encoding="utf-8") as handle:
        table = json.load(handle)
    assert table["cosets"] == 24
    assert sorted(table["action"]) == ["A", "B", "C", "a", "b", "c"]
    assert all(len(v) == 24 for v in table["action"].values())


def test_coset_budget_exceeded(workdir):
    code, _, err = cli(
        "fpg",
        "coset",
        str(workdir / "sphere4.txt"),
        "--sub",
        str(workdir / "squares.txt"),
        "--max",
        "5",
    )
    assert code == 1 and "budget" in err


def test_rs_simplified_is_free_of_rank_two(pipeline):
    code, out, _ = pipeline["rs_simple"]
    assert (code, out) == (0, "gens: a b\n")


def test_rs_unsimplified_text_refused(pipeline):
    code, _, err = pipeline["rs_text"]
    assert code == 1
    assert "49 generators" in err and "--simplify" in err


def test_rs_json_unsimplified(pipeline):
    code, out, _ = pipeline["rs_json"]
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 49 and payload["gens"] is None
    assert len(payload["relators"]) == 120
    assert len(payload["generator_words"]) == 49


def test_rs_json_matches_golden(pipeline):
    code, out, _ = pipeline["rs_json"]
    golden = Path(__file__).parent / "data" / "sphere4_rs.json"
    assert (code, out) == (0, golden.read_text(encoding="utf-8"))


S3_SWAPPED = "gens: b a\nrel: aa\nrel: bbb\nrel: abab\n"


def test_rs_matches_table_letters_by_name(tmp_path):
    # the table file lists a before b; the presentation declares b first
    pres, sub, table = tmp_path / "s3.txt", tmp_path / "sub.txt", tmp_path / "t.json"
    pres.write_text(S3_SWAPPED)
    sub.write_text("a\n")
    code, out, _ = cli("fpg", "coset", str(pres), "--sub", str(sub), "--json", str(table))
    assert (code, out) == (0, "cosets: 3\n")
    code, out, _ = cli("fpg", "rs", str(pres), "--table", str(table), "--json")
    assert code == 0
    words = json.loads(out)["generator_words"]
    assert words == ["a", "bbb", "bab", "BaB"]
    p = parse_presentation(S3_SWAPPED)
    cosets_of_a = todd_coxeter(p, [p.alphabet.parse("a")])
    assert all(cosets_of_a.trace(0, p.alphabet.parse(w)) == 0 for w in words)


def test_rs_table_not_an_action_of_the_presentation(tmp_path):
    pres, table = tmp_path / "s3.txt", tmp_path / "t.json"
    pres.write_text(S3_SWAPPED)
    # a fixes every coset and b is a 3-cycle, so (ab)^2 = b^2 moves coset 1
    table.write_text(json.dumps({"cosets": 3, "action": {"a": [1, 2, 3], "b": [2, 3, 1]}}))
    code, _, err = cli("fpg", "rs", str(pres), "--table", str(table))
    assert code == 2 and "not an action of the presentation" in err
    table.write_text(json.dumps({"cosets": 1, "action": {"a": [1], "c": [1]}}))
    code, _, err = cli("fpg", "rs", str(pres), "--table", str(table))
    assert code == 2 and "do not match the generators" in err
    table.write_text(json.dumps({"cosets": 2, "action": {"a": [1, 2], "b": [1, 2]}}))
    code, _, err = cli("fpg", "rs", str(pres), "--table", str(table))
    assert code == 2 and "not transitive" in err


def test_rs_json_simplified(pipeline):
    code, out, _ = pipeline["rs_simple_json"]
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2 and payload["gens"] == ["a", "b"]
    assert payload["relators"] == []


def test_rs_bad_table_json(workdir, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, err = cli(
        "fpg", "rs", str(workdir / "sphere4.txt"), "--table", str(f)
    )
    assert code == 2 and "invalid JSON" in err


@pytest.mark.parametrize(
    "table",
    [
        '{"cosets": true, "action": {"a": [1], "b": [1]}}',
        '{"cosets": 1, "action": {"a": [true], "b": [true]}}',
    ],
)
def test_rs_table_with_json_booleans(tmp_path, table):
    # bool is an int in Python; read as numbers these would be a valid table
    p3 = tmp_path / "sphere3.txt"
    p3.write_text(format_presentation(punctured_sphere_presentation(3)))
    f = tmp_path / "table.json"
    f.write_text(table)
    code, out, err = cli("fpg", "rs", str(p3), "--table", str(f))
    assert code == 2 and out == "" and "must" in err


def test_perm_text(workdir):
    code, out, _ = cli(
        "fpg",
        "perm",
        str(workdir / "sphere4.txt"),
        "--assign",
        str(workdir / "assign.txt"),
    )
    assert code == 0
    assert out == "degree: 4\norder: 24\nhomomorphism: true\n"


def test_perm_json(workdir):
    code, out, _ = cli(
        "fpg",
        "perm",
        str(workdir / "sphere4.txt"),
        "--assign",
        str(workdir / "assign.txt"),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 24 and payload["homomorphism"] is True
    assert payload["relator_violations"] == []


def test_perm_missing_generator(workdir, tmp_path):
    f = tmp_path / "assign.txt"
    f.write_text("points: 3\na: 2 1 3\nb: 1 3 2\n")
    code, _, err = cli(
        "fpg", "perm", str(workdir / "sphere4.txt"), "--assign", str(f)
    )
    assert code == 2 and "missing generators: c" in err


def test_perm_not_a_permutation(workdir, tmp_path):
    f = tmp_path / "assign.txt"
    f.write_text("points: 3\na: 2 2 3\nb: 1 3 2\nc: 1 2 3\n")
    code, _, err = cli(
        "fpg", "perm", str(workdir / "sphere4.txt"), "--assign", str(f)
    )
    assert code == 2 and "permutation of 1..3" in err


def test_perm_generator_assigned_twice(tmp_path):
    # keeping only the last line would print "order: 1", "homomorphism: true"
    p3 = tmp_path / "sphere3.txt"
    p3.write_text(format_presentation(punctured_sphere_presentation(3)))
    f = tmp_path / "assign.txt"
    f.write_text("points: 2\na: 2 1\na: 1 2\nb: 1 2\n")
    code, out, err = cli("fpg", "perm", str(p3), "--assign", str(f))
    assert code == 2 and out == "" and "'a' is assigned twice" in err


# --- qm -------------------------------------------------------------------------


def test_eval():
    assert cli("qm", "eval", "--pattern", "ab", "--word", "abab")[:2] == (0, "2\n")
    assert cli("qm", "eval", "--pattern", "ab", "--word", "BABA")[:2] == (0, "-2\n")


def test_defect():
    code, out, _ = cli("qm", "defect", "--pattern", "ab", "--radius", "2")
    assert (code, out) == (0, "1\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("eval", "--pattern", "1", "--word", "ab"), "bad pattern '1'"),
        (("defect", "--pattern", "aA", "--radius", "2"), "bad pattern 'aA'"),
        (("defect", "--pattern", "ab", "--radius", "-1"), "--radius -1"),
    ],
)
def test_qm_bad_arguments(argv, message):
    code, out, err = cli("qm", *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fpg", "coset", "p.txt", "--max", "-3"), "argument --max: must be at least 1"),
        (("fpg", "coset", "p.txt", "--max", "0"), "argument --max: must be at least 1"),
        (
            ("fpg", "perm", "p.txt", "--assign", "a.txt", "--max", "0"),
            "argument --max: must be at least 1",
        ),
        (
            ("fpg", "rs", "p.txt", "--table", "t.json", "--simplify", "-5"),
            "argument --simplify: must be at least 0",
        ),
        (
            ("qm", "defect", "--pattern", "ab", "--radius", "2", "--pair-budget", "-1"),
            "argument --pair-budget: must be at least 1",
        ),
        (("verify", "--homog-cap", "0"), "argument --homog-cap: must be at least 1"),
        (
            ("verify", "--tietze-budget", "-1"),
            "argument --tietze-budget: must be at least 0",
        ),
        (("verify", "--homog-cap", "x"), "argument --homog-cap: invalid int value: 'x'"),
    ],
)
def test_budget_below_its_floor(argv, message):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as info:
        run(list(argv))
    assert info.value.code == 2 and message in err.getvalue()


@pytest.mark.parametrize(
    "radius, message",
    [
        ("30", "169564633100863990492649354209 pairs exceed the budget 3000000"),
        ("1000000000", "more than 2^2000000000 pairs exceed the budget 3000000"),
    ],
)
def test_defect_huge_radius_refused_before_any_word(radius, message):
    start = time.perf_counter()
    code, out, err = cli("qm", "defect", "--pattern", "abab", "--radius", radius)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "pattern, radius, expected",
    [
        ("abbABB", "10", (0, "2\n", "")),
        ("ab", "1000000000", (0, "1\n", "")),
        ("abab", "7", (1, "", "error: 19123129 pairs exceed the budget 3000000\n")),
    ],
)
def test_defect_budget_counts_the_enumerated_ball(pattern, radius, expected):
    # the seam path enumerates ends of length min(|p| - 1, radius) only;
    # a self-overlapping pattern still enumerates the whole ball
    start = time.perf_counter()
    assert cli("qm", "defect", "--pattern", pattern, "--radius", radius) == expected
    assert time.perf_counter() - start < 1


def test_defect_budget_exhausted():
    code, _, err = cli(
        "qm", "defect", "--pattern", "ab", "--radius", "3", "--pair-budget", "3"
    )
    assert code == 1 and "budget" in err


def test_rank_plain_vs_mod_homs(tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("1 a\n")
    tests = tmp_path / "tests.txt"
    tests.write_text("a\naa\n")
    assert cli("qm", "rank", "--family", str(fam), "--tests", str(tests))[:2] == (
        0,
        "1\n",
    )
    code, out, _ = cli(
        "qm", "rank", "--family", str(fam), "--tests", str(tests), "--mod-homs"
    )
    assert (code, out) == (0, "0\n")


def test_rank_commutator_family(tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text(
        "\n".join(f"1 a{'b' * i}A{'B' * i}" for i in range(1, 4)) + "\n"
    )
    tests = tmp_path / "tests.txt"
    tests.write_text(
        "\n".join(f"a{'b' * i}A{'B' * i}" for i in range(1, 4)) + "\nab\n"
    )
    for extra in ((), ("--mod-homs",)):
        code, out, _ = cli(
            "qm", "rank", "--family", str(fam), "--tests", str(tests), *extra
        )
        assert (code, out) == (0, "3\n")


def test_rank_fraction_coefficients(tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("1/2 ab\n")
    tests = tmp_path / "tests.txt"
    tests.write_text("abab\n")
    assert cli("qm", "rank", "--family", str(fam), "--tests", str(tests))[:2] == (
        0,
        "1\n",
    )


def test_family_bad_coefficient(tmp_path):
    tests = tmp_path / "tests.txt"
    tests.write_text("ab\n")
    for text in ("x ab\n", "1/0 ab\n", "ab\n"):
        fam = tmp_path / "family.txt"
        fam.write_text(text)
        code, _, err = cli("qm", "rank", "--family", str(fam), "--tests", str(tests))
        assert code == 2 and "family.txt" in err


# --- verify ---------------------------------------------------------------------


def test_verify_list():
    code, out, _ = cli("verify", "--list")
    assert code == 0
    assert out.splitlines() == list(check_ids())


def test_verify_single_check_lines():
    code, out, _ = cli("verify", "--check", "twist-chain")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("pass         twist-chain: ")
    assert lines[-1] == "checks: 1  pass: 1  fail: 0  inconclusive: 0"


def test_verify_json_report_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, _, _ = cli("verify", "--check", "h1-sphere-4", "--json", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert [c["id"] for c in report["checks"]] == ["guard-sphere-4", "h1-sphere-4"]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_json_under_optimize_matches_golden(tmp_path):
    # python -O strips assert statements; the report must not depend on them
    root = Path(__file__).parents[1]
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "mcgcert.cli", "verify", "--json", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (root / "tests" / "data" / "verify_report.json").read_bytes()


def test_verify_strict_promotes_inconclusive():
    args = ("verify", "--check", "sl2z-derived-free", "--tietze-budget", "0")
    code, out, _ = cli(*args)
    assert code == 0 and "inconclusive sl2z-derived-free" in out
    code, _, _ = cli(*args, "--strict")
    assert code == 1


def test_verify_unknown_check():
    code, _, err = cli("verify", "--check", "no-such-check")
    assert code == 2 and "unknown check ids" in err


def test_verify_failing_check_exits_nonzero(monkeypatch):
    claim, statement, _ = constructions._REGISTRY["guard-sl2z"]

    def broken(cfg, rng):
        return "fail", {"note": "forced failure"}

    monkeypatch.setitem(
        constructions._REGISTRY, "guard-sl2z", (claim, statement, broken)
    )
    code, out, _ = cli("verify", "--check", "guard-sl2z")
    assert code == 1
    assert out.splitlines()[0].startswith("fail         guard-sl2z: ")


def test_entry_raises_systemexit(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["mcgcert", "verify", "--list"])
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 0
    assert out.getvalue().splitlines() == list(check_ids())
