"""Constructions and the check registry: presentations, chains, reports."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

from mcgcert.constructions import (
    CheckResult,
    Report,
    VerifyConfig,
    _json_safe,
    basis_endomorphism_instance,
    brooks_family,
    check_ids,
    nested_kernel_chain,
    punctured_sphere_presentation,
    sl2z_presentation,
    sphere_transposition_images,
    twist_chain,
    verify_all,
)
from mcgcert.fpgroup import abelianization, perm_image, todd_coxeter
from mcgcert.stallings import subgroup_graph
from mcgcert.words import Alphabet

from fractions import Fraction


@pytest.fixture(scope="module")
def report():
    return verify_all()


# --- presentations ------------------------------------------------------------


def relator_count(n):
    braid = n - 2
    commutation = (n - 3) * (n - 2) // 2
    return braid + commutation + 2


def test_sphere_presentation_shape():
    for n in (3, 4, 5, 6):
        p = punctured_sphere_presentation(n)
        assert p.alphabet.rank == n - 1
        assert len(p.relators) == relator_count(n)


def test_sphere_presentation_rejects_small_n():
    with pytest.raises(ValueError):
        punctured_sphere_presentation(2)


def test_sphere_transpositions_are_homomorphic():
    for n in (3, 4, 5):
        p = punctured_sphere_presentation(n)
        img = perm_image(p, sphere_transposition_images(n))
        assert img.is_homomorphism
        assert img.degree == n


def test_sphere_abelianizations():
    # gcd(2(n-1), n(n-1)) gives 2, 6, 4, 10 for n = 3, 4, 5, 6
    expected = {3: "Z/2", 4: "Z/6", 5: "Z/4", 6: "Z/10"}
    for n, desc in expected.items():
        assert abelianization(punctured_sphere_presentation(n)).describe() == desc


def test_sl2z_presentation():
    p = sl2z_presentation()
    assert p.alphabet.display_names == ("s", "t")
    assert abelianization(p).describe() == "Z/12"


# --- twist chains ---------------------------------------------------------------


def test_twist_chain_words():
    gens = twist_chain(4)
    assert [g.letters for g in gens] == [
        (2,),
        (1, 2, -1),
        (1, 1, 2, -1, -1),
        (1, 1, 1),
    ]


def test_twist_chain_invariants():
    cd = Alphabet(2, names=("c", "d"))
    for n in (3, 4, 5, 6):
        graph = subgroup_graph(cd, twist_chain(n))
        inv = graph.invariants()
        assert (inv.index, inv.rank) == (n - 1, n)
        assert graph.member(cd.parse("c^2")) == (n == 3)


def test_twist_chain_rejects_small_n():
    with pytest.raises(ValueError):
        twist_chain(2)


# --- nested chain ---------------------------------------------------------------


def test_nested_chain_matches_direct_kernel():
    f2 = Alphabet(2)
    levels = nested_kernel_chain(2)
    direct = subgroup_graph(
        f2, [f2.parse("a^2"), f2.parse("b"), f2.parse("abA")]
    )
    assert levels[1].graph == direct


def test_nested_chain_ranks_and_depth_bounds():
    levels = nested_kernel_chain(6)
    assert [lv.graph.invariants().rank for lv in levels] == [2, 3, 5, 9, 17, 33]
    assert [lv.graph.invariants().index for lv in levels] == [1, 2, 4, 8, 16, 32]
    with pytest.raises(ValueError):
        nested_kernel_chain(0)
    with pytest.raises(ValueError):
        nested_kernel_chain(9)


def test_nested_chain_projection_maps_basis_onto_rose():
    level = nested_kernel_chain(3)[2]
    rose = level.projection.codomain
    assert rose.rank == 3
    images = [level.projection(level.projection.domain.word((i + 1,)))
              for i in range(len(level.basis_words))]
    nontrivial = [im for im in images if not im.is_identity]
    assert sorted(im.letters for im in nontrivial) == [(1,), (2,), (3,)]


# --- basis endomorphism instances ----------------------------------------------


def test_instance_2_2_explicit():
    inst = basis_endomorphism_instance(2, 2)
    assert [g.letters for g in inst.generator_words] == [
        (2,),
        (1, 2, -1),
        (1, 1),
    ]
    assert [g.letters for g in inst.image_words] == [
        (2,),
        (1, 2, -1, 2),
        (1, 1),
    ]
    inv = inst.graph.invariants()
    assert (inv.index, inv.rank) == (2, 3)


def test_instance_rank_formula():
    for n, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        inst = basis_endomorphism_instance(n, k)
        assert inst.graph.invariants().rank == k * (n - 1) + 1
        assert len(inst.generator_words) == k * (n - 1) + 1
        assert inst.graph.invariants().index == k


def test_instance_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        basis_endomorphism_instance(1, 2)
    with pytest.raises(ValueError):
        basis_endomorphism_instance(2, 1)


def test_brooks_family_shape():
    qms, tests = brooks_family(4)
    assert len(qms) == len(tests) == 4
    assert tests[2].letters == (1, 2, 2, 2, -1, -2, -2, -2)


# --- report plumbing -------------------------------------------------------------


def test_json_safe_values():
    safe = _json_safe(
        {
            "frac": Fraction(3, 2),
            "whole": Fraction(4, 2),
            "word": Alphabet(2).parse("abA"),
            "nested": [Fraction(1, 3), {"x": (1, 2)}],
        }
    )
    assert safe == {
        "frac": "3/2",
        "whole": 2,
        "word": "abA",
        "nested": ["1/3", {"x": [1, 2]}],
    }
    with pytest.raises(TypeError):
        _json_safe({"bad": object()})


def test_check_result_json_uses_quote_key():
    result = CheckResult("x", "claim text", "statement text", "pass", {})
    data = result.to_json_dict()
    assert set(data) == {"id", "claim", "quote", "status", "witness"}
    assert data["quote"] == "statement text"


def test_check_ids_sorted_and_plentiful():
    ids = check_ids()
    assert ids == sorted(ids)
    assert len(ids) >= 12
    assert "twist-chain" in ids and "quasi-suite" in ids


# --- verify_all -------------------------------------------------------------------


def test_all_checks_pass(report):
    assert len(report.checks) == len(check_ids())
    assert report.failed == ()
    assert report.inconclusive == ()
    assert report.ok


def test_report_sorted_and_json_ready(report):
    ids = [c.id for c in report.checks]
    assert ids == sorted(ids)
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    assert json.loads(payload)["toolkit"]["name"] == "mcgcert"


def test_report_deterministic_bytes(report):
    again = verify_all()
    assert json.dumps(report.to_json_dict(), sort_keys=True) == json.dumps(
        again.to_json_dict(), sort_keys=True
    )


def test_selection_includes_required_guards():
    rep = verify_all(VerifyConfig(checks=("h1-sphere-4",)))
    assert [c.id for c in rep.checks] == ["guard-sphere-4", "h1-sphere-4"]
    assert all(c.status == "pass" for c in rep.checks)


def test_selection_without_dependencies_runs_alone():
    rep = verify_all(VerifyConfig(checks=("twist-chain",)))
    assert [c.id for c in rep.checks] == ["twist-chain"]


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError):
        verify_all(VerifyConfig(checks=("twist-chain", "bogus")))


def test_tietze_budget_zero_is_inconclusive_not_fail():
    rep = verify_all(VerifyConfig(checks=("sl2z-derived-free",), tietze_budget=0))
    by_id = {c.id: c for c in rep.checks}
    assert by_id["guard-sl2z"].status == "pass"
    assert by_id["sl2z-derived-free"].status == "inconclusive"
    assert "reason" in by_id["sl2z-derived-free"].witness
    assert rep.ok  # inconclusive does not fail the report


def test_failing_guard_poisons_dependents(monkeypatch):
    import mcgcert.constructions as cons

    claim, statement, _ = cons._REGISTRY["guard-sl2z"]

    def broken(cfg, rng):
        return "fail", {"forced": True}

    monkeypatch.setitem(
        cons._REGISTRY, "guard-sl2z", (claim, statement, broken)
    )
    rep = verify_all(VerifyConfig(checks=("sl2z-derived-free",)))
    by_id = {c.id: c for c in rep.checks}
    assert by_id["guard-sl2z"].status == "fail"
    assert by_id["sl2z-derived-free"].status == "inconclusive"
    assert by_id["sl2z-derived-free"].witness == {"blocked_by": ["guard-sl2z"]}
    assert not rep.ok


def test_crashing_check_reports_fail(monkeypatch):
    import mcgcert.constructions as cons

    claim, statement, _ = cons._REGISTRY["twist-chain"]

    def exploding(cfg, rng):
        raise RuntimeError("boom")

    monkeypatch.setitem(
        cons._REGISTRY, "twist-chain", (claim, statement, exploding)
    )
    rep = verify_all(VerifyConfig(checks=("twist-chain",)))
    assert rep.checks[0].status == "fail"
    assert "boom" in rep.checks[0].witness["error"]


def test_toolkit_metadata(report):
    tk = report.toolkit
    assert tk["seed"] == 1729
    assert tk["tietze_budget"] == 10**4
    assert "counting_rule" in tk and "sl2z_presentation" in tk


def test_report_bytes_match_golden(report):
    # the bytes `mcgcert verify --json` writes under the default configuration
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    golden = Path(__file__).parent / "data" / "verify_report.json"
    assert text == golden.read_text(encoding="utf-8")


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so certificate checks must raise
    package = Path(verify_all.__code__.co_filename).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the package runs on a bare interpreter: every import is relative, of
    # mcgcert itself, or of a standard-library module
    package = Path(verify_all.__code__.co_filename).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "mcgcert" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno}: {module}")
    assert found == []


# --- individual check content (spot checks against the report) -------------------


def witness_of(report, check_id):
    return next(c for c in report.checks if c.id == check_id).witness


def test_h1_witness_values(report):
    w = witness_of(report, "h1-sphere-4")
    assert w["abelianization"] == "Z/6"
    assert w["orders"] == [3, 3]


def test_obstruction_witness_values(report):
    w = witness_of(report, "half-twist-obstruction")
    assert w["classes_distinct"] is True
    assert w["class_of_first_square"] != w["class_of_product_of_squares"]
    assert w["conjugacy_certificate_verified"] is True
    assert w["pure_subgroup_index"] == 24
    assert w["identity_control"] == {"classes_equal": True}


def test_quasi_witness_values(report):
    w = witness_of(report, "quasi-suite")
    assert w["base_rank"] == 10
    assert w["pullback_rank"] == 10
    assert w["restriction_rank"] == 10
    assert w["first_pattern_homogenization"] == 1


def test_pure_subgroup_pipeline_witness(report):
    w = witness_of(report, "sphere4-pure-free")
    assert w["regular_table_matches"] is True
    assert w["rewritten_generators"] == 49
    assert w["rewritten_relators"] == 120
    assert w["subgroup_abelianization"] == "Z^2"
    assert w["simplified_generators"] == 2
    assert w["simplified_relators"] == 0


def test_nested_chain_witness_records_index_note(report):
    w = witness_of(report, "nested-chain")
    assert "index_note" in w
    assert [lv["rank"] for lv in w["levels"]] == [2, 3, 5, 9, 17, 33]


def test_random_suites_full_score(report):
    assert witness_of(report, "random-schreier")["passing"] == 100
    assert witness_of(report, "random-fold-confluence")["passing"] == 100
    assert witness_of(report, "random-snf")["passing"] == 200
    assert witness_of(report, "coboundary-squared")["tuples"] == 1000
