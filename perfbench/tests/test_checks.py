"""The benchmark's checkers accept the program's correct outputs and reject
corrupted ones.

    python3 -m pytest perfbench/tests
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import spans
import workloads
from mcgcert import cli, constructions, fpgroup, quasi, stallings, words

ROOT = Path(__file__).resolve().parents[2]


def sphere(n):
    p = constructions.punctured_sphere_presentation(n)
    table = fpgroup.todd_coxeter(p, [p.alphabet.word(w) for w in checks.pure_generators(n)])
    return p, table


# -- coset tables: a wrong index ---------------------------------------------


def test_table_checker_accepts_sphere4_table():
    p, table = sphere(4)
    action = checks.action_from_rows(table.rows, 3)
    assert checks.check_coset_table(
        table.index, action, checks.sphere_relators(4), checks.pure_generators(4), 24
    ) == []


def test_table_checker_rejects_wrong_index():
    p, table = sphere(4)
    action = checks.action_from_rows(table.rows, 3)
    rels, gens = checks.sphere_relators(4), checks.pure_generators(4)
    assert checks.check_coset_table(table.index, action, rels, gens, 12)
    # a table of a larger subgroup, with index 12, claimed as the pure one
    bigger = fpgroup.todd_coxeter(p, [p.alphabet.word(w) for w in gens + [(1,)]])
    assert bigger.index == 12
    assert checks.check_coset_table(
        bigger.index, checks.action_from_rows(bigger.rows, 3), rels, gens, 24
    )


def test_table_checker_rejects_a_relator_that_moves_a_coset():
    _, table = sphere(4)
    action = checks.action_from_rows(table.rows, 3)
    rels = checks.sphere_relators(4) + [(1,)]
    assert checks.check_coset_table(24, action, rels, checks.pure_generators(4), 24)


def test_schreier_counts():
    assert checks.check_schreier_counts(24, 3, 5, 49, 120) == []
    assert checks.check_schreier_counts(24, 3, 5, 48, 120)
    assert checks.check_schreier_counts(24, 3, 5, 49, 119)


# -- Schreier generators: b among the generators of <a> in S3 ----------------

S3 = workloads.Verify


def s3_schreier_words():
    alphabet = words.Alphabet(2, names=S3.S3_NAMES)
    p = fpgroup.Presentation(alphabet, [alphabet.word(r) for r in S3.S3_RELATORS])
    table = fpgroup.todd_coxeter(p, [alphabet.word(w) for w in S3.S3_SUBGROUP])
    return [w.letters for w in fpgroup.reidemeister_schreier(p, table).generator_words]


def test_s3_images_satisfy_the_relators():
    signed = checks.signed_perms(S3.S3_IMAGES)
    for rel in S3.S3_RELATORS:
        assert checks.word_perm(rel, signed, 3) == (0, 1, 2)
    assert len(checks.group_closure(list(S3.S3_IMAGES.values()), 3)) == 6


def test_subgroup_checker_rejects_b_among_generators_of_a():
    gens = s3_schreier_words()
    assert checks.check_words_in_subgroup(gens, S3.S3_IMAGES, S3.S3_SUBGROUP, 3) == []
    b = (1,)
    assert checks.check_words_in_subgroup(gens + [b], S3.S3_IMAGES, S3.S3_SUBGROUP, 3)


def test_table_reader_matches_letters_by_name(tmp_path, capsys):
    """The table ``fpg coset --json`` writes for ``gens: b a`` passes when its
    letters are read by name, and fails when they are read in sorted order."""
    pres = tmp_path / "s3.txt"
    pres.write_text(checks.presentation_text(S3.S3_NAMES, S3.S3_RELATORS))
    sub = tmp_path / "sub.txt"
    sub.write_text("a\n")
    table = tmp_path / "t.json"
    assert cli.run(["fpg", "coset", str(pres), "--sub", str(sub), "--json", str(table)]) == 0
    data = json.loads(table.read_text())
    k, action = checks.action_from_json(data, S3.S3_NAMES)
    assert checks.check_coset_table(k, action, S3.S3_RELATORS, S3.S3_SUBGROUP, 3) == []
    k, swapped = checks.action_from_json(data, sorted(S3.S3_NAMES))
    assert checks.check_coset_table(k, swapped, S3.S3_RELATORS, S3.S3_SUBGROUP, 3)


def test_kernel_checker():
    p, table = sphere(5)
    rs = fpgroup.reidemeister_schreier(p, table)
    gens = [w.letters for w in rs.generator_words]
    images = checks.transposition_images(5)
    assert checks.check_words_in_kernel(gens, images, 5) == []
    assert checks.check_words_in_kernel(gens + [(1,)], images, 5)


# -- defects: off by one -----------------------------------------------------


@pytest.mark.parametrize("pattern", [(1, 2, -1, -2), (1, 2), (1, 1, 2), (1, 2, 2, -1, -2, -2)])
def test_local_defect_matches_brute_force(pattern):
    for radius in range(5):
        assert checks.local_defect(pattern, 2, radius) == checks.brute_defect(pattern, 2, radius)


def test_local_defect_matches_the_program_at_small_radius():
    f2 = words.Alphabet(2)
    qm = quasi.Quasimorphism([(1, f2.word((1, 2, -1, -2)))])
    for radius in range(5):
        assert quasi.defect_ball(qm, radius) == checks.local_defect((1, 2, -1, -2), 2, radius)


def test_local_defect_refuses_a_self_overlapping_pattern():
    with pytest.raises(ValueError):
        checks.local_defect((1, 2, 1), 2, 3)


def test_defect_checker_rejects_off_by_one():
    pattern = (1, 2, -1, -2)
    true = checks.local_defect(pattern, 2, 6)
    assert checks.check_defect(Fraction(true), pattern, 2, 6) == []
    assert checks.check_defect(Fraction(true + 1), pattern, 2, 6)
    assert checks.check_defect(Fraction(true - 1), pattern, 2, 6)


def test_defect_workload_check_rejects_off_by_one_and_a_wrong_rank():
    w = workloads.DefectBall(1, ROOT, None)
    true = checks.local_defect(w.PATTERN, 2, w.RADIUS)
    assert not any(w.check({"defect_ball": Fraction(true), "independence_rank": 10}).values())
    bad = w.check({"defect_ball": Fraction(true + 1), "independence_rank": 9})
    assert bad["defect_ball"] and bad["independence_rank"]


# -- intersections: one vertex short -----------------------------------------


def test_product_orbit_matches_the_program():
    p, table = sphere(4)
    graph = stallings.from_coset_action(p.alphabet, table.action_dict())
    for seed in range(5):
        action = workloads.random_action(seed, 3, 5)
        other = stallings.from_coset_action(p.alphabet, action)
        meet = graph.intersect(other)
        signed = checks.signed_perms(action)
        orbit = checks.product_orbit(checks.action_from_rows(table.rows, 3), signed, 3)
        assert orbit == meet.vertices == 24 * 5
        assert checks.check_graph(meet.table, orbit, 3) == []


def test_graph_checker_rejects_an_intersection_one_vertex_short():
    p, table = sphere(4)
    graph = stallings.from_coset_action(p.alphabet, table.action_dict())
    meet = graph.intersect(stallings.from_coset_action(p.alphabet, workloads.random_action(1, 3, 5)))
    short = [tuple(t if t != meet.vertices - 1 else None for t in row) for row in meet.table[:-1]]
    assert checks.check_graph(short, meet.vertices, 3)
    assert checks.check_graph(meet.table[:-1], meet.vertices, 3)


def test_random_action_is_transitive_and_seeded():
    a = workloads.random_action(7, 6, 12)
    assert a == workloads.random_action(7, 6, 12)
    assert a != workloads.random_action(8, 6, 12)
    signed = checks.signed_perms(a)
    trivial = {x: list(range(1)) for x in signed}
    assert checks.product_orbit(signed, trivial, 6) == 12


# -- CLI outputs -------------------------------------------------------------


def test_verify_report_checker():
    report = {"checks": [{"id": cid, "status": "pass"} for cid in checks.CHECK_IDS]}
    assert checks.check_verify_report(json.dumps(report)) == []
    report["checks"][3]["status"] = "inconclusive"
    assert checks.check_verify_report(json.dumps(report))
    report["checks"].pop()
    assert checks.check_verify_report(json.dumps(report))


def test_verify_check_ids_are_the_registry():
    assert tuple(constructions.check_ids()) == checks.CHECK_IDS


def test_free_presentation_checker():
    assert checks.check_free_presentation("gens: a b\n", 2) == []
    assert checks.check_free_presentation("gens: a b\nrel: abAB\n", 2)
    assert checks.check_free_presentation("gens: a b c\n", 2)


def test_sphere_inputs_match_the_program():
    for n in (4, 5, 7):
        p = constructions.punctured_sphere_presentation(n)
        assert [w.letters for w in p.relators] == checks.sphere_relators(n)
        text = checks.presentation_text(p.alphabet.display_names, checks.sphere_relators(n))
        assert fpgroup.parse_presentation(text).relators == p.relators
    assert checks.sphere_h1_rank(4) == 2 and checks.sphere_h1_rank(5) == 5


# -- the benchmark's description ---------------------------------------------


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "certify_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_records_nested_spans_and_restores_the_program():
    original = fpgroup.abelianization
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fpgroup.abelianization is not original
        p, table = sphere(4)  # outside a pass: not recorded
        assert tracer.spans == []
        with tracer.timed_pass():
            rs = fpgroup.reidemeister_schreier(p, table)
            fpgroup.abelianization(rs.presentation)
            p.alphabet.word((1,)) * p.alphabet.word((2,))
    finally:
        tracer.uninstall()
    assert fpgroup.abelianization is original
    names = [s[0] for s in tracer.spans]
    assert names == [
        "bench.pass",
        "fpgroup.reidemeister_schreier",
        "fpgroup.abelianization",
        "fpgroup.smith_normal_form",
    ]
    assert tracer.spans[3][3] == 2  # the Smith form runs inside abelianization
    metrics = tracer.layer_metrics()
    assert metrics["fpgroup.reidemeister_schreier.generators"]["value"] == 49
    assert metrics["fpgroup.smith_normal_form.cells"]["value"] == 49 * 120
    assert metrics["words.mul.calls"]["value"] == 1
    assert all(v >= 0 for v in tracer.self_times().values())
    assert set(metrics) == {name for name, _ in spans.LAYER_METRICS}
