"""Acceptance gate: ten criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the ``ACCEPTANCE n
PASS``/``FAIL`` lines as they are produced.  Each criterion is backed by a
live computation in this session: the module fixture runs the full check
registry once, and the cheaper halves of each criterion are recomputed
directly against the library so the gate does not lean on a single code
path.
"""

from __future__ import annotations

import pytest

from mcgcert.constructions import (
    basis_endomorphism_instance,
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


@pytest.fixture(scope="module")
def by_id():
    report = verify_all()
    return {c.id: c for c in report.checks}


def _report(number: int, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_four_puncture_homology(by_id):
    """H1 of the 4-puncture half-twist group is Z/6; both squared
    generators have order exactly 3."""
    p = punctured_sphere_presentation(4)
    structure = abelianization(p)
    a, b = p.alphabet.generators()[:2]
    direct = (
        structure.describe() == "Z/6"
        and structure.project(a * a).order() == 3
        and structure.project(b * b).order() == 3
    )
    check = by_id["h1-sphere-4"]
    _report(
        1,
        direct and check.status == "pass" and check.witness["orders"] == [3, 3],
    )


def test_02_symmetric_quotients(by_id):
    """Half-twists map onto the symmetric group: orders 720, 24, and 6 for
    6, 4, and 3 punctures; with 3 punctures the kernel is trivial."""
    p4 = punctured_sphere_presentation(4)
    direct4 = perm_image(p4, sphere_transposition_images(4), max_order=10**4)
    p3 = punctured_sphere_presentation(3)
    direct3 = perm_image(p3, sphere_transposition_images(3), max_order=10**4)
    group3 = todd_coxeter(p3, [], budget=10**4)
    check = by_id["symmetric-quotients"]
    orders = {
        row["punctures"]: row["order"] for row in check.witness["quotient_orders"]
    }
    _report(
        2,
        check.status == "pass"
        and orders == {3: 6, 4: 24, 6: 720}
        and direct4.order == 24
        and direct4.is_homomorphism
        and direct3.order == 6
        # image order equals group order, so the kernel is trivial
        and group3.index == 6
        and check.witness["three_puncture_pure_order"] == 1,
    )


def test_03_twist_chain_certificates(by_id):
    """For n = 3..8 the chain subgroup has index n-1 and rank n, and
    excludes the square of the first twist exactly when n >= 4."""
    cd = Alphabet(2, names=("c", "d"))
    square = cd.parse("cc")
    ok = by_id["twist-chain"].status == "pass"
    for n in range(3, 9):
        graph = subgroup_graph(cd, twist_chain(n))
        inv = graph.invariants()
        ok = (
            ok
            and inv.index == n - 1
            and inv.rank == n
            and graph.member(square) == (n == 3)
        )
    _report(3, ok)


def test_04_sl2z_derived_subgroup(by_id):
    """SL(2,Z) abelianizes to Z/12 and its derived subgroup rewrites to a
    free presentation of rank 2 within the simplification budget.  An
    inconclusive pipeline fails the criterion."""
    direct = abelianization(sl2z_presentation()).describe() == "Z/12"
    check = by_id["sl2z-derived-free"]
    _report(
        4,
        direct
        and check.status == "pass"
        and check.witness["cosets"] == 12
        and check.witness["simplified_generators"] == 2
        and check.witness["simplified_relators"] == 0,
    )


def test_05_four_puncture_pure_subgroup(by_id):
    """The squared half-twists generate an index-24 subgroup of the
    4-puncture group whose rewritten presentation abelianizes to Z^2 and
    simplifies to 2 generators, 0 relators."""
    check = by_id["sphere4-pure-free"]
    _report(
        5,
        check.status == "pass"
        and check.witness["cosets"] == 24
        and check.witness["subgroup_abelianization"] == "Z^2"
        and check.witness["simplified_generators"] == 2
        and check.witness["simplified_relators"] == 0,
    )


def test_06_basis_endomorphism_instances(by_id):
    """For (n,k) in {(2,2),(2,3),(3,2)}: the subgroup has rank k(n-1)+1,
    the induced self-map is an automorphism certificate, the designated
    power has its unique root outside the subgroup, and the self-map is
    not the identity."""
    ok = True
    for n, k in ((2, 2), (2, 3), (3, 2)):
        inst = basis_endomorphism_instance(n, k)
        ok = ok and len(inst.graph.basis()) == k * (n - 1) + 1
        check = by_id[f"subgroup-auto-n{n}k{k}"]
        self_map = check.witness["self_map"]
        ok = (
            ok
            and check.status == "pass"
            and check.witness["rank"] == k * (n - 1) + 1
            and self_map["images_generate_subgroup"]
            and self_map["root_is_first_letter"]
            and not self_map["is_identity_on_basis"]
            and len(self_map["moved_basis_indices"]) > 0
        )
    _report(6, ok)


def test_07_conjugate_squares_obstruction(by_id):
    """The generator-swap-free automorphism certificate, the conjugacy
    rewrite certificate, and the order-6 class separation (2 vs 4) all
    verify."""
    check = by_id["half-twist-obstruction"]
    w = check.witness
    _report(
        7,
        check.status == "pass"
        and w["images_generate_rose"]
        and w["conjugacy_certificate_verified"]
        and w["class_of_first_square"] == [2]
        and w["class_of_product_of_squares"] == [4]
        and w["classes_distinct"]
        and w["identity_control"]["classes_equal"],
    )


def test_08_randomized_property_suite(by_id):
    """Schreier index formula on 100 random coset tables, folding
    confluence on 100 random generator sets, Smith-form re-multiplication
    on 200 random matrices, and vanishing squared coboundaries on 1000
    sampled tuples."""
    schreier = by_id["random-schreier"]
    fold = by_id["random-fold-confluence"]
    snf = by_id["random-snf"]
    cob = by_id["coboundary-squared"]
    _report(
        8,
        schreier.status == "pass"
        and schreier.witness["passing"] == 100
        and fold.status == "pass"
        and fold.witness["passing"] == 100
        and snf.status == "pass"
        and snf.witness["passing"] == 200
        and cob.status == "pass"
        and cob.witness["tuples"] == 1000
        and cob.witness["all_zero"],
    )


def test_09_quasimorphism_independence(by_id):
    """The 10-element counting family is independent modulo homomorphisms,
    and the rank-10 certificate survives pullback along the depth-4
    projection and restriction to the depth-2 subgroup, in exact rational
    arithmetic."""
    check = by_id["quasi-suite"]
    w = check.witness
    _report(
        9,
        check.status == "pass"
        and w["base_rank"] == 10
        and w["pullback_rank"] == 10
        and w["restriction_rank"] == 10
        and w["restriction_tests_inside_subgroup"],
    )


def test_10_nested_kernel_chain(by_id):
    """Depth-6 chain: every level contains the next, ranks run
    (2,3,5,9,17,33), and each level projects onto the free group of its
    depth."""
    chain = nested_kernel_chain(6)
    ranks = [len(level.graph.basis()) for level in chain]
    direct = ranks == [2, 3, 5, 9, 17, 33]
    for first, second in zip(chain, chain[1:]):
        direct = direct and all(
            first.graph.member(w) for w in second.graph.basis()
        )
    check = by_id["nested-chain"]
    levels = check.witness["levels"]
    _report(
        10,
        direct
        and check.status == "pass"
        and [row["rank"] for row in levels] == [2, 3, 5, 9, 17, 33]
        and all(row["projection_surjective"] for row in levels)
        and all(row["contains_next"] for row in levels[:-1]),
    )
