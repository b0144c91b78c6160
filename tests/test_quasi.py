"""Counting quasimorphisms: counts, defects, homogenization, coboundaries."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcert.constructions import brooks_family
from mcgcert.quasi import (
    BallBudgetError,
    BoundedCochain,
    HomogenizationError,
    Quasimorphism,
    as_cochain,
    brooks_count,
    defect_ball,
    delta_b,
    delta_delta,
    homogenize,
    independence_rank,
)
from mcgcert.quasi import _pair_defect, _seam_defect
from mcgcert.words import Alphabet, AlphabetMismatch, FreeHom, Word, ball

F2 = Alphabet(2)
F3 = Alphabet(3)

F_AB = Quasimorphism([(1, F2.parse("ab"))])
# overlaps a shift of itself, so its defect is computed pair by pair
F_ABAB = Quasimorphism([(1, F2.parse("abab"))])
F_A = Quasimorphism([(1, F2.parse("a"))])

letters_st = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=10
)


def max_disjoint(pattern, letters):
    """Max number of disjoint occurrences, by dynamic programming."""
    m, n = len(pattern), len(letters)
    dp = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best = dp[i + 1]
        if i + m <= n and letters[i : i + m] == pattern:
            best = max(best, 1 + dp[i + m])
        dp[i] = best
    return dp[0]


# --- counting ----------------------------------------------------------------


def test_count_examples():
    assert brooks_count(F2.parse("ab"), F2.parse("abab")) == 2
    assert brooks_count(F2.parse("aa"), F2.parse("aaa")) == 1
    assert brooks_count(F2.parse("aa"), F2.parse("a^4")) == 2
    assert brooks_count(F2.parse("ab"), F2.parse("BA")) == 0
    assert brooks_count(F2.parse("ab"), F2.identity()) == 0
    assert brooks_count(F2.parse("abA"), F2.parse("abAbabA")) == 2


def test_count_rejects_empty_pattern():
    with pytest.raises(ValueError):
        brooks_count(F2.identity(), F2.parse("a"))


@given(letters_st, st.integers(min_value=0, max_value=15))
def test_greedy_count_attains_max_disjoint(raw, pick):
    w = F2.word(raw)
    patterns = [p for p in ball(F2, 2) if not p.is_identity]
    p = patterns[pick % len(patterns)]
    assert brooks_count(p, w) == max_disjoint(p.letters, w.letters)


def test_antisymmetry_exhaustive_small_patterns():
    patterns = [p for p in ball(F2, 2) if not p.is_identity]
    test_words = ball(F2, 4)
    for p in patterns:
        f = Quasimorphism([(1, p)])
        for g in test_words:
            assert f(~g) == -f(g)


@given(letters_st)
def test_antisymmetry_random(raw):
    g = F2.word(raw)
    f = Quasimorphism([(Fraction(3, 2), F2.parse("aab")), (-2, F2.parse("bA"))])
    assert f(~g) == -f(g)


# --- evaluation ---------------------------------------------------------------


def test_eval_examples():
    assert F_AB(F2.parse("abab")) == 2
    assert F_AB(F2.parse("BABA")) == -2
    assert F_AB(F2.identity()) == 0
    mixed = Quasimorphism([(Fraction(1, 2), F2.parse("ab")), (1, F2.parse("a"))])
    assert mixed(F2.parse("ab")) == Fraction(1, 2) + 1


def test_validation():
    with pytest.raises(ValueError):
        Quasimorphism([])
    with pytest.raises(ValueError):
        Quasimorphism([(1, F2.identity())])
    with pytest.raises(AlphabetMismatch):
        Quasimorphism([(1, F2.parse("a")), (1, F3.parse("c"))])
    with pytest.raises(AlphabetMismatch):
        F_AB(F3.parse("c"))


def test_precompose_domain_and_eval():
    # collapse the third generator, then count ab
    hom = FreeHom(F3, F2, (F2.parse("a"), F2.parse("b"), F2.identity()))
    f = Quasimorphism([(1, F2.parse("ab"))], precompose=hom)
    assert f.domain.rank == 3
    assert f(F3.parse("acb")) == 1  # image is ab
    assert f(F3.parse("c")) == 0


def test_pullback_composes():
    square = FreeHom(F2, F2, (F2.parse("a^2"), F2.parse("b")))
    f = F_AB.pullback(square)
    assert f(F2.parse("ab")) == F_AB(F2.parse("a^2b"))
    g = f.pullback(square)
    assert g(F2.parse("ab")) == F_AB(F2.parse("a^4b"))
    with pytest.raises(AlphabetMismatch):
        F_AB.pullback(FreeHom(F2, F3, (F3.parse("a"), F3.parse("b"))))


# --- defects -------------------------------------------------------------------


def test_homomorphism_has_zero_defect():
    assert defect_ball(F_A, 3) == 0
    combo = Quasimorphism([(2, F2.parse("a")), (-3, F2.parse("b"))])
    assert defect_ball(combo, 3) == 0


def test_defect_ab_small_radius():
    assert defect_ball(F_AB, 2) == 1


def test_defect_monotone_in_radius():
    values = [defect_ball(F_AB, r) for r in range(4)]
    assert values[0] == 0
    assert all(values[i] <= values[i + 1] for i in range(3))


def test_defect_fractional_scaling():
    f = Quasimorphism([(Fraction(1, 3), F2.parse("ab"))])
    assert defect_ball(f, 2) == Fraction(1, 3)


def test_defect_budget():
    with pytest.raises(BallBudgetError):
        defect_ball(F_ABAB, 3, pair_budget=100)


def test_defect_with_precompose():
    # pulled back along an automorphism-like map, defect stays finite & exact
    hom = FreeHom(F2, F2, (F2.parse("a"), F2.parse("ab")))
    f = F_AB.pullback(hom)
    assert defect_ball(f, 2) >= 0


def overlaps_itself(letters):
    return any(letters[k:] == letters[: len(letters) - k] for k in range(1, len(letters)))


# reduced patterns of length <= 4 whose windows never overlap, by rank
SEAM_PATTERNS = {
    alphabet.rank: [
        w for w in ball(alphabet, 4) if w.letters and not overlaps_itself(w.letters)
    ]
    for alphabet in (F2, F3)
}


@st.composite
def seam_quasimorphisms(draw):
    rank = draw(st.sampled_from(sorted(SEAM_PATTERNS)))
    term = st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        st.sampled_from(SEAM_PATTERNS[rank]),
    )
    return Quasimorphism(draw(st.lists(term, min_size=1, max_size=3)))


@settings(max_examples=25, deadline=None)
@given(seam_quasimorphisms())
def test_seam_defect_matches_every_pair(qm):
    # rank 3 stops at radius 3: the radius-4 ball of F_3 has 877,969 pairs,
    # seconds of brute force per example
    top = 4 if qm.domain.rank == 2 else 3
    for radius in range(top + 1):
        assert defect_ball(qm, radius) == _pair_defect(qm, radius)


def test_defect_commutator_radius_six():
    assert defect_ball(Quasimorphism([(1, F2.parse("abAB"))]), 6) == 2


@pytest.mark.parametrize(
    "qm",
    [Quasimorphism([(1, F2.parse("abAB"))])] + brooks_family(2)[0],
    ids=["abAB", "brooks-1", "brooks-2"],
)
def test_defect_is_global_from_twice_the_window(qm):
    # no self-overlap: the ball defect stops growing at radius 2(m - 1)
    m = max(len(pattern.letters) for _, pattern in qm.terms)
    budget = 10**40
    at = defect_ball(qm, 2 * (m - 1), pair_budget=budget)
    assert at == defect_ball(qm, 2 * (m - 1) + 3, pair_budget=budget)
    assert at > 0


@pytest.mark.parametrize("text", ["aa", "aba", "abab"])
def test_self_overlapping_pattern_counts_every_pair(text):
    qm = Quasimorphism([(1, F2.parse(text))])
    for radius in range(4):
        assert defect_ball(qm, radius) == _pair_defect(qm, radius)


def test_seams_miss_greedy_counts_of_self_overlapping_patterns():
    # abab occurs twice as a window of ababab but only once greedily
    qm = Quasimorphism([(1, F2.parse("abab"))])
    assert _seam_defect(qm, 3) == 2 and defect_ball(qm, 3) == 1


def test_precompose_counts_every_pair():
    hom = FreeHom(F2, F2, (F2.parse("a"), F2.parse("ab")))
    f = Quasimorphism([(1, F2.parse("abAB"))]).pullback(hom)
    for radius in range(4):
        assert defect_ball(f, radius) == _pair_defect(f, radius)


def test_defect_budget_checked_before_the_ball():
    with pytest.raises(BallBudgetError, match="^19123129 pairs exceed the budget 3000000$"):
        defect_ball(F_ABAB, 7)
    with pytest.raises(BallBudgetError, match=r"^more than 2\^2000000000 pairs"):
        defect_ball(F_ABAB, 10**9)


def test_seam_budget_counts_only_the_ends():
    # the seam path enumerates the ball of radius min(m - 1, R) = 1 only
    assert defect_ball(F_AB, 10**9, pair_budget=25) == 1
    with pytest.raises(BallBudgetError, match="^25 pairs exceed the budget 24$"):
        defect_ball(F_AB, 10**9, pair_budget=24)


# --- homogenization ---------------------------------------------------------------


def test_homogenize_examples():
    assert homogenize(F_AB, F2.parse("ab")) == 1
    assert homogenize(F_AB, F2.parse("ba")) == 1  # conjugate orbit, same growth
    assert homogenize(F_AB, F2.parse("a")) == 0
    assert homogenize(F_AB, F2.identity()) == 0
    assert homogenize(F_AB, F2.parse("(ab)^2")) == 2
    assert homogenize(F_AB, F2.parse("BA")) == -1


def test_homogenize_homomorphism_is_exponent():
    for text in ["a", "ab", "aab", "Ab^3"]:
        w = F2.parse(text)
        assert homogenize(F_A, w) == w.exponent_vector()[0]


def test_homogenize_oscillation_detected():
    f_aa = Quasimorphism([(1, F2.parse("aa"))])
    with pytest.raises(HomogenizationError):
        homogenize(f_aa, F2.parse("a"))
    with pytest.raises(HomogenizationError):
        homogenize(f_aa, F2.parse("a^3"))


def test_homogenize_respects_square():
    f_aa = Quasimorphism([(1, F2.parse("aa"))])
    assert homogenize(f_aa, F2.parse("a^2")) == 1


# --- coboundaries -----------------------------------------------------------------


def test_delta_of_quasimorphism_is_defect_expression():
    df = delta_b(as_cochain(F_AB))
    x, y = F2.parse("a"), F2.parse("b")
    assert df(x, y) == F_AB(y) - F_AB(x * y) + F_AB(x)
    assert abs(df(x, y)) <= defect_ball(F_AB, 1)


def test_delta_k2_formula():
    g = BoundedCochain(2, lambda x, y: Fraction(len(x) * len(y)))
    dg = delta_b(g)
    x, y, z = F2.parse("a"), F2.parse("ab"), F2.parse("b")
    expected = g(y, z) - g(x * y, z) + g(x, y * z) - g(x, y)
    assert dg(x, y, z) == expected


def test_delta_arity_checked():
    df = delta_b(as_cochain(F_AB))
    assert df.arity == 2
    with pytest.raises(ValueError):
        df(F2.parse("a"))


@given(letters_st, letters_st, letters_st)
def test_delta_delta_vanishes_on_1_cochains(r1, r2, r3):
    words = (F2.word(r1), F2.word(r2), F2.word(r3))
    ddf = delta_delta(as_cochain(F_AB))
    assert ddf.arity == 3
    assert ddf(*words) == 0


@given(letters_st, letters_st, letters_st, letters_st)
def test_delta_delta_vanishes_on_2_cochains(r1, r2, r3, r4):
    words = tuple(F2.word(r) for r in (r1, r2, r3, r4))
    base = BoundedCochain(
        2, lambda x, y: Fraction(len(x) - len(y)) + F_AB(x) * F_AB(y)
    )
    assert delta_delta(base)(*words) == 0


# --- independence ------------------------------------------------------------------


def test_independence_of_homomorphism_is_zero():
    tests = [F2.parse("a"), F2.parse("b"), F2.parse("ab")]
    assert independence_rank([F_A], tests) == 0


def test_independence_of_ab_counter():
    tests = [F2.parse("ab"), F2.parse("a"), F2.parse("b")]
    assert independence_rank([F_AB], tests) == 1


def test_independence_commutator_family():
    qms = []
    tests = []
    for i in range(1, 4):
        w = F2.parse(f"ab^{i}Ab^-{i}")
        qms.append(Quasimorphism([(1, w)]))
        tests.append(w)
    assert independence_rank(qms, tests) == 3
    # duplicating a quasimorphism adds nothing
    assert independence_rank(qms + [qms[0]], tests) == 3
    assert independence_rank([], tests) == 0
