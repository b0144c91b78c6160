"""Subgroup graphs: folding, membership, invariants, bases, intersections."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcert.stallings import (
    GraphInvariants,
    InfiniteIndexError,
    SubgroupGraph,
    from_coset_action,
    subgroup_graph,
)
from mcgcert.words import Alphabet, AlphabetMismatch, ball

F2 = Alphabet(2)
TWIST = Alphabet(2, names="cd")


def twist_gens(n):
    """d, cdc^-1, ..., c^(n-2) d c^-(n-2), c^(n-1) — kernel of the mod-(n-1)
    count of c, which gives an independent membership oracle."""
    c, d = TWIST.generators()
    return [c**j * d * c**-j for j in range(n - 1)] + [c ** (n - 1)]


G4 = subgroup_graph(TWIST, twist_gens(4))
G3 = subgroup_graph(TWIST, twist_gens(3))
LAMBDA2 = subgroup_graph(F2, [F2.parse("a^2"), F2.parse("b"), F2.parse("abA")])
ROSE = subgroup_graph(F2, list(F2.generators()))

words_st = st.builds(
    F2.word,
    st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=6),
)
gens_st = st.lists(words_st, min_size=0, max_size=5)


# --- frozen examples --------------------------------------------------------


def test_twist4_invariants():
    assert G4.invariants() == GraphInvariants(vertices=3, edges=6, rank=4, index=3)


def test_twist4_basis():
    assert [str(w) for w in G4.basis()] == ["d", "ccc", "cdC", "Cdc"]


def test_twist4_coset_action():
    action = G4.coset_action()
    assert action[1] == (1, 2, 0)
    assert action[-1] == (2, 0, 1)
    assert action[2] == (0, 1, 2)


def test_twist4_membership_matches_count_oracle():
    # index-3 normal subgroup: w is a member iff its c-exponent is 0 mod 3
    for w in ball(TWIST, 5):
        assert G4.member(w) == (w.exponent_vector()[0] % 3 == 0)


def test_lambda2_invariants_and_basis():
    assert LAMBDA2.invariants() == GraphInvariants(vertices=2, edges=4, rank=3, index=2)
    assert [str(w) for w in LAMBDA2.basis()] == ["AA", "b", "abA"]
    for w in ball(F2, 5):
        assert LAMBDA2.member(w) == (w.exponent_vector()[0] % 2 == 0)


def test_intersection_twist3_twist4():
    meet = G3.intersect(G4)
    inv = meet.invariants()
    assert inv.index == 6  # lcm of 2 and 3, realized exactly
    assert inv.rank == 7  # Nielsen-Schreier: 6 * (2 - 1) + 1
    for w in ball(TWIST, 6):
        assert meet.member(w) == (w.exponent_vector()[0] % 6 == 0)


def test_containment():
    meet = G3.intersect(G4)
    assert G3.contains(meet) and G4.contains(meet)
    assert not G4.contains(G3)
    assert ROSE.contains(G4)
    trivial = subgroup_graph(F2, [])
    assert G4.contains(trivial)  # over TWIST/F2: same rank, names cosmetic
    assert not trivial.contains(LAMBDA2)


def test_trivial_subgroup():
    trivial = subgroup_graph(F2, [])
    assert trivial.invariants() == GraphInvariants(0 + 1, 0, 0, None)
    assert trivial.member(F2.identity())
    assert not trivial.member(F2.parse("a"))
    assert trivial.basis() == []
    assert trivial.express(F2.identity()).is_identity


def test_infinite_index():
    g = subgroup_graph(F2, [F2.parse("a")])
    assert g.invariants() == GraphInvariants(1, 1, 1, None)
    assert g.member(F2.parse("a^5"))
    assert not g.member(F2.parse("b"))
    with pytest.raises(InfiniteIndexError):
        g.coset_action()


def test_rose_is_identity_for_intersection():
    assert ROSE.intersect(G4) == G4
    assert ROSE.intersect(LAMBDA2) == LAMBDA2
    assert G4.intersect(ROSE) == G4


def test_alphabet_rank_mismatch():
    F3a = Alphabet(3)
    with pytest.raises(AlphabetMismatch):
        G4.member(F3a.parse("a"))
    with pytest.raises(AlphabetMismatch):
        G4.intersect(subgroup_graph(F3a, [F3a.parse("abc")]))


def test_coset_action_round_trip():
    assert from_coset_action(TWIST, G4.coset_action()) == G4
    assert from_coset_action(F2, LAMBDA2.coset_action()) == LAMBDA2


def test_from_coset_action_validation():
    with pytest.raises(ValueError):
        from_coset_action(F2, {1: [0, 0], 2: [0, 1]})  # not a permutation
    with pytest.raises(ValueError):
        from_coset_action(F2, {1: [0, 1], 2: [0, 1]})  # not transitive
    with pytest.raises(ValueError):
        from_coset_action(F2, {1: [1, 0], -1: [1, 0], 2: [1, 0], -2: [0, 1]})
    with pytest.raises(ValueError):
        from_coset_action(F2, {1: [0, 1]})  # letter 2 missing


# --- randomized properties ---------------------------------------------------


@given(gens_st, st.randoms(use_true_random=False))
def test_folding_is_order_and_inversion_invariant(gens, rnd):
    reference = subgroup_graph(F2, gens)
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    shuffled = [w.inverse() if rnd.random() < 0.5 else w for w in shuffled]
    assert subgroup_graph(F2, shuffled) == reference


@given(gens_st, st.lists(st.integers(min_value=-5, max_value=5), max_size=6))
def test_generator_products_are_members(gens, picks):
    g = subgroup_graph(F2, gens)
    w = F2.identity()
    for p in picks:
        if p != 0 and gens:
            w = w * gens[(abs(p) - 1) % len(gens)] ** (1 if p > 0 else -1)
    assert g.member(w)


@given(gens_st, st.lists(st.integers(min_value=-5, max_value=5), max_size=6))
def test_express_round_trip(gens, picks):
    g = subgroup_graph(F2, gens)
    w = F2.identity()
    for p in picks:
        if p != 0 and gens:
            w = w * gens[(abs(p) - 1) % len(gens)] ** (1 if p > 0 else -1)
    basis = g.basis()
    e = g.express(w)
    assert e is not None
    back = F2.identity()
    for s in e.letters:
        back = back * basis[abs(s) - 1] ** (1 if s > 0 else -1)
    assert back == w


@given(gens_st)
def test_express_rejects_nonmembers(gens):
    g = subgroup_graph(F2, gens)
    for w in ball(F2, 3):
        if not g.member(w):
            assert g.express(w) is None


@given(gens_st)
def test_basis_regenerates_the_same_graph(gens):
    g = subgroup_graph(F2, gens)
    inv = g.invariants()
    basis = g.basis()
    assert len(basis) == inv.rank
    assert subgroup_graph(F2, basis) == g


B4 = ball(F2, 4)


@settings(max_examples=30, deadline=None)
@given(gens_st, gens_st)
def test_intersection_language_agreement(gens1, gens2):
    g1 = subgroup_graph(F2, gens1)
    g2 = subgroup_graph(F2, gens2)
    meet = g1.intersect(g2)
    for w in B4:
        assert meet.member(w) == (g1.member(w) and g2.member(w))


@st.composite
def transitive_action_st(draw):
    # restrict two random permutations to the orbit of 0 and renumber it,
    # so every draw is transitive and none is rejected
    k = draw(st.integers(min_value=1, max_value=7))
    perms = [draw(st.permutations(range(k))) for _ in range(2)]
    orbit = [0]
    for v in orbit:
        for p in perms:
            if p[v] not in orbit:
                orbit.append(p[v])
    number = {v: i for i, v in enumerate(orbit)}
    action = {i + 1: [number[p[v]] for v in orbit] for i, p in enumerate(perms)}
    return len(orbit), action


@given(transitive_action_st())
def test_schreier_index_formula_on_random_actions(data):
    k, perms = data
    g = from_coset_action(F2, perms)
    inv = g.invariants()
    assert inv.index == k
    assert inv.rank == k * (2 - 1) + 1
    # the recovered action is the input action up to the standard renumbering
    action = g.coset_action()
    assert sorted(action[1]) == list(range(k))


@given(gens_st)
def test_members_whole_ball_against_regenerated_subgroup(gens):
    # membership is a subgroup invariant: graph built from any generating
    # set of the same subgroup answers identically
    g = subgroup_graph(F2, gens)
    doubled = subgroup_graph(F2, gens + [w**2 for w in gens])
    for w in ball(F2, 3):
        assert g.member(w) == doubled.member(w)
