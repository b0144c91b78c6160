"""Todd-Coxeter indices against sympy's coset enumeration.

The presentations are finite Coxeter groups, small symmetric groups and the
punctured-sphere presentations of :mod:`mcgcert.constructions`, with fixed
subgroups and with Hypothesis-drawn ones.  Every subgroup here has finite
index, so both enumerations terminate.  sympy is only the oracle here; the
package itself uses the standard library alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcert.constructions import punctured_sphere_presentation
from mcgcert.fpgroup import Presentation, todd_coxeter
from mcgcert.words import Alphabet

FpGroup = pytest.importorskip("sympy.combinatorics.fp_groups").FpGroup
free_group = pytest.importorskip("sympy.combinatorics.free_groups").free_group


def presentation(rank, relators):
    alphabet = Alphabet(rank)
    return Presentation(alphabet, [alphabet.parse(r) for r in relators])


def coxeter(rank, m):
    """Coxeter presentation: s_i^2, and (s_i s_j)^m[i, j] for i < j (2 when
    the pair is not listed)."""
    names = "abcdef"[:rank]
    rels = [x + x for x in names]
    for i in range(rank):
        for j in range(i + 1, rank):
            rels.append(f"({names[i]}{names[j]})^{m.get((i, j), 2)}")
    return presentation(rank, rels)


A3 = coxeter(3, {(0, 1): 3, (1, 2): 3})  # S_4, order 24
B3 = coxeter(3, {(0, 1): 4, (1, 2): 3})  # order 48
H3 = coxeter(3, {(0, 1): 5, (1, 2): 3})  # order 120
A4 = coxeter(4, {(0, 1): 3, (1, 2): 3, (2, 3): 3})  # S_5, order 120
S3 = presentation(2, ["a^2", "b^3", "(ab)^2"])
S4 = presentation(2, ["a^2", "b^4", "(ab)^3"])  # S_4 as the (2, 3, 4) triangle group


def sympy_index(p, subgroup):
    """Index by sympy's relator-based (HLT) coset enumeration."""
    free = free_group(" ".join(p.alphabet.display_names))
    gens = free[1:]

    def word(w):
        out = free[0].identity
        for x in w.letters:
            out = out * (gens[x - 1] if x > 0 else gens[-x - 1] ** -1)
        return out

    return FpGroup(free[0], [word(r) for r in p.relators]).index([word(g) for g in subgroup])


def pure_generators(alphabet, n):
    """A_ij = (w_{j-1} ... w_{i+1}) w_i^2 (w_{j-1} ... w_{i+1})^-1."""
    gens = []
    for i in range(1, n):
        for j in range(i + 1, n):
            conj = tuple(range(j - 1, i, -1))
            gens.append(alphabet.word(conj + (i, i) + tuple(-x for x in reversed(conj))))
    return gens


@pytest.mark.parametrize(
    "p, subgroup",
    [
        (S3, []),
        (S3, ["a"]),
        (S3, ["b"]),
        (S4, []),
        (S4, ["b"]),
        (S4, ["ab", "b^2"]),
        (A3, []),
        (A3, ["a", "b"]),
        (A3, ["ac"]),
        (B3, []),
        (B3, ["b", "c"]),
        (B3, ["abab"]),
        (H3, []),
        (H3, ["a", "c"]),
        (A4, []),
        (A4, ["a", "b", "c"]),
        (A4, ["bd", "abc"]),
    ],
)
def test_index_matches_sympy_on_finite_groups(p, subgroup):
    words = [p.alphabet.parse(g) for g in subgroup]
    assert todd_coxeter(p, words).index == sympy_index(p, words)


@pytest.mark.parametrize(
    "n, squares, index",
    [(4, False, 24), (4, True, 24), (5, False, 120)],
)
def test_index_matches_sympy_on_punctured_spheres(n, squares, index):
    # <a^2, b^2> only at n = 4: at n = 5 its image in H1 of the pure
    # subgroup (Z^5) has rank at most 2, so its index is infinite
    p = punctured_sphere_presentation(n)
    if squares:
        words = [p.alphabet.parse("aa"), p.alphabet.parse("bb")]
    else:
        words = pure_generators(p.alphabet, n)
    assert todd_coxeter(p, words).index == sympy_index(p, words) == index


@st.composite
def finite_subgroup_st(draw):
    """A finite presentation and up to three random words as subgroup
    generators; the index divides the group order, so it is finite."""
    p = draw(st.sampled_from((S3, S4, A3, B3)))
    rank = p.alphabet.rank
    letter = st.integers(-rank, rank).filter(bool)
    words = draw(st.lists(st.lists(letter, max_size=6).map(p.alphabet.word), max_size=3))
    return p, words


@settings(max_examples=40, deadline=None)
@given(finite_subgroup_st())
def test_index_matches_sympy_on_random_subgroups(data):
    p, words = data
    assert todd_coxeter(p, words).index == sympy_index(p, words)
