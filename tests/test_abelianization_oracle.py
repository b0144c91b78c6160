"""Abelianization against sympy's invariant factors of the relation matrix.

The presentations come in four kinds, by what the sparse unit-pivot phase of
:func:`abelianization` can do with them: every generator eliminated, none
eliminated, a known number eliminated, and random words.  sympy is only the
oracle here; the package itself uses the standard library alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcert.fpgroup import Presentation, abelianization, coset_table_from_ab
from mcgcert.words import Alphabet

sympy = pytest.importorskip("sympy")
invariant_factors = pytest.importorskip("sympy.matrices.normalforms").invariant_factors

# the kernel table of a finite quotient has one row per element
MAX_TABLE_ORDER = 5000


def power_word(alphabet, exponents):
    """The word g_1^e_1 g_2^e_2 ... for a dict {generator (1-based): e}."""
    letters = []
    for g, e in exponents.items():
        letters.extend([g if e > 0 else -g] * abs(e))
    return alphabet.word(letters)


def non_unit(exponents=(0, 0, 2, -2, 3, -3, 4)):
    return st.sampled_from(exponents)


@st.composite
def all_eliminated(draw):
    """Unit-triangular relators in a shuffled generator order, plus extras:
    each relator i is g_i^+-1 times a word in the generators after g_i."""
    rank = draw(st.integers(1, 5))
    alphabet = Alphabet(rank)
    order = draw(st.permutations(range(1, rank + 1)))
    rels = []
    for i, g in enumerate(order):
        tail = {h: draw(st.integers(-3, 3)) for h in order[i + 1 :]}
        rels.append(power_word(alphabet, {g: draw(st.sampled_from((1, -1))), **tail}))
    row = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    extra = draw(st.lists(row, max_size=3))
    rels.extend(power_word(alphabet, dict(zip(range(1, rank + 1), e))) for e in extra)
    order_of_rels = draw(st.permutations(range(len(rels))))
    return Presentation(alphabet, [rels[i] for i in order_of_rels]), 0


@st.composite
def none_eliminated(draw):
    """Relators whose exponent sums are never +-1."""
    rank = draw(st.integers(1, 4))
    alphabet = Alphabet(rank)
    count = draw(st.integers(0, 5))
    rels = [
        power_word(alphabet, {g: draw(non_unit()) for g in range(1, rank + 1)})
        for _ in range(count)
    ]
    return Presentation(alphabet, rels), rank


@st.composite
def some_eliminated(draw):
    """The first k generators each have one unit relator, g_i^+-1 times
    non-unit powers of the last rank - k generators, which carry non-unit
    relators of their own: exactly k generators are eliminated."""
    rank = draw(st.integers(2, 5))
    k = draw(st.integers(1, rank - 1))
    alphabet = Alphabet(rank)
    rest = range(k + 1, rank + 1)
    rels = [
        power_word(
            alphabet,
            {g: draw(st.sampled_from((1, -1))), **{h: draw(non_unit()) for h in rest}},
        )
        for g in range(1, k + 1)
    ]
    for _ in range(draw(st.integers(0, 4))):
        rels.append(power_word(alphabet, {h: draw(non_unit()) for h in rest}))
    return Presentation(alphabet, rels), rank - k


@st.composite
def random_words(draw):
    rank = draw(st.integers(1, 4))
    alphabet = Alphabet(rank)
    letter = st.integers(-rank, rank).filter(lambda x: x != 0)
    rels = draw(st.lists(st.lists(letter, max_size=8), max_size=5))
    return Presentation(alphabet, [alphabet.word(r) for r in rels]), None


presentations = st.one_of(
    all_eliminated(), none_eliminated(), some_eliminated(), random_words()
)


def sympy_invariants(p):
    """(free rank, moduli > 1) from sympy's invariant factors."""
    rank = p.alphabet.rank
    if not p.relators:
        return rank, ()
    columns = [w.exponent_vector() for w in p.relators]
    matrix = sympy.Matrix(rank, len(columns), lambda i, j: columns[j][i])
    factors = [abs(int(f)) for f in invariant_factors(matrix)]
    nonzero = [f for f in factors if f]
    return rank - len(nonzero), tuple(f for f in nonzero if f > 1)


@settings(max_examples=150, deadline=None)
@given(presentations)
def test_abelianization_matches_sympy(case):
    p, remaining = case
    ab = abelianization(p)
    assert (ab.free_rank, ab.moduli) == sympy_invariants(p)
    if remaining is not None:
        # one transform row per generator left after the unit-pivot phase
        assert len(ab._transform) == remaining


@settings(max_examples=100, deadline=None)
@given(presentations, st.data())
def test_projection_is_a_homomorphism_killing_relators(case, data):
    p, _ = case
    ab = abelianization(p)
    letter = st.integers(-p.rank, p.rank).filter(lambda x: x != 0)
    u = p.alphabet.word(data.draw(st.lists(letter, max_size=8)))
    v = p.alphabet.word(data.draw(st.lists(letter, max_size=8)))
    assert ab.project(u * v) == ab.project(u) + ab.project(v)
    assert ab.project(~u) == -ab.project(u)
    for rel in p.relators:
        assert ab.project(rel).is_zero
    order = ab.group_order()
    if order is not None and order <= MAX_TABLE_ORDER:
        assert coset_table_from_ab(ab).index == order
