"""Word algebra: free reduction, roots, homomorphisms, parsing."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcert.words import (
    Alphabet,
    AlphabetMismatch,
    MAX_WORD_LETTERS,
    FreeHom,
    ParseError,
    Word,
    ball,
    parse_word,
)

F2 = Alphabet(2)
F3 = Alphabet(3)


# --- independent oracles ---------------------------------------------------


def naive_reduce(letters):
    """Fixpoint of single-pair cancellation; independent of the stack scan."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def brute_force_root(w, k, search_radius):
    roots = [v for v in ball(w.alphabet, search_radius) if v**k == w]
    assert len(roots) <= 1  # roots in free groups are unique
    return roots[0] if roots else None


def is_proper_power(word):
    L = word.letters
    n = len(L)
    for d in range(1, n):
        if n % d == 0 and L[:d] * (n // d) == L:
            return True
    return False


letters_st = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=12
)


# --- reduction -------------------------------------------------------------


def test_reduce_examples():
    assert F2.word([1, -1]).letters == ()
    assert F2.word([1, 2, -2, -1]).letters == ()
    assert F2.word([1, 2, -2, 1]).letters == (1, 1)
    assert F2.word([]).is_identity


def test_reduce_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        F2.word([3])
    with pytest.raises(ValueError):
        F2.word([0])


@given(letters_st)
def test_reduce_matches_naive_oracle(raw):
    assert F2.word(raw).letters == naive_reduce(raw)


@given(letters_st)
def test_reduce_idempotent_and_nonincreasing(raw):
    w = F2.word(raw)
    assert F2.word(w.letters).letters == w.letters
    assert len(w) <= len(raw)


# --- multiplication --------------------------------------------------------


def test_multiply_and_inverse():
    a, b = F2.generators()
    assert (a * b * ~b * ~a).is_identity
    assert (a * b).inverse() == ~b * ~a
    assert a**3 * a**-3 == F2.identity()
    assert (a * b) ** 2 == F2.parse("abab")


def test_multiply_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        F2.generator(1) * F3.generator(1)


def test_associativity_exhaustive_radius3():
    words = ball(F2, 3)
    for u in words:
        for v in words:
            uv = u * v
            for w in words:
                assert (uv * w) == (u * (v * w))


B4 = ball(F2, 4)


@settings(max_examples=300)
@given(st.sampled_from(B4), st.sampled_from(B4), st.sampled_from(B4))
def test_associativity_sampled_radius4(u, v, w):
    assert (u * v) * w == u * (v * w)


# --- cyclic reduction and roots ---------------------------------------------


def test_cyclic_reduce_examples():
    w = F2.parse("abA")
    conj, core = w.cyclic_reduce()
    assert conj == F2.parse("a") and core == F2.parse("b")
    assert conj * core * ~conj == w
    conj, core = F2.parse("ab").cyclic_reduce()
    assert conj.is_identity and core == F2.parse("ab")
    conj, core = F2.identity().cyclic_reduce()
    assert conj.is_identity and core.is_identity


@given(letters_st)
def test_cyclic_reduce_property(raw):
    w = F2.word(raw)
    conj, core = w.cyclic_reduce()
    assert core.is_cyclically_reduced
    assert conj * core * ~conj == w


def test_kth_root_examples():
    ab = F2.parse("ab")
    assert (ab**3).kth_root(3) == ab
    w = F2.parse("ab^4A")
    assert w.kth_root(2) == F2.parse("ab^2A")
    assert w.kth_root(2) == brute_force_root(w, 2, 4)
    assert ab.kth_root(2) is None
    assert F2.parse("aab").kth_root(3) is None


def test_kth_root_identity_and_bad_k():
    eps = F2.identity()
    for k in (1, 2, 5):
        assert eps.kth_root(k) == eps
    with pytest.raises(ValueError):
        F2.parse("a").kth_root(0)
    with pytest.raises(ValueError):
        F2.parse("a").kth_root(-2)


def test_kth_root_recovers_base_exhaustively():
    for v in ball(F2, 4):
        if v.is_identity or not v.is_cyclically_reduced or is_proper_power(v):
            continue
        for k in range(1, 6):
            assert (v**k).kth_root(k) == v


# --- homomorphisms ----------------------------------------------------------


def test_apply_hom_example():
    a, b = F2.generators()
    phi = FreeHom(F2, F2, (a, a * b))
    assert phi(F2.parse("bAB")) == F2.parse("abABA")
    assert phi(F2.identity()).is_identity


def test_hom_compose_and_identity():
    a, b = F2.generators()
    phi = FreeHom(F2, F2, (a, a * b))
    ident = FreeHom.identity(F2)
    assert phi.compose(ident).images == phi.images
    psi = phi.compose(phi)
    assert psi(b) == phi(phi(b))


def test_hom_validation():
    with pytest.raises(ValueError):
        FreeHom(F2, F2, (F2.generator(1),))
    with pytest.raises(AlphabetMismatch):
        FreeHom(F2, F2, (F3.generator(1), F3.generator(2)))


@given(letters_st, letters_st)
def test_hom_is_multiplicative(raw_u, raw_v):
    u, v = F2.word(raw_u), F2.word(raw_v)
    a, b = F2.generators()
    f = FreeHom(F2, F2, (a * b, ~a))
    assert f(u * v) == f(u) * f(v)


# --- exponent vectors -------------------------------------------------------


def test_exponent_vector_examples():
    assert F2.parse("abAB").exponent_vector() == (0, 0)
    assert F2.parse("a^3B^2").exponent_vector() == (3, -2)
    assert F2.identity().exponent_vector() == (0, 0)


@given(letters_st, letters_st)
def test_exponent_vector_additive(raw_u, raw_v):
    u, v = F2.word(raw_u), F2.word(raw_v)
    got = (u * v).exponent_vector()
    expect = tuple(x + y for x, y in zip(u.exponent_vector(), v.exponent_vector()))
    assert got == expect


# --- parsing and printing ---------------------------------------------------


def test_parse_basics():
    assert F2.parse("abAB").letters == (1, 2, -1, -2)
    assert F2.parse("a b  A\tB").letters == (1, 2, -1, -2)
    assert F2.parse("1").is_identity
    assert F2.parse("").is_identity
    assert F2.parse("a^3").letters == (1, 1, 1)
    assert F2.parse("a^-2").letters == (-1, -1)
    assert F2.parse("(ab)^2") == F2.parse("abab")
    assert F2.parse("(ab)^-1") == F2.parse("BA")
    assert F2.parse("(a(bA)^2)^-2") == (F2.parse("a(bA)^2")) ** -2
    assert F2.parse("aA").is_identity
    assert F2.parse("1^5").is_identity


def test_parse_errors():
    with pytest.raises(ParseError):
        F2.parse("c")  # rank 2: only a, b
    with pytest.raises(ParseError):
        F2.parse("a^")
    with pytest.raises(ParseError):
        F2.parse("(ab")
    with pytest.raises(ParseError):
        F2.parse("ab)")
    with pytest.raises(ParseError):
        F2.parse("a*b")
    err = None
    try:
        parse_word("a^x", F2, line=7)
    except ParseError as e:
        err = e
    assert err is not None and err.line == 7 and err.column is not None


def test_parse_caps_expanded_length():
    assert len(F2.parse("a^1000000").letters) == MAX_WORD_LETTERS
    for text in ("a^1000001", "(a^1000)^1001", "b(a^1000)^1000"):
        with pytest.raises(ParseError, match="expands to more than"):
            F2.parse(text)


def test_parse_exponent_longer_than_int_accepts():
    # int() refuses more than 4300 digits; the parser must not hand them over
    huge = "9" * 5000
    for text in ("a^" + huge, "(ab)^-" + huge, "b(a)^" + huge):
        with pytest.raises(ParseError, match="expands to more than"):
            F2.parse(text)
    # an empty base expands to nothing, however large its exponent
    assert F2.parse("1^" + huge) == F2.identity()
    assert F2.parse("a()^-" + huge) == F2.parse("a")
    assert F2.parse("a^" + "0" * 5000 + "3") == F2.parse("aaa")


def test_print_canonical_roundtrip():
    for text in ["1", "a", "AB", "abAB", "a^3", "(ab)^2", "b A  a"]:
        w = F2.parse(text)
        printed = str(w)
        assert "^" not in printed and "(" not in printed
        assert F2.parse(printed) == w
        assert str(F2.parse(printed)) == printed


def test_named_alphabet_parse_print():
    twist = Alphabet(2, names="cd")
    w = twist.parse("cdC")
    assert w.letters == (1, 2, -1)
    assert str(w) == "cdC"
    with pytest.raises(ParseError):
        twist.parse("ab")


def test_names_validation():
    with pytest.raises(ValueError):
        Alphabet(2, names=("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(2, names=("a", "B"))
    with pytest.raises(ValueError):
        Alphabet(3, names="ab")
    with pytest.raises(ValueError):
        Alphabet(0)


def test_words_equal_across_same_rank_names():
    # algebra keys on rank; names are display only
    twist = Alphabet(2, names="cd")
    assert twist.parse("cd") == F2.parse("ab")


def test_ball_sizes():
    assert len(ball(F2, 0)) == 1
    assert len(ball(F2, 1)) == 5
    assert len(ball(F2, 2)) == 17
    assert len(ball(F2, 3)) == 53
    assert all(w.letters == F2.word(w.letters).letters for w in ball(F2, 3))


def test_word_immutable_and_hashable():
    w = F2.parse("ab")
    with pytest.raises(AttributeError):
        w.letters = ()
    assert len({w, F2.parse("ab"), F2.parse("ba")}) == 2
