"""Counting quasimorphisms on free groups, with exact rational arithmetic.

A counting function for a reduced pattern p counts non-overlapping
occurrences of p in a reduced word, scanning left to right (which attains
the maximum number of disjoint occurrences).  A quasimorphism here is a
finite rational combination of antisymmetrized counting functions,
optionally precomposed with a free-group homomorphism; antisymmetry
f(g^-1) = -f(g) holds exactly.

The module computes defects over balls (exactly, with an integer fast
path), homogenizes along powers, pulls back along homomorphisms, forms
coboundaries of bounded cochains, and measures linear independence modulo
homomorphisms over the rationals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, List, Optional, Sequence, Tuple

from mcgcert.words import Alphabet, AlphabetMismatch, FreeHom, Word, _invert, ball


class BallBudgetError(RuntimeError):
    """A defect computation would evaluate more pairs than its budget."""


class HomogenizationError(RuntimeError):
    """Power differences did not stabilize within the cap."""


def brooks_count(pattern: Word, word: Word) -> int:
    """Non-overlapping occurrences of ``pattern`` in ``word``, left to right.

    The greedy scan attains the maximum number of disjoint occurrences.
    """
    if pattern.is_identity:
        raise ValueError("pattern must be a nonempty reduced word")
    if pattern.alphabet.rank != word.alphabet.rank:
        raise AlphabetMismatch("pattern and word over different ambient ranks")
    return _count(pattern.letters, word.letters)


def _count(pattern: Tuple[int, ...], letters: Tuple[int, ...]) -> int:
    m = len(pattern)
    n = len(letters)
    count = 0
    i = 0
    while i + m <= n:
        if letters[i : i + m] == pattern:
            count += 1
            i += m
        else:
            i += 1
    return count


@dataclass(frozen=True)
class Quasimorphism:
    """A rational combination of antisymmetrized pattern counts.

    ``terms`` pairs a Fraction coefficient with a pattern word; the value on
    g is sum of coeff * (count(p, g) - count(p^-1, g)).  When ``precompose``
    is set, g is first mapped through it, so the domain is the
    homomorphism's domain.
    """

    terms: Tuple[Tuple[Fraction, Word], ...]
    precompose: Optional[FreeHom] = None

    def __init__(
        self,
        terms: Sequence[Tuple[object, Word]],
        precompose: Optional[FreeHom] = None,
    ):
        cooked: List[Tuple[Fraction, Word]] = []
        rank = None
        for coeff, pattern in terms:
            if pattern.is_identity:
                raise ValueError("patterns must be nonempty reduced words")
            if rank is None:
                rank = pattern.alphabet.rank
            elif pattern.alphabet.rank != rank:
                raise AlphabetMismatch("patterns over different ambient ranks")
            cooked.append((Fraction(coeff), pattern))
        if not cooked:
            raise ValueError("a quasimorphism needs at least one term")
        if precompose is not None and precompose.codomain.rank != rank:
            raise AlphabetMismatch(
                "precompose codomain does not match the pattern alphabet"
            )
        object.__setattr__(self, "terms", tuple(cooked))
        object.__setattr__(self, "precompose", precompose)

    @property
    def domain(self) -> Alphabet:
        if self.precompose is not None:
            return self.precompose.domain
        return self.terms[0][1].alphabet

    @property
    def pattern_alphabet(self) -> Alphabet:
        return self.terms[0][1].alphabet

    def __call__(self, word: Word) -> Fraction:
        if word.alphabet.rank != self.domain.rank:
            raise AlphabetMismatch("word outside the quasimorphism's domain")
        if self.precompose is not None:
            word = self.precompose(word)
        total = Fraction(0)
        for coeff, pattern in self.terms:
            total += coeff * (
                _count(pattern.letters, word.letters)
                - _count(_invert(pattern.letters), word.letters)
            )
        return total

    def pullback(self, hom: FreeHom) -> "Quasimorphism":
        """The composite g -> self(hom(g)); precompositions accumulate."""
        if hom.codomain.rank != self.domain.rank:
            raise AlphabetMismatch("homomorphism codomain does not match domain")
        if self.precompose is not None:
            combined = self.precompose.compose(hom)
        else:
            combined = hom
        return Quasimorphism(self.terms, precompose=combined)


def defect_ball(
    qm: Quasimorphism, radius: int, pair_budget: int = 3_000_000
) -> Fraction:
    """max |f(xy) - f(x) - f(y)| over all pairs from the ball of the radius.

    Exact: coefficients are scaled to integers, the maximum is taken in
    integer arithmetic, and the result is divided back down.  The number of
    pairs is |ball|^2; exceeding ``pair_budget`` raises
    :class:`BallBudgetError`.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    domain_ball = ball(qm.domain, radius)
    pairs = len(domain_ball) * len(domain_ball)
    if pairs > pair_budget:
        raise BallBudgetError(
            f"{pairs} pairs exceed the budget {pair_budget}"
        )
    scale = lcm(*(coeff.denominator for coeff, _ in qm.terms))
    int_terms = [
        (int(coeff * scale), pattern.letters, _invert(pattern.letters))
        for coeff, pattern in qm.terms
    ]

    def value(letters: Tuple[int, ...]) -> int:
        total = 0
        for c, pat, ipat in int_terms:
            total += c * (_count(pat, letters) - _count(ipat, letters))
        return total

    # work with images so the precomposition is applied once per ball element
    if qm.precompose is not None:
        images = [qm.precompose(w) for w in domain_ball]
    else:
        images = list(domain_ball)
    values = [value(w.letters) for w in images]
    worst = 0
    for i, x in enumerate(images):
        fx = values[i]
        for j, y in enumerate(images):
            d = value((x * y).letters) - fx - values[j]
            if d < 0:
                d = -d
            if d > worst:
                worst = d
    return Fraction(worst, scale)


def homogenize(qm: Quasimorphism, word: Word, cap: int = 64) -> Fraction:
    """Limit of f(g^m)/m, detected by stabilizing successive differences.

    Computes d_m = f(g^(m+1)) - f(g^m) and returns the first value taken by
    three consecutive equal differences.  Counting functions are eventually
    arithmetic along powers, so this terminates for them; oscillating
    differences raise :class:`HomogenizationError` at the cap.
    """
    if word.is_identity:
        return Fraction(0)
    prev = qm(word)
    diffs: deque = deque(maxlen=3)
    power = word
    for _ in range(cap):
        power = power * word
        cur = qm(power)
        diffs.append(cur - prev)
        prev = cur
        if len(diffs) == 3 and diffs[0] == diffs[1] == diffs[2]:
            return diffs[0]
    raise HomogenizationError(
        f"differences did not stabilize within {cap} powers"
    )


# ---------------------------------------------------------------------------
# bounded cochains


@dataclass(frozen=True)
class BoundedCochain:
    """A k-cochain: a rational-valued function of k group elements."""

    arity: int
    fn: Callable[..., Fraction]

    def __call__(self, *words: Word) -> Fraction:
        if len(words) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(words)}")
        return Fraction(self.fn(*words))


def delta_b(cochain: BoundedCochain) -> BoundedCochain:
    """The simplicial coboundary, sending a k-cochain to a (k+1)-cochain.

    (d f)(x_0, ..., x_k) = f(x_1, ..., x_k)
        + sum_{i=1..k} (-1)^i f(x_0, ..., x_{i-1} x_i, ..., x_k)
        + (-1)^{k+1} f(x_0, ..., x_{k-1})
    """
    k = cochain.arity

    def df(*words: Word) -> Fraction:
        total = cochain(*words[1:])
        for i in range(1, k + 1):
            merged = words[: i - 1] + (words[i - 1] * words[i],) + words[i + 1 :]
            total += (-1) ** i * cochain(*merged)
        total += (-1) ** (k + 1) * cochain(*words[:-1])
        return total

    return BoundedCochain(arity=k + 1, fn=df)


def delta_delta(cochain: BoundedCochain) -> BoundedCochain:
    """The composite of two coboundaries; identically zero."""
    return delta_b(delta_b(cochain))


def as_cochain(qm: Quasimorphism) -> BoundedCochain:
    """View a quasimorphism as a 1-cochain, so delta_b gives its coboundary."""
    return BoundedCochain(arity=1, fn=qm)


# ---------------------------------------------------------------------------
# independence


def _rational_rank(rows: List[List[Fraction]]) -> int:
    """Rank over the rationals by Gaussian elimination."""
    if not rows:
        return 0
    m = [row[:] for row in rows]
    cols = len(m[0])
    rank = 0
    for col in range(cols):
        pivot = next(
            (i for i in range(rank, len(m)) if m[i][col] != 0), None
        )
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def independence_rank(
    qms: Sequence[Quasimorphism],
    tests: Sequence[Word],
    homomorphism_rows: Optional[Sequence[Sequence[Fraction]]] = None,
) -> int:
    """Dimension the quasimorphisms add beyond homomorphisms, on the tests.

    Rows of evaluations on the test words are stacked on top of the rows of
    the exponent-sum homomorphisms; the result is rank(stacked) minus
    rank(homomorphism rows alone).  It lower-bounds the dimension of the
    span of the quasimorphisms in the quotient of quasimorphisms by
    homomorphisms.

    ``homomorphism_rows`` replaces the default exponent-sum rows; pass the
    evaluations of a different homomorphism family (one row per
    homomorphism, one column per test word) to quotient by that family
    instead — e.g. the coordinate functionals of a subgroup when the test
    words range over it.
    """
    if not qms or not tests:
        return 0
    rank = tests[0].alphabet.rank
    for t in tests:
        if t.alphabet.rank != rank:
            raise AlphabetMismatch("test words over different ambient ranks")
    if homomorphism_rows is None:
        hom_rows = [
            [Fraction(t.exponent_vector()[i]) for t in tests]
            for i in range(rank)
        ]
    else:
        hom_rows = [[Fraction(x) for x in row] for row in homomorphism_rows]
        for row in hom_rows:
            if len(row) != len(tests):
                raise ValueError("homomorphism row length != number of tests")
    qm_rows = [[qm(t) for t in tests] for qm in qms]
    stacked = _rational_rank(qm_rows + hom_rows)
    homs = _rational_rank(hom_rows)
    return stacked - homs
