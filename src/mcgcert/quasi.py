"""Counting quasimorphisms on free groups, with exact rational arithmetic.

A counting function for a reduced pattern p counts non-overlapping
occurrences of p in a reduced word, scanning left to right (which attains
the maximum number of disjoint occurrences).  A quasimorphism here is a
finite rational combination of antisymmetrized counting functions,
optionally precomposed with a free-group homomorphism; antisymmetry
f(g^-1) = -f(g) holds exactly.

The module computes defects over balls (exactly, in integers scaled from
the coefficients), homogenizes along powers, pulls back along
homomorphisms, forms coboundaries of bounded cochains, and measures linear
independence modulo homomorphisms over the rationals.

Defects from the seams.  When no pattern overlaps a proper shift of itself
(no proper suffix equals a prefix), the greedy count is the plain count of
windows, so f is additive up to the windows across a seam.  Let m be the
longest pattern length and write x = x'u, y = u^-1 y' with x'y' reduced.
The windows inside x', u and y' cancel (f(u^-1) = -f(u)), leaving

    f(xy) - f(x) - f(y) = J(x', y') - J(x', u) - J(u^-1, y'),

where J(s, t) is the signed count of pattern windows across the seam of
st.  J reads only the last m-1 letters of s and the first m-1 of t, so
:func:`defect_ball` maximizes over triples of such ends instead of over
pairs of the ball; a triple fits in the ball of radius R when
|x'| + |u| <= R and |u| + |y'| <= R.  Every triple of ends fits once
R >= 2(m-1), so from there on the ball defect is the defect on all of F_k:
these functions are genuine quasimorphisms, with an exact defect.  A
precomposition or a self-overlapping pattern (``aa``, ``aba``) breaks the
argument, and those defects are computed pair by pair.
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


# A pair count is computed exactly unless a lower bound on it already has
# more bits than this and than the budget: a huge radius costs no huge power.
_EXACT_PAIR_BITS = 4096


def _ball_size(rank: int, radius: int) -> int:
    """|ball(F_rank, radius)| in closed form: 1 + 2k((2k-1)^r - 1)/(2k-2)."""
    if rank <= 1:
        return 1 + 2 * rank * radius
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**radius - 1) // (q - 1)


def _check_pair_budget(rank: int, radius: int, pair_budget: int) -> None:
    """Raise :class:`BallBudgetError` when |ball|^2 exceeds the budget,
    without building a word."""
    # For rank >= 2 the pair count exceeds (2k-1)^(2r) >= 2^bits.
    bits = radius * (2 * rank - 1).bit_length() if rank >= 2 else 0
    if bits > max(_EXACT_PAIR_BITS, pair_budget.bit_length()):
        raise BallBudgetError(
            f"more than 2^{bits} pairs exceed the budget {pair_budget}"
        )
    pairs = _ball_size(rank, radius) ** 2
    if pairs > pair_budget:
        raise BallBudgetError(f"{pairs} pairs exceed the budget {pair_budget}")


def _overlaps_itself(pattern: Tuple[int, ...]) -> bool:
    """Whether a proper suffix of the pattern equals a prefix."""
    m = len(pattern)
    return any(pattern[k:] == pattern[: m - k] for k in range(1, m))


def _scaled_terms(
    qm: Quasimorphism,
) -> Tuple[int, List[Tuple[int, Tuple[int, ...]]]]:
    """(scale, signed terms): integer coefficients times scale, one term per
    pattern and one, negated, per inverse pattern."""
    scale = lcm(*(coeff.denominator for coeff, _ in qm.terms))
    terms = []
    for coeff, pattern in qm.terms:
        c = int(coeff * scale)
        terms.append((c, pattern.letters))
        terms.append((-c, _invert(pattern.letters)))
    return scale, terms


def _pair_defect(qm: Quasimorphism, radius: int) -> Fraction:
    """The ball defect pair by pair: every product of two ball elements."""
    scale, terms = _scaled_terms(qm)

    def value(letters: Tuple[int, ...]) -> int:
        return sum(c * _count(pat, letters) for c, pat in terms)

    # work with images so the precomposition is applied once per ball element
    domain_ball = ball(qm.domain, radius)
    if qm.precompose is not None:
        images = [qm.precompose(w) for w in domain_ball]
    else:
        images = domain_ball
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


def _seam_defect(qm: Quasimorphism, radius: int) -> Fraction:
    """The ball defect from the windows across the seams of x'u, u^-1 y', x'y'.

    Needs patterns that overlap no shift of themselves and no precompose;
    see the module docstring for why it is exact.  A window across the seam
    of st matches a pattern split p = head + tail when s ends with head and
    t starts with tail, so J(s, t) = sum of c over the splits in
    heads(s) & tails(t).  Ends with the same splits, the same end letter and
    a greater length add no triple, so each role keeps one shortest end per
    class.
    """
    scale, terms = _scaled_terms(qm)
    splits = [
        (c, pat[:j], pat[j:]) for c, pat in terms for j in range(1, len(pat))
    ]

    def heads(s: Tuple[int, ...]) -> frozenset:
        return frozenset(
            k for k, (_, head, _) in enumerate(splits) if s[-len(head) :] == head
        )

    def tails(t: Tuple[int, ...]) -> frozenset:
        return frozenset(
            k for k, (_, _, tail) in enumerate(splits) if t[: len(tail)] == tail
        )

    m = max(len(pat) for _, pat in terms)
    lefts: dict = {}  # (heads(x'), last letter) -> shortest |x'|
    rights: dict = {}  # (tails(y'), first letter) -> shortest |y'|
    middles: dict = {}  # (tails(u), heads(u^-1), first letter) -> shortest |u|
    # ball is ordered by length, so setdefault keeps the shortest end
    for w in ball(qm.domain, min(m - 1, radius)):
        s = w.letters
        first, last = (s[0], s[-1]) if s else (0, 0)
        lefts.setdefault((heads(s), last), len(s))
        rights.setdefault((tails(s), first), len(s))
        middles.setdefault((tails(s), heads(_invert(s)), first), len(s))

    seams: dict = {}

    def across(a: frozenset, b: frozenset) -> int:
        key = (a, b)
        if key not in seams:
            seams[key] = sum(splits[k][0] for k in a & b)
        return seams[key]

    worst = 0
    for (x_heads, x_last), x_len in lefts.items():
        for (u_tails, ui_heads, u_first), u_len in middles.items():
            if x_len + u_len > radius or (x_last and x_last == -u_first):
                continue  # too long, or x = x'u not reduced
            xu = across(x_heads, u_tails)
            for (y_tails, y_first), y_len in rights.items():
                if u_len + y_len > radius:
                    continue
                if (u_first and u_first == y_first) or (x_last and x_last == -y_first):
                    continue  # y = u^-1 y' not reduced, or cancellation beyond u
                d = across(x_heads, y_tails) - xu - across(ui_heads, y_tails)
                if d < 0:
                    d = -d
                if d > worst:
                    worst = d
    return Fraction(worst, scale)


def defect_ball(
    qm: Quasimorphism, radius: int, pair_budget: int = 3_000_000
) -> Fraction:
    """max |f(xy) - f(x) - f(y)| over all pairs x, y of the ball of the radius.

    Exact: coefficients are scaled to integers, the maximum is taken in
    integer arithmetic, and the result is divided back down.

    Without ``precompose`` and when no pattern overlaps a proper shift of
    itself, the maximum comes from the seam windows (see the module
    docstring): the cost depends on the longest pattern length m, not on
    the radius, and for radius >= 2(m - 1) the result is the defect on all
    of F_k.  Otherwise every pair of the ball is evaluated.

    The budget bounds |ball|^2 for the ball the chosen path enumerates: the
    ends of radius min(m - 1, radius) on the seam path, the whole ball on
    the pair path.  It is checked before any word is built; exceeding
    ``pair_budget`` raises :class:`BallBudgetError`.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    patterns = [pattern.letters for _, pattern in qm.terms]
    seams = qm.precompose is None and not any(map(_overlaps_itself, patterns))
    ends = min(max(map(len, patterns)) - 1, radius) if seams else radius
    _check_pair_budget(qm.domain.rank, ends, pair_budget)
    return _seam_defect(qm, radius) if seams else _pair_defect(qm, radius)


def homogenize(qm: Quasimorphism, word: Word, cap: int = 64) -> Fraction:
    """Limit of f(g^m)/m, detected by stabilizing successive differences.

    Computes d_m = f(g^(m+1)) - f(g^m) and returns the first value taken by
    three consecutive equal differences, or raises
    :class:`HomogenizationError` at the cap.  For a self-overlapping pattern
    the differences can alternate forever: ``aa`` at ``a`` and ``aba`` at
    ``ab`` raise although both limits are 1/2.
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
