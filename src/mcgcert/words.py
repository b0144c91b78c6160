"""Reduced-word algebra in finite-rank free groups.

Letters are nonzero integers: ``+i`` is the ``i``-th generator (1-based)
and ``-i`` its inverse.  Free reduction, multiplication, cyclic reduction,
root extraction, homomorphism application and exponent vectors all work on
this integer form.  Display names are attached to the alphabet and matter
only when parsing or printing; the algebra itself keys on rank alone.

Letter syntax (shared by every front end): lowercase letters are
generators, the matching uppercase letter is the inverse, ``^n`` attaches
an integer exponent to a letter or a parenthesized subword, whitespace is
ignored, and ``1`` (or the empty string) denotes the identity.  A word may
expand to at most :data:`MAX_WORD_LETTERS` letters.  Printing is
canonical: no exponents, no parentheses, identity printed as ``1``, so
``str(parse(s))`` is a fixed point of parse/print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"

# Longest word that letter syntax may expand to: ``^n`` repeats a subword,
# so a few bytes of text could otherwise ask for gigabytes.
MAX_WORD_LETTERS = 10**6


class AlphabetMismatch(ValueError):
    """Raised when operands live over alphabets of different rank."""


class ParseError(ValueError):
    """Raised on malformed word or presentation text; carries position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.reason = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}"
            if column is not None:
                where += f", column {column}"
        elif column is not None:
            where = f" at column {column}"
        super().__init__(message + where)


def _free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _concat_reduce(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # a and b are individually reduced, so cancellation happens at the seam only.
    i = len(a)
    j = 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _invert(letters: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def _cyclic_bounds(letters: Sequence[int]) -> tuple[int, int]:
    """(i, j) such that letters[i:j] is the cyclically reduced core of a
    reduced word and letters[:i] the conjugator around it."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return i, j


def _slot(letter: int) -> int:
    """Slot index of a signed letter: +1, -1, +2, -2, ... map to 0, 1, 2, 3, ...
    Table columns, breadth-first numberings and :func:`ball` use this order."""
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _slot_letter(slot: int) -> int:
    base = slot // 2 + 1
    return base if slot % 2 == 0 else -base


@dataclass(frozen=True)
class Alphabet:
    """A free-group alphabet: a rank plus optional display names.

    Names must be distinct single lowercase ascii letters; they default to
    a, b, c, ... for rank <= 26.  Alphabets of larger rank are legal but
    have no letter syntax (words over them print in a numeric fallback).
    """

    rank: int
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValueError(f"alphabet rank must be a positive integer, got {self.rank!r}")
        if self.names is not None:
            names = tuple(self.names)
            object.__setattr__(self, "names", names)
            if len(names) != self.rank:
                raise ValueError(f"expected {self.rank} names, got {len(names)}")
            for ch in names:
                if len(ch) != 1 or not ("a" <= ch <= "z"):
                    raise ValueError(f"generator name must be a single lowercase letter, got {ch!r}")
            if len(set(names)) != len(names):
                raise ValueError("generator names must be distinct")

    @property
    def display_names(self) -> tuple[str, ...] | None:
        if self.names is not None:
            return self.names
        if self.rank <= len(DEFAULT_NAMES):
            return tuple(DEFAULT_NAMES[: self.rank])
        return None

    def word(self, letters: Iterable[int] = ()) -> "Word":
        """Freely reduce a raw letter sequence into a Word over this alphabet."""
        seq = tuple(letters)
        for x in seq:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise ValueError(f"letter {x!r} outside alphabet of rank {self.rank}")
        return Word._make(self, _free_reduce(seq))

    def identity(self) -> "Word":
        return Word._make(self, ())

    def generator(self, i: int) -> "Word":
        if not 1 <= i <= self.rank:
            raise ValueError(f"generator index {i} outside alphabet of rank {self.rank}")
        return Word._make(self, (i,))

    def generators(self) -> list["Word"]:
        return [self.generator(i) for i in range(1, self.rank + 1)]

    def parse(self, text: str, line: int | None = None) -> "Word":
        return parse_word(text, self, line=line)


class Word:
    """An immutable freely reduced word over a fixed alphabet."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        w = alphabet.word(letters)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", w.letters)

    @classmethod
    def _make(cls, alphabet: Alphabet, letters: tuple[int, ...]) -> "Word":
        self = object.__new__(cls)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Word is immutable")

    def _check_rank(self, other: "Word") -> None:
        if self.alphabet.rank != other.alphabet.rank:
            raise AlphabetMismatch(
                f"rank {self.alphabet.rank} vs rank {other.alphabet.rank}"
            )

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        self._check_rank(other)
        return Word._make(self.alphabet, _concat_reduce(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word._make(self.alphabet, _invert(self.letters))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, k: int) -> "Word":
        if not isinstance(k, int):
            return NotImplemented
        base = self.letters if k >= 0 else _invert(self.letters)
        return Word._make(self.alphabet, _free_reduce(base * abs(k)))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet.rank == other.alphabet.rank
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.rank, self.letters))

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Split as (conjugator, core) with self = conjugator * core * conjugator^-1
        and core cyclically reduced."""
        L = self.letters
        i, j = _cyclic_bounds(L)
        return Word._make(self.alphabet, L[:i]), Word._make(self.alphabet, L[i:j])

    @property
    def is_cyclically_reduced(self) -> bool:
        L = self.letters
        return len(L) < 2 or L[0] != -L[-1]

    def kth_root(self, k: int) -> "Word | None":
        """The unique v with v^k = self, or None.  Rejects k < 1."""
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"root exponent must be a positive integer, got {k!r}")
        conj, core = self.cyclic_reduce()
        m = len(core)
        if m == 0:
            return Word._make(self.alphabet, ())
        if m % k != 0:
            return None
        piece = core.letters[: m // k]
        if piece * k != core.letters:
            return None
        root = Word._make(
            self.alphabet,
            _concat_reduce(_concat_reduce(conj.letters, piece), _invert(conj.letters)),
        )
        if root ** k != self:
            raise RuntimeError(f"root check failed: ({root})^{k} != {self}")
        return root

    def exponent_vector(self) -> tuple[int, ...]:
        vec = [0] * self.alphabet.rank
        for x in self.letters:
            if x > 0:
                vec[x - 1] += 1
            else:
                vec[-x - 1] -= 1
        return tuple(vec)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


@dataclass(frozen=True)
class FreeHom:
    """A homomorphism between free groups, given by generator images."""

    domain: Alphabet
    codomain: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.domain.rank:
            raise ValueError(
                f"expected {self.domain.rank} generator images, got {len(images)}"
            )
        for w in images:
            if w.alphabet.rank != self.codomain.rank:
                raise AlphabetMismatch(
                    f"image {w} has rank {w.alphabet.rank}, codomain has rank {self.codomain.rank}"
                )

    def __call__(self, w: Word) -> Word:
        if w.alphabet.rank != self.domain.rank:
            raise AlphabetMismatch(
                f"word rank {w.alphabet.rank} does not match domain rank {self.domain.rank}"
            )
        out: list[int] = []
        for x in w.letters:
            img = self.images[abs(x) - 1].letters
            out.extend(img if x > 0 else _invert(img))
        return Word._make(self.codomain, _free_reduce(out))

    def compose(self, inner: "FreeHom") -> "FreeHom":
        """The homomorphism w -> self(inner(w))."""
        if inner.codomain.rank != self.domain.rank:
            raise AlphabetMismatch("composition ranks do not match")
        return FreeHom(inner.domain, self.codomain, tuple(self(im) for im in inner.images))

    @staticmethod
    def identity(alphabet: Alphabet) -> "FreeHom":
        return FreeHom(alphabet, alphabet, tuple(alphabet.generators()))


def format_word(w: Word) -> str:
    """Canonical printing: letters only, no exponents, identity as ``1``."""
    if not w.letters:
        return "1"
    names = w.alphabet.display_names
    if names is None:
        return "[" + " ".join(str(x) for x in w.letters) + "]"
    return "".join(names[x - 1] if x > 0 else names[-x - 1].upper() for x in w.letters)


def parse_word(text: str, alphabet: Alphabet, line: int | None = None) -> Word:
    """Parse letter syntax into a reduced Word over ``alphabet``."""
    names = alphabet.display_names
    if names is None:
        raise ParseError("alphabet rank exceeds 26; no letter syntax available", line)
    index = {ch: i + 1 for i, ch in enumerate(names)}
    pos = 0
    n = len(text)

    def err(msg: str, at: int) -> None:
        raise ParseError(msg, line, at + 1)

    def parse_int() -> int:
        nonlocal pos
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        digits = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == digits:
            err("malformed exponent", start)
        # past MAX_WORD_LETTERS every nonempty base is refused, so a longer
        # run of digits (which int() may refuse outright) counts as one past it
        run = text[digits:pos].lstrip("0") or "0"
        e = int(run) if len(run) <= len(str(MAX_WORD_LETTERS)) else MAX_WORD_LETTERS + 1
        return -e if text[start] == "-" else e

    def parse_seq(depth: int, prefix: int) -> list[int]:
        """Parse up to an unmatched ')'; ``prefix`` letters precede it."""
        nonlocal pos
        out: list[int] = []
        while True:
            while pos < n and text[pos].isspace():
                pos += 1
            if pos >= n or text[pos] == ")":
                if pos >= n and depth:
                    err("missing ')'", n)
                if pos < n and not depth:
                    err("unbalanced ')'", pos)
                return out
            ch = text[pos]
            term_at = pos
            base: list[int]
            if ch == "(":
                pos += 1
                base = parse_seq(depth + 1, prefix + len(out))
                if pos >= n or text[pos] != ")":
                    err("missing ')'", term_at)
                pos += 1
            elif ch == "1":
                pos += 1
                base = []
            else:
                low = ch.lower()
                if low not in index:
                    err(f"unknown generator {ch!r}", pos)
                base = [index[low] if ch == low else -index[low]]
                pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
            e = 1
            if pos < n and text[pos] == "^":
                pos += 1
                while pos < n and text[pos].isspace():
                    pos += 1
                e = parse_int()
                if e < 0:
                    base = [-x for x in reversed(base)]
                    e = -e
            if prefix + len(out) + len(base) * e > MAX_WORD_LETTERS:
                err(f"word expands to more than {MAX_WORD_LETTERS} letters", term_at)
            out.extend(base * e)

    return alphabet.word(parse_seq(0, 0))


def ball(alphabet: Alphabet, radius: int) -> list[Word]:
    """All reduced words of length <= radius, ordered by length then by slot
    order 1, -1, 2, -2, ..."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    order = [_slot_letter(s) for s in range(2 * alphabet.rank)]
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt: list[tuple[int, ...]] = []
        for w in frontier:
            last = w[-1] if w else 0
            for x in order:
                if x != -last:
                    nxt.append(w + (x,))
        out.extend(nxt)
        frontier = nxt
    return [Word._make(alphabet, w) for w in out]
