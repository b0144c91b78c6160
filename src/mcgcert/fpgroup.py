"""Finitely presented groups and the exact machinery attached to them.

A group is given as a :class:`Presentation`: an alphabet of generators and a
tuple of relator words.  On top of that this module provides

- integer matrix tools: a fraction-free determinant and a Smith normal form
  with verified unimodular transforms,
- abelianization as a computed invariant: torsion moduli, free rank, and
  projection of words to the abelian quotient.  It works in two phases:
  sparse elimination of generators that occur with a unit exponent sum in
  some relator, then the dense Smith normal form of what remains (after
  Havas, Holt and Rees, "Recognizing badly presented Z-modules", 1993),
- Todd-Coxeter coset enumeration with explicit budget and incompleteness
  errors, producing standardized coset tables,
- coset tables derived from finite abelian quotients and from permutation
  representations (regular tables),
- Reidemeister-Schreier subgroup presentations from a coset table,
- deterministic Tietze simplification,
- permutation images with exact closure orders, and
- step-by-step certificates that two words are equal modulo the relators.

Every table here is numbered by :func:`mcgcert.stallings._orbit_table`, the
breadth-first orbit routine that also numbers subgroup graphs (letters
scanned in the order +1, -1, +2, -2, ...), so tables produced by different
routes compare equal whenever they describe the same action.  Permutation
assignments are checked by :func:`mcgcert.stallings._signed_action`.  A
:class:`CosetTable` is a complete :class:`mcgcert.stallings.SubgroupGraph`;
:func:`mcgcert.stallings._schreier_basis` builds the Schreier generators.
Todd-Coxeter coincidences are processed by
:class:`mcgcert.stallings._Coincidences`, the union-find that also folds
subgroup graphs: a coincidence is a Stallings fold.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from mcgcert.stallings import (
    ClosureBoundError,
    SubgroupGraph,
    _Coincidences,
    _orbit_table,
    _schreier_basis,
    _signed_action,
    _walk,
)
from mcgcert.words import (
    Alphabet,
    AlphabetMismatch,
    ParseError,
    Word,
    _cyclic_bounds,
    _free_reduce,
    _invert,
    _slot,
    _slot_letter,
)


class EnumerationBudgetError(RuntimeError):
    """Coset enumeration exceeded its budget of defined cosets."""

    def __init__(self, defined: int, budget: int):
        super().__init__(
            f"coset enumeration defined {defined} cosets, exceeding the budget {budget}"
        )
        self.defined = defined
        self.budget = budget


class IncompleteTableError(RuntimeError):
    """Enumeration halted with an incomplete table.

    This happens exactly when some generator is constrained by no relator,
    so its action can never close; for a free ambient group it is a proof of
    infinite index.
    """


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    """Generators and relators; the group is the quotient by their closure."""

    alphabet: Alphabet
    relators: Tuple[Word, ...]

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word]):
        rels = tuple(relators)
        for w in rels:
            if w.alphabet.rank != alphabet.rank:
                raise AlphabetMismatch("relator over a different ambient rank")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "relators", rels)

    @property
    def rank(self) -> int:
        return self.alphabet.rank

    def __repr__(self) -> str:
        rels = ", ".join(str(w) for w in self.relators)
        return f"Presentation({self.alphabet.rank} generators | {rels})"


def parse_presentation(text: str) -> Presentation:
    """Parse the line-based presentation format.

    ``#`` starts a comment, blank lines are skipped, the first content line
    must be ``gens:`` followed by distinct single lowercase names, and each
    following line is ``rel: <word>`` or ``rels: <word>, <word>, ...``.
    """
    alphabet: Optional[Alphabet] = None
    relators: List[Word] = []

    def parse_at(fragment: str, lineno: int, offset: int) -> Word:
        try:
            return alphabet.parse(fragment)
        except ParseError as exc:
            col = (exc.column or 1) + offset
            raise ParseError(exc.reason, line=lineno, column=col) from None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if alphabet is None:
            if not stripped.startswith("gens:"):
                raise ParseError(
                    "first line must declare generators with 'gens:'",
                    line=lineno,
                    column=1,
                )
            names = stripped[len("gens:") :].split()
            if not names:
                raise ParseError("empty generator list", line=lineno, column=1)
            try:
                alphabet = Alphabet(len(names), names=tuple(names))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno, column=1) from None
            continue
        if stripped.startswith("rel:"):
            offset = line.index("rel:") + len("rel:")
            relators.append(parse_at(line[offset:], lineno, offset))
        elif stripped.startswith("rels:"):
            offset = line.index("rels:") + len("rels:")
            body = line[offset:]
            start = 0
            while True:
                cut = body.find(",", start)
                piece = body[start:cut] if cut >= 0 else body[start:]
                relators.append(parse_at(piece, lineno, offset + start))
                if cut < 0:
                    break
                start = cut + 1
        else:
            raise ParseError(
                "expected 'rel:' or 'rels:'", line=lineno, column=1
            )
    if alphabet is None:
        raise ParseError("no 'gens:' line found", line=0, column=None)
    return Presentation(alphabet, relators)


def format_presentation(p: Presentation) -> str:
    """Render a presentation in the same format :func:`parse_presentation` reads."""
    names = p.alphabet.display_names
    if names is None:
        raise ValueError("presentations over rank > 26 cannot be formatted")
    lines = ["gens: " + " ".join(names)]
    lines.extend(f"rel: {w}" for w in p.relators)
    return "\n".join(lines) + "\n"


def pairwise_commutators(alphabet: Alphabet) -> List[Word]:
    """[g_i, g_j] for i < j; adding them as relators abelianizes a group."""
    gens = alphabet.generators()
    out = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            out.append(gens[i] * gens[j] * ~gens[i] * ~gens[j])
    return out


# ---------------------------------------------------------------------------
# integer matrices


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Diagonalize over the integers: returns (D, U, V) with D = U @ matrix @ V.

    U and V are unimodular; the diagonal of D is nonnegative with each entry
    dividing the next, zeros last.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if any(len(r) != cols for r in matrix):
        raise ValueError("ragged matrix")
    a = [list(r) for r in matrix]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        ai, aj = a[i], a[j]
        for t in range(cols):
            ai[t] += q * aj[t]
        ui, uj = u[i], u[j]
        for t in range(rows):
            ui[t] += q * uj[t]

    def add_col(i, j, q):
        # col_i += q * col_j
        for r in a:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # find a pivot of minimal absolute value in the remaining block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                add_row(i, t, -(a[i][t] // a[t][t]))
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                add_col(j, t, -(a[t][j] // a[t][t]))
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue  # smaller pivot appeared; repeat at the same position
        d = a[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1
    return a, u, v


# ---------------------------------------------------------------------------
# abelianization


@dataclass(frozen=True)
class AbelianElement:
    """An element of a finitely generated abelian group Z^f + sum Z/d_i."""

    free: Tuple[int, ...]
    torsion: Tuple[int, ...]
    moduli: Tuple[int, ...]

    def _compatible(self, other: "AbelianElement") -> None:
        if self.moduli != other.moduli or len(self.free) != len(other.free):
            raise ValueError("elements of different abelian groups")

    def __add__(self, other: "AbelianElement") -> "AbelianElement":
        self._compatible(other)
        return AbelianElement(
            tuple(x + y for x, y in zip(self.free, other.free)),
            tuple((x + y) % d for x, y, d in zip(self.torsion, other.torsion, self.moduli)),
            self.moduli,
        )

    def __neg__(self) -> "AbelianElement":
        return AbelianElement(
            tuple(-x for x in self.free),
            tuple((-x) % d for x, d in zip(self.torsion, self.moduli)),
            self.moduli,
        )

    def __sub__(self, other: "AbelianElement") -> "AbelianElement":
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.free) and all(x == 0 for x in self.torsion)

    def order(self) -> Optional[int]:
        """Order of the element; None when infinite."""
        if any(x != 0 for x in self.free):
            return None
        result = 1
        for x, d in zip(self.torsion, self.moduli):
            k = d // gcd(d, x)
            result = result * k // gcd(result, k)
        return result


@dataclass(frozen=True)
class AbelianStructure:
    """The abelianization of a presented group, with its projection map.

    ``_transform`` has one row per generator left after the unit-pivot phase
    of :func:`abelianization` and one column per generator of ``alphabet``;
    ``_free_rows`` and ``_torsion_rows`` pick out the rows that give the
    free and the torsion coordinates.
    """

    alphabet: Alphabet
    moduli: Tuple[int, ...]
    free_rank: int
    _transform: Tuple[Tuple[int, ...], ...]
    _torsion_rows: Tuple[int, ...]
    _free_rows: Tuple[int, ...]

    def project(self, word: Word) -> AbelianElement:
        """Image of a word in the abelian quotient."""
        if word.alphabet.rank != self.alphabet.rank:
            raise AlphabetMismatch("word over a different ambient rank")
        return self._image(_exponent_sums(word.letters))

    def _image(self, sums: Dict[int, int]) -> AbelianElement:
        """Image of the word with these exponent sums (see _exponent_sums)."""
        y = [sum(row[g] * e for g, e in sums.items()) for row in self._transform]
        return AbelianElement(
            tuple(y[i] for i in self._free_rows),
            tuple(y[i] % d for i, d in zip(self._torsion_rows, self.moduli)),
            self.moduli,
        )

    def zero(self) -> AbelianElement:
        return AbelianElement((0,) * self.free_rank, (0,) * len(self.moduli), self.moduli)

    def group_order(self) -> Optional[int]:
        """Order of the abelianization; None when it has free part."""
        if self.free_rank:
            return None
        n = 1
        for d in self.moduli:
            n *= d
        return n

    def describe(self) -> str:
        """Human-readable isomorphism type, e.g. ``Z^2 x Z/6``."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.moduli)
        return " x ".join(parts) if parts else "trivial"


def _exponent_sums(letters: Tuple[int, ...]) -> Dict[int, int]:
    """Nonzero exponent sums of a word, keyed by zero-based generator."""
    sums: Counter = Counter()
    for x in letters:
        if x > 0:
            sums[x - 1] += 1
        else:
            sums[-x - 1] -= 1
    return {g: e for g, e in sums.items() if e}


def _eliminate_unit_pivots(
    cols: List[Dict[int, int]], rank: int
) -> List[Tuple[int, int, Dict[int, int]]]:
    """Phase 1 of :func:`abelianization`: sparse column elimination.

    ``cols`` are relation columns ``{generator: coefficient}``, changed in
    place.  While some column has a coefficient +-1, the shortest such column
    (a heap keyed on current length) eliminates its unit generator with the
    fewest occurrences: that generator equals ``-sign`` times the rest of the
    column, and is substituted out of every other column it occurs in.  The
    pivot column is then emptied.  Returns the steps ``(generator, sign,
    pivot column)`` in the order they were taken.
    """
    occurs: List[set] = [set() for _ in range(rank)]
    for j, col in enumerate(cols):
        for g in col:
            occurs[g].add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    steps: List[Tuple[int, int, Dict[int, int]]] = []
    while heap:
        size, j = heapq.heappop(heap)
        pivot = cols[j]
        if size != len(pivot):
            continue  # stale: the column changed and was pushed again
        units = [g for g, e in pivot.items() if e in (1, -1)]
        if not units:
            continue  # pushed again if a later substitution changes it
        g = min(units, key=lambda h: (len(occurs[h]), h))
        sign = pivot[g]
        cols[j] = {}
        for h in pivot:
            occurs[h].discard(j)
        targets, occurs[g] = occurs[g], set()
        for i in targets:
            col = cols[i]
            q = col.pop(g) * sign  # col -= q * pivot clears g
            for h, e in pivot.items():
                if h == g:
                    continue
                x = col.get(h, 0) - q * e
                if x:
                    if h not in col:
                        occurs[h].add(i)
                    col[h] = x
                else:
                    del col[h]
                    occurs[h].discard(i)
            if col:
                heapq.heappush(heap, (len(col), i))
        steps.append((g, sign, pivot))
    return steps


def abelianization(p: Presentation) -> AbelianStructure:
    """Compute the abelianization of ``p`` and its projection map.

    The relation matrix has one column of exponent sums per relator.  Phase
    1 (:func:`_eliminate_unit_pivots`) eliminates, sparsely, every generator
    it can with a unit coefficient.  Phase 2 runs the dense
    :func:`smith_normal_form` on the remaining generators times the columns
    that are still nonzero.  The images of the eliminated generators, by
    back-substitution of the phase-1 steps in reverse, give the projection:
    one row per remaining generator, ``U`` times those images.  Before
    returning, every relator is mapped through the projection and must go
    to zero; otherwise ``RuntimeError`` is raised.
    """
    rank = p.alphabet.rank
    sums = [_exponent_sums(w.letters) for w in p.relators]
    cols = [dict(e) for e in sums]
    steps = _eliminate_unit_pivots(cols, rank)
    eliminated = {g for g, _, _ in steps}
    remaining = [g for g in range(rank) if g not in eliminated]
    live = [col for col in cols if col]
    d, u, _v = smith_normal_form([[col.get(g, 0) for col in live] for g in remaining])

    images: List[Dict[int, int]] = [{} for _ in range(rank)]
    for m, g in enumerate(remaining):
        images[g] = {m: 1}
    for g, sign, pivot in reversed(steps):
        image: Counter = Counter()
        for h, e in pivot.items():
            if h != g:
                for m, c in images[h].items():
                    image[m] -= sign * e * c
        images[g] = {m: c for m, c in image.items() if c}

    moduli: List[int] = []
    torsion_rows: List[int] = []
    free_rows: List[int] = []
    for i in range(len(remaining)):
        di = d[i][i] if i < len(live) else 0
        if di == 0:
            free_rows.append(i)
        elif di >= 2:
            torsion_rows.append(i)
            moduli.append(di)
    structure = AbelianStructure(
        alphabet=p.alphabet,
        moduli=tuple(moduli),
        free_rank=len(free_rows),
        _transform=tuple(
            tuple(sum(row[m] * c for m, c in image.items()) for image in images)
            for row in u
        ),
        _torsion_rows=tuple(torsion_rows),
        _free_rows=tuple(free_rows),
    )
    for j, e in enumerate(sums):
        if not structure._image(e).is_zero:
            raise RuntimeError(
                f"relator {j + 1} does not vanish in the computed abelianization"
            )
    return structure


# ---------------------------------------------------------------------------
# coset tables


class CosetTable(SubgroupGraph):
    """A complete table for a transitive action on cosets 0..k-1: the
    complete subgroup graph of the stabilizer of coset 0.

    ``rows[c][slot]`` is the coset reached from ``c`` along the slot's
    letter.  Tables coming out of this module are standardized: numbering is
    breadth-first from coset 0 in slot order.  JSON tables keep theirs.
    """

    __slots__ = ()

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return self.table

    @property
    def index(self) -> int:
        return len(self.table)

    action_dict = SubgroupGraph.coset_action

    def action(self, letter: int) -> Tuple[int, ...]:
        return tuple(row[_slot(letter)] for row in self.table)

    def trace(self, coset: int, word: Word) -> int:
        self._check_word(word)
        return _walk(self.table, coset, word.letters)[0]

    def to_json_dict(self) -> dict:
        """One-based JSON form: {"cosets": k, "action": {"a": [...], "A": [...]}}."""
        names = self.alphabet.display_names
        if names is None:
            raise ValueError("tables over rank > 26 cannot be serialized")
        action = {}
        for i, name in enumerate(names, start=1):
            action[name] = [t + 1 for t in self.action(i)]
            action[name.upper()] = [t + 1 for t in self.action(-i)]
        return {"cosets": self.index, "action": action}

    @staticmethod
    def from_json_dict(data: dict, alphabet: Optional[Alphabet] = None) -> "CosetTable":
        """Read the :meth:`to_json_dict` form.

        With ``alphabet``, action keys are matched to its generator names;
        without it, the sorted lowercase keys name generators 1, 2, ...
        """
        if not isinstance(data, dict):
            raise ValueError("coset table JSON must be an object")
        k = data.get("cosets")
        action = data.get("action")
        if type(k) is not int or k < 1:  # JSON true/false are not counts
            raise ValueError("'cosets' must be a positive integer")
        if not isinstance(action, dict) or not action:
            raise ValueError("'action' must be a non-empty object")
        names = sorted(name for name in action if name.islower())
        if not names or any(len(n) != 1 or not n.isalpha() for n in names):
            raise ValueError("action keys must be single letters")
        if alphabet is None:
            alphabet = Alphabet(len(names), names=tuple(names))
        elif sorted(alphabet.display_names or ()) != names:
            raise ValueError(
                f"table letters {' '.join(names)} do not match the generators "
                f"{' '.join(alphabet.display_names or ())}"
            )
        letter = {}
        for i, name in enumerate(alphabet.display_names, start=1):
            letter[name], letter[name.upper()] = i, -i
        extra = [x for x in action if x not in letter]
        if extra:
            raise ValueError(f"unknown action keys: {extra}")
        for key, targets in action.items():
            if not isinstance(targets, list) or len(targets) != k or not all(
                type(t) is int for t in targets
            ):
                raise ValueError(f"'{key}' must list {k} cosets")
        _, slots = _signed_action(
            alphabet, {letter[x]: [t - 1 for t in ts] for x, ts in action.items()}
        )
        return CosetTable(alphabet, zip(*slots))


def coset_table_from_ab(structure: AbelianStructure) -> CosetTable:
    """Coset table of the kernel of the map onto a finite abelianization.

    Cosets are the elements of the abelian quotient; each generator acts by
    translation.  Requires free rank 0.  Numbering is the same breadth-first
    standardization used everywhere else.
    """
    if structure.free_rank != 0:
        raise ValueError("abelianization has free part; kernel has infinite index")
    alphabet = structure.alphabet
    moves = [
        structure.project(alphabet.word((_slot_letter(s),)))
        for s in range(2 * alphabet.rank)
    ]
    points, rows = _orbit_table(structure.zero(), lambda x, s: x + moves[s], len(moves))
    if len(points) != structure.group_order():
        raise RuntimeError("translation action missed elements of the quotient")
    return CosetTable(alphabet, rows)


# ---------------------------------------------------------------------------
# Todd-Coxeter enumeration


def todd_coxeter(
    p: Presentation,
    subgroup_gens: Sequence[Word] = (),
    budget: int = 10**6,
) -> CosetTable:
    """Enumerate cosets of the subgroup the given words generate.

    Relator scans fill gaps eagerly; coincidences are processed immediately
    by :class:`mcgcert.stallings._Coincidences`.  ``budget`` bounds the total
    number of cosets ever defined (merged-away cosets still count).  A
    generator appearing in no relator and no subgroup generator can never
    close, so that raises :class:`IncompleteTableError` up front; the same
    error reports enumeration that halts with holes on letters no relator
    constrains.  The returned table is standardized and verified: every
    relator fixes every coset and every subgroup generator fixes coset 0.
    """
    alphabet = p.alphabet
    r = alphabet.rank
    nslots = 2 * r
    relators = [tuple(map(_slot, w.letters)) for w in p.relators if w.letters]
    subgens = []
    for g in subgroup_gens:
        if g.alphabet.rank != r:
            raise AlphabetMismatch("subgroup generator over a different ambient rank")
        if g.letters:
            subgens.append(tuple(map(_slot, g.letters)))
    # slot // 2 numbers the generators from 0
    names = alphabet.display_names or [str(i) for i in range(1, r + 1)]
    constrained = {s // 2 for rel in relators for s in rel}
    touched = constrained | {s // 2 for g in subgens for s in g}
    for i in range(r):
        if i not in touched:
            raise IncompleteTableError(
                f"generator '{names[i]}' appears in no relator or subgroup generator; "
                "the table cannot close (infinite index)"
            )

    core = _Coincidences()
    core.add()
    rows, find = core.rows, core.find
    queue: deque = deque([0])
    in_queue = {0}

    def enqueue(c: int) -> None:
        if c not in in_queue:
            in_queue.add(c)
            queue.append(c)

    def define(c: int, slot: int) -> int:
        if len(rows) >= budget:  # every row ever added counts, merged or not
            raise EnumerationBudgetError(len(rows) + 1, budget)
        new = core.add()
        core.join(c, slot, new)
        enqueue(new)
        return new

    def scan_fill(start: int, slots: Tuple[int, ...]) -> None:
        c = find(start)
        first = c
        for slot in slots[:-1]:
            nxt = rows[c].get(slot)
            if nxt is None:
                nxt = define(c, slot)
            c = find(nxt)
        core.join(c, slots[-1], first)
        # each survivor gained edges, so its relator scans must be redone
        for survivor in core.settle():
            enqueue(survivor)

    for g in subgens:
        scan_fill(0, g)

    while True:
        while queue:
            c = queue.popleft()
            in_queue.discard(c)
            if rows[c] is None:
                continue
            for rel in relators:
                scan_fill(c, rel)
                if rows[c] is None:
                    break  # merged away; the surviving coset was re-enqueued
        # table closed under relators; fill the first hole if one remains
        hole = None
        blocked = None
        for c, row in enumerate(rows):
            if row is None:
                continue
            for s in range(nslots):
                if s not in row:
                    if s // 2 in constrained:
                        hole = (c, s)
                        break
                    blocked = s
            if hole:
                break
        if hole is None:
            if blocked is not None:
                raise IncompleteTableError(
                    f"enumeration halted with the action of '{names[blocked // 2]}' "
                    "undefined on some coset (infinite index)"
                )
            break
        c, s = hole
        define(c, s)
        enqueue(c)

    # coset 0 survives every merge (the smaller coset always does), and every
    # live coset is reached from it
    _, std = _orbit_table(0, lambda c, s: find(rows[c][s]), nslots)
    table = CosetTable(alphabet, std)
    for w in p.relators:
        for c in range(table.index):
            if table.trace(c, w) != c:
                raise RuntimeError(f"table check failed: relator {w} moves coset {c}")
    for g in subgroup_gens:
        if table.trace(0, g) != 0:
            raise RuntimeError(f"table check failed: subgroup generator {g} moves coset 0")
    for c, row in enumerate(table.rows):
        for s, d in enumerate(row):
            if table.rows[d][s ^ 1] != c:  # slot s ^ 1 is the inverse letter
                raise RuntimeError(f"table check failed: inverse mismatch at coset {c}")
    return table


# ---------------------------------------------------------------------------
# permutation images


def _perm_compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def _assignment(
    p: Presentation, images: Dict[int, Sequence[int]]
) -> Tuple[int, List[Tuple[int, ...]], Tuple[int, ...]]:
    """Check a permutation assignment with :func:`_signed_action`.

    Returns the degree, the permutation of each slot, and the indices of the
    relators that do not map to the identity.
    """
    degree, slots = _signed_action(p.alphabet, images)
    identity = tuple(range(degree))
    violations = []
    for i, w in enumerate(p.relators):
        cur = identity
        for letter in w.letters:
            cur = _perm_compose(cur, slots[_slot(letter)])
        if cur != identity:
            violations.append(i)
    return degree, slots, tuple(violations)


@dataclass(frozen=True)
class PermImage:
    """Result of evaluating a presentation in a permutation group."""

    degree: int
    order: int
    relator_violations: Tuple[int, ...]

    @property
    def is_homomorphism(self) -> bool:
        return not self.relator_violations


def perm_image(
    p: Presentation,
    images: Dict[int, Sequence[int]],
    max_order: int = 10**4,
) -> PermImage:
    """Check relators map to the identity and compute the image's order.

    The order is the size of the subgroup the images generate, found by
    closure; exceeding ``max_order`` raises :class:`ClosureBoundError`.
    """
    degree, slots, violations = _assignment(p, images)
    elements, _ = _orbit_table(
        tuple(range(degree)), lambda g, s: _perm_compose(g, slots[s]), len(slots), max_order
    )
    return PermImage(degree=degree, order=len(elements), relator_violations=violations)


def regular_coset_table(
    p: Presentation,
    images: Dict[int, Sequence[int]],
    max_order: int = 10**4,
) -> CosetTable:
    """Coset table of the kernel of a permutation representation.

    Cosets are the elements of the image group; generators act by right
    multiplication.  The assignment must send every relator to the identity.
    The table is standardized, so it equals the Todd-Coxeter table of any
    generating set of the same kernel.
    """
    degree, slots, bad = _assignment(p, images)
    if bad:
        raise ValueError(f"assignment violates relators at indices {list(bad)}")
    _, rows = _orbit_table(
        tuple(range(degree)), lambda g, s: _perm_compose(g, slots[s]), len(slots), max_order
    )
    return CosetTable(p.alphabet, rows)


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


@dataclass(frozen=True)
class SchreierData:
    """A subgroup presentation plus its generators as ambient words.

    ``presentation`` is over a fresh alphabet with one letter per Schreier
    generator; ``generator_words[i]`` is the ambient word of letter i+1.
    """

    presentation: Presentation
    generator_words: Tuple[Word, ...]


def reidemeister_schreier(p: Presentation, table: CosetTable) -> SchreierData:
    """Present the subgroup whose coset table is given.

    Schreier generators come from :func:`mcgcert.stallings._schreier_basis`
    over the positive slots, one per non-tree (coset, positive letter) pair;
    the relators are every ambient relator rewritten at every coset.  A
    relator that does not bring a coset back to itself shows that the table
    is not an action of ``p``, and raises ValueError.
    """
    if table.alphabet.rank != p.alphabet.rank:
        raise AlphabetMismatch("table over a different ambient rank")
    k = table.index
    reps, gens, symbol = _schreier_basis(table.rows, range(0, 2 * p.alphabet.rank, 2))
    if any(rep is None for rep in reps):
        raise ValueError("coset table is not transitive")
    gen_words = tuple(map(p.alphabet.word, gens))

    sub_alphabet = Alphabet(len(gen_words)) if gen_words else Alphabet(1)

    def rewrite(relator: Word, start: int) -> Word:
        end, symbols = _walk(table.rows, start, relator.letters, symbol)
        if end != start:
            raise ValueError(
                f"relator {relator} moves coset {start + 1} of the table, "
                "so the table is not an action of the presentation"
            )
        return sub_alphabet.word(_free_reduce(symbols))

    relators = [rewrite(w, c) for w in p.relators for c in range(k)]
    return SchreierData(
        presentation=Presentation(sub_alphabet, relators),
        generator_words=gen_words,
    )


# ---------------------------------------------------------------------------
# Tietze simplification


def _canonical_relator_key(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    """Minimal rotation over the relator and its inverse."""
    best = None
    for base in (letters, _invert(letters)):
        n = len(base)
        for i in range(n):
            rot = base[i:] + base[:i]
            if best is None or rot < best:
                best = rot
    return best if best is not None else ()


def tietze_simplify(p: Presentation, budget: int = 10**4) -> Presentation:
    """Deterministically shrink a presentation by Tietze transformations.

    After every move, trivial and duplicate relators (up to rotation and
    inversion) are dropped.  Each move is the first that applies of:

    1. eliminate a generator that occurs exactly once in some relator,
       choosing the candidate that minimizes total growth; the occurrence
       count of every generator is taken once per pass, not per candidate;
    2. shorten a relator by replacing more than half of a cyclic variant of
       another relator with the inverse of the rest.

    ``budget`` bounds the number of applied eliminations and shortenings.
    A presentation that comes back with relators is unsimplified evidence,
    never a refutation of anything.
    """
    rank = p.alphabet.rank
    names = list(p.alphabet.display_names or ())
    rels: List[Tuple[int, ...]] = [w.letters for w in p.relators]
    moves = 0

    def normalize() -> None:
        nonlocal rels
        seen = {}
        for letters in rels:
            reduced = _free_reduce(letters)
            core = reduced[slice(*_cyclic_bounds(reduced))]
            if not core:
                continue
            key = _canonical_relator_key(core)
            if key not in seen:
                seen[key] = core
        rels = sorted(seen.values(), key=lambda t: (len(t), t))

    def substitute(letters, g, expression):
        out: List[int] = []
        for l in letters:
            if l == g:
                out.extend(expression)
            elif l == -g:
                out.extend(_invert(expression))
            else:
                out.append(l)
        return _free_reduce(out)

    def drop_generator(g: int) -> None:
        nonlocal rels, rank, names
        remap = lambda l: l - 1 if l > g else (l + 1 if l < -g else l)
        rels = [tuple(remap(l) for l in letters) for letters in rels]
        if names:
            del names[g - 1]
        rank -= 1

    def try_eliminate() -> bool:
        nonlocal rels, moves
        total = Counter(abs(l) for letters in rels for l in letters)
        best = None
        for ri, letters in enumerate(rels):
            for g, cnt in Counter(abs(l) for l in letters).items():
                if cnt != 1:
                    continue
                # g occurs once in this relator; each other occurrence
                # becomes len(letters) - 1 letters
                growth = -len(letters) + (total[g] - 1) * (len(letters) - 2)
                cand = (growth, g, ri)
                if best is None or cand < best:
                    best = cand
        if best is None:
            return False
        _, g, ri = best
        letters = rels[ri]
        pos = next(i for i, l in enumerate(letters) if abs(l) == g)
        u, v = letters[:pos], letters[pos + 1 :]
        if letters[pos] > 0:
            expression = _free_reduce(_invert(u) + _invert(v))
        else:
            expression = _free_reduce(v + u)
        rels = [
            substitute(other, g, expression)
            for rj, other in enumerate(rels)
            if rj != ri
        ]
        drop_generator(g)
        moves += 1
        return True

    def try_shorten() -> bool:
        nonlocal moves
        # the distinct rotations of each relator and of its inverse, in order
        variants = [
            list(
                dict.fromkeys(
                    b[t:] + b[:t] for b in (s, _invert(s)) for t in range(len(b))
                )
            )
            for s in rels
        ]
        for i, u in enumerate(rels):
            doubled = u + u
            for j, s in enumerate(rels):
                if i == j or len(s) > len(u) or len(s) < 2:
                    continue
                for var in variants[j]:
                    for wlen in range(len(var), len(var) // 2, -1):
                        w = var[:wlen]
                        for pos in range(len(u)):
                            if doubled[pos : pos + wlen] == w:
                                rest = doubled[pos + wlen : pos + len(u)]
                                new = _free_reduce(_invert(var[wlen:]) + rest)
                                if len(new) < len(u):
                                    rels[i] = new
                                    moves += 1
                                    return True
        return False

    normalize()
    while moves < budget and (try_eliminate() or try_shorten()):
        normalize()
    alphabet = Alphabet(max(rank, 1), names=tuple(names) if names and rank else None)
    if rank == 0:
        # everything was eliminated: the trivial group presented on one
        # generator declared trivial
        return Presentation(alphabet, (alphabet.generator(1),))
    return Presentation(alphabet, tuple(alphabet.word(l) for l in rels))


# ---------------------------------------------------------------------------
# rewriting certificates


@dataclass(frozen=True)
class RewriteStep:
    """Insert conjugator * relator^exponent * conjugator^-1 at a position."""

    position: int
    relator_index: int
    exponent: int
    conjugator: Word


@dataclass(frozen=True)
class RewriteCertificate:
    """A checked derivation that start and target are equal in the group."""

    start: Word
    target: Word
    steps: Tuple[RewriteStep, ...]
    intermediates: Tuple[Word, ...]
    verified: bool


def rewrite_equal(
    p: Presentation, start: Word, target: Word, steps: Sequence[RewriteStep]
) -> RewriteCertificate:
    """Apply relator-insertion steps to ``start`` and compare with ``target``.

    Each step splices a conjugate of a relator power into the current word at
    the given letter position (0..len).  Malformed steps raise ValueError;
    the certificate's ``verified`` flag records whether the final word equals
    ``target``.  Soundness is immediate: every insertion multiplies by an
    element of the normal closure of the relators.
    """
    rank = p.alphabet.rank
    for w in (start, target):
        if w.alphabet.rank != rank:
            raise AlphabetMismatch("word over a different ambient rank")
    current = start
    trail: List[Word] = []
    for n, step in enumerate(steps):
        if not 0 <= step.relator_index < len(p.relators):
            raise ValueError(f"step {n}: relator index {step.relator_index} out of range")
        if step.exponent == 0:
            raise ValueError(f"step {n}: exponent must be nonzero")
        if not 0 <= step.position <= len(current):
            raise ValueError(
                f"step {n}: position {step.position} outside word of length {len(current)}"
            )
        if step.conjugator.alphabet.rank != rank:
            raise AlphabetMismatch(f"step {n}: conjugator over a different rank")
        relator = p.relators[step.relator_index]
        insert = step.conjugator * relator**step.exponent * ~step.conjugator
        letters = current.letters
        current = p.alphabet.word(
            letters[: step.position] + insert.letters + letters[step.position :]
        )
        trail.append(current)
    return RewriteCertificate(
        start=start,
        target=target,
        steps=tuple(steps),
        intermediates=tuple(trail),
        verified=current == target,
    )
