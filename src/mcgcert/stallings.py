"""Folded graphs for finitely generated subgroups of free groups.

A subgroup H of a free group, given by finitely many generator words, is
stored as its folded core graph: a finite graph with edges labeled by
generators and a base vertex, such that no vertex carries two equal-label
edges in the same direction and no non-base vertex has degree one.  Vertices
are renumbered by breadth-first search from the base, scanning letters in the
fixed order +1, -1, +2, -2, ..., so equal subgroups yield identical tables
and graph equality is plain tuple equality.

That numbering is :func:`_orbit_table`, the one breadth-first orbit routine;
the coset tables and permutation closures of :mod:`mcgcert.fpgroup` use it
too, and :class:`mcgcert.fpgroup.CosetTable` is a :class:`SubgroupGraph`
with every slot filled.  :func:`_schreier_basis` builds free bases here and
Reidemeister-Schreier generators there, :func:`_signed_action` checks every
permutation action, and :class:`_Coincidences` is the one union-find over
table rows: it folds the graphs here and processes the coincidences of
Todd-Coxeter enumeration.

The graph decides membership, index, and rank exactly, produces a free basis
with rewriting of members over that basis, and supports intersections and
containment checks via product graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from mcgcert.words import (
    Alphabet,
    AlphabetMismatch,
    Word,
    _free_reduce,
    _invert,
    _slot,
    _slot_letter,
    format_word,
)


class InfiniteIndexError(ValueError):
    """A finite coset table was requested for an infinite-index subgroup."""


class ClosureBoundError(RuntimeError):
    """Closure of a permutation group exceeded the requested bound."""


def _orbit_table(
    start: Hashable,
    step: Callable[[Hashable, int], Optional[Hashable]],
    nslots: int,
    limit: Optional[int] = None,
) -> Tuple[List[Hashable], List[Tuple[Optional[int], ...]]]:
    """Number the orbit of ``start`` breadth-first, scanning slots in order.

    ``step(x, s)`` is the point reached from ``x`` along slot ``s``, or None
    when there is no such edge.  Returns ``(points, rows)``: ``points[i]`` is
    the point numbered ``i`` (``start`` is 0) and ``rows[i][s]`` the number
    of the point reached from it along slot ``s``, or None.  Numbering more
    than ``limit`` points raises :class:`ClosureBoundError`.
    """
    number = {start: 0}
    points = [start]
    rows = []
    for x in points:  # the list grows while it is scanned: a FIFO queue
        row = []
        for s in range(nslots):
            y = step(x, s)
            if y is not None:
                t = number.get(y)
                if t is None:
                    if limit is not None and len(points) >= limit:
                        raise ClosureBoundError(f"image order exceeds the bound {limit}")
                    t = number[y] = len(points)
                    points.append(y)
                y = t
            row.append(y)
        rows.append(tuple(row))
    return points, rows


def _spanning_tree(
    rows: Sequence[Sequence[Optional[int]]],
) -> Tuple[List[Optional[Tuple[int, ...]]], set]:
    """Breadth-first spanning tree from vertex 0, scanning slots in order.

    Returns ``(reps, tree)``: ``reps[v]`` is the letter tuple of the tree
    path from 0 to ``v`` (None when ``v`` is unreachable) and ``tree`` holds
    both directions ``(v, letter)`` of every tree edge.
    """
    reps: List[Optional[Tuple[int, ...]]] = [None] * len(rows)
    reps[0] = ()
    tree: set = set()
    order = [0]
    for v in order:
        for s, t in enumerate(rows[v]):
            if t is not None and reps[t] is None:
                letter = _slot_letter(s)
                reps[t] = reps[v] + (letter,)
                tree.update(((v, letter), (t, -letter)))
                order.append(t)
    return reps, tree


def _schreier_basis(
    rows: Sequence[Sequence[Optional[int]]], slots: Sequence[int]
) -> Tuple[list, List[Tuple[int, ...]], Dict[Tuple[int, int], int]]:
    """Schreier generators: one per edge off the tree of :func:`_spanning_tree`.

    Scans the vertices reachable from 0, and at each the given slots, in
    order, skipping tree edges and edges met before from their other end.
    Returns ``(reps, gens, edge_sym)``: the tree paths, the letters of
    ``rep(v) letter rep(t)^-1`` for each edge, and the two directions
    ``(v, letter)`` of the i-th edge mapped to ``i`` and ``-i``, from 1.
    """
    reps, tree = _spanning_tree(rows)
    gens: List[Tuple[int, ...]] = []
    edge_sym: Dict[Tuple[int, int], int] = {}
    for v, row in enumerate(rows):
        rep = reps[v]
        if rep is None:
            continue
        for s in slots:
            t = row[s]
            if t is None:
                continue
            letter = _slot_letter(s)
            if (v, letter) in tree or (v, letter) in edge_sym:
                continue
            gens.append(rep + (letter,) + _invert(reps[t]))
            edge_sym[(v, letter)] = len(gens)
            edge_sym.setdefault((t, -letter), -len(gens))
    return reps, gens, edge_sym


def _walk(
    rows: Sequence[Sequence[Optional[int]]],
    start: int,
    letters: Sequence[int],
    edge_sym: Optional[Dict[Tuple[int, int], int]] = None,
) -> Tuple[Optional[int], List[int]]:
    """Follow ``letters`` through a table from ``start``.

    Returns the end vertex (None when the path leaves the table) and the
    symbols that ``edge_sym`` gives to the directed edges crossed, in order.
    """
    symbols: List[int] = []
    cur = start
    for letter in letters:
        if edge_sym is not None:
            sym = edge_sym.get((cur, letter))
            if sym is not None:
                symbols.append(sym)
        cur = rows[cur][_slot(letter)]
        if cur is None:
            break
    return cur, symbols


def _signed_action(
    alphabet: Alphabet, action: Dict[int, Sequence[int]]
) -> Tuple[int, List[Tuple[int, ...]]]:
    """Check an action of the free group on the points 0..k-1.

    ``action`` maps every letter 1..rank, and optionally inverse letters, to
    target lists; each positive letter must permute the points and each
    given negative letter must act as its inverse.  Returns ``k`` and the
    permutation of each slot.
    """
    letters = set(range(1, alphabet.rank + 1))
    if not letters <= set(action) <= letters | {-x for x in letters}:
        raise ValueError("action must cover letters 1..rank exactly")
    sizes = {len(action[x]) for x in letters}
    if len(sizes) != 1:
        raise ValueError("letters act on sets of unequal size")
    k = sizes.pop()
    if k == 0:
        raise ValueError("action on an empty set")
    name = lambda x: format_word(alphabet.word((x,)))
    slots: List[Tuple[int, ...]] = []
    for x in sorted(letters):
        perm = tuple(action[x])
        if sorted(perm) != list(range(k)):
            raise ValueError(f"{name(x)} does not permute the {k} points")
        inverse = [0] * k
        for i, t in enumerate(perm):
            inverse[t] = i
        if -x in action and list(action[-x]) != inverse:
            raise ValueError(f"{name(-x)} is not the inverse of {name(x)}")
        slots += [perm, tuple(inverse)]
    return k, slots


class _Coincidences:
    """Rows of a partial table under union-find: the one coincidence core.

    A Stallings fold and a Todd-Coxeter coincidence are the same step (Kapovich
    and Myasnikov, "Stallings foldings and subgroups of free groups", 2002), so
    :func:`subgroup_graph` and :func:`mcgcert.fpgroup.todd_coxeter` both run
    on this.  ``rows[c]`` maps slot to target for a live row (targets may be
    stale; apply :meth:`find`) and is None once the row merged into another.
    Slot ``s ^ 1`` holds the inverse letter of slot ``s``.  Rows are dicts so
    that a merge visits only filled slots: most vertices a fold merges have
    two.  When two rows merge, the smaller number survives, so row 0 is
    never merged away.
    """

    __slots__ = ("rows", "parent", "pending")

    def __init__(self) -> None:
        self.rows: List[Optional[Dict[int, int]]] = []
        self.parent: List[int] = []
        self.pending: deque = deque()

    def add(self, k: int = 1) -> int:
        """Add ``k`` empty rows; return the number of the first."""
        n = len(self.rows)
        self.rows.extend({} for _ in range(k))
        self.parent.extend(range(n, n + k))
        return n

    def find(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def join(self, c: int, slot: int, d: int) -> None:
        """Record the edge ``c -> d`` along ``slot`` and its inverse, queueing a
        coincidence where a slot is already filled with another row."""
        find = self.find
        rc, rd = find(c), find(d)
        row = self.rows[rc]
        cur = row.get(slot)
        if cur is None:
            row[slot] = rd
        elif find(cur) != rd:
            self.pending.append((cur, rd))
        row = self.rows[rd]
        cur = row.get(slot ^ 1)
        if cur is None:
            row[slot ^ 1] = rc
        elif find(cur) != rc:
            self.pending.append((cur, rc))

    def settle(self) -> List[int]:
        """Merge every queued pair; return the surviving row of each merge."""
        find, rows, parent, pending = self.find, self.rows, self.parent, self.pending
        survivors = []
        while pending:
            x, y = pending.popleft()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            absorbed, target = rows[ry], rows[rx]
            rows[ry] = None
            for s, t in absorbed.items():
                cur = target.get(s)
                if cur is None:
                    target[s] = t
                elif find(cur) != find(t):
                    pending.append((cur, t))
            survivors.append(rx)
        return survivors


@dataclass(frozen=True)
class GraphInvariants:
    """Vertex and edge counts with the derived rank and index.

    ``index`` is ``None`` when the subgroup has infinite index, i.e. when the
    graph is not a full covering of the rose.
    """

    vertices: int
    edges: int
    rank: int
    index: Optional[int]


class SubgroupGraph:
    """A folded, pruned, canonically numbered subgroup graph.

    ``table[v][s]`` is the endpoint of the edge read from vertex ``v`` along
    the letter of slot ``s``, or ``None`` when no such edge exists.  Vertex 0
    is the base.  Instances are built by :func:`subgroup_graph`,
    :func:`from_coset_action`, or :meth:`intersect`; the constructor assumes
    its input is already canonical.
    """

    __slots__ = ("alphabet", "table", "_cache")

    def __init__(self, alphabet: Alphabet, table: Sequence[Sequence[Optional[int]]]):
        self.alphabet = alphabet
        self.table = tuple(tuple(row) for row in table)
        self._cache: dict = {}

    # -- basics ---------------------------------------------------------

    @property
    def vertices(self) -> int:
        return len(self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubgroupGraph):
            return NotImplemented
        return (self.alphabet.rank, self.table) == (other.alphabet.rank, other.table)

    def __hash__(self) -> int:
        return hash((self.alphabet.rank, self.table))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rank-{self.alphabet.rank} ambient, {self.vertices} vertices)"

    # -- membership and invariants ---------------------------------------

    def _check_word(self, word: Word) -> None:
        if word.alphabet.rank != self.alphabet.rank:
            raise AlphabetMismatch(
                f"word over rank {word.alphabet.rank} against graph over rank {self.alphabet.rank}"
            )

    def member(self, word: Word) -> bool:
        """Whether ``word`` lies in the subgroup: trace it from the base."""
        self._check_word(word)
        return _walk(self.table, 0, word.letters)[0] == 0

    def invariants(self) -> GraphInvariants:
        filled = sum(1 for row in self.table for t in row if t is not None)
        edges = filled // 2
        complete = filled == len(self.table) * 2 * self.alphabet.rank
        return GraphInvariants(
            vertices=len(self.table),
            edges=edges,
            rank=edges - len(self.table) + 1,
            index=len(self.table) if complete else None,
        )

    # -- spanning tree, basis, rewriting ---------------------------------

    def _tree_data(self):
        """``(basis, edge_sym)`` from :func:`_schreier_basis` over every slot,
        with the basis as Words in scan order; computed once."""
        cached = self._cache.get("tree")
        if cached is None:
            _, gens, edge_sym = _schreier_basis(self.table, range(2 * self.alphabet.rank))
            cached = self._cache["tree"] = ([self.alphabet.word(g) for g in gens], edge_sym)
        return cached

    def basis(self) -> List[Word]:
        """A free basis of the subgroup, in deterministic scan order."""
        return list(self._tree_data()[0])

    def basis_alphabet(self) -> Alphabet:
        """Alphabet for rewritten members; rank max(1, subgroup rank)."""
        return Alphabet(max(1, len(self._tree_data()[0])))

    def express(self, word: Word) -> Optional[Word]:
        """Rewrite a member over :meth:`basis`; None when not a member.

        The returned word is over :meth:`basis_alphabet`; substituting the
        basis words for its letters recovers ``word`` exactly.
        """
        self._check_word(word)
        end, symbols = _walk(self.table, 0, word.letters, self._tree_data()[1])
        if end != 0:
            return None
        return self.basis_alphabet().word(_free_reduce(symbols))

    # -- coset structure --------------------------------------------------

    def coset_action(self) -> Dict[int, Tuple[int, ...]]:
        """Action of each signed letter on vertices, for finite index only.

        Vertex numbering doubles as coset numbering (base = coset 0); the
        same breadth-first standardization is used by the coset enumerator,
        so finite-index tables from both sides compare equal.
        """
        if self.invariants().index is None:
            raise InfiniteIndexError(
                "subgroup has infinite index; no finite coset table exists"
            )
        return {_slot_letter(s): col for s, col in enumerate(zip(*self.table))}

    # -- lattice operations ------------------------------------------------

    def intersect(self, other: "SubgroupGraph") -> "SubgroupGraph":
        """Graph of the intersection: reachable part of the product graph."""
        if self.alphabet.rank != other.alphabet.rank:
            raise AlphabetMismatch("intersection requires equal ambient rank")

        def step(pair, s):
            t1, t2 = self.table[pair[0]][s], other.table[pair[1]][s]
            return None if t1 is None or t2 is None else (t1, t2)

        _, rows = _orbit_table((0, 0), step, 2 * self.alphabet.rank)
        return _finish(self.alphabet, rows)

    def contains(self, other: "SubgroupGraph") -> bool:
        """Whether ``other`` is a subgroup of this subgroup."""
        return all(self.member(w) for w in other.basis())


# -- construction ----------------------------------------------------------


def subgroup_graph(alphabet: Alphabet, generators: Iterable[Word]) -> SubgroupGraph:
    """Build the folded core graph of the subgroup the words generate.

    Each generator becomes a loop of new vertices at the base 0; settling the
    coincidences folds them, and :func:`_finish` prunes and renumbers.
    """
    core = _Coincidences()
    core.add()
    for gen in generators:
        if gen.alphabet.rank != alphabet.rank:
            raise AlphabetMismatch("generator over a different ambient rank")
        letters = gen.letters
        if not letters:
            continue
        prev = 0
        nxt = core.add(len(letters) - 1)
        for letter in letters[:-1]:
            core.join(prev, _slot(letter), nxt)
            prev, nxt = nxt, nxt + 1
        core.join(prev, _slot(letters[-1]), 0)
    core.settle()
    find = core.find  # stale targets name merged-away rows
    slots = range(2 * alphabet.rank)
    rows = [
        None if row is None else [find(row[s]) if s in row else None for s in slots]
        for row in core.rows
    ]
    return _finish(alphabet, rows)


def from_coset_action(
    alphabet: Alphabet, action: Dict[int, Sequence[int]]
) -> SubgroupGraph:
    """Graph of a point stabilizer of a transitive action on {0..k-1}.

    ``action`` maps letters 1..rank, and optionally their inverses, to
    permutations of 0..k-1, as :func:`_signed_action` checks.  The
    stabilized point is 0.
    """
    k, slots = _signed_action(alphabet, action)
    points, rows = _orbit_table(0, lambda v, s: slots[s][v], len(slots))
    if len(points) != k:
        raise ValueError("action is not transitive")
    return SubgroupGraph(alphabet, rows)


def _finish(
    alphabet: Alphabet, rows: Sequence[Optional[Sequence[Optional[int]]]]
) -> SubgroupGraph:
    """Prune degree-one vertices other than the base 0, then renumber by BFS.

    ``rows[v][s]`` is the vertex reached from ``v`` along slot ``s``, or None;
    ``rows[v]`` is None for a vertex that is gone.  ``degree[v]`` counts the
    kept edges at ``v`` and drops to 0 when ``v`` is pruned.
    """
    degree = [0 if row is None else len(row) - row.count(None) for row in rows]
    leaves = [v for v in range(1, len(rows)) if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        if degree[v] != 1:
            continue
        degree[v] = 0
        w = next(t for t in rows[v] if t is not None and degree[t])
        degree[w] -= 1
        if w != 0 and degree[w] == 1:
            leaves.append(w)

    def step(v: int, s: int) -> Optional[int]:
        t = rows[v][s]
        return t if t is not None and degree[t] else None

    _, table = _orbit_table(0, step, 2 * alphabet.rank)
    return SubgroupGraph(alphabet, table)
