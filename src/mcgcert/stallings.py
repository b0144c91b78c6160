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
too.  :func:`_spanning_tree` underlies free bases and Schreier generators,
and :func:`_signed_action` checks every permutation action.

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


def _signed_columns(
    rows: Sequence[Sequence[Optional[int]]], rank: int
) -> Dict[int, Tuple[Optional[int], ...]]:
    """The column of each signed letter of a table, keyed +1, -1, +2, -2, ..."""
    return {
        _slot_letter(s): tuple(row[s] for row in rows) for s in range(2 * rank)
    }


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

    def transition(self, vertex: int, letter: int) -> Optional[int]:
        """Endpoint of the ``letter``-edge at ``vertex``, or None."""
        return self.table[vertex][_slot(letter)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubgroupGraph):
            return NotImplemented
        return (self.alphabet.rank, self.table) == (other.alphabet.rank, other.table)

    def __hash__(self) -> int:
        return hash((self.alphabet.rank, self.table))

    def __repr__(self) -> str:
        return f"SubgroupGraph(rank-{self.alphabet.rank} ambient, {self.vertices} vertices)"

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
        """Spanning tree reps + basis of the subgroup, computed once.

        Returns ``(reps, basis, edge_sym)`` where ``reps[v]`` is the letter
        tuple of the tree path from the base to ``v``, ``basis`` is the list
        of basis Words (one per non-tree edge, in scan order), and
        ``edge_sym`` maps each directed non-tree edge ``(u, letter)`` to its
        signed basis symbol.
        """
        cached = self._cache.get("tree")
        if cached is not None:
            return cached
        reps, tree = _spanning_tree(self.table)
        basis: List[Word] = []
        edge_sym: Dict[Tuple[int, int], int] = {}
        for v, row in enumerate(self.table):
            for s, t in enumerate(row):
                if t is None:
                    continue
                letter = _slot_letter(s)
                if (v, letter) in tree or (v, letter) in edge_sym:
                    continue
                word = self.alphabet.word(reps[v] + (letter,) + _invert(reps[t]))
                basis.append(word)
                sym = len(basis)
                edge_sym[(v, letter)] = sym
                if (t, -letter) not in edge_sym:
                    edge_sym[(t, -letter)] = -sym
        data = (reps, basis, edge_sym)
        self._cache["tree"] = data
        return data

    def basis(self) -> List[Word]:
        """A free basis of the subgroup, in deterministic scan order."""
        return list(self._tree_data()[1])

    def basis_alphabet(self) -> Alphabet:
        """Alphabet for rewritten members; rank max(1, subgroup rank)."""
        return Alphabet(max(1, len(self._tree_data()[1])))

    def express(self, word: Word) -> Optional[Word]:
        """Rewrite a member over :meth:`basis`; None when not a member.

        The returned word is over :meth:`basis_alphabet`; substituting the
        basis words for its letters recovers ``word`` exactly.
        """
        self._check_word(word)
        end, symbols = _walk(self.table, 0, word.letters, self._tree_data()[2])
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
        inv = self.invariants()
        if inv.index is None:
            raise InfiniteIndexError(
                "subgroup has infinite index; no finite coset table exists"
            )
        return _signed_columns(self.table, self.alphabet.rank)

    # -- lattice operations ------------------------------------------------

    def intersect(self, other: "SubgroupGraph") -> "SubgroupGraph":
        """Graph of the intersection: reachable part of the product graph."""
        if self.alphabet.rank != other.alphabet.rank:
            raise AlphabetMismatch("intersection requires equal ambient rank")

        def step(pair, s):
            t1, t2 = self.table[pair[0]][s], other.table[pair[1]][s]
            return None if t1 is None or t2 is None else (t1, t2)

        _, rows = _orbit_table((0, 0), step, 2 * self.alphabet.rank)
        adj = [
            {_slot_letter(s): t for s, t in enumerate(row) if t is not None}
            for row in rows
        ]
        return _finish(self.alphabet, adj, 0)

    def contains(self, other: "SubgroupGraph") -> bool:
        """Whether ``other`` is a subgroup of this subgroup."""
        return all(self.member(w) for w in other.basis())


# -- construction ----------------------------------------------------------


def subgroup_graph(alphabet: Alphabet, generators: Iterable[Word]) -> SubgroupGraph:
    """Build the folded core graph of the subgroup the words generate."""
    edges: List[Tuple[int, int, int]] = []
    n = 1  # vertex 0 is the base
    for gen in generators:
        if gen.alphabet.rank != alphabet.rank:
            raise AlphabetMismatch("generator over a different ambient rank")
        letters = gen.letters
        if not letters:
            continue
        prev = 0
        for i, letter in enumerate(letters):
            nxt = 0 if i == len(letters) - 1 else n
            if nxt != 0:
                n += 1
            edges.append((prev, letter, nxt))
            prev = nxt
    adj, base = _fold(n, edges)
    return _finish(alphabet, adj, base)


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


def _fold(
    n: int, edges: Sequence[Tuple[int, int, int]]
) -> Tuple[List[Dict[int, int]], int]:
    """Union-find folding: clean adjacency plus the base's representative.

    Vertices that were merged away get an empty dict; all targets in
    surviving dicts are representatives.  Vertex 0 is the base, but its class
    may end up represented by another vertex, hence the second return value.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    out: List[Dict[int, int]] = [dict() for _ in range(n)]
    pending: deque = deque()

    def set_edge(u: int, letter: int, v: int) -> None:
        ru = find(u)
        cur = out[ru].get(letter)
        if cur is None:
            out[ru][letter] = v
        elif find(cur) != find(v):
            pending.append((cur, v))

    for u, letter, v in edges:
        set_edge(u, letter, v)
        set_edge(v, -letter, u)
    while pending:
        a, b = pending.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if len(out[ra]) < len(out[rb]):
            ra, rb = rb, ra
        parent[rb] = ra
        absorbed = out[rb]
        out[rb] = {}
        for letter, t in absorbed.items():
            cur = out[ra].get(letter)
            if cur is None:
                out[ra][letter] = t
            elif find(cur) != find(t):
                pending.append((cur, t))
    clean: List[Dict[int, int]] = [dict() for _ in range(n)]
    for v in range(n):
        if find(v) == v:
            clean[v] = {letter: find(t) for letter, t in out[v].items()}
    return clean, find(0)


def _finish(alphabet: Alphabet, adj: List[Dict[int, int]], base: int) -> SubgroupGraph:
    """Prune degree-one non-base vertices, then renumber by BFS."""
    alive = [bool(d) or v == base for v, d in enumerate(adj)]
    queue = deque(
        v for v, d in enumerate(adj) if alive[v] and v != base and len(d) == 1
    )
    while queue:
        v = queue.popleft()
        if not alive[v] or v == base or len(adj[v]) != 1:
            continue
        letter, w = next(iter(adj[v].items()))
        alive[v] = False
        adj[v] = {}
        del adj[w][-letter]
        if w != base and len(adj[w]) == 1:
            queue.append(w)
    letters = [_slot_letter(s) for s in range(2 * alphabet.rank)]
    _, table = _orbit_table(base, lambda v, s: adj[v].get(letters[s]), len(letters))
    return SubgroupGraph(alphabet, table)
