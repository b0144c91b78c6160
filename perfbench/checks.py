"""Independent checkers for the benchmark's outputs.

Nothing here imports ``mcgcert``.  Words are tuples of nonzero ints (``i``
is the i-th generator, ``-i`` its inverse), tables are lists of target
lists, and every computation -- presentations, permutation evaluation,
coset tracing, free reduction, pattern counting, orbits -- is written out
again so that a fault in the program cannot also hide in its checker.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import product

# ---------------------------------------------------------------------------
# words


def invert(word):
    return tuple(-x for x in reversed(word))


def reduce_word(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def parse_letters(text, names):
    """Plain letter syntax as printed by the CLI: lowercase is a generator,
    uppercase its inverse, ``1`` the identity."""
    if text == "1":
        return ()
    index = {ch: i + 1 for i, ch in enumerate(names)}
    out = []
    for ch in text:
        if ch in index:
            out.append(index[ch])
        elif ch.lower() in index:
            out.append(-index[ch.lower()])
        else:
            raise ValueError(f"letter {ch!r} not in {names}")
    return tuple(out)


def format_letters(word, names):
    if not word:
        return "1"
    return "".join(names[x - 1] if x > 0 else names[-x - 1].upper() for x in word)


def reduced_words(rank, max_length):
    """Every reduced word of length at most ``max_length``."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out = [()]
    frontier = [()]
    for _ in range(max_length):
        frontier = [w + (x,) for w in frontier for x in letters if not w or x != -w[-1]]
        out.extend(frontier)
    return out


# ---------------------------------------------------------------------------
# punctured spheres


def sphere_relators(n):
    """Half-twist presentation of the n-punctured sphere: braid relations,
    distant commutations, the boundary relation and the full power."""
    rels = []
    for i in range(1, n - 1):
        rels.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            rels.append((i, j, -i, -j))
    up = tuple(range(1, n))
    rels.append(up + up[::-1])
    rels.append(up * n)
    return rels


def presentation_text(names, relators):
    lines = ["gens: " + " ".join(names)]
    lines += ["rel: " + format_letters(r, names) for r in relators]
    return "\n".join(lines) + "\n"


def pure_generators(n):
    """A_ij = (w_{j-1} ... w_{i+1}) w_i^2 (w_{j-1} ... w_{i+1})^-1, 1 <= i < j <= n-1."""
    gens = []
    for i in range(1, n):
        for j in range(i + 1, n):
            conj = tuple(range(j - 1, i, -1))
            gens.append(conj + (i, i) + invert(conj))
    return gens


def transposition_images(n):
    """w_i acts on the n punctures (0-based) as the transposition (i-1, i)."""
    images = {}
    for i in range(1, n):
        perm = list(range(n))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        images[i] = tuple(perm)
    return images


# ---------------------------------------------------------------------------
# permutations (right actions: a word acts letter by letter, left to right)


def perm_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def signed_perms(images):
    signed = {}
    for letter, p in images.items():
        signed[letter] = tuple(p)
        signed[-letter] = perm_inverse(p)
    return signed


def word_perm(word, signed, degree):
    cur = list(range(degree))
    for letter in word:
        p = signed[letter]
        cur = [p[x] for x in cur]
    return tuple(cur)


def group_closure(generators, degree):
    identity = tuple(range(degree))
    seen = {identity}
    queue = deque([identity])
    while queue:
        g = queue.popleft()
        for h in generators:
            x = tuple(h[i] for i in g)
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return seen


# ---------------------------------------------------------------------------
# coset tables given as actions: action[letter][c] for letters +-1..rank


def action_from_rows(rows, rank):
    """Read the program's slot order (+1, -1, +2, -2, ...) into an action."""
    action = {}
    for i in range(1, rank + 1):
        action[i] = [row[2 * (i - 1)] for row in rows]
        action[-i] = [row[2 * (i - 1) + 1] for row in rows]
    return action


def action_from_json(data, names):
    """Read ``fpg coset --json`` output, matching letters to ``names``."""
    k = data["cosets"]
    action = {}
    for i, name in enumerate(names, start=1):
        action[i] = [t - 1 for t in data["action"][name]]
        action[-i] = [t - 1 for t in data["action"][name.upper()]]
    for letter, targets in action.items():
        if len(targets) != k:
            raise ValueError(f"letter {letter} acts on {len(targets)} points, not {k}")
    return k, action


def trace(action, coset, word):
    for letter in word:
        coset = action[letter][coset]
    return coset


def check_coset_table(k, action, relators, subgroup, expected_index):
    """A complete, consistent, transitive table of a subgroup of the given
    index: permutations with matching inverses, every relator fixing every
    coset, every subgroup generator fixing coset 0."""
    problems = []
    if k != expected_index:
        problems.append(f"index {k}, expected {expected_index}")
    letters = sorted(action, key=lambda x: (abs(x), -x))
    for letter in letters:
        targets = action[letter]
        if sorted(targets) != list(range(k)):
            problems.append(f"letter {letter} does not act as a permutation")
            return problems
        if letter > 0 and any(action[-letter][t] != c for c, t in enumerate(targets)):
            problems.append(f"letter {-letter} is not the inverse of {letter}")
    if problems:
        return problems
    seen = {0}
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for letter in letters:
            t = action[letter][c]
            if t not in seen:
                seen.add(t)
                queue.append(t)
    if len(seen) != k:
        problems.append(f"action is not transitive: orbit of 0 has {len(seen)} points")
    for r, rel in enumerate(relators):
        moved = next((c for c in range(k) if trace(action, c, rel) != c), None)
        if moved is not None:
            problems.append(f"relator {r} moves coset {moved}")
    for g, word in enumerate(subgroup):
        if trace(action, 0, word) != 0:
            problems.append(f"subgroup generator {g} moves coset 0")
    return problems


def check_schreier_counts(index, rank, relator_count, generators, relators):
    """Reidemeister-Schreier of an index-k subgroup of a rank-r group with
    m relators: k(r-1)+1 generators and km relators."""
    problems = []
    if generators != index * (rank - 1) + 1:
        problems.append(f"{generators} Schreier generators, expected {index * (rank - 1) + 1}")
    if relators != index * relator_count:
        problems.append(f"{relators} rewritten relators, expected {index * relator_count}")
    return problems


def check_words_in_kernel(words, images, degree):
    """Every word maps to the identity permutation."""
    signed = signed_perms(images)
    identity = tuple(range(degree))
    bad = [i for i, w in enumerate(words) if word_perm(w, signed, degree) != identity]
    return [f"{len(bad)} words act nontrivially, first at {bad[0]}"] if bad else []


def check_words_in_subgroup(words, images, subgroup_generators, degree):
    """Every word maps into the permutation group the subgroup generators
    generate."""
    signed = signed_perms(images)
    target = group_closure([word_perm(g, signed, degree) for g in subgroup_generators], degree)
    return [
        f"generator {i} ({w}) maps outside the subgroup"
        for i, w in enumerate(words)
        if word_perm(w, signed, degree) not in target
    ]


# ---------------------------------------------------------------------------
# the verify workload's CLI outputs

CHECK_IDS = (
    "coboundary-squared",
    "genus2-pipeline",
    "guard-sl2z",
    "guard-sphere-3",
    "guard-sphere-4",
    "guard-sphere-6",
    "h1-sphere-4",
    "half-twist-obstruction",
    "nested-chain",
    "quasi-suite",
    "random-fold-confluence",
    "random-schreier",
    "random-snf",
    "sl2z-derived-free",
    "sphere4-pure-free",
    "subgroup-auto-n2k2",
    "subgroup-auto-n2k3",
    "subgroup-auto-n3k2",
    "symmetric-quotients",
    "twist-chain",
)


def check_verify_report(raw):
    """A ``verify --json`` report in which every registry check passes."""
    report = json.loads(raw)
    statuses = {c["id"]: c["status"] for c in report["checks"]}
    problems = []
    if tuple(sorted(statuses)) != CHECK_IDS:
        problems.append(f"checks {sorted(statuses)}, expected {list(CHECK_IDS)}")
    problems += [f"{cid}: {status}" for cid, status in sorted(statuses.items()) if status != "pass"]
    return problems


def parse_presentation_text(text):
    """(generator names, relator strings) of the ``gens:``/``rel:`` format."""
    names, rels = None, []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if names is None:
            if not line.startswith("gens:"):
                raise ValueError("presentation must start with 'gens:'")
            names = tuple(line[len("gens:"):].split())
        elif line.startswith("rel:"):
            rels.append(line[len("rel:"):].strip())
        else:
            raise ValueError(f"unexpected line {line!r}")
    if names is None:
        raise ValueError("no 'gens:' line")
    return names, rels


def check_free_presentation(text, rank):
    """A presentation with ``rank`` generators and no relators."""
    names, rels = parse_presentation_text(text)
    problems = []
    if len(names) != rank:
        problems.append(f"{len(names)} generators, expected {rank}")
    if rels:
        problems.append(f"{len(rels)} relators, expected none")
    return problems


# ---------------------------------------------------------------------------
# intersections


def product_orbit(action1, action2, rank):
    """Size of the orbit of (0, 0) under the diagonal action."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    seen = {(0, 0)}
    queue = deque([(0, 0)])
    while queue:
        u, v = queue.popleft()
        for x in letters:
            t = (action1[x][u], action2[x][v])
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen)


def check_graph(rows, index, rank):
    """A folded graph of a subgroup of the given index: every vertex has
    every edge, so the rank is edges - vertices + 1 = index (rank-1) + 1."""
    problems = []
    if len(rows) != index:
        problems.append(f"{len(rows)} vertices, expected {index}")
    holes = sum(1 for row in rows for t in row if t is None)
    if holes:
        problems.append(f"{holes} missing edges; the index is not finite")
    edges = (sum(1 for row in rows for t in row if t is not None)) // 2
    expected_rank = index * (rank - 1) + 1
    if edges - len(rows) + 1 != expected_rank:
        problems.append(f"rank {edges - len(rows) + 1}, expected {expected_rank}")
    return problems


# ---------------------------------------------------------------------------
# counting quasimorphisms


def greedy_count(pattern, word):
    """Left-greedy disjoint occurrences of ``pattern`` in ``word``."""
    m, n, i, count = len(pattern), len(word), 0, 0
    while i + m <= n:
        if word[i : i + m] == pattern:
            count += 1
            i += m
        else:
            i += 1
    return count


def counting_value(pattern, word):
    return greedy_count(pattern, word) - greedy_count(invert(pattern), word)


def brute_defect(pattern, rank, radius):
    """max |f(xy) - f(x) - f(y)| over all pairs of the ball, pair by pair."""
    words = reduced_words(rank, radius)
    values = {w: counting_value(pattern, w) for w in words}
    worst = 0
    for x in words:
        for y in words:
            d = abs(counting_value(pattern, reduce_word(x + y)) - values[x] - values[y])
            worst = max(worst, d)
    return worst


def _window_count(pattern, word):
    m = len(pattern)
    return sum(1 for i in range(len(word) - m + 1) if word[i : i + m] == pattern)


def local_defect(pattern, rank, radius):
    """The same maximum as :func:`brute_defect`, from the seams alone.

    When the pattern overlaps no shift of itself, greedy counting counts
    every window, so f is additive up to the windows that straddle a seam.
    Write x = x'u and y = u^-1 y' with x'y' reduced: the windows inside x',
    u and y' cancel (f(u^-1) = -f(u)), leaving

        f(xy) - f(x) - f(y) = J(x', y') - J(x', u) - J(u^-1, y'),

    where J(s, t) counts the signed windows across the seam of st.  J reads
    only the last m-1 letters of s and the first m-1 of t, so the maximum
    runs over those ends; one of length below m-1 is the whole word, and the
    choice fits in the ball when |x'| + |u| and |u| + |y'| are at most the
    radius.
    """
    m = len(pattern)
    for shift in range(1, m):
        if pattern[shift:] == pattern[: m - shift]:
            raise ValueError("pattern overlaps itself; windows and greedy counts differ")
    inverse = invert(pattern)
    ends = reduced_words(rank, m - 1)
    seam = {}

    def across(s, t):
        key = (s, t)
        if key not in seam:
            w = s + t
            inside = len(s)
            count = 0
            for pat, sign in ((pattern, 1), (inverse, -1)):
                for i in range(max(0, inside - m + 1), min(inside, len(w) - m + 1)):
                    if w[i : i + m] == pat:
                        count += sign
            seam[key] = count
        return seam[key]

    worst = 0
    for x_end, u_head, y_head in product(ends, repeat=3):
        if len(x_end) + len(u_head) > radius or len(u_head) + len(y_head) > radius:
            continue
        if x_end and u_head and x_end[-1] == -u_head[0]:
            continue  # x = x'u would not be reduced
        if u_head and y_head and u_head[0] == y_head[0]:
            continue  # y = u^-1 y' would not be reduced
        if x_end and y_head and x_end[-1] == -y_head[0]:
            continue  # the cancellation would not stop after u
        d = across(x_end, y_head) - across(x_end, u_head) - across(invert(u_head), y_head)
        worst = max(worst, abs(d))
    return worst


def check_defect(value, pattern, rank, radius):
    expected = local_defect(pattern, rank, radius)
    return [] if value == expected else [f"defect {value}, expected {expected}"]


def sphere_h1_rank(n):
    """H1 of the pure mapping class group of the n-punctured sphere is free
    abelian of rank n(n-3)/2."""
    return n * (n - 3) // 2
