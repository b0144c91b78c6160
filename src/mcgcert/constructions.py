"""Concrete groups, subgroup families, and the deterministic check registry.

This module assembles the toolkit's verified showcase: half-twist
presentations of punctured-sphere mapping class groups, SL(2,Z), Dehn-twist
chain subgroups of a rank-2 free group, iterated-kernel chains with rose
projections, finite-index free subgroups carrying basis automorphisms that
extend to no ambient endomorphism, and a counting-quasimorphism family whose
independence survives pullback and restriction.  ``verify_all`` runs every
check deterministically and returns a JSON-serializable report.

Guard checks validate adopted presentations through consequences (symmetric
quotient order, abelianization invariants) before anything depends on them;
a failing guard marks its dependents inconclusive rather than letting them
report against a miscopied presentation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .fpgroup import (
    ClosureBoundError,
    CosetTable,
    EnumerationBudgetError,
    Presentation,
    RewriteStep,
    abelianization,
    bareiss_det,
    coset_table_from_ab,
    format_presentation,
    perm_image,
    regular_coset_table,
    reidemeister_schreier,
    rewrite_equal,
    smith_normal_form,
    tietze_simplify,
    todd_coxeter,
)
from .quasi import (
    BallBudgetError,
    BoundedCochain,
    HomogenizationError,
    Quasimorphism,
    as_cochain,
    delta_delta,
    homogenize,
    independence_rank,
)
from .stallings import SubgroupGraph, _orbit_table, from_coset_action, subgroup_graph
from .words import Alphabet, FreeHom, Word, format_word


# ---------------------------------------------------------------------------
# concrete presentations and subgroup families


def punctured_sphere_presentation(n: int) -> Presentation:
    """Half-twist presentation of the mapping class group of the n-punctured
    sphere.

    Generators ``w_1 .. w_{n-1}`` (displayed ``a, b, c, ...``); relators are
    the braid relations ``w_i w_{i+1} w_i = w_{i+1} w_i w_{i+1}``, the
    distant commutations ``w_i w_j = w_j w_i`` for ``|i-j| >= 2``, the
    boundary relation ``w_1 ... w_{n-1} w_{n-1} ... w_1 = 1``, and the full
    power ``(w_1 ... w_{n-1})^n = 1``.
    """
    if n < 3:
        raise ValueError("need at least 3 punctures")
    if n - 1 > 26:
        raise ValueError("generator names run out past 27 punctures")
    alphabet = Alphabet(n - 1)
    rels: List[Word] = []
    for i in range(1, n - 1):
        rels.append(alphabet.word((i, i + 1, i, -(i + 1), -i, -(i + 1))))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            rels.append(alphabet.word((i, j, -i, -j)))
    ascending = list(range(1, n))
    rels.append(alphabet.word(ascending + ascending[::-1]))
    rels.append(alphabet.word(ascending * n))
    return Presentation(alphabet, rels)


def sphere_transposition_images(n: int) -> Dict[int, List[int]]:
    """The assignment sending the i-th half-twist to the transposition
    (i, i+1) of the n punctures (zero-based points)."""
    images: Dict[int, List[int]] = {}
    for i in range(1, n):
        perm = list(range(n))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        images[i] = perm
    return images


def sl2z_presentation() -> Presentation:
    """``<s, t | s^4, (st)^3 s^-2>``: abelianization Z/12, derived subgroup
    free of rank 2."""
    st = Alphabet(2, names=("s", "t"))
    return Presentation(st, (st.parse("s^4"), st.parse("(st)^3 s^-2")))


def twist_chain(n: int) -> List[Word]:
    """Chain generators ``c^j d c^-j`` (j = 0..n-2) and ``c^(n-1)`` in the
    rank-2 free group on c, d.

    The subgroup they generate has index n-1 and rank n; it contains c^2
    exactly when n = 3.
    """
    if n < 3:
        raise ValueError("chain needs n >= 3")
    cd = Alphabet(2, names=("c", "d"))
    c = cd.word((1,))
    d = cd.word((2,))
    gens = [c**j * d * c**-j for j in range(n - 1)]
    gens.append(c ** (n - 1))
    return gens


@dataclass(frozen=True)
class ChainLevel:
    """One level of the iterated-kernel chain: its graph under F2, its basis
    as ambient words, and the projection of the basis onto a rose."""

    graph: SubgroupGraph
    basis_words: Tuple[Word, ...]
    projection: FreeHom


def nested_kernel_chain(depth: int) -> List[ChainLevel]:
    """Iterated index-2 kernels under the rank-2 free group.

    Level 1 is the whole group; level k+1 is the kernel of the map from
    level k onto Z/2 reading the parity of its first basis letter, built by
    folding the standard kernel generators (first basis element squared, the
    others, and their conjugates by the first).  Ranks follow 2^(k-1) + 1.
    Each level carries the projection of its basis alphabet onto the rank-k
    rose: the first k basis letters map to the rose letters, the rest die.
    """
    if not 1 <= depth <= 8:
        raise ValueError("depth must be between 1 and 8")
    f2 = Alphabet(2)
    levels: List[ChainLevel] = []
    graph = subgroup_graph(f2, [f2.word((1,)), f2.word((2,))])
    for k in range(1, depth + 1):
        basis = tuple(graph.basis())
        basis_alpha = graph.basis_alphabet()
        rose = Alphabet(k)
        images = tuple(
            rose.word((i + 1,)) if i < k else rose.identity()
            for i in range(len(basis))
        )
        levels.append(
            ChainLevel(
                graph=graph,
                basis_words=basis,
                projection=FreeHom(basis_alpha, rose, images),
            )
        )
        if k < depth:
            m = len(basis)
            symbols = [(1, 1)]
            symbols += [(i,) for i in range(2, m + 1)]
            symbols += [(1, i, -1) for i in range(2, m + 1)]
            to_ambient = FreeHom(basis_alpha, f2, basis)
            gens = [to_ambient(basis_alpha.word(sym)) for sym in symbols]
            graph = subgroup_graph(f2, gens)
    return levels


@dataclass(frozen=True)
class BasisEndomorphism:
    """A finite-index free subgroup with a self-map given on a free basis.

    ``generator_words`` list a free basis of the subgroup as ambient words
    (their count equals the graph's rank, which certifies freeness);
    ``image_words[i]`` is the image of ``generator_words[i]``.  The
    ``*_coords`` fields rewrite both lists over the graph's own basis.
    """

    alphabet: Alphabet
    graph: SubgroupGraph
    generator_words: Tuple[Word, ...]
    image_words: Tuple[Word, ...]
    generator_coords: Tuple[Word, ...]
    image_coords: Tuple[Word, ...]


def basis_endomorphism_instance(n: int, k: int) -> BasisEndomorphism:
    """The index-k subgroup of the rank-n free group with basis
    ``{a^j x a^-j : 0 <= j < k, x a letter 2..n}  +  {a^k}``
    and the self-map fixing every basis element except
    ``a x_1 a^-1 -> (a x_1 a^-1) x_1`` (first conjugated letter).

    The subgroup has rank k(n-1)+1 by the index formula, matching the
    generator count, so the listed generators are a free basis and the
    self-map is well defined.
    """
    if n < 2 or k < 2:
        raise ValueError("need rank n >= 2 and index k >= 2")
    alphabet = Alphabet(n)
    a = alphabet.word((1,))
    gens: List[Word] = []
    for j in range(k):
        for i in range(2, n + 1):
            gens.append(a**j * alphabet.word((i,)) * a**-j)
    gens.append(a**k)
    graph = subgroup_graph(alphabet, gens)
    special = a * alphabet.word((2,)) * a**-1
    images = tuple(
        g * alphabet.word((2,)) if g == special else g for g in gens
    )
    gen_coords = []
    img_coords = []
    for g, im in zip(gens, images):
        cg = graph.express(g)
        ci = graph.express(im)
        if cg is None or ci is None:
            raise AssertionError("basis or image escaped the subgroup")
        gen_coords.append(cg)
        img_coords.append(ci)
    return BasisEndomorphism(
        alphabet=alphabet,
        graph=graph,
        generator_words=tuple(gens),
        image_words=images,
        generator_coords=tuple(gen_coords),
        image_coords=tuple(img_coords),
    )


def brooks_family(size: int = 10) -> Tuple[List[Quasimorphism], List[Word]]:
    """The counting quasimorphisms for ``a b^i a^-1 b^-i`` (i = 1..size)
    together with the patterns themselves as test words."""
    f2 = Alphabet(2)
    qms: List[Quasimorphism] = []
    tests: List[Word] = []
    for i in range(1, size + 1):
        w = f2.word((1,) + (2,) * i + (-1,) + (-2,) * i)
        qms.append(Quasimorphism([(1, w)]))
        tests.append(w)
    return qms, tests


# ---------------------------------------------------------------------------
# check results and report plumbing


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    ``statement`` is the precise assertion that was tested; it is emitted
    under the JSON key ``quote``.  ``status`` is ``pass`` only when every
    asserted equality held exactly; budget- or cap-limited evidence is
    ``inconclusive``; anything else is ``fail``.
    """

    id: str
    claim: str
    statement: str
    status: str
    witness: dict

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "quote": self.statement,
            "status": self.status,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class VerifyConfig:
    """Configuration for :func:`verify_all`.

    ``checks`` filters the registry (None = all); guards required by a
    selected check are force-included so dependent statuses stay honest.
    """

    checks: Optional[Tuple[str, ...]] = None
    tietze_budget: int = 10**4
    homogenization_cap: int = 64
    seed: int = 1729


@dataclass(frozen=True)
class Report:
    """All check results plus the conventions they were produced under."""

    toolkit: dict
    checks: Tuple[CheckResult, ...]

    @property
    def failed(self) -> Tuple[str, ...]:
        return tuple(c.id for c in self.checks if c.status == "fail")

    @property
    def inconclusive(self) -> Tuple[str, ...]:
        return tuple(c.id for c in self.checks if c.status == "inconclusive")

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_json_dict(self) -> dict:
        return {
            "toolkit": self.toolkit,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _json_safe(value):
    """Recursively convert witnesses to plain JSON values."""
    if isinstance(value, Fraction):
        return (
            int(value)
            if value.denominator == 1
            else f"{value.numerator}/{value.denominator}"
        )
    if isinstance(value, Word):
        return format_word(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    raise TypeError(f"witness value of unsupported type {type(value)!r}")


# ---------------------------------------------------------------------------
# individual checks

Outcome = Tuple[str, dict]
_PASS = "pass"
_FAIL = "fail"
_INCONCLUSIVE = "inconclusive"


def _status(ok: bool) -> str:
    return _PASS if ok else _FAIL


def _sphere_guard(n: int) -> Outcome:
    p = punctured_sphere_presentation(n)
    img = perm_image(p, sphere_transposition_images(n), max_order=1000)
    ab = abelianization(p)
    expected_order = gcd(2 * (n - 1), n * (n - 1))
    ok = (
        img.is_homomorphism
        and img.order == factorial(n)
        and ab.free_rank == 0
        and ab.moduli == (expected_order,)
    )
    witness = {
        "relator_violations": list(img.relator_violations),
        "perm_image_order": img.order,
        "expected_perm_order": factorial(n),
        "abelianization": ab.describe(),
        "expected_abelianization": f"Z/{expected_order}",
    }
    return _status(ok), witness


def _check_guard_sl2z(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    p = sl2z_presentation()
    ab = abelianization(p)
    ok = ab.free_rank == 0 and ab.moduli == (12,)
    witness = {"abelianization": ab.describe()}
    if ok:
        table = coset_table_from_ab(ab)
        witness["kernel_cosets"] = table.index
        ok = table.index == 12
    return _status(ok), witness


def _check_h1_sphere_4(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    p = punctured_sphere_presentation(4)
    ab = abelianization(p)
    w1sq = ab.project(p.alphabet.parse("a^2"))
    w2sq = ab.project(p.alphabet.parse("b^2"))
    ok = (
        ab.free_rank == 0
        and ab.moduli == (6,)
        and w1sq.order() == 3
        and w2sq.order() == 3
    )
    witness = {
        "abelianization": ab.describe(),
        "class_w1_squared": list(w1sq.torsion),
        "class_w2_squared": list(w2sq.torsion),
        "orders": [w1sq.order(), w2sq.order()],
    }
    return _status(ok), witness


def _check_symmetric_quotients(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    rows = []
    ok = True
    for n in (3, 4, 6):
        p = punctured_sphere_presentation(n)
        img = perm_image(p, sphere_transposition_images(n), max_order=1000)
        good = img.is_homomorphism and img.order == factorial(n)
        ok = ok and good
        rows.append({"punctures": n, "order": img.order, "expected": factorial(n)})
    p3 = punctured_sphere_presentation(3)
    whole = todd_coxeter(p3, ())
    pure = todd_coxeter(p3, [p3.alphabet.parse("a^2"), p3.alphabet.parse("b^2")])
    ok = ok and whole.index == 6 and pure.index == 6
    witness = {
        "quotient_orders": rows,
        "three_puncture_group_order": whole.index,
        "three_puncture_pure_index": pure.index,
        "three_puncture_pure_order": whole.index // pure.index,
    }
    return _status(ok), witness


def _twist_chain_row(n: int) -> dict:
    cd = Alphabet(2, names=("c", "d"))
    graph = subgroup_graph(cd, twist_chain(n))
    inv = graph.invariants()
    return {
        "n": n,
        "rank": inv.rank,
        "index": inv.index,
        "contains_c_squared": graph.member(cd.parse("c^2")),
    }


def _chains_ok(rows: List[dict]) -> bool:
    return all(
        r["rank"] == r["n"]
        and r["index"] == r["n"] - 1
        and r["contains_c_squared"] == (r["n"] == 3)
        for r in rows
    )


def _check_twist_chain(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    rows = [_twist_chain_row(n) for n in range(3, 9)]
    return _status(_chains_ok(rows)), {"chains": rows}


def _free_rank_pipeline(
    p: Presentation, table: CosetTable, budget: int
) -> Tuple[bool, bool, dict]:
    """Rewrite the subgroup of ``table`` and try to simplify to a free
    presentation; returns (simplified-to-free, counts-consistent, witness)."""
    data = reidemeister_schreier(p, table)
    rs = data.presentation
    expected_gens = table.index * (p.alphabet.rank - 1) + 1
    expected_rels = table.index * len(p.relators)
    counts_ok = (
        rs.alphabet.rank == expected_gens and len(rs.relators) == expected_rels
    )
    rs_ab = abelianization(rs)
    simplified = tietze_simplify(rs, budget=budget)
    is_free = len(simplified.relators) == 0
    witness = {
        "cosets": table.index,
        "rewritten_generators": rs.alphabet.rank,
        "rewritten_relators": len(rs.relators),
        "subgroup_abelianization": rs_ab.describe(),
        "simplified_generators": simplified.alphabet.rank,
        "simplified_relators": len(simplified.relators),
    }
    return is_free, counts_ok, witness


def _check_sl2z_derived_free(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    p = sl2z_presentation()
    table = coset_table_from_ab(abelianization(p))
    is_free, counts_ok, witness = _free_rank_pipeline(p, table, cfg.tietze_budget)
    witness["expected"] = {"cosets": 12, "generators": 13, "relators": 24}
    if not counts_ok or table.index != 12:
        return _FAIL, witness
    hard_facts = witness["subgroup_abelianization"] == "Z^2"
    if is_free:
        ok = hard_facts and witness["simplified_generators"] == 2
        return _status(ok), witness
    witness["reason"] = "Tietze budget exhausted before a free presentation"
    return (_INCONCLUSIVE if hard_facts else _FAIL), witness


def _check_sphere4_pure_free(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    p = punctured_sphere_presentation(4)
    squares = [p.alphabet.parse("a^2"), p.alphabet.parse("b^2")]
    table = todd_coxeter(p, squares)
    regular = regular_coset_table(p, sphere_transposition_images(4))
    tables_match = table == regular
    is_free, counts_ok, witness = _free_rank_pipeline(p, table, cfg.tietze_budget)
    witness["index"] = table.index
    witness["regular_table_matches"] = tables_match
    witness["expected"] = {"cosets": 24, "generators": 49, "relators": 120}
    hard_facts = (
        table.index == 24
        and tables_match
        and counts_ok
        and witness["subgroup_abelianization"] == "Z^2"
    )
    if not hard_facts:
        return _FAIL, witness
    if is_free:
        return _status(witness["simplified_generators"] == 2), witness
    witness["reason"] = "Tietze budget exhausted before a free presentation"
    return _INCONCLUSIVE, witness


def _extension_obstruction(inst: BasisEndomorphism, k: int) -> dict:
    """The three sub-certificates for non-extension of the basis self-map.

    (i) the images generate the whole subgroup, so the self-map is onto and
    hence an automorphism of a finitely generated free group (Hopf property,
    taken as an axiom, not retested); (ii) the ambient k-th root of the
    power generator is unique, so an ambient endomorphism agreeing with the
    self-map is forced to fix every ambient letter; (iii) the self-map moves
    a basis element, contradicting (ii) unless it extends to nothing.
    """
    regenerated = subgroup_graph(inst.alphabet, list(inst.image_words))
    images_generate = regenerated == inst.graph
    a = inst.alphabet.word((1,))
    power = inst.generator_words[-1]
    root = power.kth_root(k)
    root_unique = root == a
    fixed_letters = all(
        inst.image_words[i] == inst.generator_words[i]
        for i, g in enumerate(inst.generator_words)
        if len(g) == 1
    )
    power_fixed = inst.image_words[-1] == power
    moved = [
        i
        for i, (g, im) in enumerate(zip(inst.generator_words, inst.image_words))
        if g != im
    ]
    return {
        "images_generate_subgroup": images_generate,
        "hopf_axiom": "surjective endomorphism of a f.g. free group is an automorphism",
        "power_root": format_word(root) if root is not None else None,
        "root_is_first_letter": root_unique,
        "letter_generators_fixed": fixed_letters,
        "power_generator_fixed": power_fixed,
        "moved_basis_indices": moved,
        "is_identity_on_basis": not moved,
    }


def _subgroup_auto_check(n: int, k: int) -> Outcome:
    inst = basis_endomorphism_instance(n, k)
    inv = inst.graph.invariants()
    expected_rank = k * (n - 1) + 1
    sigma = _extension_obstruction(inst, k)
    to_ambient = FreeHom(
        inst.graph.basis_alphabet(), inst.alphabet, tuple(inst.graph.basis())
    )
    round_trips = all(
        to_ambient(c) == g
        for c, g in zip(inst.generator_coords, inst.generator_words)
    ) and all(
        to_ambient(c) == im
        for c, im in zip(inst.image_coords, inst.image_words)
    )
    identity_control = _extension_obstruction(
        BasisEndomorphism(
            inst.alphabet,
            inst.graph,
            inst.generator_words,
            inst.generator_words,
            inst.generator_coords,
            inst.generator_coords,
        ),
        k,
    )
    ok = (
        inv.rank == expected_rank
        and inv.index == k
        and len(inst.generator_words) == expected_rank
        and round_trips
        and sigma["images_generate_subgroup"]
        and sigma["root_is_first_letter"]
        and sigma["letter_generators_fixed"]
        and sigma["power_generator_fixed"]
        and not sigma["is_identity_on_basis"]
        and identity_control["is_identity_on_basis"]
    )
    witness = {
        "rank": inv.rank,
        "index": inv.index,
        "expected_rank": expected_rank,
        "basis_in_subgroup_coordinates": [format_word(c) for c in inst.generator_coords],
        "images_in_subgroup_coordinates": [format_word(c) for c in inst.image_coords],
        "coordinates_round_trip": round_trips,
        "self_map": sigma,
        "identity_control": {
            "is_identity_on_basis": identity_control["is_identity_on_basis"],
            "extends": "trivially (restriction of the ambient identity)",
        },
    }
    return _status(ok), witness


def _check_half_twist_obstruction(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    f2 = Alphabet(2)
    phi_images = [f2.parse("a"), f2.parse("ab")]
    whole = subgroup_graph(f2, [f2.parse("a"), f2.parse("b")])
    phi_auto = subgroup_graph(f2, phi_images) == whole

    p = punctured_sphere_presentation(4)
    ab = abelianization(p)
    c1 = ab.project(p.alphabet.parse("a^2"))
    c12 = ab.project(p.alphabet.parse("a^2 b^2"))
    classes_distinct = c1 != c12
    orders_ok = c1.order() == 3 and c12.order() == 3

    conj = rewrite_equal(
        p,
        p.alphabet.parse("(ab) a (ab)^-1"),
        p.alphabet.parse("b"),
        [RewriteStep(position=0, relator_index=0, exponent=-1, conjugator=p.alphabet.identity())],
    )

    squares = [p.alphabet.parse("a^2"), p.alphabet.parse("b^2")]
    index = todd_coxeter(p, squares).index
    perm_order = perm_image(p, sphere_transposition_images(4)).order

    # the identity self-map pairs w2^2 with w1^2 (conjugates), so no class
    # mismatch appears; only the twisted map hits the obstruction
    identity_control_equal = ab.project(p.alphabet.parse("b^2")) == c1

    ok = (
        phi_auto
        and ab.moduli == (6,)
        and classes_distinct
        and orders_ok
        and conj.verified
        and index == 24
        and perm_order == 24
        and identity_control_equal
    )
    witness = {
        "free_automorphism_images": [format_word(w) for w in phi_images],
        "images_generate_rose": phi_auto,
        "abelianization": ab.describe(),
        "class_of_first_square": list(c1.torsion),
        "class_of_product_of_squares": list(c12.torsion),
        "classes_distinct": classes_distinct,
        "orders": [c1.order(), c12.order()],
        "conjugacy_certificate_verified": conj.verified,
        "conjugacy_intermediates": [format_word(w) for w in conj.intermediates],
        "pure_subgroup_index": index,
        "symmetric_quotient_order": perm_order,
        "identity_control": {"classes_equal": identity_control_equal},
    }
    return _status(ok), witness


def _check_genus2_pipeline(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    p6 = punctured_sphere_presentation(6)
    img = perm_image(p6, sphere_transposition_images(6), max_order=1000)
    rows = [_twist_chain_row(n) for n in range(3, 9)]
    ok = img.is_homomorphism and img.order == 720 and _chains_ok(rows)
    witness = {
        "six_puncture_quotient_order": img.order,
        "index_arithmetic": "720 = 6!; preimages under surjections keep the index",
        "assumed_inputs": [
            "under the double-cover correspondence each ambient twist image "
            "is the square of a base twist, i.e. lands on c^2"
        ],
        "chains": rows,
        "avoidance": [
            {"n": r["n"], "c_squared_avoided": not r["contains_c_squared"]}
            for r in rows
            if r["n"] >= 4
        ],
    }
    return _status(ok), witness


def _check_nested_chain(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    depth = 6
    levels = nested_kernel_chain(depth)
    rows = []
    ok = True
    for k, level in enumerate(levels, start=1):
        inv = level.graph.invariants()
        expected_rank = 2 ** (k - 1) + 1 if k > 1 else 2
        expected_index = 2 ** (k - 1)
        rose = Alphabet(k)
        proj_images = [level.projection(level.graph.basis_alphabet().word((i + 1,)))
                       for i in range(len(level.basis_words))]
        image_graph = subgroup_graph(rose, proj_images)
        surjective = (
            image_graph.invariants().index == 1
            and image_graph.invariants().rank == k
        )
        contains_next = (
            level.graph.contains(levels[k].graph) if k < depth else None
        )
        good = (
            inv.rank == expected_rank
            and inv.index == expected_index
            and surjective
            and contains_next is not False
        )
        ok = ok and good
        rows.append(
            {
                "level": k,
                "rank": inv.rank,
                "index": inv.index,
                "projection_surjective": surjective,
                "contains_next": contains_next,
            }
        )
    witness = {
        "levels": rows,
        "index_note": (
            "indices in a strictly nested chain multiply, so no nested chain "
            "can have index exactly k-1 at every level k; this chain uses "
            "iterated index-2 kernels with index 2^(k-1) instead"
        ),
    }
    return _status(ok), witness


def _lifted_tests(level: ChainLevel, tests: Sequence[Word]) -> List[Word]:
    """Rewrite rank-2 test words in the first two basis letters of a chain
    level, so the level's rose projection maps them back to the originals."""
    basis_alpha = level.graph.basis_alphabet()
    return [basis_alpha.word(t.letters) for t in tests]


def _check_quasi_suite(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    f2 = Alphabet(2)
    qms, tests = brooks_family(10)
    base_rank = independence_rank(qms, tests)

    levels = nested_kernel_chain(4)
    l4 = levels[3]
    basis_alpha = l4.graph.basis_alphabet()
    epi_images = [
        f2.word((i + 1,)) if i < 2 else f2.identity()
        for i in range(basis_alpha.rank)
    ]
    epi = FreeHom(basis_alpha, f2, tuple(epi_images))
    pulled = [qm.pullback(epi) for qm in qms]
    lifted = _lifted_tests(l4, tests)
    pullback_rank = independence_rank(pulled, lifted)
    pointwise = all(
        pq(lt) == qm(t)
        for pq, qm in zip(pulled, qms)
        for lt, t in zip(lifted, tests)
    )

    l2 = levels[1]
    extra = [f2.parse("abA"), f2.parse("a^2"), f2.parse("b"), tests[0] * tests[1]]
    restricted_tests = list(tests) + extra
    coords = [l2.graph.express(t) for t in restricted_tests]
    inside = all(c is not None for c in coords)
    if not inside:
        return _FAIL, {
            "restriction_tests": [format_word(t) for t in restricted_tests],
            "restriction_tests_inside_subgroup": False,
        }
    hom_rows = [
        [Fraction(c.exponent_vector()[i]) for c in coords]
        for i in range(l2.graph.basis_alphabet().rank)
    ]
    restricted_rank = independence_rank(qms, restricted_tests, hom_rows)

    samples = 0
    dd_ok = True
    letters = (1, -1, 2, -2)
    cochain1 = as_cochain(qms[0])
    for _ in range(100):
        words = [
            f2.word([rng.choice(letters) for _ in range(rng.randint(0, 5))])
            for _ in range(3)
        ]
        if delta_delta(cochain1)(*words) != 0:
            dd_ok = False
        samples += 1

    homog = homogenize(qms[0], tests[0], cap=cfg.homogenization_cap)

    ok = (
        base_rank == 10
        and pullback_rank == 10
        and pointwise
        and inside
        and restricted_rank == 10
        and dd_ok
        and homog == 1
    )
    witness = {
        "base_rank": base_rank,
        "pullback_rank": pullback_rank,
        "pullback_pointwise_identity": pointwise,
        "restriction_tests": [format_word(t) for t in restricted_tests],
        "restriction_tests_inside_subgroup": inside,
        "restriction_rank": restricted_rank,
        "delta_delta_samples": samples,
        "delta_delta_all_zero": dd_ok,
        "first_pattern_homogenization": homog,
    }
    return _status(ok), witness


def _check_random_schreier(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    trials = 100
    good = 0
    for _ in range(trials):
        rank = rng.randint(2, 3)
        degree = rng.randint(1, 8)
        alphabet = Alphabet(rank)
        action = {}
        for letter in range(1, rank + 1):
            perm = list(range(degree))
            rng.shuffle(perm)
            action[letter] = perm
        # restrict to the orbit of 0, renumbered: one column per letter
        _, rows = _orbit_table(0, lambda v, s: action[s + 1][v], rank)
        restricted = {
            letter: [row[letter - 1] for row in rows] for letter in range(1, rank + 1)
        }
        graph = from_coset_action(alphabet, restricted)
        index = graph.invariants().index
        expected_gens = index * (rank - 1) + 1
        table = CosetTable(alphabet, graph.table)
        data = reidemeister_schreier(Presentation(alphabet, ()), table)
        rebuilt = subgroup_graph(alphabet, list(data.generator_words))
        if (
            graph.invariants().rank == expected_gens
            and len(data.generator_words) == expected_gens
            and rebuilt == graph
        ):
            good += 1
    return _status(good == trials), {"trials": trials, "passing": good}


def _check_random_fold_confluence(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    trials = 100
    good = 0
    f2 = Alphabet(2)
    letters = (1, -1, 2, -2)
    for _ in range(trials):
        gens = [
            f2.word([rng.choice(letters) for _ in range(rng.randint(1, 6))])
            for _ in range(rng.randint(1, 4))
        ]
        graph = subgroup_graph(f2, gens)
        variant = list(gens)
        rng.shuffle(variant)
        variant = [~g if rng.random() < 0.5 else g for g in variant]
        if len(variant) >= 2:
            i, j = rng.sample(range(len(variant)), 2)
            variant[i] = variant[i] * variant[j]
        regraph = subgroup_graph(f2, variant)
        if regraph == graph and all(regraph.member(g) for g in gens):
            good += 1
    return _status(good == trials), {"trials": trials, "passing": good}


def _check_random_snf(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    trials = 200
    good = 0
    for _ in range(trials):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        product = [
            [
                sum(u[i][x] * m[x][y] * v[y][j] for x in range(rows) for y in range(cols))
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        diag = [d[i][i] for i in range(min(rows, cols))]
        chain_ok = all(
            (diag[i + 1] % diag[i] == 0) if diag[i] else diag[i + 1] == 0
            for i in range(len(diag) - 1)
        )
        off_diag_zero = all(
            d[i][j] == 0
            for i in range(rows)
            for j in range(cols)
            if i != j
        )
        if (
            product == [list(r) for r in d]
            and off_diag_zero
            and chain_ok
            and all(x >= 0 for x in diag)
            and abs(bareiss_det(u)) == 1
            and abs(bareiss_det(v)) == 1
        ):
            good += 1
    return _status(good == trials), {"trials": trials, "passing": good}


def _check_coboundary_squared(cfg: VerifyConfig, rng: random.Random) -> Outcome:
    f2 = Alphabet(2)
    letters = (1, -1, 2, -2)
    qm = Quasimorphism([(1, f2.parse("ab"))])
    one = as_cochain(qm)
    two = BoundedCochain(2, lambda x, y: qm(x) * qm(y) - qm(x * y))

    def sample_word():
        return f2.word([rng.choice(letters) for _ in range(rng.randint(0, 6))])

    checked = 0
    ok = True
    for _ in range(500):
        words = [sample_word() for _ in range(3)]
        if delta_delta(one)(*words) != 0:
            ok = False
        checked += 1
    for _ in range(500):
        words = [sample_word() for _ in range(4)]
        if delta_delta(two)(*words) != 0:
            ok = False
        checked += 1
    return _status(ok), {"tuples": checked, "all_zero": ok}


# ---------------------------------------------------------------------------
# registry and driver

_CheckFn = Callable[[VerifyConfig, random.Random], Outcome]

_REGISTRY: Dict[str, Tuple[str, str, _CheckFn]] = {
    "guard-sphere-3": (
        "The 3-puncture half-twist presentation passes its consistency guards.",
        "the transposition assignment is a homomorphism with image of order "
        "3! = 6, and H1 is cyclic of order gcd(4, 6) = 2",
        lambda cfg, rng: _sphere_guard(3),
    ),
    "guard-sphere-4": (
        "The 4-puncture half-twist presentation passes its consistency guards.",
        "the transposition assignment is a homomorphism with image of order "
        "4! = 24, and H1 is cyclic of order gcd(6, 12) = 6",
        lambda cfg, rng: _sphere_guard(4),
    ),
    "guard-sphere-6": (
        "The 6-puncture half-twist presentation passes its consistency guards.",
        "the transposition assignment is a homomorphism with image of order "
        "6! = 720, and H1 is cyclic of order gcd(10, 30) = 10",
        lambda cfg, rng: _sphere_guard(6),
    ),
    "guard-sl2z": (
        "The SL(2,Z) presentation passes its consistency guard.",
        "H1 of <s,t | s^4, (st)^3 s^-2> is Z/12 and the abelianization "
        "kernel has a 12-coset table",
        _check_guard_sl2z,
    ),
    "h1-sphere-4": (
        "H1 of the 4-puncture group is Z/6 with squared generators of order 3.",
        "the Smith form gives H1 = Z/6 exactly, and the classes of w1^2 and "
        "w2^2 both have order 3",
        _check_h1_sphere_4,
    ),
    "symmetric-quotients": (
        "Symmetric quotients have orders 6, 24, 720; the 3-puncture pure "
        "subgroup is trivial.",
        "the transposition quotients of the 3-, 4-, 6-puncture groups have "
        "orders 6, 24, 720; coset enumeration gives the 3-puncture group "
        "order 6 and its pure subgroup index 6, hence order 1",
        _check_symmetric_quotients,
    ),
    "twist-chain": (
        "Twist-chain subgroups have index n-1, rank n, and exclude c^2 for "
        "n >= 4.",
        "for n = 3..8 the subgroup generated by c^j d c^-j (j < n-1) and "
        "c^(n-1) has index n-1 and rank n in the free group on c, d; it "
        "contains c^2 exactly when n = 3",
        _check_twist_chain,
    ),
    "sl2z-derived-free": (
        "The derived subgroup of SL(2,Z) is free of rank 2.",
        "the 12-coset abelianization kernel rewrites to 13 generators and "
        "24 relators with H1 = Z^2 and Tietze-simplifies to 2 generators "
        "and no relators",
        _check_sl2z_derived_free,
    ),
    "sphere4-pure-free": (
        "The pure subgroup of the 4-puncture group is free of rank 2.",
        "<w1^2, w2^2> has coset index 24 matching both |S4| and the regular "
        "table of the symmetric quotient; its rewritten presentation (49 "
        "generators, 120 relators) has H1 = Z^2 and Tietze-simplifies to 2 "
        "generators and no relators",
        _check_sphere4_pure_free,
    ),
    "subgroup-auto-n2k2": (
        "The basis self-map of the index-2 subgroup of F2 extends to no "
        "ambient endomorphism.",
        "the subgroup with basis {x, a x a^-1, a^2} of the rank-2 free group "
        "has rank 3 = 2(2-1)+1; the self-map sending a x a^-1 to a x a^-1 x "
        "and fixing the rest maps the basis to a generating set of the same "
        "subgroup (automorphism via the Hopf property); the square root of "
        "a^2 is unique, forcing any ambient extension to be the identity, "
        "yet the self-map is not the identity",
        lambda cfg, rng: _subgroup_auto_check(2, 2),
    ),
    "subgroup-auto-n2k3": (
        "The basis self-map of the index-3 subgroup of F2 extends to no "
        "ambient endomorphism.",
        "the analogous subgroup of index 3 has rank 4 = 3(2-1)+1 and the "
        "same three sub-certificates hold with cube roots",
        lambda cfg, rng: _subgroup_auto_check(2, 3),
    ),
    "subgroup-auto-n3k2": (
        "The basis self-map of the index-2 subgroup of F3 extends to no "
        "ambient endomorphism.",
        "the analogous subgroup of the rank-3 free group has rank 5 = "
        "2(3-1)+1 and the same three sub-certificates hold",
        lambda cfg, rng: _subgroup_auto_check(3, 2),
    ),
    "half-twist-obstruction": (
        "The pure-subgroup automorphism a -> a, b -> ab extends to no "
        "automorphism of the 4-puncture group.",
        "a -> a, b -> ab maps a basis of F2 to a basis; in the ambient "
        "group the H1 classes of w1^2 and w1^2 w2^2 are distinct elements "
        "of order 3 in Z/6, so an extension would have to identify distinct "
        "classes; (w1 w2) w1 (w1 w2)^-1 = w2 is certified by one braid-"
        "relator insertion; <w1^2, w2^2> has index 24 = |S4|; the identity "
        "control map leaves the classes equal",
        _check_half_twist_obstruction,
    ),
    "genus2-pipeline": (
        "The index-720 covering pipeline carries the twist-chain exclusions.",
        "the 6-puncture symmetric quotient has order 720 = 6!; the chain "
        "subgroups for n = 4..8 have rank n, index n-1, and avoid c^2, "
        "while n = 3 contains it; the identification of ambient twist "
        "images with c^2 is an assumed input recorded in the witness",
        _check_genus2_pipeline,
    ),
    "nested-chain": (
        "Iterated index-2 kernels nest with ranks 2, 3, 5, 9, 17, 33 and "
        "surjective rose projections.",
        "six chain levels have ranks 2, 3, 5, 9, 17, 33 and indices 1, 2, "
        "4, 8, 16, 32; each level contains the next; projecting the first "
        "k basis letters generates the rank-k rose at every level",
        _check_nested_chain,
    ),
    "quasi-suite": (
        "The ten-pattern counting family keeps independence rank 10 under "
        "pullback and restriction.",
        "the quasimorphisms counting a b^i a^-1 b^-i (i = 1..10) have "
        "independence rank 10 over homomorphisms on the pattern tests; the "
        "pullbacks along the rank-9 kernel level's projection onto F2 have "
        "rank 10 on lifted tests with pointwise-equal values; restricted "
        "to the index-2 kernel they keep rank 10 against that subgroup's "
        "coordinate homomorphisms; sampled delta-delta values vanish and "
        "the first pattern homogenizes to 1",
        _check_quasi_suite,
    ),
    "random-schreier": (
        "Rewriting generators rebuild the subgroup graph on 100 random "
        "actions.",
        "on 100 seeded random transitive actions (rank <= 3, degree <= 8) "
        "the rewriting produces index*(rank-1)+1 generators whose folded "
        "graph equals the graph of the action, exactly",
        _check_random_schreier,
    ),
    "random-fold-confluence": (
        "Folding is order- and Nielsen-move-invariant on 100 random "
        "generator sets.",
        "shuffling, inverting, and right-multiplying generators leaves the "
        "folded graph equal and keeps every original generator a member, "
        "100/100",
        _check_random_fold_confluence,
    ),
    "random-snf": (
        "Smith forms re-multiply exactly on 200 random integer matrices.",
        "for 200 seeded random matrices, D = U m V holds exactly with "
        "unimodular U, V, nonnegative diagonal, and a divisibility chain",
        _check_random_snf,
    ),
    "coboundary-squared": (
        "The coboundary of a coboundary vanishes on 1000 sampled tuples.",
        "delta(delta(c)) = 0 exactly on 500 word triples for a 1-cochain "
        "and 500 word quadruples for a 2-cochain built from the counting "
        "quasimorphism",
        _check_coboundary_squared,
    ),
}

_GUARD_IDS = frozenset(i for i in _REGISTRY if i.startswith("guard-"))

_GUARDS_FOR: Dict[str, Tuple[str, ...]] = {
    "h1-sphere-4": ("guard-sphere-4",),
    "symmetric-quotients": ("guard-sphere-3", "guard-sphere-4", "guard-sphere-6"),
    "sphere4-pure-free": ("guard-sphere-4",),
    "half-twist-obstruction": ("guard-sphere-4",),
    "sl2z-derived-free": ("guard-sl2z",),
    "genus2-pipeline": ("guard-sphere-6",),
}


def check_ids() -> List[str]:
    """All registered check ids, sorted."""
    return sorted(_REGISTRY)


def _run_one(check_id: str, cfg: VerifyConfig) -> CheckResult:
    claim, statement, fn = _REGISTRY[check_id]
    rng = random.Random(f"{cfg.seed}:{check_id}")
    try:
        status, witness = fn(cfg, rng)
    except (
        EnumerationBudgetError,
        ClosureBoundError,
        BallBudgetError,
        HomogenizationError,
    ) as exc:
        status = _INCONCLUSIVE
        witness = {"reason": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:  # a crashed check is a failed check
        status = _FAIL
        witness = {"error": f"{type(exc).__name__}: {exc}"}
    if status not in (_PASS, _FAIL, _INCONCLUSIVE):
        witness = {"error": f"check returned invalid status {status!r}"}
        status = _FAIL
    return CheckResult(check_id, claim, statement, status, _json_safe(witness))


def verify_all(config: Optional[VerifyConfig] = None) -> Report:
    """Run the selected checks (all by default) and assemble the report.

    Guards needed by a selected check run first and are included in the
    report; a guard that does not pass marks its dependents inconclusive
    with a ``blocked_by`` witness.  Results are ordered by check id and are
    bit-identical across runs under the same configuration.
    """
    cfg = config or VerifyConfig()
    if cfg.checks is not None:
        unknown = sorted(set(cfg.checks) - set(_REGISTRY))
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")
        selected = set(cfg.checks)
    else:
        selected = set(_REGISTRY)
    run_set = set(selected)
    for cid in selected:
        run_set.update(_GUARDS_FOR.get(cid, ()))

    results: Dict[str, CheckResult] = {}
    for gid in sorted(i for i in run_set if i in _GUARD_IDS):
        results[gid] = _run_one(gid, cfg)
    for cid in sorted(i for i in run_set if i not in _GUARD_IDS):
        blockers = [
            g for g in _GUARDS_FOR.get(cid, ()) if results[g].status != _PASS
        ]
        if blockers:
            claim, statement, _ = _REGISTRY[cid]
            results[cid] = CheckResult(
                cid, claim, statement, _INCONCLUSIVE, {"blocked_by": blockers}
            )
        else:
            results[cid] = _run_one(cid, cfg)

    toolkit = {
        "name": "mcgcert",
        "version": __version__,
        "counting_rule": (
            "left-greedy maximal disjoint occurrences of the pattern minus "
            "those of its inverse"
        ),
        "sphere_presentation": (
            "half-twist generators w1..w_{n-1} with braid, distant-"
            "commutation, boundary, and full-power relators"
        ),
        "sl2z_presentation": format_presentation(sl2z_presentation()),
        "tietze_budget": cfg.tietze_budget,
        "homogenization_cap": cfg.homogenization_cap,
        "seed": cfg.seed,
    }
    return Report(toolkit=toolkit, checks=tuple(results[i] for i in sorted(results)))
