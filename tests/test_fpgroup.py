"""Presentations: SNF, abelianization, coset enumeration, RS, Tietze."""

from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgcert.fpgroup import (
    AbelianElement,
    ClosureBoundError,
    CosetTable,
    EnumerationBudgetError,
    IncompleteTableError,
    Presentation,
    RewriteStep,
    abelianization,
    bareiss_det,
    coset_table_from_ab,
    format_presentation,
    pairwise_commutators,
    parse_presentation,
    perm_image,
    regular_coset_table,
    reidemeister_schreier,
    rewrite_equal,
    smith_normal_form,
    tietze_simplify,
    todd_coxeter,
)
from mcgcert.stallings import from_coset_action, subgroup_graph
from mcgcert.words import Alphabet, ParseError, Word, ball

F2 = Alphabet(2)
ST = Alphabet(2, names="st")

SL2Z = Presentation(ST, (ST.parse("s^4"), ST.parse("(st)^3S^2")))
FREE2 = Presentation(F2, ())
Z2 = Presentation(F2, (F2.parse("abAB"),))
S3 = Presentation(F2, (F2.parse("a^2"), F2.parse("b^2"), F2.parse("(ab)^3")))


# --- determinants and Smith form ---------------------------------------------


def det_by_expansion(m):
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += sign * term
    return total


matrix_st = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(matrix_st)
def test_bareiss_matches_expansion(m):
    assert bareiss_det(m) == det_by_expansion(m)


rect_st = st.tuples(
    st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4)
).flatmap(
    lambda dims: st.lists(
        st.lists(
            st.integers(min_value=-12, max_value=12),
            min_size=dims[1],
            max_size=dims[1],
        ),
        min_size=dims[0],
        max_size=dims[0],
    )
)


def mat_mul(a, b):
    if not a:
        return []
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum(row[t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for row in a
    ]


@settings(max_examples=200)
@given(rect_st)
def test_snf_transform_identity_and_shape(m):
    d, u, v = smith_normal_form(m)
    rows, cols = len(m), len(m[0]) if m else 0
    assert d == mat_mul(mat_mul(u, m), v)
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # zeros only at the tail
        if diag[i] == 0:
            assert diag[i + 1] == 0


def test_snf_square_preserves_determinant():
    m = [[6, 4], [2, 8]]
    d, _, _ = smith_normal_form(m)
    assert abs(d[0][0] * d[1][1]) == abs(bareiss_det(m))
    assert d[0][0] == 2 and d[1][1] == 20


# --- abelianization -----------------------------------------------------------


def test_abelianization_examples():
    # Z/2 x Z/3 in smith form is a single Z/6
    z6 = abelianization(Presentation(F2, (F2.parse("a^2"), F2.parse("b^3"))))
    assert (z6.free_rank, z6.moduli) == (0, (6,))
    assert z6.describe() == "Z/6"
    assert z6.group_order() == 6

    free = abelianization(FREE2)
    assert (free.free_rank, free.moduli) == (2, ())
    assert free.describe() == "Z^2"
    assert free.group_order() is None

    zz = abelianization(Z2)
    assert (zz.free_rank, zz.moduli) == (2, ())

    F3a = Alphabet(3)
    amalgam = abelianization(Presentation(F3a, (F3a.parse("a^2B"),)))
    assert (amalgam.free_rank, amalgam.moduli) == (2, ())


def test_sl2z_abelianization():
    ab = abelianization(SL2Z)
    assert (ab.free_rank, ab.moduli) == (0, (12,))
    assert ab.describe() == "Z/12"
    s, t = ST.generators()
    assert ab.project(t).order() == 12
    assert ab.project(s).order() == 4
    for rel in SL2Z.relators:
        assert ab.project(rel).is_zero


@given(
    st.lists(
        st.lists(
            st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0),
            max_size=6,
        ),
        max_size=4,
    ),
    st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=6),
    st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=6),
)
def test_projection_is_additive_and_kills_relators(rel_lists, raw_u, raw_v):
    p = Presentation(F2, tuple(F2.word(r) for r in rel_lists))
    ab = abelianization(p)
    u, v = F2.word(raw_u), F2.word(raw_v)
    assert ab.project(u * v) == ab.project(u) + ab.project(v)
    for rel in p.relators:
        assert ab.project(rel).is_zero
    assert ab.project(u) - ab.project(u) == ab.zero()


def test_abelian_element_order():
    e = AbelianElement(free=(), torsion=(2,), moduli=(6,))
    assert e.order() == 3
    assert AbelianElement(free=(1,), torsion=(), moduli=()).order() is None
    assert AbelianElement(free=(), torsion=(0,), moduli=(6,)).order() == 1


# --- coset tables -------------------------------------------------------------


def test_todd_coxeter_cyclic():
    F1 = Alphabet(1)
    table = todd_coxeter(Presentation(F1, (F1.parse("a^5"),)))
    assert table.index == 5
    # breadth-first standardization explores a then a^-1, so coset 2 is 0*a^-1
    assert table.action(1) == (1, 3, 0, 4, 2)
    assert table.trace(0, F1.parse("a^5")) == 0


def test_todd_coxeter_s3():
    table = todd_coxeter(S3)
    assert table.index == 6


def test_todd_coxeter_quaternion():
    q8 = Presentation(
        F2, (F2.parse("a^4"), F2.parse("a^2b^2"), F2.parse("Baba"))
    )
    assert todd_coxeter(q8).index == 8


def test_todd_coxeter_budget():
    with pytest.raises(EnumerationBudgetError):
        todd_coxeter(Z2, budget=500)


def _pure_generators(alphabet, n):
    """A_ij = (w_{j-1} ... w_{i+1}) w_i^2 (w_{j-1} ... w_{i+1})^-1, 1 <= i < j <= n-1."""
    gens = []
    for i in range(1, n):
        for j in range(i + 1, n):
            conj = tuple(range(j - 1, i, -1))
            gens.append(alphabet.word(conj + (i, i) + tuple(-x for x in reversed(conj))))
    return gens


@pytest.mark.parametrize(
    "n, squares, index, defined",
    [(4, False, 24, 132), (5, False, 120, 1376), (6, False, 720, 12792), (4, True, 24, 204)],
)
def test_todd_coxeter_defines_a_fixed_number_of_cosets(n, squares, index, defined):
    # the enumeration order fixes how many cosets are ever defined, and the
    # budget (``fpg coset --max``) counts exactly those: the pure subgroup of
    # the n-punctured sphere, or <a^2, b^2> in the 4-punctured sphere
    from mcgcert.constructions import punctured_sphere_presentation

    p = punctured_sphere_presentation(n)
    if squares:
        gens = [p.alphabet.parse("aa"), p.alphabet.parse("bb")]
    else:
        gens = _pure_generators(p.alphabet, n)
    assert todd_coxeter(p, gens, budget=defined).index == index
    with pytest.raises(EnumerationBudgetError):
        todd_coxeter(p, gens, budget=defined - 1)


def test_todd_coxeter_incomplete_detection():
    # b constrained by nothing: infinite index, caught up front
    with pytest.raises(IncompleteTableError):
        todd_coxeter(Presentation(F2, (F2.parse("a^2"),)))
    # ab generates an infinite-index subgroup of the free group
    with pytest.raises(IncompleteTableError):
        todd_coxeter(FREE2, [F2.parse("ab")])


def test_todd_coxeter_whole_group_and_subgroups_of_free():
    table = todd_coxeter(FREE2, list(F2.generators()))
    assert table.index == 1
    lam2 = [F2.parse("a^2"), F2.parse("b"), F2.parse("abA")]
    table = todd_coxeter(FREE2, lam2)
    assert table.index == 2
    graph = subgroup_graph(F2, lam2)
    assert table.rows == graph.table


@st.composite
def transitive_action_st(draw):
    # restrict two random permutations to the orbit of 0 and renumber it,
    # so every draw is transitive and none is rejected
    k = draw(st.integers(min_value=1, max_value=6))
    perms = [draw(st.permutations(range(k))) for _ in range(2)]
    orbit = [0]
    for x in orbit:
        for p in perms:
            if p[x] not in orbit:
                orbit.append(p[x])
    number = {x: i for i, x in enumerate(orbit)}
    return {i + 1: [number[p[x]] for x in orbit] for i, p in enumerate(perms)}


@settings(max_examples=40, deadline=None)
@given(transitive_action_st())
def test_todd_coxeter_agrees_with_subgroup_graph(perms):
    graph = from_coset_action(F2, perms)
    basis = graph.basis()
    table = todd_coxeter(FREE2, basis)
    assert table.index == graph.invariants().index
    assert table.rows == graph.table


B3 = list(ball(F2, 3))


def _up_to_inversion(words):
    return {min(w.letters, (~w).letters) for w in words}


@settings(max_examples=40, deadline=None)
@given(transitive_action_st())
def test_coset_table_is_a_complete_subgroup_graph(perms):
    graph = from_coset_action(F2, perms)
    table = CosetTable(F2, graph.table)
    assert table == graph and hash(table) == hash(graph)
    for w in B3:
        assert table.member(w) == (table.trace(0, w) == 0)
    # one builder: the graph scans every slot and Reidemeister-Schreier the
    # positive ones, so a generator may come out as the other's inverse
    data = reidemeister_schreier(FREE2, table)
    assert _up_to_inversion(data.generator_words) == _up_to_inversion(graph.basis())


def test_coset_table_from_ab_matches_enumeration():
    # same finite abelian quotient reached by two different routes
    p = Presentation(F2, (F2.parse("a^2"), F2.parse("b^3")))
    ab = abelianization(p)
    via_ab = coset_table_from_ab(ab)
    assert via_ab.index == 6
    enlarged = Presentation(F2, p.relators + tuple(pairwise_commutators(F2)))
    via_tc = todd_coxeter(enlarged)
    assert via_ab == via_tc


def test_coset_table_from_ab_sl2z():
    table = coset_table_from_ab(abelianization(SL2Z))
    assert table.index == 12
    enlarged = Presentation(ST, SL2Z.relators + tuple(pairwise_commutators(ST)))
    assert table == todd_coxeter(enlarged)


def test_coset_table_from_ab_requires_finite():
    with pytest.raises(ValueError):
        coset_table_from_ab(abelianization(FREE2))


def test_coset_table_json_round_trip():
    table = todd_coxeter(S3)
    data = table.to_json_dict()
    assert data["cosets"] == 6
    assert sorted(data["action"]) == ["A", "B", "a", "b"]
    assert all(1 <= t <= 6 for t in data["action"]["a"])
    back = CosetTable.from_json_dict(data)
    assert back == table


def test_coset_table_json_validation():
    with pytest.raises(ValueError):
        CosetTable.from_json_dict({"cosets": 2, "action": {"a": [1, 1], "A": [1, 2]}})
    with pytest.raises(ValueError):
        CosetTable.from_json_dict({"cosets": 2, "action": {"a": [2, 1], "A": [1, 2]}})
    with pytest.raises(ValueError):
        CosetTable.from_json_dict({"cosets": 0, "action": {"a": []}})
    with pytest.raises(ValueError):
        CosetTable.from_json_dict({"action": {"a": [1]}})
    with pytest.raises(ValueError):
        CosetTable.from_json_dict({"cosets": 1, "action": {"a": 1}})
    # JSON booleans are not integers, though Python's bool subclasses int
    with pytest.raises(ValueError):
        CosetTable.from_json_dict({"cosets": True, "action": {"a": [1], "A": [1]}})
    with pytest.raises(ValueError):
        CosetTable.from_json_dict({"cosets": 1, "action": {"a": [True]}})


def test_trace_and_action_dict():
    table = todd_coxeter(S3)
    assert table.trace(0, F2.parse("a^2")) == 0
    d = table.action_dict()
    assert set(d) == {1, -1, 2, -2}


# --- permutation images -------------------------------------------------------


def test_perm_image_s3():
    # a -> (0 1), b -> (1 2) on three points
    images = {1: (1, 0, 2), 2: (0, 2, 1)}
    result = perm_image(S3, images)
    assert result.is_homomorphism
    assert result.order == 6
    assert result.degree == 3


def test_perm_image_detects_violations():
    images = {1: (1, 0, 2), 2: (1, 2, 0)}  # b now has order 3, b^2 fails
    result = perm_image(S3, images)
    assert 1 in result.relator_violations


def test_perm_image_bound():
    # two big cycles generate a large group on 7 points
    F = Alphabet(2)
    images = {1: (1, 2, 3, 4, 5, 6, 0), 2: (1, 0, 2, 3, 4, 5, 6)}
    with pytest.raises(ClosureBoundError):
        perm_image(Presentation(F, ()), images, max_order=100)


def test_perm_image_validation():
    with pytest.raises(ValueError):
        perm_image(S3, {1: (0, 0, 1), 2: (0, 1, 2)})
    with pytest.raises(ValueError):
        perm_image(S3, {1: (1, 0)})
    with pytest.raises(ValueError):
        perm_image(S3, {1: (1, 0), 2: (0, 2, 1)})


def test_regular_table_matches_todd_coxeter():
    images = {1: (1, 0, 2), 2: (0, 2, 1)}
    regular = regular_coset_table(S3, images)
    assert regular.index == 6
    assert regular == todd_coxeter(S3)


def test_regular_table_rejects_non_homomorphism():
    with pytest.raises(ValueError):
        regular_coset_table(S3, {1: (1, 0, 2), 2: (1, 2, 0)})


# --- Reidemeister-Schreier ------------------------------------------------------


def test_schreier_generators_match_subgroup_graph():
    lam2 = [F2.parse("a^2"), F2.parse("b"), F2.parse("abA")]
    graph = subgroup_graph(F2, lam2)
    table = todd_coxeter(FREE2, lam2)
    data = reidemeister_schreier(FREE2, table)
    # free ambient group: no relators, Schreier rank from the index formula
    assert len(data.presentation.relators) == 0
    assert data.presentation.alphabet.rank == 2 * (2 - 1) + 1
    assert subgroup_graph(F2, list(data.generator_words)) == graph


def test_sphere4_table_is_the_graph_of_its_schreier_generators():
    from mcgcert.constructions import punctured_sphere_presentation

    p4 = punctured_sphere_presentation(4)
    squares = [p4.alphabet.parse("aa"), p4.alphabet.parse("bb")]
    table = todd_coxeter(p4, squares)
    rs = reidemeister_schreier(p4, table)
    assert table == subgroup_graph(p4.alphabet, rs.generator_words)


def test_sphere5_schreier_presentation_is_pinned():
    # sha256 of the letter tuples pins the generator order and every relator
    from mcgcert.constructions import punctured_sphere_presentation

    p5 = punctured_sphere_presentation(5)
    pure = [p5.alphabet.parse(t) for t in ("aa", "baaB", "cbaaBC", "bb", "cbbC", "cc")]
    data = reidemeister_schreier(p5, todd_coxeter(p5, pure))
    digest = lambda words: hashlib.sha256(repr([w.letters for w in words]).encode()).hexdigest()
    assert digest(data.generator_words) == (
        "8aac4363164b071f692a1319f3074c9477e659d8bd0886b6fe9b0f1d098b8784"
    )
    assert digest(data.presentation.relators) == (
        "8b951c81a989e7ca6bde4a43cddebe53cd3cb5f1e5444341b6968c8c4a3a5e0d"
    )


def test_schreier_counts_sl2z():
    table = coset_table_from_ab(abelianization(SL2Z))
    data = reidemeister_schreier(SL2Z, table)
    assert data.presentation.alphabet.rank == 12 * (2 - 1) + 1 == 13
    assert len(data.presentation.relators) == 2 * 12
    # every Schreier generator really lies in the kernel: it projects to zero
    ab = abelianization(SL2Z)
    for w in data.generator_words:
        assert ab.project(w).is_zero


def test_schreier_relators_are_consequences():
    # rewritten relators must die in the subgroup's own abelianization when
    # mapped back to ambient words: substitute and project
    table = coset_table_from_ab(abelianization(SL2Z))
    data = reidemeister_schreier(SL2Z, table)
    ab = abelianization(SL2Z)
    gens = data.generator_words
    for rel in data.presentation.relators[:6]:
        back = SL2Z.alphabet.identity()
        for s in rel.letters:
            back = back * gens[abs(s) - 1] ** (1 if s > 0 else -1)
        assert ab.project(back).is_zero


# --- Tietze simplification -------------------------------------------------------


def test_tietze_eliminates_redundant_generator():
    p = Presentation(F2, (F2.parse("bA^2"),))
    q = tietze_simplify(p)
    assert q.alphabet.rank == 1
    assert q.relators == ()


def test_tietze_keeps_cyclic_group():
    F1 = Alphabet(1)
    p = Presentation(F1, (F1.parse("a^5"), F1.parse("a^5")))
    q = tietze_simplify(p)
    assert q.alphabet.rank == 1
    assert [str(w) for w in q.relators] == ["aaaaa"]


def test_tietze_shortens_with_other_relator():
    F1 = Alphabet(1)
    p = Presentation(F1, (F1.parse("a^5"), F1.parse("a^7")))
    q = tietze_simplify(p)
    # gcd structure: a^5 and a^7 together are a^1... full collapse to trivial
    assert q.alphabet.rank == 1
    assert [str(w) for w in q.relators] in (["a"], [])


def test_tietze_trivializes_free_presentation_of_sl2z_kernel():
    table = coset_table_from_ab(abelianization(SL2Z))
    data = reidemeister_schreier(SL2Z, table)
    q = tietze_simplify(data.presentation)
    assert q.relators == ()
    assert q.alphabet.rank == 2


def test_tietze_budget_zero_only_normalizes():
    p = Presentation(F2, (F2.parse("abAB"), F2.parse("baBA"), F2.identity()))
    q = tietze_simplify(p, budget=0)
    assert q.alphabet.rank == 2
    assert len(q.relators) == 1  # duplicate up to inversion/rotation removed


small_presentations = st.lists(
    st.lists(
        st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=6
    ),
    max_size=3,
).map(lambda rels: Presentation(F2, tuple(F2.word(r) for r in rels)))


@settings(max_examples=60, deadline=None)
@given(small_presentations)
def test_tietze_preserves_abelianization(p):
    before = abelianization(p)
    q = tietze_simplify(p, budget=200)
    after = abelianization(q)
    # the quotient group is unchanged, so the abelianization agrees exactly
    assert (before.free_rank, before.moduli) == (after.free_rank, after.moduli)


S3_PERMS = list(itertools.permutations(range(3)))


def s3_hom_count(p):
    """|Hom(G, S3)| by brute force over the images of the generators."""
    count = 0
    for images in itertools.product(S3_PERMS, repeat=p.alphabet.rank):
        inverses = [tuple(sorted(range(3), key=g.__getitem__)) for g in images]
        respects_relators = True
        for rel in p.relators:
            point = (0, 1, 2)
            for l in rel.letters:
                g = images[l - 1] if l > 0 else inverses[-l - 1]
                point = tuple(g[i] for i in point)
            respects_relators = respects_relators and point == (0, 1, 2)
        count += respects_relators
    return count


@settings(max_examples=60, deadline=None)
@given(small_presentations, st.one_of(st.integers(0, 4), st.just(200)))
def test_tietze_preserves_homomorphisms_to_s3(p, budget):
    # |Hom(G, S3)| is an invariant of the group, finer than the abelianization;
    # a rank-0 result is one generator declared trivial and counts 1
    assert s3_hom_count(tietze_simplify(p, budget=budget)) == s3_hom_count(p)


@pytest.fixture(scope="module")
def sphere5_pure():
    """The unsimplified and the simplified presentation of the pure subgroup
    of the 5-punctured sphere, simplified once for the module."""
    from mcgcert.constructions import punctured_sphere_presentation

    p5 = punctured_sphere_presentation(5)
    # A_ij = (w_{j-1} ... w_{i+1}) w_i^2 (w_{j-1} ... w_{i+1})^-1, 1 <= i < j <= 4
    pure = [p5.alphabet.parse(t) for t in ("aa", "baaB", "cbaaBC", "bb", "cbbC", "cc")]
    rs = reidemeister_schreier(p5, todd_coxeter(p5, pure)).presentation
    return rs, tietze_simplify(rs)


def test_tietze_frees_pure_subgroup_of_sphere_5(sphere5_pure):
    rs, q = sphere5_pure
    assert (rs.alphabet.rank, len(rs.relators)) == (361, 960)
    # H1 = Z^5, so no presentation of the group has fewer than 5 generators
    assert q.alphabet.rank == 5
    assert abelianization(q).describe() == "Z^5"


def test_abelianization_of_unsimplified_sphere_5_presentation(sphere5_pure):
    rs, q = sphere5_pure
    ab = abelianization(rs)
    assert (ab.free_rank, ab.moduli) == (5, ())
    simplified = abelianization(q)
    assert (ab.free_rank, ab.moduli) == (simplified.free_rank, simplified.moduli)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_abelianization_of_sphere_kernels(n):
    # the kernel of the map onto S_n sending w_i to (i, i+1) is the pure
    # subgroup; its H1 is free of rank n(n-3)/2 (2881 generators at n = 6)
    from mcgcert.constructions import (
        punctured_sphere_presentation,
        sphere_transposition_images,
    )

    p = punctured_sphere_presentation(n)
    table = regular_coset_table(p, sphere_transposition_images(n))
    rs = reidemeister_schreier(p, table).presentation
    ab = abelianization(rs)
    assert (ab.free_rank, ab.moduli) == (n * (n - 3) // 2, ())


# --- rewriting certificates ------------------------------------------------------


def test_rewrite_certificate_braid_example():
    braid = Presentation(F2, (F2.parse("abaBAB"),))
    start = F2.parse("(ab)a(ab)^-1")
    target = F2.parse("b")
    cert = rewrite_equal(
        braid,
        start,
        target,
        [RewriteStep(position=0, relator_index=0, exponent=-1, conjugator=F2.identity())],
    )
    assert cert.verified
    assert cert.intermediates[-1] == target


def test_rewrite_certificate_failure_is_reported():
    braid = Presentation(F2, (F2.parse("abaBAB"),))
    cert = rewrite_equal(
        braid,
        F2.parse("a"),
        F2.parse("b"),
        [RewriteStep(position=0, relator_index=0, exponent=1, conjugator=F2.identity())],
    )
    assert not cert.verified


def test_rewrite_certificate_malformed_steps():
    braid = Presentation(F2, (F2.parse("abaBAB"),))
    with pytest.raises(ValueError):
        rewrite_equal(
            braid, F2.parse("a"), F2.parse("a"),
            [RewriteStep(position=5, relator_index=0, exponent=1, conjugator=F2.identity())],
        )
    with pytest.raises(ValueError):
        rewrite_equal(
            braid, F2.parse("a"), F2.parse("a"),
            [RewriteStep(position=0, relator_index=1, exponent=1, conjugator=F2.identity())],
        )
    with pytest.raises(ValueError):
        rewrite_equal(
            braid, F2.parse("a"), F2.parse("a"),
            [RewriteStep(position=0, relator_index=0, exponent=0, conjugator=F2.identity())],
        )


@given(
    st.lists(st.integers(min_value=0, max_value=3), max_size=4),
    st.lists(
        st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=4
    ),
)
def test_rewrite_steps_preserve_abelian_image(positions, raw_conj):
    braid = Presentation(F2, (F2.parse("abaBAB"), F2.parse("a^2b^2")))
    ab = abelianization(braid)
    start = F2.parse("ab")
    conj = F2.word(raw_conj)
    steps = [
        RewriteStep(position=0, relator_index=pos % 2, exponent=(-1) ** pos, conjugator=conj)
        for pos in positions
    ]
    cert = rewrite_equal(braid, start, start, steps)
    final = cert.intermediates[-1] if cert.intermediates else start
    assert ab.project(final) == ab.project(start)


# --- presentation parsing ---------------------------------------------------------


def test_parse_presentation_round_trip():
    text = """# a sample
gens: s t
rel: s^4
rels: (st)^3S^2, stST
"""
    p = parse_presentation(text)
    assert p.alphabet.rank == 2
    assert p.alphabet.display_names == ("s", "t")
    assert len(p.relators) == 3
    assert str(p.relators[0]) == "ssss"
    again = parse_presentation(format_presentation(p))
    assert again.relators == p.relators


def test_parse_presentation_errors():
    with pytest.raises(ParseError) as e:
        parse_presentation("rel: a\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_presentation("gens: a b\nrel: c\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_presentation("gens: a a\n")
    with pytest.raises(ParseError):
        parse_presentation("gens: a b\nnonsense\n")
    with pytest.raises(ParseError):
        parse_presentation("")
    with pytest.raises(ParseError) as e:
        parse_presentation("gens: a b\nrels: ab, a^\n")
    assert e.value.line == 2


def test_commutators():
    comms = pairwise_commutators(Alphabet(3))
    assert [str(w) for w in comms] == ["abAB", "acAC", "bcBC"]
