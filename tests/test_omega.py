import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from omegarb import omega as om
from omegarb.classify import enumerate_level
from omegarb.omega import (
    OmegaStructure,
    OpTable,
    StructureError,
    check_diassociative,
    check_eds,
    check_ets,
    check_ets_maps_level,
    check_lambda_ets,
    check_maps_level,
    ets_to_lambda_ets,
    example_abelian_group,
    example_matching,
    example_semigroup,
    example_weight_zero,
    is_commutative,
    opposite,
    parse_structure,
    serialize_structure,
    swap_conjugate,
)
from omegarb.scalars import FormalSum
from omegarb.tables import TBL, ets_fixture_structures, lets_row, op

XOR = op("abba")
CONST_A = op("aaaa")
FIRST = op("aabb")
SECOND = op("abab")


TABLES_TEXT = (
    "size = 2\nleft = [[0,0],[0,1]]\nright = [[0,0],[0,1]]\n"
    "lhd = [[0,0],[0,0]]\nrhd = [[0,0],[0,0]]\n"
)


def struct(left, right, lhd, rhd, dot=None, star=None, lam=None, psi=None, **kw):
    return OmegaStructure(
        size=2, labels=("a", "b"), left=op(left), right=op(right),
        lhd=op(lhd), rhd=op(rhd),
        dot=op(dot) if dot else None, star=op(star) if star else None,
        lam=lam, psi=psi, **kw,
    )


def const_lam(c):
    c = Fraction(c)
    return ((c, c), (c, c))


def one_element_structure(lam=None, dot=False):
    t = OpTable(((0,),))
    return OmegaStructure(
        size=1, labels=("a",), left=t, right=t, lhd=t, rhd=t,
        dot=t if (dot or lam is not None) else None,
        lam=((Fraction(lam),),) if lam is not None else None,
    )


# -- diassociative ----------------------------------------------------------


def test_diassoc_one_element():
    assert check_diassociative(one_element_structure()).ok


def test_diassoc_first_projection_pair():
    # left = right = first projection (the E-type pair)
    assert check_diassociative(struct("aabb", "aabb", "aaaa", "aaaa")).ok


def test_diassoc_failure_has_witness():
    rep = check_diassociative(struct("abaa", "abaa", "aaaa", "aaaa"))
    assert not rep.ok
    v = rep.violations[0]
    assert len(v.witness) == 3 and v.count >= 1


# -- EDS ---------------------------------------------------------------------


def test_eds_type_a2():
    assert check_eds(struct("aaaa", "aaaa", "abab", "aabb")).ok


def test_eds_semigroup_construction_z2():
    s = example_semigroup(XOR, 1)
    assert check_eds(s).ok


def test_eds_mutated_rhd_fails():
    # constant tables with rhd replaced by (bb/aa); the report pins the
    # violated side-operation identities
    rep = check_eds(struct("aaaa", "aaaa", "aaaa", "bbaa"))
    assert not rep.ok
    assert {"EQ6", "EQ10"} <= rep.failed_tags()


# -- lambda level ------------------------------------------------------------


def test_lambda_zero_weights_always_pass():
    for dot in ("aaaa", "abab", "baba", "abba"):
        s = struct("aaaa", "aaaa", "abab", "aabb", dot=dot, lam=const_lam(0))
        assert check_lambda_ets(s).ok


def test_lambda_semigroup_constant_three_halves():
    s = example_semigroup(XOR, Fraction(3, 2))
    assert check_lambda_ets(s).ok


def test_lambda_matching_iff_associative_weight_map():
    # the projection tables admit exactly the associative weight maps; the
    # first-argument family (1, 2) with dot the first projection is the
    # standard non-associative counterexample and must fail the product
    # identity
    good = example_matching([1, 2])
    assert check_lambda_ets(good).ok
    lam = ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)))
    bad = struct("aabb", "abab", "abab", "aabb", dot="aabb", lam=lam)
    rep = check_lambda_ets(bad)
    assert not rep.ok
    assert "EQ16" in rep.failed_tags()


def test_lambda_rejects_generalized_psi():
    row = lets_row("A1")
    with pytest.raises(StructureError, match="not a strict"):
        check_lambda_ets(row.instantiate(1, 1))


def test_lambda_requires_weight_data():
    with pytest.raises(StructureError):
        check_lambda_ets(struct("aaaa", "aaaa", "abab", "aabb"))


# -- ETS ---------------------------------------------------------------------


def test_ets_a1_with_constant_tables():
    s = struct("aaaa", "aaaa", "aaaa", "aaaa", dot="aaaa", star="aaaa")
    assert check_ets(s).ok


def test_ets_f3_with_group_dot():
    s = struct("aabb", "abab", "abab", "aabb", dot="abba", star="aaaa")
    assert check_ets(s).ok


def test_ets_f3_with_nonassociative_dot_fails():
    s = struct("aabb", "abab", "abab", "aabb", dot="baba", star="aaaa")
    rep = check_ets(s)
    assert not rep.ok
    assert "eq27" in rep.failed_tags()


# -- map level ---------------------------------------------------------------


def test_maps_level_agrees_on_strict_structures():
    for s in (
        example_semigroup(XOR, Fraction(1, 2)),
        example_matching([1, 2]),
        example_abelian_group(XOR, 1),
        example_weight_zero(struct("aaaa", "aaaa", "abab", "aabb"), op("abba")),
    ):
        assert check_lambda_ets(s).ok == check_maps_level(s).ok is True


def test_maps_level_generalized_row():
    assert check_maps_level(lets_row("A1").instantiate(1, -1)).ok


def test_maps_level_constant_weight_map_is_admissible():
    # over the projection tables any associative weight map passes; the
    # constant map onto b is the weight-one slice of the constant-b product
    psi_b = tuple(tuple(FormalSum.term(1) for _ in range(2)) for _ in range(2))
    s = struct("aabb", "abab", "abab", "aabb", psi=psi_b)
    assert check_maps_level(s).ok


def test_maps_level_nonassociative_weight_map_fails():
    # psi(x, y) = not(y) is not associative
    neg = tuple(tuple(FormalSum.term(1 - j) for j in range(2)) for _ in range(2))
    s = struct("aabb", "abab", "abab", "aabb", psi=neg)
    rep = check_maps_level(s)
    assert not rep.ok
    assert "equ6" in rep.failed_tags()


def test_ets_maps_level_h1_and_equivalence():
    h1 = struct("abba", "abba", "aaaa", "aaaa", dot="abba", star="aaaa")
    assert check_ets(h1).ok and check_ets_maps_level(h1).ok
    wrong = struct("abba", "abba", "aaaa", "aaaa", dot="abab", star="aaaa")
    assert not check_ets(wrong).ok
    assert not check_ets_maps_level(wrong).ok


def test_ets_maps_equivalence_on_fixtures():
    for name, s in ets_fixture_structures():
        assert check_ets(s).ok, name
        assert check_ets_maps_level(s).ok, name


# -- map-level engine against a FormalSum reference ----------------------------


def reference_pipeline(s, steps, triple):
    """One pipeline side through FormalSum.map_basis / apply_linear, step by step."""
    tables = {"phi_l": (s.left, s.lhd), "phi_r": (s.right, s.rhd), "phi_s": (s.dot, s.star)}
    cur = FormalSum.term(triple)
    for kind, pos in steps:
        if kind == "tau":
            cur = cur.map_basis(lambda t, p=pos: t[:p] + (t[p + 1], t[p]) + t[p + 2:])
        elif kind == "psi":
            def contract(t, p=pos):
                image = s.psi_map(t[p], t[p + 1])
                return image.map_basis(lambda b: t[:p] + (b,) + t[p + 2:])
            cur = cur.apply_linear(contract)
        else:
            main, side = (table.rows for table in tables[kind])
            cur = cur.map_basis(
                lambda t, p=pos, m=main, sd=side: t[:p]
                + (m[t[p]][t[p + 1]], sd[t[p]][t[p + 1]])
                + t[p + 2:]
            )
    return cur


def reference_report(s, pipelines):
    """(tag, first witness, count) per violated identity, in pipeline order."""
    out = []
    rng = range(s.size)
    for tag, lhs, rhs in pipelines:
        hits = [
            (i, j, k)
            for i in rng for j in rng for k in rng
            if reference_pipeline(s, lhs, (i, j, k)) != reference_pipeline(s, rhs, (i, j, k))
        ]
        if hits:
            out.append((tag, hits[0], len(hits)))
    return out


MAPS_PIPELINES = om._MAPS_EDS_PIPELINES + om._MAPS_PSI_PIPELINES
ETS_MAPS_PIPELINES = om._MAPS_EDS_PIPELINES + om._MAPS_STAR_PIPELINES
ALL_TABLES = [OpTable(((a, b), (c, d))) for a in (0, 1) for b in (0, 1) for c in (0, 1)
              for d in (0, 1)]
SAMPLE_SCALARS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2, 3))


def assert_same_report(rep, level, expected):
    assert rep.level == level
    assert [(v.tag, v.witness, v.count) for v in rep.violations] == expected


def random_eds_tables(rng, eds_reps):
    # half EDS representatives (mostly passing), half arbitrary tables
    if rng.random() < 0.5:
        rows = eds_reps[rng.randrange(len(eds_reps))]
        return dict(zip(("left", "right", "lhd", "rhd"), map(OpTable, rows)))
    return {name: rng.choice(ALL_TABLES) for name in ("left", "right", "lhd", "rhd")}


@pytest.fixture(scope="module")
def eds_reps():
    return enumerate_level("eds", 2).reps


def test_maps_engine_matches_reference_on_strict_structures(eds_reps):
    rng = random.Random(2024)
    for _ in range(120):
        lam = tuple(tuple(rng.choice(SAMPLE_SCALARS) for _ in range(2)) for _ in range(2))
        s = OmegaStructure(size=2, labels=("a", "b"), dot=rng.choice(ALL_TABLES), lam=lam,
                           **random_eds_tables(rng, eds_reps))
        assert_same_report(check_maps_level(s), "maps", reference_report(s, MAPS_PIPELINES))
    for s in (replace(struct("aaaa", "aaaa", "abab", "aabb"), weight_zero=True),
              example_matching([1, Fraction(-2, 3)]), example_abelian_group(XOR, 2)):
        assert_same_report(check_maps_level(s), "maps", reference_report(s, MAPS_PIPELINES))


def test_maps_engine_matches_reference_on_psi_structures(eds_reps):
    rng = random.Random(77)
    coeffs = SAMPLE_SCALARS + (Fraction(-1, 2), Fraction(2))
    for _ in range(120):
        psi = tuple(
            tuple(FormalSum({0: rng.choice(coeffs), 1: rng.choice(coeffs)}) for _ in range(2))
            for _ in range(2)
        )
        s = OmegaStructure(size=2, labels=("a", "b"), psi=psi,
                           **random_eds_tables(rng, eds_reps))
        assert_same_report(check_maps_level(s), "maps", reference_report(s, MAPS_PIPELINES))
    for name in ("A1", "F1pp_lm", "F4"):
        s = lets_row(name).instantiate(Fraction(1, 2), Fraction(-2, 3))
        assert_same_report(check_maps_level(s), "maps", reference_report(s, MAPS_PIPELINES))


def flat_terms(terms, n):
    """A reference image with its basis tuples read as flat base-n indices."""
    out = {}
    for key, c in terms.items():
        x = 0
        for d in key:
            x = x * n + d
        out[x] = c
    return out


def test_maps_engine_cancels_to_zero_exactly():
    # psi(x, y) = a/2 - b/2 for every pair: psi(psi x id) and psi(id x psi)
    # both cancel to zero, so equ6 holds with empty sides
    half = FormalSum({0: Fraction(1, 2), 1: Fraction(-1, 2)})
    psi = ((half, half), (half, half))
    s = struct("aabb", "abab", "abab", "aabb", psi=psi)
    _, lhs, rhs = om._MAPS_PSI_PIPELINES[-1]
    images = om._side_images(s)
    for side in (lhs, rhs):
        assert images(side) == ({},) * 8
        for t in product(range(2), repeat=3):
            assert reference_pipeline(s, side, t).is_zero()
    rep = check_maps_level(s)
    assert "equ6" not in rep.failed_tags()
    assert_same_report(rep, "maps", reference_report(s, MAPS_PIPELINES))
    # every coefficient the engine produces is exact, and an int when integral
    mixed = FormalSum({0: Fraction(3, 2), 1: Fraction(3, 2)})
    s2 = struct("aabb", "abab", "abab", "aabb", psi=((mixed, half), (half, mixed)))
    side = (("psi", 1), ("psi", 0))
    got = om._side_images(s2)(side)
    for t, image in zip(product(range(2), repeat=3), got):
        assert image == flat_terms(reference_pipeline(s2, side, t)._terms, 2)
    kinds = set()
    for c in got[0].values():
        assert (type(c) is int) == (c.denominator == 1)
        kinds.add(type(c))
    assert kinds == {int, Fraction}


def test_ets_maps_engine_matches_reference_on_star_structures(eds_reps):
    rng = random.Random(5)
    for _ in range(150):
        s = OmegaStructure(size=2, labels=("a", "b"), dot=rng.choice(ALL_TABLES),
                           star=rng.choice(ALL_TABLES), **random_eds_tables(rng, eds_reps))
        assert_same_report(check_ets_maps_level(s), "ets-maps",
                           reference_report(s, ETS_MAPS_PIPELINES))
    for _, s in ets_fixture_structures():
        assert_same_report(check_ets_maps_level(s), "ets-maps",
                           reference_report(s, ETS_MAPS_PIPELINES))


Z3 = OpTable(((0, 1, 2), (1, 2, 0), (2, 0, 1)))


def with_one_cell_changed(s, name):
    # a passing structure with one cell of one table moved: few, scattered
    # violations, so witnesses and counts pin the digit order
    rows = [list(row) for row in getattr(s, name).rows]
    rows[1][2] = (rows[1][2] + 1) % s.size
    return replace(s, **{name: OpTable(rows)})


def other_size_structures(n, rng, count, weight):
    """Seeded structures on n elements, half over arbitrary tables and half
    over the projection tables (an EDS), with strict, psi or star data.

    The flat indices of the map-level engine are base-n digits, so sizes
    other than 2 catch a digit-order error; n = 1 has a single basis triple.
    """
    labels = tuple("abcdefgh"[:n])
    rows = tuple(range(n))
    first = OpTable(tuple((a,) * n for a in rows))
    second = OpTable((rows,) * n)
    coeffs = SAMPLE_SCALARS + (Fraction(-1, 2), Fraction(2))

    def table():
        return OpTable(tuple(tuple(rng.randrange(n) for _ in rows) for _ in rows))

    def cell():
        keys = rng.sample(rows, rng.randint(1, n))
        return FormalSum({b: rng.choice(coeffs) for b in keys})

    out = []
    for k in range(count):
        if k % 2:
            tabs = dict(left=first, right=second, lhd=second, rhd=first)
        else:
            tabs = {name: table() for name in ("left", "right", "lhd", "rhd")}
        if weight == "strict":
            lam = tuple(tuple(rng.choice(SAMPLE_SCALARS) for _ in rows) for _ in rows)
            extra = dict(dot=table(), lam=lam)
        elif weight == "psi":
            extra = dict(psi=tuple(tuple(cell() for _ in rows) for _ in rows))
        else:
            extra = dict(dot=table(), star=table())
        out.append(OmegaStructure(size=n, labels=labels, **tabs, **extra))
    return out


@pytest.mark.parametrize("n", [1, 3])
def test_maps_engine_matches_reference_at_sizes_one_and_three(n):
    rng = random.Random(40 + n)
    cases = other_size_structures(n, rng, 16, "strict") + other_size_structures(n, rng, 16, "psi")
    # psi(x, y) = a - b (n = 3) or the zero map (n = 1): psi(psi x id) and
    # psi(id x psi) cancel to zero on every triple
    diff = FormalSum({0: 1, n - 1: -1}) if n > 1 else FormalSum.zero()
    for s in cases[:4]:
        cancel = replace(s, dot=None, lam=None, psi=tuple((diff,) * n for _ in range(n)))
        rep = check_maps_level(cancel)
        assert "equ6" not in rep.failed_tags()
        cases.append(cancel)
    cases += [replace(cases[1], weight_zero=True), example_matching(range(1, n + 1))]
    if n == 3:
        good = example_semigroup(Z3, Fraction(1, 2))
        cases += [good, example_abelian_group(Z3, 2)]
        cases += [with_one_cell_changed(good, name) for name in ("left", "rhd", "dot")]
    for s in cases:
        assert_same_report(check_maps_level(s), "maps", reference_report(s, MAPS_PIPELINES))


@pytest.mark.parametrize("n", [1, 3])
def test_ets_maps_engine_matches_reference_at_sizes_one_and_three(n):
    rng = random.Random(50 + n)
    cases = other_size_structures(n, rng, 24, "star")
    if n == 3:
        const = OpTable(((0,) * 3,) * 3)
        good = OmegaStructure(size=3, labels=("a", "b", "c"), left=Z3, right=Z3, lhd=const,
                              rhd=const, dot=Z3, star=const)
        assert check_ets(good).ok
        cases += [good] + [with_one_cell_changed(good, name) for name in ("right", "lhd", "star")]
    for s in cases:
        assert_same_report(check_ets_maps_level(s), "ets-maps",
                           reference_report(s, ETS_MAPS_PIPELINES))


# -- opposite and commutativity ---------------------------------------------


def test_opposite_involution():
    for s in (
        example_semigroup(XOR, 2),
        example_matching([1, 2, 3]),
        lets_row("B1pp").instantiate(Fraction(1, 2)),
        struct("aabb", "abab", "abab", "aabb", dot="abba", star="bbbb"),
    ):
        assert opposite(opposite(s)) == s


def test_opposite_b1_is_d1():
    l = Fraction(1, 2)
    assert opposite(lets_row("B1p").instantiate(l)) == lets_row("D1p").instantiate(l)


def test_opposite_transposes_every_table():
    s = struct("aabb", "abab", "abab", "aabb", dot="abab", star="aabb")
    o = opposite(s)
    assert o.dot == op("abab").flipped()
    assert o.star == op("aabb").flipped()
    assert o.left == op("abab").flipped()
    assert o.lhd == op("aabb").flipped()


def test_is_commutative():
    h1 = struct("abba", "abba", "aaaa", "aaaa", dot="abba", star="aaaa")
    assert is_commutative(h1)
    assert not is_commutative(lets_row("B1p").instantiate(1))
    assert is_commutative(one_element_structure(lam=1))


def test_opposite_preserves_axiom_levels():
    good = example_abelian_group(XOR, Fraction(1, 2))
    assert check_lambda_ets(opposite(good)).ok
    bad = struct("aaaa", "aaaa", "aaaa", "bbaa")
    assert not check_eds(bad).ok and not check_eds(opposite(bad)).ok


# -- induced weights from a star table ----------------------------------------


def test_induced_weights_zero():
    s = struct("aaaa", "aaaa", "aaaa", "aaaa", dot="aaaa", star="aaaa")
    out = ets_to_lambda_ets(s, [0, 0])
    assert out.lam == const_lam(0)
    assert check_lambda_ets(out).ok


def test_induced_weights_constant_star():
    s = struct("aaaa", "aaaa", "aaaa", "aaaa", dot="aaaa", star="bbbb")
    out = ets_to_lambda_ets(s, [1, 5])
    assert out.lam == const_lam(5)
    assert check_lambda_ets(out).ok


def test_induced_weights_reject_non_ets():
    s = struct("abba", "abba", "aaaa", "aaaa", dot="abab", star="aaaa")
    with pytest.raises(StructureError):
        ets_to_lambda_ets(s, [1, 1])


# -- constructions -----------------------------------------------------------


def test_semigroup_construction_tables():
    s = example_semigroup(XOR, 1)
    assert s.left == XOR and s.right == XOR and s.dot == XOR
    assert s.lhd == SECOND and s.rhd == FIRST
    assert s.lam == const_lam(1)


def test_semigroup_rejects_nonassociative():
    with pytest.raises(StructureError):
        example_semigroup(op("baba"), 1)


def test_abelian_group_construction_tables():
    s = example_abelian_group(XOR, 1)
    assert s.left == FIRST and s.right == SECOND
    assert s.lhd == XOR and s.rhd == XOR
    assert s.dot == FIRST
    assert s.lam == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert check_lambda_ets(s).ok


def test_abelian_group_rejects_non_group():
    with pytest.raises(StructureError):
        example_abelian_group(op("aaab"), 1)  # no inverses for a


def test_matching_trivial_carrier():
    s = example_matching([Fraction(1, 3)])
    assert check_lambda_ets(s).ok and check_maps_level(s).ok


def test_weight_zero_requires_eds():
    with pytest.raises(StructureError):
        example_weight_zero(struct("aaaa", "aaaa", "aaaa", "bbaa"))


# -- swaps, reports, file format ----------------------------------------------


def test_swap_conjugate_is_isomorphism_witness():
    s = lets_row("F2").instantiate(0, 0)
    o = opposite(s)
    assert o != s and swap_conjugate(o, (1, 0)) == s


def test_report_witness_is_first_in_lex_order():
    rep = check_eds(struct("aaaa", "aaaa", "aaaa", "bbaa"))
    by_tag = {v.tag: v for v in rep.violations}
    # EQ10 reads (a|>(b->c))|>(b|>c) = a|>b, violated already at (0,0,0)
    assert by_tag["EQ10"].witness == (0, 0, 0)
    assert by_tag["EQ10"].count == 8


def test_structure_file_round_trip():
    samples = [
        example_semigroup(XOR, Fraction(3, 2)),
        example_abelian_group(XOR, Fraction(-1, 2)),
        lets_row("A1").instantiate(Fraction(1, 2), Fraction(-1)),
        struct("aabb", "abab", "abab", "aabb", dot="abba", star="aaaa"),
    ]
    for s in samples:
        assert parse_structure(serialize_structure(s)) == s


def test_structure_file_errors():
    with pytest.raises(StructureError):
        parse_structure("size = 2\nleft = [[0,0],[0,1]]\n")  # missing tables
    with pytest.raises(StructureError):
        parse_structure(
            "size = 2\nlabels = a b\nleft = [[0,2],[0,1]]\n"
            "right = [[0,0],[0,1]]\nlhd = [[0,0],[0,0]]\nrhd = [[0,0],[0,0]]\n"
        )  # entry out of range
    with pytest.raises(StructureError):
        parse_structure("size = 2\nlabels = a b\nnope = 3\n")


def test_structure_file_parses_psi_and_comments():
    text = """
size = 2
labels = a b
left  = [[0,0],[0,1]]   # comment
right = [[0,0],[0,1]]
lhd   = [[0,0],[0,0]]
rhd   = [[0,0],[0,0]]
psi   = [[{0:1},{0:1}],[{0:1},{0:1,1:-1}]]
"""
    s = parse_structure(text)
    assert s.psi[1][1] == FormalSum({0: Fraction(1), 1: Fraction(-1)})
    assert parse_structure(serialize_structure(s)) == s


def test_structure_file_rejects_duplicate_formal_sum_keys():
    text = TABLES_TEXT + "psi = [[{0:1,0:2},{0:1}],[{0:1},{1:1}]]\n"
    with pytest.raises(StructureError, match="duplicate key 0"):
        parse_structure(text)


@pytest.mark.parametrize("word, value", [
    ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
    ("false", False), ("No", False), ("0", False), ("FALSE", False),
])
def test_weight_zero_flag_words(word, value):
    assert parse_structure(TABLES_TEXT + f"weight_zero = {word}\n").weight_zero is value


@pytest.mark.parametrize("word", ["ture", "", "2", "on", "truee"])
def test_weight_zero_flag_rejects_other_text(word):
    with pytest.raises(StructureError, match="weight_zero must be one of"):
        parse_structure(TABLES_TEXT + f"weight_zero = {word}\n")
