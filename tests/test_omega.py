import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pointwise_oracle as oracle
import structure_oracle

from omegarb import classify, omega as om
from omegarb.classify import associative_tables, enumerate_level
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
    read_fields,
    serialize_structure,
    swap_conjugate,
)
from omegarb.scalars import FormalSum
from omegarb.tables import (
    LETS_ROWS,
    TBL,
    ets_fixture_structures,
    f3_instance,
    lets_row,
    op,
    strict_commutative_instances,
)
from omegarb.trees import TreeAlgebra, all_trees
from omegarb.words import FiniteAlgebra, serialize_algebra

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


# -- canonical weights -------------------------------------------------------


def canonical(s):
    """Every lambda entry an int, or a Fraction that is not integral."""
    return type(s.lam) is tuple and all(
        type(row) is tuple and all(
            type(v) is int or type(v) is Fraction and v.denominator > 1 for v in row)
        for row in s.lam)


def built_structures(monkeypatch):
    """(path, structure) from every path that builds a strict structure,
    each fed integral Fraction weights where it takes weights."""
    half, two = Fraction(1, 2), Fraction(4, 2)
    lam = ((Fraction(1), half), (Fraction(0), -two))
    base = struct("aabb", "abab", "abab", "aabb", dot="abba", lam=lam)
    yield "constructor", base
    yield "list rows", struct("aabb", "abab", "abab", "aabb", dot="abba",
                              lam=[[two, 1], [Fraction(-2, 3), Fraction(0)]])
    yield "replace", replace(base, lam=((two, two), (half, Fraction(3))))
    yield "opposite", opposite(base)
    yield "swap_conjugate", swap_conjugate(base, (1, 0))
    ets = struct("aaaa", "aaaa", "aaaa", "aaaa", dot="aaaa", star="bbbb")
    yield "ets_to_lambda_ets", ets_to_lambda_ets(ets, (half, Fraction(6, 3)))
    yield "parse_structure", parse_structure(TABLES_TEXT + "dot = [[0,1],[1,0]]\n"
                                             "lambda = [[1, 4/2], [1/2, 0]]\n")
    yield "example_weight_zero", example_weight_zero(struct("aaaa", "aaaa", "abab", "aabb"))
    yield "example_matching", example_matching([Fraction(1), half, two])
    yield "example_semigroup", example_semigroup(XOR, Fraction(1))
    yield "example_abelian_group", example_abelian_group(XOR, two)
    for c in (Fraction(1), half):
        for name, t in strict_commutative_instances(c):
            yield f"strict_commutative_instances {name} at {c}", t
    # classify: every structure lambda_constraint_probe checks
    seen = []
    monkeypatch.setattr(classify, "check_lambda_ets", lambda t: seen.append(t) or check_lambda_ets(t))
    classify.lambda_constraint_probe(struct("aaaa", "aaaa", "abab", "aabb"), op("abba"),
                                     samples=(Fraction(0), Fraction(1), half))
    assert len(seen) == 81
    for t in seen:
        yield "lambda_constraint_probe", t


def test_every_construction_path_stores_canonical_weights(monkeypatch):
    paths = []
    for path, s in built_structures(monkeypatch):
        assert canonical(s), path
        paths.append(path)
    assert len(paths) == 11 + 28 + 81
    # ints where integral, Fractions elsewhere, and equal to what came in
    s = struct("aabb", "abab", "abab", "aabb", dot="abba",
               lam=((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(-4, 2))))
    assert s.lam == ((1, Fraction(1, 2)), (0, -2))
    assert [type(v) for row in s.lam for v in row] == [int, Fraction, int, int]
    assert s.lam_at(0, 0) == 1 and type(s.lam_at(0, 0)) is int
    zero = replace(s, weight_zero=True).lam_at(0, 1)
    assert zero == 0 and type(zero) is int


@pytest.mark.parametrize("entry", [0.5, 1.0, "1", "1/2", True, False, None, 1j])
def test_a_weight_that_is_not_an_int_or_fraction_is_refused(entry):
    for i, j in ((0, 0), (1, 0)):
        lam = [[1, 0], [0, 0]]
        lam[i][j] = entry
        with pytest.raises(StructureError) as exc:
            struct("aabb", "abab", "abab", "aabb", dot="abba", lam=lam)
        assert str(exc.value).startswith(f"lambda[{i}][{j}] must be an int or a Fraction, got ")
    # the float 0.5 used to pass check_lambda_ets and break TreeAlgebra later
    s = example_semigroup(XOR, 1)
    with pytest.raises(StructureError, match=r"^lambda\[1\]\[1\]"):
        replace(s, lam=((1, 1), (1, entry)))


ETS = struct("aaaa", "aaaa", "aaaa", "aaaa", dot="aaaa", star="bbbb")

# every entry point that takes weights or weight samples from a caller
WEIGHT_ENTRY_POINTS = {
    "example_matching": lambda w: example_matching([1, w]),
    "example_semigroup": lambda w: example_semigroup(XOR, w),
    "example_abelian_group": lambda w: example_abelian_group(XOR, w),
    "strict_commutative_instances": strict_commutative_instances,
    "ets_to_lambda_ets": lambda w: ets_to_lambda_ets(ETS, (1, w)),
    "lets_row.instantiate": lambda w: lets_row("A1").instantiate(w, 0),
    "f3_instance": lambda w: f3_instance("abba", w),
    "verify_lambda_ets_table": lambda w: classify.verify_lambda_ets_table((0, w)),
    "verify_table_remarks": lambda w: classify.verify_table_remarks((0, w)),
    "lambda_constraint_probe": lambda w: classify.lambda_constraint_probe(
        struct("aaaa", "aaaa", "abab", "aabb"), XOR, samples=(0, w)),
}


@pytest.mark.parametrize("name", WEIGHT_ENTRY_POINTS)
@pytest.mark.parametrize("weight", [0.1, 0.5, True, "1/2"])
def test_a_weight_that_is_not_exact_is_refused_not_converted(name, weight):
    # example_semigroup(XOR, 0.1) used to build 3602879701896397/36028797018963968
    with pytest.raises(StructureError) as exc:
        WEIGHT_ENTRY_POINTS[name](weight)
    got = f"got {weight!r} ({type(weight).__name__})"
    assert f"must be an int or a Fraction, {got}" in str(exc.value)


@pytest.mark.parametrize("entry, message", [
    (1.0, "table entry 1.0 (float) is not an integer"),
    (0.0, "table entry 0.0 (float) is not an integer"),
    (True, "table entry True (bool) is not an integer"),
    ("1", "table entry '1' (str) is not an integer"),
    (None, "table entry None (NoneType) is not an integer"),
    (Fraction(1, 2), "table entry 1/2 is not an integer"),
])
def test_an_op_table_entry_that_is_not_an_int_is_refused_by_type(entry, message):
    # OpTable([[0.0, 1.0], [True, False]]) used to build
    for i, j in ((0, 0), (1, 1)):
        rows = [[0, 1], [1, 0]]
        rows[i][j] = entry
        with pytest.raises(StructureError) as exc:
            OpTable(rows)
        assert str(exc.value) == message


def test_op_table_faults_are_named_in_one_order():
    # every entry is converted first, then each row is checked for its
    # length and range in turn
    rows = OpTable([[Fraction(0), Fraction(2, 2)], [1, 0]]).rows
    assert rows == ((0, 1), (1, 0)) and all(type(v) is int for row in rows for v in row)
    for rows, message in [
        ([[5, 0], [0, Fraction(1, 2)]], "table entry 1/2 is not an integer"),
        ([[0, 5], [0]], "table entry 5 out of range 0..1"),
        ([[0], [0, 5]], "operation table must be square"),
        ([[0, 1], [-1, 0]], "table entry -1 out of range 0..1"),
    ]:
        with pytest.raises(StructureError) as exc:
            OpTable(rows)
        assert str(exc.value) == message


def strict_two_element_structures(eds_reps):
    """The 6,144 strict structures on two elements: an EDS representative,
    any dot table and 0/1 weights, weights given as the Fractions."""
    weights = list(product((Fraction(0), Fraction(1)), repeat=4))
    for tabs in eds_reps:
        for dot in ALL_TABLES:
            for w in weights:
                yield OmegaStructure(size=2, labels=("a", "b"), dot=dot,
                                     lam=((w[0], w[1]), (w[2], w[3])),
                                     **dict(zip(("left", "right", "lhd", "rhd"), map(OpTable, tabs))))


def test_int_and_fraction_weights_give_identical_reports(eds_reps):
    cases = list(strict_two_element_structures(eds_reps))
    assert len(cases) == 6144
    rng = random.Random(27)
    for s in rng.sample(cases, 300):
        ints = replace(s, lam=tuple(tuple(int(v) for v in row) for row in s.lam))
        assert canonical(s) and s.lam == ints.lam
        for check in (check_lambda_ets, check_maps_level):
            assert outcome(check, s) == outcome(check, ints)


def test_tree_products_agree_for_int_and_fraction_weights():
    pool = all_trees(("x",), 2, max_leaves=2, max_depth=2)[:10]
    for c in (1, 2, -1, 0):
        as_fraction = example_semigroup(XOR, Fraction(c))
        as_int = replace(as_fraction, lam=((c, c), (c, c)))
        F, I = TreeAlgebra(as_fraction), TreeAlgebra(as_int)
        for t in pool:
            for u in pool:
                x, y = FormalSum.term(t), FormalSum.term(u, Fraction(1, 2))
                got = F.product(x, y)
                assert got == I.product(x, y)
                assert all(type(v) is int or v.denominator > 1 for v in got._terms.values())


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


def test_strict_weight_cells_are_canonical():
    # psi_map of a strict structure: lam[i][j]*(i.j), an int coefficient when
    # integral, a Fraction otherwise, and no term at weight zero
    lam = ((Fraction(2), Fraction(1, 2)), (Fraction(0), Fraction(-3)))
    s = struct("aabb", "abab", "abab", "aabb", dot="abba", lam=lam)
    cells = [s.psi_map(i, j)._terms for i in range(2) for j in range(2)]
    assert cells == [{0: 2}, {1: Fraction(1, 2)}, {}, {0: -3}]
    assert [type(c) for cell in cells for c in cell.values()] == [int, Fraction, int]


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


MAPS_PIPELINES = om._map_pipelines("maps")
ETS_MAPS_PIPELINES = om._map_pipelines("ets-maps")
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
    _, lhs, rhs = MAPS_PIPELINES[-1]
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


# The 17 map identities as hand-written step tuples, kept apart from their
# texts in omega.MAP_EQUATIONS: a frozen oracle for the parsed pipelines.
EDS_STEPS = (
    ("eds1", (("phi_r", 0), ("tau", 0), ("phi_l", 1), ("tau", 0)),
             (("phi_l", 1), ("phi_r", 0))),
    ("eds2", (("phi_l", 0), ("tau", 0), ("phi_l", 1), ("tau", 0), ("phi_l", 1)),
             (("phi_l", 1), ("phi_l", 0))),
    ("eds3", (("phi_l", 0), ("tau", 0), ("phi_l", 1), ("tau", 0), ("phi_r", 1)),
             (("phi_r", 1), ("phi_l", 0))),
    ("eds4", (("phi_r", 1), ("phi_r", 0), ("phi_l", 1)),
             (("phi_l", 0), ("tau", 1), ("phi_r", 0))),
    ("eds5", (("phi_r", 1), ("phi_r", 0), ("phi_r", 1)),
             (("phi_r", 0), ("tau", 1), ("phi_r", 0))),
)
PSI_STEPS = (
    ("equ1", (("psi", 1), ("phi_r", 0)),
             (("phi_r", 0), ("tau", 1), ("psi", 0))),
    ("equ2", (("phi_l", 0), ("tau", 0), ("phi_l", 1), ("tau", 1), ("psi", 0)),
             (("psi", 1), ("phi_l", 0), ("tau", 0))),
    ("equ3", (("phi_r", 1), ("phi_r", 0), ("psi", 1)),
             (("psi", 0), ("phi_r", 0))),
    ("equ4", (("phi_l", 0), ("tau", 1), ("psi", 0)),
             (("phi_r", 1), ("psi", 0))),
    ("equ5", (("phi_l", 1), ("psi", 0)),
             (("psi", 0), ("phi_l", 0))),
    ("equ6", (("psi", 0), ("psi", 0)),
             (("psi", 1), ("psi", 0))),
)
STAR_STEPS = (
    ("equu1", (("phi_r", 0), ("tau", 0), ("phi_s", 1), ("tau", 0)),
              (("phi_s", 1), ("phi_r", 0))),
    ("equu2", (("phi_l", 0), ("tau", 0), ("phi_l", 1), ("tau", 0), ("phi_s", 1)),
              (("phi_s", 1), ("phi_l", 0))),
    ("equu3", (("phi_r", 1), ("phi_r", 0), ("phi_s", 1)),
              (("phi_s", 0), ("tau", 1), ("phi_r", 0))),
    ("equu4", (("phi_l", 0), ("tau", 0), ("phi_s", 1)),
              (("phi_r", 1), ("tau", 1), ("tau", 0), ("phi_s", 1))),
    ("equu5", (("phi_l", 1), ("phi_s", 0)),
              (("phi_s", 0), ("tau", 0), ("phi_l", 1), ("tau", 0))),
    ("equu6", (("phi_s", 0), ("tau", 1), ("phi_s", 0)),
              (("phi_s", 1), ("phi_s", 0), ("tau", 1))),
)


def test_map_pipelines_parsed_from_the_texts_match_the_frozen_steps():
    assert MAPS_PIPELINES == EDS_STEPS + PSI_STEPS
    assert ETS_MAPS_PIPELINES == EDS_STEPS + STAR_STEPS
    assert [tag for tag, _ in om.MAP_EQUATIONS] == [p[0] for p in EDS_STEPS + PSI_STEPS + STAR_STEPS]
    # the reports print the very texts the pipelines were parsed from
    for tag, text in om.MAP_EQUATIONS:
        assert om.EQUATION_TEXT[tag] == text
    assert list(om.MAP_TO_POINTWISE_TAGS) == [p[0] for p in MAPS_PIPELINES]
    assert list(om.ETS_MAP_TO_POINTWISE_TAGS) == [p[0] for p in ETS_MAPS_PIPELINES]


@pytest.mark.parametrize("text", [
    "phiX(id x psi) = psi(psi x id)",  # an unknown map name
    "(id x id)(phiL x id) = (phiL x id)",  # no map in the pair
    "(phiL x phiR) = (phiL x id)",  # two maps in the pair
    "psi(psi x id) psi(id x psi)",  # no '='
    "psi = psi = psi",
    "(tau x id)..(tau x id) = (tau x id)",
    "psi( x id) = psi",
    " = psi",
])
def test_malformed_map_texts_are_refused_by_name(text):
    with pytest.raises(ValueError) as exc:
        om.parse_map_equation(text)
    assert repr(text) in str(exc.value)


# -- pointwise checkers: the equation table and the hand-written oracle --------


def test_every_pointwise_row_parses_and_every_bundled_tag_is_a_row():
    tags = [tag for tag, _, _ in om.POINTWISE_EQUATIONS]
    assert len(tags) == len(set(tags))
    for tag, text, guard in om.POINTWISE_EQUATIONS:
        om.parse_equation(text)
        assert om.EQUATION_TEXT[tag] == text
        if guard is not None:
            # a guard is a weight identity of the table
            assert guard in tags
            assert om.parse_equation(om.EQUATION_TEXT[guard])[0][0] in ("lam", "mul")
    bundled = {t for m in (om.MAP_TO_POINTWISE_TAGS, om.ETS_MAP_TO_POINTWISE_TAGS)
               for group in m.values() for t in group}
    assert bundled <= set(tags)
    assert {t for level in om.LEVELS for t in om._level_tags(level)} == set(tags)
    # * is the star table between carrier terms and the scalar product
    # between weights
    assert om.parse_equation("(a.b)*c = b*c") == (("star", ("dot", "a", "b"), "c"),
                                                  ("star", "b", "c"))
    assert om.parse_equation("L[a,b]*L[b,c] = L[a,c]")[0] == (
        "mul", ("lam", "a", "b"), ("lam", "b", "c"))


@pytest.mark.parametrize("text", ["a<-b<-c = a", "L[a,b]*c = c", "L[a,b] = a",
                                  "L[a,b].L[b,c] = L[a,c]", "L[L[a,b],c] = L[a,c]",
                                  "(a<-b = a", "a<-d = a", "a<-b", "a = b = c"])
def test_malformed_rows_do_not_parse(text):
    with pytest.raises(ValueError):
        om.parse_equation(text)


ORACLE_WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))


def oracle_structures(n, rng, count, eds_rows=()):
    """Seeded strict structures on n elements with dot, star and lambda.

    The four side tables are arbitrary, the projection tables (an EDS) or,
    when given, one of ``eds_rows``.  Lambda is constant (every weight
    identity holds, so every guard is live where nonzero) or has random
    cells from ORACLE_WEIGHTS (guards hold at some triples only).
    """
    rows = tuple(range(n))
    first = tuple((a,) * n for a in rows)
    second = (rows,) * n

    def table():
        return tuple(tuple(rng.randrange(n) for _ in rows) for _ in rows)

    out = []
    for k in range(count):
        kind = k % 3
        if kind == 0 or kind == 2 and not eds_rows:
            tabs = [table() for _ in range(4)]
        elif kind == 1:
            tabs = [first, second, second, first]
        else:
            tabs = list(rng.choice(eds_rows))
        if rng.random() < 0.5:
            w = rng.choice(ORACLE_WEIGHTS)
            lam = tuple((w,) * n for _ in rows)
        else:
            lam = tuple(tuple(rng.choice(ORACLE_WEIGHTS) for _ in rows) for _ in rows)
        out.append(OmegaStructure(
            size=n, labels=tuple("abcdefgh"[:n]), dot=OpTable(table()), star=OpTable(table()),
            lam=lam, **dict(zip(("left", "right", "lhd", "rhd"), map(OpTable, tabs)))))
    return out


def outcome(check, s):
    """(level, [(tag, witness, count)]) of a report, or the checker's error."""
    try:
        rep = check(s)
    except StructureError as exc:
        return "error", str(exc)
    if isinstance(rep, tuple):
        return rep
    return rep.level, [(v.tag, v.witness, v.count) for v in rep.violations]


def assert_matches_oracle(s):
    for check, reference in ((check_diassociative, oracle.check_diassociative),
                             (check_eds, oracle.check_eds),
                             (check_lambda_ets, oracle.check_lambda_ets),
                             (check_ets, oracle.check_ets)):
        for t in (s, replace(s, weight_zero=True)) if check is check_lambda_ets else (s,):
            assert outcome(check, t) == outcome(reference, t)


@pytest.mark.parametrize("n, count", [(1, 12), (2, 240), (3, 60)])
def test_pointwise_checkers_match_the_oracle(n, count, eds_reps):
    rng = random.Random(900 + n)
    cases = oracle_structures(n, rng, count, eds_reps if n == 2 else ())
    if n == 2:
        cases += [s for _, s in ets_fixture_structures()]
        cases += [example_semigroup(XOR, Fraction(1, 2)), example_matching([1, 2]),
                  example_abelian_group(XOR, -1)]
    if n == 3:
        good = example_semigroup(Z3, 2)
        cases += [good, example_abelian_group(Z3, Fraction(1, 2)), example_matching([1, -1, 2])]
        cases += [with_one_cell_changed(good, name) for name in ("left", "rhd", "dot")]
        cases.append(parse_structure(
            (Path(__file__).parent.parent / "sample_inputs" / "all_layers_fail.txt").read_text()))
    fails = {tag for s in cases if s.lam for tag in check_lambda_ets(s).failed_tags()}
    assert n == 1 or fails >= set(om._level_tags("lambda-ets"))
    for s in cases:
        assert_matches_oracle(s)


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


def test_repeated_labels_are_refused():
    # a repeated label would print two types the same way
    with pytest.raises(StructureError, match="labels 'a a' repeat a label"):
        replace(example_matching([1, 2]), labels=("a", "a"))
    with pytest.raises(StructureError, match="labels 'a b b' repeat a label"):
        example_matching([1, 2, 3], labels=("a", "b", "b"))
    with pytest.raises(StructureError, match="repeat a label"):
        parse_structure(TABLES_TEXT + "labels = x x\n")
    assert example_matching([1, 2], labels=("a", "b")).labels == ("a", "b")


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


def test_read_fields_strips_the_comment_before_it_splits_records():
    text = "a = 1  # c; d\n\n   # only a comment\nb = [1, 2]; c = x = y\n"
    assert list(read_fields(text)) == [(1, "a", "1"), (4, "b", "[1, 2]; c = x = y")]
    assert list(read_fields(text, sep=";")) == [
        (1, "a", "1"), (4, "b", "[1, 2]"), (4, "c", "x = y"),
    ]


@pytest.mark.parametrize("text, sep, message", [
    ("a = 1\nb\n", None, "line 2: expected 'key = value'"),
    ("a = 1; b\n", ";", "line 1: expected 'key = value'"),
    ("a = 1\n# a = 2\na = 3\n", None, "line 3: duplicate key 'a'"),
    ("a = 1\nb = 2; a = 3\n", ";", "line 2: duplicate key 'a'"),
])
def test_read_fields_refuses_a_bad_record_by_line(text, sep, message):
    with pytest.raises(StructureError) as exc:
        list(read_fields(text, sep))
    assert str(exc.value) == message


# any text: a label the file format cannot hold is refused by the serializer
_LABELS = st.text(max_size=3)
_SCALARS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def structures(draw):
    n = draw(st.integers(1, 3))

    def square(cells):
        return draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))

    def table():
        return OpTable(square(st.integers(0, n - 1)))

    weight = draw(st.sampled_from(["none", "lambda", "psi"]))
    dot = table() if weight == "lambda" or draw(st.booleans()) else None
    lam = psi = None
    if weight == "lambda":
        lam = tuple(map(tuple, square(_SCALARS)))
    elif weight == "psi":
        sums = st.dictionaries(st.integers(0, n - 1), _SCALARS, max_size=n).map(FormalSum)
        psi = tuple(map(tuple, square(sums)))
    return OmegaStructure(
        size=n, labels=tuple(draw(st.lists(_LABELS, min_size=n, max_size=n, unique=True))),
        left=table(), right=table(), lhd=table(), rhd=table(), dot=dot,
        star=table() if draw(st.booleans()) else None, lam=lam, psi=psi,
        weight_zero=weight != "psi" and draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(structures())
def test_serialized_structures_read_back_equal(s):
    bad = [label for label in s.labels if unwritable(label)]
    if bad:
        with pytest.raises(StructureError, match="cannot be written") as exc:
            serialize_structure(s)
        assert repr(bad[0]) in str(exc.value)
    else:
        assert parse_structure(serialize_structure(s)) == s


def unwritable(label):
    """Empty, or holding whitespace or a character the readers split on."""
    return not label or any(ch.isspace() or ch in ",[]{}#;=" for ch in label)


@pytest.mark.parametrize("label", ["", "u v", "a\tb", "x\u2028", "a,b", "[a", "b]", "{", "}",
                                   "#c", "a;b", "a=b"])
def test_serializers_refuse_a_label_their_format_cannot_read_back(label):
    structure = replace(example_matching((0, 1)), labels=(label, "b"))
    algebra = FiniteAlgebra((label,), ((FormalSum.zero(),),))
    for serialize, value in ((serialize_structure, structure), (serialize_algebra, algebra)):
        with pytest.raises(StructureError) as exc:
            serialize(value)
        assert str(exc.value).startswith(f"label {label!r} cannot be written")


# -- the carrier transforms and the writer against their frozen oracle --------

_GRID = (0, 1, -1, Fraction(1, 2), Fraction(-2, 3))
Z3 = OpTable(tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)))


def _psi_structure(rng, n=3):
    """A random structure on n elements with every table and a psi map."""
    def table():
        return OpTable(tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))

    psi = tuple(tuple(FormalSum({b: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                 for b in rng.sample(range(n), rng.randint(0, n))})
                      for _ in range(n)) for _ in range(n))
    return OmegaStructure(size=n, labels=("x", "y", "z")[:n], left=table(), right=table(),
                          lhd=table(), rhd=table(), dot=table(), star=table(), psi=psi)


def _lets_rows():
    for row in LETS_ROWS:
        for l, m in product(_GRID, repeat=2):
            yield f"{row.name}(l={l},m={m})", row.instantiate(l, m)


def _f3_instances():
    for dot in associative_tables(2):
        code = "".join("ab"[v] for row in dot for v in row)
        for l in _GRID:
            yield f"F3(.={code})(l={l})", f3_instance(code, l)


def _strict_commutative():
    for c in _GRID:
        yield from strict_commutative_instances(c)


def _examples():
    eds = struct("aaaa", "aaaa", "abab", "aabb")
    yield "weight-zero", example_weight_zero(eds)
    yield "weight-zero(.=abba)", example_weight_zero(eds, XOR)
    yield "matching", example_matching([1, Fraction(2, 3), -1], labels=("p", "q", "r"))
    for l in _GRID:
        yield f"semigroup({l})", example_semigroup(Z3, l)
        yield f"abelian-group({l})", example_abelian_group(Z3, l)


def _psi_3():
    rng = random.Random(7)
    for k in range(20):
        yield f"psi-3[{k}]", _psi_structure(rng)


FROZEN_FAMILIES = {"lets-rows": _lets_rows, "f3": _f3_instances, "ets-fixture": ets_fixture_structures,
                   "strict-commutative": _strict_commutative, "examples": _examples,
                   "psi-3": _psi_3}


@pytest.mark.parametrize("family", FROZEN_FAMILIES)
def test_transforms_and_writer_match_the_frozen_oracle(family):
    for name, s in FROZEN_FAMILIES[family]():
        text = serialize_structure(s)
        assert text == structure_oracle.serialize_structure(s), name
        opp = opposite(s)
        assert opp == structure_oracle.opposite(s), name
        assert serialize_structure(opp) == structure_oracle.serialize_structure(opp), name
        for perm in permutations(range(s.size)):
            conj = swap_conjugate(s, perm)
            assert conj == structure_oracle.swap_conjugate(s, perm), (name, perm)
            assert serialize_structure(conj) == structure_oracle.serialize_structure(conj), name


def test_the_frozen_families_fill_every_table_and_hold_3_element_psi_maps():
    cases = [s for family in FROZEN_FAMILIES.values() for _, s in family()]
    filled = {attr for s in cases for attr, _ in om.TABLES if getattr(s, attr) is not None}
    assert filled == {attr for attr, _ in om.TABLES}
    assert sum(s.size == 3 and s.psi is not None for s in cases) == 20


@settings(max_examples=100, deadline=None)
@given(structures(), st.data())
def test_random_structures_transform_as_the_frozen_oracle_does(s, data):
    perm = data.draw(st.permutations(range(s.size)))
    assert opposite(s) == structure_oracle.opposite(s)
    assert swap_conjugate(s, perm) == structure_oracle.swap_conjugate(s, perm)
