from fractions import Fraction

from hypothesis import given, strategies as st

from omegarb.scalars import (
    FormalSum,
    bilinear_extend,
    format_scalar,
    graded_relabel,
    graded_sum,
    parse_scalar,
)


def fs(*pairs):
    return FormalSum({b: Fraction(c) for b, c in pairs})


def test_add_cancels_to_zero():
    assert fs(("b1", 2)) + fs(("b1", -2)) == FormalSum.zero()
    assert (fs(("b1", 2)) + fs(("b1", -2))).is_zero()


def test_add_disjoint_supports():
    assert fs(("b1", 1)) + fs(("b2", 1)) == fs(("b1", 1), ("b2", 1))


def test_add_exact_rationals():
    got = fs(("b1", Fraction(1, 2))) + fs(("b1", Fraction(1, 3)))
    assert got == fs(("b1", Fraction(5, 6)))


def test_scale():
    x = fs(("b1", 3))
    assert x.scale(0) == FormalSum.zero()
    assert x.scale(1) == x
    assert fs(("b1", Fraction(3, 4))).scale(Fraction(2, 3)) == fs(("b1", Fraction(1, 2)))
    assert Fraction(2, 3) * fs(("b1", Fraction(3, 4))) == fs(("b1", Fraction(1, 2)))


def test_bilinear_extend_examples():
    f = bilinear_extend(lambda a, b: FormalSum.term((a, b)))
    assert f(FormalSum.zero(), fs(("b1", 5))).is_zero()

    g = bilinear_extend(lambda a, b: FormalSum.term("b3"))
    assert g(fs(("b1", 2)), fs(("b2", 3))) == fs(("b3", 6))

    def cancel(a, b):
        return FormalSum.term("b4", 1 if a == "b1" else -1)

    h = bilinear_extend(cancel)
    assert h(fs(("b1", 1), ("b2", 1)), fs(("b3", 1))).is_zero()


def test_canonical_form_idempotent():
    x = fs(("b2", Fraction(1, 3)), ("b1", -2))
    rebuilt = FormalSum(dict(x.items()))
    assert rebuilt == x
    assert rebuilt.items() == x.items()
    # iteration is in basis order
    assert [b for b, _ in x] == ["b1", "b2"]


def test_zero_coefficients_dropped_on_construction():
    assert FormalSum({"b1": Fraction(0)}).is_zero()
    assert FormalSum([("b1", 1), ("b1", -1)]).is_zero()


def test_scalar_literals():
    assert parse_scalar("2/3") == Fraction(2, 3)
    assert parse_scalar("-7") == Fraction(-7)
    assert format_scalar(Fraction(5, 6)) == "5/6"
    assert format_scalar(Fraction(4)) == "4"


coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=9)
sums = st.dictionaries(st.integers(0, 5), coeffs, max_size=5).map(FormalSum)


@given(sums, sums, sums)
def test_add_associative_commutative(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)


@given(sums, coeffs, coeffs)
def test_scale_compatibilities(x, c, d):
    assert x.scale(c).scale(d) == x.scale(c * d)
    assert x.scale(c) + x.scale(d) == x.scale(c + d)


@given(sums, sums, sums, coeffs)
def test_bilinearity_against_pairwise_expansion(x, y, z, c):
    f = bilinear_extend(lambda a, b: FormalSum.term(a * 7 + b, Fraction(a - b, 3)))
    assert f(x + y, z) == f(x, z) + f(y, z)
    assert f(x, y + z) == f(x, y) + f(x, z)
    assert f(x.scale(c), y) == f(x, y).scale(c)
    assert f(x, y.scale(c)) == f(x, y).scale(c)
    expanded = FormalSum.zero()
    for a, ca in x:
        for b, cb in y:
            expanded = expanded + FormalSum.term(a * 7 + b, Fraction(a - b, 3)).scale(ca * cb)
    assert f(x, y) == expanded


# -- integral coefficients are stored as int ------------------------------------


def assert_canonical(x):
    for c in x._terms.values():
        assert c != 0
        assert (type(c) is int) == (c.denominator == 1), repr(c)


def reference(x):
    return {b: Fraction(c) for b, c in x._terms.items()}


def ref_add(acc, b, c):
    acc[b] = acc.get(b, Fraction(0)) + Fraction(c)
    if not acc[b]:
        del acc[b]


scalars = st.one_of(st.integers(-12, 12), coeffs)
mixed_sums = st.dictionaries(st.integers(0, 5), scalars, max_size=5).map(FormalSum)


def test_integral_coefficients_are_ints():
    x = FormalSum({"b1": Fraction(4, 2), "b2": Fraction(1, 2)})
    assert type(x.coeff("b1")) is int and x.coeff("b1") == 2
    assert type(FormalSum.term("b", Fraction(3)).coeff("b")) is int
    assert type((x + x).coeff("b2")) is int
    assert type(x.scale(Fraction(2, 3)).coeff("b2")) is Fraction
    assert str(FormalSum.term("b", Fraction(6, 3)).coeff("b")) == "2"


@given(mixed_sums, mixed_sums, scalars)
def test_operations_agree_with_a_fraction_reference(x, y, c):
    assert_canonical(x)
    rx, ry = reference(x), reference(y)

    want_add = dict(rx)
    for b, v in ry.items():
        ref_add(want_add, b, v)
    want_sub = dict(rx)
    for b, v in ry.items():
        ref_add(want_sub, b, -v)
    want_scale = {b: v * c for b, v in rx.items() if v * c}
    want_map = {}
    for b, v in rx.items():
        ref_add(want_map, b // 2, v)

    def image(b):
        return FormalSum({b: Fraction(1, 2), b + 1: -1})

    want_linear = {}
    for b, v in rx.items():
        ref_add(want_linear, b, v * Fraction(1, 2))
        ref_add(want_linear, b + 1, -v)

    def pair(a, b):
        return FormalSum.term(a * 7 + b, Fraction(a - b, 3))

    want_bilinear = {}
    for a, va in rx.items():
        for b, vb in ry.items():
            ref_add(want_bilinear, a * 7 + b, va * vb * Fraction(a - b, 3))

    for got, want in (
        (x + y, want_add),
        (x - y, want_sub),
        (x.scale(c), want_scale),
        (x.map_basis(lambda b: b // 2), want_map),
        (x.apply_linear(image), want_linear),
        (bilinear_extend(pair)(x, y), want_bilinear),
    ):
        assert got._terms == want
        assert_canonical(got)


# -- the graded lift a product leaves on its output -----------------------------


def lift_terms(x):
    """The coefficients a sum's lift stands for, worked out with Fractions."""
    (grade, d, d_alg, base, top), num = x._lift
    out = {}
    for b, n in num.items():
        g = grade(b)
        out[b] = Fraction(n, base * (d ** (top - g) if d != 1 else 1) * d_alg ** (g + 1))
    return out


def assert_lift_exact(x):
    """A lift, if any, stands for exactly the terms, which are canonical."""
    assert_canonical(x)
    if x._lift is not None:
        assert lift_terms(x) == x._terms
        assert 0 not in x._lift[1].values()


def letters(b):
    # a toy grade: basis elements are strings, graded by length - 1
    return len(b) - 1


def test_lift_of_graded_sum_gives_its_terms():
    x = graded_sum({"a": 9, "ab": 2, "abc": 5}, 2, letters, d=3, base=2)
    assert x._terms == {"a": Fraction(1, 2), "ab": Fraction(1, 3), "abc": Fraction(5, 2)}
    assert x._lift == ((letters, 3, 1, 2, 2), {"a": 9, "ab": 2, "abc": 5})
    assert_lift_exact(x)
    # with D = 1 top plays no part, and with D_A > 1 each grade adds one factor
    y = graded_sum({"a": 4, "ab": 4}, 7, letters, d=1, d_alg=2)
    assert y._terms == {"a": 2, "ab": 1} and y._lift[0] == (letters, 1, 2, 1, 0)
    assert_lift_exact(y)


def test_equal_sums_with_different_lift_keys_compare_by_terms():
    x = graded_sum({"a": 9, "ab": 2}, 1, letters, d=3)
    # the same values at base 2 and top 2
    y = graded_sum({"a": 54, "ab": 12}, 2, letters, d=3, base=2)
    plain = FormalSum(x.items())
    assert plain._lift is None
    assert x._terms == {"a": 3, "ab": 2}
    assert x == y and y == x and x == plain and plain == x and y == plain
    assert hash(x) == hash(y) == hash(plain)
    # the same key with other numerators is another sum
    z = graded_sum({"a": 9, "ab": 4}, 1, letters, d=3)
    assert z != x and x != z and z != plain
    assert len({x, y, plain, z}) == 2


def test_arithmetic_leaves_a_lifted_sum_and_its_lift_unchanged():
    x = graded_sum({"a": 9, "ab": 2, "abc": 5}, 2, letters, d=3, base=2)
    key, num = x._lift
    terms, numbers = dict(x._terms), dict(num)
    other = FormalSum({"a": Fraction(1, 3), "b": 1})
    results = [x + other, other + x, x - other, -x, x.scale(3), x.scale(Fraction(2, 3)),
               x.scale(1), 2 * x, graded_relabel(x, lambda b: "z" + b)]
    assert x._terms == terms and x._lift[0] == key and x._lift[1] is num and num == numbers
    for r in results:
        assert_lift_exact(r)
    # only the relabel (and a scaling by 1, which returns x) keeps a lift
    assert [r._lift is not None for r in results] == [False] * 6 + [True, False, True]


def test_graded_relabel_carries_the_lift_one_grade_up():
    for d, d_alg in ((1, 1), (3, 1), (1, 2), (3, 4)):
        x = graded_sum({"a": 9, "ab": -2, "abc": 5}, 2, letters, d, d_alg, base=2)
        up = graded_relabel(x, lambda b: "z" + b)
        assert up._terms == {"z" + b: c for b, c in x._terms.items()}
        assert_lift_exact(up)
        assert up._lift[0][4] == (3 if d != 1 else 0)
        assert up == FormalSum(up.items())
    plain = FormalSum({"a": Fraction(1, 2), "b": 3})
    up = graded_relabel(plain, lambda b: "z" + b)
    assert up._lift is None and up._terms == {"za": Fraction(1, 2), "zb": 3}
