import copy
import gc
import pickle
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omegarb.omega import OpTable, StructureError, example_semigroup
from omegarb import scalars
from omegarb.scalars import FormalSum
from omegarb.tables import lets_row, op, strict_commutative_instances
from omegarb.words import (
    FiniteAlgebra,
    TypedWord,
    WordAlgebra,
    parse_algebra,
    parse_word_expr,
    serialize_algebra,
    sh_prime_filter,
    sum_in_sh_prime,
    unitize,
    word_evaluate,
    word_length,
    word_sum_to_str,
)

from test_scalars import assert_lift_exact

XOR = OpTable(((0, 1), (1, 0)))
fs = FormalSum.term


def nilpotent_line():
    # one-dimensional span of x with x^2 = 0 (no unit)
    return FiniteAlgebra(("x",), ((FormalSum.zero(),),), unit=None, commutative=True)


def truncated_poly():
    return FiniteAlgebra(
        ("1", "x"), ((fs(0), fs(1)), (fs(1), FormalSum.zero())), unit=0, commutative=True
    )


def family_structure(lam=Fraction(1)):
    return example_semigroup(XOR, lam)


def all_words(dim, ntypes, max_len):
    out = [TypedWord((e,), ()) for e in range(dim)]
    frontier = list(out)
    for _ in range(max_len - 1):
        frontier = [
            TypedWord((e,) + w.entries, (t,) + w.types)
            for w in frontier
            for e in range(dim)
            for t in range(ntypes)
        ]
        out.extend(frontier)
    return out


# -- algebras ------------------------------------------------------------------


def test_algebra_validation():
    bad = ((fs(1), fs(0)), (fs(0), fs(0)))  # (uu)v = u*... fails at (u,u,v)
    with pytest.raises(StructureError, match="associative"):
        FiniteAlgebra(("u", "v"), bad)


def test_algebra_commutative_flag_checked():
    mult = ((fs(0), fs(1)), (fs(0), fs(1)))
    with pytest.raises(StructureError, match="commute"):
        FiniteAlgebra(("u", "v"), mult, commutative=True)


def test_algebra_unit_checked():
    mult = ((fs(0), fs(0)), (fs(0), fs(0)))
    with pytest.raises(StructureError, match="unit"):
        FiniteAlgebra(("u", "v"), mult, unit=0)


def test_unitize_nilpotent_line():
    ua = unitize(nilpotent_line())
    assert ua.dim == 2 and ua.unit == 0 and ua.labels == ("1", "x")
    assert ua.product_basis(1, 1).is_zero()          # x^2 = 0 survives
    assert ua.product_basis(0, 1) == fs(1)           # 1 * x = x
    assert ua.commutative
    # unitize of the nilpotent line is the truncated polynomial algebra
    assert ua == truncated_poly()


def test_unitize_preserves_associativity_and_unit_law():
    base = truncated_poly()  # already unital; a fresh unit is adjoined anyway
    ua = unitize(base)
    assert ua.dim == 3 and ua.unit == 0
    for i in range(ua.dim):
        assert ua.product_basis(0, i) == fs(i)
        assert ua.product_basis(i, 0) == fs(i)


# -- words and operators --------------------------------------------------------


def test_length():
    assert word_length(TypedWord((0,), ())) == 1
    assert word_length(TypedWord((0, 1), (0,))) == 2
    assert word_length(TypedWord((0, 1, 0, 1), (0, 1, 0))) == 4


def test_p_op_prepends_unit():
    W = WordAlgebra(family_structure(), truncated_poly())
    w = fs(TypedWord((1,), ()))
    got = W.p_op(1, w)
    assert got == fs(TypedWord((0, 1), (1,)))
    assert word_length(got.support()[0]) == 2
    nested = W.p_op(0, W.p_op(1, w))
    assert nested.support()[0].types == (0, 1)


def test_word_operators_need_a_unit():
    with pytest.raises(StructureError, match="unital"):
        WordAlgebra(family_structure(), nilpotent_line())


def test_product_of_length_one_words_expands_in_algebra():
    W = WordAlgebra(family_structure(), truncated_poly())
    x = fs(TypedWord((1,), ()))
    one = W.one()
    assert W.product(x, x).is_zero()            # x*x = 0
    assert W.product(one, x) == x == W.product(x, one)


def test_word_rb_expansion():
    s = family_structure(Fraction(1, 2))
    W = WordAlgebra(s, truncated_poly())
    u = fs(TypedWord((1, 0), (1,)))
    v = fs(TypedWord((1,), ()))
    for a in range(2):
        for b in range(2):
            lhs = W.product(W.p_op(a, u), W.p_op(b, v))
            rhs = (
                W.p_op(s.right(a, b), W.product(W.p_op(s.rhd(a, b), u), v))
                + W.p_op(s.left(a, b), W.product(u, W.p_op(s.lhd(a, b), v)))
                + W.p_op(s.dot(a, b), W.product(u, v)).scale(s.lam_at(a, b))
            )
            assert lhs == rhs


def test_length_grading():
    # exact p+q-1 in every term only in weight zero; the weight term merges
    # one more pair of letters, so in general the grading is an upper bound
    pool = all_words(2, 2, 2)
    W0 = WordAlgebra(replace(family_structure(), weight_zero=True), truncated_poly())
    W = WordAlgebra(family_structure(), truncated_poly())
    for u in pool:
        for v in pool:
            expected = word_length(u) + word_length(v) - 1
            assert all(word_length(w) == expected for w, _ in W0.product(fs(u), fs(v)))
            assert all(word_length(w) <= expected for w, _ in W.product(fs(u), fs(v)))


def test_commutativity_over_commutative_structures():
    for name, s in strict_commutative_instances(Fraction(1, 2))[:6]:
        W = WordAlgebra(s, truncated_poly())
        pool = all_words(2, 2, 2)
        for u in pool:
            for v in pool:
                assert W.product(fs(u), fs(v)) == W.product(fs(v), fs(u)), name


def test_noncommutative_structure_yields_witness():
    # the B-type slice with constant weight funnels everything through the
    # second projection on the right and must break commutativity somewhere
    row = lets_row("B1p")
    s = None
    from omegarb.omega import OmegaStructure

    s = OmegaStructure(
        size=2, labels=("a", "b"), left=op(row.left), right=op(row.right),
        lhd=op(row.lhd), rhd=op(row.rhd), dot=op("aaaa"),
        lam=((Fraction(1),) * 2,) * 2,
    )
    W = WordAlgebra(s, truncated_poly())
    pool = all_words(2, 2, 2)
    assert any(
        W.product(fs(u), fs(v)) != W.product(fs(v), fs(u)) for u in pool for v in pool
    )


def test_associativity_sampled():
    s = family_structure(Fraction(1, 2))
    W = WordAlgebra(s, truncated_poly())
    pool = [w for w in all_words(2, 2, 2) if word_length(w) <= 2][:8]
    for u in pool:
        su = fs(u)
        for v in pool:
            p_uv = W.product(su, fs(v))
            for w in pool:
                assert W.product(p_uv, fs(w)) == W.product(su, W.product(fs(v), fs(w)))


# -- the generated subspace -----------------------------------------------------


def test_sh_prime_filter():
    ua = unitize(nilpotent_line())
    assert not sh_prime_filter(TypedWord((0,), ()), ua)  # bare adjoined unit
    assert sh_prime_filter(TypedWord((1,), ()), ua)
    assert sh_prime_filter(TypedWord((0, 0), (1,)), ua)


def test_sh_prime_closure():
    ua = unitize(nilpotent_line())
    s = family_structure(Fraction(1, 2))
    W = WordAlgebra(s, ua)
    pool = [w for w in all_words(2, 2, 3) if sh_prime_filter(w, ua)]
    for u in pool[:20]:
        for t in range(2):
            assert sum_in_sh_prime(W.p_op(t, fs(u)), ua)
        for v in pool[:20]:
            assert sum_in_sh_prime(W.product(fs(u), fs(v)), ua)


# -- universal morphism ----------------------------------------------------------


def second_poly():
    return FiniteAlgebra(
        ("1", "y"), ((fs(0), fs(1)), (fs(1), FormalSum.zero())), unit=0, commutative=True
    )


def test_word_evaluate_base_and_intertwining():
    s = family_structure()
    A = truncated_poly()
    B = second_poly()
    W_B = WordAlgebra(s, B)
    f = {0: W_B.one(), 1: fs(TypedWord((1,), ()))}
    assert word_evaluate(TypedWord((1,), ()), f, W_B, A) == f[1]
    w = TypedWord((1, 0), (1,))
    assert word_evaluate(
        TypedWord((0,) + w.entries, (0,) + w.types), f, W_B, A
    ) == W_B.p_op(0, word_evaluate(w, f, W_B, A))


def test_word_evaluate_is_algebra_morphism():
    s = family_structure(Fraction(1, 2))
    A = truncated_poly()
    B = second_poly()
    W_A = WordAlgebra(s, A)
    W_B = WordAlgebra(s, B)
    f = {0: W_B.one(), 1: fs(TypedWord((1,), ()))}
    pool = all_words(2, 2, 2)
    for u in pool:
        for v in pool:
            lhs = word_evaluate(W_A.product(fs(u), fs(v)), f, W_B, A)
            rhs = W_B.product(word_evaluate(u, f, W_B, A), word_evaluate(v, f, W_B, A))
            assert lhs == rhs


def test_word_evaluate_folds_a_long_word_without_recursing():
    s = family_structure()
    A = truncated_poly()
    B = second_poly()
    W_B = WordAlgebra(s, B)
    f = {0: W_B.one(), 1: fs(TypedWord((1,), ()))}
    rng = random.Random(7)
    entries = [rng.randrange(2) for _ in range(1500)]
    types = [rng.randrange(2) for _ in range(1499)]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = word_evaluate(TypedWord(entries, types), f, W_B, A)
    finally:
        sys.setrecursionlimit(old)
    # f sends x to y and 1 to 1, and each P_t prepends the unit, so the
    # word comes back letter for letter over the basis (1, y)
    assert got == fs(TypedWord(entries, types))


def test_word_evaluate_rejects_non_morphism():
    s = family_structure()
    A = truncated_poly()
    W = WordAlgebra(s, A)
    bad = {0: W.one(), 1: W.one()}  # 1 squares to 1, but x^2 = 0
    with pytest.raises(StructureError, match="morphism"):
        word_evaluate(TypedWord((1,), ()), bad, W, A)


# -- files and expressions --------------------------------------------------------


def test_algebra_file_round_trip():
    for a in (truncated_poly(), unitize(nilpotent_line()), unitize(truncated_poly())):
        assert parse_algebra(serialize_algebra(a)) == a


def test_parse_algebra_inline_format():
    a = parse_algebra("basis = [1, x]; unit = 1; commutative = true; "
                      "mult = [[{0:1},{1:1}],[{1:1},{}]]")
    assert a == truncated_poly()


def test_word_expressions_round_trip():
    s = family_structure()
    A = truncated_poly()
    W = WordAlgebra(s, A)
    value = fs(TypedWord((1, 0, 1), (0, 1))).scale(Fraction(-3, 2)) + fs(TypedWord((1,), ()))
    text = word_sum_to_str(value, A, s.labels)
    assert parse_word_expr(text, A, s.labels, W) == value
    direct = parse_word_expr("x [a] 1 [b] x", A, s.labels)
    assert direct == fs(TypedWord((1, 0, 1), (0, 1)))


def test_word_products_at_two_thirds_keep_integral_coefficients_int():
    ua = truncated_poly()
    W = WordAlgebra(family_structure(Fraction(2, 3)), ua)
    pool = all_words(2, 2, 3)
    kinds = set()
    for a in pool:
        for b in pool[:12]:
            out = W.product(FormalSum.term(a, Fraction(3, 2)), FormalSum.term(b))
            for v in out._terms.values():
                assert (type(v) is int) == (v.denominator == 1)
                kinds.add(type(v))
    assert kinds == {int, Fraction}


def test_parse_algebra_rejects_duplicate_mult_keys():
    with pytest.raises(StructureError, match="duplicate key 0"):
        parse_algebra("basis = [1, x]; unit = 1; mult = [[{0:1,0:1},{1:1}],[{1:1},{}]]")


@pytest.mark.parametrize("word, value", [("TRUE", True), ("yes", True), ("1", True),
                                         ("false", False), ("No", False), ("0", False)])
def test_parse_algebra_commutative_flag_words(word, value):
    a = parse_algebra(f"basis = [1, x]; unit = 1; commutative = {word}; "
                      "mult = [[{0:1},{1:1}],[{1:1},{}]]")
    assert a.commutative is value


@pytest.mark.parametrize("word", ["ture", "2", "off", ""])
def test_parse_algebra_commutative_flag_rejects_other_text(word):
    with pytest.raises(StructureError, match="commutative must be one of"):
        parse_algebra(f"basis = [1, x]; unit = 1; commutative = {word}; "
                      "mult = [[{0:1},{1:1}],[{1:1},{}]]")


# -- the one-pass kernel against the composed recursion ------------------------


class ComposedWordAlgebra(WordAlgebra):
    """Reference: the recursion written with whole formal sums (p_op, product
    and a cons of head and tail sums), as the product was composed before the
    one-pass kernel."""

    def product(self, u, v):
        acc = FormalSum.zero()
        for w1, c1 in u._terms.items():
            for w2, c2 in v._terms.items():
                acc = acc + self.diamond_basis(w1, w2).scale(c1 * c2)
        return acc

    @staticmethod
    def _cons(head, ty, tail):
        return FormalSum(
            (TypedWord((k,) + w.entries, (ty,) + w.types), ck * cw)
            for k, ck in head._terms.items()
            for w, cw in tail._terms.items()
        )

    def diamond_basis(self, a, b):
        key = (a, b)
        if key in self._cache:
            return self._cache[key]
        head = self.algebra.product_basis(a.entries[0], b.entries[0])
        ta = TypedWord(a.entries[1:], a.types[1:]) if a.types else None
        tb = TypedWord(b.entries[1:], b.types[1:]) if b.types else None
        if ta is None and tb is None:
            res = head.map_basis(lambda k: TypedWord((k,), ()))
        elif tb is None:
            res = self._cons(head, a.types[0], fs(ta))
        elif ta is None:
            res = self._cons(head, b.types[0], fs(tb))
        else:
            om = self.omega
            al, be = a.types[0], b.types[0]
            res = self._cons(
                head, om.right(al, be), self.product(self.p_op(om.rhd(al, be), ta), fs(tb))
            ) + self._cons(
                head, om.left(al, be), self.product(fs(ta), self.p_op(om.lhd(al, be), tb))
            )
            if not om.weight_zero:
                res = res + self._cons(head, om.dot(al, be), self.diamond_basis(ta, tb)).scale(
                    om.lam_at(al, be)
                )
        self._cache[key] = res
        return res


COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def random_word_sum(rng, pool, size):
    return sum(
        (fs(rng.choice(pool)).scale(rng.choice(COEFFS)) for _ in range(size)), FormalSum.zero()
    )


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2, 3), Fraction(0)])
def test_product_matches_composed_recursion(lam):
    pool = all_words(2, 2, 3)
    short = [w for w in pool if word_length(w) <= 2]
    rng = random.Random(7)
    instances = strict_commutative_instances(lam)
    assert len(instances) == 14
    instances += [(name + "+wz", replace(s, weight_zero=True)) for name, s in instances]
    for name, s in instances:
        W, ref = WordAlgebra(s, truncated_poly()), ComposedWordAlgebra(s, truncated_poly())
        for u in short:
            for v in pool:
                assert W.product(fs(u), fs(v)) == ref.product(fs(u), fs(v)), name
        for _ in range(6):
            u, v, w = (random_word_sum(rng, pool, rng.randint(1, 3)) for _ in range(3))
            uv = W.product(u, v)
            assert uv == ref.product(u, v), name
            assert W.product(uv, w) == ref.product(ref.product(u, v), w), name


def test_fast_path_result_is_not_changed_by_arithmetic():
    W = WordAlgebra(family_structure(Fraction(2, 3)), truncated_poly())
    a, b = TypedWord((1, 0), (0,)), TypedWord((0, 1, 1), (1, 0))
    got = W.product(fs(a), fs(b))
    assert got is W.diamond_basis(a, b)
    snapshot = dict(got._terms)
    other = fs(a) + got.scale(Fraction(1, 2))
    _ = [got + other, other + got, got - other, got.scale(3), got.scale(1), -got, 2 * got]
    assert got._terms == snapshot
    assert W.product(fs(a), fs(b)) == got
    assert got == ComposedWordAlgebra(W.omega, W.algebra).product(fs(a), fs(b))


# -- the graded numerator memo ---------------------------------------------------


def test_zero_head_pair_leaves_one_memo_entry():
    W = WordAlgebra(family_structure(Fraction(1, 2)), truncated_poly())
    a, b = TypedWord((1, 0, 1), (0, 1)), TypedWord((1, 1, 0), (1, 0))
    before = len(W._memo)
    assert W.product(fs(a), fs(b)).is_zero()
    assert len(W._memo) == before + 1
    assert W._memo[(a, b)] == {}


def square_line(c):
    """k[x]/(x^2 - c x) with basis (1, x): x*x = c*x, associative for every c."""
    return FiniteAlgebra(
        ("1", "x"), ((fs(0), fs(1)), (fs(1), fs(1, c))), unit=0, commutative=True
    )


LAMBDAS = (0, 1, -1, Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(5, 6), 2)
lam_tables = st.tuples(*[st.sampled_from(LAMBDAS)] * 4).map(
    lambda v: ((v[0], v[1]), (v[2], v[3]))
)
WORD_POOL = all_words(2, 2, 3)
word_sums = st.lists(
    st.tuples(st.sampled_from(WORD_POOL), st.sampled_from(COEFFS)), min_size=1, max_size=3
).map(FormalSum)
algebras = st.sampled_from((None, Fraction(1, 2), Fraction(-2, 3)))


@settings(max_examples=40, deadline=None)
@given(lam_tables, st.booleans(), algebras, word_sums, word_sums, word_sums)
def test_mixed_denominators_match_composed_recursion(lam, weight_zero, c, u, v, w):
    s = replace(family_structure(), lam=lam, weight_zero=weight_zero)
    A = truncated_poly() if c is None else square_line(c)
    W, ref = WordAlgebra(s, A), ComposedWordAlgebra(s, A)
    uv = W.product(u, v)
    outputs = [uv, W.product(uv, w), W.product(u, W.product(v, w))]
    assert outputs == [
        ref.product(u, v), ref.product(ref.product(u, v), w), ref.product(u, ref.product(v, w))
    ]
    for a, b in zip(u.support(), w.support()):
        outputs.append(W.diamond_basis(a, b))
        assert outputs[-1] == ref.diamond_basis(a, b)
    # exact and canonical: int numerators in the memo, int or Fraction out
    assert all(type(n) is int for res in W._memo.values() for n in res.values())
    for out in outputs:
        for coeff in out._terms.values():
            assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)


def test_integral_data_share_the_memo_dict():
    a, b = TypedWord((1, 0), (0,)), TypedWord((0, 1, 1), (1, 0))
    W = WordAlgebra(family_structure(Fraction(2)), truncated_poly())
    # the memo keys its words by exact tuples, so the sum holds a TypedWord copy
    got = W.diamond_basis(a, b)
    assert got == ComposedWordAlgebra(W.omega, W.algebra).diamond_basis(a, b)
    assert all(type(w) is TypedWord for w in got._terms)
    for s, A in ((family_structure(Fraction(1, 2)), truncated_poly()),
                 (family_structure(Fraction(1)), square_line(Fraction(1, 2)))):
        W = WordAlgebra(s, A)
        got = W.diamond_basis(a, b)
        assert got._terms is not W._memo[(a, b)]
        assert got._lift[1] is W._memo[(a, b)]
        assert got == ComposedWordAlgebra(s, A).diamond_basis(a, b)


# -- the flat word type -----------------------------------------------------------


def test_typed_word_constructor_rejects_mismatched_lengths():
    for entries, types in (((0, 1), ()), ((0,), (1,)), ((), ())):
        with pytest.raises(ValueError, match="types count"):
            TypedWord(entries, types)


def test_typed_word_entries_and_types_round_trip():
    w = TypedWord([1, 0, 1], iter([0, 1]))
    assert w.entries == (1, 0, 1) and w.types == (0, 1)
    assert type(w.entries) is tuple and type(w.types) is tuple
    assert TypedWord(w.entries, w.types) == w
    assert word_length(w) == 3
    single = TypedWord((1,), ())
    assert single.entries == (1,) and single.types == ()
    # the flat storage, and its documented side effect: tuple equality
    assert tuple(w) == (1, 0, 0, 1, 1)
    assert w == (1, 0, 0, 1, 1) and hash(w) == hash((1, 0, 0, 1, 1))


def test_typed_word_repr_and_sort_key():
    w = TypedWord((1, 0, 1), (0, 1))
    assert repr(w) == "TypedWord(entries=(1, 0, 1), types=(0, 1))"
    assert repr(TypedWord((0,), ())) == "TypedWord(entries=(0,), types=())"
    assert w.sort_key() == (3, (0, 1), (1, 0, 1))
    pool = all_words(2, 2, 3)
    random.Random(3).shuffle(pool)
    ordered = sorted(pool, key=TypedWord.sort_key)
    assert ordered == sorted(pool, key=lambda u: (len(u.entries), u.types, u.entries))


def test_typed_word_pickles_and_copies():
    w = TypedWord((1, 0, 1), (0, 1))
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(w, proto))
        assert type(back) is TypedWord and back == w
        assert back.entries == w.entries and back.types == w.types
    assert type(copy.deepcopy(w)) is TypedWord and copy.deepcopy(w) == w
    s = FormalSum({w: 2, TypedWord((0,), ()): Fraction(1, 3)})
    assert pickle.loads(pickle.dumps(s)) == s


def test_kernel_words_equal_public_words():
    W = WordAlgebra(family_structure(Fraction(1, 2)), truncated_poly())
    a, b = TypedWord((1, 0, 1), (0, 1)), TypedWord((0, 1, 0), (1, 0))
    out = W.product(fs(a), fs(b))
    assert len(out) > 1
    for w, c in out:
        public = TypedWord(w.entries, w.types)
        assert public == w and hash(public) == hash(w)
        assert out.coeff(public) == c


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(1, 2)])
def test_kernel_keeps_exact_tuples_and_sums_hold_typed_words(lam):
    W = WordAlgebra(family_structure(lam), truncated_poly())
    pool = all_words(2, 2, 3)
    outputs = []
    for a in pool[::3]:
        for b in pool[::4]:
            outputs.append(W.diamond_basis(a, b))
            outputs.append(W.product(fs(a, 2) + fs(b), fs(b, Fraction(1, 3))))
        outputs.append(W.p_op(1, fs(a)))
        outputs.append(W.p_op(0, outputs[-2]))
    for a, b in W._memo:
        assert type(a) is tuple and type(b) is tuple
    for res in W._memo.values():
        assert all(type(w) is tuple for w in res)
    for out in outputs:
        assert all(type(w) is TypedWord for w in out._terms)
    # exact tuples of ints leave the cyclic GC's lists; a tuple subclass never does
    gc.collect()
    sample = [w for res in list(W._memo.values())[::5] for w in res]
    assert sample and not any(gc.is_tracked(w) for w in sample)


# -- the graded lift on product outputs -------------------------------------------


def test_a_word_lift_is_read_only_where_its_key_matches(monkeypatch):
    a, b, c = TypedWord((1, 0), (0,)), TypedWord((0, 1, 1), (1, 0)), TypedWord((1,), ())
    half = square_line(Fraction(1, 2))
    W3 = WordAlgebra(family_structure(Fraction(2, 3)), half)
    assert (W3._d, W3._d_alg) == (3, 2)
    x = W3.product(fs(a, Fraction(2, 3)) + fs(c), fs(b) + fs(a, Fraction(-1, 2)))
    assert x._lift[0][1:3] == (3, 2)
    assert_lift_exact(x)
    w = fs(b, Fraction(-2, 3)) + fs(c)
    real, read = scalars._numerators, []
    monkeypatch.setattr(scalars, "_numerators", lambda terms, *r: read.append(terms) or real(terms, *r))
    cases = [
        (family_structure(Fraction(1, 2)), half, (2, 2)),
        (family_structure(Fraction(2, 3)), truncated_poly(), (3, 1)),
        # a second algebra with the same D and D_A, over another structure
        (example_semigroup(XOR, Fraction(4, 3)), square_line(Fraction(-3, 2)), (3, 2)),
        (replace(family_structure(Fraction(2, 3)), weight_zero=True), half, (1, 2)),
    ]
    for s, A, dd in cases:
        W, ref = WordAlgebra(s, A), ComposedWordAlgebra(s, A)
        assert (W._d, W._d_alg) == dd
        read.clear()
        got = [W.product(x, w), W.product(w, x), W.product(x, x)]
        assert got == [ref.product(x, w), ref.product(w, x), ref.product(x, x)]
        assert any(terms is x._terms for terms in read) == (dd != (3, 2))
        for out in got:
            assert out._lift[0][1:3] == dd
            assert_lift_exact(out)


@pytest.mark.parametrize("c", [None, Fraction(1, 2)])
def test_arithmetic_and_p_op_leave_a_lifted_word_product_unchanged(c):
    A = truncated_poly() if c is None else square_line(c)
    W = WordAlgebra(family_structure(Fraction(2, 3)), A)
    a, b = TypedWord((1, 0), (0,)), TypedWord((0, 1, 1), (1, 0))
    x = W.product(fs(a, Fraction(2, 3)) + fs(b), fs(b))
    key, num = x._lift
    terms, numbers = dict(x._terms), dict(num)
    other = fs(a, Fraction(1, 3))
    _ = [x + other, other + x, x - other, -x, x.scale(Fraction(3, 2))]
    up = W.p_op(1, x)
    assert x._terms == terms and x._lift[0] == key and x._lift[1] is num and num == numbers
    # prefixing keeps the lift one grade up, with one more factor D_A
    assert up._lift[0] == key[:4] + (key[4] + 1,)
    assert up._lift[1] == {(0, 1) + w: n * W._d_alg for w, n in num.items()}
    assert_lift_exact(up)
    plain = W.p_op(1, FormalSum(x.items()))
    assert plain._lift is None and up == plain and hash(up) == hash(plain)
    ref = ComposedWordAlgebra(W.omega, A)
    assert W.product(up, x) == ref.product(plain, x)
    assert W.product(x, up) == ref.product(x, plain)


# four factors of length 3 make words of up to 12 letters, too many for the
# reference; factors of up to 2 letters keep each example fast
chain_sums = st.lists(
    st.tuples(st.sampled_from(all_words(2, 2, 2)), st.sampled_from(COEFFS)), min_size=1, max_size=3
).map(FormalSum)


@settings(max_examples=30, deadline=None)
@given(lam_tables, st.booleans(), algebras, st.lists(chain_sums, min_size=4, max_size=4),
       st.sampled_from((0, 1)))
def test_chained_word_products_match_composed_recursion(lam, weight_zero, c, sums, t):
    s = replace(family_structure(), lam=lam, weight_zero=weight_zero)
    A = truncated_poly() if c is None else square_line(c)
    W, ref = WordAlgebra(s, A), ComposedWordAlgebra(s, A)
    u, v, x, y = sums

    def chains(R):
        mul = R.product
        return [
            mul(mul(u, v), x),
            mul(u, mul(v, x)),
            mul(mul(mul(u, v), x), y),
            mul(mul(u, v), mul(x, y)),
            mul(u, mul(R.p_op(t, mul(v, x)), y)),
        ]

    got = chains(W)
    assert got == chains(ref)
    for out in got:
        assert_lift_exact(out)
        for coeff in out._terms.values():
            assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)
    # equality through the lifts agrees with equality of the terms
    for a in got:
        for b in got:
            assert (a == b) == (a._terms == b._terms)
