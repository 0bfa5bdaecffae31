import copy
import gc
import importlib.util
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from omegarb.expr import ExprError, tokenize
from omegarb.omega import OpTable, StructureError, example_semigroup
from omegarb import scalars, words
from omegarb.scalars import FormalSum, graded_sum
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

from test_omega import unwritable
from test_scalars import assert_lift_exact

ROOT = Path(__file__).resolve().parent.parent
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


def test_repeated_basis_labels_are_refused():
    # two basis elements called x: no output could tell them apart
    with pytest.raises(StructureError, match="basis labels 'x x' repeat a label"):
        FiniteAlgebra(("x", "x"), ((fs(0), fs(1)), (fs(1), FormalSum.zero())), unit=0)


def test_unitize_labels_the_new_unit_with_a_free_label():
    zero = FormalSum.zero()

    def null(*labels):
        return FiniteAlgebra(labels, [[zero] * len(labels)] * len(labels))

    assert unitize(nilpotent_line()).labels == ("1", "x")
    assert unitize(truncated_poly()).labels == ("e", "1", "x")
    assert unitize(null("1", "e")).labels == ("e1", "1", "e")
    assert unitize(null("e1", "1", "e")).labels == ("e2", "e1", "1", "e")


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


def test_unbuilt_word_products_relabel_pickle_and_copy_with_typed_words():
    W = WordAlgebra(family_structure(Fraction(1, 2)), truncated_poly())
    u, v = TypedWord((0, 1), (0,)), TypedWord((0, 0), (1,))
    uv = W.product(fs(u), fs(v))
    assert uv._built is None and len(uv._lift[1]) > 1
    up = W.p_op(1, uv)
    clones = [pickle.loads(pickle.dumps(uv)), copy.copy(uv), copy.deepcopy(uv)]
    assert [s._built for s in [uv, up] + clones] == [None] * 5
    built = W.product(fs(u), fs(v))
    assert built is uv and built._terms
    assert up == W.p_op(1, uv) and up._terms == W.p_op(1, uv)._terms
    for s in [up] + clones:
        assert all(type(w) is TypedWord for w in s._terms)
        assert_lift_exact(s)
    assert all(clone._terms == uv._terms for clone in clones)


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


def test_a_101_letter_word_product_fits_in_256_mb_of_address_space():
    # a words request of 101 letters times 3 letters, in a child process
    # that caps its own address space; with the kernel's words as tuples the
    # memo alone held about 500 MB here, as int codes it peaks under 100 MB
    child = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, hard))\n"
        "from omegarb.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    expr = " ".join(["1"] + ["[a] x"] * 100) + " * 1 [a] x [b] 1"
    samples = ROOT / "sample_inputs"
    argv = ["words", "--omega", str(samples / "family_z2.txt"),
            "--algebra", str(samples / "truncated_poly.txt"), "--expr", expr]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300, check=False)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-2000:]
    out = proc.stdout
    assert out.count(" + ") + out.count(" - ") + 1 == 10201


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


def test_parse_algebra_keeps_a_semicolon_inside_a_comment():
    # the comment is stripped before the text is split on ';'
    text = (Path(__file__).resolve().parent.parent / "sample_inputs" / "truncated_poly.txt").read_text()
    for comment in ("# note; more", '# x^2 = (3/2) x and no unit; "words --unitize" adjoins one'):
        assert parse_algebra(comment + "\n" + text) == truncated_poly()
    assert parse_algebra("basis = [1, x]; unit = 1  # a; b\ncommutative = true; "
                         "mult = [[{0:1},{1:1}],[{1:1},{}]]") == truncated_poly()


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


def test_a_basis_label_none_is_a_label():
    # 'unit = none' means no unit unless a basis element is called none
    mult = "mult = [[{0:1},{1:1}],[{1:1},{}]]"
    assert parse_algebra(f"basis = [none, x]; unit = none; {mult}").unit == 0
    assert parse_algebra(f"basis = [1, x]; unit = none; {mult}").unit is None


# any text: a label the file format cannot hold is refused by the serializer
_LABELS = st.sampled_from(["1", "e", "x", "0", "none", "None"]) | st.text(max_size=3)
_NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
# associative index maps on {0..n-1}: (rule, unit or None, commutative)
_SEMIGROUPS = {
    "cyclic": (lambda n, i, j: (i + j) % n, lambda n: 0, True),
    "max": (lambda n, i, j: max(i, j), lambda n: 0, True),
    "min": (lambda n, i, j: min(i, j), lambda n: n - 1, True),
    "left-zero": (lambda n, i, j: i, lambda n: None, False),
    "right-zero": (lambda n, i, j: j, lambda n: None, False),
    "constant": (lambda n, i, j: 0, lambda n: None, True),
}


@st.composite
def algebras(draw):
    """Semigroup algebras in a rescaled basis f_i = a_i e_i, with a_unit = 1,
    or the algebra with every product zero."""
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(_LABELS, min_size=n, max_size=n, unique=True))
    kind = draw(st.sampled_from(sorted(_SEMIGROUPS) + ["null"]))
    if kind == "null":
        return FiniteAlgebra(labels, [[FormalSum.zero()] * n] * n, commutative=draw(st.booleans()))
    rule, unit_of, commutative = _SEMIGROUPS[kind]
    unit = unit_of(n) if draw(st.booleans()) else None
    a = draw(st.lists(_NONZERO, min_size=n, max_size=n))
    if unit is not None:
        a[unit] = 1
    mult = [[fs(rule(n, i, j), a[i] * a[j] / a[rule(n, i, j)]) for j in range(n)]
            for i in range(n)]
    return FiniteAlgebra(labels, mult, unit=unit,
                         commutative=(commutative or n == 1) and draw(st.booleans()))


def unreadable(label):
    """Not one name or number token of a word expression, or a number other
    than 1 that a printed word sum also spells as a scalar."""
    try:
        kinds = [tok[0] for tok in tokenize(label)]
    except ExprError:
        return True
    if kinds == ["name", "end"]:
        return False
    return kinds != ["num", "end"] or (label != "1" and str(Fraction(label)) == label)


@settings(max_examples=200, deadline=None)
@given(algebras())
def test_serialized_algebras_read_back_equal(a):
    bad = [label for label in a.labels if unwritable(label)]
    unread = [label for label in a.labels if unreadable(label)]
    if bad:
        with pytest.raises(StructureError, match="cannot be written") as exc:
            serialize_algebra(a)
        assert repr(bad[0]) in str(exc.value)
    elif unread:
        with pytest.raises(StructureError, match="^basis label") as exc:
            serialize_algebra(a)
        assert repr(unread[0]) in str(exc.value)
    else:
        assert parse_algebra(serialize_algebra(a)) == a


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
    assert W._memo[(W._encode(a), W._encode(b))] == {}


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
    # exact and canonical: nonzero int numerators in the memo, int or Fraction out
    assert all(type(n) is int and n for res in W._memo.values() for n in res.values())
    for out in outputs:
        for coeff in out._terms.values():
            assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)


@lru_cache(maxsize=None)
def reference():
    """perfbench/reference.py, the memo-free products written apart from
    omegarb, loaded read-only from the file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STRICT_COMMUTATIVE = {c: strict_commutative_instances(c) for c in (Fraction(1, 2), Fraction(2, 3))}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STRICT_COMMUTATIVE)), st.integers(0, 13), algebras,
       word_sums, word_sums, word_sums)
def test_word_products_match_the_memo_free_reference(lam, index, c, u, v, w):
    name, s = STRICT_COMMUTATIVE[lam][index]
    A = truncated_poly() if c is None else square_line(c)
    W, ref = WordAlgebra(s, A), reference()
    uv = W.product(u, v)
    assert uv == ref.word_product(s, A, u, v), name
    assert W.product(uv, w) == ref.word_product(s, A, ref.word_product(s, A, u, v), w), name


def test_integral_data_share_the_memo_dict():
    a, b = TypedWord((1, 0), (0,)), TypedWord((0, 1, 1), (1, 0))
    W = WordAlgebra(family_structure(Fraction(2)), truncated_poly())
    # the memo keys its words by codes, so the sum holds a decoded copy
    got = W.diamond_basis(a, b)
    assert got == ComposedWordAlgebra(W.omega, W.algebra).diamond_basis(a, b)
    assert all(type(w) is TypedWord for w in got._terms)
    for s, A in ((family_structure(Fraction(1, 2)), truncated_poly()),
                 (family_structure(Fraction(1)), square_line(Fraction(1, 2)))):
        W = WordAlgebra(s, A)
        got = W.diamond_basis(a, b)
        memo = W._memo[(W._encode(a), W._encode(b))]
        assert got._terms is not memo
        assert got._lift[1] is memo
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


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5, 6])
def test_word_codes_round_trip_at_every_width(b):
    grade, encode, wrap = words._coding(b)
    assert words._coding(b)[0] is grade
    rng = random.Random(b)
    top = (1 << b) - 1
    pool = [TypedWord([rng.randint(0, top) for _ in range(n)],
                      [rng.randint(0, top) for _ in range(n - 1)])
            for n in [1, 1, 2, 3, 5, 40, 1500] for _ in range(3)]
    pool += [TypedWord((0,), ()), TypedWord((top,), ()), TypedWord((0,) * 9, (0,) * 8)]
    codes = [encode(w) for w in pool]
    decoded = list(wrap(codes))
    assert decoded == pool and all(type(w) is TypedWord for w in decoded)
    for w, c in zip(pool, codes):
        # the layout: first letter, its type, tail, prepending, grade
        mask = (1 << b) - 1
        assert c >> (b * len(w)) == 1 and grade(c) == word_length(w) - 1
        assert c & mask == w[0]
        if len(w) > 1:
            assert c >> b & mask == w[1] and c >> 2 * b == encode(w[2:])
        assert c << 2 * b | 1 << b | top == encode((top, 1) + w)
    # the grade and the wrap pickle by name, as the same objects
    for fn in (grade, wrap):
        assert pickle.loads(pickle.dumps(fn)) is fn


def test_an_unbuilt_word_sum_unpickles_in_a_fresh_process():
    # width 7 is made by no import: the child finds its grade and wrap by name
    grade, encode, wrap = words._coding(7)
    w = TypedWord((5, 100, 2), (127, 0))
    x = graded_sum({encode(w): 3}, 0, grade, 1, 1, 2, wrap)
    child = ("import pickle, sys\n"
             "x = pickle.loads(sys.stdin.buffer.read())\n"
             "print(x._built is None, x._lift[0][0].__name__, repr(x))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(x), capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True)
    assert proc.stdout.decode().split(" ", 2) == ["True", "_grade_w7", repr(x) + "\n"]


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
def test_kernel_keeps_int_codes_and_sums_hold_typed_words(lam):
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
        assert type(a) is int and type(b) is int
    for res in W._memo.values():
        assert all(type(w) is int for w in res)
    for out in outputs:
        assert all(type(w) is TypedWord for w in out._terms)
        if out._lift is not None:
            assert all(type(w) is int for w in out._lift[1])
    # the cyclic GC never tracks an int, so the memo's words cost it nothing
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
    # prefixing keeps the lift one grade up, with one more factor D_A, and
    # its codes decode to the prefixed words
    assert up._lift[0] == key[:4] + (key[4] + 1,)
    assert dict(zip(up._wrap(up._lift[1]), up._lift[1].values())) == {
        (0, 1) + w: n * W._d_alg for w, n in zip(x._wrap(num), num.values())
    }
    assert_lift_exact(up)
    plain = W.p_op(1, FormalSum(x.items()))
    assert plain._lift is None and up == plain and hash(up) == hash(plain)
    ref = ComposedWordAlgebra(W.omega, A)
    assert W.product(up, x) == ref.product(plain, x)
    assert W.product(x, up) == ref.product(x, plain)


def test_equal_word_sums_built_by_two_routes_compare_equal():
    # an unbuilt lift relabelled by p_op, and built terms relabelled with
    # their lift, over algebras with codes of 1 and of 2 bits per symbol
    u = fs(TypedWord((1, 0), (0,)), Fraction(2, 3)) + fs(TypedWord((1,), ()))
    v = fs(TypedWord((0, 1, 1), (1, 0))) + fs(TypedWord((1, 1), (1,)), -2)
    for A, bits in ((truncated_poly(), 1), (unitize(truncated_poly()), 2)):
        W = WordAlgebra(family_structure(Fraction(2, 3)), A)
        assert W._bits == bits
        unbuilt = W.p_op(1, W.product(u, v))
        source = W.product(u, v)
        assert source._terms
        built = W.p_op(1, source)
        assert unbuilt._built is None and built._built is not None
        assert unbuilt._lift[0] == built._lift[0] and unbuilt._lift[1] == built._lift[1]
        assert unbuilt == built and built == unbuilt and unbuilt._built is None
        plain = FormalSum(built.items())
        assert unbuilt == plain and plain == built and hash(unbuilt) == hash(plain)
        assert_lift_exact(unbuilt)
        assert_lift_exact(built)
    # one sum as lifts at widths 1 and 2: other codes, other grade functions,
    # so the two compare by their terms
    ws = (TypedWord((1, 0), (0,)), TypedWord((0, 1, 1), (1, 0)))
    lifts = []
    for b in (1, 2):
        grade, encode, wrap = words._coding(b)
        lifts.append(graded_sum({encode(w): n for w, n in zip(ws, (3, -4))}, 2, grade, 3, 1, 2,
                                wrap))
    narrow, wide = lifts
    assert narrow._lift[1] != wide._lift[1] and narrow._lift[0][0] is not wide._lift[0][0]
    assert narrow == wide and wide == narrow
    assert narrow._terms == wide._terms == {ws[0]: Fraction(1, 2), ws[1]: -2}
    # the narrow codes read at the wide width are other words
    misread = graded_sum(dict(narrow._lift[1]), 2, wide._lift[0][0], 3, 1, 2, wide._wrap)
    assert misread != narrow


def test_p_op_relabels_a_lift_of_another_code_width_by_its_terms():
    # a product at 1 bit per symbol, unbuilt and built, prefixed by an
    # algebra at 2 bits: the result is P_w of its terms, and its lift, if
    # any, is one the wide algebra can read
    s = family_structure(Fraction(2, 3))
    narrow, wide = WordAlgebra(s, truncated_poly()), WordAlgebra(s, unitize(truncated_poly()))
    assert (narrow._bits, wide._bits) == (1, 2)
    u = fs(TypedWord((1, 0), (0,)), Fraction(2, 3)) + fs(TypedWord((1,), ()))
    v = fs(TypedWord((0, 1, 1), (1, 0))) + fs(TypedWord((1, 1), (1,)), -2)
    plain = FormalSum(narrow.product(u, v).items())
    for build in (False, True):
        for w in (0, 1):
            x = narrow.product(u, v)
            assert x._lift is not None and x._lift[0][0] is narrow._grade
            if build:
                assert x._terms
            assert (x._built is None) is not build
            out = wide.p_op(w, x)
            expected = wide.p_op(w, plain)
            assert out._terms == expected._terms
            assert out == expected and expected == out
            assert out._lift is None or out._lift[0][0] is wide._grade
            # used again in the wide algebra, it gives what its terms give
            assert wide.product(out, v) == wide.product(expected, v)
            assert x == plain


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


# -- basis labels that a word expression reads back ----------------------------


def _poly_text(labels):
    """truncated_poly.txt with these basis labels, the unit first."""
    return (f"basis = [{', '.join(labels)}]\nunit = {labels[0]}\ncommutative = true\n"
            "mult = [[{0:1},{1:1}],[{1:1},{}]]\n")


def _reads_back(value, A, W):
    text = word_sum_to_str(value, A, W.omega.labels)
    try:
        return parse_word_expr(text, A, W.omega.labels, W) == value
    except ExprError:
        return False


_ENTRY_LABELS = st.sampled_from(
    ["1", "x", "x_1", "_", "\u00e9", "01", "2/4", "\u0663", "0x", "a-b", "-", "0", "2", "1/2", "1/0"]
) | st.text(max_size=3).filter(lambda label: not unwritable(label))


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTRY_LABELS, min_size=2, max_size=2, unique=True), word_sums, word_sums)
def test_words_prints_sums_that_read_back_for_every_basis_label_a_file_accepts(labels, u, v):
    try:
        A = parse_algebra(_poly_text(labels))
    except StructureError as exc:
        # refused: one line naming the first label an expression cannot read back
        assert unreadable(labels[0]) or unreadable(labels[1])
        first = labels[0] if unreadable(labels[0]) else labels[1]
        assert str(exc).startswith(f"line 1: basis label {first!r} ")
        assert "\n" not in str(exc)
        return
    assert not unreadable(labels[0]) and not unreadable(labels[1])
    W = WordAlgebra(family_structure(Fraction(1, 2)), A)
    uv = W.product(u, v)
    for value in (FormalSum.zero(), u, v, uv, uv.scale(Fraction(-2, 3)), u - u.scale(2)):
        assert _reads_back(value, A, W)


@pytest.mark.parametrize("label", ["0x", "a-b", "0", "2", "1/2"])
def test_a_refused_basis_label_would_print_sums_that_do_not_read_back(label):
    with pytest.raises(StructureError, match=f"^line 1: basis label {re.escape(repr(label))} "):
        parse_algebra(_poly_text(["1", label]))
    A = FiniteAlgebra(("1", label), truncated_poly().mult, unit=0, commutative=True)
    with pytest.raises(StructureError, match=f"^basis label {re.escape(repr(label))} "):
        serialize_algebra(A)
    # the same algebra built in the library prints what does not read back
    W = WordAlgebra(family_structure(Fraction(1, 2)), A)
    word = fs(TypedWord((1, 0, 1), (0, 1)))
    values = [FormalSum.zero(), word, word.scale(2), word.scale(Fraction(1, 2))]
    assert not all(_reads_back(value, A, W) for value in values)
