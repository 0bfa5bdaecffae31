import copy
import gc
import pickle
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omegarb.omega import (
    OpTable,
    StructureError,
    example_abelian_group,
    example_matching,
    example_semigroup,
)
from omegarb import scalars, trees
from omegarb.scalars import FormalSum
from omegarb.trees import (
    ExprError,
    Tree,
    TreeAlgebra,
    all_trees,
    assoc_counterexample_search,
    branches,
    corolla,
    depth,
    edge_count,
    graft,
    leaf_count,
    parse_tree_expr,
    rb_operator,
    sum_to_str,
    tree_to_str,
    unit,
)

from test_scalars import assert_lift_exact

XOR = OpTable(((0, 1), (1, 0)))


def family_structure(lam=Fraction(1)):
    return example_semigroup(XOR, lam)


def term(t):
    return FormalSum.term(t)


# -- statistics ---------------------------------------------------------------


def test_depth_micro_examples():
    assert depth(unit()) == 1
    assert depth(corolla(("x",))) == 1
    assert depth(graft(0, unit())) == 2
    assert depth(graft(0, corolla(("x", "y")))) == 2
    assert depth(graft(0, graft(1, unit()))) == 3


def test_depth_and_leaf_count_of_a_deep_ladder():
    t = corolla(("x", "y"))
    for i in range(1200):
        t = graft(i % 2, t)
    assert depth(t) == 1201
    assert leaf_count(t) == 3
    wide = Tree((None, (0, t), None, (1, graft(0, unit()))), ("x", "y", "z"))
    assert depth(wide) == 1202
    assert leaf_count(wide) == 6


def test_edge_count_micro_examples_and_a_deep_ladder():
    assert edge_count(unit()) == 0
    assert edge_count(corolla(("x", "y"))) == 0
    assert edge_count(graft(0, graft(1, unit()))) == 2
    t = corolla(("x",))
    for i in range(1200):
        t = graft(i % 2, t)
    wide = Tree((None, (0, t), None, (1, graft(0, unit()))), ("x", "y", "z"))
    assert edge_count(wide) == 1203


def test_branches_micro_examples():
    assert branches(unit()) == 1
    assert branches(Tree((None, (0, unit())), ("x",))) == 2
    assert branches(Tree((None, None, (0, unit())), ("x", "y"))) == 3


def test_tree_invariants():
    live = len(trees._table)
    with pytest.raises(ValueError, match="^a tree has at least one child"):
        Tree((), ())
    with pytest.raises(ValueError, match="^angle count must be children count - 1$"):
        Tree((None, None), ())  # missing angle
    with pytest.raises(ValueError, match="^angle count"):
        Tree([None, (0, unit())], ["x", "y"])
    # a refused tree never enters the table
    assert len(trees._table) == live


# -- one object per tree -----------------------------------------------------


def test_every_route_to_a_tree_gives_the_one_object():
    labels = ("a", "b")
    alg = TreeAlgebra(family_structure())
    (parsed,) = parse_tree_expr("([a](| x | y |))", labels).support()
    (listed,) = [t for t in all_trees(("x", "y"), 2, 3, 2) if t.sort_key() == parsed.sort_key()]
    grafted = graft(0, corolla(("x", "y")))
    (lifted,) = alg.p_op(0, alg.product(term(corolla(("x",))), term(corolla(("y",))))).support()
    (rebuilt,) = alg.product(term(unit()), term(grafted)).support()
    built = Tree([(0, Tree([None, None, None], ["x", "y"]))], [])
    assert parsed is listed is grafted is lifted is rebuilt is built
    # every product output is the tree its own text parses to
    t1 = graft(0, graft(1, corolla(("x",))))
    t2 = Tree(((1, corolla(("y",))), None), ("z",))
    out = alg.product(alg.product(term(t1), term(t2)), term(t1))
    assert len(out.support()) > 1
    for t in out.support():
        (again,) = parse_tree_expr(tree_to_str(t, labels), labels).support()
        assert again is t and Tree(t.children, t.angles) is t


def test_pickle_and_copy_return_the_one_object():
    labels = ("a", "b")
    (edged,) = parse_tree_expr("([b](| x [a](|) y |))", labels).support()
    small = [unit(), corolla(("x", "y")), edged]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for t in small + [ladder(5000)]:
            for proto in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(t, proto)) is t
            assert copy.copy(t) is t and copy.deepcopy(t) is t
        # a tree nothing refers to left the table, and is built anew from its pickle
        live = len(trees._table)
        blob = pickle.dumps(ladder(5000, bottom="w"))
        assert len(trees._table) == live
        back = pickle.loads(blob)
        assert back is ladder(5000, bottom="w") and depth(back) == 5001
        assert tree_to_str(back, labels).count("[") == 5000
    finally:
        sys.setrecursionlimit(old)
    s = term(small[1]).scale(Fraction(2, 3)) + term(small[2])
    assert pickle.loads(pickle.dumps(s)) == s


def live_trees():
    return sum(1 for entry in list(trees._table.values()) if entry() is not None)


def test_a_dropped_algebra_frees_its_trees():
    pool = small_pool()
    gc.collect()
    base = live_trees()
    assert len(trees._table) == base
    alg = TreeAlgebra(family_structure(Fraction(2, 3)))
    for a in pool:
        for b in pool:
            alg.product(alg.product(term(a), term(b)), term(a))
    assert live_trees() > base + 100
    del alg
    gc.collect()
    assert live_trees() == base and len(trees._table) == base


def test_threads_building_one_tree_get_one_object():
    def build(out):
        out.extend(ladder(400, bottom=b) for b in ("p", "q", "r"))

    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for out in results[1:]:
        assert all(t is u for t, u in zip(out, results[0]))


# -- grafting -----------------------------------------------------------------


def test_graft_on_sums_is_linear():
    s = term(unit()).scale(2) + term(corolla(("x",)))
    g = graft(1, s)
    assert g == term(graft(1, unit())).scale(2) + term(graft(1, corolla(("x",))))
    assert graft(0, FormalSum.zero()).is_zero()


def test_graft_increases_depth_by_one():
    for t in all_trees(("x",), 2, max_leaves=2, max_depth=2):
        assert depth(graft(0, t)) == depth(t) + 1


# -- the product --------------------------------------------------------------


def test_corolla_concatenation():
    alg = TreeAlgebra(family_structure())
    got = alg.product(term(corolla(("x1", "x2"))), term(corolla(("y1",))))
    assert got == term(corolla(("x1", "x2", "y1")))


def test_unit_is_two_sided_identity():
    alg = TreeAlgebra(family_structure())
    one = alg.one()
    for t in all_trees(("x", "y"), 2, max_leaves=2, max_depth=2):
        assert alg.product(one, term(t)) == term(t)
        assert alg.product(term(t), one) == term(t)


def test_case4_single_branch_expansion():
    s = family_structure()
    alg = TreeAlgebra(s)
    a, b = 0, 1
    got = alg.product(term(graft(a, unit())), term(graft(b, unit())))
    expected = (
        term(graft(s.right(a, b), graft(s.rhd(a, b), unit())))
        + term(graft(s.left(a, b), graft(s.lhd(a, b), unit())))
        + term(graft(s.dot(a, b), unit())).scale(s.lam_at(a, b))
    )
    assert got == expected


def test_weight_zero_mode_drops_third_term():
    s = replace(family_structure(), weight_zero=True)
    alg = TreeAlgebra(s)
    got = alg.product(term(graft(0, unit())), term(graft(1, unit())))
    assert len(got) == 2
    assert all(c == 1 for _, c in got)


def test_product_requires_weight_data():
    s = family_structure()
    bare = replace(s, dot=None, lam=None)
    with pytest.raises(StructureError):
        TreeAlgebra(bare)


def test_leaf_grading():
    alg = TreeAlgebra(family_structure(Fraction(2, 3)))
    pool = all_trees(("x", "y"), 2, max_leaves=2, max_depth=2)
    for t1 in pool[:12]:
        for t2 in pool[:12]:
            prod = alg.product(term(t1), term(t2))
            expected = leaf_count(t1) + leaf_count(t2) - 1
            assert all(leaf_count(t) == expected for t, _ in prod)


def test_associativity_small_pool():
    alg = TreeAlgebra(family_structure(Fraction(1, 2)))
    pool = [
        unit(),
        corolla(("x",)),
        corolla(("x", "y")),
        graft(0, unit()),
        graft(1, corolla(("x",))),
        Tree((None, (0, corolla(("y",)))), ("x",)),
        Tree(((1, unit()), None), ("y",)),
        graft(0, graft(1, corolla(("x",)))),
    ]
    for t1 in pool:
        for t2 in pool:
            p12 = alg.product(term(t1), term(t2))
            for t3 in pool:
                assert alg.product(p12, term(t3)) == alg.product(
                    term(t1), alg.product(term(t2), term(t3))
                )


def test_rb_operator_is_grafting():
    alg = TreeAlgebra(family_structure())
    assert rb_operator(alg, 1, alg.one()) == term(graft(1, unit()))


# -- universal morphism --------------------------------------------------------


def test_evaluate_base_case_and_intertwining():
    s = family_structure()
    alg = TreeAlgebra(s)
    f = {"x": term(corolla(("x",))), "y": term(corolla(("y",)))}
    assert alg.evaluate(corolla(("x",)), f, alg) == f["x"]
    t = Tree((None, (0, corolla(("y",)))), ("x",))
    assert alg.evaluate(graft(1, t), f, alg) == alg.p_op(1, alg.evaluate(t, f, alg))


def test_evaluate_identity_substitution_fixes_basis():
    # f sending each generator to its corolla extends to the identity
    s = family_structure(Fraction(1, 2))
    alg = TreeAlgebra(s)
    f = {"x": term(corolla(("x",))), "y": term(corolla(("y",)))}
    for t in all_trees(("x", "y"), 2, max_leaves=2, max_depth=3):
        assert alg.evaluate(t, f, alg) == term(t)


def test_evaluate_is_algebra_morphism():
    s = family_structure()
    alg = TreeAlgebra(s)
    f = {
        "x": term(graft(0, unit())),
        "y": term(corolla(("x", "y"))) + term(unit()).scale(Fraction(1, 2)),
    }
    pool = all_trees(("x", "y"), 2, max_leaves=2, max_depth=2)[:15]
    for t1 in pool:
        for t2 in pool:
            lhs = alg.evaluate(alg.product(term(t1), term(t2)), f, alg)
            rhs = alg.product(alg.evaluate(t1, f, alg), alg.evaluate(t2, f, alg))
            assert lhs == rhs


def test_evaluate_rejects_structure_mismatch():
    alg = TreeAlgebra(family_structure())
    other = TreeAlgebra(example_semigroup(OpTable(((0, 0), (0, 0))), 1))
    with pytest.raises(StructureError):
        alg.evaluate(unit(), {}, other)


def test_evaluate_rejects_unknown_generator():
    alg = TreeAlgebra(family_structure())
    with pytest.raises(StructureError):
        alg.evaluate(corolla(("z",)), {"x": alg.one()}, alg)


def evaluate_by_recursion(alg, t, f):
    # reference: the universal morphism written with one call per vertex
    factors = []
    for i, child in enumerate(t.children):
        if child is not None:
            factors.append(alg.p_op(child[0], evaluate_by_recursion(alg, child[1], f)))
        if i < len(t.angles):
            factors.append(f[t.angles[i]])
    acc = factors[0] if factors else alg.one()
    for fac in factors[1:]:
        acc = alg.product(acc, fac)
    return acc


def test_evaluate_matches_recursion_on_small_trees():
    alg = TreeAlgebra(family_structure(Fraction(2, 3)))
    f = {
        "x": term(graft(0, unit())) + term(corolla(("y",))).scale(Fraction(1, 2)),
        "y": term(corolla(("x", "y"))) - term(unit()),
    }
    for t in all_trees(("x", "y"), 2, max_leaves=3, max_depth=3)[:60]:
        assert alg.evaluate(t, f, alg) == evaluate_by_recursion(alg, t, f)


def test_evaluate_deep_ladder_at_default_recursion_limit():
    alg = TreeAlgebra(family_structure())
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = ladder(5000)
        # the corolla substitution fixes every tree, at any depth
        assert alg.evaluate(t, {"x": term(corolla(("x",)))}, alg) == term(t)
        bottom = unit()
        for i in range(5000):
            bottom = graft(i % 2, bottom)
        got = alg.evaluate(term(t).scale(3), {"x": term(unit()).scale(Fraction(1, 2))}, alg)
        assert got == term(bottom).scale(Fraction(3, 2))
    finally:
        sys.setrecursionlimit(old)


# -- counterexample search -----------------------------------------------------


def test_search_finds_nothing_for_valid_structure():
    assert assoc_counterexample_search(family_structure(), ("x", "y"), bound=3) is None


def test_search_finds_witness_for_broken_side_table():
    # constant tables with rhd replaced by the second projection break the
    # first side identity; a witness appears among single graftings
    from omegarb.omega import OmegaStructure

    s = OmegaStructure(
        size=2, labels=("a", "b"),
        left=OpTable(((0, 0), (0, 0))), right=OpTable(((0, 0), (0, 0))),
        lhd=OpTable(((0, 1), (0, 1))), rhd=OpTable(((0, 1), (0, 1))),
        dot=OpTable(((0, 0), (0, 0))),
        lam=((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))),
    )
    witness = assoc_counterexample_search(s, ("x", "y"), bound=2)
    assert witness is not None
    t1, t2, t3 = witness
    alg = TreeAlgebra(s)
    lhs = alg.product(alg.product(term(t1), term(t2)), term(t3))
    rhs = alg.product(term(t1), alg.product(term(t2), term(t3)))
    assert lhs != rhs


def test_search_classical_one_element():
    t = OpTable(((0,),))
    s = example_semigroup(t, 1, labels=("a",))
    assert assoc_counterexample_search(s, ("x", "y"), bound=3) is None


# -- serialization --------------------------------------------------------------


def test_tree_to_str_examples():
    labels = ("a", "b")
    assert tree_to_str(unit(), labels) == "(|)"
    assert tree_to_str(corolla(("x",)), labels) == "(| x |)"
    assert tree_to_str(graft(0, corolla(("x",))), labels) == "([a](| x |))"


def ladder(n, bottom="x"):
    t = corolla((bottom,))
    for i in range(n):
        t = graft(i % 2, t)
    return t


def test_deep_ladders_print_sort_and_compare():
    labels = ("a", "b")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a, b, c = ladder(5000), ladder(5000), ladder(5000, bottom="y")
        assert a == b and a is b and hash(a) == hash(b)
        assert a != c and not a == graft(0, ladder(4999))
        assert a.sort_key() == b.sort_key() and a.sort_key() < c.sort_key()
        expect = "(| x |)"
        for i in range(5000):
            expect = f"([{labels[i % 2]}]{expect})"
        assert sum_to_str(term(a), labels) == expect
        # the two ladders differ only at the bottom; the sum sorts them
        assert sum_to_str(term(c) + term(a), labels) == expect + " + " + expect.replace("x", "y")
        assert repr(a).startswith("Tree(1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, ")
    finally:
        sys.setrecursionlimit(old)


def nested_key(t):
    # the recursive (arity, angles, child markers) key the flat one follows
    kids = tuple((0,) if c is None else (1, c[0], nested_key(c[1])) for c in t.children)
    return (len(t.children), t.angles, kids)


def test_flat_sort_key_orders_like_the_nested_key():
    rng = random.Random(11)

    def random_tree(d):
        k = rng.randint(1, 3)
        kids = [None if d == 0 or rng.random() < 0.4 else (rng.randrange(3), random_tree(d - 1))
                for _ in range(k)]
        return Tree(kids, [rng.choice("xyz") for _ in range(k - 1)])

    pool = all_trees(("x", "y"), 2, max_leaves=3, max_depth=3)
    pool += [random_tree(rng.randint(0, 5)) for _ in range(2000)]
    by_flat = sorted(pool, key=Tree.sort_key)
    assert [nested_key(t) for t in by_flat] == sorted(nested_key(t) for t in pool)
    for t, u in zip(pool, pool[1:]):
        assert (t == u) == (t.sort_key() == u.sort_key()) == (nested_key(t) == nested_key(u))


def test_parse_examples():
    labels = ("a", "b", "w")
    assert parse_tree_expr("(|)", labels) == term(unit())
    assert parse_tree_expr("([w](| x |))", labels) == term(graft(2, corolla(("x",))))
    got = parse_tree_expr("(| x |) + 2/3*(|)", labels)
    assert got == term(corolla(("x",))) + term(unit()).scale(Fraction(2, 3))


def test_round_trip_sums():
    labels = ("a", "b")
    s = (
        term(graft(0, corolla(("x", "y")))).scale(Fraction(-2, 3))
        + term(unit())
        + term(Tree((None, (1, unit())), ("x",))).scale(5)
    )
    assert parse_tree_expr(sum_to_str(s, labels), labels) == s
    assert parse_tree_expr("0", labels).is_zero()
    assert sum_to_str(FormalSum.zero(), labels) == "0"


def test_parse_errors_carry_position():
    labels = ("a",)
    with pytest.raises(ExprError):
        parse_tree_expr("(| x", labels)
    with pytest.raises(ExprError, match="unknown type"):
        parse_tree_expr("([z](|))", labels)
    with pytest.raises(ExprError, match="ambient structure"):
        parse_tree_expr("(|) * (|)", labels)
    with pytest.raises(ExprError):
        parse_tree_expr("(|) + 3", labels)


def test_parse_product_with_algebra():
    s = family_structure()
    alg = TreeAlgebra(s)
    got = parse_tree_expr("([a](|)) * ([b](|))", s.labels, alg)
    assert got == alg.product(term(graft(0, unit())), term(graft(1, unit())))


def test_all_trees_counts_low_orders():
    # 1-leaf trees at depth <= 2 over two types: |, and two single grafts
    assert len(all_trees(("x",), 2, max_leaves=1, max_depth=2)) == 3
    assert len(all_trees(("x",), 2, max_leaves=1, max_depth=3)) == 7
    # corollas only at depth 1: widths 1 and 2, two angle choices each slot
    assert len(all_trees(("x", "y"), 2, max_leaves=2, max_depth=1)) == 3


def test_abelian_group_structure_tree_product_associative():
    alg = TreeAlgebra(example_abelian_group(XOR, Fraction(2, 3)))
    pool = [unit(), corolla(("x",)), graft(0, unit()), graft(1, corolla(("y",)))]
    for t1 in pool:
        for t2 in pool:
            p12 = alg.product(term(t1), term(t2))
            for t3 in pool:
                assert alg.product(p12, term(t3)) == alg.product(
                    term(t1), alg.product(term(t2), term(t3))
                )


# -- integral coefficients and one object per result tree ----------------------


def small_pool():
    gens = [corolla(("x",)), corolla(("y",)), corolla(("x", "y"))]
    return [unit()] + gens + [graft(w, t) for t in gens for w in (0, 1)]


def test_products_at_two_thirds_keep_integral_coefficients_int():
    alg = TreeAlgebra(family_structure(Fraction(2, 3)))
    pool = small_pool()
    kinds = set()
    for a in pool:
        for b in pool:
            for c in (1, Fraction(3, 2)):
                out = alg.product(term(a).scale(c), term(b) + term(b).scale(Fraction(1, 3)))
                for v in out._terms.values():
                    assert (type(v) is int) == (v.denominator == 1)
                    kinds.add(type(v))
    assert kinds == {int, Fraction}


def test_memo_result_trees_are_one_object_per_tree():
    alg = TreeAlgebra(family_structure(Fraction(2, 3)))
    pool = small_pool()
    for a in pool:
        for b in pool:
            alg.product(alg.product(term(a), term(b)), term(a))
    seen = {}
    results = 0
    for res in alg._memo.values():
        for t in res:
            results += 1
            assert seen.setdefault(t.sort_key(), t) is t
    assert results > len(seen)


# -- the one-pass kernel against the composed recursion ------------------------


class ComposedTreeAlgebra(TreeAlgebra):
    """Reference: the recursion written with whole formal sums (graft, +,
    scale, map_basis), as the product was composed before the one-pass kernel."""

    def product(self, u, v):
        acc = FormalSum.zero()
        for t1, c1 in u._terms.items():
            for t2, c2 in v._terms.items():
                acc = acc + self.diamond_basis(t1, t2).scale(c1 * c2)
        return acc

    def diamond_basis(self, t, u):
        key = (t, u)
        if key in self._cache:
            return self._cache[key]
        last, first = t.children[-1], u.children[0]
        head, tail = t.children[:-1], u.children[1:]
        angles = t.angles + u.angles
        if last is None or first is None:
            merged = first if last is None else last
            res = term(Tree(head + (merged,) + tail, angles))
        else:
            (a, left_sub), (b, right_sub) = last, first
            om = self.omega
            mid = graft(
                om.right(a, b), self.diamond_basis(graft(om.rhd(a, b), left_sub), right_sub)
            ) + graft(
                om.left(a, b), self.diamond_basis(left_sub, graft(om.lhd(a, b), right_sub))
            )
            if not om.weight_zero:
                mid = mid + graft(om.dot(a, b), self.diamond_basis(left_sub, right_sub)).scale(
                    om.lam_at(a, b)
                )
            res = mid.map_basis(lambda r: Tree(head + (r.children[0],) + tail, angles))
        self._cache[key] = res
        return res


COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def random_tree_sum(rng, pool, size):
    return sum(
        (term(rng.choice(pool)).scale(rng.choice(COEFFS)) for _ in range(size)),
        FormalSum.zero(),
    )


def test_product_matches_composed_recursion():
    from test_acceptance import acceptance_tree_pool, construction_instances

    pool = acceptance_tree_pool()
    rng = random.Random(5)
    structures = construction_instances()
    structures += [(name + "+wz", replace(s, weight_zero=True)) for name, s in structures]
    for name, s in structures:
        alg, ref = TreeAlgebra(s), ComposedTreeAlgebra(s)
        for t1 in pool:
            for t2 in pool:
                assert alg.product(term(t1), term(t2)) == ref.product(term(t1), term(t2)), name
        for _ in range(20):
            u, v, w = (random_tree_sum(rng, pool, rng.randint(1, 4)) for _ in range(3))
            uv = alg.product(u, v)
            assert uv == ref.product(u, v), name
            assert alg.product(uv, w) == ref.product(ref.product(u, v), w), name
        # coefficients 2 and 1/2 multiply to 1: the memo's sum comes back
        assert alg.product(term(pool[3]).scale(2), term(pool[4]).scale(Fraction(1, 2))) == (
            ref.product(term(pool[3]), term(pool[4]))
        )


def test_fast_path_result_is_not_changed_by_arithmetic():
    alg = TreeAlgebra(family_structure(Fraction(2, 3)))
    t1, t2 = graft(0, corolla(("x",))), graft(1, graft(0, unit()))
    got = alg.product(term(t1), term(t2))
    assert got is alg.diamond_basis(t1, t2)
    snapshot = dict(got._terms)
    other = term(t1) + got.scale(Fraction(1, 2))
    _ = [got + other, other + got, got - other, got.scale(3), got.scale(1), -got, 2 * got]
    assert got._terms == snapshot
    assert alg.product(term(t1), term(t2)) == got
    assert got == ComposedTreeAlgebra(alg.omega).product(term(t1), term(t2))


# -- the graded numerator memo ---------------------------------------------------


def weight_instances(lam):
    s = [example_semigroup(XOR, lam), example_abelian_group(XOR, lam),
         example_matching((lam, 1)), example_matching((Fraction(2, 3), lam))]
    return s + [replace(x, weight_zero=True) for x in s]


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2, 3), Fraction(0)])
def test_product_matches_composed_recursion_at_weight(lam):
    pool = all_trees(("x", "y"), 2, max_leaves=2, max_depth=2)
    rng = random.Random(11)
    for s in weight_instances(lam):
        alg, ref = TreeAlgebra(s), ComposedTreeAlgebra(s)
        for t1 in pool:
            for t2 in pool:
                assert alg.product(term(t1), term(t2)) == ref.product(term(t1), term(t2))
        for _ in range(10):
            u, v, w = (random_tree_sum(rng, pool, rng.randint(1, 4)) for _ in range(3))
            uv = alg.product(u, v)
            assert uv == ref.product(u, v)
            assert alg.product(uv, w) == ref.product(ref.product(u, v), w)
        assert all(type(n) is int for res in alg._memo.values() for n in res.values())


LAMBDAS = (0, 1, -1, Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(5, 6), 2)
lam_tables = st.tuples(*[st.sampled_from(LAMBDAS)] * 4).map(
    lambda v: ((v[0], v[1]), (v[2], v[3]))
)
TREE_POOL = all_trees(("x", "y"), 2, max_leaves=2, max_depth=2) + [
    graft(0, graft(1, corolla(("x",)))), graft(1, graft(1, graft(0, unit())))
]
tree_sums = st.lists(
    st.tuples(st.sampled_from(TREE_POOL), st.sampled_from(COEFFS)), min_size=1, max_size=4
).map(FormalSum)


@settings(max_examples=40, deadline=None)
@given(lam_tables, st.booleans(), tree_sums, tree_sums, tree_sums)
def test_mixed_denominator_weights_match_composed_recursion(lam, weight_zero, u, v, w):
    s = replace(family_structure(), lam=lam, weight_zero=weight_zero)
    alg, ref = TreeAlgebra(s), ComposedTreeAlgebra(s)
    uv = alg.product(u, v)
    outputs = [uv, alg.product(uv, w), alg.product(u, alg.product(v, w))]
    assert outputs == [
        ref.product(u, v), ref.product(ref.product(u, v), w), ref.product(u, ref.product(v, w))
    ]
    for t1, t2 in zip(u.support(), w.support()):
        outputs.append(alg.diamond_basis(t1, t2))
        assert outputs[-1] == ref.diamond_basis(t1, t2)
    # exact and canonical: int numerators in the memo, int or Fraction out
    assert all(type(n) is int for res in alg._memo.values() for n in res.values())
    for out in outputs:
        for c in out._terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    # the edge counts the kernel stores on its result trees are right
    for res in alg._memo.values():
        for t in res:
            assert t._edges is None or t._edges == edges_by_recursion(t)


def edges_by_recursion(t):
    return sum(1 + edges_by_recursion(c[1]) for c in t.children if c is not None)


def test_integral_weights_share_the_memo_dict():
    t1, t2 = graft(0, corolla(("x",))), graft(1, graft(0, unit()))
    alg = TreeAlgebra(family_structure(Fraction(1)))
    assert alg.diamond_basis(t1, t2)._terms is alg._memo[(t1, t2)]
    half = TreeAlgebra(family_structure(Fraction(1, 2)))
    got = half.diamond_basis(t1, t2)
    assert got._terms is not half._memo[(t1, t2)]
    assert got == ComposedTreeAlgebra(half.omega).diamond_basis(t1, t2)


# -- the graded lift on product outputs -------------------------------------------


def test_a_lift_is_read_only_where_its_key_matches(monkeypatch):
    pool = small_pool()
    three = TreeAlgebra(family_structure(Fraction(2, 3)))
    x = three.product(
        term(pool[4]).scale(Fraction(2, 3)) + term(pool[5]),
        term(pool[6]) + term(pool[1]).scale(Fraction(-1, 2)),
    )
    assert x._lift[0][:3] == (edge_count, 3, 1)
    assert_lift_exact(x)
    w = term(pool[7]).scale(Fraction(-2, 3)) + term(pool[3])
    real, read = scalars._numerators, []
    monkeypatch.setattr(scalars, "_numerators", lambda terms, *a: read.append(terms) or real(terms, *a))
    cases = [
        (family_structure(Fraction(1, 2)), 2),
        # a second algebra at D = 3, and one over another structure at D = 3
        (family_structure(Fraction(2, 3)), 3),
        (example_abelian_group(XOR, Fraction(4, 3)), 3),
        (replace(family_structure(Fraction(2, 3)), weight_zero=True), 1),
    ]
    for s, d in cases:
        alg, ref = TreeAlgebra(s), ComposedTreeAlgebra(s)
        assert alg._d == d
        read.clear()
        got = [alg.product(x, w), alg.product(w, x), alg.product(x, x)]
        assert got == [ref.product(x, w), ref.product(w, x), ref.product(x, x)]
        # the D = 3 lift is taken as it is at D = 3, and lifted again elsewhere
        assert any(terms is x._terms for terms in read) == (d != 3)
        for out in got:
            assert out._lift[0][:3] == (edge_count, d, 1)
            assert_lift_exact(out)


def test_arithmetic_and_grafting_leave_a_lifted_product_unchanged():
    alg = TreeAlgebra(family_structure(Fraction(2, 3)))
    pool = small_pool()
    x = alg.product(term(pool[4]).scale(Fraction(2, 3)) + term(pool[2]), term(pool[5]))
    key, num = x._lift
    terms, numbers = dict(x._terms), dict(num)
    other = term(pool[1]).scale(Fraction(1, 3))
    _ = [x + other, other + x, x - other, -x, x.scale(Fraction(3, 2)), graft(1, x)]
    up = alg.p_op(0, x)
    assert x._terms == terms and x._lift[0] == key and x._lift[1] is num and num == numbers
    # grafting keeps the lift one grade up, and the edge counts of the trees
    assert up._lift[0] == key[:4] + (key[4] + 1,)
    assert_lift_exact(up)
    assert all(t._edges == edges_by_recursion(t) for t in up._terms)
    ref = ComposedTreeAlgebra(alg.omega)
    plain = graft(0, FormalSum(x.items()))
    assert plain._lift is None and up == plain and hash(up) == hash(plain)
    assert alg.product(up, x) == ref.product(plain, x)


@settings(max_examples=30, deadline=None)
@given(lam_tables, st.booleans(), st.lists(tree_sums, min_size=4, max_size=4), st.sampled_from((0, 1)))
def test_chained_products_match_composed_recursion(lam, weight_zero, sums, w):
    s = replace(family_structure(), lam=lam, weight_zero=weight_zero)
    alg, ref = TreeAlgebra(s), ComposedTreeAlgebra(s)
    u, v, x, y = sums

    def chains(mul, op):
        return [
            mul(mul(u, v), x),
            mul(u, mul(v, x)),
            mul(mul(mul(u, v), x), y),
            mul(mul(u, v), mul(x, y)),
            mul(u, mul(op(w, mul(v, x)), y)),
        ]

    got = chains(alg.product, alg.p_op)
    assert got == chains(ref.product, graft)
    for out in got:
        assert_lift_exact(out)
        for c in out._terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    # equality through the lifts agrees with equality of the terms
    for a in got:
        for b in got:
            assert (a == b) == (a._terms == b._terms)
