from dataclasses import replace
from fractions import Fraction

import pytest

from omegarb.omega import OmegaStructure, OpTable, StructureError, example_semigroup
from omegarb.rba import DendriformView, check_dendriform, check_rb_identity, tree_samples
from omegarb.scalars import FormalSum
from omegarb.trees import TreeAlgebra, corolla, graft, unit
from omegarb.words import FiniteAlgebra, WordAlgebra

XOR = OpTable(((0, 1), (1, 0)))


def family_structure(lam=Fraction(1)):
    return example_semigroup(XOR, lam)


def truncated_poly():
    one = FormalSum.term
    return FiniteAlgebra(
        ("1", "x"),
        ((one(0), one(1)), (one(1), FormalSum.zero())),
        unit=0,
        commutative=True,
    )


def test_tree_algebra_satisfies_rb_identity():
    alg = TreeAlgebra(family_structure(Fraction(1, 2)))
    samples = tree_samples(2, count=5, seed=3)
    assert check_rb_identity(alg, samples).ok


def test_word_algebra_satisfies_rb_identity():
    W = WordAlgebra(family_structure(), truncated_poly())
    samples = [W.one(), W.word((1,), ()), W.word((0, 1), (1,)), W.word((1, 1), (0,))]
    assert check_rb_identity(W, samples).ok


def test_perturbed_reference_structure_is_detected():
    s = family_structure()
    lam = [list(row) for row in s.lam]
    lam[0][1] = Fraction(2)
    perturbed = replace(s, lam=tuple(tuple(row) for row in lam))
    alg = TreeAlgebra(perturbed)
    report = check_rb_identity(alg, [alg.one()], structure=s)
    assert not report.ok
    violation = report.violations[0]
    assert violation.witness[:2] == (0, 1)
    assert violation.count == 1  # only the corrupted entry differs


def test_dendriform_view_requires_weight_zero():
    alg = TreeAlgebra(family_structure())
    with pytest.raises(StructureError):
        DendriformView(alg)
    zero_alg = TreeAlgebra(example_semigroup(XOR, 0))
    DendriformView(zero_alg)  # zero lambda table is fine
    wz = TreeAlgebra(replace(family_structure(), weight_zero=True))
    DendriformView(wz)


def unfold_check(view, alg):
    # definition unfolding: a <_w b = a * P_w(b), a >_w b = P_w(a) * b
    a = FormalSum.term(corolla(("x",)))
    b = FormalSum.term(graft(0, unit()))
    assert view.prec(1, a, b) == alg.product(a, alg.p_op(1, b))
    assert view.succ(1, a, b) == alg.product(alg.p_op(1, a), b)


def test_dendriform_identities_weight_zero_trees():
    s = replace(family_structure(), weight_zero=True)
    alg = TreeAlgebra(s)
    view = DendriformView(alg)
    unfold_check(view, alg)
    samples = tree_samples(2, count=4, seed=1)
    triples = [(a, b, c) for a in samples for b in samples for c in samples]
    assert check_dendriform(view, triples).ok


def test_dendriform_identities_matching_tables():
    from omegarb.omega import example_matching

    s = replace(example_matching([0, 0]), weight_zero=True)
    alg = TreeAlgebra(s)
    view = DendriformView(alg)
    samples = tree_samples(2, count=4, seed=2)
    triples = [(a, b, c) for a in samples for b in samples for c in samples]
    assert check_dendriform(view, triples).ok


def test_dendriform_fails_over_broken_side_tables():
    s = OmegaStructure(
        size=2, labels=("a", "b"),
        left=OpTable(((0, 0), (0, 0))), right=OpTable(((0, 0), (0, 0))),
        lhd=OpTable(((0, 1), (0, 1))), rhd=OpTable(((0, 1), (0, 1))),
        weight_zero=True,
    )
    alg = TreeAlgebra(s)
    view = DendriformView(alg)
    samples = tree_samples(2, count=4, seed=0)
    triples = [(a, b, c) for a in samples for b in samples for c in samples]
    report = check_dendriform(view, triples)
    assert not report.ok


@pytest.mark.parametrize("count", [0, -1, -5])
def test_tree_samples_refuse_a_count_below_one(count):
    with pytest.raises(ValueError, match="at least 1"):
        tree_samples(2, count=count)
    assert len(tree_samples(2, count=1)) == 1
