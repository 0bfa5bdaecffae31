"""Operator-family algebra contract, identity checking, and the weight-0
two-operation (dendriform-style) view.

An algebra instance is any object with an ``omega`` parameter structure and
``one() / zero() / product(u, v) / p_op(w, u)`` over formal-sum elements.
``check_rb_identity`` scans the defining operator identity over all carrier
pairs and sampled element pairs; ``DendriformView`` derives the two
operation families of a weight-0 instance and ``check_dendriform`` scans
their three identities.
"""

from __future__ import annotations

import random

from .omega import AxiomReport, StructureError, _Collector
from .scalars import FormalSum
from . import trees as _trees

__all__ = [
    "check_rb_identity",
    "DendriformView",
    "check_dendriform",
    "tree_samples",
]


def _expansion(R, om, alpha, beta, u, v):
    out = R.p_op(om.right(alpha, beta), R.product(R.p_op(om.rhd(alpha, beta), u), v))
    out = out + R.p_op(om.left(alpha, beta), R.product(u, R.p_op(om.lhd(alpha, beta), v)))
    if not om.weight_zero:
        coeff = om.lam_at(alpha, beta)
        if coeff:
            out = out + R.p_op(om.dot(alpha, beta), R.product(u, v)).scale(coeff)
    return out


def check_rb_identity(R, samples, structure=None) -> AxiomReport:
    """Scan P_a(u)P_b(v) = expansion over all (a, b) and sampled (u, v).

    The expansion is taken over ``structure`` when given (so an algebra can
    be checked against a reference parameter structure other than its own,
    e.g. a perturbed copy), and over ``R.omega`` otherwise.
    """
    samples = list(samples)
    col = _Collector()
    om = structure if structure is not None else R.omega
    for idx_u, u in enumerate(samples):
        pu = [R.p_op(a, u) for a in range(om.size)]
        for idx_v, v in enumerate(samples):
            pv = [R.p_op(b, v) for b in range(om.size)]
            for a in range(om.size):
                for b in range(om.size):
                    lhs = R.product(pu[a], pv[b])
                    if lhs != _expansion(R, om, a, b, u, v):
                        # witness (alpha, beta, sample u, sample v)
                        col.hit("rb", (a, b, idx_u, idx_v))
    return col.report("rb-identity", ("rb",))


class DendriformView:
    """The two derived operation families of a weight-0 instance:
    left(w, a, b) = a * P_w(b) and right(w, a, b) = P_w(a) * b."""

    def __init__(self, R):
        om = R.omega
        if not om.weight_zero:
            zero_lam = om.lam is not None and all(
                not v for row in om.lam for v in row
            )
            if not zero_lam:
                raise StructureError(
                    "dendriform view requires a weight-0 instance "
                    "(weight_zero mode or an identically zero lambda table)"
                )
        self.R = R
        self.omega = om

    def prec(self, w: int, a, b) -> FormalSum:
        return self.R.product(a, self.R.p_op(w, b))

    def succ(self, w: int, a, b) -> FormalSum:
        return self.R.product(self.R.p_op(w, a), b)


def check_dendriform(view: DendriformView, triples) -> AxiomReport:
    """Scan the three identities over all operation pairs and given triples."""
    om = view.omega
    prec, succ = view.prec, view.succ
    col = _Collector()
    for idx, (a, b, c) in enumerate(triples):
        for al in range(om.size):
            for be in range(om.size):
                lhs = prec(be, prec(al, a, b), c)
                rhs = prec(om.right(al, be), a, succ(om.rhd(al, be), b, c)) + prec(
                    om.left(al, be), a, prec(om.lhd(al, be), b, c)
                )
                if lhs != rhs:
                    col.hit("dend1", (al, be, idx))
                if prec(be, succ(al, a, b), c) != succ(al, a, prec(be, b, c)):
                    col.hit("dend2", (al, be, idx))
                lhs3 = succ(al, a, succ(be, b, c))
                rhs3 = succ(om.right(al, be), succ(om.rhd(al, be), a, b), c) + succ(
                    om.left(al, be), prec(om.lhd(al, be), a, b), c
                )
                if lhs3 != rhs3:
                    col.hit("dend3", (al, be, idx))
    return col.report("dendriform", ("dend1", "dend2", "dend3"))


def tree_samples(omega_size: int, alphabet=("x", "y"), count: int = 8, seed: int = 0):
    """Deterministic seeded sample of tree elements (as formal sums).

    Draws basis trees from the exhaustive pool with <= 2 leaves and depth
    <= 2, always including the identity and the single-angle corollas.  A
    count below 1 is refused: it would check nothing.
    """
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    pool = _trees.all_trees(alphabet, omega_size, max_leaves=2, max_depth=2)
    rng = random.Random(seed)
    picked = [_trees.unit()] + [_trees.corolla((g,)) for g in alphabet]
    while len(picked) < count and len(picked) < len(pool):
        t = pool[rng.randrange(len(pool))]
        if t not in picked:
            picked.append(t)
    return [FormalSum.term(t) for t in picked[:count]]
