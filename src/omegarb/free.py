"""The shared core of the free algebras on typed trees and on typed words.

Both free objects are built by one recipe: an inductive product on pairs of
basis elements, memoized as integer numerators graded by the weight term,
plus the operators P_w.  :class:`FreeAlgebra` holds what does not depend
on the basis.  A subclass supplies the recursion ``_diamond(s, t)``, which
returns the dict {basis: int numerator} of s*t; ``one``; ``_prefix(w)``, the
basis map of P_w; and ``_grade`` together with ``_d_alg``, which fix what a
numerator means.  ``_grade`` must be a staticmethod, never a plain
method: a lift is matched by the identity of its grade function, so every
access has to return the same object, not a new bound method.

Exact rationals come back only at the boundary.  ``diamond_basis`` returns
the canonical FormalSum of a basis pair, cached per pair, and ``product``
of sums (``scalars.graded_product``) brings each operand to one common
denominator and adds ints.  Both keep the numerators as the sum's lift (the
memo's own dict, for ``diamond_basis``), and the sum divides them, once
per term, only when its terms are first read.  So a product used again as
an operand, passed through ``p_op``, or compared with another product of
the same lift key, stays in ints and builds no terms.  When D = D_A = 1
the numerators are the coefficients, and ``diamond_basis`` wraps the
memo's dict without a copy, for trees.  A
subclass whose kernel keys its numerators by plain values that compare
like its basis elements (words: exact tuples, see :class:`WordAlgebra`)
sets ``_wrap``, a staticmethod that maps those keys, in order, to basis
elements; every formal sum is then keyed by its result, and only the lift
keeps the kernel's keys.  ``product`` of two
single terms whose coefficients multiply to 1 returns the cached sum
itself; formal sums are immutable, so callers cannot change it.
"""

from __future__ import annotations

from math import lcm

from .omega import OmegaStructure, StructureError
from .scalars import FormalSum, graded_product, graded_relabel, graded_sum

__all__ = ["FreeAlgebra", "graded_ops"]


def graded_ops(om: OmegaStructure):
    """(D, ops) for the graded kernels: D is the least common denominator of
    the lambda table (1 in weight-0 mode), and ops[a][b] holds the types
    (a->b, a|>b, a<-b, a<|b, a.b) and the int lambda(a, b) * D, which is 0
    whenever the weight term vanishes."""
    lam = None if om.weight_zero else om.lam
    d = 1 if lam is None else lcm(*[v.denominator for row in lam for v in row])
    right, rhd, left, lhd = om.right.rows, om.rhd.rows, om.left.rows, om.lhd.rows
    rng = range(om.size)
    if lam is None:
        return d, tuple(
            tuple((right[a][b], rhd[a][b], left[a][b], lhd[a][b], None, 0) for b in rng)
            for a in rng
        )
    dot = om.dot.rows
    return d, tuple(
        tuple(
            (right[a][b], rhd[a][b], left[a][b], lhd[a][b], dot[a][b],
             lam[a][b].numerator * (d // lam[a][b].denominator))
            for b in rng
        )
        for a in rng
    )


class FreeAlgebra:
    """Formal sums of basis elements with a memoized graded product and the
    operators P_w over a parameter structure (see the module docstring)."""

    # the noun used in messages: "tree", "word"
    kind = ""
    # D_A, the common denominator of the structure constants in the kernel
    _d_alg = 1
    # None, or a staticmethod that maps the kernel's keys, in order, to
    # the basis elements of the formal sums
    _wrap = None

    def __init__(self, omega: OmegaStructure):
        if not omega.weight_zero and not omega.has_strict_weight:
            raise StructureError(
                f"{self.kind} product needs strict (dot, lambda) weight data or weight-0 mode"
            )
        self.omega = omega
        self._d, self._ops = graded_ops(omega)
        # (s, t) -> {basis: int numerator}, the graded memo of the recursion
        self._memo: dict = {}
        # (s, t) -> exact FormalSum, for the pairs diamond_basis was asked for
        self._cache: dict = {}

    def zero(self) -> FormalSum:
        return FormalSum.zero()

    def p_op(self, w: int, x) -> FormalSum:
        if not isinstance(x, FormalSum):
            x = FormalSum.term(x)
        if not 0 <= w < self.omega.size:
            raise StructureError(f"type index {w} outside carrier")
        return graded_relabel(x, self._prefix(w))

    def product(self, u, v) -> FormalSum:
        if not isinstance(u, FormalSum):
            u = FormalSum.term(u)
        if not isinstance(v, FormalSum):
            v = FormalSum.term(v)
        # an unbuilt operand's size is its lift's
        ut = u._built
        vt = v._built
        if len(u._lift[1] if ut is None else ut) == 1 == len(v._lift[1] if vt is None else vt):
            # one basis pair with coefficient 1: the memo's (immutable) sum
            ((s, c1),) = (ut or u._terms).items()
            ((t, c2),) = (vt or v._terms).items()
            if c1 * c2 == 1:
                return self.diamond_basis(s, t)
        return graded_product(u, v, self._diamond, self._grade, self._d, self._d_alg, self._wrap)

    def diamond_basis(self, s, t) -> FormalSum:
        """The exact product of two basis elements, one cached sum per pair."""
        key = (s, t)
        hit = self._cache.get(key)
        if hit is None:
            num = self._diamond(s, t)
            wrap = self._wrap
            if self._d == 1 == self._d_alg:
                # integral weights and structure constants: the numerators
                # are the coefficients
                hit = FormalSum._raw(num if wrap is None else dict(zip(wrap(num), num.values())))
            else:
                # lifted by the memo's own dict
                grade = self._grade
                hit = graded_sum(num, grade(s) + grade(t), grade, self._d, self._d_alg, wrap=wrap)
            self._cache[key] = hit
        return hit
