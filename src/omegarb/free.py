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
of sums brings each operand to one common denominator and adds ints.  Both
end in ``_sum``, which keeps the numerators as the sum's lift (the memo's
own dict, for ``diamond_basis``); the sum divides them, once per term, only
when its terms are first read (see :mod:`omegarb.scalars`).  So a product
used again as an operand, passed through ``p_op``, or compared with
another product of the same lift key, stays in ints and builds no terms.
When D = D_A = 1 and the operands are integral, the numerators are the
coefficients, and ``_sum`` wraps the dict without a copy, for trees.  A
subclass whose kernel keys its numerators by plain values that compare
like its basis elements (words: exact tuples, see :class:`WordAlgebra`)
sets ``_wrap``, a staticmethod that maps those keys, in order, to basis
elements; every formal sum is then keyed by its result, and only the lift
keeps the kernel's keys.  ``product`` of two single terms whose
coefficients multiply to 1 returns the cached sum itself; formal sums are
immutable, so callers cannot change it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .omega import OmegaStructure, StructureError
from .scalars import FormalSum, _operand, drop_zeros, graded_relabel, graded_sum

__all__ = ["FreeAlgebra"]


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
        # D, the least common denominator of the lambda table (1 in weight-0
        # mode), and the kernel table: ops[a][b] holds the types (a->b, a|>b,
        # a<-b, a<|b, a.b) and the int lambda(a, b) * D, which is 0 whenever
        # the weight term vanishes
        lam = None if omega.weight_zero else omega.lam
        d = self._d = 1 if lam is None else lcm(*[v.denominator for row in lam for v in row])
        right, rhd, left, lhd = omega.right.rows, omega.rhd.rows, omega.left.rows, omega.lhd.rows
        dot = None if lam is None else omega.dot.rows
        rng = range(omega.size)
        self._ops = tuple(
            tuple(
                (right[a][b], rhd[a][b], left[a][b], lhd[a][b], None, 0) if lam is None else
                (right[a][b], rhd[a][b], left[a][b], lhd[a][b], dot[a][b],
                 lam[a][b].numerator * (d // lam[a][b].denominator))
                for b in rng
            )
            for a in rng
        )
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
        """The bilinear extension of the kernel.  Each operand is lifted to
        one denominator and its top grade (:func:`scalars._operand`), from
        its lift when the key matches, so the inner loop adds ints only."""
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
        if not (u._lift[1] if ut is None else ut) or not (v._lift[1] if vt is None else vt):
            return FormalSum._raw({})
        d = self._d
        # the common integral case inline, the rest through _operand
        if d == 1 and ut is not None and Fraction not in map(type, ut.values()):
            ux, tx, us = 1, 0, ut.items()
        else:
            ux, tx, us = _operand(u, self._grade, d, self._d_alg)
        if d == 1 and vt is not None and Fraction not in map(type, vt.values()):
            uy, ty, vs = 1, 0, vt.items()
        else:
            uy, ty, vs = _operand(v, self._grade, d, self._d_alg)
        kernel = self._diamond
        acc: dict = {}
        get = acc.get
        for s, nx in us:
            for t, ny in vs:
                f = nx * ny
                if f == 1:
                    for b, n in kernel(s, t).items():
                        acc[b] = get(b, 0) + n
                else:
                    for b, n in kernel(s, t).items():
                        acc[b] = get(b, 0) + f * n
        if 0 in acc.values():
            drop_zeros(acc)
        return self._sum(acc, tx + ty, ux * uy)

    def diamond_basis(self, s, t) -> FormalSum:
        """The exact product of two basis elements, one cached sum per pair."""
        key = (s, t)
        hit = self._cache.get(key)
        if hit is None:
            grade = self._grade
            hit = self._cache[key] = self._sum(self._diamond(s, t), grade(s) + grade(t))
        return hit

    def _sum(self, num: dict, top: int, base: int = 1) -> FormalSum:
        """The sum of ``num`` over ``base`` at top grade ``top`` (see
        :func:`scalars.graded_sum`); ``num`` is referenced, not copied."""
        wrap = self._wrap
        if self._d == 1 == self._d_alg == base:
            # integral weights, structure constants and operands: the
            # numerators are the coefficients
            return FormalSum._raw(num if wrap is None else dict(zip(wrap(num), num.values())))
        return graded_sum(num, top, self._grade, self._d, self._d_alg, base, wrap)
