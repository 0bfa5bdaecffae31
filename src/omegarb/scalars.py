"""Exact rational coefficients and canonical formal linear combinations.

Everything downstream (parameter structures, tree and word algebras, the
classifier) computes over the rationals, exactly and without floats.  A
coefficient is stored as a plain ``int`` when it is integral and as a
:class:`fractions.Fraction` (lowest terms, positive denominator) otherwise,
so equality of coefficients is decidable and exact, and the common integral
case avoids Fraction arithmetic.  ``Fraction(n) == n`` and
``hash(Fraction(n)) == hash(n)``, so the two storage forms of one value
compare and hash alike, and ``str`` prints both the same way.

A :class:`FormalSum` is a finite linear combination of hashable basis
elements with nonzero coefficients in that canonical form; the zero element
is the empty sum.  :func:`accumulate` is the one step that adds scaled terms
into a coefficient dict and keeps it canonical; sums, scalings and
``map_basis`` go through it.  The tree and word products work on integer
numerators instead (``FreeAlgebra.product`` in :mod:`omegarb.free`, with
ints in its inner loop); this module holds the format of their output, one
exact division per term (:func:`graded_sum`).

A sum made by :func:`graded_sum` (every product output and every cached
``diamond_basis`` sum) keeps the graded numerators it was divided from,
unless they are its coefficients already (D = D_A = 1 and integral
operands).  This *lift* is ``((grade, D, D_A, base, top), numerators)``:
the coefficient of ``b`` is ``numerators[b] / (base * D**(top - grade(b))
* D_A**(grade(b) + 1))``.  The key alone fixes what a numerator means,
whichever algebra made it, so a lift is read only where its key matches:
``FreeAlgebra.product`` takes an operand's numerators as they are when the
key has the product's grade, D and D_A (:func:`_operand`), and two sums
with the same key compare their int numerator dicts, with no Fraction.
:func:`graded_relabel` (grafting a tree, prefixing a word) carries a lift
over.  Every other operation returns a sum without one.

A lift may key its numerators by the kernel's own keys (word codes) rather
than basis elements; its key map ``wrap`` turns them into basis elements,
and the grade function in its key says how to read them, so two lifts
with one key hold keys of one meaning.

A lifted sum builds its coefficients only when they are read.
:func:`graded_sum` stores the lift and the key map ``wrap``, nothing more;
the first read of ``_terms`` divides once per term and keeps the dict.
None of the three uses above reads it, so a product that is only compared
with another of its lift key, or used again as an operand of the same
algebra, never makes a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]


def parse_scalar(text: str) -> Fraction:
    """Parse a scalar literal "p/q" or "p" (q omitted means 1)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar literal {text!r}: {exc}") from None


def format_scalar(value: Scalar) -> str:
    return str(value)


def accumulate(acc: dict, items: Iterable, factor: Scalar = 1) -> dict:
    """Add ``factor * c`` into ``acc[basis]`` for each (basis, c) in items.

    ``acc`` stays canonical: a coefficient that cancels is removed, and one
    that is integral is stored as an ``int``.  ``factor`` and every ``c``
    must be ints or Fractions.  Returns ``acc``.
    """
    get = acc.get
    one = factor == 1
    for basis, c in items:
        cur = get(basis, 0) + (c if one else factor * c)
        if type(cur) is not int and cur.denominator == 1:
            cur = cur.numerator
        if cur:
            acc[basis] = cur
        else:
            acc.pop(basis, None)
    return acc


def quotient(n: int, d: int) -> Scalar:
    """The exact value of n / d (d > 0) in canonical form."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _exact(coeff) -> Scalar:
    return coeff if type(coeff) is int else Fraction(coeff)


def _sort_key(basis):
    key = getattr(basis, "sort_key", None)
    return basis if key is None else key()


class FormalSum:
    """A finite map basis -> nonzero Scalar, in canonical form.

    Instances are immutable; arithmetic returns new sums. Iteration yields
    (basis, coefficient) pairs in the canonical basis order.  ``_terms`` is
    the canonical coefficient dict that every reader sees; it is built from
    the lift on first read, and kept in ``_built`` (None until then).
    ``_lift`` is the graded lift a product left on its output (see the
    module docstring), or None, and ``_wrap`` the key map of a lift (unset
    on a sum made without one); equality of two sums whose lifts have the
    same key compares their int numerators, and otherwise their terms.
    """

    __slots__ = ("_built", "_lift", "_wrap")

    def __init__(self, terms: Mapping | Iterable | None = None):
        self._built = {}
        self._lift = None
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            accumulate(self._built, ((b, _exact(c)) for b, c in items if c))

    @property
    def _terms(self) -> dict:
        terms = self._built
        if terms is None:
            terms = self._built = _coefficients(self._lift, self._wrap)
        return terms

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def term(cls, basis, coeff: Scalar = 1) -> "FormalSum":
        if type(coeff) is int:
            return cls._raw({basis: coeff} if coeff else {})
        return cls._raw(accumulate({}, ((basis, Fraction(coeff)),)))

    @classmethod
    def _raw(cls, terms: dict) -> "FormalSum":
        # internal: terms must already be canonical (no zeros, integral as
        # int); the sum has no lift
        out = cls.__new__(cls)
        out._built = terms
        out._lift = None
        return out

    @classmethod
    def _lazy(cls, lift: tuple, wrap: Callable | None) -> "FormalSum":
        # internal: a lifted sum whose terms are built on first read, unless
        # the caller sets _built; the only constructor that makes a lift.
        # Built terms must run in the lift's order, one term per entry, as
        # _coefficients makes them: graded_relabel pairs the two by position
        out = cls.__new__(cls)
        out._built = None
        out._lift = lift
        out._wrap = wrap
        return out

    def items(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: _sort_key(kv[0]))

    def __iter__(self) -> Iterator:
        return iter(self.items())

    def coeff(self, basis) -> Scalar:
        return self._terms.get(basis, 0)

    def support(self) -> list:
        return [b for b, _ in self.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        a, b = self._lift, other._lift
        if a is not None and b is not None and a[0] == b[0]:
            # one key, one meaning: equal numerators are equal coefficients
            return a[1] == b[1]
        # the slots first: only an unbuilt sum pays for the property
        return (self._built or self._terms) == (other._built or other._terms)

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        return FormalSum._raw(accumulate(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __neg__(self) -> "FormalSum":
        return FormalSum._raw({b: -c for b, c in self._terms.items()})

    def scale(self, factor: Scalar) -> "FormalSum":
        factor = _exact(factor)
        if not factor:
            return FormalSum()
        if factor == 1:
            return self
        return FormalSum._raw(accumulate({}, self._terms.items(), factor))

    def __rmul__(self, factor) -> "FormalSum":
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    def map_basis(self, fn: Callable) -> "FormalSum":
        """Relabel basis elements through fn (linear extension of b -> fn(b))."""
        return FormalSum._raw(
            accumulate({}, ((fn(b), c) for b, c in self._terms.items()))
        )

    def apply_linear(self, fn: Callable[[object], "FormalSum"]) -> "FormalSum":
        """Linear extension of a basis map b -> FormalSum."""
        acc: dict = {}
        for basis, coeff in self._terms.items():
            accumulate(acc, fn(basis)._terms.items(), coeff)
        return FormalSum._raw(acc)

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        parts = [f"{c}*{b!r}" for b, c in self.items()]
        return "FormalSum(" + " + ".join(parts) + ")"


def format_sum(s: FormalSum, render: Callable, group: bool = False) -> str:
    """``s`` as text: terms ``render(b)``, ``-render(b)`` or ``c*render(b)``
    (``c*(render(b))`` with ``group``) joined by " + " and " - "; 0 if empty."""
    if s.is_zero():
        return "0"
    parts = []
    for b, c in s:
        body = render(b)
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append(f"{c}*({body})" if group else f"{c}*{body}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def bilinear_extend(fn: Callable[[object, object], FormalSum]):
    """The unique bilinear extension of a basis-pair map to pairs of sums."""

    def extended(x: FormalSum, y: FormalSum) -> FormalSum:
        acc: dict = {}
        for bx, cx in x._terms.items():
            for by, cy in y._terms.items():
                accumulate(acc, fn(bx, by)._terms.items(), cx * cy)
        return FormalSum._raw(acc)

    return extended


def graded_sum(num: dict, top: int, grade: Callable, d: int = 1, d_alg: int = 1,
               base: int = 1, wrap: Callable | None = None) -> FormalSum:
    """The exact sum with coefficients ``num[b] / (base * d**(top - grade(b))
    * d_alg**(grade(b) + 1))``, carrying ``num`` as its lift.  Nothing is
    divided here: the terms are built on first read (:func:`_coefficients`).
    ``num`` holds nonzero ints; it is referenced, not copied, and must not
    change afterwards.  With d > 1 no grade exceeds top; with d = 1 top
    plays no part and the key records 0.  ``wrap``, if given, maps the keys
    of ``num``, in order, to the basis elements the sum holds: the kernel
    may key its numerators by plain values that compare and hash like them,
    and the lift keeps those keys.  Callers whose numerators are the
    coefficients (d, d_alg and base all 1) wrap them with no lift instead."""
    return FormalSum._lazy(((grade, d, d_alg, base, top if d != 1 else 0), num), wrap)


def _coefficients(lift: tuple, wrap: Callable | None) -> dict:
    """The canonical terms a lift stands for, one exact division per term."""
    (grade, d, d_alg, base, top), num = lift
    # the denominator of each grade met, made at its first term: a long
    # word's one-term sum must not pay for every grade below its own
    dens: dict = {}
    get, put = dens.get, dens.setdefault
    scale = d != 1
    values = [
        Fraction(n, den)
        if n % (den := get(g) or put(g, base * d_alg ** (g + 1) * (d ** (top - g) if scale else 1)))
        else n // den
        for n, g in zip(num.values(), map(grade, num))
    ]
    return dict(zip(num if wrap is None else wrap(num), values))


def graded_relabel(s: FormalSum, fn: Callable, key_fn: Callable | None = None) -> FormalSum:
    """``s`` with each basis element b relabelled ``fn(b)``, for an injective
    ``fn`` that adds exactly one to the grade: grafting a tree on a new root,
    prefixing a word.  No two terms meet, so the coefficients carry over
    unchanged, and so does a lift, with top one higher (when D > 1) and one
    more factor D_A in each numerator.  ``key_fn`` relabels the lift's keys
    the same way when they are the kernel's own (word codes), not basis
    elements, and must be made for the codes of this lift's key (see
    ``FreeAlgebra.p_op``); without it ``fn`` relabels both.  A sum whose terms are not
    built has only its lift relabelled, and keeps its key map ``_wrap``."""
    lift = s._lift
    if lift is None:
        return FormalSum._raw({fn(b): c for b, c in s._terms.items()})
    (grade, d, d_alg, base, top), num = lift
    key = (grade, d, d_alg, base, top + 1 if d != 1 else 0)
    terms = s._built
    if terms is None:
        relabel = fn if key_fn is None else key_fn
        return FormalSum._lazy((key, {relabel(b): n * d_alg for b, n in num.items()}), s._wrap)
    out: dict = {}
    lifted: dict = {}
    # terms built from a lift, or carried over with it, run in the lift's
    # order, so each term meets its numerator without a lookup
    for (b, c), (k, n) in zip(terms.items(), num.items()):
        image = fn(b)
        out[image] = c
        lifted[image if key_fn is None else key_fn(k)] = n * d_alg
    res = FormalSum._lazy((key, lifted), s._wrap)
    res._built = out
    return res


def drop_zeros(acc: dict) -> dict:
    """Remove the keys whose int value cancelled to 0; returns acc."""
    for b in [b for b, n in acc.items() if not n]:
        del acc[b]
    return acc


def _operand(s: FormalSum, grade: Callable, d: int, d_alg: int, encode: Callable | None = None):
    """(U, top, items) for one operand of ``FreeAlgebra.product``: the
    coefficient of b is ``n / (U * d**(top - grade(b)))`` for each (b, n) in
    items, with b the kernel's key.  A lift whose key matches the product's
    grade, d and d_alg gives them as they are (with d_alg > 1 after moving
    its per-grade factors D_A into U); any other operand goes through
    :func:`_numerators`, its basis elements mapped to the kernel's keys by
    ``encode`` when that is given."""
    lift = s._lift
    if lift is not None:
        (g, ld, lda, base, top), num = lift
        if g is grade and ld == d and lda == d_alg:
            if d_alg == 1:
                return base, top, num.items()
            grades = [grade(b) for b in num]
            most = max(grades)
            return base * d_alg ** (most + 1), top, [
                (b, n * d_alg ** (most - k)) for (b, n), k in zip(num.items(), grades)
            ]
    # no lift, or one of another key: the terms, built if need be
    return _numerators(s._terms, grade, d, encode)


def _numerators(terms: dict, grade: Callable, d: int, encode: Callable | None = None):
    """(U, top, items) for one operand: U is the least common denominator of
    its coefficients, top its highest grade (0 when d is 1), and items the
    (key, c * U * d**(top - grade(key))) pairs, all ints, where key is the
    basis element, or ``encode`` of it."""
    if encode is not None:
        terms = dict(zip(map(encode, terms), terms.values()))
    if len(terms) == 1:
        ((b, c),) = terms.items()
        return c.denominator, grade(b) if d != 1 else 0, [(b, c.numerator)]
    if Fraction in map(type, terms.values()):
        den = lcm(*(c.denominator for c in terms.values()))
        items = [(b, c.numerator * (den // c.denominator)) for b, c in terms.items()]
    else:
        den, items = 1, terms.items()
    if d == 1:
        return den, 0, items
    grades = [grade(b) for b in terms]
    top = max(grades)
    return den, top, [(b, n * d ** (top - g)) for (b, n), g in zip(items, grades)]
