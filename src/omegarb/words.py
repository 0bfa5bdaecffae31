"""Typed words over a basis-presented algebra and the commutative free object.

A :class:`FiniteAlgebra` is an associative algebra given by structure
constants over a finite basis (optionally unital, optionally commutative);
associativity, the unit law, and the commutativity flag are verified at
construction.  A :class:`TypedWord` alternates basis indices of the algebra
with type indices of the parameter structure; it is a ``tuple`` subclass
holding that flat interleaving, so word keys hash and compare in C, and a
word equals the plain tuple with the same contents.  Formal sums hold
TypedWords; the product's kernel holds each word as one int code.
Multilinearity in the algebra slots is resolved by expanding products over
the basis, so word sums stay in canonical form.  :class:`WordAlgebra`
implements the four-case inductive product, the prepend operators P_w, and
the universal morphism; ``unitize`` adjoins a unit (new basis index 0) and
``sh_prime_filter`` recognizes the free-object subspace generated by a
non-unital algebra inside its unitization.  Algebra files are read with the
record and literal readers of :mod:`omegarb.omega`, records separated by
newlines or ``;``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import lcm

from .expr import ExprError, ExprParser, tokenize
from .free import FreeAlgebra
from .omega import OmegaStructure, StructureError, read_fields
from .omega import _as_flag, _as_matrix, _as_sum_cell, _check_labels, _fmt_rows, _fmt_sum
from .omega import _parse_value
from .scalars import FormalSum, drop_zeros, format_sum

__all__ = [
    "FiniteAlgebra",
    "TypedWord",
    "WordAlgebra",
    "word_length",
    "unitize",
    "sh_prime_filter",
    "sum_in_sh_prime",
    "word_evaluate",
    "parse_algebra",
    "serialize_algebra",
    "parse_word_expr",
    "word_to_str",
    "word_sum_to_str",
    "MAX_WORD_LENGTH",
]

# The longest word an expression may spell out, in letters.  The product of
# two such words recurses once per letter of either factor, so at this bound
# it stays well inside CPython's default recursion limit of 1000.
MAX_WORD_LENGTH = 200


class FiniteAlgebra:
    """Associative algebra with basis labels and structure-constant table.

    ``mult[i][j]`` is the product of basis elements i and j as a FormalSum
    over basis indices.
    """

    def __init__(self, labels, mult, unit=None, commutative=False):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.mult = tuple(tuple(row) for row in mult)
        self.unit = unit
        self.commutative = bool(commutative)
        if len(set(self.labels)) < self.dim:
            labels = " ".join(map(str, self.labels))
            raise StructureError(f"basis labels {labels!r} repeat a label")
        if len(self.mult) != self.dim or any(len(row) != self.dim for row in self.mult):
            raise StructureError("multiplication table has wrong shape")
        if any(not 0 <= b < self.dim for row in self.mult for cell in row for b in cell._terms):
            raise StructureError(f"multiplication table names a basis index outside 0..{self.dim - 1}")
        if unit is not None and not 0 <= unit < self.dim:
            raise StructureError(f"unit index {unit} outside 0..{self.dim - 1}")
        self._validate()

    def _validate(self):
        rng = range(self.dim)
        for i in rng:
            for j in rng:
                for k in rng:
                    lhs = self.mult[i][j].apply_linear(lambda m: self.mult[m][k])
                    rhs = self.mult[j][k].apply_linear(lambda m: self.mult[i][m])
                    if lhs != rhs:
                        raise StructureError(
                            f"structure constants not associative at basis triple ({i},{j},{k})"
                        )
        if self.commutative:
            for i in rng:
                for j in rng:
                    if self.mult[i][j] != self.mult[j][i]:
                        raise StructureError(
                            f"commutative flag set but basis pair ({i},{j}) does not commute"
                        )
        if self.unit is not None:
            e = self.unit
            for i in rng:
                if self.mult[e][i] != FormalSum.term(i) or self.mult[i][e] != FormalSum.term(i):
                    raise StructureError(f"declared unit {e} is not a two-sided unit")

    def product_basis(self, i: int, j: int) -> FormalSum:
        return self.mult[i][j]

    def element(self, label: str) -> FormalSum:
        try:
            return FormalSum.term(self.labels.index(label))
        except ValueError:
            raise StructureError(f"unknown basis label {label!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.labels == other.labels
            and self.mult == other.mult
            and self.unit == other.unit
            and self.commutative == other.commutative
        )

    def __repr__(self):
        return f"FiniteAlgebra(labels={self.labels}, unit={self.unit})"


class TypedWord(tuple):
    """A typed word a0 (x)_t1 a1 ... (x)_tn an, stored flat.

    The word is the tuple ``(a0, t1, a1, ..., tn, an)`` of basis indices of
    the algebra (even positions) and type indices of the parameter structure
    (odd positions).  ``entries`` and ``types`` are slices of it.  Hashing
    and equality are tuple's own, so dict lookups on word keys run in C.
    A word compares equal to, and hashes like, the plain tuple with the same
    flat contents.  Every formal sum a :class:`WordAlgebra` returns holds
    TypedWords; inside its product a word is an int code (``_coding``).
    """

    __slots__ = ()

    def __new__(cls, entries, types):
        entries = tuple(entries)
        types = tuple(types)
        if len(entries) != len(types) + 1:
            raise ValueError("entries count must be types count + 1")
        flat = [None] * (2 * len(entries) - 1)
        flat[0::2] = entries
        flat[1::2] = types
        return tuple.__new__(cls, flat)

    def __getnewargs__(self):
        return (self[0::2], self[1::2])

    @property
    def entries(self) -> tuple:
        return self[0::2]

    @property
    def types(self) -> tuple:
        return self[1::2]

    def sort_key(self):
        return (len(self) // 2 + 1, self[1::2], self[0::2])

    def __repr__(self):
        return f"TypedWord(entries={self[0::2]}, types={self[1::2]})"


def word_length(w: TypedWord) -> int:
    return len(w) // 2 + 1


def unitize(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """Adjoin a unit: new basis index 0, old basis shifted up by one.

    The new unit is labelled ``1``, or, when ``1`` is taken, by the first of
    ``e``, ``e1``, ``e2``, ... that is free.  The product rule is
    (c + a)(d + b) = cd + (cb + da + ab) for scalars c, d and algebra
    elements a, b.
    """
    dim = algebra.dim
    names = chain(("1", "e"), map("e{}".format, count(1)))
    labels = (next(x for x in names if x not in algebra.labels),) + algebra.labels
    mult = []
    for i in range(dim + 1):
        row = []
        for j in range(dim + 1):
            if i == 0:
                row.append(FormalSum.term(j))
            elif j == 0:
                row.append(FormalSum.term(i))
            else:
                row.append(algebra.mult[i - 1][j - 1].map_basis(lambda b: b + 1))
        mult.append(tuple(row))
    return FiniteAlgebra(labels, mult, unit=0, commutative=algebra.commutative)


def sh_prime_filter(w: TypedWord, ua: FiniteAlgebra) -> bool:
    """Membership in the subspace generated by the non-unital part: words of
    length one must avoid the adjoined unit; longer words are unrestricted."""
    if ua.unit is None:
        raise StructureError("filter needs the unitization (a marked unit index)")
    if len(w.entries) == 1:
        return w.entries[0] != ua.unit
    return True


def sum_in_sh_prime(s: FormalSum, ua: FiniteAlgebra) -> bool:
    return all(sh_prime_filter(w, ua) for w, _ in s)


# ---------------------------------------------------------------------------
# Words as int codes inside the kernel
#
# WordAlgebra's kernel holds each word as one int.  The symbols of the flat
# word (a0, t1, a1, ..., tn, an) take b bits each, the first symbol in the
# lowest bits, under one sentinel bit above the last.  With m = 2**b - 1
# the first letter is ``c & m``, the type after it ``c >> b & m``, the tail
# ``c >> 2b``, and prepending the letter k with the type w to the code r is
# ``r << 2b | w << b | k``.  The grade (letters minus one) is read from
# ``c.bit_length()``.  Codes of one width b mean the same words in every
# algebra, so b names the grade function, and a lift's key, which holds
# that function, says how to read its codes.


# b -> (grade, encode, wrap), made once per width
_CODINGS: dict = {}


def _coding(b: int):
    """The grade of a code, the code of one TypedWord, and the map from codes
    to TypedWords (``FreeAlgebra._wrap``), for codes of b bits per symbol.

    Up to b = 4 encoding and decoding go through digit strings, so each runs
    in C whatever the word's length: base 2**b digits in, hex digits out
    (octal for b = 3), each hex digit holding whole symbols.  Wider codes
    use plain loops.  One C-level path for every width (b-bit binary
    strings joined and read by ``int(s, 2)``, decoded by splitting
    ``format(code, "b")``) measured worse on 2 cores, CPython 3.11: 8
    alternating 10 s ``word-assoc`` pairs read 4,484 -> 4,272 ``ops_per_s``
    (all 8 worse) and ``op_p50_ms`` 0.059 -> 0.063, and a 1,500-letter
    ``word_evaluate`` took 0.19 s -> 0.40 s, so the digit strings stay.

    The grade and the wrap are found by name at module level (see
    ``__getattr__``), since lifts hold them and may be pickled; neither
    refers to an algebra, so a kept sum pins no memo."""
    hit = _CODINGS.get(b)
    if hit is not None:
        return hit
    span, mask = 2 * b, (1 << b) - 1

    def grade(code: int) -> int:
        return (code.bit_length() - 1 - b) // span

    if b <= 4:
        base = 1 << b
        digits = bytes.maketrans(bytes(range(base)), b"0123456789abcdef"[:base])
        spec, per = ("o", 1) if b == 3 else ("x", 4 // b)
        symbols = {
            format(v, spec): bytes(v >> i * b & mask for i in range(per))
            for v in range(1 << b * per)
        }

        def encode(word) -> int:
            return int(b"1" + bytes(word[::-1]).translate(digits), base)

        def decode(code: int) -> TypedWord:
            flat = b"".join(map(symbols.__getitem__, format(code, spec)[::-1]))
            return tuple.__new__(TypedWord, flat[: (code.bit_length() - 1) // b])
    else:
        def encode(word) -> int:
            code = 1
            for x in reversed(word):
                code = code << b | x
            return code

        def decode(code: int) -> TypedWord:
            flat = []
            while code > 1:
                flat.append(code & mask)
                code >>= b
            return tuple.__new__(TypedWord, flat)

    def wrap(codes):
        return map(decode, codes)

    grade.__name__ = grade.__qualname__ = f"_grade_w{b}"
    wrap.__name__ = wrap.__qualname__ = f"_wrap_w{b}"
    hit = _CODINGS[b] = (grade, encode, wrap)
    return hit


def __getattr__(name: str):
    # the grade and wrap of one width by name: a pickled lift refers to them
    # so, and an unpickling process may not have made them yet
    kind, sep, width = name.rpartition("_w")
    if sep and kind in ("_grade", "_wrap") and width.isdecimal() and int(width) > 0:
        grade, _, wrap = _coding(int(width))
        return grade if kind == "_grade" else wrap
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class WordAlgebra(FreeAlgebra):
    """Typed words over a unital algebra, with the inductive product.

    The product is the mixable shuffle, memoized on basis pairs.  For two
    words a0 (x)_al ta and b0 (x)_be tb it is the sum over the terms k of
    a0*b0 of k (x)_w R, for the three (w, R) pairs (al->be, P_{al|>be}(ta)*tb),
    (al<-be, ta*P_{al<|be}(tb)) and (al.be, lambda*(ta*tb)).  If a0*b0 is
    zero, so is the product, and nothing is recursed into.

    The memo holds integer numerators graded by length.  In a*b the
    coefficient of a result word w carries exactly g = len(a) + len(b) - 1
    - len(w) factors lambda (the weight term drops a letter) and at most
    len(w) structure constants (one per letter k it writes).  With D the
    least common denominator of the lambda table (1 in weight-0 mode) and
    D_A that of the structure constants, the memo stores coefficient * D**g
    * D_A**len(w), an int.  Each entry is built in one pass from the
    memoized entries R, with P_w(ta) spelt as the prefixed word itself: every
    final word k (x)_w r goes straight into one dict, with its numerator
    multiplied by the int c_k * D_A, and by the int lambda * D in the
    weight term.  No Fraction arithmetic happens inside.

    The kernel holds every word as an int code (see ``_coding``): the
    memo's keys and values, the lifts that share them, and the lifts that
    ``p_op`` makes.  A code hashes and compares as one int, the kernel reads
    first letters and types with a mask and a shift and writes k (x)_w r
    with one shift and one or, and the cyclic GC never tracks an int.  A
    built operand is encoded once where it enters the kernel, and ``_wrap``
    decodes each code to a TypedWord once, where a formal sum builds its
    terms, so every sum the algebra returns holds TypedWords.  A lift's key
    names the code width through its grade function, so two lifts of one
    key hold codes of one meaning.
    """

    kind = "word"
    # bound in the class body, not only inherited: perfbench/tracing.py
    # wraps these two in each algebra class's own __dict__
    product = FreeAlgebra.product
    diamond_basis = FreeAlgebra.diamond_basis

    def __init__(self, omega: OmegaStructure, algebra: FiniteAlgebra):
        super().__init__(omega)
        if algebra.unit is None:
            raise StructureError(
                "word operators need a unital algebra; apply unitize() first"
            )
        self.algebra = algebra
        # D_A, the least common denominator of the structure constants, and
        # the first-letter products with coefficients scaled by it
        d_alg = self._d_alg = lcm(
            *[c.denominator for row in algebra.mult for cell in row for c in cell._terms.values()]
        )
        self._heads = tuple(
            tuple(
                tuple((k, c.numerator * (d_alg // c.denominator)) for k, c in cell._terms.items())
                for cell in row
            )
            for row in algebra.mult
        )
        # the code width (enough bits for every basis index and every type)
        # and mask, and its grade (letters minus one), encoder and wrap
        bits = self._bits = max((algebra.dim - 1).bit_length(), (omega.size - 1).bit_length(), 1)
        self._mask = (1 << bits) - 1
        self._grade, self._encode, self._wrap = _coding(bits)

    def one(self) -> FormalSum:
        return FormalSum.term(TypedWord((self.algebra.unit,), ()))

    def word(self, entries, types) -> FormalSum:
        return FormalSum.term(TypedWord(entries, types))

    def _prefix(self, w: int):
        # P_w on basis words, and on codes
        prefix = (self.algebra.unit, w)
        span, kw = 2 * self._bits, w << self._bits | self.algebra.unit
        return (lambda word: tuple.__new__(TypedWord, prefix + word)), (lambda c: c << span | kw)

    def _diamond(self, a: int, b: int) -> dict:
        # the graded numerators of a*b: coefficient * D**(letters lost)
        # * D_A**len(word), keyed by codes
        key = (a, b)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        bits, mask = self._bits, self._mask
        head = self._heads[a & mask][b & mask]
        span = 2 * bits
        if not head:
            # the first letters multiply to zero, and so does everything
            res = {}
        elif a >> bits == 1 or b >> bits == 1:
            # at most one factor goes on after its first letter, whose
            # letters after the first each carry a factor D_A
            rest = b if a >> bits == 1 else a
            scale = self._d_alg ** ((rest.bit_length() - 1 - bits) // span)
            rest = rest >> bits << bits
            res = {rest | k: hk * scale for k, hk in head}
        else:
            e = self.algebra.unit
            right, rhd, left, lhd, dot, lam = self._ops[a >> bits & mask][b >> bits & mask]
            ta, tb = a >> span, b >> span
            diamond = self._diamond
            # (type w, numerators of the words after it, int factor)
            parts = [
                (right, diamond(ta << span | rhd << bits | e, tb), 1),
                (left, diamond(ta, tb << span | lhd << bits | e), 1),
            ]
            if lam:
                # the weight term drops a letter: one grade up
                parts.append((dot, diamond(ta, tb), lam))
            acc: dict = {}
            get = acc.get
            for w, sub, factor in parts:
                items = sub.items()
                for k, hk in head:
                    kw, f = w << bits | k, hk * factor
                    for word, n in items:
                        word = word << span | kw
                        acc[word] = get(word, 0) + f * n
            res = drop_zeros(acc) if 0 in acc.values() else acc
        self._memo[key] = res
        return res


def word_evaluate(x: FormalSum | TypedWord, f, R, algebra: FiniteAlgebra):
    """The universal morphism: f on length-one words, then
    fbar(a0 (x)_t tail) = f(a0) * P_t(fbar(tail)).

    ``f`` maps basis indices of ``algebra`` to elements of ``R``; it must be
    an algebra morphism, which is verified on all basis pairs first.
    """
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            if R.product(f[i], f[j]) != algebra.product_basis(i, j).apply_linear(lambda k: f[k]):
                raise StructureError(
                    f"f is not an algebra morphism on basis pair ({i},{j})"
                )

    def eval_word(w: TypedWord):
        # fold from the last letter, so any length works
        acc = f[w[-1]]
        for i in range(len(w) - 2, 0, -2):
            acc = R.product(f[w[i - 1]], R.p_op(w[i], acc))
        return acc

    if isinstance(x, TypedWord):
        return eval_word(x)
    return x.apply_linear(eval_word)


# ---------------------------------------------------------------------------
# Algebra file format and word expressions


def parse_algebra(text: str) -> FiniteAlgebra:
    """Parse the algebra format: ``basis``, ``unit``, ``commutative`` and
    ``mult`` records, separated by newlines or ';' (see :func:`read_fields`)."""
    fields = {key: (lineno, value) for lineno, key, value in read_fields(text, sep=";")}
    if "basis" not in fields or "mult" not in fields:
        raise StructureError("algebra file needs 'basis' and 'mult'")
    basis_line, basis = fields.pop("basis")
    if basis.startswith("["):  # the bracket form may separate labels with commas
        basis = basis.strip("[]").replace(",", " ")
    labels = basis.split()
    unit = None
    if "unit" in fields:
        lineno, raw = fields.pop("unit")
        if raw in labels:
            unit = labels.index(raw)
        elif raw.isdecimal():
            unit = int(raw)
        elif raw.lower() != "none":
            raise StructureError(
                f"line {lineno}: unit {raw!r} is neither a basis label nor an index"
            )
    commutative = _as_flag(fields.pop("commutative", (None, "false"))[1], "commutative")
    raw_mult = _parse_value(fields.pop("mult")[1])
    if fields:
        key = next(iter(fields))
        raise StructureError(f"line {fields[key][0]}: unknown key {key!r}")
    mult = _as_matrix(raw_mult, "mult", lambda v: _as_sum_cell(v, "mult"))
    a = FiniteAlgebra(labels, mult, unit=unit, commutative=commutative)
    _check_basis_labels(a.labels, f"line {basis_line}: ")
    return a


def _check_basis_labels(labels, where: str = "") -> None:
    """Refuse, naming it, a basis label that a file could not write (see
    ``omega.LABEL``) or that a word expression could not read back as the
    entry ``words`` printed: one that is not a single name or number token,
    or a number that is also a scalar a printed sum spells (a coefficient
    such as 2 or 1/2, or 0 for the zero sum; 1 is never printed as a
    coefficient)."""
    _check_labels(labels, where)
    for label in labels:
        try:
            kinds = [tok[0] for tok in tokenize(label)]
        except ExprError:
            kinds = []
        if kinds == ["name", "end"]:
            continue
        if kinds != ["num", "end"]:
            raise StructureError(
                f"{where}basis label {label!r} cannot be read in a word expression: "
                "a basis label is one name or one number"
            )
        if label != "1" and str(Fraction(label)) == label:
            raise StructureError(
                f"{where}basis label {label!r} is also the scalar {label}, so a printed "
                "word sum would not read back"
            )


def serialize_algebra(a: FiniteAlgebra) -> str:
    _check_basis_labels(a.labels)
    lines = ["basis = [" + ", ".join(a.labels) + "]"]
    if a.unit is not None:
        lines.append(f"unit = {a.labels[a.unit]}")
    lines.append(f"commutative = {'true' if a.commutative else 'false'}")
    lines.append("mult = " + _fmt_rows(a.mult, _fmt_sum))
    return "\n".join(lines) + "\n"


def word_to_str(w: TypedWord, algebra: FiniteAlgebra, type_labels) -> str:
    parts = [algebra.labels[w.entries[0]]]
    for ty, entry in zip(w.types, w.entries[1:]):
        parts.append(f"[{type_labels[ty]}]")
        parts.append(algebra.labels[entry])
    return " ".join(parts)


def word_sum_to_str(s: FormalSum, algebra: FiniteAlgebra, type_labels) -> str:
    return format_sum(s, lambda w: word_to_str(w, algebra, type_labels), group=True)


class _WordExprParser(ExprParser):
    """Word-sum expressions: the shared grammar of :mod:`omegarb.expr`, with

        primary := SCALAR | word | '(' expr ')'
        word    := ENTRY ('[' TYPE ']' ENTRY)*
    """

    kind = "word"

    def __init__(self, text, algebra: FiniteAlgebra, type_labels, word_algebra=None):
        super().__init__(text, type_labels, word_algebra)
        self.entry_index = {lab: i for i, lab in enumerate(algebra.labels)}

    def primary(self):
        tok = self.peek()
        if tok[0] == "num" and tok[1] not in self.entry_index:
            # numeric basis labels (the adjoined unit is labelled "1") win
            # over scalar literals; for a unital algebra the two readings of
            # an expression like "1 * w" agree anyway
            self.take()
            return Fraction(tok[1])
        if tok[0] in ("name", "num"):
            return FormalSum.term(self.word())
        if tok[0] == "(":
            # groups nest no deeper than trees do in tree expressions
            self.enter(self.take(), "groups nested")
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        raise ExprError(f"expected a scalar, '(' or an entry label, found {tok[1]!r}", tok[2])

    def word(self) -> TypedWord:
        entries = [self._entry()]
        types = []
        while self.peek()[0] == "[":
            if len(entries) == MAX_WORD_LENGTH:
                raise ExprError(f"word longer than {MAX_WORD_LENGTH} letters", self.peek()[2])
            types.append(self.type_label())
            entries.append(self._entry())
        return TypedWord(tuple(entries), tuple(types))

    def _entry(self):
        tok = self.peek()
        if tok[0] not in ("name", "num"):
            raise ExprError(f"expected a basis label, found {tok[1]!r}", tok[2])
        self.take()
        if tok[1] not in self.entry_index:
            raise ExprError(f"unknown basis label {tok[1]!r}", tok[2])
        return self.entry_index[tok[1]]


def parse_word_expr(
    text: str,
    algebra: FiniteAlgebra,
    type_labels,
    word_algebra: WordAlgebra | None = None,
) -> FormalSum:
    return _WordExprParser(text, algebra, type_labels, word_algebra).parse()
