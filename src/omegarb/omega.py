"""Finite parameter structures and layered axiom verification.

A structure is a finite carrier with binary operation tables for
``<-``, ``->``, ``<|`` (lhd), ``|>`` (rhd) and optionally ``.`` (dot) and
``*`` (star), plus weight data: either a strict scalar table ``lambda``
paired with ``dot``, or a generalized linear weight map ``psi`` sending a
basis pair to a formal combination of carrier elements.

Checkers are layered: diassociative pair, extended diassociative (EDS),
lambda-extended triassociative (lambda-ETS, with conditional identities
guarded by nonzero weights), extended triassociative (ETS, all identities
unconditional), and the equivalent tensor-map formulations of each weight
level.  All checkers are report-based: they scan every triple and return an
:class:`AxiomReport` with one entry per violated equation tag (first witness
in lexicographic triple order, plus the total count).

Each identity is written once, as the text that reports print, and every
checker is compiled from the texts on first use.  :data:`POINTWISE_EQUATIONS`
has one row (tag, text, weight guard) per pointwise identity; in a text, ``*``
is the star table, except between ``L[...]`` factors, where it is the product
of weights.  :data:`MAP_EQUATIONS` has one row (tag, text) per map identity,
each side read right to left, ``(X x id)`` and ``(id x X)`` setting the pair
of tensor factors that X acts on.  Adding an identity means adding one row
(and its tag to the level that checks it).

The structure, algebra and substitution file formats share one record reader,
:func:`read_fields`, and one compiled-regex literal reader for scalars (an
``int``, or a ``Fraction`` for a non-integral ``p/q``), lists and sums.  A
structure table written as a JSON array of arrays of ints, such as
``[[0,1],[1,0]]`` (the form :func:`serialize_structure` writes), is read in
one pass of json's C scanner instead; every other form of a value is read as
before, by the literal reader.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, count, product, repeat
from operator import add, itemgetter, mul, ne

from .scalars import FormalSum, Scalar, accumulate, parse_scalar

__all__ = [
    "OpTable",
    "OmegaStructure",
    "Violation",
    "AxiomReport",
    "StructureError",
    "exact_scalar",
    "check_diassociative",
    "check_eds",
    "check_lambda_ets",
    "check_ets",
    "check_maps_level",
    "check_ets_maps_level",
    "opposite",
    "is_commutative",
    "swap_conjugate",
    "ets_to_lambda_ets",
    "build_example",
    "example_weight_zero",
    "example_matching",
    "example_semigroup",
    "example_abelian_group",
    "parse_structure",
    "serialize_structure",
    "read_fields",
    "EQUATION_TEXT",
    "POINTWISE_EQUATIONS",
    "LEVELS",
    "parse_equation",
    "pointwise_filter",
    "MAP_EQUATIONS",
    "parse_map_equation",
    "MAP_TO_POINTWISE_TAGS",
    "ETS_MAP_TO_POINTWISE_TAGS",
]


class StructureError(ValueError):
    """Raised for malformed structures or unmet checker preconditions."""


def _table_entry(v) -> int:
    """An operation-table entry as an int.  An int, or a Fraction when
    integral; anything else (a float, a bool, a string) is refused by type."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        raise StructureError(f"table entry {v!r} ({type(v).__name__}) is not an integer")
    if v.denominator != 1:
        raise StructureError(f"table entry {v} is not an integer")
    return v.numerator


def exact_scalar(v, what: str) -> Scalar:
    """v in canonical form: an ``int`` when integral, else a ``Fraction``.
    Anything but an int or a Fraction (a float, a string, a bool) is refused,
    naming ``what`` and v, rather than turned into a rational."""
    if type(v) is Fraction:
        return v.numerator if v.denominator == 1 else v
    if type(v) is not int:
        raise StructureError(
            f"{what} must be an int or a Fraction, got {v!r} ({type(v).__name__})"
        )
    return v


def _plain_table(rows, n: int) -> bool:
    """Whether rows is n rows of n ints, each in 0..n-1."""
    for row in rows:
        if len(row) != n:
            return False
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                return False
    return True


class OpTable:
    """A binary operation on {0..n-1} as a row-major table (row = first arg)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        n = len(rows)
        if not _plain_table(rows, n):
            # every entry is converted before any shape or range check, so of
            # several faults the first in this order is the one named
            rows = tuple(tuple(map(_table_entry, row)) for row in rows)
            for row in rows:
                if len(row) != n:
                    raise StructureError("operation table must be square")
                for v in row:
                    if not 0 <= v < n:
                        raise StructureError(f"table entry {v} out of range 0..{n - 1}")
        self.n = n
        self.rows = rows

    def __call__(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def flipped(self) -> "OpTable":
        """The table of the reversed operation: (i, j) -> self(j, i)."""
        return OpTable(_conj_rows(self.rows, range(self.n), flip=True))

    def conjugate(self, perm) -> "OpTable":
        """Relabel the carrier through the permutation perm (a sequence)."""
        return OpTable(_conj_rows(self.rows, perm))

    def is_associative(self) -> bool:
        t = self.rows
        rng = range(self.n)
        return all(t[t[i][j]][k] == t[i][t[j][k]] for i in rng for j in rng for k in rng)

    def is_commutative_table(self) -> bool:
        t = self.rows
        rng = range(self.n)
        return all(t[i][j] == t[j][i] for i in rng for j in rng)

    def __eq__(self, other):
        return isinstance(other, OpTable) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"OpTable({list(map(list, self.rows))})"


def _conj_rows(rows, perm, flip=False, cell=None):
    """Table rows relabeled through the carrier permutation perm, the two
    arguments swapped first if ``flip``: cell (i, j) is the cell at
    (perm[i], perm[j]) renamed by ``cell(x, inv)``, inv the inverse of perm;
    by default x is a carrier element and becomes inv[x]."""
    if flip:
        rows = tuple(zip(*rows))
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    rename = inv.__getitem__ if cell is None else (lambda x: cell(x, inv))
    return tuple(tuple(rename(rows[p][q]) for q in perm) for p in perm)


# Every table of a structure as (attribute, file key), in file order; the
# first four are required.  A transform of the carrier acts on each the same way.
TABLES = (("left", "left"), ("right", "right"), ("lhd", "lhd"), ("rhd", "rhd"),
          ("dot", "dot"), ("star", "star"), ("lam", "lambda"), ("psi", "psi"))

# how a cell of a weight table is renamed with the carrier: a lambda cell is a
# scalar, a psi cell a formal sum over the carrier (an OpTable cell is an element)
_RENAME = {"lam": lambda x, inv: x, "psi": lambda x, inv: x.map_basis(inv.__getitem__)}


def _relabel(s, attr, perm, flip=False):
    """Table ``attr`` of s (an OpTable, or lambda or psi rows) through _conj_rows."""
    table = getattr(s, attr)
    if attr in _RENAME:
        return _conj_rows(table, perm, flip, _RENAME[attr])
    return OpTable(_conj_rows(table.rows, perm, flip))


@dataclass(frozen=True)
class OmegaStructure:
    """Carrier {0..n-1} with display labels and the operation tables.

    Weight data is either strict (``dot`` + ``lam``), generalized (``psi``
    alone), or absent; ``weight_zero`` marks the weight-0 mode in which the
    weight term of every product and every checker vanishes without
    materializing a table, whatever weight data is also present.  A structure
    file may not set both ``psi`` and ``weight_zero``.
    ``star`` is only used by the ETS-level checkers.

    ``lam`` is stored canonical, however it was passed: a tuple of row
    tuples, each entry an ``int`` when integral and a ``Fraction`` otherwise,
    so the checkers and products compare and multiply ints on integral
    weights.  An entry that is not an int or a Fraction is refused.  ``psi``
    is stored as a tuple of row tuples too.
    """

    size: int
    labels: tuple
    left: OpTable
    right: OpTable
    lhd: OpTable
    rhd: OpTable
    dot: OpTable | None = None
    star: OpTable | None = None
    lam: tuple | None = None
    psi: tuple | None = None
    weight_zero: bool = False

    def __post_init__(self):
        n = self.size
        if len(self.labels) != n:
            raise StructureError("labels count must match size")
        if len(set(self.labels)) < n:
            raise StructureError(f"labels {' '.join(map(str, self.labels))!r} repeat a label")
        for attr, _ in TABLES:
            table = getattr(self, attr)
            if attr not in _RENAME and table is not None and table.n != n:
                raise StructureError(f"table {attr} has wrong size")
        if self.lam is not None:
            if self.dot is None:
                raise StructureError("lambda table requires a dot table")
            if self.psi is not None:
                raise StructureError("strict (dot, lambda) and generalized psi are exclusive")
            if len(self.lam) != n or any(len(row) != n for row in self.lam):
                raise StructureError("lambda table has wrong shape")
            object.__setattr__(self, "lam", tuple(
                tuple(exact_scalar(v, f"lambda[{i}][{j}]") if type(v) is not int else v
                      for j, v in enumerate(row))
                for i, row in enumerate(self.lam)
            ))
        if self.psi is not None:
            if len(self.psi) != n or any(len(row) != n for row in self.psi):
                raise StructureError("psi table has wrong shape")
            object.__setattr__(self, "psi", tuple(map(tuple, self.psi)))
            for row in self.psi:
                for cell in row:
                    for b in cell._terms:
                        if not 0 <= b < n:
                            raise StructureError(f"psi key {b} outside the carrier 0..{n - 1}")

    # -- weight access ---------------------------------------------------

    @property
    def has_strict_weight(self) -> bool:
        return self.lam is not None and self.dot is not None

    @property
    def has_weight(self) -> bool:
        return self.has_strict_weight or self.psi is not None or self.weight_zero

    def lam_at(self, i: int, j: int) -> Scalar:
        """The weight lambda(i, j) as stored (an int when integral); 0 in
        weight-0 mode."""
        if self.weight_zero:
            return 0
        if self.lam is None:
            raise StructureError("structure has no strict lambda table")
        return self.lam[i][j]

    def psi_map(self, i: int, j: int) -> FormalSum:
        """The weight map on basis pairs: zero in weight-0 mode, else strict
        lam[i][j]*(i.j), or psi[i][j]."""
        if self.weight_zero:
            return FormalSum.zero()
        if self.psi is not None:
            return self.psi[i][j]
        if self.has_strict_weight:
            lam = self.lam[i][j]
            return FormalSum._raw({self.dot(i, j): lam} if lam else {})
        raise StructureError("structure has no weight data")


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class Violation:
    tag: str
    witness: tuple
    count: int


@dataclass
class AxiomReport:
    level: str
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def failed_tags(self) -> set:
        return {v.tag for v in self.violations}

    def summary(self, labels=None) -> str:
        if self.ok:
            return f"{self.level}: PASS"
        lines = [f"{self.level}: FAIL ({len(self.violations)} equation(s) violated)"]
        for v in self.violations:
            if labels:
                wit = ",".join(labels[i] for i in v.witness)
            else:
                wit = ",".join(map(str, v.witness))
            text = EQUATION_TEXT.get(v.tag, "")
            lines.append(f"  {v.tag}: {text}  witness=({wit})  violations={v.count}")
        return "\n".join(lines)


class _Collector:
    """Accumulates per-tag first witness and violation counts."""

    def __init__(self):
        self.first = {}
        self.counts = {}

    def hit(self, tag, witness):
        if tag not in self.first:
            self.first[tag] = witness
        self.counts[tag] = self.counts.get(tag, 0) + 1

    def report(self, level, tag_order) -> AxiomReport:
        """The violations in ``tag_order``, which lists every tag hit."""
        return AxiomReport(level, [Violation(tag, self.first[tag], self.counts[tag])
                                   for tag in tag_order if tag in self.first])


# ---------------------------------------------------------------------------
# The pointwise axioms

# One row (tag, text, guard) per identity.  A text equates two terms in a, b
# and c: x<-y, x->y, x<|y, x|>y, x.y and x*y look up left, right, lhd, rhd,
# dot and star, L[x,y] is lambda[x][y], * between weights is their product.
# A guarded row is checked at a triple only where its guard holds with a
# nonzero value, at a level that checks the guard; elsewhere it always is.
POINTWISE_EQUATIONS = (
    ("dia1", "(a<-b)<-c = a<-(b<-c)", None),
    ("dia2", "(a<-b)<-c = a<-(b->c)", None),
    ("dia3", "(a->b)<-c = a->(b<-c)", None),
    ("dia4", "(a<-b)->c = a->(b->c)", None),
    ("dia5", "(a->b)->c = a->(b->c)", None),
    ("EQ1", "a|>(b<-c) = a|>b", None),
    ("EQ2", "(a->b)<|c = b<|c", None),
    ("EQ3", "(a<|b)<-((a<-b)<|c) = a<|(b<-c)", None),
    ("EQ4", "(a<|b)<|((a<-b)<|c) = b<|c", None),
    ("EQ5", "(a<|b)->((a<-b)<|c) = a<|(b->c)", None),
    ("EQ6", "(a<|b)|>((a<-b)<|c) = b|>c", None),
    ("EQ7", "(a|>(b->c))<-(b|>c) = (a<-b)|>c", None),
    ("EQ8", "(a|>(b->c))<|(b|>c) = a<|b", None),
    ("EQ9", "(a|>(b->c))->(b|>c) = (a->b)|>c", None),
    ("EQ10", "(a|>(b->c))|>(b|>c) = a|>b", None),
    ("EQ11", "L[a->b,c] = L[b,c]", None),
    ("EQ12", "L[a<|b,(a<-b)<|c] = L[b,c]", None),
    ("EQ13", "L[a<-b,c] = L[a,b->c]", None),
    ("EQ14", "L[a|>(b->c),b|>c] = L[a,b]", None),
    ("EQ15", "L[a,b] = L[a,b<-c]", None),
    ("EQ16", "L[a,b]*L[a.b,c] = L[b,c]*L[a,b.c]", None),
    ("eq17", "a|>b = a|>(b.c)", "EQ11"),
    ("eq18", "(a->b).c = a->(b.c)", "EQ11"),
    ("eq19", "(a<|b).((a<-b)<|c) = a<|(b.c)", "EQ12"),
    ("eq20", "(a<-b)<-c = a<-(b.c)", "EQ12"),
    ("eq21", "a->(b->c) = (a.b)->c", "EQ14"),
    ("eq22", "(a|>(b->c)).(b|>c) = (a.b)|>c", "EQ14"),
    ("eq23", "(a<-b).c = a.(b->c)", "EQ13"),
    ("eq24", "a<|b = b|>c", "EQ13"),
    ("eq25", "(a.b)<|c = b<|c", "EQ15"),
    ("eq26", "(a.b)<-c = a.(b<-c)", "EQ15"),
    ("eq27", "(a.b).c = a.(b.c)", "EQ16"),
    ("EQ17", "(a->b)*c = b*c", None),
    ("EQ20", "(a<|b)*((a<-b)<|c) = b*c", None),
    ("EQ23", "(a|>(b->c))*(b|>c) = a*b", None),
    ("EQ26", "(a<-b)*c = a*(b->c)", None),
    ("EQ29", "a*b = a*(b<-c)", None),
    ("EQ32", "a*b = a*(b.c)", None),
    ("EQ33", "(a.b)*c = b*c", None),
)

# One row (tag, text) per map identity on the triple tensor power; how a text
# reads is set out above the map-level checkers, which are compiled from it.
MAP_EQUATIONS = (
    ("eds1", "(tau x id)(id x phiL)(tau x id)(phiR x id) = (phiR x id)(id x phiL)"),
    ("eds2", "(id x phiL)(tau x id)(id x phiL)(tau x id)(phiL x id) = (phiL x id)(id x phiL)"),
    ("eds3", "(id x phiR)(tau x id)(id x phiL)(tau x id)(phiL x id) = (phiL x id)(id x phiR)"),
    ("eds4", "(id x phiL)(phiR x id)(id x phiR) = (phiR x id)(id x tau)(phiL x id)"),
    ("eds5", "(id x phiR)(phiR x id)(id x phiR) = (phiR x id)(id x tau)(phiR x id)"),
    ("equ1", "phiR(id x psi) = (psi x id)(id x tau)(phiR x id)"),
    ("equ2", "(psi x id)(id x tau)(id x phiL)(tau x id)(phiL x id) = tau.phiL(id x psi)"),
    ("equ3", "(id x psi)(phiR x id)(id x phiR) = phiR(psi x id)"),
    ("equ4", "(psi x id)(id x tau)(phiL x id) = (psi x id)(id x phiR)"),
    ("equ5", "(psi x id)(id x phiL) = phiL(psi x id)"),
    ("equ6", "psi(psi x id) = psi(id x psi)"),
    ("equu1", "(tau x id)(id x phiS)(tau x id)(phiR x id) = (phiR x id)(id x phiS)"),
    ("equu2", "(id x phiS)(tau x id)(id x phiL)(tau x id)(phiL x id) = (phiL x id)(id x phiS)"),
    ("equu3", "(id x phiS)(phiR x id)(id x phiR) = (phiR x id)(id x tau)(phiS x id)"),
    ("equu4", "(id x phiS)(tau x id)(phiL x id) = (id x phiS)(tau x id)(id x tau)(id x phiR)"),
    ("equu5", "(phiS x id)(id x phiL) = (tau x id)(id x phiL)(tau x id)(phiS x id)"),
    ("equu6", "(phiS x id)(id x tau)(phiS x id) = (id x tau)(phiS x id)(id x phiS)"),
)

EQUATION_TEXT = {tag: text for tag, text, _ in POINTWISE_EQUATIONS} | dict(MAP_EQUATIONS) | {
    "rb": "P_a(u).P_b(v) = P_{a->b}(P_{a|>b}(u).v) + P_{a<-b}(u.P_{a<|b}(v)) + L[a,b] P_{a.b}(u.v)",
    "dend1": "(u <_a v) <_b w = u <_{a->b} (v >_{a|>b} w) + u <_{a<-b} (v <_{a<|b} w)",
    "dend2": "(u >_a v) <_b w = u >_a (v <_b w)",
    "dend3": "u >_a (v >_b w) = (u >_{a|>b} v) >_{a->b} w + (u <_{a<|b} v) >_{a<-b} w",
}

# level: (the level it extends, its tables in the argument order of its
# scanner and filter, the tags of its own rows in report order)
LEVELS = {
    "diassoc": (None, ("left", "right"), ("dia1", "dia2", "dia3", "dia4", "dia5")),
    "eds": ("diassoc", ("left", "right", "lhd", "rhd"), tuple(f"EQ{k}" for k in range(1, 11))),
    "lambda-ets": ("eds", ("left", "right", "lhd", "rhd", "dot", "lam"),
                   tuple(f"EQ{k}" for k in range(11, 17)) + tuple(f"eq{k}" for k in range(17, 28))),
    "ets": ("eds", ("left", "right", "lhd", "rhd", "star", "dot"),
            ("EQ17", "eq18", "eq17", "EQ20", "eq19", "eq20", "EQ23", "eq21", "eq22", "EQ26",
             "eq23", "eq24", "EQ29", "eq25", "eq26", "EQ32", "EQ33", "eq27")),
}

# pointwise tags bundled by each map identity (verdict-equivalent groups);
# the keys of each map level's dict are its identities in report order
_EDS_MAP_TAGS = {
    "eds1": ("dia3", "EQ1", "EQ2"),
    "eds2": ("dia1", "EQ3", "EQ4"),
    "eds3": ("dia2", "EQ5", "EQ6"),
    "eds4": ("dia4", "EQ7", "EQ8"),
    "eds5": ("dia5", "EQ9", "EQ10"),
}

MAP_TO_POINTWISE_TAGS = _EDS_MAP_TAGS | {
    "equ1": ("EQ11", "eq17", "eq18"),
    "equ2": ("EQ12", "eq19", "eq20"),
    "equ3": ("EQ14", "eq21", "eq22"),
    "equ4": ("EQ13", "eq23", "eq24"),
    "equ5": ("EQ15", "eq25", "eq26"),
    "equ6": ("EQ16", "eq27"),
}

ETS_MAP_TO_POINTWISE_TAGS = _EDS_MAP_TAGS | {
    "equu1": ("EQ17", "eq18", "eq17"),
    "equu2": ("EQ20", "eq19", "eq20"),
    "equu3": ("EQ23", "eq21", "eq22"),
    "equu4": ("EQ26", "eq23", "eq24"),
    "equu5": ("EQ29", "eq25", "eq26"),
    "equu6": ("EQ32", "EQ33", "eq27"),
}


_SYMBOLS = {"<-": "left", "->": "right", "<|": "lhd", "|>": "rhd", ".": "dot", "*": "star"}
_TOKEN = re.compile(r"<-|->|<\||\|>|\S")


def _is_weight(term) -> bool:
    return type(term) is tuple and term[0] in ("lam", "mul")


def parse_equation(text: str):
    """The (lhs, rhs) terms of a pointwise row.  A term is a variable "a",
    "b" or "c", or a node (name, x, y): name is a table field for x op y,
    "lam" for L[x,y] and "mul" for the product of two weights."""
    tokens = [None] + _TOKEN.findall(text)[::-1]  # a stack, None at the end

    def take(*expected):
        if tokens[-1] not in expected:
            raise ValueError(f"{text!r}: expected one of {expected}, got {tokens[-1]!r}")
        return tokens.pop()

    def atom():
        tok = take("a", "b", "c", "(", "L")
        if tok == "(":
            return term(")")
        if tok == "L":
            take("[")
            x, y = term(","), term("]")
            if _is_weight(x) or _is_weight(y):
                raise ValueError(f"{text!r}: L[x,y] takes two carrier terms")
            return ("lam", x, y)
        return tok

    def term(end):
        x = atom()
        if tokens[-1] in _SYMBOLS:
            name, y = _SYMBOLS[tokens.pop()], atom()
            if _is_weight(x) or _is_weight(y):
                if not (_is_weight(x) and _is_weight(y) and name == "star"):
                    raise ValueError(f"{text!r}: weights only multiply weights, by *")
                name = "mul"
            x = (name, x, y)
        take(end)
        return x

    lhs, rhs = term("="), term(None)
    if _is_weight(lhs) != _is_weight(rhs):
        raise ValueError(f"{text!r}: a weight equated with a carrier term")
    return lhs, rhs


_MAP_KINDS = {"phiL": "phi_l", "phiR": "phi_r", "phiS": "phi_s", "psi": "psi", "tau": "tau"}
_MAP_STEP = r"\((\w+) x (\w+)\)|(\w+)"


def parse_map_equation(text: str):
    """The (lhs, rhs) pipelines of a map identity, each side read right to
    left into steps (kind, pos): (X x id) and a bare X are (X, 0), (id x X)
    is (X, 1)."""
    sides = text.split(" = ")
    if len(sides) != 2 or not all(re.fullmatch(rf"({_MAP_STEP})(\.?({_MAP_STEP}))*", side)
                                  for side in sides):
        raise ValueError(f"{text!r}: expected two composites of maps joined by ' = '")
    steps = [[(bare or x, 0) if bare or y == "id" else (y, 1) if x == "id" else (None, 1)
              for x, y, bare in reversed(re.findall(_MAP_STEP, side))] for side in sides]
    if not all(name in _MAP_KINDS for side in steps for name, _ in side):
        raise ValueError(f"{text!r}: a map is (X x id), (id x X) or X, X in {', '.join(_MAP_KINDS)}")
    return tuple(tuple((_MAP_KINDS[name], pos) for name, pos in side) for side in steps)


@lru_cache(maxsize=None)
def _level_tags(level: str) -> tuple:
    """Every tag the level checks, in report order: the levels it extends first."""
    base, _, own = LEVELS[level]
    return (_level_tags(base) if base else ()) + own


@lru_cache(maxsize=None)
def _compiled(level: str, mode: str):
    """The level's report scanner (every row of the level and the levels it
    extends; hit(tag, witness) per violated row and triple, in lexicographic
    order) or early-exit filter (its own rows; True when all hold), compiled
    from one generated triple loop over the level's tables.  A subterm used
    more than once is bound to a local at its first use (inside a guarded
    block, for that block only), as is the weight side of a guard."""
    report = mode == "report"
    tags = _level_tags(level) if report else LEVELS[level][2]
    rows = {tag: (parse_equation(text), guard) for tag, text, guard in POINTWISE_EQUATIONS
            if tag in tags}
    guarded = {g: [tag for tag in tags if rows[tag][1] == g] for g in tags}
    uses = Counter()

    def tally(t):
        uses[t] += 1
        if uses[t] == 1 and type(t) is tuple:
            tally(t[1])
            tally(t[2])

    for tag in tags:
        lhs, rhs = rows[tag][0]
        tally(lhs)
        tally(rhs)
        uses[lhs] += bool(guarded[tag])
    lines, fresh = [], count()

    def code(t, bound):
        if type(t) is str or t in bound:
            return bound.get(t, t)
        x, y = code(t[1], bound), code(t[2], bound)
        expr = f"{x} * {y}" if t[0] == "mul" else f"{t[0]}[{x}][{y}]"
        if uses[t] < 2:
            return expr
        bound[t] = f"t{next(fresh)}"
        return f"({bound[t]} := {expr})"

    def emit(tag, pad, bound):
        lhs, rhs = rows[tag][0]
        lines.append(f"{pad}if {code(lhs, bound)} != {code(rhs, bound)}:")
        lines.append(pad + (f"    hit({tag!r}, (a, b, c))" if report else "    return False"))
        if guarded[tag]:
            lines.append(f"{pad}elif {code(lhs, bound)}:")
            inner = dict(bound)
            for row in guarded[tag]:
                emit(row, pad + "    ", inner)

    bound = {}
    for tag in tags:
        if rows[tag][1] not in rows:
            emit(tag, " " * 16, bound)
    args = ", ".join(LEVELS[level][1] + (("hit",) if report else ()))
    source = "\n".join([f"def scan({args}):", "    rng = range(len(left))", "    for a in rng:",
                        "        for b in rng:", "            for c in rng:"] + lines
                       + ([] if report else ["    return True"]))
    namespace = {}
    exec(compile(source, f"<pointwise {level} {mode}>", "exec"), namespace)
    return namespace["scan"]


def pointwise_filter(level: str):
    """The early-exit filter of the level's own rows, not those of the levels
    it extends: True when they hold at every triple of the level's tables."""
    return _compiled(level, "filter")


def _scan(s: OmegaStructure, level: str, rows: str | None = None) -> AxiomReport:
    # rows: the level whose rows are scanned, when it is not ``level`` itself
    rows = rows or level
    col = _Collector()
    tables = (s.lam if f == "lam" else getattr(s, f).rows for f in LEVELS[rows][1])
    _compiled(rows, "report")(*tables, col.hit)
    return col.report(level, _level_tags(level))


# ---------------------------------------------------------------------------
# Pointwise checkers


def check_diassociative(s: OmegaStructure) -> AxiomReport:
    return _scan(s, "diassoc")


def check_eds(s: OmegaStructure) -> AxiomReport:
    return _scan(s, "eds")


def check_lambda_ets(s: OmegaStructure) -> AxiomReport:
    """EDS axioms, the six weight identities, and the guarded conditionals.

    A conditional pair is checked at a triple only when the corresponding
    unconditional weight equality holds there with a nonzero common value;
    when the equality itself fails only that violation is recorded.
    """
    if s.psi is not None and not s.weight_zero:
        raise StructureError(
            "not a strict lambda-ETS: structure carries a generalized psi map; "
            "use the map-level checker"
        )
    if not s.has_strict_weight and not s.weight_zero:
        raise StructureError("lambda-ETS check requires dot and lambda tables")
    # weight-0 mode: the weight table is identically zero, all six weight
    # identities hold and every conditional guard is zero
    return _scan(s, "lambda-ets", "eds" if s.weight_zero else None)


def check_ets(s: OmegaStructure) -> AxiomReport:
    """EDS axioms plus all eighteen displayed identities, unconditional."""
    if s.dot is None or s.star is None:
        raise StructureError("ETS check requires dot and star tables")
    return _scan(s, "ets")


# ---------------------------------------------------------------------------
# Map-level checkers (tensor formulation)

# Each pipeline is compiled from a text of MAP_EQUATIONS, read right to left
# as maps compose.  A step is (kind, pos): kind is "phi_l", "phi_r", "phi_s"
# (phiL, phiR, phiS: (x, y) -> (x<-y, x<|y), (x->y, x|>y), (x.y, x*y)), "tau"
# or "psi", acting on the tensor factors pos and pos + 1, where (X x id) and a
# bare X give pos 0 and (id x X) pos 1; "." is composition.  Pipelines list
# steps in application order (innermost map first).  A basis tuple is a flat
# index in base n, first factor most significant, so index order is
# lexicographic.  A set map (phi_*, tau) is a tuple of indices.  Each side
# composes its set-map prefix for all n**3 triples at once by gathers in C,
# into a table built once per structure: the canonical coefficient dicts that
# the rest of the side, from its first psi on, gives over the small
# arity-2/arity-1 spaces.  Both sides are compared as whole tuples; triples
# are walked only where they differ.


@lru_cache(maxsize=None)
def _map_pipelines(level: str) -> tuple:
    """(tag, lhs, rhs) per identity of the map level, in report order."""
    tags = MAP_TO_POINTWISE_TAGS if level == "maps" else ETS_MAP_TO_POINTWISE_TAGS
    return tuple((tag, *parse_map_equation(EQUATION_TEXT[tag])) for tag in tags)


def _gather(table, idx) -> tuple:
    """The tuple of table[i] for i in idx (itemgetter alone fails for n < 2)."""
    return itemgetter(*idx)(table) if len(idx) > 1 else tuple(table[i] for i in idx)


@lru_cache(maxsize=32)
def _digit_split(n: int, arity: int, p: int):
    """Split each flat index x of the given arity as (h * n**2 + m) * w + l,
    m indexing the factor pair p, p + 1.  Returns the tuples over all x of m,
    of h * n**2 * w + l (x with its pair zeroed) and of h * n * w + l (x with
    its pair removed, one arity down), and w."""
    nn, w = n * n, n ** (arity - p - 2)
    hml = [(x // (nn * w), x // w % nn, x % w) for x in range(n ** arity)]
    return (tuple(m for _, m, _ in hml), tuple(h * nn * w + l for h, _, l in hml),
            tuple(h * n * w + l for h, _, l in hml), w)


def _side_images(s: OmegaStructure):
    """images(steps, arity=3): the images under ``steps`` of all basis tuples
    of that arity in index order; flat indices until a psi acts, then dicts."""
    n, rng = s.size, range(s.size)
    ops = {"phi_l": (s.left, s.lhd), "phi_r": (s.right, s.rhd), "phi_s": (s.dot, s.star)}
    memo: dict = {}

    def step(kind, p, arity):
        out = memo.get((kind, p, arity))
        if out is None:
            # memo[kind] is the step on one factor pair by flat pair index:
            # the canonical (basis, coefficient) items for psi, else an index
            table = memo.get(kind)
            if table is None:
                if kind == "psi":
                    table = tuple(tuple(s.psi_map(a, b)._terms.items()) for a in rng for b in rng)
                elif kind == "tau":
                    table = tuple(b * n + a for a in rng for b in rng)
                else:
                    main, side = (t.rows for t in ops[kind])
                    table = tuple(a * n + b for ar, br in zip(main, side) for a, b in zip(ar, br))
                memo[kind] = table
            pair_of, base, down, w = _digit_split(n, arity, p)
            out = memo[kind, p, arity] = (
                tuple(tuple((r + b * w, c) for b, c in table[m]) for m, r in zip(pair_of, down))
                if kind == "psi"
                else tuple(map(add, base, map(mul, _gather(table, pair_of), repeat(w))))
            )
        return out

    def psi_part(steps, arity):
        # the images under the part of a side from its first psi on
        out = memo.get((steps, arity))
        if out is None:
            (_, p), rest = steps[0], steps[1:]
            after, rows = images(rest, arity - 1), step("psi", p, arity)
            linear = any(kind == "psi" for kind, _ in rest)  # after holds dicts
            out = memo[steps, arity] = tuple(
                {after[y]: c for y, c in row} if len(row) < 2 and not linear
                else after[row[0][0]] if len(row) == 1 and row[0][1] == 1
                else accumulate({}, ((k, c * d) for y, c in row for k, d in after[y].items())
                                if linear else ((after[y], c) for y, c in row))
                for row in rows
            )
        return out

    def images(steps, arity=3):
        out = None
        for i, (kind, p) in enumerate(steps):
            if kind == "psi":
                part = psi_part(steps[i:], arity)
                return part if out is None else _gather(part, out)
            table = step(kind, p, arity)
            out = table if out is None else _gather(table, out)
        return tuple(range(n ** arity)) if out is None else out

    return images


def _check_pipelines(s: OmegaStructure, level: str) -> AxiomReport:
    col = _Collector()
    images = _side_images(s)
    pipelines = _map_pipelines(level)
    for tag, lhs, rhs in pipelines:
        left, right = images(lhs), images(rhs)
        if left != right:
            for t in compress(product(range(s.size), repeat=3), map(ne, left, right)):
                col.hit(tag, t)
    return col.report(level, tuple(p[0] for p in pipelines))


def check_maps_level(s: OmegaStructure) -> AxiomReport:
    """Tensor-map formulation of the lambda level; accepts generalized psi."""
    if not s.has_weight:
        raise StructureError("map-level check requires weight data (lambda, psi, or weight-0)")
    return _check_pipelines(s, "maps")


def check_ets_maps_level(s: OmegaStructure) -> AxiomReport:
    """Tensor-map formulation of the ETS level (set maps, phi_* = (., *))."""
    if s.dot is None or s.star is None:
        raise StructureError("ETS map-level check requires dot and star tables")
    return _check_pipelines(s, "ets-maps")


def check(s: OmegaStructure, level: str) -> AxiomReport:
    """Dispatch by level name."""
    fns = {
        "diassoc": check_diassociative,
        "eds": check_eds,
        "lambda-ets": check_lambda_ets,
        "ets": check_ets,
        "maps": check_maps_level,
        "ets-maps": check_ets_maps_level,
    }
    if level not in fns:
        raise StructureError(f"unknown level {level!r} (choose from {sorted(fns)})")
    return fns[level](s)


# ---------------------------------------------------------------------------
# Constructions


def opposite(s: OmegaStructure) -> OmegaStructure:
    """All operations reversed, weights transposed: <- and -> trade tables, as
    do <| and |>."""
    trade = {"left": "right", "right": "left", "lhd": "rhd", "rhd": "lhd"}
    return replace(s, **{attr: _relabel(s, trade.get(attr, attr), range(s.size), flip=True)
                         for attr, _ in TABLES if getattr(s, attr) is not None})


def is_commutative(s: OmegaStructure) -> bool:
    return s == opposite(s)


def swap_conjugate(s: OmegaStructure, perm) -> OmegaStructure:
    """Relabel the carrier through a permutation (an isomorphism of structures)."""
    return replace(s, **{attr: _relabel(s, attr, perm)
                         for attr, _ in TABLES if getattr(s, attr) is not None})


def ets_to_lambda_ets(s: OmegaStructure, mu) -> OmegaStructure:
    """Induced strict weight table lambda[a,b] = mu[a*b] from an ETS."""
    if len(mu) != s.size:
        raise StructureError("mu must assign one scalar per carrier element")
    rep = check_ets(s)
    if not rep.ok:
        raise StructureError("input does not satisfy the ETS axioms:\n" + rep.summary())
    mu = tuple(exact_scalar(m, "mu entry") for m in mu)
    lam = tuple(
        tuple(mu[s.star(i, j)] for j in range(s.size)) for i in range(s.size)
    )
    return replace(s, lam=lam, psi=None)


def _proj_first(n):
    return OpTable(tuple(tuple(i for _ in range(n)) for i in range(n)))


def _proj_second(n):
    return OpTable(tuple(tuple(j for j in range(n)) for _ in range(n)))


def _default_labels(n):
    base = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(base):
        return tuple(base[:n])
    return tuple(f"e{i}" for i in range(n))


def example_weight_zero(eds: OmegaStructure, dot: OpTable | None = None) -> OmegaStructure:
    """Any EDS with identically-zero weights and an arbitrary dot."""
    rep = check_eds(eds)
    if not rep.ok:
        raise StructureError("not an EDS:\n" + rep.summary())
    dot = dot if dot is not None else _proj_first(eds.size)
    zero = tuple(tuple(0 for _ in range(eds.size)) for _ in range(eds.size))
    return replace(eds, dot=dot, lam=zero, psi=None, weight_zero=False)


def example_matching(weights, labels=None) -> OmegaStructure:
    """The set-indexed construction: projections for the four operations and
    weight lambda[a,b] = weights[b] with dot the first projection."""
    n = len(weights)
    weights = tuple(exact_scalar(w, "weight") for w in weights)
    lam = tuple(tuple(weights[j] for j in range(n)) for _ in range(n))
    return OmegaStructure(
        size=n,
        labels=tuple(labels) if labels else _default_labels(n),
        left=_proj_first(n),
        right=_proj_second(n),
        lhd=_proj_second(n),
        rhd=_proj_first(n),
        dot=_proj_first(n),
        lam=lam,
    )


def example_semigroup(table: OpTable, lam_const, labels=None) -> OmegaStructure:
    """The semigroup construction: star for <-, -> and dot; constant weight."""
    if not table.is_associative():
        raise StructureError("semigroup construction requires an associative table")
    n = table.n
    c = exact_scalar(lam_const, "weight")
    return OmegaStructure(
        size=n,
        labels=tuple(labels) if labels else _default_labels(n),
        left=table,
        right=table,
        lhd=_proj_second(n),
        rhd=_proj_first(n),
        dot=table,
        lam=tuple(tuple(c for _ in range(n)) for _ in range(n)),
    )


def example_abelian_group(table: OpTable, lam_const, labels=None) -> OmegaStructure:
    """The abelian-group construction: projections for <- and ->, difference
    maps for the side operations, Kronecker-delta weights, dot the first
    projection."""
    n = table.n
    if not table.is_associative():
        raise StructureError("group construction requires an associative table")
    if not table.is_commutative_table():
        raise StructureError("group construction requires a commutative table")
    unit = None
    for e in range(n):
        if all(table(e, x) == x and table(x, e) == x for x in range(n)):
            unit = e
            break
    if unit is None:
        raise StructureError("group construction requires a unit element")
    inv = [None] * n
    for x in range(n):
        for y in range(n):
            if table(x, y) == unit:
                inv[x] = y
                break
        if inv[x] is None:
            raise StructureError("group construction requires inverses")
    c = exact_scalar(lam_const, "weight")
    lhd = OpTable(tuple(tuple(table(i, inv[j]) for j in range(n)) for i in range(n)))
    rhd = OpTable(tuple(tuple(table(inv[i], j) for j in range(n)) for i in range(n)))
    lam = tuple(
        tuple(c if i == j else 0 for j in range(n)) for i in range(n)
    )
    return OmegaStructure(
        size=n,
        labels=tuple(labels) if labels else _default_labels(n),
        left=_proj_first(n),
        right=_proj_second(n),
        lhd=lhd,
        rhd=rhd,
        dot=_proj_first(n),
        lam=lam,
    )


def build_example(kind: str, **params) -> OmegaStructure:
    if kind in ("a", "weight_zero"):
        return example_weight_zero(params["eds"], params.get("dot"))
    if kind in ("b", "matching"):
        return example_matching(params["weights"], params.get("labels"))
    if kind in ("c", "semigroup"):
        return example_semigroup(params["table"], params.get("lam", 1), params.get("labels"))
    if kind in ("d", "abelian_group"):
        return example_abelian_group(params["table"], params.get("lam", 1), params.get("labels"))
    raise StructureError(f"unknown example kind {kind!r}")


# ---------------------------------------------------------------------------
# File formats: one record reader and one literal reader


def read_fields(text: str, sep: str | None = None):
    """Yield ``(lineno, key, value)`` per ``key = value`` record: each line loses
    its ``#`` comment, then splits on ``sep``; a record without ``=`` and a
    repeated key are refused, naming the line."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        for record in line.split(sep) if sep else (line,):
            if not record.strip():
                continue
            key, eq, value = record.partition("=")
            if not eq:
                raise StructureError(f"line {lineno}: expected 'key = value'")
            key = key.strip()
            if key in seen:
                raise StructureError(f"line {lineno}: duplicate key {key!r}")
            seen.add(key)
            yield lineno, key, value.strip()


# Tokens are brackets, braces, ':', ',' and runs of anything else but
# whitespace; a run may hold only str.isdigit() characters, '-' and '/'.
_LITERAL_TOKEN = re.compile(r"[\[\]{}:,]|[^\[\]{}:,\s]+")
_ODD_CHARACTER = re.compile(r"[^\[\]{}:,\s\d/-]")


def _scalar(token: str):
    """An int for an integer literal; a Fraction only for a non-integral ``p/q``."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = parse_scalar(token)
    except ValueError as exc:
        raise StructureError(str(exc)) from None
    return value.numerator if value.denominator == 1 else value


def _parse_value(text: str):
    """A scalar, ``[...]`` list or ``{scalar: value}`` sum; commas are optional."""
    for odd in _ODD_CHARACTER.finditer(text):
        if not odd.group().isdigit():
            raise StructureError(f"bad character {odd.group()!r} in value {text!r}")
    tokens = _LITERAL_TOKEN.findall(text)
    if not tokens:
        raise StructureError("empty value")
    tokens.reverse()

    def take():
        if not tokens:
            raise StructureError("value ends inside an unclosed '[' or '{'")
        return tokens.pop()

    # one [container, close, dict key read so far or None] per open bracket,
    # so nesting depth costs list entries, not Python frames
    stack = []
    tok = tokens.pop()
    while True:
        if tok == "[" or tok == "{":
            frame = [[], "]", None] if tok == "[" else [{}, "}", None]
            tok = take()
            if tok != frame[1]:
                stack.append(frame)
                continue
            value = frame[0]
        else:
            value = _scalar(tok)
        # hand the value to the open containers until one needs another token
        while stack:
            frame = stack[-1]
            out, close, key = frame
            if close == "]":
                out.append(value)
            elif key is None:
                if isinstance(value, (list, dict)):
                    raise StructureError("formal-sum keys must be scalars")
                if take() != ":":
                    raise StructureError("expected ':' in formal-sum literal")
                frame[2] = value
                tok = take()
                break
            else:
                if key in out:
                    raise StructureError(f"duplicate key {key} in formal-sum literal")
                out[key] = value
                frame[2] = None
            tok = take()
            if tok == ",":
                tok = take()
            if tok != close:
                break
            value = stack.pop()[0]
        else:
            if tokens:
                raise StructureError(f"trailing tokens in value {text!r}")
            return value


# json's C scanner: the value at an offset of a text, and the offset after it
_SCAN_JSON = json.JSONDecoder().scan_once


def _int_rows(text: str):
    """The rows of ``text`` when it is a JSON array of arrays of ints, such as
    ``[[0,1],[1,0]]``, read in one pass of json's C scanner; else None, and
    :func:`_parse_value` reads the text.  The literal reader gives the same
    rows for every text this accepts."""
    try:
        rows, end = _SCAN_JSON(text, 0)
    except (ValueError, StopIteration, RecursionError):
        return None
    if end != len(text) or type(rows) is not list:
        return None
    for row in rows:
        if type(row) is not list:
            return None
        for v in row:
            # a bool, a float, NaN or a string is not a plain int
            if type(v) is not int:
                return None
    return rows


def _as_matrix(value, what, cell):
    """A list-of-rows value with ``cell`` applied to each entry."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise StructureError(f"{what} must be a table of rows like [[..],[..]]")
    return [[cell(v) for v in row] for row in value]


def _describe(value) -> str:
    return {list: "a list", dict: "a formal sum"}.get(type(value)) or str(value)


def _as_integer(value, what) -> int:
    if type(value) is not int:
        raise StructureError(f"{what} must be an integer, got {_describe(value)}")
    return value


def _as_scalar(value, what):
    if isinstance(value, (list, dict)):
        raise StructureError(f"{what} must be a scalar, got {_describe(value)}")
    return value


_FLAG_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _as_flag(text: str, what) -> bool:
    """A boolean field: true/yes/1 or false/no/0, in any case."""
    try:
        return _FLAG_WORDS[text.strip().lower()]
    except KeyError:
        raise StructureError(
            f"{what} must be one of true, false, yes, no, 1, 0; got {text.strip()!r}"
        ) from None


def _as_sum_cell(cell, what):
    """A table cell: a formal sum {basis index: scalar} or a bare basis index."""
    if isinstance(cell, dict):
        return FormalSum(
            {_as_integer(b, f"{what} key"): _as_scalar(c, f"{what} coefficient")
             for b, c in cell.items()}
        )
    return FormalSum.term(_as_integer(cell, f"{what} entry"))


# how a cell of a weight table is read (an operation table is an OpTable)
_CELLS = {"lam": lambda v: _as_scalar(v, "lambda entry"), "psi": lambda v: _as_sum_cell(v, "psi")}


def _read_table(text: str, attr: str, key: str):
    """The rows of table ``attr``, written as ``text`` under ``key``.  Rows of
    ints go straight to ``OpTable`` or ``OmegaStructure``, which check the
    rest; any other value goes through the cell reader, as do psi's rows,
    whose bare basis indices become formal sums."""
    rows = None if attr == "psi" else _int_rows(text)
    if rows is None:
        cell = _CELLS.get(attr) or partial(_as_scalar, what=f"{key} table entry")
        rows = _as_matrix(_parse_value(text), key, cell)
    return rows if attr in _CELLS else OpTable(rows)


def parse_structure(text: str) -> OmegaStructure:
    """Parse the plain-text structure format (``key = value`` lines)."""
    fields = {key: (lineno, value) for lineno, key, value in read_fields(text)}
    if "size" not in fields:
        raise StructureError("missing 'size'")
    size_text = fields.pop("size")[1]
    if not size_text.isdecimal():
        raise StructureError(f"size must be a nonnegative integer, got {size_text!r}")
    size = int(size_text)
    tables = {}
    for i, (attr, key) in enumerate(TABLES):
        if key not in fields:
            if i < 4:
                raise StructureError(f"missing table {key!r}")
            continue
        tables[attr] = _read_table(fields.pop(key)[1], attr, key)
        if i < 4 and tables[attr].n != size:
            raise StructureError(f"table {key} has wrong size")
    # the default labels only once the required tables have bounded the size
    labels_field = fields.pop("labels", None)
    labels = tuple(labels_field[1].split()) if labels_field else _default_labels(size)
    lineno, flag = fields.pop("weight_zero", (None, "false"))
    weight_zero = _as_flag(flag, "weight_zero")
    if weight_zero and "psi" in tables:
        raise StructureError(f"line {lineno}: 'psi' and 'weight_zero = true' are exclusive")
    if fields:
        key = next(iter(fields))
        raise StructureError(f"line {fields[key][0]}: unknown key {key!r}")
    s = OmegaStructure(size=size, labels=labels, weight_zero=weight_zero, **tables)
    if labels_field:
        _check_labels(labels, f"line {labels_field[0]}: ")
    return s


def _fmt_rows(rows, cell=str) -> str:
    return "[" + ",".join("[" + ",".join(map(cell, row)) + "]" for row in rows) + "]"


def _fmt_sum(cell: FormalSum) -> str:
    return "{" + ",".join(f"{b}:{c}" for b, c in cell) + "}"


# A label: one or more characters, none of them whitespace or a character
# the readers split records, values and label lists on.  Expressions read a
# type label after '[' by the same pattern (see :func:`expr.tokenize`).
LABEL = re.compile(r"[^\s,\[\]{}#;=]+")


def _check_labels(labels, where: str = "") -> None:
    """Refuse, naming it, a label that a file could not read back (see
    ``LABEL``).  The readers refuse one too, with ``where`` naming its
    line."""
    for label in labels:
        if not LABEL.fullmatch(label):
            raise StructureError(
                f"{where}label {label!r} cannot be written: a label needs at least one "
                "character and none of whitespace , [ ] { } # ; ="
            )


def serialize_structure(s: OmegaStructure) -> str:
    _check_labels(s.labels)
    lines = [f"size = {s.size}", "labels = " + " ".join(s.labels)]
    for attr, key in TABLES:
        table = getattr(s, attr)
        if table is not None:
            rows = table if attr in _CELLS else table.rows
            lines.append(f"{key:<5} = " + _fmt_rows(rows, _fmt_sum if attr == "psi" else str))
    if s.weight_zero:
        lines.append("weight_zero = true")
    return "\n".join(lines) + "\n"
