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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product, repeat
from operator import add, itemgetter, mul, ne

from .scalars import FormalSum, accumulate, parse_scalar

__all__ = [
    "OpTable",
    "OmegaStructure",
    "Violation",
    "AxiomReport",
    "StructureError",
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
    "EQUATION_TEXT",
    "MAP_TO_POINTWISE_TAGS",
    "ETS_MAP_TO_POINTWISE_TAGS",
]


class StructureError(ValueError):
    """Raised for malformed structures or unmet checker preconditions."""


def _table_entry(v) -> int:
    iv = int(v)
    if iv != v:
        raise StructureError(f"table entry {v} is not an integer")
    return iv


class OpTable:
    """A binary operation on {0..n-1} as a row-major table (row = first arg)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(_table_entry(v) for v in row) for row in rows)
        n = len(rows)
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
        n = self.n
        return OpTable(tuple(tuple(self.rows[j][i] for j in range(n)) for i in range(n)))

    def conjugate(self, perm) -> "OpTable":
        """Relabel the carrier through the permutation perm (a sequence)."""
        n = self.n
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        return OpTable(
            tuple(tuple(inv[self.rows[perm[i]][perm[j]]] for j in range(n)) for i in range(n))
        )

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


def _conj_lam(lam, perm):
    n = len(lam)
    return tuple(tuple(lam[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def _conj_psi(psi, perm):
    n = len(psi)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(
        tuple(psi[perm[i]][perm[j]].map_basis(lambda b: inv[b]) for j in range(n))
        for i in range(n)
    )


@dataclass(frozen=True)
class OmegaStructure:
    """Carrier {0..n-1} with display labels and the operation tables.

    Weight data is either strict (``dot`` + ``lam``), generalized (``psi``
    alone), or absent; ``weight_zero`` marks the weight-0 mode in which the
    weight term of every product and every checker vanishes without
    materializing a table, whatever weight data is also present.  A structure
    file may not set both ``psi`` and ``weight_zero``.
    ``star`` is only used by the ETS-level checkers.
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
        for name in ("left", "right", "lhd", "rhd", "dot", "star"):
            table = getattr(self, name)
            if table is not None and table.n != n:
                raise StructureError(f"table {name} has wrong size")
        if self.lam is not None:
            if self.dot is None:
                raise StructureError("lambda table requires a dot table")
            if self.psi is not None:
                raise StructureError("strict (dot, lambda) and generalized psi are exclusive")
            if len(self.lam) != n or any(len(row) != n for row in self.lam):
                raise StructureError("lambda table has wrong shape")
        if self.psi is not None:
            if len(self.psi) != n or any(len(row) != n for row in self.psi):
                raise StructureError("psi table has wrong shape")
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

    def lam_at(self, i: int, j: int) -> Fraction:
        if self.weight_zero:
            return Fraction(0)
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
            return FormalSum.term(self.dot(i, j), self.lam[i][j])
        raise StructureError("structure has no weight data")

    def label_of(self, i: int) -> str:
        return self.labels[i]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureError(f"unknown carrier label {label!r}") from None

    def eds_key(self):
        return (self.left.rows, self.right.rows, self.lhd.rows, self.rhd.rows)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class Violation:
    tag: str
    witness: tuple
    count: int
    detail: str = ""


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
        out = []
        seen = set(self.first)
        for tag in tag_order:
            if tag in seen:
                out.append(Violation(tag, self.first[tag], self.counts[tag]))
        # any tags not in the declared order (defensive) go last
        for tag in sorted(seen.difference(tag_order)):
            out.append(Violation(tag, self.first[tag], self.counts[tag]))
        return AxiomReport(level, out)


EQUATION_TEXT = {
    "dia1": "(a<-b)<-c = a<-(b<-c)",
    "dia2": "(a<-b)<-c = a<-(b->c)",
    "dia3": "(a->b)<-c = a->(b<-c)",
    "dia4": "(a<-b)->c = a->(b->c)",
    "dia5": "(a->b)->c = a->(b->c)",
    "EQ1": "a|>(b<-c) = a|>b",
    "EQ2": "(a->b)<|c = b<|c",
    "EQ3": "(a<|b)<-((a<-b)<|c) = a<|(b<-c)",
    "EQ4": "(a<|b)<|((a<-b)<|c) = b<|c",
    "EQ5": "(a<|b)->((a<-b)<|c) = a<|(b->c)",
    "EQ6": "(a<|b)|>((a<-b)<|c) = b|>c",
    "EQ7": "(a|>(b->c))<-(b|>c) = (a<-b)|>c",
    "EQ8": "(a|>(b->c))<|(b|>c) = a<|b",
    "EQ9": "(a|>(b->c))->(b|>c) = (a->b)|>c",
    "EQ10": "(a|>(b->c))|>(b|>c) = a|>b",
    "EQ11": "L[a->b,c] = L[b,c]",
    "EQ12": "L[a<|b,(a<-b)<|c] = L[b,c]",
    "EQ13": "L[a<-b,c] = L[a,b->c]",
    "EQ14": "L[a|>(b->c),b|>c] = L[a,b]",
    "EQ15": "L[a,b] = L[a,b<-c]",
    "EQ16": "L[a,b]*L[a.b,c] = L[b,c]*L[a,b.c]",
    "eq17": "a|>b = a|>(b.c)",
    "eq18": "(a->b).c = a->(b.c)",
    "eq19": "(a<|b).((a<-b)<|c) = a<|(b.c)",
    "eq20": "(a<-b)<-c = a<-(b.c)",
    "eq21": "a->(b->c) = (a.b)->c",
    "eq22": "(a|>(b->c)).(b|>c) = (a.b)|>c",
    "eq23": "(a<-b).c = a.(b->c)",
    "eq24": "a<|b = b|>c",
    "eq25": "(a.b)<|c = b<|c",
    "eq26": "(a.b)<-c = a.(b<-c)",
    "eq27": "(a.b).c = a.(b.c)",
    "EQ17": "(a->b)*c = b*c",
    "EQ20": "(a<|b)*((a<-b)<|c) = b*c",
    "EQ23": "(a|>(b->c))*(b|>c) = a*b",
    "EQ26": "(a<-b)*c = a*(b->c)",
    "EQ29": "a*b = a*(b<-c)",
    "EQ32": "a*b = a*(b.c)",
    "EQ33": "(a.b)*c = b*c",
    "eds1": "(tau x id)(id x phiL)(tau x id)(phiR x id) = (phiR x id)(id x phiL)",
    "eds2": "(id x phiL)(tau x id)(id x phiL)(tau x id)(phiL x id) = (phiL x id)(id x phiL)",
    "eds3": "(id x phiR)(tau x id)(id x phiL)(tau x id)(phiL x id) = (phiL x id)(id x phiR)",
    "eds4": "(id x phiL)(phiR x id)(id x phiR) = (phiR x id)(id x tau)(phiL x id)",
    "eds5": "(id x phiR)(phiR x id)(id x phiR) = (phiR x id)(id x tau)(phiR x id)",
    "equ1": "phiR(id x psi) = (psi x id)(id x tau)(phiR x id)",
    "equ2": "(psi x id)(id x tau)(id x phiL)(tau x id)(phiL x id) = tau.phiL(id x psi)",
    "equ3": "(id x psi)(phiR x id)(id x phiR) = phiR(psi x id)",
    "equ4": "(psi x id)(id x tau)(phiL x id) = (psi x id)(id x phiR)",
    "equ5": "(psi x id)(id x phiL) = phiL(psi x id)",
    "equ6": "psi(psi x id) = psi(id x psi)",
    "equu1": "(tau x id)(id x phiS)(tau x id)(phiR x id) = (phiR x id)(id x phiS)",
    "equu2": "(id x phiS)(tau x id)(id x phiL)(tau x id)(phiL x id) = (phiL x id)(id x phiS)",
    "equu3": "(id x phiS)(phiR x id)(id x phiR) = (phiR x id)(id x tau)(phiS x id)",
    "equu4": "(id x phiS)(tau x id)(phiL x id) = (id x phiS)(tau x id)(id x tau)(id x phiR)",
    "equu5": "(phiS x id)(id x phiL) = (tau x id)(id x phiL)(tau x id)(phiS x id)",
    "equu6": "(phiS x id)(id x tau)(phiS x id) = (id x tau)(phiS x id)(id x phiS)",
    "rb": "P_a(u).P_b(v) = P_{a->b}(P_{a|>b}(u).v) + P_{a<-b}(u.P_{a<|b}(v)) + L[a,b] P_{a.b}(u.v)",
    "dend1": "(u <_a v) <_b w = u <_{a->b} (v >_{a|>b} w) + u <_{a<-b} (v <_{a<|b} w)",
    "dend2": "(u >_a v) <_b w = u >_a (v <_b w)",
    "dend3": "u >_a (v >_b w) = (u >_{a|>b} v) >_{a->b} w + (u <_{a<|b} v) >_{a<-b} w",
}


# ---------------------------------------------------------------------------
# Pointwise checkers

DIA_TAGS = ("dia1", "dia2", "dia3", "dia4", "dia5")
EDS_TAGS = DIA_TAGS + tuple(f"EQ{k}" for k in range(1, 11))
LAM_TAGS = tuple(f"EQ{k}" for k in range(11, 17))
COND_TAGS = tuple(f"eq{k}" for k in range(17, 28))
STAR_TAGS = ("EQ17", "EQ20", "EQ23", "EQ26", "EQ29", "EQ32", "EQ33")


def _scan_dia(L, R, n, col):
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                if L[L[i][j]][k] != L[i][L[j][k]]:
                    col.hit("dia1", (i, j, k))
                if L[L[i][j]][k] != L[i][R[j][k]]:
                    col.hit("dia2", (i, j, k))
                if L[R[i][j]][k] != R[i][L[j][k]]:
                    col.hit("dia3", (i, j, k))
                if R[L[i][j]][k] != R[i][R[j][k]]:
                    col.hit("dia4", (i, j, k))
                if R[R[i][j]][k] != R[i][R[j][k]]:
                    col.hit("dia5", (i, j, k))


def _scan_eds(L, R, Lh, Rh, n, col):
    _scan_dia(L, R, n, col)
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                u = Lh[L[i][j]][k]   # (a<-b)<|c
                v = Rh[i][R[j][k]]   # a|>(b->c)
                w = Rh[j][k]         # b|>c
                if Rh[i][L[j][k]] != Rh[i][j]:
                    col.hit("EQ1", (i, j, k))
                if Lh[R[i][j]][k] != Lh[j][k]:
                    col.hit("EQ2", (i, j, k))
                if L[Lh[i][j]][u] != Lh[i][L[j][k]]:
                    col.hit("EQ3", (i, j, k))
                if Lh[Lh[i][j]][u] != Lh[j][k]:
                    col.hit("EQ4", (i, j, k))
                if R[Lh[i][j]][u] != Lh[i][R[j][k]]:
                    col.hit("EQ5", (i, j, k))
                if Rh[Lh[i][j]][u] != Rh[j][k]:
                    col.hit("EQ6", (i, j, k))
                if L[v][w] != Rh[L[i][j]][k]:
                    col.hit("EQ7", (i, j, k))
                if Lh[v][w] != Lh[i][j]:
                    col.hit("EQ8", (i, j, k))
                if R[v][w] != Rh[R[i][j]][k]:
                    col.hit("EQ9", (i, j, k))
                if Rh[v][w] != Rh[i][j]:
                    col.hit("EQ10", (i, j, k))


def check_diassociative(s: OmegaStructure) -> AxiomReport:
    col = _Collector()
    _scan_dia(s.left.rows, s.right.rows, s.size, col)
    return col.report("diassoc", DIA_TAGS)


def check_eds(s: OmegaStructure) -> AxiomReport:
    col = _Collector()
    _scan_eds(s.left.rows, s.right.rows, s.lhd.rows, s.rhd.rows, s.size, col)
    return col.report("eds", EDS_TAGS)


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
    col = _Collector()
    n = s.size
    L, R, Lh, Rh = s.left.rows, s.right.rows, s.lhd.rows, s.rhd.rows
    _scan_eds(L, R, Lh, Rh, n, col)
    if s.weight_zero:
        # weight-0 mode: the weight table is identically zero, all six weight
        # identities and every conditional guard degenerate.
        return col.report("lambda-ets", EDS_TAGS + LAM_TAGS + COND_TAGS)
    D = s.dot.rows
    lam = s.lam
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                u = Lh[L[i][j]][k]
                v = Rh[i][R[j][k]]
                w = Rh[j][k]
                # EQ11 + conditional pair (eq17, eq18)
                if lam[R[i][j]][k] != lam[j][k]:
                    col.hit("EQ11", (i, j, k))
                elif lam[j][k]:
                    if Rh[i][j] != Rh[i][D[j][k]]:
                        col.hit("eq17", (i, j, k))
                    if D[R[i][j]][k] != R[i][D[j][k]]:
                        col.hit("eq18", (i, j, k))
                # EQ12 + (eq19, eq20)
                if lam[Lh[i][j]][u] != lam[j][k]:
                    col.hit("EQ12", (i, j, k))
                elif lam[j][k]:
                    if D[Lh[i][j]][u] != Lh[i][D[j][k]]:
                        col.hit("eq19", (i, j, k))
                    if L[L[i][j]][k] != L[i][D[j][k]]:
                        col.hit("eq20", (i, j, k))
                # EQ13 + (eq23, eq24)
                if lam[L[i][j]][k] != lam[i][R[j][k]]:
                    col.hit("EQ13", (i, j, k))
                elif lam[L[i][j]][k]:
                    if D[L[i][j]][k] != D[i][R[j][k]]:
                        col.hit("eq23", (i, j, k))
                    if Lh[i][j] != Rh[j][k]:
                        col.hit("eq24", (i, j, k))
                # EQ14 + (eq21, eq22)
                if lam[v][w] != lam[i][j]:
                    col.hit("EQ14", (i, j, k))
                elif lam[i][j]:
                    if R[i][R[j][k]] != R[D[i][j]][k]:
                        col.hit("eq21", (i, j, k))
                    if D[v][w] != Rh[D[i][j]][k]:
                        col.hit("eq22", (i, j, k))
                # EQ15 + (eq25, eq26)
                if lam[i][j] != lam[i][L[j][k]]:
                    col.hit("EQ15", (i, j, k))
                elif lam[i][j]:
                    if Lh[D[i][j]][k] != Lh[j][k]:
                        col.hit("eq25", (i, j, k))
                    if L[D[i][j]][k] != D[i][L[j][k]]:
                        col.hit("eq26", (i, j, k))
                # EQ16 + (eq27)
                p = lam[i][j] * lam[D[i][j]][k]
                if p != lam[j][k] * lam[i][D[j][k]]:
                    col.hit("EQ16", (i, j, k))
                elif p:
                    if D[D[i][j]][k] != D[i][D[j][k]]:
                        col.hit("eq27", (i, j, k))
    return col.report("lambda-ets", EDS_TAGS + LAM_TAGS + COND_TAGS)


def check_ets(s: OmegaStructure) -> AxiomReport:
    """EDS axioms plus all eighteen displayed identities, unconditional."""
    if s.dot is None or s.star is None:
        raise StructureError("ETS check requires dot and star tables")
    col = _Collector()
    n = s.size
    L, R, Lh, Rh = s.left.rows, s.right.rows, s.lhd.rows, s.rhd.rows
    D, S = s.dot.rows, s.star.rows
    _scan_eds(L, R, Lh, Rh, n, col)
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                u = Lh[L[i][j]][k]
                v = Rh[i][R[j][k]]
                w = Rh[j][k]
                if S[R[i][j]][k] != S[j][k]:
                    col.hit("EQ17", (i, j, k))
                if D[R[i][j]][k] != R[i][D[j][k]]:
                    col.hit("eq18", (i, j, k))
                if Rh[i][j] != Rh[i][D[j][k]]:
                    col.hit("eq17", (i, j, k))
                if S[Lh[i][j]][u] != S[j][k]:
                    col.hit("EQ20", (i, j, k))
                if D[Lh[i][j]][u] != Lh[i][D[j][k]]:
                    col.hit("eq19", (i, j, k))
                if L[L[i][j]][k] != L[i][D[j][k]]:
                    col.hit("eq20", (i, j, k))
                if S[v][w] != S[i][j]:
                    col.hit("EQ23", (i, j, k))
                if R[i][R[j][k]] != R[D[i][j]][k]:
                    col.hit("eq21", (i, j, k))
                if D[v][w] != Rh[D[i][j]][k]:
                    col.hit("eq22", (i, j, k))
                if S[L[i][j]][k] != S[i][R[j][k]]:
                    col.hit("EQ26", (i, j, k))
                if D[L[i][j]][k] != D[i][R[j][k]]:
                    col.hit("eq23", (i, j, k))
                if Lh[i][j] != Rh[j][k]:
                    col.hit("eq24", (i, j, k))
                if S[i][j] != S[i][L[j][k]]:
                    col.hit("EQ29", (i, j, k))
                if Lh[D[i][j]][k] != Lh[j][k]:
                    col.hit("eq25", (i, j, k))
                if L[D[i][j]][k] != D[i][L[j][k]]:
                    col.hit("eq26", (i, j, k))
                if S[i][j] != S[i][D[j][k]]:
                    col.hit("EQ32", (i, j, k))
                if S[D[i][j]][k] != S[j][k]:
                    col.hit("EQ33", (i, j, k))
                if D[D[i][j]][k] != D[i][D[j][k]]:
                    col.hit("eq27", (i, j, k))
    order = EDS_TAGS + ("EQ17", "eq18", "eq17", "EQ20", "eq19", "eq20", "EQ23",
                        "eq21", "eq22", "EQ26", "eq23", "eq24", "EQ29", "eq25",
                        "eq26", "EQ32", "EQ33", "eq27")
    return col.report("ets", order)


# ---------------------------------------------------------------------------
# Map-level checkers (tensor formulation)

# A pipeline step is (kind, pos): kind is "phi_l", "phi_r", "phi_s", "tau" or
# "psi", acting on the tensor factors pos and pos + 1; pipelines list steps in
# application order (innermost map first).  A basis tuple is a flat index in
# base n, first factor most significant, so index order is lexicographic.  A
# set map (phi_*, tau) is a tuple of indices.  Each side composes its set-map
# prefix for all n**3 triples at once by gathers in C, into a table built once
# per structure: the canonical coefficient dicts that the rest of the side,
# from its first psi on, gives over the small arity-2/arity-1 spaces.  Both
# sides are compared as whole tuples; triples are walked only where they differ.

_MAPS_EDS_PIPELINES = (
    ("eds1", (("phi_r", 0), ("tau", 0), ("phi_l", 1), ("tau", 0)),
             (("phi_l", 1), ("phi_r", 0))),
    ("eds2", (("phi_l", 0), ("tau", 0), ("phi_l", 1), ("tau", 0), ("phi_l", 1)),
             (("phi_l", 1), ("phi_l", 0))),
    ("eds3", (("phi_l", 0), ("tau", 0), ("phi_l", 1), ("tau", 0), ("phi_r", 1)),
             (("phi_r", 1), ("phi_l", 0))),
    ("eds4", (("phi_r", 1), ("phi_r", 0), ("phi_l", 1)),
             (("phi_l", 0), ("tau", 1), ("phi_r", 0))),
    ("eds5", (("phi_r", 1), ("phi_r", 0), ("phi_r", 1)),
             (("phi_r", 0), ("tau", 1), ("phi_r", 0))),
)

_MAPS_PSI_PIPELINES = (
    ("equ1", (("psi", 1), ("phi_r", 0)),
             (("phi_r", 0), ("tau", 1), ("psi", 0))),
    ("equ2", (("phi_l", 0), ("tau", 0), ("phi_l", 1), ("tau", 1), ("psi", 0)),
             (("psi", 1), ("phi_l", 0), ("tau", 0))),
    ("equ3", (("phi_r", 1), ("phi_r", 0), ("psi", 1)),
             (("psi", 0), ("phi_r", 0))),
    ("equ4", (("phi_l", 0), ("tau", 1), ("psi", 0)),
             (("phi_r", 1), ("psi", 0))),
    ("equ5", (("phi_l", 1), ("psi", 0)),
             (("psi", 0), ("phi_l", 0))),
    ("equ6", (("psi", 0), ("psi", 0)),
             (("psi", 1), ("psi", 0))),
)

_MAPS_STAR_PIPELINES = (
    ("equu1", (("phi_r", 0), ("tau", 0), ("phi_s", 1), ("tau", 0)),
              (("phi_s", 1), ("phi_r", 0))),
    ("equu2", (("phi_l", 0), ("tau", 0), ("phi_l", 1), ("tau", 0), ("phi_s", 1)),
              (("phi_s", 1), ("phi_l", 0))),
    ("equu3", (("phi_r", 1), ("phi_r", 0), ("phi_s", 1)),
              (("phi_s", 0), ("tau", 1), ("phi_r", 0))),
    ("equu4", (("phi_l", 0), ("tau", 0), ("phi_s", 1)),
              (("phi_r", 1), ("tau", 1), ("tau", 0), ("phi_s", 1))),
    ("equu5", (("phi_l", 1), ("phi_s", 0)),
              (("phi_s", 0), ("tau", 0), ("phi_l", 1), ("tau", 0))),
    ("equu6", (("phi_s", 0), ("tau", 1), ("phi_s", 0)),
              (("phi_s", 1), ("phi_s", 0), ("tau", 1))),
)

# pointwise tags bundled by each map identity (verdict-equivalent groups)
MAP_TO_POINTWISE_TAGS = {
    "eds1": ("dia3", "EQ1", "EQ2"),
    "eds2": ("dia1", "EQ3", "EQ4"),
    "eds3": ("dia2", "EQ5", "EQ6"),
    "eds4": ("dia4", "EQ7", "EQ8"),
    "eds5": ("dia5", "EQ9", "EQ10"),
    "equ1": ("EQ11", "eq17", "eq18"),
    "equ2": ("EQ12", "eq19", "eq20"),
    "equ3": ("EQ14", "eq21", "eq22"),
    "equ4": ("EQ13", "eq23", "eq24"),
    "equ5": ("EQ15", "eq25", "eq26"),
    "equ6": ("EQ16", "eq27"),
}

ETS_MAP_TO_POINTWISE_TAGS = {
    "eds1": ("dia3", "EQ1", "EQ2"),
    "eds2": ("dia1", "EQ3", "EQ4"),
    "eds3": ("dia2", "EQ5", "EQ6"),
    "eds4": ("dia4", "EQ7", "EQ8"),
    "eds5": ("dia5", "EQ9", "EQ10"),
    "equu1": ("EQ17", "eq18", "eq17"),
    "equu2": ("EQ20", "eq19", "eq20"),
    "equu3": ("EQ23", "eq21", "eq22"),
    "equu4": ("EQ26", "eq23", "eq24"),
    "equu5": ("EQ29", "eq25", "eq26"),
    "equu6": ("EQ32", "EQ33", "eq27"),
}


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


def _check_pipelines(s: OmegaStructure, pipelines, level: str) -> AxiomReport:
    col = _Collector()
    images = _side_images(s)
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
    return _check_pipelines(s, _MAPS_EDS_PIPELINES + _MAPS_PSI_PIPELINES, "maps")


def check_ets_maps_level(s: OmegaStructure) -> AxiomReport:
    """Tensor-map formulation of the ETS level (set maps, phi_* = (., *))."""
    if s.dot is None or s.star is None:
        raise StructureError("ETS map-level check requires dot and star tables")
    return _check_pipelines(s, _MAPS_EDS_PIPELINES + _MAPS_STAR_PIPELINES, "ets-maps")


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
    """All operations reversed, weights transposed."""
    return replace(
        s,
        left=s.right.flipped(),
        right=s.left.flipped(),
        lhd=s.rhd.flipped(),
        rhd=s.lhd.flipped(),
        dot=s.dot.flipped() if s.dot is not None else None,
        star=s.star.flipped() if s.star is not None else None,
        lam=tuple(tuple(s.lam[j][i] for j in range(s.size)) for i in range(s.size))
        if s.lam is not None
        else None,
        psi=tuple(tuple(s.psi[j][i] for j in range(s.size)) for i in range(s.size))
        if s.psi is not None
        else None,
    )


def is_commutative(s: OmegaStructure) -> bool:
    return s == opposite(s)


def swap_conjugate(s: OmegaStructure, perm) -> OmegaStructure:
    """Relabel the carrier through a permutation (an isomorphism of structures)."""
    return replace(
        s,
        left=s.left.conjugate(perm),
        right=s.right.conjugate(perm),
        lhd=s.lhd.conjugate(perm),
        rhd=s.rhd.conjugate(perm),
        dot=s.dot.conjugate(perm) if s.dot is not None else None,
        star=s.star.conjugate(perm) if s.star is not None else None,
        lam=_conj_lam(s.lam, perm) if s.lam is not None else None,
        psi=_conj_psi(s.psi, perm) if s.psi is not None else None,
    )


def ets_to_lambda_ets(s: OmegaStructure, mu) -> OmegaStructure:
    """Induced strict weight table lambda[a,b] = mu[a*b] from an ETS."""
    if len(mu) != s.size:
        raise StructureError("mu must assign one scalar per carrier element")
    rep = check_ets(s)
    if not rep.ok:
        raise StructureError("input does not satisfy the ETS axioms:\n" + rep.summary())
    mu = tuple(Fraction(m) for m in mu)
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
    zero = tuple(tuple(Fraction(0) for _ in range(eds.size)) for _ in range(eds.size))
    return replace(eds, dot=dot, lam=zero, psi=None, weight_zero=False)


def example_matching(weights, labels=None) -> OmegaStructure:
    """The set-indexed construction: projections for the four operations and
    weight lambda[a,b] = weights[b] with dot the first projection."""
    n = len(weights)
    weights = tuple(Fraction(w) for w in weights)
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
    c = Fraction(lam_const)
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
    c = Fraction(lam_const)
    lhd = OpTable(tuple(tuple(table(i, inv[j]) for j in range(n)) for i in range(n)))
    rhd = OpTable(tuple(tuple(table(inv[i], j) for j in range(n)) for i in range(n)))
    lam = tuple(
        tuple(c if i == j else Fraction(0) for j in range(n)) for i in range(n)
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
# Structure file format


def _tokenize_value(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "[]{}:,":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in "-/"):
                j += 1
            if j == i:
                raise StructureError(f"bad character {ch!r} in value {text!r}")
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse_tokens(tokens, pos):
    tok = _token_at(tokens, pos)
    if tok == "[":
        out = []
        pos += 1
        while _token_at(tokens, pos) != "]":
            item, pos = _parse_tokens(tokens, pos)
            out.append(item)
            if _token_at(tokens, pos) == ",":
                pos += 1
        return out, pos + 1
    if tok == "{":
        out = {}
        pos += 1
        while _token_at(tokens, pos) != "}":
            key, pos = _parse_tokens(tokens, pos)
            if not isinstance(key, Fraction):
                raise StructureError("formal-sum keys must be scalars")
            if _token_at(tokens, pos) != ":":
                raise StructureError("expected ':' in formal-sum literal")
            val, pos = _parse_tokens(tokens, pos + 1)
            if key in out:
                raise StructureError(f"duplicate key {key} in formal-sum literal")
            out[key] = val
            if _token_at(tokens, pos) == ",":
                pos += 1
        return out, pos + 1
    try:
        return parse_scalar(tok), pos + 1
    except ValueError as exc:
        raise StructureError(str(exc)) from None


def _token_at(tokens, pos):
    if pos >= len(tokens):
        raise StructureError("value ends inside an unclosed '[' or '{'")
    return tokens[pos]


def _parse_value(text: str):
    tokens = _tokenize_value(text)
    if not tokens:
        raise StructureError("empty value")
    value, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise StructureError(f"trailing tokens in value {text!r}")
    return value


def _as_matrix(value, what, cell):
    """A list-of-rows value with ``cell`` applied to each entry."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise StructureError(f"{what} must be a table of rows like [[..],[..]]")
    return [[cell(v) for v in row] for row in value]


def _describe(value) -> str:
    if isinstance(value, list):
        return "a list"
    if isinstance(value, dict):
        return "a formal sum"
    return str(value)


def _as_integer(value, what) -> int:
    if not isinstance(value, Fraction) or value.denominator != 1:
        raise StructureError(f"{what} must be an integer, got {_describe(value)}")
    return value.numerator


def _as_scalar(value, what) -> Fraction:
    if not isinstance(value, Fraction):
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


def _as_int_table(value, what):
    return OpTable(_as_matrix(value, what, lambda v: _as_scalar(v, f"{what} table entry")))


def _as_sum_cell(cell, what):
    """A table cell: a formal sum {basis index: scalar} or a bare basis index."""
    if isinstance(cell, dict):
        return FormalSum(
            {_as_integer(b, f"{what} key"): _as_scalar(c, f"{what} coefficient")
             for b, c in cell.items()}
        )
    return FormalSum.term(_as_integer(cell, f"{what} entry"))


def parse_structure(text: str) -> OmegaStructure:
    """Parse the plain-text structure format (``key = value`` lines)."""
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StructureError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise StructureError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = (lineno, value)
    if "size" not in fields:
        raise StructureError("missing 'size'")
    size_text = fields.pop("size")[1]
    if not size_text.isdecimal():
        raise StructureError(f"size must be a nonnegative integer, got {size_text!r}")
    size = int(size_text)
    tables = {}
    for key in ("left", "right", "lhd", "rhd"):
        if key not in fields:
            raise StructureError(f"missing table {key!r}")
        tables[key] = _as_int_table(_parse_value(fields.pop(key)[1]), key)
        if tables[key].n != size:
            raise StructureError(f"table {key} has wrong size")
    if "labels" in fields:
        labels = tuple(fields.pop("labels")[1].split())
    else:
        labels = _default_labels(size)
    dot = star = lam = psi = None
    if "dot" in fields:
        dot = _as_int_table(_parse_value(fields.pop("dot")[1]), "dot")
    if "star" in fields:
        star = _as_int_table(_parse_value(fields.pop("star")[1]), "star")
    if "lambda" in fields:
        raw = _parse_value(fields.pop("lambda")[1])
        lam = tuple(map(tuple, _as_matrix(raw, "lambda", lambda v: _as_scalar(v, "lambda entry"))))
    if "psi" in fields:
        raw = _parse_value(fields.pop("psi")[1])
        psi = tuple(map(tuple, _as_matrix(raw, "psi", lambda v: _as_sum_cell(v, "psi"))))
    weight_zero = False
    if "weight_zero" in fields:
        lineno, text = fields.pop("weight_zero")
        weight_zero = _as_flag(text, "weight_zero")
        if weight_zero and psi is not None:
            raise StructureError(f"line {lineno}: 'psi' and 'weight_zero = true' are exclusive")
    if fields:
        key = next(iter(fields))
        raise StructureError(f"line {fields[key][0]}: unknown key {key!r}")
    return OmegaStructure(
        size=size, labels=labels, dot=dot, star=star, lam=lam, psi=psi,
        weight_zero=weight_zero, **tables,
    )


def _fmt_table(table: OpTable) -> str:
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in table.rows) + "]"


def serialize_structure(s: OmegaStructure) -> str:
    lines = [f"size = {s.size}", "labels = " + " ".join(s.labels)]
    for key in ("left", "right", "lhd", "rhd"):
        lines.append(f"{key:<5} = " + _fmt_table(getattr(s, key)))
    if s.dot is not None:
        lines.append("dot   = " + _fmt_table(s.dot))
    if s.star is not None:
        lines.append("star  = " + _fmt_table(s.star))
    if s.lam is not None:
        lines.append(
            "lambda = ["
            + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in s.lam)
            + "]"
        )
    if s.psi is not None:
        cells = []
        for row in s.psi:
            cells.append(
                "["
                + ",".join(
                    "{" + ",".join(f"{b}:{c}" for b, c in cell) + "}" for cell in row
                )
                + "]"
            )
        lines.append("psi   = [" + ",".join(cells) + "]")
    if s.weight_zero:
        lines.append("weight_zero = true")
    return "\n".join(lines) + "\n"
