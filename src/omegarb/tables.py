"""Machine-readable fixtures for the two-element classification tables.

Tables on the carrier {a, b} are written as four-character strings over
"ab", row-major with the row giving the first argument: "aaab" means
a?a=a, a?b=a, b?a=a, b?b=b.  The first fixture table lists the named
weight-level families (with generalized weight maps, parametrized by
scalars l and m); the second lists the star-level structures with their
admissible (star, dot) option pairs.  Both tables list representatives up
to the carrier swap.  Every structure here, the strict (dot, lambda) slices
of the commutative families included, is built by one constructor from the
codes of its tables and its weight data.

Fixture review note (H rows of the star-level table): with the two-element
group table for <- and ->, the identity (a->b).c = a->(b.c) forces the dot
column to be the group product itself, as does the weight column of the
weight-level H family; every other associative candidate fails, e.g.
"aaab" at the triple (b,a,a).  The reviewed cell below is therefore "abba";
the brute-force enumeration cross-checks this.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .omega import OmegaStructure, OpTable, exact_scalar
from .scalars import FormalSum

__all__ = [
    "TBL",
    "op",
    "LETS_ROWS",
    "LambdaEtsRow",
    "lets_row",
    "ETS_ROWS",
    "ets_fixture_structures",
    "COMMUTATIVE_ROW_NAMES",
    "NONCOMMUTATIVE_ROW_NAMES",
    "OPPOSITE_PAIRS",
    "SWAP_OPPOSITE_NAMES",
    "NAME_COLLISIONS",
    "strict_commutative_instances",
]


def TBL(code: str) -> tuple:
    code = code.replace(" ", "")
    if len(code) != 4 or any(ch not in "ab" for ch in code):
        raise ValueError(f"bad 2x2 table code {code!r}")
    vals = [0 if ch == "a" else 1 for ch in code]
    return ((vals[0], vals[1]), (vals[2], vals[3]))


def op(code: str) -> OpTable:
    return OpTable(TBL(code))


def _on_ab(left, right, lhd, rhd, dot=None, star=None, **weight) -> OmegaStructure:
    """The structure on {a, b} with the tables of these codes and this weight."""
    codes = {"left": left, "right": right, "lhd": lhd, "rhd": rhd, "dot": dot, "star": star}
    return OmegaStructure(size=2, labels=("a", "b"),
                          **{name: op(code) for name, code in codes.items() if code}, **weight)


def _fs(*pairs) -> FormalSum:
    return FormalSum({b: Fraction(c) for b, c in pairs if c})


# weight-map builders: each returns a 2x2 matrix of formal sums over {0, 1}
def _psi_scaled(code: str):
    table = TBL(code)

    def build(l, m):
        return tuple(tuple(_fs((table[i][j], l)) for j in range(2)) for i in range(2))

    return build


def _psi_zero(l, m):
    z = FormalSum.zero()
    return ((z, z), (z, z))


def _psi_A(l, m):
    s = l + m
    return (
        (_fs((0, s)), _fs((0, s))),
        (_fs((0, s)), _fs((0, l), (1, m))),
    )


def _psi_F1pp_lm(l, m):
    s = l + m
    return (
        (_fs((0, s)), _fs((1, s))),
        (_fs((1, s)), _fs((0, l), (1, m))),
    )


def _psi_diag(l, m):
    z = FormalSum.zero()
    return ((_fs((0, l)), z), (z, _fs((1, l))))


@dataclass(frozen=True)
class LambdaEtsRow:
    name: str
    display: str
    left: str
    right: str
    lhd: str
    rhd: str
    psi_builder: object
    nparams: int  # 0, 1 (l), or 2 (l, m)

    def instantiate(self, l=Fraction(0), m=Fraction(0)) -> OmegaStructure:
        return _on_ab(self.left, self.right, self.lhd, self.rhd,
                      psi=self.psi_builder(exact_scalar(l, "l"), exact_scalar(m, "m")))


_ROWS = [
    # name, display, left, right, lhd, rhd, psi, nparams
    ("A1", "A1(l,m)", "aaaa", "aaaa", "aaaa", "aaaa", _psi_A, 2),
    ("A2", "A2(l,m)", "aaaa", "aaaa", "abab", "aabb", _psi_A, 2),
    ("B1p", "B1'(l)", "aaaa", "abab", "aaaa", "aaaa", _psi_scaled("aaaa"), 1),
    ("B1pp", "B1''(l)", "aaaa", "abab", "aaaa", "aaaa", _psi_scaled("abab"), 1),
    ("B2p", "B2'(l)", "aaaa", "abab", "abab", "aabb", _psi_scaled("aaaa"), 1),
    ("B2pp", "B2''(l)", "aaaa", "abab", "abab", "aabb", _psi_scaled("abab"), 1),
    ("C1", "C1(l)", "aaab", "aaab", "aaaa", "aaaa", _psi_scaled("aaab"), 1),
    ("C3", "C3(l)", "aaab", "aaab", "abab", "aabb", _psi_scaled("aaab"), 1),
    ("C5", "C5(l)", "aaab", "aaab", "bbbb", "bbbb", _psi_scaled("aaab"), 1),
    ("C2", "C2", "aaab", "aaab", "aaaa", "bbbb", _psi_zero, 0),
    ("C4", "C4", "aaab", "aaab", "bbbb", "aaaa", _psi_zero, 0),
    ("D1p", "D1'(l)", "aabb", "aaaa", "aaaa", "aaaa", _psi_scaled("aaaa"), 1),
    ("D1pp", "D1''(l)", "aabb", "aaaa", "aaaa", "aaaa", _psi_scaled("aabb"), 1),
    ("D2p", "D2'(l)", "aabb", "aaaa", "abab", "aabb", _psi_scaled("aaaa"), 1),
    ("D2pp", "D2''(l)", "aabb", "aaaa", "abab", "aabb", _psi_scaled("aabb"), 1),
    ("E1", "E1(l)", "aabb", "aabb", "aaaa", "aaaa", _psi_scaled("aabb"), 1),
    ("E3", "E3(l)", "aabb", "aabb", "abab", "aabb", _psi_scaled("aabb"), 1),
    ("E2", "E2", "aabb", "aabb", "aaaa", "bbbb", _psi_zero, 0),
    ("F1p_lm", "F1'(l,m)", "aabb", "abab", "aaaa", "aaaa", _psi_A, 2),
    ("F1pp_lm", "F1''(l,m)", "aabb", "abab", "aaaa", "aaaa", _psi_F1pp_lm, 2),
    ("F1p_l", "F1'(l)", "aabb", "abab", "aaaa", "aaaa", _psi_scaled("abab"), 1),
    ("F1pp_l", "F1''(l)", "aabb", "abab", "aaaa", "aaaa", _psi_scaled("aabb"), 1),
    ("F4", "F4(l)", "aabb", "abab", "abba", "abba", _psi_diag, 1),
    ("F2", "F2", "aabb", "abab", "aaaa", "bbbb", _psi_zero, 0),
    ("F5", "F5", "aabb", "abab", "abba", "baab", _psi_zero, 0),
    ("G1", "G1(l)", "abab", "abab", "aaaa", "aaaa", _psi_scaled("abab"), 1),
    ("G3", "G3(l)", "abab", "abab", "abab", "aabb", _psi_scaled("abab"), 1),
    ("G2", "G2", "abab", "abab", "aaaa", "bbbb", _psi_zero, 0),
    ("H1", "H1(l)", "abba", "abba", "aaaa", "aaaa", _psi_scaled("abba"), 1),
    ("H2", "H2(l)", "abba", "abba", "abab", "aabb", _psi_scaled("abba"), 1),
]

LETS_ROWS = tuple(LambdaEtsRow(*row) for row in _ROWS)

# the F3 family: lhd/rhd as in the F row second variant, weight map
# l * (dot) for an arbitrary associative dot table
F3_ROW = ("aabb", "abab", "abab", "aabb")


def f3_instance(dot_code: str, l=Fraction(1)) -> OmegaStructure:
    return _on_ab(*F3_ROW, psi=_psi_scaled(dot_code)(exact_scalar(l, "l"), 0))


def lets_row(name: str) -> LambdaEtsRow:
    for row in LETS_ROWS:
        if row.name == name:
            return row
    raise KeyError(name)


# remark data for the weight-level table
COMMUTATIVE_ROW_NAMES = (
    "A1", "A2", "H1", "H2", "C1", "C3", "C5", "F1p_lm", "F1pp_lm", "F4",
)
# rows asserted non-commutative at every parameter value (F3 is excluded:
# its commutativity depends on the chosen dot)
NONCOMMUTATIVE_ROW_NAMES = (
    "B1p", "B1pp", "B2p", "B2pp", "C2", "C4", "D1p", "D1pp", "D2p", "D2pp",
    "E1", "E3", "E2", "F1p_l", "F1pp_l", "F2", "F5", "G1", "G3", "G2",
)
OPPOSITE_PAIRS = (
    ("B1p", "D1p"),
    ("B1pp", "D1pp"),
    ("B2p", "D2p"),
    ("B2pp", "D2pp"),
    ("C2", "C4"),
    ("E1", "G1"),
    ("E2", "G2"),
    ("E3", "G3"),
    ("F1p_l", "F1pp_l"),
)
# not commutative, but isomorphic to their opposite through the carrier swap
SWAP_OPPOSITE_NAMES = ("F2", "F5")
# single-parameter and two-parameter F families share display names
NAME_COLLISIONS = (("F1p_lm", "F1p_l"), ("F1pp_lm", "F1pp_l"))


# ---------------------------------------------------------------------------
# Star-level fixture table


@dataclass(frozen=True)
class EtsRow:
    name: str
    left: str
    right: str
    lhd: str
    rhd: str
    options: tuple  # of (star, dot) code pairs


def _expand(stars, dots):
    return tuple((s, d) for s in stars for d in dots)


ETS_ROWS = (
    EtsRow("A1", "aaaa", "aaaa", "aaaa", "aaaa",
           _expand(("aaaa", "bbbb"), ("aaaa", "aaab"))),
    EtsRow("A2", "aaaa", "aaaa", "abab", "aabb",
           _expand(("aaaa", "bbbb"), ("aaaa", "aaab"))),
    EtsRow("B1", "aaaa", "abab", "aaaa", "aaaa",
           _expand(("aaaa", "bbbb"), ("aaaa", "abab"))),
    EtsRow("B2", "aaaa", "abab", "abab", "aabb",
           _expand(("aaaa", "bbbb"), ("aaaa", "abab"))),
    EtsRow("C1", "aaab", "aaab", "aaaa", "aaaa",
           _expand(("aaaa", "bbbb"), ("aaab",))),
    EtsRow("C3", "aaab", "aaab", "abab", "aabb",
           _expand(("aaaa", "bbbb"), ("aaab",))),
    EtsRow("C5", "aaab", "aaab", "bbbb", "bbbb",
           _expand(("aaaa", "bbbb"), ("aaab",))),
    EtsRow("D1", "aabb", "aaaa", "aaaa", "aaaa",
           _expand(("aaaa", "bbbb"), ("aaaa", "aabb"))),
    EtsRow("D2", "aabb", "aaaa", "abab", "aabb",
           _expand(("aaaa", "bbbb"), ("aaaa", "aabb"))),
    EtsRow("E1", "aabb", "aabb", "aaaa", "aaaa",
           _expand(("aaaa", "bbbb"), ("aabb",))),
    EtsRow("E3", "aabb", "aabb", "abab", "aabb",
           _expand(("aaaa",), ("aabb",))),
    EtsRow("F1", "aabb", "abab", "aaaa", "aaaa",
           _expand(("aaaa", "bbbb"),
                   ("aaaa", "aaab", "aabb", "abab", "abba", "abbb"))),
    EtsRow("F3", "aabb", "abab", "abab", "aabb",
           _expand(("aaaa",),
                   ("aaaa", "aaab", "aabb", "abab", "abba", "abbb", "baab", "bbbb"))
           + _expand(("aabb", "bbaa"), ("abab",))
           + _expand(("abab", "baba"), ("aabb",))),
    EtsRow("G1", "abab", "abab", "aaaa", "aaaa",
           _expand(("aaaa", "bbbb"), ("abab",))),
    EtsRow("G3", "abab", "abab", "abab", "aabb",
           _expand(("aaaa",), ("abab",))),
    # reviewed dot cell, see module docstring
    EtsRow("H1", "abba", "abba", "aaaa", "aaaa",
           _expand(("aaaa", "bbbb"), ("abba",))),
    EtsRow("H2", "abba", "abba", "abab", "aabb",
           _expand(("aaaa", "bbbb"), ("abba",))),
)


def ets_fixture_structures():
    """All fixture structures of the star-level table, fully expanded."""
    return [(f"{row.name}[*={star},.={dot}]",
             _on_ab(row.left, row.right, row.lhd, row.rhd, star=star, dot=dot))
            for row in ETS_ROWS for star, dot in row.options]


# ---------------------------------------------------------------------------
# Strict specializations of the commutative weight-level families.
# Each entry pins a dot table and a lambda-table builder so the word product
# (which needs strict weight data) can run; the builder takes one scalar.


def _lam_const(c):
    return ((c, c), (c, c))


def _lam_diag(c):
    return ((c, 0), (0, c))


_STRICT_COMMUTATIVE = (
    # (instance name, base row name, dot code, lambda builder)
    ("A1[.=aaaa]", "A1", "aaaa", _lam_const),
    ("A1[.=aaab]", "A1", "aaab", _lam_const),
    ("A2[.=aaaa]", "A2", "aaaa", _lam_const),
    ("A2[.=aaab]", "A2", "aaab", _lam_const),
    ("C1", "C1", "aaab", _lam_const),
    ("C3", "C3", "aaab", _lam_const),
    ("C5", "C5", "aaab", _lam_const),
    ("F1p[.=aaaa]", "F1p_lm", "aaaa", _lam_const),
    ("F1p[.=aaab]", "F1p_lm", "aaab", _lam_const),
    ("F1pp[.=abba]", "F1pp_lm", "abba", _lam_const),
    ("F1pp[.=abbb]", "F1pp_lm", "abbb", _lam_const),
    ("F4", "F4", "aabb", _lam_diag),
    ("H1", "H1", "abba", _lam_const),
    ("H2", "H2", "abba", _lam_const),
)


def strict_commutative_instances(c=Fraction(1, 2)):
    """Strict (dot, lambda) structures for the commutative families at a
    scalar sample c; each corresponds to a one-parameter slice of its row."""
    c = exact_scalar(c, "weight")
    rows = [(name, lets_row(rowname), dot, lam) for name, rowname, dot, lam in _STRICT_COMMUTATIVE]
    return [(name, _on_ab(row.left, row.right, row.lhd, row.rhd, dot=dot, lam=lam(c)))
            for name, row, dot, lam in rows]
