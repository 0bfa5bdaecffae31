"""Brute-force classification of small parameter structures.

Enumerates all operation-table tuples at a given axiom level over a
carrier of size n (16 tables per binary operation at n = 2, so 16^2, 16^4
and 16^6 candidate tuples for the three levels), filtering layer by layer:
a (left, right) pair that is not diassociative prunes every extension, an
EDS failure prunes every (star, dot) extension.  Survivors are reported
both raw and as canonical representatives of carrier-permutation orbits
(lexicographically least member).  The search walks the ``LEVELS``
chain from its root and runs in one process: at n = 2 a worker pool
costs more to start than the whole search.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import tables as fixtures
from .omega import OmegaStructure, OpTable, StructureError, check_lambda_ets, check_maps_level
from .omega import LEVELS, exact_scalar, is_commutative, opposite, pointwise_filter, swap_conjugate
from .omega import _conj_rows, _default_labels

__all__ = [
    "EnumerationResult",
    "enumerate_level",
    "all_op_rows",
    "associative_tables",
    "canonical_tuple",
    "diff_against_fixtures",
    "fixture_canonical_set",
    "VerificationReport",
    "verify_lambda_ets_table",
    "verify_table_remarks",
    "lambda_constraint_probe",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))

# the levels whose fields are all operation tables (lam is the one that is not)
ENUMERABLE_LEVELS = tuple(level for level, (_, names, _) in LEVELS.items() if "lam" not in names)
# n = 3 alone would build 387M prefix tuples before any check runs
ENUMERABLE_SIZES = (1, 2)


def all_op_rows(n: int):
    """All n^(n*n) operation tables as row-major tuples of tuples."""
    cells = list(itertools.product(range(n), repeat=n * n))
    return [tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n)) for flat in cells]


def associative_tables(n: int = 2):
    return [t for t in all_op_rows(n) if OpTable(t).is_associative()]


def canonical_tuple(tabs, n: int):
    """Lexicographically least member of the carrier-permutation orbit."""
    best = None
    for perm in itertools.permutations(range(n)):
        cand = tuple(_conj_rows(t, perm) for t in tabs)
        if best is None or cand < best:
            best = cand
    return best


def _require_size(n) -> None:
    if n not in ENUMERABLE_SIZES:
        sizes = " and ".join(map(str, ENUMERABLE_SIZES))
        raise StructureError(f"enumeration is supported for sizes {sizes}, not {n}")


def _survivors(level: str, n: int):
    """The table tuples that pass every filter of the level's chain: each level,
    root first, extends its base's survivors by one table per field it adds."""
    chain = [level]
    while LEVELS[chain[-1]][0]:
        chain.append(LEVELS[chain[-1]][0])
    tabs = all_op_rows(n)
    out, width = [()], 0
    for step in reversed(chain):
        names = LEVELS[step][1]
        ok = pointwise_filter(step)
        ext = list(itertools.product(tabs, repeat=len(names) - width))
        out = [c for c in (p + e for p in out for e in ext) if ok(*c)]
        width = len(names)
    return out


@dataclass
class EnumerationResult:
    level: str
    n: int
    labels: tuple
    raw: list = field(default_factory=list)
    reps: list = field(default_factory=list)

    @property
    def raw_count(self) -> int:
        return len(self.raw)

    @property
    def class_count(self) -> int:
        return len(self.reps)

    def records(self):
        names = LEVELS[self.level][1]
        return [
            {name: [list(row) for row in rows] for name, rows in zip(names, tabs)}
            for tabs in self.reps
        ]

    def to_json(self) -> str:
        return json.dumps(
            {
                "level": self.level,
                "size": self.n,
                "labels": list(self.labels),
                "raw_count": self.raw_count,
                "class_count": self.class_count,
                "classes": self.records(),
            },
            indent=2,
        )

    def to_text(self) -> str:
        names = LEVELS[self.level][1]
        head = f"{self.level} structures on {self.n} elements: "
        head += f"{self.raw_count} raw, {self.class_count} up to relabeling"
        lines = [head, ""]
        lines.append("  ".join(f"{name:>{self.n * self.n}}" for name in names))
        for tabs in self.reps:
            codes = []
            for rows in tabs:
                codes.append("".join(self.labels[v] for row in rows for v in row))
            lines.append("  ".join(f"{c:>{max(len(n), self.n * self.n)}}" for c, n in zip(codes, names)))
        return "\n".join(lines) + "\n"


def enumerate_level(level: str, n: int = 2, workers: int = 1) -> EnumerationResult:
    """Filter the full table-tuple space at the given level.

    Layered early-exit filtering over the 16^2 / 16^4 / 16^6 candidate
    space at n = 2; identical survivor set to the naive product scan.
    ``workers`` is kept for callers that pass ``workers=1``; the search
    runs in one process, so any other value is refused.
    """
    if level not in ENUMERABLE_LEVELS:
        raise StructureError(f"unknown enumeration level {level!r}")
    _require_size(n)
    if workers != 1:
        raise StructureError(f"enumeration runs in one process, not {workers} workers")
    raw = _survivors(level, n)
    raw.sort()
    reps = sorted({canonical_tuple(tabs, n) for tabs in raw})
    return EnumerationResult(level=level, n=n, labels=_default_labels(n), raw=raw, reps=reps)


def fixture_canonical_set():
    """Canonical forms of the star-level fixture table, fully expanded."""
    names = LEVELS["ets"][1]
    return {canonical_tuple(tuple(getattr(s, name).rows for name in names), 2)
            for _, s in fixtures.ets_fixture_structures()}


def diff_against_fixtures(result: EnumerationResult):
    """(missing, extra) canonical classes relative to the fixture table."""
    if result.level != "ets" or result.n != 2:
        raise StructureError("fixture diff is defined for the ets level at size 2")
    expected = fixture_canonical_set()
    found = set(result.reps)
    return sorted(expected - found), sorted(found - expected)


def load_fixture_file(path: str, level: str | None = None, size: int | None = None):
    """(level, size, canonical classes) of a fixture JSON file.

    A file without the fixture's shape or for a size that is not enumerated,
    or (when ``level`` and ``size`` are given) one made for another level or
    size, raises StructureError before any class is canonicalized; so does,
    when it is read, a table that is not size x size over the carrier."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)

    def refused(exc):
        return StructureError(f"{path} is not a classification fixture ({exc!r})")

    try:
        got = data["level"], data["size"]
        if got[0] not in ENUMERABLE_LEVELS:
            raise KeyError(got[0])
        if type(got[1]) is not int:
            raise TypeError(f"size {got[1]!r} is not an int")
    except (KeyError, TypeError) as exc:
        raise refused(exc) from None
    if level is not None and got != (level, size):
        raise StructureError(
            f"fixture file is for level {got[0]!r} size {got[1]}, got {level!r} size {size}"
        )
    _require_size(got[1])
    names = LEVELS[got[0]][1]
    out = set()
    try:
        for rec in data["classes"]:
            tabs = tuple(OpTable(rec[name]).rows for name in names)
            if any(len(rows) != got[1] for rows in tabs):
                raise StructureError(f"a table is not {got[1]}x{got[1]}")
            out.add(canonical_tuple(tabs, got[1]))
    except (KeyError, TypeError, ValueError) as exc:
        raise refused(exc) from None
    return got[0], got[1], out


# ---------------------------------------------------------------------------
# Table verification


@dataclass
class VerificationReport:
    title: str
    results: list = field(default_factory=list)  # (name, ok, detail)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.results if not ok]

    def summary(self) -> str:
        lines = [f"{self.title}: {'PASS' if self.ok else 'FAIL'} "
                 f"({len(self.results)} checks)"]
        for name, ok, detail in self.results:
            if not ok:
                lines.append(f"  FAIL {name}: {detail}")
        return "\n".join(lines)


def _param_grid(nparams, samples):
    zero = Fraction(0)
    if nparams == 0:
        return [(zero, zero)]
    if nparams == 1:
        return [(l, zero) for l in samples]
    return [(l, m) for l in samples for m in samples]


def verify_lambda_ets_table(samples=DEFAULT_SAMPLES) -> VerificationReport:
    """Run the generalized map-level checker on every named weight-level row
    at every sample point, including the associative-dot family."""
    report = VerificationReport("weight-level table")
    samples = tuple(exact_scalar(s, "sample") for s in samples)
    for row in fixtures.LETS_ROWS:
        for l, m in _param_grid(row.nparams, samples):
            s = row.instantiate(l, m)
            rep = check_maps_level(s)
            name = f"{row.display}@(l={l},m={m})"
            report.results.append((name, rep.ok, rep.summary()))
    for dot in associative_tables(2):
        code = "".join("ab"[v] for row_ in dot for v in row_)
        for l in samples:
            s = fixtures.f3_instance(code, l)
            rep = check_maps_level(s)
            report.results.append((f"F3(.={code})@(l={l})", rep.ok, rep.summary()))
    return report


def _nonzero(samples):
    return [s for s in samples if s] or [Fraction(1)]


def verify_table_remarks(samples=DEFAULT_SAMPLES) -> VerificationReport:
    """Check the commutativity and opposite statements attached to the
    weight-level table, parameter slots matched."""
    report = VerificationReport("weight-level table remarks")
    samples = tuple(exact_scalar(s, "sample") for s in samples)
    swap = (1, 0)
    for name in fixtures.COMMUTATIVE_ROW_NAMES:
        row = fixtures.lets_row(name)
        ok = all(
            is_commutative(row.instantiate(l, m))
            for l, m in _param_grid(row.nparams, samples)
        )
        report.results.append((f"commutative {row.display}", ok, "is_commutative failed"))
    for name in fixtures.NONCOMMUTATIVE_ROW_NAMES:
        row = fixtures.lets_row(name)
        grid = _param_grid(row.nparams, _nonzero(samples))
        ok = all(not is_commutative(row.instantiate(l, m)) for l, m in grid)
        report.results.append(
            (f"noncommutative {row.display}", ok, "unexpectedly commutative")
        )
    for left_name, right_name in fixtures.OPPOSITE_PAIRS:
        lrow = fixtures.lets_row(left_name)
        rrow = fixtures.lets_row(right_name)
        # rows are orbit representatives, so the opposite may land on the
        # swapped copy of the named row (it does for E2 -> G2)
        ok = True
        how = "on the nose"
        for l, m in _param_grid(lrow.nparams, samples):
            opp = opposite(lrow.instantiate(l, m))
            target = rrow.instantiate(l, m)
            if opp == target:
                continue
            if swap_conjugate(opp, swap) == target:
                how = "up to the carrier swap"
                continue
            ok = False
            break
        report.results.append(
            (f"opposite {lrow.display} = {rrow.display} ({how})", ok, "tables differ")
        )
    for name in fixtures.SWAP_OPPOSITE_NAMES:
        row = fixtures.lets_row(name)
        s = row.instantiate(Fraction(0), Fraction(0))
        opp = opposite(s)
        ok = opp != s and swap_conjugate(opp, swap) == s
        report.results.append(
            (f"{row.display} isomorphic to its opposite via the swap", ok, "claim failed")
        )
    for dot in associative_tables(2):
        code = "".join("ab"[v] for row_ in dot for v in row_)
        flipped = tuple(tuple(dot[j][i] for j in range(2)) for i in range(2))
        fcode = "".join("ab"[v] for row_ in flipped for v in row_)
        for l in _nonzero(samples):
            ok = opposite(fixtures.f3_instance(code, l)) == fixtures.f3_instance(fcode, l)
            report.results.append(
                (f"opposite F3(.={code}) = F3(.={fcode})@(l={l})", ok, "tables differ")
            )
    collision = ", ".join(f"{a}/{b}" for a, b in fixtures.NAME_COLLISIONS)
    report.results.append(
        (f"name collisions kept for review: {collision}", True, "")
    )
    return report


def lambda_constraint_probe(eds: OmegaStructure, dot: OpTable, samples=DEFAULT_SAMPLES):
    """Pass/fail of the strict checker over every weight 4-tuple from the
    sample set, for one EDS and one dot table."""
    samples = tuple(exact_scalar(s, "sample") for s in samples)
    results = []
    for combo in itertools.product(samples, repeat=eds.size * eds.size):
        lam = tuple(
            tuple(combo[i * eds.size + j] for j in range(eds.size))
            for i in range(eds.size)
        )
        s = OmegaStructure(
            size=eds.size, labels=eds.labels, left=eds.left, right=eds.right,
            lhd=eds.lhd, rhd=eds.rhd, dot=dot, lam=lam,
        )
        results.append((combo, check_lambda_ets(s).ok))
    return results
