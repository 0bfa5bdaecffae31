import itertools
import random
from fractions import Fraction

import pytest

import pointwise_oracle as oracle
from omegarb import classify
from omegarb.classify import (
    DEFAULT_SAMPLES,
    associative_tables,
    canonical_tuple,
    diff_against_fixtures,
    enumerate_level,
    fixture_canonical_set,
    lambda_constraint_probe,
    verify_lambda_ets_table,
    verify_table_remarks,
)
from omegarb.omega import (
    OmegaStructure,
    OpTable,
    StructureError,
    check_eds,
    check_ets,
    check_ets_maps_level,
    check_lambda_ets,
    check_maps_level,
    pointwise_filter,
)
from omegarb.omega import _level_tags
from omegarb.tables import ETS_ROWS, F3_ROW, LETS_ROWS, TBL, lets_row, op


def as_structure(tabs, names):
    kwargs = {name: OpTable(rows) for name, rows in zip(names, tabs)}
    return OmegaStructure(size=2, labels=("a", "b"), **kwargs)


def test_single_element_carrier():
    r = enumerate_level("diassoc", n=1)
    assert r.raw_count == 1 and r.class_count == 1


def test_enumeration_counts_two_elements():
    assert (enumerate_level("diassoc").raw_count, enumerate_level("diassoc").class_count) == (13, 8)
    eds = enumerate_level("eds")
    assert (eds.raw_count, eds.class_count) == (45, 24)
    ets = enumerate_level("ets")
    assert (ets.raw_count, ets.class_count) == (124, 64)


def test_enumeration_is_deterministic_and_runs_in_one_process():
    a = enumerate_level("eds")
    b = enumerate_level("eds", workers=1)
    assert a.raw == b.raw and a.reps == b.reps
    for workers in (2, 0):
        with pytest.raises(StructureError, match=f"one process, not {workers} workers"):
            enumerate_level("eds", workers=workers)


def test_only_levels_of_operation_tables_are_enumerated():
    # lambda-ets holds a weight table, and the map levels are not LEVELS rows
    assert classify.ENUMERABLE_LEVELS == ("diassoc", "eds", "ets")
    for level in ("lambda-ets", "maps", "ets-maps"):
        with pytest.raises(StructureError, match=f"unknown enumeration level {level!r}"):
            enumerate_level(level)


def test_the_chain_walk_keeps_exactly_the_tuples_every_layer_passes():
    # the naive scan over 16^4 tuples, both filters at once
    tabs = classify.all_op_rows(2)
    dia, eds = pointwise_filter("diassoc"), pointwise_filter("eds")
    naive = sorted(
        t for t in itertools.product(tabs, repeat=4) if dia(*t[:2]) and eds(*t)
    )
    assert enumerate_level("eds").raw == naive


def test_every_ets_survivor_passes_both_checkers():
    ets = enumerate_level("ets")
    names = ("left", "right", "lhd", "rhd", "star", "dot")
    for tabs in ets.raw:
        s = as_structure(tabs, names)
        assert check_ets(s).ok and check_ets_maps_level(s).ok


def test_every_eds_survivor_passes_checker_and_is_closed_under_opposite():
    from omegarb.omega import opposite

    eds = enumerate_level("eds")
    names = ("left", "right", "lhd", "rhd")
    raws = set(eds.raw)
    for tabs in eds.raw:
        s = as_structure(tabs, names)
        assert check_eds(s).ok
        o = opposite(s)
        assert (o.left.rows, o.right.rows, o.lhd.rows, o.rhd.rows) in raws


def test_eds_classes_match_the_row_quadruples():
    # the EDS parts listed across the weight-level rows are a complete set
    # of representatives
    eds = enumerate_level("eds")
    expected = set()
    for row in LETS_ROWS:
        tabs = tuple(TBL(code) for code in (row.left, row.right, row.lhd, row.rhd))
        expected.add(canonical_tuple(tabs, 2))
    expected.add(canonical_tuple(tuple(TBL(code) for code in F3_ROW), 2))
    assert expected == set(eds.reps)


def test_fixture_diff_is_empty():
    ets = enumerate_level("ets")
    missing, extra = diff_against_fixtures(ets)
    assert missing == [] and extra == []
    assert len(fixture_canonical_set()) == 64


def test_h_row_product_is_forced_to_the_group_table():
    # with the group tables for <- and -> only the group product itself
    # appears as a dot column among survivors
    ets = enumerate_level("ets")
    h = TBL("abba")
    dots = {tabs[5] for tabs in ets.raw if tabs[0] == h and tabs[1] == h}
    assert dots == {h}


def test_filters_match_the_oracle_at_sizes_one_to_three():
    """The compiled early-exit filters give the hand-written verdicts: every
    (left, right) pair and sampled extensions at n = 1 and 2, seeded random
    and near-passing candidates at n = 3."""
    dia_ok, eds_ok, ets_ok = (pointwise_filter(level) for level in ("diassoc", "eds", "ets"))
    lam_ok = pointwise_filter("lambda-ets")
    own_lam_tags = set(_level_tags("lambda-ets")) - set(_level_tags("eds"))
    rng = random.Random(31)
    seen = set()
    for n in (1, 2, 3):
        tabs = classify.all_op_rows(n) if n < 3 else [
            tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)) for _ in range(40)]
        z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        const = ((0,) * 3,) * 3
        pairs = [(L, R) for L in tabs for R in tabs] + ([(z3, z3)] if n == 3 else [])
        for L, R in pairs:
            verdict = dia_ok(L, R)
            assert verdict == oracle.dia_ok(L, R, n)
            seen.add(("diassoc", verdict))
            if not verdict and rng.random() < 0.9:
                continue
            for _ in range(6):
                Lh, Rh = rng.choice(tabs), rng.choice(tabs)
                if n == 3 and rng.random() < 0.3:
                    Lh = Rh = const
                verdict = eds_ok(L, R, Lh, Rh)
                assert verdict == oracle.eds_extra_ok(L, R, Lh, Rh, n)
                seen.add(("eds", verdict))
                for _ in range(3 if verdict else 1):
                    S, D = rng.choice(tabs), rng.choice(tabs)
                    if n == 3 and rng.random() < 0.3:
                        S, D = const, z3
                    verdict = ets_ok(L, R, Lh, Rh, S, D)
                    assert verdict == oracle.ets_extra_ok(L, R, Lh, Rh, S, D, n)
                    seen.add(("ets", verdict))
                    w = rng.choice((0, 1, -1, Fraction(1, 2), 2))
                    lam = tuple((w if rng.random() < 0.8 else rng.choice((0, 2)),) * n
                                for _ in range(n))
                    s = OmegaStructure(size=n, labels=tuple("abc"[:n]), left=OpTable(L),
                                       right=OpTable(R), lhd=OpTable(Lh), rhd=OpTable(Rh),
                                       dot=OpTable(D), lam=lam)
                    _, rows = oracle.check_lambda_ets(s)
                    verdict = lam_ok(L, R, Lh, Rh, D, lam)
                    assert verdict == own_lam_tags.isdisjoint(tag for tag, _, _ in rows)
                    seen.add(("lambda-ets", verdict))
    assert seen == {(level, v) for level in ("diassoc", "eds", "ets", "lambda-ets")
                    for v in (True, False)}


def test_associative_tables_count():
    tabs = associative_tables(2)
    assert len(tabs) == 8
    codes = {"".join("ab"[v] for row in t for v in row) for t in tabs}
    assert codes == {"aaaa", "bbbb", "aabb", "abab", "aaab", "abbb", "abba", "baab"}
    # these are exactly the dot options of the F3 row's first block
    f3 = next(r for r in ETS_ROWS if r.name == "F3")
    first_block = {d for s, d in f3.options if s == "aaaa"}
    assert codes == first_block


def test_verify_lambda_table_full_grid():
    report = verify_lambda_ets_table(DEFAULT_SAMPLES)
    assert report.ok, report.summary()
    assert len(report.results) >= 150


def test_verify_remarks():
    report = verify_table_remarks(DEFAULT_SAMPLES)
    assert report.ok, report.summary()


def test_lambda_probe_constant_families():
    # constant tables with any constant weight pass
    a_row = lets_row("A1")
    eds = OmegaStructure(
        size=2, labels=("a", "b"), left=op(a_row.left), right=op(a_row.right),
        lhd=op(a_row.lhd), rhd=op(a_row.rhd),
    )
    results = dict(lambda_constraint_probe(eds, op("aaaa"), (Fraction(0), Fraction(1), Fraction(1, 2))))
    for c in (Fraction(0), Fraction(1), Fraction(1, 2)):
        assert results[(c, c, c, c)]


def test_lambda_probe_f3_any_associative_dot():
    eds = OmegaStructure(
        size=2, labels=("a", "b"),
        left=op(F3_ROW[0]), right=op(F3_ROW[1]), lhd=op(F3_ROW[2]), rhd=op(F3_ROW[3]),
    )
    for dot in associative_tables(2):
        results = dict(lambda_constraint_probe(eds, OpTable(dot), (Fraction(1),)))
        assert results[(Fraction(1),) * 4]


def test_lambda_probe_rejects_nonzero_where_zero_is_forced():
    row = lets_row("C2")
    eds = OmegaStructure(
        size=2, labels=("a", "b"), left=op(row.left), right=op(row.right),
        lhd=op(row.lhd), rhd=op(row.rhd),
    )
    results = lambda_constraint_probe(eds, op("aaaa"), (Fraction(0), Fraction(1)))
    passing = [combo for combo, ok in results if ok]
    assert passing == [(Fraction(0),) * 4]


def test_all_nonzero_probe_passers_are_fixture_instances():
    """Over every EDS representative and every dot, a strict weight table with
    all entries nonzero that passes the checker must be an instance of some
    fixture row (as a generalized structure, up to the carrier swap)."""
    from omegarb.scalars import FormalSum

    samples = (Fraction(1), Fraction(-1), Fraction(1, 2))
    # instantiate every fixture row over a grid wide enough to cover the
    # probe's weight values and collect canonical (tables, psi) forms
    grid = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
            Fraction(2), Fraction(-2), Fraction(3, 2), Fraction(-1, 2))
    fixture_forms = set()

    def canon_form(s):
        from omegarb.omega import swap_conjugate

        forms = []
        for perm in ((0, 1), (1, 0)):
            c = swap_conjugate(s, perm)
            psi_key = tuple(tuple(tuple(cell.items()) for cell in row) for row in c.psi)
            forms.append((c.left.rows, c.right.rows, c.lhd.rows, c.rhd.rows, psi_key))
        return min(forms)

    for row in LETS_ROWS:
        pairs = [(l, m) for l in grid for m in grid] if row.nparams == 2 else [
            (l, Fraction(0)) for l in grid
        ]
        for l, m in pairs:
            fixture_forms.add(canon_form(row.instantiate(l, m)))
    for dot in associative_tables(2):
        code = "".join("ab"[v] for r in dot for v in r)
        for l in grid:
            from omegarb.tables import f3_instance

            fixture_forms.add(canon_form(f3_instance(code, l)))

    # the projection row admits *any* associative weight map, so membership
    # there is the associativity predicate rather than a scalar grid
    f3_canon = canonical_tuple(tuple(TBL(code) for code in F3_ROW), 2)

    def psi_associative(psi):
        def apply(vec, k):  # psi(vec (x) e_k)
            out = FormalSum.zero()
            for b, c in vec:
                out = out + psi[b][k].scale(c)
            return out

        for i in range(2):
            for j in range(2):
                for k in range(2):
                    lhs = apply(psi[i][j], k)
                    rhs = FormalSum.zero()
                    for b, c in psi[j][k]:
                        rhs = rhs + psi[i][b].scale(c)
                    if lhs != rhs:
                        return False
        return True

    eds_reps = enumerate_level("eds").reps
    names = ("left", "right", "lhd", "rhd")
    unmatched = []
    for tabs in eds_reps:
        eds = as_structure(tabs, names)
        is_f3 = canonical_tuple(tabs, 2) == f3_canon
        for dot in classify.all_op_rows(2):
            for combo, ok in lambda_constraint_probe(eds, OpTable(dot), samples):
                if not ok:
                    continue
                lam = ((combo[0], combo[1]), (combo[2], combo[3]))
                psi = tuple(
                    tuple(FormalSum.term(dot[i][j], lam[i][j]) for j in range(2))
                    for i in range(2)
                )
                if is_f3 and psi_associative(psi):
                    continue
                s = OmegaStructure(
                    size=2, labels=("a", "b"), left=eds.left, right=eds.right,
                    lhd=eds.lhd, rhd=eds.rhd, psi=psi,
                )
                if canon_form(s) not in fixture_forms:
                    unmatched.append((tabs, dot, combo))
    assert unmatched == []
