"""Acceptance gate: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every check is an
exact equality over the rationals; tolerances do not arise.  The bounded
tree pools are deterministic and exhaustive within their stated bounds
(every pool tree has depth <= 3 and the stated leaf budget; see each
criterion's helper).
"""

import time
from dataclasses import replace
from fractions import Fraction
from itertools import product as iproduct

from omegarb import classify
from omegarb.omega import (
    ETS_MAP_TO_POINTWISE_TAGS,
    MAP_TO_POINTWISE_TAGS,
    OmegaStructure,
    OpTable,
    check_ets,
    check_ets_maps_level,
    check_lambda_ets,
    check_maps_level,
    example_abelian_group,
    example_matching,
    example_semigroup,
    example_weight_zero,
)
from omegarb.rba import check_rb_identity
from omegarb.scalars import FormalSum
from omegarb.tables import op, strict_commutative_instances
from omegarb.trees import (
    TreeAlgebra,
    all_trees,
    assoc_counterexample_search,
    depth,
    graft,
    leaf_count,
    unit,
    corolla,
    branches,
)
from omegarb.words import (
    FiniteAlgebra,
    TypedWord,
    WordAlgebra,
    sh_prime_filter,
    sum_in_sh_prime,
    unitize,
    word_evaluate,
    word_length,
)

XOR = OpTable(((0, 1), (1, 0)))
CONST_A = OpTable(((0, 0), (0, 0)))
fs = FormalSum.term


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _parallel_map(fn, items):
    import multiprocessing
    import os

    workers = min(os.cpu_count() or 1, 4)
    if workers < 2 or len(items) < 2:
        return [fn(item) for item in items]
    with multiprocessing.Pool(workers) as pool:
        return pool.map(fn, items)


# -- criterion 1: exact reproduction of the star-level classification ---------


def test_criterion_1_ets_table_reproduction():
    t0 = time.time()
    result = classify.enumerate_level("ets", n=2)
    missing, extra = classify.diff_against_fixtures(result)
    elapsed = time.time() - t0
    report(
        1,
        not missing and not extra and result.class_count == 64 and elapsed < 120,
        f"{result.raw_count} raw survivors, {result.class_count} classes, "
        f"fixture diff empty, {elapsed:.1f}s",
    )


# -- criterion 2: weight-level table at all 16 sample points + remarks --------


def test_criterion_2_lambda_table_and_remarks():
    samples = classify.DEFAULT_SAMPLES
    table = classify.verify_lambda_ets_table(samples)
    remarks = classify.verify_table_remarks(samples)
    ok = table.ok and remarks.ok
    detail = (
        f"{len(table.results)} row instantiations and "
        f"{len(remarks.results)} remark checks, zero violations"
    )
    if not ok:
        detail += " | " + "; ".join(n for n, _ in (table.failures() + remarks.failures())[:4])
    report(2, ok, detail)


# -- criterion 3: the four worked constructions on the free tree algebra ------


def construction_instances():
    """The four constructions on 2-element carriers, weights in {0, 1, 2/3}."""
    out = []
    a2_eds = OmegaStructure(
        size=2, labels=("a", "b"), left=op("aaaa"), right=op("aaaa"),
        lhd=op("abab"), rhd=op("aabb"),
    )
    out.append(("zero-weight[const]", example_weight_zero(a2_eds, op("abba"))))
    f3_eds = OmegaStructure(
        size=2, labels=("a", "b"), left=op("aabb"), right=op("abab"),
        lhd=op("abab"), rhd=op("aabb"),
    )
    out.append(("zero-weight[proj]", example_weight_zero(f3_eds, op("abab"))))
    for weights in ((0, 1), (1, Fraction(2, 3)), (Fraction(2, 3), 0)):
        out.append((f"matching{weights}", example_matching(weights)))
    for lam in (0, 1, Fraction(2, 3)):
        out.append((f"semigroup(l={lam})", example_semigroup(XOR, lam)))
        out.append((f"group(l={lam})", example_abelian_group(XOR, lam)))
    return out


def acceptance_tree_pool():
    # exhaustive to depth 2 with <= 2 leaves, plus every depth-3 single-branch
    # ladder: 29 trees, so all ordered triples stay within 6 total leaves
    pool = all_trees(("x", "y"), 2, max_leaves=2, max_depth=2)
    pool += [t for t in all_trees(("x", "y"), 2, max_leaves=1, max_depth=3) if depth(t) == 3]
    assert all(depth(t) <= 3 for t in pool)
    assert max(leaf_count(t) for t in pool) * 3 <= 6
    return pool


def test_criterion_3_free_tree_algebra():
    t0 = time.time()
    pool = acceptance_tree_pool()
    sums = [fs(t) for t in pool]
    n = len(sums)
    slowest = 0.0
    for name, s in construction_instances():
        t1 = time.time()
        alg = TreeAlgebra(s)
        one = alg.one()
        for u in sums:
            assert alg.product(one, u) == u == alg.product(u, one), name
        pair = {}
        for i in range(n):
            for j in range(n):
                pair[i, j] = alg.product(sums[i], sums[j])
        for i in range(n):
            si = sums[i]
            for j in range(n):
                pij = pair[i, j]
                for k in range(n):
                    assert alg.product(pij, sums[k]) == alg.product(si, pair[j, k]), (
                        name, i, j, k,
                    )
        rb = check_rb_identity(alg, sums)
        assert rb.ok, (name, rb.summary())
        slowest = max(slowest, time.time() - t1)
    report(
        3,
        slowest < 60,
        f"{len(construction_instances())} construction instances, pool of {n} trees, "
        f"{n ** 3} associativity triples + identity + operator identity each, "
        f"slowest structure {slowest:.1f}s, total {time.time() - t0:.1f}s",
    )


# -- criterion 4: converse detection over the exhaustive 2-element grid -------


def test_criterion_4_converse_detection():
    t0 = time.time()
    eds_reps = classify.enumerate_level("eds").reps
    names = ("left", "right", "lhd", "rhd")
    scanned = failing = 0
    unwitnessed = []
    for tabs in eds_reps:
        kwargs = {nm: OpTable(t) for nm, t in zip(names, tabs)}
        for dot in classify.all_op_rows(2):
            for combo in iproduct((Fraction(0), Fraction(1)), repeat=4):
                lam = ((combo[0], combo[1]), (combo[2], combo[3]))
                s = OmegaStructure(
                    size=2, labels=("a", "b"), dot=OpTable(dot), lam=lam, **kwargs
                )
                scanned += 1
                if check_lambda_ets(s).ok:
                    continue
                failing += 1
                if assoc_counterexample_search(s, ("x", "y"), bound=3) is None:
                    # would need review: a pointwise failure with no witness
                    # among depth-<=3 grafted trees
                    unwitnessed.append((tabs, dot, combo))
    for entry in unwitnessed:
        print(f"[criterion 4] REVIEW, no depth-3 witness: {entry}")
    report(
        4,
        not unwitnessed,
        f"{scanned} (EDS class, dot, weight) tuples scanned, {failing} fail the "
        f"pointwise axioms, every one yields an associativity witness at depth <= 3 "
        f"({time.time() - t0:.1f}s)",
    )


# -- criterion 5: weight-0 dendriform identities over every EDS ----------------


def _dendriform_worker(tabs):
    """All three identities for one side-operation structure; returns the
    first violation or None."""
    pool = all_trees(("x", "y"), 2, max_leaves=2, max_depth=2)
    n = len(pool)
    sums = [fs(t) for t in pool]
    leaves = [leaf_count(t) for t in pool]
    triples = [
        (i, j, k)
        for i in range(n) for j in range(n) for k in range(n)
        if leaves[i] + leaves[j] + leaves[k] <= 5
    ]
    names = ("left", "right", "lhd", "rhd")
    s = OmegaStructure(
        size=2, labels=("a", "b"), weight_zero=True,
        **{nm: OpTable(t) for nm, t in zip(names, tabs)},
    )
    alg = TreeAlgebra(s)
    L, R, Lh, Rh = s.left, s.right, s.lhd, s.rhd
    grafted = [[graft(w, t) for t in pool] for w in range(2)]
    gsums = [[fs(t) for t in row] for row in grafted]
    # basis tables: prec[w][i][j] = pool_i * P_w(pool_j), succ likewise
    prec_t = [[[alg.diamond_basis(pool[i], grafted[w][j]) for j in range(n)]
               for i in range(n)] for w in range(2)]
    succ_t = [[[alg.diamond_basis(grafted[w][i], pool[j]) for j in range(n)]
               for i in range(n)] for w in range(2)]
    # by bilinearity the two grafted terms on each right-hand side combine
    # into one table: C[al][be][p][q] = P_{al->be}(q >_{al|>be} .) + ...
    combo = {}
    for al in range(2):
        for be in range(2):
            key = (R(al, be), Rh(al, be), L(al, be), Lh(al, be))
            if key not in combo:
                r, w1, l, w2 = key
                combo[key] = [
                    [graft(r, succ_t[w1][p][q]) + graft(l, prec_t[w2][p][q])
                     for q in range(n)]
                    for p in range(n)
                ]
    for (i, j, k) in triples:
        for al in range(2):
            p_ab = prec_t[al][i][j]
            s_ab = succ_t[al][i][j]
            for be in range(2):
                C = combo[(R(al, be), Rh(al, be), L(al, be), Lh(al, be))]
                if alg.product(p_ab, gsums[be][k]) != alg.product(sums[i], C[j][k]):
                    return ("dend1", tabs, i, j, k, al, be)
                if alg.product(s_ab, gsums[be][k]) != alg.product(
                    gsums[al][i], prec_t[be][j][k]
                ):
                    return ("dend2", tabs, i, j, k, al, be)
                if alg.product(gsums[al][i], succ_t[be][j][k]) != alg.product(
                    C[i][j], sums[k]
                ):
                    return ("dend3", tabs, i, j, k, al, be)
    return None


def test_criterion_5_dendriform_over_all_eds():
    t0 = time.time()
    eds_reps = classify.enumerate_level("eds").reps
    failures = [r for r in _parallel_map(_dendriform_worker, eds_reps) if r is not None]
    n_pool = len(all_trees(("x", "y"), 2, max_leaves=2, max_depth=2))
    report(
        5,
        not failures,
        f"{len(eds_reps)} EDS classes, pool of {n_pool} trees, all triples with "
        f"total leaves <= 5, three identities each, zero violations "
        f"({time.time() - t0:.1f}s)" + (f" first failure {failures[:1]}" if failures else ""),
    )


# -- criterion 6: commutative word algebras ------------------------------------


def nilpotent_line():
    return FiniteAlgebra(("x",), ((FormalSum.zero(),),), unit=None, commutative=True)


def truncated_poly(var="x"):
    return FiniteAlgebra(
        ("1", var), ((fs(0), fs(1)), (fs(1), FormalSum.zero())), unit=0, commutative=True
    )


def all_words(dim, ntypes, max_len):
    out = [TypedWord((e,), ()) for e in range(dim)]
    frontier = list(out)
    for _ in range(max_len - 1):
        frontier = [
            TypedWord((e,) + w.entries, (t,) + w.types)
            for w in frontier for e in range(dim) for t in range(ntypes)
        ]
        out.extend(frontier)
    return out


def _words_worker(index):
    """All word checks for the indexed commutative family slice; returns the
    first violation or None."""
    name, s = strict_commutative_instances(Fraction(1, 2))[index]
    ua = unitize(nilpotent_line())
    poly = truncated_poly()
    words = all_words(2, 2, 3)
    wsums = [fs(w) for w in words]
    n = len(wsums)
    W = WordAlgebra(s, poly)
    pair = {}
    for i in range(n):
        for j in range(i + 1):
            pair[i, j] = W.product(wsums[i], wsums[j])
            if i != j:
                pair[j, i] = W.product(wsums[j], wsums[i])
                if pair[i, j] != pair[j, i]:
                    return ("commutativity", name, i, j)
    for i in range(n):
        si = wsums[i]
        for j in range(n):
            pij = pair[i, j]
            for k in range(n):
                if W.product(pij, wsums[k]) != W.product(si, pair[j, k]):
                    return ("associativity", name, i, j, k)
    rb = check_rb_identity(W, wsums[:10])
    if not rb.ok:
        return ("operator identity", name, rb.summary())
    # subspace closure through the unitized route
    W_ua = WordAlgebra(s, ua)
    sub = [w for w in words if sh_prime_filter(w, ua)]
    for u in sub:
        for w_ty in range(2):
            if not sum_in_sh_prime(W_ua.p_op(w_ty, fs(u)), ua):
                return ("P closure", name, u)
        for v in sub:
            if not sum_in_sh_prime(W_ua.product(fs(u), fs(v)), ua):
                return ("closure", name, u, v)
    # universal morphism into a second word algebra
    poly2 = truncated_poly("y")
    W2 = WordAlgebra(s, poly2)
    f = {0: W2.one(), 1: fs(TypedWord((1,), ()))}
    images = [word_evaluate(w, f, W2, poly) for w in words]
    for idx, u in enumerate(words):
        for w_ty in range(2):
            lifted = TypedWord((0,) + u.entries, (w_ty,) + u.types)
            if word_evaluate(lifted, f, W2, poly) != W2.p_op(w_ty, images[idx]):
                return ("intertwine", name, u, w_ty)
    for i in range(n):
        for j in range(n):
            if word_evaluate(pair[i, j], f, W2, poly) != W2.product(images[i], images[j]):
                return ("morphism", name, i, j)
    return None


def test_criterion_6_commutative_words():
    t0 = time.time()
    # the two test algebras coincide after unitization: the unitization of
    # the square-zero line is the truncated polynomial algebra on the nose,
    # so the heavy scans run once on that carrier while the unitized route
    # is exercised by the subspace-closure checks
    assert unitize(nilpotent_line()) == truncated_poly()
    instances = strict_commutative_instances(Fraction(1, 2))
    n = len(all_words(2, 2, 3))
    failures = [
        r for r in _parallel_map(_words_worker, list(range(len(instances))))
        if r is not None
    ]
    report(
        6,
        not failures,
        f"{len(instances)} commutative family slices x {n} words: commutativity on "
        f"all pairs, associativity on all {n ** 3} triples, operator identity, "
        f"subspace closure, universal morphism on all pairs; zero violations "
        f"({time.time() - t0:.1f}s)"
        + (f" first failure {failures[:1]}" if failures else ""),
    )


# -- criterion 7: pointwise and map-level verdicts agree -----------------------


def test_criterion_7_formulation_equivalence():
    t0 = time.time()
    structures = []
    eds_reps = classify.enumerate_level("eds").reps
    names = ("left", "right", "lhd", "rhd")
    for tabs in eds_reps:
        kwargs = {nm: OpTable(t) for nm, t in zip(names, tabs)}
        for dot in classify.all_op_rows(2):
            for combo in iproduct((Fraction(0), Fraction(1)), repeat=4):
                lam = ((combo[0], combo[1]), (combo[2], combo[3]))
                structures.append(
                    OmegaStructure(size=2, labels=("a", "b"), dot=OpTable(dot), lam=lam, **kwargs)
                )
    structures += [s for _, s in construction_instances() if s.has_strict_weight]
    structures += [s for _, s in strict_commutative_instances(Fraction(1, 2))]
    mismatches = []

    def compare(s, pointwise, maps, groups):
        if pointwise.ok != maps.ok:
            mismatches.append(("verdict", s))
            return
        pt = pointwise.failed_tags()
        mt = maps.failed_tags()
        for map_tag, group in groups.items():
            if (map_tag in mt) != any(g in pt for g in group):
                mismatches.append((map_tag, s))

    for s in structures:
        compare(s, check_lambda_ets(s), check_maps_level(s), MAP_TO_POINTWISE_TAGS)
    # the star level, over every (star, dot) pair on every EDS class: the
    # passing structures and every near miss
    star_count = failing = 0
    for tabs in eds_reps:
        kwargs = {nm: OpTable(t) for nm, t in zip(names, tabs)}
        for star in classify.all_op_rows(2):
            for dot in classify.all_op_rows(2):
                s = OmegaStructure(
                    size=2, labels=("a", "b"), star=OpTable(star), dot=OpTable(dot), **kwargs
                )
                pointwise = check_ets(s)
                compare(s, pointwise, check_ets_maps_level(s), ETS_MAP_TO_POINTWISE_TAGS)
                star_count += 1
                failing += not pointwise.ok
    report(
        7,
        not mismatches and star_count == 6144,
        f"{len(structures)} strict structures + {star_count} strict star structures "
        f"({failing} failing): identical verdicts, tag groups aligned "
        f"({time.time() - t0:.1f}s)",
    )


# -- criterion 8: micro-examples ------------------------------------------------


def test_criterion_8_micro_examples():
    one = unit()
    checks = [
        depth(one) == 1,
        depth(corolla(("x",))) == 1,
        depth(graft(0, one)) == 2,
        depth(graft(1, corolla(("x", "y")))) == 2,
        branches(one) == 1,
        branches(OmegaTree2()) == 2,
        branches(OmegaTree3()) == 3,
    ]
    alg = TreeAlgebra(example_semigroup(XOR, 1))
    pool = all_trees(("x", "y"), 2, max_leaves=2, max_depth=2)
    unit_sum = alg.one()
    checks.append(
        all(
            alg.product(unit_sum, fs(t)) == fs(t) == alg.product(fs(t), unit_sum)
            for t in pool
        )
    )
    report(8, all(checks), "depth values 1/2, branch counts 1/2/3, two-sided unit")


def OmegaTree2():
    from omegarb.trees import Tree

    return Tree((None, (0, unit())), ("x",))


def OmegaTree3():
    from omegarb.trees import Tree

    return Tree((None, None, (0, unit())), ("x", "y"))
