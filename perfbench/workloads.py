"""The four benchmark workloads.

Each workload builds its inputs from a seed (its set-up), then exposes a
fixed ``cycle`` of operations that ``run.py`` repeats.  ``run(op)`` is the
timed part and calls only public omegarb functions.  ``observe``, ``check``
and ``final_checks`` verify the outputs and are never timed.

Library calls go through module attributes (``trees.TreeAlgebra``, not a
name imported into this module) so that the traced run, which swaps
module attributes for timing wrappers, sees every call.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from fractions import Fraction
from itertools import product as iproduct

from omegarb import classify, cli, omega, rba, tables, trees, words
from omegarb.scalars import FormalSum

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
LABELS = ("a", "b")
GENERATORS = ("x", "y")
XOR = ((0, 1), (1, 0))


def construction_instances():
    """The 11 instances of acceptance criterion 3: the four constructions on
    two-element carriers with weights 0, 1, 2/3 and the matching weights."""
    xor = omega.OpTable(XOR)
    a2_eds = omega.OmegaStructure(
        size=2, labels=LABELS, left=tables.op("aaaa"), right=tables.op("aaaa"),
        lhd=tables.op("abab"), rhd=tables.op("aabb"),
    )
    f3_eds = omega.OmegaStructure(
        size=2, labels=LABELS, left=tables.op("aabb"), right=tables.op("abab"),
        lhd=tables.op("abab"), rhd=tables.op("aabb"),
    )
    out = [
        ("zero-weight[const]", omega.example_weight_zero(a2_eds, tables.op("abba"))),
        ("zero-weight[proj]", omega.example_weight_zero(f3_eds, tables.op("abab"))),
    ]
    for weights in ((0, 1), (1, Fraction(2, 3)), (Fraction(2, 3), 0)):
        out.append((f"matching{weights}", omega.example_matching(weights)))
    for lam in (0, 1, Fraction(2, 3)):
        out.append((f"semigroup(l={lam})", omega.example_semigroup(xor, lam)))
        out.append((f"group(l={lam})", omega.example_abelian_group(xor, lam)))
    return out


def acceptance_tree_pool():
    """The 29-tree pool of criterion 3: every tree with at most two leaves and
    depth at most 2, plus the depth-3 single-branch ladders."""
    pool = trees.all_trees(GENERATORS, 2, max_leaves=2, max_depth=2)
    pool += [
        t for t in trees.all_trees(GENERATORS, 2, max_leaves=1, max_depth=3)
        if trees.depth(t) == 3
    ]
    return pool


def truncated_poly(var="x"):
    """k[var]/(var^2) with basis (1, var): the unitization of the square-zero line."""
    zero = FormalSum.zero()
    one, x = FormalSum.term(0), FormalSum.term(1)
    return words.FiniteAlgebra(("1", var), ((one, x), (x, zero)), unit=0, commutative=True)


def all_words(dim, ntypes, max_len):
    out = [words.TypedWord((e,), ()) for e in range(dim)]
    frontier = list(out)
    for _ in range(max_len - 1):
        frontier = [
            words.TypedWord((e,) + w.entries, (t,) + w.types)
            for w in frontier for e in range(dim) for t in range(ntypes)
        ]
        out.extend(frontier)
    return out


class Dealer:
    """Deals inputs on a fixed schedule of strata, kinds of input whose cost
    differs; within a stratum the seed deals every member once, in shuffled
    order, before any is dealt again.  Seeds then differ in which inputs
    meet, not in how much work a cycle holds."""

    def __init__(self, rng, strata):
        self.rng = rng
        self.strata = [list(stratum) for stratum in strata]
        self.decks = [[] for _ in self.strata]
        self.turn = 0

    def deal(self):
        i = self.turn % len(self.strata)
        self.turn += 1
        if not self.decks[i]:
            self.decks[i] = list(self.strata[i])
            self.rng.shuffle(self.decks[i])
        return self.decks[i].pop()


def strata_by(items, key):
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return [groups[k] for k in sorted(groups)]


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name = ""

    def warm(self):
        """Set-up work done once before timing (fills caches users keep)."""

    def observe(self, op, out):
        return out

    def check(self, op, obs):
        """None when the output is correct, else a message."""
        return None

    def weight(self, op) -> int:
        """Operations one cycle entry counts for."""
        return 1

    def expected_fault(self, op) -> bool:
        return False

    def final_checks(self) -> list:
        return []

    def close(self):
        pass


class TreeAssoc(Workload):
    """Free tree algebra, warm memo, one TreeAlgebra per structure."""

    name = "tree-assoc"

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        self.seed = seed
        self.instances = construction_instances()
        self.pool = acceptance_tree_pool()
        self.sums = [FormalSum.term(t) for t in self.pool]
        self.algebras = [trees.TreeAlgebra(s) for _, s in self.instances]
        n = len(self.pool)
        n_assoc, n_unit, n_rb = (12, 1, 1) if small else (174, 8, 6)
        cycle = []
        for a in range(len(self.instances)):
            # every pool tree appears in each factor slot equally often
            slots = [Dealer(rng, [range(n)]).deal for _ in range(3)]
            cycle += [("assoc", a) + tuple(d() for d in slots) for _ in range(n_assoc)]
            cycle += [("unit", a, u) for u in rng.sample(range(n), n_unit)]
            cycle += [("rb", a, u) for u in rng.sample(range(n), n_rb)]
        rng.shuffle(cycle)
        self.cycle = cycle

    def warm(self):
        for op in self.cycle:
            self.run(op)

    def run(self, op):
        alg = self.algebras[op[1]]
        s = self.sums
        if op[0] == "assoc":
            _, _, i, j, k = op
            pij = alg.product(s[i], s[j])
            lhs = alg.product(pij, s[k])
            rhs = alg.product(s[i], alg.product(s[j], s[k]))
            return (lhs == rhs, pij, lhs)
        if op[0] == "unit":
            u = s[op[2]]
            one = alg.one()
            return alg.product(one, u) == u == alg.product(u, one)
        return rba.check_rb_identity(alg, [s[op[2]]]).ok

    def check(self, op, obs):
        if op[0] != "assoc":
            return None if obs else f"{op[0]} identity fails on {self.instances[op[1]][0]}"
        ok, pij, lhs = obs
        if not ok:
            return f"not associative on {self.instances[op[1]][0]} at {op[2:]}"
        s = self.instances[op[1]][1]
        t = [self.pool[i] for i in op[2:]]
        return (
            reference.tree_product_invariants(s, t[:2], pij)
            or reference.tree_product_invariants(s, t, lhs)
        )

    def final_checks(self):
        rng = random.Random(self.seed + 1)
        errors = []
        n = len(self.pool)
        for a, (name, s) in enumerate(self.instances):
            for _ in range(4):
                i, j = rng.randrange(n), rng.randrange(n)
                got = self.algebras[a].product(self.sums[i], self.sums[j])
                if got != reference.tree_product(s, self.sums[i], self.sums[j]):
                    errors.append(f"tree product differs from the reference on {name} at {(i, j)}")
        return errors


class WordAssoc(Workload):
    """Typed words over k[x]/(x^2), one fresh WordAlgebra per structure block."""

    name = "word-assoc"

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        self.seed = seed
        self.instances = tables.strict_commutative_instances(Fraction(1, 2))
        self.poly = truncated_poly("x")
        self.poly2 = truncated_poly("y")
        self.words = all_words(2, 2, 3)
        self.sums = [FormalSum.term(w) for w in self.words]
        self.y = FormalSum.term(words.TypedWord((1,), ()))
        self.current = None
        strata = strata_by(
            range(len(self.words)), lambda i: (len(self.words[i].entries), self.words[i].entries)
        )
        n_blocks, n_assoc, n_comm, n_rb, n_eval = (1, 3, 2, 1, 1) if small else (2, 14, 8, 2, 6)
        blocks = []
        for a in range(len(self.instances)):
            # entry patterns on a fixed schedule, the seed dealing the types
            pick = Dealer(rng, strata).deal
            for _ in range(n_blocks):
                block = [("assoc", a, pick(), pick(), pick()) for _ in range(n_assoc)]
                block += [("comm", a, pick(), pick()) for _ in range(n_comm)]
                block += [("rb", a, pick()) for _ in range(n_rb)]
                block += [("eval", a, pick(), pick(), rng.randrange(2)) for _ in range(n_eval)]
                # a fixed order, like the fixed pattern schedule, keeps the
                # memo's warm-up from moving between ops from seed to seed
                random.Random(len(blocks)).shuffle(block)
                # the first op of a block starts from fresh algebras (a cold memo)
                blocks.append([("fresh",) + block[0]] + block[1:])
        rng.shuffle(blocks)
        self.cycle = [op for block in blocks for op in block]

    def run(self, op):
        if op[0] == "fresh":
            s = self.instances[op[2]][1]
            self.current = (words.WordAlgebra(s, self.poly), words.WordAlgebra(s, self.poly2))
            op = op[1:]
        W, W2 = self.current
        s = self.sums
        kind = op[0]
        if kind == "assoc":
            _, _, i, j, k = op
            lhs = W.product(W.product(s[i], s[j]), s[k])
            return (lhs == W.product(s[i], W.product(s[j], s[k])), lhs)
        if kind == "comm":
            uv = W.product(s[op[2]], s[op[3]])
            return (uv == W.product(s[op[3]], s[op[2]]), uv)
        if kind == "rb":
            return rba.check_rb_identity(W, [s[op[2]]]).ok
        _, _, i, j, w = op
        f = {0: W2.one(), 1: self.y}
        fu = words.word_evaluate(s[i], f, W2, self.poly)
        fv = words.word_evaluate(s[j], f, W2, self.poly)
        fuv = words.word_evaluate(W.product(s[i], s[j]), f, W2, self.poly)
        lifted = words.word_evaluate(W.p_op(w, s[i]), f, W2, self.poly)
        return (fuv == W2.product(fu, fv), lifted == W2.p_op(w, fu))

    def check(self, op, obs):
        kind = op[1] if op[0] == "fresh" else op[0]
        if kind == "rb":
            ok = obs
        elif kind == "eval":
            ok = all(obs)
        else:
            ok = obs[0]
        return None if ok else f"word {kind} check fails at {op}"

    def final_checks(self):
        rng = random.Random(self.seed + 1)
        errors = []
        n = len(self.words)
        for name, s in self.instances:
            W = words.WordAlgebra(s, self.poly)
            for _ in range(4):
                i, j = rng.randrange(n), rng.randrange(n)
                got = W.product(self.sums[i], self.sums[j])
                want = reference.word_product(s, self.poly, self.sums[i], self.sums[j])
                if got != want:
                    errors.append(f"word product differs from the reference on {name} at {(i, j)}")
        return errors


class AxiomScan(Workload):
    """Layered axiom checks over a stratified sample of the strict structures."""

    name = "axiom-scan"
    EXPECTED_COUNTS = {"diassoc": (13, 8), "eds": (45, 24), "ets": (124, 64)}
    SEARCH_BOUND = 2
    TABLE_SCALARS = ("0", "1", "-1", "1/2", "2", "-1/3", "3/2", "2/3")

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        self.seed = seed
        self.setup_errors = []
        results = {}
        for level, want in self.EXPECTED_COUNTS.items():
            res = classify.enumerate_level(level, n=2, workers=1)
            results[level] = res
            if (res.raw_count, res.class_count) != want:
                self.setup_errors.append(
                    f"{level}: {res.raw_count}/{res.class_count} structures, want {want}"
                )
        level, size, expected = classify.load_fixture_file(
            os.path.join(ROOT, "fixtures", "ets2.json")
        )
        found = set(results["ets"].reps)
        if (level, size) != ("ets", 2) or found != expected:
            self.setup_errors.append(
                f"fixture diff: {len(expected - found)} missing, {len(found - expected)} extra"
            )
        names = ("left", "right", "lhd", "rhd")
        self.eds = [
            {nm: omega.OpTable(t) for nm, t in zip(names, tabs)}
            for tabs in results["eds"].reps
        ]
        self.dots = classify.all_op_rows(2)
        self.weights = [
            ((c[0], c[1]), (c[2], c[3]))
            for c in iproduct((Fraction(0), Fraction(1)), repeat=4)
        ]
        per_class = 2 if small else 20
        cycle = []
        for c in range(len(self.eds)):
            # each class gets every dot table and every weight table about
            # equally often; the seed pairs them
            dots = Dealer(rng, [range(len(self.dots))])
            weights = Dealer(rng, [range(len(self.weights))])
            cycle += [("scan", c, dots.deal(), weights.deal()) for _ in range(per_class)]
        rng.shuffle(cycle)
        scalar = Fraction(rng.choice(self.TABLE_SCALARS))
        cycle.insert(rng.randrange(len(cycle) + 1), ("tables", scalar))
        self.cycle = cycle
        # at one scalar: one check per weight-level row and per associative dot
        self.table_checks = len(tables.LETS_ROWS) + len(classify.associative_tables(2))

    def structure(self, op):
        _, c, d, w = op
        return omega.OmegaStructure(
            size=2, labels=LABELS, dot=omega.OpTable(self.dots[d]), lam=self.weights[w],
            **self.eds[c],
        )

    def run(self, op):
        if op[0] == "tables":
            return classify.verify_lambda_ets_table((op[1],))
        s = self.structure(op)
        pointwise = omega.check_lambda_ets(s)
        maps = omega.check_maps_level(s)
        witness = None
        if not pointwise.ok:
            witness = trees.assoc_counterexample_search(s, GENERATORS, bound=self.SEARCH_BOUND)
        return (pointwise, maps, witness)

    def weight(self, op):
        return self.table_checks if op[0] == "tables" else 1

    def check(self, op, obs):
        if op[0] == "tables":
            if not obs.ok or len(obs.results) != self.table_checks:
                return f"table verification fails: {obs.failures()[:2]}"
            return None
        pointwise, maps, witness = obs
        if pointwise.ok != maps.ok:
            return f"pointwise and map-level verdicts differ at {op}"
        pt, mt = pointwise.failed_tags(), maps.failed_tags()
        for map_tag, group in omega.MAP_TO_POINTWISE_TAGS.items():
            if (map_tag in mt) != any(g in pt for g in group):
                return f"tag group {map_tag} misaligned at {op}"
        if pointwise.ok:
            return None
        if witness is None:
            return f"no associativity witness for a failing structure at {op}"
        s = self.structure(op)
        t1, t2, t3 = (FormalSum.term(t) for t in witness)
        lhs = reference.tree_product(s, reference.tree_product(s, t1, t2), t3)
        rhs = reference.tree_product(s, t1, reference.tree_product(s, t2, t3))
        return None if lhs != rhs else f"witness {witness} is associative at {op}"

    def final_checks(self):
        return list(self.setup_errors)


SUBST = "x = (| x |)\ny = (| y |)\n"
# (structure files, level): strict files carry (dot, lambda), star files (star, dot)
CHECKS = (("strict", "diassoc"), ("strict", "eds"), ("strict", "lambda-ets"),
          ("strict", "maps"), ("star", "ets"), ("star", "ets-maps"))
_TABLES = "left = [[0,0],[0,1]]\nright = [[0,0],[0,1]]\nlhd = [[0,0],[0,0]]\nrhd = [[0,0],[0,0]]\n"

# Requests that fail every time on this code, each for a named fault; their
# inputs do not depend on the seed.
FAULTS = (
    # 1: an unclosed '[' makes omega._parse_tokens raise IndexError
    ("unclosed-bracket", "size = 2\nleft = [[0,0],[0,1]\nright = [[0,0],[0,1]]\n"
     "lhd = [[0,0],[0,0]]\nrhd = [[0,0],[0,0]]\n", ["check", "{file}"]),
    # 2: a '{...}' cell in a lambda table makes parse_structure raise TypeError
    ("lambda-cell", "size = 2\n" + _TABLES + "dot = [[0,0],[0,1]]\nlambda = [[{0:1},1],[1,1]]\n",
     ["check", "{file}"]),
    # 3: a psi key outside the carrier makes the map-level check raise IndexError
    ("psi-key", "size = 2\n" + _TABLES + "psi = [[{0:1},{5:1}],[{0:1},{1:1}]]\n",
     ["check", "{file}", "--level", "maps"]),
    # 4: dendriform ignores --format json and writes text
    ("dendriform-json", "size = 2\nlabels = a b\nleft = [[0,1],[1,0]]\nright = [[0,1],[1,0]]\n"
     "lhd = [[0,1],[0,1]]\nrhd = [[0,0],[1,1]]\ndot = [[0,1],[1,0]]\nlambda = [[1,1],[1,1]]\n",
     ["dendriform", "--omega", "{file}", "--samples", "2", "--format", "json"]),
)


class CliQueries(Workload):
    """README-style requests through omegarb.cli.main, in process."""

    name = "cli-queries"

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        self.seed = seed
        os.makedirs(WORK_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR)
        self.out = os.path.join(self.dir, "out.txt")
        pool = trees.all_trees(GENERATORS, 2, max_leaves=3, max_depth=3)
        poly = truncated_poly("x")
        word_pool = all_words(2, 2, 3)
        strict = [s for _, s in construction_instances()]
        commutative = [s for _, s in tables.strict_commutative_instances(Fraction(1, 2))]
        star = [s for _, s in tables.ets_fixture_structures()]
        eds = classify.enumerate_level("eds", n=2, workers=1).reps
        dots = classify.all_op_rows(2)
        for _ in range(12):
            tabs = rng.choice(eds)
            lam = tuple(tuple(Fraction(rng.randrange(2)) for _ in range(2)) for _ in range(2))
            strict.append(omega.OmegaStructure(
                size=2, labels=LABELS, dot=omega.OpTable(rng.choice(dots)), lam=lam,
                **{nm: omega.OpTable(t) for nm, t in zip(("left", "right", "lhd", "rhd"), tabs)},
            ))
        self.structures = {}
        files = {"strict": [], "commutative": [], "star": []}
        for kind, group in (("strict", strict), ("commutative", commutative), ("star", star)):
            for idx, s in enumerate(group):
                path = self._write(f"{kind}{idx}.txt", omega.serialize_structure(s))
                files[kind].append(path)
                self.structures[path] = s
        self.algebra_path = self._write("poly.txt", words.serialize_algebra(poly))
        self.poly = poly
        subst = self._write("subst.txt", SUBST)
        # request kinds, levels, expression sizes and input strata follow a
        # fixed schedule; the seed deals the concrete files, trees and words
        shapes = strata_by(pool, lambda t: (trees.leaf_count(t), trees.depth(t)))
        tree_pick = Dealer(rng, shapes).deal
        word_pick = Dealer(rng, strata_by(word_pool, lambda w: (len(w.entries), w.entries))).deal
        strict_pick = Dealer(rng, [files["strict"]]).deal
        star_pick = Dealer(rng, [files["star"]]).deal
        product_pick = Dealer(rng, [files["strict"][:11] + files["commutative"]]).deal
        words_pick = Dealer(rng, [files["commutative"]]).deal
        eval_pick = Dealer(rng, [files["strict"][:11]]).deal
        schedule = ["check"] * 8 + ["product"] * 5 + ["words"] * 4 + ["evaluate"] * 3
        n_requests = 24 if small else 404
        requests = []
        seen = dict.fromkeys(schedule, 0)
        for i in range(n_requests - len(FAULTS)):
            kind = schedule[i % len(schedule)]
            m = seen[kind]
            seen[kind] += 1
            if kind == "check":
                group, level = CHECKS[m % len(CHECKS)]
                path = strict_pick() if group == "strict" else star_pick()
                argv = ["check", path, "--level", level]
            elif kind == "product":
                argv = ["product", "--omega", product_pick(), "--expr",
                        self._tree_expr([tree_pick() for _ in range(2 + m % 4)], m)]
            elif kind == "words":
                expr = " * ".join(
                    words.word_to_str(word_pick(), poly, LABELS) for _ in range(2 + m % 2)
                )
                argv = ["words", "--omega", words_pick(), "--algebra", self.algebra_path,
                        "--expr", expr]
            else:
                argv = ["evaluate", "--omega", eval_pick(), "--expr",
                        self._tree_expr([tree_pick() for _ in range(2 + m % 3)], m),
                        "--subst", subst]
            fmt = ("text", "json")[i // len(schedule) % 2]
            requests.append(("request", argv + ["--format", fmt, "--out", self.out]))
        rng.shuffle(requests)
        for name, text, argv in FAULTS:
            path = self._write(f"fault-{name}.txt", text)
            argv = [path if a == "{file}" else a for a in argv] + ["--out", self.out]
            requests.insert(rng.randrange(len(requests) + 1), ("fault", argv, name))
        self.cycle = requests

    def _write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    @staticmethod
    def _tree_expr(factors, m):
        rendered = [trees.tree_to_str(t, LABELS) for t in factors]
        if len(rendered) == 4 and m % 2:
            coeff = ("2/3", "-1", "3")[m % 3]
            return f"{coeff}*{rendered[0]} * {rendered[1]} + {rendered[2]} * {rendered[3]}"
        return " * ".join(rendered)

    def run(self, op):
        return cli.main(op[1])

    def expected_fault(self, op):
        return op[0] == "fault"

    def observe(self, op, out):
        try:
            with open(self.out, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self.out)
        except FileNotFoundError:
            text = None
        return (out, text)

    def check(self, op, obs):
        code, text = obs
        argv = op[1]
        if op[0] == "fault":
            if op[2] == "dendriform-json":
                try:
                    json.loads(text or "")
                except ValueError:
                    return "dendriform --format json did not write JSON"
                return None if code == 0 else f"dendriform exit code {code}"
            return None if code == 2 else f"malformed input gave exit code {code}, not 2"
        if text is None:
            return f"no output from {argv[0]}"
        fmt = argv[argv.index("--format") + 1]
        if argv[0] == "check":
            return self._check_check(argv, code, text, fmt)
        if code != 0:
            return f"{argv[0]} exit code {code}"
        s = self.structures[argv[argv.index("--omega") + 1]]
        expr = argv[argv.index("--expr") + 1]
        if argv[0] == "words":
            W = words.WordAlgebra(s, self.poly)
            want = words.parse_word_expr(expr, self.poly, LABELS, W)

            def parse(t):
                return words.parse_word_expr(t, self.poly, LABELS)
        else:
            # for evaluate, the substitution x -> (| x |), y -> (| y |) is the
            # identity, so the image is the input expression's value
            want = trees.parse_tree_expr(expr, LABELS, trees.TreeAlgebra(s))

            def parse(t):
                return trees.parse_tree_expr(t, LABELS)
        if fmt == "json":
            got = FormalSum.zero()
            for item in json.loads(text):
                got = got + parse(item["term"]).scale(Fraction(item["coeff"]))
        else:
            got = parse(text.strip())
        return None if got == want else f"{argv[0]} output does not parse back to the product"

    def _check_check(self, argv, code, text, fmt):
        s = self.structures[argv[1]]
        level = argv[argv.index("--level") + 1]
        report = omega.check(s, level)
        if code != (0 if report.ok else 1):
            return f"check --level {level} exit code {code}"
        if fmt == "json":
            payload = json.loads(text)
            tags = [v["tag"] for v in payload["violations"]]
            if payload["ok"] != report.ok or tags != [v.tag for v in report.violations]:
                return f"check --level {level} JSON disagrees with the library"
        elif text.splitlines()[0].split()[:2] != [f"{level}:", "PASS" if report.ok else "FAIL"]:
            return f"check --level {level} text disagrees with the library"
        return None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


WORKLOADS = {cls.name: cls for cls in (TreeAssoc, WordAssoc, AxiomScan, CliQueries)}
