"""The traced run: timing wrappers around omegarb's public callables.

``Tracer.install()`` replaces each traced function or method with a wrapper,
in its defining module or class and in every omegarb module that imported
it by name; ``uninstall()`` puts the originals back.  Each wrapper records a
span (name, start, end, parent span) in column arrays kept in memory, and
``write_spans`` saves them as CSV at the end.  The ``FormalSum`` methods of
``scalars`` run millions of times, so they are counted and timed but not
stored as span rows; their time still counts as child time of the
enclosing span.

Self time is a span's duration minus the time its child spans cover.  An
"inclusive" time adds up only the outermost spans of a group, so recursion
and nesting inside the group are not counted twice.

The memo metrics come from the diamond_basis wrappers, which keep their own
set of the (t, u) keys seen per algebra instance: a key seen before is a hit.
This mirrors the program's memo only while that memo never evicts, which
holds for the dict it uses today.
"""

from __future__ import annotations

import weakref
from array import array
from time import perf_counter_ns

import omegarb
from omegarb import classify, cli, omega, rba, scalars, tables, trees, words

MODULES = (scalars, omega, trees, rba, words, classify, tables, cli)

# (owner, attribute, span name, stored as a span row)
TRACED = [
    (scalars.FormalSum, "__add__", "scalars.FormalSum.add", False),
    (scalars.FormalSum, "scale", "scalars.FormalSum.scale", False),
    (scalars.FormalSum, "map_basis", "scalars.FormalSum.map_basis", False),
    (scalars.FormalSum, "apply_linear", "scalars.FormalSum.apply_linear", False),
    (scalars.FormalSum, "items", "scalars.FormalSum.items", False),
]
TRACED += [(omega, f, f"omega.{f}", True) for f in (
    "check_diassociative", "check_eds", "check_lambda_ets", "check_ets",
    "check_maps_level", "check_ets_maps_level", "check", "parse_structure",
    "serialize_structure", "example_weight_zero", "example_matching", "example_semigroup",
    "example_abelian_group", "build_example", "opposite", "swap_conjugate",
    "ets_to_lambda_ets", "is_commutative",
)]
TRACED += [
    (omega.OmegaStructure, "__init__", "omega.OmegaStructure.init", True),
    (omega.OpTable, "__init__", "omega.OpTable.init", True),
    (trees.TreeAlgebra, "product", "trees.TreeAlgebra.product", True),
    (trees.TreeAlgebra, "diamond_basis", "trees.TreeAlgebra.diamond_basis", True),
    (trees.TreeAlgebra, "evaluate", "trees.TreeAlgebra.evaluate", True),
]
TRACED += [(trees, f, f"trees.{f}", True) for f in (
    "assoc_counterexample_search", "all_trees", "parse_tree_expr", "sum_to_str", "tree_to_str",
)]
TRACED += [
    (words.FiniteAlgebra, "__init__", "words.FiniteAlgebra.init", True),
    (words.WordAlgebra, "__init__", "words.WordAlgebra.init", True),
    (words.WordAlgebra, "product", "words.WordAlgebra.product", True),
    (words.WordAlgebra, "diamond_basis", "words.WordAlgebra.diamond_basis", True),
]
TRACED += [(words, f, f"words.{f}", True) for f in (
    "unitize", "word_evaluate", "parse_algebra", "serialize_algebra", "parse_word_expr",
    "word_sum_to_str", "word_to_str",
)]
TRACED += [(rba, f, f"rba.{f}", True) for f in (
    "check_rb_identity", "check_dendriform", "tree_samples",
)]
TRACED += [(classify, f, f"classify.{f}", True) for f in (
    "enumerate_level", "verify_lambda_ets_table", "verify_table_remarks", "load_fixture_file",
    "diff_against_fixtures", "lambda_constraint_probe",
)]
TRACED += [(tables, f, f"tables.{f}", True) for f in (
    "strict_commutative_instances", "ets_fixture_structures", "f3_instance", "lets_row",
)]
TRACED += [
    (tables.LambdaEtsRow, "instantiate", "tables.LambdaEtsRow.instantiate", True),
    (cli, "main", "cli.main", True),
]

# groups whose outermost spans give an inclusive time
GROUPS = {
    "scalars.add": ["scalars.FormalSum.add"],
    "scalars.apply_linear": ["scalars.FormalSum.apply_linear"],
    "trees.search": ["trees.assoc_counterexample_search"],
    "trees.evaluate": ["trees.TreeAlgebra.evaluate"],
    "trees.render": ["trees.sum_to_str", "trees.tree_to_str"],
    "words.evaluate": ["words.word_evaluate"],
    "words.algebra_build": ["words.FiniteAlgebra.init", "words.WordAlgebra.init", "words.unitize"],
    "words.render": ["words.word_sum_to_str", "words.word_to_str"],
    "omega.pointwise": ["omega.check_diassociative", "omega.check_eds",
                        "omega.check_lambda_ets", "omega.check_ets"],
    "omega.maps": ["omega.check_maps_level", "omega.check_ets_maps_level"],
    "omega.parse": ["omega.parse_structure"],
    "omega.construct": ["omega.OmegaStructure.init", "omega.OpTable.init",
                        "omega.example_weight_zero", "omega.example_matching",
                        "omega.example_semigroup", "omega.example_abelian_group",
                        "omega.build_example", "omega.opposite", "omega.swap_conjugate",
                        "omega.ets_to_lambda_ets"],
    "rba.rb": ["rba.check_rb_identity"],
    "rba.dendriform": ["rba.check_dendriform"],
    "classify.enumerate": ["classify.enumerate_level"],
    "classify.verify_tables": ["classify.verify_lambda_ets_table", "classify.verify_table_remarks"],
    "tables.instances": ["tables.strict_commutative_instances", "tables.ets_fixture_structures",
                         "tables.f3_instance", "tables.lets_row",
                         "tables.LambdaEtsRow.instantiate"],
}

# per-layer metric -> (kind, argument, unit); see Tracer.metrics
METRICS = {
    "scalars.add_calls": ("calls", ["scalars.FormalSum.add"], "count"),
    "scalars.add_s": ("incl", "scalars.add", "s"),
    "scalars.scale_calls": ("calls", ["scalars.FormalSum.scale"], "count"),
    "scalars.map_basis_calls": ("calls", ["scalars.FormalSum.map_basis"], "count"),
    "scalars.apply_linear_calls": ("calls", ["scalars.FormalSum.apply_linear"], "count"),
    "scalars.apply_linear_s": ("incl", "scalars.apply_linear", "s"),
    "scalars.sorted_iter_calls": ("calls", ["scalars.FormalSum.items"], "count"),
    "scalars.integral_coeff_share": ("share", ("integral_coeffs", "coeffs"), "share"),
    "trees.product_calls": ("calls", ["trees.TreeAlgebra.product"], "count"),
    "trees.product_self_s": ("self", ["trees.TreeAlgebra.product"], "s"),
    "trees.diamond_calls": ("calls", ["trees.TreeAlgebra.diamond_basis"], "count"),
    "trees.diamond_self_s": ("self", ["trees.TreeAlgebra.diamond_basis"], "s"),
    "trees.memo_hit_ratio": ("share", ("trees.memo_hits", "trees.memo_lookups"), "ratio"),
    "trees.memo_entries": ("count", "trees.memo_entries", "count"),
    "trees.terms_out": ("count", "trees.terms_out", "count"),
    "trees.search_calls": ("calls", ["trees.assoc_counterexample_search"], "count"),
    "trees.search_s": ("incl", "trees.search", "s"),
    "trees.evaluate_s": ("incl", "trees.evaluate", "s"),
    "trees.parse_s": ("self", ["trees.parse_tree_expr"], "s"),
    "trees.render_s": ("incl", "trees.render", "s"),
    "words.product_calls": ("calls", ["words.WordAlgebra.product"], "count"),
    "words.product_self_s": ("self", ["words.WordAlgebra.product"], "s"),
    "words.diamond_calls": ("calls", ["words.WordAlgebra.diamond_basis"], "count"),
    "words.diamond_self_s": ("self", ["words.WordAlgebra.diamond_basis"], "s"),
    "words.memo_hit_ratio": ("share", ("words.memo_hits", "words.memo_lookups"), "ratio"),
    "words.memo_entries": ("count", "words.memo_entries", "count"),
    "words.terms_out": ("count", "words.terms_out", "count"),
    "words.evaluate_calls": ("calls", ["words.word_evaluate"], "count"),
    "words.evaluate_s": ("incl", "words.evaluate", "s"),
    "words.algebra_build_s": ("incl", "words.algebra_build", "s"),
    "words.parse_s": ("self", ["words.parse_word_expr", "words.parse_algebra"], "s"),
    "words.render_s": ("incl", "words.render", "s"),
    "omega.pointwise_calls": ("calls", GROUPS["omega.pointwise"], "count"),
    "omega.pointwise_s": ("incl", "omega.pointwise", "s"),
    "omega.maps_calls": ("calls", GROUPS["omega.maps"], "count"),
    "omega.maps_s": ("incl", "omega.maps", "s"),
    "omega.parse_s": ("incl", "omega.parse", "s"),
    "omega.construct_s": ("incl", "omega.construct", "s"),
    "rba.rb_instances": ("count", "rba.rb_instances", "count"),
    "rba.rb_s": ("incl", "rba.rb", "s"),
    "rba.dendriform_triples": ("count", "rba.dendriform_triples", "count"),
    "rba.dendriform_s": ("incl", "rba.dendriform", "s"),
    "classify.enumerate_s": ("incl", "classify.enumerate", "s"),
    "classify.raw_survivors": ("count", "classify.raw_survivors", "count"),
    "classify.classes": ("count", "classify.classes", "count"),
    "classify.verify_tables_s": ("incl", "classify.verify_tables", "s"),
    "tables.instances_s": ("incl", "tables.instances", "s"),
    "cli.main_calls": ("calls", ["cli.main"], "count"),
    "cli.self_s": ("self", ["cli.main"], "s"),
}


def _memo_hook(family):
    def after(tracer, args, kwargs, result):
        alg, t, u = args[0], args[1], args[2]
        seen = tracer.memo_keys.get(alg)
        if seen is None:
            seen = tracer.memo_keys[alg] = set()
        c = tracer.counts
        c[f"{family}.memo_lookups"] = c.get(f"{family}.memo_lookups", 0) + 1
        if (t, u) in seen:
            c[f"{family}.memo_hits"] = c.get(f"{family}.memo_hits", 0) + 1
        else:
            seen.add((t, u))
            c[f"{family}.memo_entries"] = c.get(f"{family}.memo_entries", 0) + 1
    return after


def _product_hook(family):
    def after(tracer, args, kwargs, result):
        c = tracer.counts
        coeffs = list(result._terms.values())
        c[f"{family}.terms_out"] = c.get(f"{family}.terms_out", 0) + len(coeffs)
        c["coeffs"] = c.get("coeffs", 0) + len(coeffs)
        c["integral_coeffs"] = c.get("integral_coeffs", 0) + sum(
            1 for v in coeffs if v.denominator == 1
        )
    return after


def _rb_hook(tracer, args, kwargs, result):
    R, samples = args[0], list(args[1])
    structure = args[2] if len(args) > 2 else kwargs.get("structure")
    size = (structure or R.omega).size
    c = tracer.counts
    c["rba.rb_instances"] = c.get("rba.rb_instances", 0) + len(samples) ** 2 * size ** 2


def _dendriform_hook(tracer, args, kwargs, result):
    c = tracer.counts
    c["rba.dendriform_triples"] = c.get("rba.dendriform_triples", 0) + len(args[1])


def _enumerate_hook(tracer, args, kwargs, result):
    c = tracer.counts
    c["classify.raw_survivors"] = c.get("classify.raw_survivors", 0) + result.raw_count
    c["classify.classes"] = c.get("classify.classes", 0) + result.class_count


HOOKS = {
    "trees.TreeAlgebra.diamond_basis": _memo_hook("trees"),
    "words.WordAlgebra.diamond_basis": _memo_hook("words"),
    "trees.TreeAlgebra.product": _product_hook("trees"),
    "words.WordAlgebra.product": _product_hook("words"),
    "rba.check_rb_identity": _rb_hook,
    "rba.check_dendriform": _dendriform_hook,
    "classify.enumerate_level": _enumerate_hook,
}


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name, _ in TRACED]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        group_of = {name: g for g, members in GROUPS.items() for name in members}
        self.group_index = {g: i for i, g in enumerate(GROUPS)}
        self.span_group = [self.group_index.get(group_of.get(n), -1) for n in self.names]
        self.group_depth = [0] * len(GROUPS)
        self.group_ns = [0] * len(GROUPS)
        self.counts: dict = {}
        self.memo_keys = weakref.WeakKeyDictionary()
        # span rows, one column per field; end is filled in when the span closes
        self.row_name = array("q")
        self.row_parent = array("q")
        self.row_start = array("q")
        self.row_end = array("q")
        # open spans: [name index, start, child ns, row index]
        self.stack: list = []
        self.paused = False
        self.patches: list = []
        self.wrappers = [
            self._wrap(i, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr),
                       record, HOOKS.get(name))
            for i, (owner, attr, name, record) in enumerate(TRACED)
        ]

    def _wrap(self, idx, fn, record, hook):
        tracer = self
        stack = self.stack
        group = self.span_group[idx]

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            row = -1
            if record:
                row = len(tracer.row_name)
                tracer.row_name.append(idx)
                tracer.row_parent.append(parent)
                tracer.row_start.append(0)
                tracer.row_end.append(0)
            outer = group >= 0 and tracer.group_depth[group] == 0
            if group >= 0:
                tracer.group_depth[group] += 1
            frame = [idx, 0, 0, row if record else parent]
            stack.append(frame)
            start = frame[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if group >= 0:
                    tracer.group_depth[group] -= 1
                    if outer:
                        tracer.group_ns[group] += dur
                if record:
                    tracer.row_start[row] = start
                    tracer.row_end[row] = end
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self):
        modules = MODULES + (omegarb,)
        for (owner, attr, _, _), wrapper in zip(TRACED, self.wrappers):
            original = wrapper.__wrapped__
            if isinstance(owner, type):
                self.patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def metrics(self) -> dict:
        index = {name: i for i, name in enumerate(self.names)}
        out = {}
        for metric, (kind, arg, unit) in METRICS.items():
            if kind == "calls":
                value = sum(self.calls[index[n]] for n in arg)
            elif kind == "self":
                value = sum(self.self_ns[index[n]] for n in arg) / 1e9
            elif kind == "incl":
                value = self.group_ns[self.group_index[arg]] / 1e9
            elif kind == "count":
                value = self.counts.get(arg, 0)
            else:
                num, den = (self.counts.get(k, 0) for k in arg)
                value = num / den if den else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.row_name)):
                fh.write(
                    f"{i},{self.row_parent[i]},{self.names[self.row_name[i]]},"
                    f"{self.row_start[i]},{self.row_end[i]}\n"
                )
