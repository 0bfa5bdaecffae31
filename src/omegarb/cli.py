"""Command-line front end.

Subcommands: ``check`` (axiom reports on structure files), ``product``
(tree-sum expressions over a structure), ``words`` (word-sum expressions
over a structure and an algebra), ``enumerate`` (brute-force classification
in one process, with an optional fixture diff), ``verify-tables`` (the shipped
classification fixtures and their remarks), ``dendriform`` (weight-0
two-operation identities over sampled trees), and ``evaluate`` (the
universal morphism for a generator substitution).

Exit codes: 0 success, 1 axiom violation or diff mismatch, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from . import classify, rba
from .omega import check, parse_structure, read_fields
from .scalars import parse_scalar
from .trees import TreeAlgebra, parse_tree_expr, sum_to_str, tree_to_str
from .words import (
    WordAlgebra,
    parse_algebra,
    parse_word_expr,
    unitize,
    word_sum_to_str,
    word_to_str,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _read(path: str) -> str:
    # utf-8-sig: a byte-order mark that an editor saved is not read as text
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_sum(value, render_term, render_sum, args) -> int:
    if args.format == "json":
        payload = [{"coeff": str(c), "term": render_term(t)} for t, c in value]
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(render_sum(value), args.out)
    return EXIT_OK


def _emit_report(report, args, labels=None) -> int:
    if args.format == "json":
        payload = {
            "level": report.level,
            "ok": report.ok,
            "violations": [
                {"tag": v.tag, "witness": list(v.witness), "count": v.count}
                for v in report.violations
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(report.summary(labels), args.out)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_check(args) -> int:
    structure = parse_structure(_read(args.structure))
    return _emit_report(check(structure, args.level), args, structure.labels)


def cmd_product(args) -> int:
    structure = parse_structure(_read(args.omega))
    if args.weight_zero:
        structure = replace(structure, weight_zero=True)
    labels = structure.labels
    value = parse_tree_expr(args.expr, labels, TreeAlgebra(structure))
    return _emit_sum(value, lambda t: tree_to_str(t, labels), lambda s: sum_to_str(s, labels), args)


def cmd_words(args) -> int:
    structure = parse_structure(_read(args.omega))
    algebra = parse_algebra(_read(args.algebra))
    if args.unitize:
        algebra = unitize(algebra)
    word_algebra = WordAlgebra(structure, algebra)
    labels = structure.labels
    value = parse_word_expr(args.expr, algebra, labels, word_algebra)
    return _emit_sum(
        value,
        lambda w: word_to_str(w, algebra, labels),
        lambda s: word_sum_to_str(s, algebra, labels),
        args,
    )


def cmd_enumerate(args) -> int:
    if args.diff:
        # a bad fixture is refused before the enumeration runs and prints
        _, _, expected = classify.load_fixture_file(args.diff, args.level, args.size)
    result = classify.enumerate_level(args.level, n=args.size)
    text = result.to_json() if args.format == "json" else result.to_text()
    _emit(text, args.out)
    if args.diff:
        found = set(result.reps)
        missing = sorted(expected - found)
        extra = sorted(found - expected)
        if missing or extra:
            print(
                f"diff mismatch: {len(missing)} fixture classes missing, "
                f"{len(extra)} unexpected classes",
                file=sys.stderr,
            )
            return EXIT_VIOLATION
        print(f"diff: exact match ({len(expected)} classes)", file=sys.stderr)
    return EXIT_OK


def cmd_verify_tables(args) -> int:
    samples = tuple(parse_scalar(tok) for tok in args.samples.split(","))
    table_report = classify.verify_lambda_ets_table(samples)
    remark_report = classify.verify_table_remarks(samples)
    if args.format == "json":
        payload = {
            "ok": table_report.ok and remark_report.ok,
            "table_checks": len(table_report.results),
            "remark_checks": len(remark_report.results),
            "failures": [
                {"name": name, "detail": detail}
                for rep in (table_report, remark_report)
                for name, detail in rep.failures()
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(table_report.summary() + "\n" + remark_report.summary(), args.out)
    return EXIT_OK if table_report.ok and remark_report.ok else EXIT_VIOLATION


def cmd_dendriform(args) -> int:
    structure = replace(parse_structure(_read(args.omega)), weight_zero=True)
    algebra = TreeAlgebra(structure)
    view = rba.DendriformView(algebra)
    samples = rba.tree_samples(structure.size, count=args.samples, seed=args.seed)
    triples = [(a, b, c) for a in samples for b in samples for c in samples]
    return _emit_report(rba.check_dendriform(view, triples), args)


def cmd_evaluate(args) -> int:
    structure = parse_structure(_read(args.omega))
    algebra = TreeAlgebra(structure)
    value = parse_tree_expr(args.expr, structure.labels, algebra)
    subst = {
        label: parse_tree_expr(expr, structure.labels, algebra)
        for _, label, expr in read_fields(_read(args.subst))
    }
    image = algebra.evaluate(value, subst, algebra)
    labels = structure.labels
    return _emit_sum(image, lambda t: tree_to_str(t, labels), lambda s: sum_to_str(s, labels), args)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="omegarb",
        description="parameter structures, free tree/word algebras, and 2-element classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("check", help="run an axiom checker on a structure file")
    p.add_argument("structure", help="structure file path")
    p.add_argument(
        "--level",
        default="lambda-ets",
        choices=("diassoc", "eds", "lambda-ets", "ets", "maps", "ets-maps"),
    )
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("product", help="evaluate a tree-sum expression")
    p.add_argument("--omega", required=True, help="structure file")
    p.add_argument("--expr", required=True, help="tree expression, '*' multiplies")
    p.add_argument("--weight-zero", action="store_true", help="drop the weight term")
    common(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("words", help="evaluate a word-sum expression")
    p.add_argument("--omega", required=True)
    p.add_argument("--algebra", required=True, help="algebra file")
    p.add_argument("--unitize", action="store_true", help="adjoin a unit first")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(fn=cmd_words)

    p = sub.add_parser("enumerate", help="brute-force classification")
    p.add_argument("--level", default="ets", choices=classify.ENUMERABLE_LEVELS)
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--diff", help="fixture JSON to compare classes against")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify-tables", help="verify the shipped classification fixtures")
    p.add_argument("--samples", default="0,1,-1,1/2", help="comma-separated scalar samples")
    common(p)
    p.set_defaults(fn=cmd_verify_tables)

    p = sub.add_parser("dendriform", help="weight-0 two-operation identities on sampled trees")
    p.add_argument("--omega", required=True)
    p.add_argument("--samples", type=int, default=6, help="sample pool size")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_dendriform)

    p = sub.add_parser("evaluate", help="apply the universal morphism for a substitution")
    p.add_argument("--omega", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--subst", required=True, help="file of 'label = tree expression' lines")
    common(p)
    p.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # StructureError, ExprError and json.JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
