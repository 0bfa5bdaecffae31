import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import structure_oracle as oracle
from omegarb.cli import main
from omegarb.omega import StructureError, _parse_value, parse_structure, serialize_structure
from omegarb.trees import MAX_TREE_DEPTH, ExprError, TreeAlgebra, depth, parse_tree_expr
from omegarb.words import (
    MAX_WORD_LENGTH,
    WordAlgebra,
    parse_algebra,
    parse_word_expr,
    word_length,
)
from omegarb.tables import op
from omegarb.omega import OmegaStructure


FAMILY = """\
size = 2
labels = a b
left  = [[0,1],[1,0]]
right = [[0,1],[1,0]]
lhd   = [[0,1],[0,1]]
rhd   = [[0,0],[1,1]]
dot   = [[0,1],[1,0]]
lambda = [[1,1],[1,1]]
"""

ALGEBRA = """\
basis = [1, x]
unit = 1
commutative = true
mult = [[{0:1},{1:1}],[{1:1},{}]]
"""


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.txt"
    path.write_text(FAMILY)
    return str(path)


@pytest.fixture
def algebra_file(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text(ALGEBRA)
    return str(path)


def test_check_pass_and_fail_exit_codes(family_file, tmp_path, capsys):
    assert main(["check", family_file, "--level", "lambda-ets"]) == 0
    assert "PASS" in capsys.readouterr().out
    broken = tmp_path / "broken.txt"
    broken.write_text(FAMILY.replace("rhd   = [[0,0],[1,1]]", "rhd   = [[0,1],[0,1]]"))
    assert main(["check", str(broken), "--level", "eds"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out


def test_check_json_schema(family_file, capsys):
    assert main(["check", family_file, "--level", "maps", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["violations"] == []


def test_check_usage_errors(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["check", str(missing)]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("size = 2\nleft = [[0,0],[0,5]]\n")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_product_three_term_expansion(family_file, capsys):
    assert main(["product", "--omega", family_file,
                 "--expr", "([a](|)) * ([b](|))"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "([b](|)) + ([b]([a](|))) + ([b]([b](|)))"


def test_product_round_trip(family_file, capsys):
    expr = "(| x |) + 2/3*(|)"
    assert main(["product", "--omega", family_file, "--expr", expr]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["product", "--omega", family_file, "--expr", first]) == 0
    assert capsys.readouterr().out.strip() == first


def test_product_weight_zero_flag(family_file, capsys):
    assert main(["product", "--omega", family_file, "--weight-zero",
                 "--expr", "([a](|)) * ([b](|))"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "([b]([a](|))) + ([b]([b](|)))"


def test_words_command(family_file, algebra_file, capsys):
    assert main(["words", "--omega", family_file, "--algebra", algebra_file,
                 "--expr", "1 [a] x * 1 [b] x"]) == 0
    out = capsys.readouterr().out.strip()
    assert out != ""
    # round trip
    assert main(["words", "--omega", family_file, "--algebra", algebra_file,
                 "--expr", out]) == 0
    assert capsys.readouterr().out.strip() == out


def test_enumerate_diff_match_and_mismatch(tmp_path, capsys):
    assert main(["enumerate", "--level", "ets", "--size", "2",
                 "--diff", "fixtures/ets2.json", "--out", str(tmp_path / "e.txt")]) == 0
    err = capsys.readouterr().err
    assert "exact match" in err
    # a doctored fixture file must make the diff fail
    data = json.loads(Path("fixtures/ets2.json").read_text())
    data["classes"] = data["classes"][:-1]
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(data))
    assert main(["enumerate", "--level", "ets", "--size", "2",
                 "--diff", str(doctored), "--out", str(tmp_path / "e2.txt")]) == 1


def test_enumerate_json_payload(capsys):
    assert main(["enumerate", "--level", "eds", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["raw_count"] == 45 and payload["class_count"] == 24
    assert {"left", "right", "lhd", "rhd"} <= set(payload["classes"][0])


def test_verify_tables_command(capsys):
    assert main(["verify-tables", "--samples", "0,1,1/2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_dendriform_command(family_file):
    assert main(["dendriform", "--omega", family_file, "--samples", "4"]) == 0


def test_dendriform_json(family_file, capsys):
    assert main(["dendriform", "--omega", family_file, "--samples", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"level": "dendriform", "ok": True, "violations": []}


def test_evaluate_command(family_file, tmp_path, capsys):
    subst = tmp_path / "subst.txt"
    subst.write_text("x = ([a](|))\ny = (| x |)\n")
    assert main(["evaluate", "--omega", family_file, "--expr", "(| x |)",
                 "--subst", str(subst)]) == 0
    assert capsys.readouterr().out.strip() == "([a](|))"


def test_expression_parse_error_exit_code(family_file, capsys):
    assert main(["product", "--omega", family_file, "--expr", "(| x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_structure_round_trip_through_serializer(family_file):
    s = parse_structure(Path(family_file).read_text())
    assert parse_structure(serialize_structure(s)) == s
    assert s.rhd == op("aabb")
    assert isinstance(s, OmegaStructure)


# -- malformed input ----------------------------------------------------------

TABLES = "size = 2\nleft = [[0,0],[0,1]]\nright = [[0,0],[0,1]]\nlhd = [[0,0],[0,0]]\nrhd = [[0,0],[0,0]]\n"


@pytest.mark.parametrize("text, message", [
    (TABLES.replace("left = [[0,0],[0,1]]", "left = [[0,0],[0,1]"), "unclosed"),
    (TABLES + "dot = [[0,0],[0,{1\n", "unclosed"),
    (TABLES + "dot = [[0,0],[0,1]]\nlambda = [[{0:1},1],[1,1]]\n", "lambda entry"),
    (TABLES + "dot = [[0,0],[0,1]]\nlambda = 1\n", "lambda must be a table"),
    (TABLES + "psi = [[{0:1},{5:1}],[{0:1},{1:1}]]\n", "outside the carrier"),
    (TABLES + "psi = [[{0:1},{3/2:1}],[{0:1},{1:1}]]\n", "psi key must be an integer"),
    (TABLES.replace("left = [[0,0],[0,1]]", "left = [[1/2,0],[0,1]]"), "not an integer"),
    (TABLES.replace("size = 2", "size = two"), "size"),
    (TABLES + "psi = [[{0:1,0:2},{0:1}],[{0:1},{1:1}]]\n", "duplicate key 0"),
    (TABLES + "weight_zero = ture\n", "weight_zero must be one of"),
])
def test_malformed_structure_is_a_usage_error(tmp_path, capsys, text, message):
    with pytest.raises(StructureError, match=message):
        parse_structure(text)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["check", str(path), "--level", "maps"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("text, message", [
    (ALGEBRA.replace("[{1:1},{}]", "[{1:1,1:2},{}]"), "duplicate key 1"),
    (ALGEBRA.replace("commutative = true", "commutative = ture"), "commutative must be one of"),
])
def test_malformed_algebra_is_a_usage_error(family_file, tmp_path, capsys, text, message):
    path = tmp_path / "bad_algebra.txt"
    path.write_text(text)
    assert main(["words", "--omega", family_file, "--algebra", str(path),
                 "--expr", "x [a] 1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_parser_is_built_once_and_keeps_no_state(family_file, capsys):
    from omegarb.cli import build_parser

    assert build_parser() is build_parser()
    expr = "([a](|)) * ([b](|))"
    assert main(["product", "--omega", family_file, "--weight-zero", "--expr", expr]) == 0
    weight_zero = capsys.readouterr().out.strip()
    assert main(["product", "--omega", family_file, "--expr", expr]) == 0
    full = capsys.readouterr().out.strip()
    assert weight_zero == "([b]([a](|))) + ([b]([b](|)))"
    assert full.count("+") == 2  # the weight term is back
    args = build_parser().parse_args(["product", "--omega", family_file, "--expr", expr])
    assert args.weight_zero is False
    with pytest.raises(SystemExit) as exc:
        main(["product", "--omega", family_file, "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", family_file, "--level", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("size", ["3", "4", "0", "-1"])
def test_enumerate_refuses_unsupported_sizes(monkeypatch, capsys, size):
    from omegarb import classify

    real = classify.all_op_rows

    def guarded(n):
        if n >= 3:
            raise AssertionError(f"all_op_rows({n}) must never be built")
        return real(n)

    monkeypatch.setattr(classify, "all_op_rows", guarded)
    assert main(["enumerate", "--level", "diassoc", "--size", size]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sizes 1 and 2" in err and len(err.splitlines()) == 1


@pytest.fixture
def no_enumeration(monkeypatch):
    from omegarb import classify

    def refused(n):
        raise AssertionError("the enumeration must not start")

    monkeypatch.setattr(classify, "all_op_rows", refused)


def _refused(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    return err


def test_enumerate_refuses_a_missing_fixture_first(no_enumeration, tmp_path, capsys):
    err = _refused(["enumerate", "--level", "eds", "--diff", str(tmp_path / "none.json")], capsys)
    assert "none.json" in err


def test_enumerate_refuses_a_non_json_fixture_first(no_enumeration, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("level = eds\n")
    _refused(["enumerate", "--level", "eds", "--diff", str(bad)], capsys)
    # lambda-ets and maps can be checked but not enumerated; the pinned eds
    # fixture with a negative entry, over-long rows or a 3x3 table in its
    # first class is not over the carrier {0, 1}
    pinned = json.loads((ROOT / "fixtures" / "enumerate" / "eds-2.json").read_text())
    tables = ([[-1, -1], [-1, -1]], [[0, 0, 1], [0, 0, 1]], [[0, 0, 0]] * 3)
    for text in ("[]", '{"level": "nope", "size": 2, "classes": []}',
                 '{"level": "eds", "size": 2, "classes": [{"left": 3}]}',
                 '{"level": "lambda-ets", "size": 2, "classes": []}',
                 '{"level": "maps", "size": 2, "classes": []}',
                 *(json.dumps(pinned | {"classes": [pinned["classes"][0] | {"left": table}]})
                   for table in tables)):
        bad.write_text(text)
        assert "not a classification fixture" in _refused(
            ["enumerate", "--level", "eds", "--diff", str(bad)], capsys)


def test_enumerate_refuses_a_fixture_of_another_level_first(no_enumeration, capsys):
    err = _refused(["enumerate", "--level", "eds", "--diff", "fixtures/ets2.json"], capsys)
    assert "level 'ets' size 2, got 'eds' size 2" in err
    err = _refused(["enumerate", "--level", "ets", "--size", "1", "--diff", "fixtures/ets2.json"],
                   capsys)
    assert "got 'ets' size 1" in err


def test_enumerate_refuses_a_fixture_of_an_unsupported_size_before_canonicalizing(
        no_enumeration, monkeypatch, tmp_path, capsys):
    from omegarb import classify

    def refused(tabs, n):
        raise AssertionError("no class may be canonicalized")

    monkeypatch.setattr(classify, "canonical_tuple", refused)
    # 12! relabelings per class: canonicalizing one would take hours
    table = [[0] * 12 for _ in range(12)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"level": "diassoc", "size": 12,
                               "classes": [{"left": table, "right": table}]}))
    err = _refused(["enumerate", "--level", "diassoc", "--size", "12", "--diff", str(big)],
                   capsys)
    assert "sizes 1 and 2, not 12" in err


def test_enumerate_refuses_a_fixture_whose_size_is_not_an_int(no_enumeration, tmp_path, capsys):
    # true == 1 and 1.0 == 1, so a fixture of size true or 1.0 would be
    # diffed as the size-1 fixture
    pinned = json.loads((ROOT / "fixtures" / "enumerate" / "ets-1.json").read_text())
    bad = tmp_path / "ets-1.json"
    for size in (True, 1.0, "1"):
        bad.write_text(json.dumps(pinned | {"size": size}))
        assert "not a classification fixture" in _refused(
            ["enumerate", "--level", "ets", "--size", "1", "--diff", str(bad)], capsys)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_enumerate_refuses_workers_below_one(no_enumeration, capsys, workers):
    # the enumeration runs in one process, so argparse refuses the flag
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--level", "diassoc", "--workers", workers])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --workers" in err


def test_enumerate_has_no_workers_flag(no_enumeration, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--level", "diassoc", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_dendriform_refuses_a_sample_count_below_one(family_file, capsys, count):
    err = _refused(["dendriform", "--omega", family_file, "--samples", count], capsys)
    assert f"at least 1, got {count}" in err


def _mutations(valid):
    """The valid text with one span replaced by a short random string."""
    pieces = "0123456789-/[]{}:,=;# \n|()*+xyab"
    return st.tuples(
        st.integers(0, len(valid)), st.integers(0, 6), st.text(pieces, max_size=6)
    ).map(lambda m: valid[:m[0]] + m[2] + valid[m[0] + m[1]:])


ROOT = Path(__file__).resolve().parent.parent
STRUCTURE_TEXT = (ROOT / "sample_inputs" / "family_z2.txt").read_text()
PSI_TEXT = (ROOT / "sample_inputs" / "generalized_psi.txt").read_text()
ALGEBRA_TEXT = (ROOT / "sample_inputs" / "truncated_poly.txt").read_text()
FAMILY_STRUCTURE = parse_structure(STRUCTURE_TEXT)
POLY = parse_algebra(ALGEBRA_TEXT)


def _returns_or_rejects(parse, text):
    try:
        parse(text)
    except (StructureError, ExprError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutations(STRUCTURE_TEXT), _mutations(PSI_TEXT)))
def test_fuzz_parse_structure(text):
    _returns_or_rejects(parse_structure, text)


@settings(max_examples=300, deadline=None)
@given(_mutations(ALGEBRA_TEXT))
def test_fuzz_parse_algebra(text):
    _returns_or_rejects(parse_algebra, text)


@settings(max_examples=300, deadline=None)
@given(_mutations("2/3*([a](| x |) y |) * (| x |) - (| y |)"))
def test_fuzz_parse_tree_expr(text):
    algebra = TreeAlgebra(FAMILY_STRUCTURE)
    _returns_or_rejects(lambda t: parse_tree_expr(t, FAMILY_STRUCTURE.labels, algebra), text)


@settings(max_examples=300, deadline=None)
@given(_mutations("1/2 * x [a] 1 * (x [b] x) - 1 [a] x"))
def test_fuzz_parse_word_expr(text):
    algebra = WordAlgebra(FAMILY_STRUCTURE, POLY)
    _returns_or_rejects(
        lambda t: parse_word_expr(t, POLY, FAMILY_STRUCTURE.labels, algebra), text
    )


# (noun, parser taking (text, algebra), an element, its algebra)
GRAMMARS = {
    "tree": (
        lambda text, alg: parse_tree_expr(text, FAMILY_STRUCTURE.labels, alg),
        "([a](| x |) y |)",
        lambda: TreeAlgebra(FAMILY_STRUCTURE),
    ),
    "word": (
        lambda text, alg: parse_word_expr(text, POLY, FAMILY_STRUCTURE.labels, alg),
        "1 [a] x",
        lambda: WordAlgebra(FAMILY_STRUCTURE, POLY),
    ),
}


@pytest.mark.parametrize("kind", sorted(GRAMMARS))
def test_both_grammars_share_sums_scaling_and_signs(kind, family_file, algebra_file, capsys):
    parse, s, make_algebra = GRAMMARS[kind]
    x = parse(s, None)
    assert not x.is_zero()
    # a bare 0 is the zero sum on either side of + and -
    assert parse(f"0 + {s}", None) == x == parse(f"{s} + 0", None) == parse(f"{s} - 0", None)
    assert parse(f"0 - {s}", None) == -x
    assert parse("0", None).is_zero() and parse("0 + 0", None).is_zero()
    # any other bare scalar is refused, with the grammar's noun
    for text in (f"2 + {s}", f"{s} - 3/2", f"2 * 3 + {s}"):
        with pytest.raises(ExprError, match=f"cannot add a bare scalar to a {kind} sum"):
            parse(text, None)
    with pytest.raises(ExprError, match=f"expression is a bare scalar, not a {kind} sum"):
        parse("- 2 * 3", None)
    # runs of unary minus
    assert parse(f"- - - {s}", None) == -x
    assert parse(f"- - {s}", None) == x
    assert parse(f"-2 * - {s} * 3/4", None) == x.scale(Fraction(3, 2))
    # '*' between two sums needs an algebra
    with pytest.raises(ExprError, match=f"product of two {kind}s needs an ambient structure"):
        parse(f"{s} * {s}", None)
    algebra = make_algebra()
    assert parse(f"{s} * {s}", algebra) == algebra.product(x, x)
    # the CLI accepts 0 + s in both commands
    if kind == "tree":
        argv = ["product", "--omega", family_file]
    else:
        argv = ["words", "--omega", family_file, "--algebra", algebra_file]
    assert main(argv + ["--expr", s]) == 0
    alone = capsys.readouterr().out
    assert main(argv + ["--expr", f"0 + {s}"]) == 0
    assert capsys.readouterr().out == alone


# (command, the expression spaced out, glued, the output)
GLUED_SIGNS = [
    ("words", "x - 1*x", "x-1*x", "0"),
    ("words", "x - 1 [a] x", "x-1 [a] x", "x - 1 [a] x"),
    # the unit is labelled 1: this negates the word 1 [a] x
    ("words", "- 1 [a] x", "-1 [a] x", "-1 [a] x"),
    ("words", "x - 2*x", "x-2*x", "-x"),
    ("product", "(| x |) - 1/2*(| y |)", "(| x |)-1/2*(| y |)", "(| x |) - 1/2*(| y |)"),
    ("product", "2*(| x |) - 2*(| x |)", "2*(| x |)-2*(| x |)", "0"),
]


@pytest.mark.parametrize("command, spaced, glued, out", GLUED_SIGNS,
                         ids=[f"{c}:{g}" for c, _, g, _ in GLUED_SIGNS])
def test_a_minus_before_a_number_is_a_sign(command, spaced, glued, out, family_file,
                                          algebra_file, capsys):
    argv = [command, "--omega", family_file]
    if command == "words":
        argv += ["--algebra", algebra_file]
    for text in (spaced, glued):
        assert main(argv + ["--expr", text]) == 0
        assert capsys.readouterr().out.strip() == out


# -- over-deep input is refused up front ----------------------------------------


def _ladder(levels, bottom="(|)"):
    """A tree expression: ``levels - 1`` edges typed a above ``bottom``."""
    return "([a]" * (levels - 1) + bottom + ")" * (levels - 1)


def _long_word(letters):
    return " [a] ".join(["x"] * letters)


def _run_with_recursion_limit(limit, argv):
    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        return main(argv)
    finally:
        sys.setrecursionlimit(old)


def test_tree_depth_limit(family_file, tmp_path, capsys):
    labels = FAMILY_STRUCTURE.labels
    ((tree, _),) = parse_tree_expr(_ladder(MAX_TREE_DEPTH), labels)
    assert depth(tree) == MAX_TREE_DEPTH
    with pytest.raises(ExprError, match=f"deeper than {MAX_TREE_DEPTH}"):
        parse_tree_expr(_ladder(MAX_TREE_DEPTH + 1), labels)
    # at the limit a product and evaluate run with room to spare below the
    # default recursion limit of 1000
    at = _ladder(MAX_TREE_DEPTH, "(| x |)") + " * ([b]([a](|)))"
    assert _run_with_recursion_limit(600, ["product", "--omega", family_file, "--expr", at]) == 0
    assert capsys.readouterr().out.count("+") > MAX_TREE_DEPTH
    subst = tmp_path / "subst.txt"
    subst.write_text("x = ([b](| y |))\n")
    evaluate = ["evaluate", "--omega", family_file, "--subst", str(subst), "--expr"]
    assert _run_with_recursion_limit(600, evaluate + [_ladder(MAX_TREE_DEPTH, "(| x |)")]) == 0
    assert capsys.readouterr().out.count("y") == 1
    for argv in (
        ["product", "--omega", family_file, "--expr", _ladder(MAX_TREE_DEPTH + 1) + " * (|)"],
        ["product", "--omega", family_file, "--expr", _ladder(600)],
        evaluate + [_ladder(MAX_TREE_DEPTH + 1, "(| x |)")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"tree deeper than {MAX_TREE_DEPTH} levels" in err


def test_word_length_limit(family_file, algebra_file, capsys):
    argv = ["words", "--omega", family_file, "--algebra", algebra_file, "--expr"]
    at = _long_word(MAX_WORD_LENGTH)
    ((word, _),) = parse_word_expr(at, POLY, FAMILY_STRUCTURE.labels)
    assert word_length(word) == MAX_WORD_LENGTH
    assert _run_with_recursion_limit(600, argv + [at + " * 1 [b] x"]) == 0
    assert capsys.readouterr().out.count(" + ") == MAX_WORD_LENGTH - 1
    for expr in (_long_word(MAX_WORD_LENGTH + 1), _long_word(1200) + " * " + _long_word(1200)):
        assert main(argv + [expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"word longer than {MAX_WORD_LENGTH} letters" in err


def test_nested_groups_and_signs_do_not_recurse_without_bound(family_file, algebra_file, capsys):
    words = ["words", "--omega", family_file, "--algebra", algebra_file, "--expr"]
    nested = "(" * MAX_TREE_DEPTH + "x" + ")" * MAX_TREE_DEPTH
    assert main(words + [nested]) == 0
    assert capsys.readouterr().out.strip() == "x"
    assert main(words + ["(" + nested + ")"]) == 2
    assert "nested deeper" in capsys.readouterr().err
    assert main(words + ["- " * 1501 + "x"]) == 0
    assert capsys.readouterr().out.strip() == "-x"
    assert main(["product", "--omega", family_file, "--expr=" + "- " * 1500 + "(|)"]) == 0
    assert capsys.readouterr().out.strip() == "(|)"


# -- psi together with weight_zero ------------------------------------------------


def test_psi_and_weight_zero_are_exclusive_in_a_file(tmp_path, capsys):
    text = PSI_TEXT + "weight_zero = true\n"
    with pytest.raises(StructureError, match="exclusive"):
        parse_structure(text)
    path = tmp_path / "psi_weight_zero.txt"
    path.write_text(text)
    assert main(["check", str(path), "--level", "maps"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exclusive" in err
    assert parse_structure(PSI_TEXT + "weight_zero = false\n").psi is not None


def test_weight_zero_mode_drops_psi_in_every_layer(tmp_path, capsys):
    from dataclasses import replace

    from omegarb.omega import check_lambda_ets, check_maps_level

    s = parse_structure(PSI_TEXT)
    assert not s.psi_map(1, 1).is_zero()
    zero = replace(s, weight_zero=True)
    bare = replace(s, psi=None, weight_zero=True)
    pairs = [(i, j) for i in range(s.size) for j in range(s.size)]
    assert all(zero.psi_map(i, j).is_zero() for i, j in pairs)
    assert check_maps_level(zero).violations == check_maps_level(bare).violations
    assert check_lambda_ets(zero).violations == check_lambda_ets(bare).violations
    b = parse_tree_expr("([b](|))", s.labels)
    assert TreeAlgebra(zero).product(b, b) == TreeAlgebra(bare).product(b, b)
    path = tmp_path / "psi.txt"
    path.write_text(PSI_TEXT)
    assert main(["product", "--omega", str(path), "--weight-zero",
                 "--expr", "([b](|)) * ([b](|))"]) == 0
    assert capsys.readouterr().out.strip() == "2*([a]([a](|)))"


# -- every pinned output, byte for byte ----------------------------------------


def _pinned_outputs():
    """Rows (test, id, runs, pinned file under fixtures/, exit code): each
    run is an argv, and the outputs of a row's runs, one after the other,
    are its pinned file."""
    fixtures, samples = ROOT / "fixtures", ROOT / "sample_inputs"
    half, z2 = str(samples / "family_half.txt"), str(samples / "family_z2.txt")
    poly = ["--algebra", str(samples / "truncated_poly.txt")]

    def expr(name, line=0):
        return (fixtures / name).read_text().splitlines()[line]

    rows = []
    for fmt, ext in (("text", "txt"), ("json", "json")):
        f = ["--format", fmt]
        # the raw and class counts and every class table
        for size in (1, 2):
            for level in ("diassoc", "eds", "ets"):
                argv = ["enumerate", "--level", level, "--size", str(size)] + f
                rows.append(("enumeration", f"{fmt}-{ext}-{size}-{level}", [argv],
                             f"enumerate/{level}-{size}.{ext}", 0))
        # three elements that fail every tag of lambda-ets, star tags at ets
        # too, and every map identity at both map levels: the tags, first
        # witnesses, counts and order of every layer
        for level in ("diassoc", "eds", "lambda-ets", "ets", "maps", "ets-maps"):
            argv = ["check", str(samples / "all_layers_fail.txt"), "--level", level] + f
            rows.append(("failing_reports", f"{fmt}-{ext}-{level}", [argv],
                         f"all_layers_fail/{level}.{ext}", 1))
        # weights 1/2 and 2/3: the output of the Fraction-based kernel
        words = ["words", "--omega", half, "--expr", expr("family_half/words.expr")] + poly + f
        product = ["product", "--omega", half, "--expr", expr("family_half/product.expr")] + f
        rows.append(("fractional_weight", f"{fmt}-{ext}-words", [words], f"family_half/words.{ext}", 0))
        rows.append(("fractional_weight", f"{fmt}-{ext}-product", [product],
                     f"family_half/product.{ext}", 0))
        # three-factor chains at weights 1/2 and 2/3: a tree chain, then a word chain
        chain = [["product", "--omega", half, "--expr", expr("family_half/chain.expr")] + f,
                 ["words", "--omega", half, "--expr", expr("family_half/chain.expr", 1)] + poly + f]
        rows.append(("chained_products", f"{fmt}-{ext}", chain, f"family_half/chain.{ext}", 0))
        # weight 1 on the Z/2 family: products of 3- to 5-letter words
        words = ["words", "--omega", z2, "--expr", expr("family_z2/words.expr")] + poly + f
        rows.append(("integral_weight_words", f"{fmt}-{ext}", [words], f"family_z2/words.{ext}", 0))
        pinned = [
            ([["verify-tables", "--samples", "0,1,-1,1/2"] + f], f"verify_tables/tables.{ext}", 0),
            ([["check", half, "--level", "maps"] + f], f"family_half/maps.{ext}", 1),
            ([["check", str(samples / "generalized_psi.txt"), "--level", "maps"] + f],
             f"generalized_psi/maps.{ext}", 0),
            ([["words", "--omega", z2, "--expr", "1 [a] x [b] 1 * 1 [b] x [a] x"] + poly + f],
             f"family_z2/one_pass.{ext}", 0),
            # the README example, then a product of two substituted trees
            ([["evaluate", "--omega", z2, "--subst", str(fixtures / "trees_cli" / "subst.txt"),
               "--expr", expr("trees_cli/evaluate.expr", line)] + f for line in (0, 1)],
             f"trees_cli/evaluate.{ext}", 0),
            ([["dendriform", "--omega", z2, "--samples", "6", "--seed", "0"] + f],
             f"trees_cli/dendriform_pass.{ext}", 0),
            ([["dendriform", "--omega", str(samples / "all_layers_fail.txt"), "--samples", "6",
               "--seed", "0"] + f], f"trees_cli/dendriform_fail.{ext}", 1),
        ]
        # half_line.txt has x^2 = (3/2) x, so the unitized algebra has D_A = 2
        for omega in ("half", "z2"):
            argv = ["words", "--omega", str(samples / f"family_{omega}.txt"), "--expr",
                    expr("unitized_half/words.expr"), "--algebra", str(samples / "half_line.txt"),
                    "--unitize"] + f
            pinned.append(([argv], f"unitized_half/{omega}.{ext}", 0))
        rows += [("other", name, runs, name, code) for runs, name, code in pinned]
    return rows


PINNED_OUTPUTS = _pinned_outputs()


def _pinned(test):
    return [pytest.param(runs, name, code, id=row_id)
            for group, row_id, runs, name, code in PINNED_OUTPUTS if group == test]


def _check_pinned(runs, name, code, tmp_path):
    got = b""
    for i, argv in enumerate(runs):
        out = tmp_path / f"out{i}.txt"
        assert main(argv + ["--out", str(out)]) == code
        got += out.read_bytes()
    assert got == (ROOT / "fixtures" / name).read_bytes()


@pytest.mark.parametrize("runs, name, code", _pinned("enumeration"))
def test_enumeration_output_matches_the_pinned_fixture(runs, name, code, tmp_path):
    _check_pinned(runs, name, code, tmp_path)


@pytest.mark.parametrize("runs, name, code", _pinned("failing_reports"))
def test_failing_reports_match_the_pinned_fixture(runs, name, code, tmp_path):
    _check_pinned(runs, name, code, tmp_path)


@pytest.mark.parametrize("runs, name, code", _pinned("fractional_weight"))
def test_fractional_weight_output_matches_the_pinned_fixture(runs, name, code, tmp_path):
    _check_pinned(runs, name, code, tmp_path)


@pytest.mark.parametrize("runs, name, code", _pinned("chained_products"))
def test_chained_products_match_the_pinned_fixture(runs, name, code, tmp_path):
    _check_pinned(runs, name, code, tmp_path)


@pytest.mark.parametrize("runs, name, code", _pinned("integral_weight_words"))
def test_integral_weight_word_output_matches_the_pinned_fixture(runs, name, code, tmp_path):
    _check_pinned(runs, name, code, tmp_path)


@pytest.mark.parametrize("runs, name, code", _pinned("other"))
def test_output_matches_the_pinned_fixture(runs, name, code, tmp_path):
    _check_pinned(runs, name, code, tmp_path)


def test_repeated_carrier_labels_are_a_usage_error(tmp_path, capsys):
    # two types both called a: no output could tell them apart
    path = tmp_path / "repeated.txt"
    path.write_text(STRUCTURE_TEXT.replace("labels = a b", "labels = a a"))
    assert main(["product", "--omega", str(path), "--expr", "([a](|)) * ([a](|))"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: labels 'a a' repeat a label\n"


# -- one record reader and one literal reader for the three file formats ------

SAMPLES = ROOT / "sample_inputs"
ALGEBRA_FILES = ["half_line.txt", "truncated_poly.txt"]
STRUCTURE_FILES = sorted(p.name for p in SAMPLES.glob("*.txt") if p.name not in ALGEBRA_FILES)
Z2_FILE = str(SAMPLES / "family_z2.txt")
MALFORMED = ROOT / "fixtures" / "malformed"
MESSAGES = dict(
    line.split(": ", 1) for line in (MALFORMED / "messages.txt").read_text().splitlines()
)


def _reading_argv(path):
    """The command that reads a structure-, algebra- or subst-named file."""
    return {
        "structure": ["check", str(path), "--level", "maps"],
        "algebra": ["words", "--omega", Z2_FILE, "--algebra", str(path), "--expr", "x [a] 1"],
        "subst": ["evaluate", "--omega", Z2_FILE, "--expr", "(| x |)", "--subst", str(path)],
    }[path.name.split("-", 1)[0]]


def _file_mutants(text):
    """The text with one bracket or brace deleted, one line (so its key)
    repeated, or one ';' or '#' put in at any offset."""
    for i, ch in enumerate(text):
        if ch in "[]{}":
            yield text[:i] + text[i + 1:]
    lines = text.splitlines(keepends=True)
    for i in range(len(lines)):
        yield "".join(lines[:i + 1] + lines[i:])
    for i in range(len(text) + 1):
        for ch in ";#":
            yield text[:i] + ch + text[i:]


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except StructureError as exc:
        return "refused", str(exc)


def test_every_malformed_file_has_a_pinned_message():
    assert sorted(p.name for p in MALFORMED.glob("*-*.txt")) == sorted(MESSAGES)


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_malformed_files_exit_2_with_the_pinned_message(name, capsys):
    assert main(_reading_argv(MALFORMED / name)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == MESSAGES[name] + "\n"


@pytest.mark.parametrize("depth", [2_000, 100_000])
def test_deeply_nested_values_exit_2_with_one_line(depth, tmp_path, capsys):
    # the literal reader keeps its own stack, so depth costs no Python frames
    nested = "[" * depth + "]" * depth
    cases = [
        ("structure-deep.txt", TABLES.replace("[[0,0],[0,1]]", nested, 1),
         "error: left table entry must be a scalar, got a list\n"),
        ("algebra-deep.txt", ALGEBRA.replace("[[{0:1},{1:1}],[{1:1},{}]]", nested),
         "error: mult entry must be an integer, got a list\n"),
    ]
    for name, text, message in cases:
        path = tmp_path / name
        path.write_text(text)
        assert main(_reading_argv(path)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == message


def test_a_repeated_substitution_label_is_a_usage_error(tmp_path, capsys):
    subst = tmp_path / "subst.txt"
    subst.write_text("x = (| y |)\nx = (| x |)\n")
    assert main(["evaluate", "--omega", Z2_FILE, "--expr", "(| x |)", "--subst", str(subst)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: line 2: duplicate key 'x'\n"


def test_unitize_keeps_the_old_unit_apart_from_the_new_one(capsys):
    # truncated_poly.txt already has a unit labelled 1, so the new unit is e
    argv = ["words", "--omega", Z2_FILE, "--algebra", str(SAMPLES / "truncated_poly.txt"),
            "--unitize", "--expr"]
    for expr in ("e [a] 1", "1 [a] e", "1 * e"):
        assert main(argv + [expr]) == 0
        assert capsys.readouterr().out == ("1" if expr == "1 * e" else expr) + "\n"


# each sample file, and the substitution of the README example, by kind
MUTATED = [("structure", SAMPLES / name) for name in STRUCTURE_FILES]
MUTATED += [("algebra", SAMPLES / name) for name in ALGEBRA_FILES]
MUTATED += [("subst", ROOT / "fixtures" / "trees_cli" / "subst.txt")]


@pytest.mark.parametrize("kind, source", MUTATED, ids=[source.name for _, source in MUTATED])
def test_mutated_files_parse_or_exit_2_with_one_line(kind, source, tmp_path, capsys):
    # the library parses a mutant or refuses it with a StructureError; the
    # command that reads it exits 0 (only a substitution is not parsed first)
    # or 2 with one line on stderr
    parse = {"structure": parse_structure, "algebra": parse_algebra}.get(kind)
    path = tmp_path / f"{kind}-mutant.txt"
    for text in _file_mutants(source.read_text()):
        if parse is not None and _outcome(parse, text)[0] == "value":
            continue
        path.write_text(text)
        code = main(_reading_argv(path))
        out, err = capsys.readouterr()
        if parse is None and code == 0:
            continue
        assert code == 2 and out == "", text
        assert err.startswith("error: ") and err.count("\n") == 1, text


def _oracle_outcome(text):
    """The frozen oracle's outcome, except that labels the writer refuses
    are now refused when read, naming the line of the labels record."""
    outcome = _outcome(oracle.parse_structure, text)
    if outcome[0] == "value":
        try:
            oracle._check_labels(outcome[1].labels)
        except StructureError as exc:
            lines = [line.split("#", 1)[0].partition("=")[0].strip() for line in text.splitlines()]
            return "refused", f"line {lines.index('labels') + 1}: {exc}"
    return outcome


@pytest.mark.parametrize("name", STRUCTURE_FILES)
def test_mutated_structure_files_read_as_the_frozen_oracle_reads_them(name):
    for text in _file_mutants((SAMPLES / name).read_text()):
        assert _outcome(parse_structure, text) == _oracle_outcome(text), text


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutations(STRUCTURE_TEXT), _mutations(PSI_TEXT)))
def test_fuzzed_structure_files_read_as_the_frozen_oracle_reads_them(text):
    assert _outcome(parse_structure, text) == _oracle_outcome(text)


def _scalars(value):
    if isinstance(value, list):
        return [x for item in value for x in _scalars(item)]
    if isinstance(value, dict):
        return [x for kv in value.items() for item in kv for x in _scalars(item)]
    return [value]


@settings(max_examples=500, deadline=None)
@given(st.text("0123456789-/[]{}:, \t²٣_+a", max_size=16))
@example("[4/2 -0, {0/3: 6/4 1:٣}]")
def test_literals_read_as_the_frozen_oracle_reads_them(text):
    # '²' is str.isdigit() but not a decimal digit, '٣' is a decimal digit
    got = _outcome(_parse_value, text)
    assert got == _outcome(oracle._parse_value, text)
    if got[0] == "value":
        # exact form: an int for an integer, a Fraction only when not integral
        assert all(type(x) is int or x.denominator != 1 for x in _scalars(got[1]))


# -- numeric type labels ------------------------------------------------------

def test_numeric_type_labels_read_back_as_printed(tmp_path, capsys):
    # a structure file may label its types 0 1; what product and words
    # print, read back as an expression, prints the same text
    omega = tmp_path / "z2-numeric.txt"
    omega.write_text(STRUCTURE_TEXT.replace("labels = a b", "labels = 0 1"))
    half = str(SAMPLES / "half_line.txt")
    for argv, expr in (
        (["product", "--omega", str(omega)],
         "([0](| x |)) * ([1](| x [0](|) x |)) + 2/3*([1](|))"),
        (["words", "--omega", str(omega), "--algebra", half, "--unitize"],
         "(x [0] x) * (x [1] x)"),
    ):
        assert main(argv + ["--expr", expr]) == 0
        printed = capsys.readouterr().out
        assert "[0]" in printed and "[1]" in printed
        assert main(argv + ["--expr", printed.strip()]) == 0
        assert capsys.readouterr().out == printed
    assert main(["product", "--omega", str(omega), "--expr", "([2](|))"]) == 2
    assert capsys.readouterr().err == "error: unknown type label '2' (at position 2)\n"


# -- the benchmark's traced names ---------------------------------------------

def test_the_benchmark_tracer_installs_and_restores_every_traced_name():
    # perfbench/tracing.py wraps omegarb's callables by name, and a class's
    # methods through its own __dict__ (TreeAlgebra.product and
    # WordAlgebra.product are rebound in the class body for this): a rename
    # or a dropped rebinding fails here, at Tracer() or at install()
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def bound(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    namespaces = [tracing.omegarb, *tracing.MODULES]
    namespaces += [owner for owner, _, _, _ in tracing.TRACED if isinstance(owner, type)]
    before = [dict(vars(ns)) for ns in namespaces]
    originals = [bound(owner, attr) for owner, attr, _, _ in tracing.TRACED]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, attr, name, _), original in zip(tracing.TRACED, originals):
            assert bound(owner, attr).__wrapped__ is original, name
    finally:
        tracer.uninstall()
    for ns, names in zip(namespaces, before):
        now = vars(ns)
        assert now.keys() == names.keys(), ns
        assert all(now[key] is value for key, value in names.items()), ns
