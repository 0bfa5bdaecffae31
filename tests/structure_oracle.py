"""The structure-file reader that the shared record and literal readers
replaced: a hand-walked tokenizer, a recursive token parser and its own
``key = value`` loop, kept verbatim as the oracle for the tests.

:func:`parse_structure` here must return the same structure, or refuse with
the same message, as :func:`omegarb.omega.parse_structure` on every text.
"""

from fractions import Fraction

from omegarb.omega import OmegaStructure, OpTable, StructureError, _default_labels
from omegarb.scalars import FormalSum, parse_scalar


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
