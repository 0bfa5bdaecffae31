"""Frozen oracle for the structure-file reader as it was before table values
could be read by json's C scanner.

``_parse_value`` (the compiled-regex token reader with its own stack),
``_as_int_table`` and ``parse_structure`` are kept verbatim, with the
helpers they call.  ``OpTable.__init__`` is frozen too, as :func:`_op_table`:
it converts every entry first, then checks each row's length and range, and
so fixes which fault a table with several is refused for; it then builds the
live :class:`omegarb.omega.OpTable`.  The record reader ``read_fields``, the
label check and ``OmegaStructure`` are the live ones, which the reader did not
change.  :func:`parse_structure` here must return
the same structure, or refuse with the same message, as
:func:`omegarb.omega.parse_structure` on every text.
"""

import re

from omegarb.omega import (
    TABLES,
    OmegaStructure,
    OpTable,
    StructureError,
    _check_labels,
    _default_labels,
    read_fields,
)
from omegarb.scalars import FormalSum, parse_scalar


def _table_entry(v) -> int:
    iv = int(v)
    if iv != v:
        raise StructureError(f"table entry {v} is not an integer")
    return iv


def _op_table(rows) -> OpTable:
    rows = tuple(tuple(_table_entry(v) for v in row) for row in rows)
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise StructureError("operation table must be square")
        for v in row:
            if not 0 <= v < n:
                raise StructureError(f"table entry {v} out of range 0..{n - 1}")
    return OpTable(rows)


# Tokens are brackets, braces, ':', ',' and runs of anything else but
# whitespace; a run may hold only str.isdigit() characters, '-' and '/'.
_LITERAL_TOKEN = re.compile(r"[\[\]{}:,]|[^\[\]{}:,\s]+")
_ODD_CHARACTER = re.compile(r"[^\[\]{}:,\s\d/-]")


def _scalar(token: str):
    """An int for an integer literal; a Fraction only for a non-integral ``p/q``."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = parse_scalar(token)
    except ValueError as exc:
        raise StructureError(str(exc)) from None
    return value.numerator if value.denominator == 1 else value


def _parse_value(text: str):
    """A scalar, ``[...]`` list or ``{scalar: value}`` sum; commas are optional."""
    for odd in _ODD_CHARACTER.finditer(text):
        if not odd.group().isdigit():
            raise StructureError(f"bad character {odd.group()!r} in value {text!r}")
    tokens = _LITERAL_TOKEN.findall(text)
    if not tokens:
        raise StructureError("empty value")
    tokens.reverse()

    def take():
        if not tokens:
            raise StructureError("value ends inside an unclosed '[' or '{'")
        return tokens.pop()

    # one [container, close, dict key read so far or None] per open bracket,
    # so nesting depth costs list entries, not Python frames
    stack = []
    tok = tokens.pop()
    while True:
        if tok == "[" or tok == "{":
            frame = [[], "]", None] if tok == "[" else [{}, "}", None]
            tok = take()
            if tok != frame[1]:
                stack.append(frame)
                continue
            value = frame[0]
        else:
            value = _scalar(tok)
        # hand the value to the open containers until one needs another token
        while stack:
            frame = stack[-1]
            out, close, key = frame
            if close == "]":
                out.append(value)
            elif key is None:
                if isinstance(value, (list, dict)):
                    raise StructureError("formal-sum keys must be scalars")
                if take() != ":":
                    raise StructureError("expected ':' in formal-sum literal")
                frame[2] = value
                tok = take()
                break
            else:
                if key in out:
                    raise StructureError(f"duplicate key {key} in formal-sum literal")
                out[key] = value
                frame[2] = None
            tok = take()
            if tok == ",":
                tok = take()
            if tok != close:
                break
            value = stack.pop()[0]
        else:
            if tokens:
                raise StructureError(f"trailing tokens in value {text!r}")
            return value


def _as_matrix(value, what, cell):
    """A list-of-rows value with ``cell`` applied to each entry."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise StructureError(f"{what} must be a table of rows like [[..],[..]]")
    return [[cell(v) for v in row] for row in value]


def _describe(value) -> str:
    return {list: "a list", dict: "a formal sum"}.get(type(value)) or str(value)


def _as_integer(value, what) -> int:
    if type(value) is not int:
        raise StructureError(f"{what} must be an integer, got {_describe(value)}")
    return value


def _as_scalar(value, what):
    if isinstance(value, (list, dict)):
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
    return _op_table(_as_matrix(value, what, lambda v: _as_scalar(v, f"{what} table entry")))


def _as_sum_cell(cell, what):
    """A table cell: a formal sum {basis index: scalar} or a bare basis index."""
    if isinstance(cell, dict):
        return FormalSum(
            {_as_integer(b, f"{what} key"): _as_scalar(c, f"{what} coefficient")
             for b, c in cell.items()}
        )
    return FormalSum.term(_as_integer(cell, f"{what} entry"))


# how a cell of a weight table is read (an operation table is an OpTable)
_CELLS = {"lam": lambda v: _as_scalar(v, "lambda entry"), "psi": lambda v: _as_sum_cell(v, "psi")}


def parse_structure(text: str) -> OmegaStructure:
    """Parse the plain-text structure format (``key = value`` lines)."""
    fields = {key: (lineno, value) for lineno, key, value in read_fields(text)}
    if "size" not in fields:
        raise StructureError("missing 'size'")
    size_text = fields.pop("size")[1]
    if not size_text.isdecimal():
        raise StructureError(f"size must be a nonnegative integer, got {size_text!r}")
    size = int(size_text)
    tables = {}
    for i, (attr, key) in enumerate(TABLES):
        if key not in fields:
            if i < 4:
                raise StructureError(f"missing table {key!r}")
            continue
        raw = _parse_value(fields.pop(key)[1])
        if attr in _CELLS:
            tables[attr] = tuple(map(tuple, _as_matrix(raw, key, _CELLS[attr])))
        else:
            tables[attr] = _as_int_table(raw, key)
            if i < 4 and tables[attr].n != size:
                raise StructureError(f"table {key} has wrong size")
    # the default labels only once the required tables have bounded the size
    labels_field = fields.pop("labels", None)
    labels = tuple(labels_field[1].split()) if labels_field else _default_labels(size)
    lineno, flag = fields.pop("weight_zero", (None, "false"))
    weight_zero = _as_flag(flag, "weight_zero")
    if weight_zero and "psi" in tables:
        raise StructureError(f"line {lineno}: 'psi' and 'weight_zero = true' are exclusive")
    if fields:
        key = next(iter(fields))
        raise StructureError(f"line {fields[key][0]}: unknown key {key!r}")
    s = OmegaStructure(size=size, labels=labels, weight_zero=weight_zero, **tables)
    if labels_field:
        _check_labels(labels, f"line {labels_field[0]}: ")
    return s

