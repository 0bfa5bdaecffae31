"""Frozen oracles for the structure file format and the structure transforms.

The structure-file reader that the shared record and literal readers
replaced: a hand-walked tokenizer, a recursive token parser and its own
``key = value`` loop, kept verbatim.  :func:`parse_structure` here must return
the same structure, or refuse with the same message, as
:func:`omegarb.omega.parse_structure` on every text.

The writer and the two carrier transforms as they were when each table was
still listed by hand: :func:`serialize_structure` (with its label check and
row formatting), :func:`opposite` and :func:`swap_conjugate` (with
``_conj_lam`` and ``_conj_psi``) are kept verbatim, except that the
``OpTable.flipped`` and ``OpTable.conjugate`` they call are frozen here too,
as :func:`_flipped` and :func:`_conjugate`.  Each must give the same result,
and the writer the same text, as its namesake in :mod:`omegarb.omega`.
"""

from dataclasses import replace
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


def _flipped(self) -> OpTable:
    """The table of the reversed operation: (i, j) -> self(j, i)."""
    n = self.n
    return OpTable(tuple(tuple(self.rows[j][i] for j in range(n)) for i in range(n)))


def _conjugate(self, perm) -> OpTable:
    """Relabel the carrier through the permutation perm (a sequence)."""
    n = self.n
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return OpTable(
        tuple(tuple(inv[self.rows[perm[i]][perm[j]]] for j in range(n)) for i in range(n))
    )


def _conj_lam(lam, perm):
    n = len(lam)
    return tuple(tuple(lam[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def _conj_psi(psi, perm):
    n = len(psi)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(
        tuple(psi[perm[i]][perm[j]].map_basis(lambda b: inv[b]) for j in range(n))
        for i in range(n)
    )


def opposite(s: OmegaStructure) -> OmegaStructure:
    """All operations reversed, weights transposed."""
    return replace(
        s,
        left=_flipped(s.right),
        right=_flipped(s.left),
        lhd=_flipped(s.rhd),
        rhd=_flipped(s.lhd),
        dot=_flipped(s.dot) if s.dot is not None else None,
        star=_flipped(s.star) if s.star is not None else None,
        lam=tuple(tuple(s.lam[j][i] for j in range(s.size)) for i in range(s.size))
        if s.lam is not None
        else None,
        psi=tuple(tuple(s.psi[j][i] for j in range(s.size)) for i in range(s.size))
        if s.psi is not None
        else None,
    )


def swap_conjugate(s: OmegaStructure, perm) -> OmegaStructure:
    """Relabel the carrier through a permutation (an isomorphism of structures)."""
    return replace(
        s,
        left=_conjugate(s.left, perm),
        right=_conjugate(s.right, perm),
        lhd=_conjugate(s.lhd, perm),
        rhd=_conjugate(s.rhd, perm),
        dot=_conjugate(s.dot, perm) if s.dot is not None else None,
        star=_conjugate(s.star, perm) if s.star is not None else None,
        lam=_conj_lam(s.lam, perm) if s.lam is not None else None,
        psi=_conj_psi(s.psi, perm) if s.psi is not None else None,
    )


def _fmt_rows(rows, cell=str) -> str:
    return "[" + ",".join("[" + ",".join(map(cell, row)) + "]" for row in rows) + "]"


def _fmt_sum(cell: FormalSum) -> str:
    return "{" + ",".join(f"{b}:{c}" for b, c in cell) + "}"


def _check_labels(labels) -> None:
    """Refuse, naming it, a label that a file could not read back: the
    readers split records, values and label lists on whitespace and on
    these characters."""
    for label in labels:
        if label.split() != [label] or any(ch in label for ch in ",[]{}#;="):
            raise StructureError(
                f"label {label!r} cannot be written: a label needs at least one "
                "character and none of whitespace , [ ] { } # ; ="
            )


def serialize_structure(s: OmegaStructure) -> str:
    _check_labels(s.labels)
    lines = [f"size = {s.size}", "labels = " + " ".join(s.labels)]
    for key in ("left", "right", "lhd", "rhd"):
        lines.append(f"{key:<5} = " + _fmt_rows(getattr(s, key).rows))
    if s.dot is not None:
        lines.append("dot   = " + _fmt_rows(s.dot.rows))
    if s.star is not None:
        lines.append("star  = " + _fmt_rows(s.star.rows))
    if s.lam is not None:
        lines.append("lambda = " + _fmt_rows(s.lam))
    if s.psi is not None:
        lines.append("psi   = " + _fmt_rows(s.psi, _fmt_sum))
    if s.weight_zero:
        lines.append("weight_zero = true")
    return "\n".join(lines) + "\n"
