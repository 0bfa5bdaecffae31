"""The expression layer shared by tree-sum and word-sum expressions.

Both grammars are::

    expr   := term (('+'|'-') term)*
    term   := atom ('*' atom)*
    atom   := '-'* primary

and differ only in ``primary``, which a subclass of :class:`ExprParser`
defines.  A primary is a scalar or a formal sum.  ``*`` between two scalars
multiplies them, between a scalar and a sum scales the sum, and between two
sums is the algebra product, which needs an algebra in scope.  A sum may
add a bare ``0`` (it reads as the zero sum) but no other bare scalar, and an
expression that is a bare scalar is refused unless it is 0.
"""

from __future__ import annotations

from fractions import Fraction

from .omega import LABEL
from .scalars import FormalSum

__all__ = ["ExprError", "ExprParser", "tokenize", "MAX_DEPTH"]

# The deepest nesting an expression may spell out.  Parsing, the product of
# two trees this deep and evaluate on one recurse a few frames per level, so
# at this bound they stay well inside CPython's default recursion limit of
# 1000.
MAX_DEPTH = 100


class ExprError(ValueError):
    """Syntax or name error in a tree/word expression, with position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()[]|+-*":
            # a '-' is always its own token, a sign read by atom
            tokens.append((ch, ch, i))
            i += 1
            if ch == "[":
                # a type label, read as a file reads it, so that every
                # label a file accepts, such as 0a or a-b, reads back
                while i < n and text[i].isspace():
                    i += 1
                label = LABEL.match(text, i)
                if label:
                    tokens.append(("label", label.group(), i))
                    i = label.end()
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            try:
                Fraction(text[i:j])
            except (ValueError, ZeroDivisionError):
                raise ExprError(f"bad number literal {text[i:j]!r}", i) from None
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class ExprParser:
    """Recursive descent over the shared grammar (see the module docstring).

    A subclass sets ``kind``, the noun of its basis elements in messages,
    and defines ``primary``.  ``algebra`` is the algebra whose ``product``
    ``*`` between two sums calls, or None.
    """

    kind = ""

    def __init__(self, text, type_labels, algebra=None):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.type_index = {lab: i for i, lab in enumerate(type_labels)}
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> FormalSum:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError(f"trailing input {tok[1]!r}", tok[2])
        if isinstance(value, Fraction):
            if value == 0:
                return FormalSum.zero()
            raise ExprError(f"expression is a bare scalar, not a {self.kind} sum", 0)
        return value

    def expr(self):
        acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            if isinstance(acc, Fraction) and acc == 0:
                acc = FormalSum.zero()
            if isinstance(rhs, Fraction) and rhs == 0:
                rhs = FormalSum.zero()
            if isinstance(acc, Fraction) or isinstance(rhs, Fraction):
                raise ExprError(f"cannot add a bare scalar to a {self.kind} sum", self.peek()[2])
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self):
        acc = self.atom()
        while self.peek()[0] == "*":
            self.take()
            rhs = self.atom()
            if isinstance(acc, Fraction) and isinstance(rhs, Fraction):
                acc = acc * rhs
            elif isinstance(acc, Fraction):
                acc = rhs.scale(acc)
            elif isinstance(rhs, Fraction):
                acc = acc.scale(rhs)
            else:
                if self.algebra is None:
                    raise ExprError(
                        f"product of two {self.kind}s needs an ambient structure", self.peek()[2]
                    )
                acc = self.algebra.product(acc, rhs)
        return acc

    def atom(self):
        negate = False
        while self.peek()[0] == "-":
            self.take()
            negate = not negate
        value = self.primary()
        return -value if negate else value

    def enter(self, tok, what):
        """Open one nesting level at ``tok``; ``what`` names it in the
        refusal past MAX_DEPTH.  The caller closes it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError(f"{what} deeper than {MAX_DEPTH} levels", tok[2])

    def type_label(self) -> int:
        """Read ``'[' TYPE ']'`` and return the type index."""
        self.take("[")
        name = self.take("label")
        if name[1] not in self.type_index:
            raise ExprError(f"unknown type label {name[1]!r}", name[2])
        self.take("]")
        return self.type_index[name[1]]
