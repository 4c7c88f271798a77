"""Prenex quantified Boolean formulas.

Grammar: a quantifier prefix, a colon, then a propositional matrix.

    formula    := (("E" | "A") var)+ ":" expr
    var        := "x" digits  (no leading zero)
    expr       := or ; or := and ("|" and)* ; and := unary ("&" unary)*
    unary      := "~" unary | var | "(" expr ")"

Precedence ~ > & > |, both binary operators left-associative, whitespace
insignificant. The i-th quantifier must bind x_i, so the prefix is exactly
x_1..x_n in order, and every matrix variable must be bound.

Arithmetization maps the matrix into GF(2^k): variables to themselves,
~a to 1 + a, a & b to a*b, a | b to a + b + a*b. On 0/1 inputs this agrees
with Boolean evaluation, and the | rule keeps that exact in characteristic 2.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

from . import _kernels


class QbfSyntaxError(ValueError):
    """Parse or binding failure, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Not:
    child: "BoolExpr"


@dataclass(frozen=True)
class And:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Or:
    left: "BoolExpr"
    right: "BoolExpr"


BoolExpr = Union[Var, Not, And, Or]


@dataclass(frozen=True)
class PrenexQbf:
    quantifiers: tuple[str, ...]  # 'E' or 'A'; position i binds x_{i+1}
    matrix: BoolExpr

    @property
    def n(self) -> int:
        return len(self.quantifiers)

    @property
    def length(self) -> int:
        """Symbol count: non-whitespace characters of the canonical text."""
        return sum(1 for ch in to_text(self) if not ch.isspace())


# ---------------------------------------------------------------------------
# Parsing.

_PUNCT = {":", "~", "&", "|", "(", ")"}


def _tokens(text: str):
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT or ch in ("E", "A"):
            yield (ch, line, col)
            col += 1
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < len(text) and text[j] in "0123456789":
                j += 1
            if j == i + 1:
                raise QbfSyntaxError("variable needs digits after 'x'", line, col)
            yield (text[i:j], line, col)
            col += j - i
            i = j
            continue
        raise QbfSyntaxError(f"unexpected character {ch!r}", line, col)
    yield (None, line, col)  # end marker


class _Parser:
    def __init__(self, text: str):
        self.toks = list(_tokens(text))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        if tok[0] is not None:
            self.pos += 1
        return tok

    def fail(self, message: str, tok=None):
        tok = tok or self.peek()
        raise QbfSyntaxError(message, tok[1], tok[2])

    def parse(self) -> PrenexQbf:
        quants: list[str] = []
        while self.peek()[0] in ("E", "A"):
            q, _, _ = self.take()
            tok = self.take()
            if tok[0] is None or not tok[0].startswith("x"):
                self.fail(f"expected a variable after {q!r}", tok)
            want = len(quants) + 1
            if tok[0] != f"x{want}":
                self.fail(
                    f"quantifier {want} must bind x{want}, not {tok[0]}", tok
                )
            quants.append(q)
        if not quants:
            self.fail("formula must start with a quantifier prefix (E/A)")
        tok = self.take()
        if tok[0] != ":":
            self.fail("expected ':' after the quantifier prefix", tok)
        n = len(quants)
        expr = self.parse_or(n)
        tok = self.peek()
        if tok[0] is not None:
            if tok[0] in ("E", "A"):
                self.fail("quantifiers are only allowed in the prefix", tok)
            self.fail(f"unexpected token {tok[0]!r} after the matrix", tok)
        return PrenexQbf(tuple(quants), expr)

    def parse_or(self, n: int) -> BoolExpr:
        node = self.parse_and(n)
        while self.peek()[0] == "|":
            self.take()
            node = Or(node, self.parse_and(n))
        return node

    def parse_and(self, n: int) -> BoolExpr:
        node = self.parse_unary(n)
        while self.peek()[0] == "&":
            self.take()
            node = And(node, self.parse_unary(n))
        return node

    def parse_unary(self, n: int) -> BoolExpr:
        tok = self.peek()
        if tok[0] == "~":
            self.take()
            return Not(self.parse_unary(n))
        if tok[0] == "(":
            self.take()
            node = self.parse_or(n)
            closing = self.take()
            if closing[0] != ")":
                self.fail("expected ')'", closing)
            return node
        if tok[0] is not None and tok[0].startswith("x"):
            self.take()
            idx = int(tok[0][1:])
            if tok[0] != f"x{idx}":
                self.fail(f"variable {tok[0]} has a leading zero", tok)
            if not 1 <= idx <= n:
                self.fail(f"variable {tok[0]} is not bound by the prefix", tok)
            return Var(idx)
        if tok[0] in ("E", "A"):
            self.fail("quantifiers are only allowed in the prefix", tok)
        self.fail("expected a variable, '~', or '('", tok)


def parse_qbf(text: str) -> PrenexQbf:
    return _Parser(text).parse()


def to_text(q: PrenexQbf) -> str:
    prefix = " ".join(f"{kind} x{i + 1}" for i, kind in enumerate(q.quantifiers))
    return f"{prefix} : {_expr_text(q.matrix)}"


def _expr_text(e: BoolExpr, parent: int = 0) -> str:
    # precedence levels: | = 1, & = 2, ~ = 3; parens when binding looser than
    # the context, and on right-nested same-level children to keep the shape
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Not):
        return "~" + _expr_text(e.child, 3)
    level = 2 if isinstance(e, And) else 1
    op = " & " if isinstance(e, And) else " | "
    text = _expr_text(e.left, level) + op + _expr_text(e.right, level + 1)
    return f"({text})" if parent > level else text


# ---------------------------------------------------------------------------
# Evaluation.


def eval_matrix(e: BoolExpr, assignment: Sequence[bool]) -> bool:
    if isinstance(e, Var):
        return bool(assignment[e.index - 1])
    if isinstance(e, Not):
        return not eval_matrix(e.child, assignment)
    if isinstance(e, And):
        return eval_matrix(e.left, assignment) and eval_matrix(e.right, assignment)
    return eval_matrix(e.left, assignment) or eval_matrix(e.right, assignment)


def eval_qbf(q: PrenexQbf) -> bool:
    """Truth value by exhausting the quantifier tree (2^n matrix leaves)."""
    values = [False] * q.n

    def go(i: int) -> bool:
        if i == q.n:
            return eval_matrix(q.matrix, values)
        hits = []
        for b in (False, True):
            values[i] = b
            hits.append(go(i + 1))
        return all(hits) if q.quantifiers[i] == "A" else any(hits)

    return go(0)


def compile_matrix(e: BoolExpr) -> tuple[int, ...]:
    """Flatten the matrix to the kernels' postfix program encoding."""
    prog: list[int] = []

    def emit(node: BoolExpr):
        if isinstance(node, Var):
            prog.extend((_kernels.OP_VAR, node.index - 1))
        elif isinstance(node, Not):
            emit(node.child)
            prog.extend((_kernels.OP_NOT, 0))
        elif isinstance(node, And):
            emit(node.left)
            emit(node.right)
            prog.extend((_kernels.OP_AND, 0))
        else:
            emit(node.left)
            emit(node.right)
            prog.extend((_kernels.OP_OR, 0))

    emit(e)
    return tuple(prog)


def degree_profile(q: PrenexQbf) -> tuple[tuple[int, ...], int]:
    """Structural per-variable degree bounds of the arithmetized matrix and
    the protocol degree bound d = max(2, max over variables)."""

    def go(e: BoolExpr) -> tuple[int, ...]:
        if isinstance(e, Var):
            return tuple(1 if i + 1 == e.index else 0 for i in range(q.n))
        if isinstance(e, Not):
            return go(e.child)
        left, right = go(e.left), go(e.right)
        return tuple(a + b for a, b in zip(left, right))

    per_var = go(q.matrix)
    return per_var, max(2, max(per_var))
