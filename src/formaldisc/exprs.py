"""Expression grammar for polynomials, forms and Weyl words.

    expr     := wedge (('+'|'-') wedge)*
    wedge    := product ('/\\' product)*
    product  := unary ('*' unary)*
    unary    := '-' unary | power
    power    := atom ('^' NUMBER)?
    atom     := NUMBER ('/' NUMBER)? | NAME | '(' expr ')'

Names are x1..xd, y1..yd, h and the coordinate 1-forms dx1..dyd; rationals
are written p/q.  '^' binds tighter than '*', which binds tighter than the
wedge, which binds tighter than '+'/'-'.  Syntax errors carry the offending
position; unknown variables are reported against the session dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError
from .series import DifferentialForm, TruncatedPoly, parse_coordinate, parse_int
from .weyl import TruncationSpec, WeylElement, star


class ParseError(UsageError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/\\'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


def tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # ASCII digits only: str.isdigit also takes "²" and "٣"
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if text.startswith("/\\", i):
            tokens.append(("wedge", "/\\", i))
            i += 2
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.wedge()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = BinOp(op, node, self.wedge())
        return node

    def wedge(self):
        node = self.product()
        while self.peek()[0] == "wedge":
            self.take()
            node = BinOp("/\\", node, self.product())
        return node

    def product(self):
        node = self.unary()
        while self.peek()[0] == "*":
            self.take()
            node = BinOp("*", node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("num")
            return Pow(base, parse_int(tok[1], tok[2]))
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            value = Fraction(parse_int(tok[1], tok[2]))
            if self.peek()[0] == "/":
                self.take()
                tok = self.take("num")
                den = parse_int(tok[1], tok[2])
                if den == 0:
                    raise ParseError("zero denominator", tok[2])
                value /= den
            return Num(value)
        if tok[0] == "name":
            self.take()
            return Sym(tok[1], tok[2])
        if tok[0] == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def parse(text: str):
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalContext:
    d: int
    cutoff: int


def _resolve_symbol(sym: Sym, ctx: EvalContext):
    v, form = parse_coordinate(sym.name, ctx.d, sym.pos)
    if v is None:
        return TruncatedPoly.h(ctx.d, ctx.cutoff)
    if form:
        return DifferentialForm.d_coordinate(v, ctx.d, ctx.cutoff)
    return TruncatedPoly.coordinate(v, ctx.d, ctx.cutoff)


def evaluate(node, ctx: EvalContext):
    """Evaluate to a TruncatedPoly or a DifferentialForm."""
    from .series import wedge as wedge_forms

    if isinstance(node, Num):
        return TruncatedPoly.constant(node.value, ctx.d, ctx.cutoff)
    if isinstance(node, Sym):
        return _resolve_symbol(node, ctx)
    if isinstance(node, Neg):
        return -evaluate(node.arg, ctx)
    if isinstance(node, Pow):
        base = evaluate(node.base, ctx)
        if not isinstance(base, TruncatedPoly):
            raise UsageError("exponentiation applies to polynomials only")
        return base ** node.exponent
    if isinstance(node, BinOp):
        left = evaluate(node.left, ctx)
        right = evaluate(node.right, ctx)
        if node.op in ("+", "-"):
            if isinstance(left, TruncatedPoly) != isinstance(right, TruncatedPoly):
                raise UsageError("cannot add a polynomial and a form")
            return left + right if node.op == "+" else left - right
        if node.op == "*":
            if isinstance(left, TruncatedPoly) and isinstance(right, TruncatedPoly):
                return left * right
            if isinstance(left, TruncatedPoly):
                return right.poly_mul(left)
            if isinstance(right, TruncatedPoly):
                return left.poly_mul(right)
            raise UsageError("use /\\ to multiply two forms")
        if node.op == "/\\":
            if isinstance(left, TruncatedPoly):
                left = DifferentialForm.from_poly(left)
            if isinstance(right, TruncatedPoly):
                right = DifferentialForm.from_poly(right)
            return wedge_forms(left, right)
    raise UsageError(f"not an expression node: {node!r}")


def eval_poly(text: str, ctx: EvalContext) -> TruncatedPoly:
    value = evaluate(parse(text), ctx)
    if not isinstance(value, TruncatedPoly):
        raise UsageError(f"expected a polynomial, got a degree-{value.degree} form")
    return value


def eval_form(text: str, ctx: EvalContext) -> DifferentialForm:
    value = evaluate(parse(text), ctx)
    if isinstance(value, TruncatedPoly):
        return DifferentialForm.from_poly(value)
    return value


def eval_weyl(text: str, spec: TruncationSpec) -> WeylElement:
    """Evaluate a Weyl word/expression left to right in the noncommutative
    algebra; form symbols are rejected."""

    def walk(node):
        if isinstance(node, Num):
            return WeylElement.scalar(node.value, spec)
        if isinstance(node, Sym):
            return WeylElement.generator(node.name, spec, node.pos)
        if isinstance(node, Neg):
            return -walk(node.arg)
        if isinstance(node, Pow):
            # by squaring, as star is associative
            base, n = walk(node.base), node.exponent
            out = WeylElement.one(spec)
            while n:
                if n & 1:
                    out = star(out, base)
                n >>= 1
                if n:
                    base = star(base, base)
            return out
        if isinstance(node, BinOp):
            left, right = walk(node.left), walk(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return star(left, right)
            raise UsageError("wedge is not a Weyl operation")
        raise UsageError(f"not an expression node: {node!r}")

    return walk(parse(text))
