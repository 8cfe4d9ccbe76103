"""Expression trees for predicate functions.

Nodes: rational constants, input slots, +, -, *, /, |.|, min, max.  The same
tree drives the exact rational oracle (exact.rat_eval) and the guarded
evaluation, which errorbounds.compile_guard compiles from it once into
integer code and errorbounds.guarded_eval runs.

Serialization is a parenthesized prefix format, e.g.
``(sub (mul x0 x3) (mul x1 x2))`` with rational constants written ``p/q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


class Expr:
    __slots__ = ()

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        yield self
        for c in self.children():
            yield from c.walk()

    def arity(self) -> int:
        """1 + highest input index used (0 when no inputs occur)."""
        hi = -1
        for node in self.walk():
            if isinstance(node, Input):
                hi = max(hi, node.index)
        return hi + 1


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Input(Expr):
    index: int


@dataclass(frozen=True)
class _Binary(Expr):
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


class Min(_Binary):
    pass


class Max(_Binary):
    pass


@dataclass(frozen=True)
class Abs(Expr):
    operand: Expr

    def children(self):
        return (self.operand,)


_BINARY_TAGS = {"add": Add, "sub": Sub, "mul": Mul, "div": Div, "min": Min, "max": Max}
_TAGS_BINARY = {v: k for k, v in _BINARY_TAGS.items()}


def serialize(e: Expr) -> str:
    if isinstance(e, Const):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, Input):
        return f"x{e.index}"
    if isinstance(e, Abs):
        return f"(abs {serialize(e.operand)})"
    tag = _TAGS_BINARY[type(e)]
    return f"({tag} {serialize(e.left)} {serialize(e.right)})"


class ParseError(ValueError):
    pass


def parse(text: str) -> Expr:
    """Parse the prefix format produced by serialize()."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def next_token() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_atom(tok: str) -> Expr:
        if tok.startswith("x") and tok[1:].isdigit():
            return Input(int(tok[1:]))
        try:
            return Const(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad token {tok!r}") from exc

    def parse_expr() -> Expr:
        tok = next_token()
        if tok != "(":
            return parse_atom(tok)
        head = next_token()
        if head == "abs":
            inner = parse_expr()
            if next_token() != ")":
                raise ParseError("abs takes one operand")
            return Abs(inner)
        cls = _BINARY_TAGS.get(head)
        if cls is None:
            raise ParseError(f"unknown operator {head!r}")
        left = parse_expr()
        right = parse_expr()
        if next_token() != ")":
            raise ParseError(f"{head} takes two operands")
        return cls(left, right)

    result = parse_expr()
    if pos != len(tokens):
        raise ParseError("trailing tokens")
    return result


class NotPolynomial(ValueError):
    """Raised when expanding an expression that is not a polynomial."""


def expand_polynomial(e: Expr, k: int) -> dict[tuple[int, ...], Fraction]:
    """Expand an Add/Sub/Mul/Const/Input tree into {exponent tuple: coefficient}.

    Cancelled terms are dropped; the zero polynomial yields an empty dict.
    """
    zero_key = (0,) * k

    def combine(a, b, sign=1):
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, Fraction(0)) + sign * c
            if out[key] == 0:
                del out[key]
        return out

    if isinstance(e, Const):
        return {} if e.value == 0 else {zero_key: e.value}
    if isinstance(e, Input):
        if e.index >= k:
            raise NotPolynomial(f"input x{e.index} outside arity {k}")
        key = tuple(1 if i == e.index else 0 for i in range(k))
        return {key: Fraction(1)}
    if isinstance(e, Add):
        return combine(expand_polynomial(e.left, k), expand_polynomial(e.right, k))
    if isinstance(e, Sub):
        return combine(expand_polynomial(e.left, k), expand_polynomial(e.right, k), -1)
    if isinstance(e, Mul):
        left = expand_polynomial(e.left, k)
        right = expand_polynomial(e.right, k)
        out: dict[tuple[int, ...], Fraction] = {}
        for ka, ca in left.items():
            for kb, cb in right.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
                if out[key] == 0:
                    del out[key]
        return out
    raise NotPolynomial(f"{type(e).__name__} node in polynomial expansion")


def polynomial_expr(terms: dict[tuple[int, ...], Fraction]) -> Expr:
    """The tree of a term dict {exponent tuple: coefficient}.

    Nonzero terms in ascending key order, each Const(c) multiplied by its
    inputs one Mul at a time, folded left with Add; the zero polynomial is
    Const(0).  The shape fixes the guard's rounding order, so it stays put.
    """
    out = None
    for key, c in sorted(terms.items()):
        if c == 0:
            continue
        term: Expr = Const(c)
        for i, e in enumerate(key):
            for _ in range(e):
                term = Mul(term, Input(i))
        out = term if out is None else Add(out, term)
    return Const(Fraction(0)) if out is None else out
