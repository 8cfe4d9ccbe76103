"""Reference guard: the tree-walking evaluator that compiled guards replace.

It evaluates each node with softfloat's fl_round/fl_binop and carries the
dynamic sup as a Fraction, exactly as the guard was first specified.  Tests
compare errorbounds.guarded_eval (compiled integer code) against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from cperturb.errorbounds import (
    GuardFailed,
    RangeErrorVerdict,
    SignCertified,
    UnsupportedNode,
    annotate,
    static_bound,
)
from cperturb.expr import Abs, Add, Const, Div, Expr, Input, Max, Min, Mul, Sub
from cperturb.softfloat import (
    DivisionByZero,
    RangeError,
    SoftFloat,
    fl_abs,
    fl_binop,
    fl_cmp,
    fl_round,
)


@dataclass(frozen=True)
class EvalInfo:
    value: SoftFloat
    dynsup: Fraction  # sup recursion seeded with the actual input magnitudes
    ind: int


def eval_arithmetic(e: Expr, x: Sequence[SoftFloat], L: int, K: int) -> EvalInfo:
    if isinstance(e, Const):
        v = fl_round(e.value, L, K, source_op="const")
        ind = 0 if v.to_fraction() == e.value else 1
        return EvalInfo(v, max(abs(e.value), abs(v.to_fraction())), ind)
    if isinstance(e, Input):
        v = x[e.index]
        return EvalInfo(v, abs(v.to_fraction()), 0)
    if isinstance(e, Abs):
        c = eval_arithmetic(e.operand, x, L, K)
        return EvalInfo(fl_abs(c.value), c.dynsup, c.ind)
    if isinstance(e, Div):
        raise UnsupportedNode("division below an arithmetic node")
    a = eval_arithmetic(e.left, x, L, K)
    b = eval_arithmetic(e.right, x, L, K)
    if isinstance(e, Add):
        return EvalInfo(fl_binop("+", a.value, b.value), a.dynsup + b.dynsup, 1 + max(a.ind, b.ind))
    if isinstance(e, Sub):
        return EvalInfo(fl_binop("-", a.value, b.value), a.dynsup + b.dynsup, 1 + max(a.ind, b.ind))
    if isinstance(e, Mul):
        return EvalInfo(fl_binop("*", a.value, b.value), a.dynsup * b.dynsup, 1 + a.ind + b.ind)
    if isinstance(e, Min):
        pick = a if fl_cmp(a.value, b.value) <= 0 else b
        return EvalInfo(pick.value, max(a.dynsup, b.dynsup), max(a.ind, b.ind))
    if isinstance(e, Max):
        pick = a if fl_cmp(a.value, b.value) >= 0 else b
        return EvalInfo(pick.value, max(a.dynsup, b.dynsup), max(a.ind, b.ind))
    raise TypeError(f"unknown node {type(e).__name__}")


def coerce_inputs(x, L: int, K: int) -> list[SoftFloat]:
    out = []
    for v in x:
        if isinstance(v, SoftFloat):
            out.append(v)
        else:
            f = fl_round(Fraction(v), L, K, source_op="input")
            if f.to_fraction() != Fraction(v):
                raise ValueError(f"input {v} is not exactly representable in F_{{{L},{K}}}")
            out.append(f)
    return out


def reference_guarded_eval(e: Expr, x, L: int, K: int, emax: int):
    """The verdict guarded_eval must return, by tree walking."""
    xs = coerce_inputs(x, L, K)

    def guard(node: Expr):
        if isinstance(node, (Min, Max)):
            a = guard(node.left)
            if isinstance(a, RangeErrorVerdict):
                return a
            b = guard(node.right)
            if isinstance(b, RangeErrorVerdict):
                return b
            if isinstance(a, SignCertified) and isinstance(b, SignCertified):
                s = min(a.sign, b.sign) if isinstance(node, Min) else max(a.sign, b.sign)
                return SignCertified(s)
            return GuardFailed()
        if isinstance(node, Abs):
            inner = guard(node.operand)
            if isinstance(inner, SignCertified):
                return SignCertified(1)
            return inner
        if isinstance(node, Div):
            num = guard(node.left)
            if isinstance(num, RangeErrorVerdict):
                return num
            den = guard(node.right)
            if isinstance(den, RangeErrorVerdict):
                return den
            if isinstance(num, SignCertified) and isinstance(den, SignCertified):
                return SignCertified(num.sign * den.sign)
            return GuardFailed()
        try:
            info = eval_arithmetic(node, xs, L, K)
        except DivisionByZero:
            return RangeErrorVerdict("/")
        except RangeError as exc:
            return RangeErrorVerdict(exc.source_op)
        ann = annotate(node, emax, prec=L)
        bound = min(info.ind * info.dynsup * Fraction(2) ** (-L), static_bound(ann, L))
        v = info.value.to_fraction()
        if abs(v) > bound:
            return SignCertified(1 if v > 0 else -1)
        return GuardFailed()

    return guard(e)
