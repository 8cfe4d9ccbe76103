"""Reference guard: the tree-walking evaluator that compiled guards replace.

It evaluates each node with softfloat's fl_round/fl_binop and carries the
dynamic sup as a Fraction, exactly as the guard was first specified.  Tests
compare errorbounds.guarded_eval (compiled integer code) against it.  The
node walks that the block's one fold (errorbounds._Block._fold) replaced,
the exact stage's range record and the value quantum, are kept here too.
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


def reference_range_safe(e: Expr, emax: int, L: int, K: int):
    """The exact stage's record as _Block._range_safe first computed it, for
    the arithmetic block e: None unless every constant rounds into F_{L,K},
    ind <= 2^(L-1), every node's top stays below 2^(K-1) and no node's
    value quantum has a degree-0 part below e_min - L; else (Q_safe, 2B) as
    (Q_safe, numerator, denominator).  A node's top is that of its sup
    rounded up to a power of two, summed at Mul and one more than the larger
    at Add and Sub; its quantum is a dict {degree d in Q: least exponent c}
    of the parts d * Q + c, inputs being multiples of 2^Q."""
    emx, target = 1 << (K - 1), -(1 << (K - 1)) + 1 - L
    ann = annotate(e, emax, prec=L)
    if ann.ind > 1 << (L - 1):
        return None
    nodes = []  # per node in post-order: top, and the quantum's parts

    def walk(n: Expr):
        if isinstance(n, Input):
            top, parts = emax, [(1, 0)]
        elif isinstance(n, Const):
            f = fl_round(n.value, L, K, source_op="const")
            v = f.to_fraction()
            s = max(abs(n.value), abs(v))
            top = s.numerator.bit_length() + 1 - s.denominator.bit_length()
            num = abs(v.numerator)
            parts = [(0, (num & -num).bit_length() - v.denominator.bit_length())] if num else []
        elif isinstance(n, Mul):
            (ta, pa), (tb, pb) = walk(n.left), walk(n.right)
            top = ta + tb
            parts = [(da + db, ca + cb) for da, ca in pa.items() for db, cb in pb.items()]
        else:  # Add and Sub double the sup; Abs, Min and Max keep it
            kids = [walk(c) for c in n.children()]
            top = max(t for t, _ in kids) + isinstance(n, (Add, Sub))
            parts = [p for _, pk in kids for p in pk.items()]
        terms = dict(sorted(parts, reverse=True))  # per degree, the least exponent
        nodes.append((top, terms))
        return top, terms

    try:
        walk(e)
    except RangeError:
        return None
    for top, terms in nodes:
        if top >= emx or any(not d and c < target for d, c in terms.items()):
            return None
    B = static_bound(ann, L)
    Q = max((-((c - target) // d) for _, t in nodes for d, c in t.items() if d), default=target)
    return Q, 2 * B.numerator, B.denominator


def arith_roots(e: Expr) -> list[Expr]:
    """The maximal arithmetic blocks guarded_eval evaluates."""
    if isinstance(e, (Min, Max, Div)):
        return arith_roots(e.left) + arith_roots(e.right)
    if isinstance(e, Abs):
        return arith_roots(e.operand)
    return [e]


def reference_value_quantum(e: Expr, emax: int, L: int) -> int:
    """value_quantum as first specified: the least quantum over every node
    of every block, a constant rounded to L bits giving its own dyadic
    quantum and a zero constant giving 0."""
    seen: list[int] = []

    def walk(n: Expr) -> int:
        if isinstance(n, Const):
            if n.value == 0:
                q = 0
            else:
                c = fl_round(n.value, L, 64).to_fraction()
                num = abs(c.numerator)
                q = (num & -num).bit_length() - 1 - (c.denominator.bit_length() - 1)
        elif isinstance(n, Input):
            q = emax - L - 1
        elif isinstance(n, Abs):
            q = walk(n.operand)
        elif isinstance(n, Div):
            raise UnsupportedNode("no quantum through division")
        else:
            a, b = walk(n.left), walk(n.right)
            q = a + b if isinstance(n, Mul) else min(a, b)
        seen.append(q)
        return q

    for root in arith_roots(e):
        walk(root)
    return min(seen)
