"""Forward rounding-error analysis and guarded evaluation.

The annotation rules are the classical per-node (ind, sup) table: a bound of
ind_E * sup_E * 2^-L on |fl(E) - E| when every input is exactly representable
and each operation rounds with relative error at most 2^-L.

  node      sup                 ind
  x         |x|                 0 (grid inputs are exact)
  const c   max(|c|, |fl(c)|)   0 if representable, else 1
  E1 +- E2  sup1 + sup2         1 + max(ind1, ind2)
  E1 *  E2  sup1 * sup2         1 + ind1 + ind2
  |E|       sup                 ind
  min/max   max(sup1, sup2)     max(ind1, ind2)

Division never appears inside an annotated expression: rational predicates
put it at the root, where the guard is the conjunction of the numerator and
denominator guards and the quotient sign is the product of the certified
component signs.

Guarded evaluation splits at Min/Max/Abs/Div above the arithmetic: children
are guarded independently and the composite sign follows from the certified
child signs, which is exactly the shape the region analysis assumes (the
fp-safe set is the product of the children's safe sets).

Guards are built once per expression (compile_guard), memoized on the
expression instance.  Each maximal arithmetic block is planned as its nodes in
post-order; one fold of the plan per (emax, L) gives the block's static bound,
its range-safe record and its value quantum.  A guard takes its inputs as
integers m_i on one exponent q, x_i = m_i * 2^q, as the hull holds its points
(_on_one_exponent puts checked inputs there), and each block first runs its
integer mode: with only dyadic constants, E = N * 2^e(q) for an integer N,
e(q) the least d * q + c over the block's quantum parts.  Every input is
checked once per call to lie in [-2^emax, 2^emax]; given that, the range-safe
record at (emax, L, K) and q at or above its Q_safe, |fl(E) - E| <= B, the
static bound, so |N| > T = floor(2B / 2^e(q)) means the rounded block would
certify sign N, and the integer mode returns it.  Every other case, and every
block holding a non-dyadic constant, runs the rounded block: straight-line
Python on signed integer significand/exponent pairs, rounding every operation
exactly as softfloat does.  Its dynamic sup (the sup recursion seeded with the
actual input magnitudes) is an exact dyadic integer pair, or an exact Fraction
with a non-dyadic constant, so the certify test |v| > min(ind * dynsup * 2^-L,
static) is an integer shift-compare.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .exact import Exact
from .expr import Abs, Add, Const, Div, Expr, Input, Max, Min, Mul, Sub
from .grid import InadmissibleInput
from .reals import ceil_log2
from .softfloat import (
    RangeError,
    SoftFloat,
    _round_scaled,
    fl_round,
    is_representable,
    member_pair,
    to_pair,
)

# softfloat operations benchmarks/tracing.py wraps under this module's names
from .softfloat import fl_abs, fl_binop, fl_cmp  # noqa: F401


class UnsupportedNode(TypeError):
    """Division inside an annotated expression."""


@dataclass(frozen=True)
class AnnotatedExpr:
    """An expression node with its (ind, sup) error annotations."""

    node: Expr
    ind: int
    sup: Fraction
    children: tuple["AnnotatedExpr", ...]


@lru_cache(maxsize=8192)
def annotate(e: Expr, emax: int, prec: int) -> AnnotatedExpr:
    """Attach (ind, sup) to every node, for inputs bounded by 2^emax and
    constants rounded at precision ``prec`` (exactly representable ones get
    ind 0).  Annotations are pure values, so results are memoized.  The
    guard's own bound comes from _Block._fold; this tree form is the
    reference the tests compare that fold against.
    """
    domain = Fraction(2) ** emax

    def walk(n: Expr) -> AnnotatedExpr:
        if isinstance(n, Const):
            c = n.value
            if c == 0:
                return AnnotatedExpr(n, 0, Fraction(0), ())
            # K plays no role in representability away from the range ends;
            # a wide exponent field stands in for "some admissible K".
            exact = is_representable(c, prec, 64)
            ind = 0 if exact else 1
            sup = abs(c) if exact else max(abs(c), abs(fl_round(c, prec, 64).to_fraction()))
            return AnnotatedExpr(n, ind, sup, ())
        if isinstance(n, Input):
            return AnnotatedExpr(n, 0, domain, ())
        if isinstance(n, Abs):
            c = walk(n.operand)
            return AnnotatedExpr(n, c.ind, c.sup, (c,))
        if isinstance(n, Div):
            raise UnsupportedNode("division is handled at the guard level only")
        a, b = walk(n.left), walk(n.right)
        if isinstance(n, (Add, Sub)):
            return AnnotatedExpr(n, 1 + max(a.ind, b.ind), a.sup + b.sup, (a, b))
        if isinstance(n, Mul):
            return AnnotatedExpr(n, 1 + a.ind + b.ind, a.sup * b.sup, (a, b))
        if isinstance(n, (Min, Max)):
            return AnnotatedExpr(n, max(a.ind, b.ind), max(a.sup, b.sup), (a, b))
        raise TypeError(f"unknown node {type(n).__name__}")

    return walk(e)


def static_bound(ann: AnnotatedExpr, L: int) -> Fraction:
    """B_E(L) = ind_E * sup_E * 2^-L."""
    return ann.ind * ann.sup * Fraction(2) ** (-L)


# --- guard verdicts ---------------------------------------------------------


@dataclass(frozen=True)
class SignCertified:
    sign: int


@dataclass(frozen=True)
class GuardFailed:
    pass


@dataclass(frozen=True)
class RangeErrorVerdict:
    source_op: str = ""


GuardVerdict = Union[SignCertified, GuardFailed, RangeErrorVerdict]


# --- compiled guards ------------------------------------------------------------
#
# The rounded block runs on signed integer pairs (M, q) of value M * 2^q, its
# inputs all on the guard's one exponent; pairs need not be normalized, because
# each rounding starts from the exact value.  A block's dynamic sup is the
# dyadic pair (D, E) of value D * 2^E, or a Fraction in a block that holds a
# non-dyadic constant.  The source templates below take only integers (node
# numbers, input and constant indices); the rounded block's constants reach
# the code as values in the table argument C.

_OP_NAMES = ("+", "-", "*")
_OP_INDEX = {Add: 0, Sub: 1, Mul: 2}

# Rounds the exact t * 2^u into F_{L,K} as (M{i}, q{i}), as softfloat's
# _round_scaled does.  Inline when the raw exponent lies in [e_min, e_max),
# where no range condition can hold; _edge rounds the rest and raises.
_ROUND = """\
    if t:
        a = t if t > 0 else -t
        n = a.bit_length()
        if emin <= u + n - 1 < emx:
            s = n - L1
            if s > 0:
                m = a >> s
                r = a & ((1 << s) - 1)
                h = 1 << (s - 1)
                if r > h or (r == h and m & 1):
                    m += 1
                M{i} = m if t > 0 else -m
                q{i} = u + s
            else:
                M{i} = t
                q{i} = u
        else:
            M{i}, q{i} = _edge(t, u, L, K, _OP_NAMES[{k}])
    else:
        M{i} = 0
        q{i} = 0
"""

# The exact value t * 2^u of each arithmetic step, before any rounding.
_ALIGN = {
    Add: """\
    if q{a} <= q{b}:
        t = M{a} + (M{b} << (q{b} - q{a}))
        u = q{a}
    else:
        t = (M{a} << (q{a} - q{b})) + M{b}
        u = q{b}
""",
    Sub: """\
    if q{a} <= q{b}:
        t = M{a} - (M{b} << (q{b} - q{a}))
        u = q{a}
    else:
        t = (M{a} << (q{a} - q{b})) - M{b}
        u = q{b}
""",
    Mul: """\
    t = M{a} * M{b}
    u = q{a} + q{b}
""",
}

_VALUE = {
    Input: "    M{i} = xs[{k}]\n    q{i} = q\n",
    **{kind: step + _ROUND for kind, step in _ALIGN.items()},
    Abs: """\
    M{i} = M{a} if M{a} >= 0 else -M{a}
    q{i} = q{a}
""",
    Min: """\
    if (M{a} << (q{a} - q{b}) <= M{b}) if q{a} >= q{b} else (M{a} <= M{b} << (q{b} - q{a})):
        M{i} = M{a}
        q{i} = q{a}
    else:
        M{i} = M{b}
        q{i} = q{b}
""",
    Max: """\
    if (M{a} << (q{a} - q{b}) >= M{b}) if q{a} >= q{b} else (M{a} >= M{b} << (q{b} - q{a})):
        M{i} = M{a}
        q{i} = q{a}
    else:
        M{i} = M{b}
        q{i} = q{b}
""",
}

# Integer mode: the block on inputs m_i * 2^q, all admitted (|m_i| * 2^q <=
# 2^emax), computes N, with E = N * 2^e_root(q), and certifies sign N when
# |N| > T; it runs the rounded block without limits (T, S0, S1, ...) and for
# |N| <= T.  S0, S1, ... shift the operands of a join onto its exponent.
_INT_HEAD = """\
def verdict(xs, L, K, emax, q):
    limits = get((emax, L, K, q), False)
    if limits is False:
        limits = int_limits(emax, L, K, q)
    if not limits:
        return fall(xs, L, K, emax, q)
    T,{shifts} = limits
"""
_INT_TAIL = """\
    if M{i} > T or M{i} < -T:
        return POSITIVE if M{i} > 0 else NEGATIVE
    return fall(xs, L, K, emax, q)
"""
_INTS = {
    Input: "    M{i} = xs[{k}]\n",
    Const: "    M{i} = {k}\n",
    **{kind: f"    M{{i}} = {{a}} {op} {{b}}\n" for kind, op in zip(_OP_INDEX, _OP_NAMES)},
    Abs: "    M{i} = abs({a})\n",
    Min: "    M{i} = {a} if {a} <= {b} else {b}\n",
    Max: "    M{i} = {a} if {a} >= {b} else {b}\n",
}

_CONST_ENTRY = """\
    c = C[{k}]
    if c is None:
        raise RangeError("const")
"""

_DYADIC_SUP = {
    Input: """\
    D{i} = M{i} if M{i} >= 0 else -M{i}
    E{i} = q{i}
""",
    Const: _CONST_ENTRY + "    M{i}, q{i}, D{i}, E{i} = c\n",
    Add: """\
    if E{a} <= E{b}:
        D{i} = D{a} + (D{b} << (E{b} - E{a}))
        E{i} = E{a}
    else:
        D{i} = (D{a} << (E{a} - E{b})) + D{b}
        E{i} = E{b}
""",
    Mul: """\
    D{i} = D{a} * D{b}
    E{i} = E{a} + E{b}
""",
    Abs: """\
    D{i} = D{a}
    E{i} = E{a}
""",
    Max: """\
    if (D{a} << (E{a} - E{b}) >= D{b}) if E{a} >= E{b} else (D{a} >= D{b} << (E{b} - E{a})):
        D{i} = D{a}
        E{i} = E{a}
    else:
        D{i} = D{b}
        E{i} = E{b}
""",
}
_DYADIC_SUP.update({Sub: _DYADIC_SUP[Add], Min: _DYADIC_SUP[Max]})

# the exact rational side path, for blocks holding a non-dyadic constant
_RATIONAL_SUP = {
    Input: "    S{i} = _magnitude(M{i}, q{i})\n",
    Const: _CONST_ENTRY + "    M{i}, q{i}, S{i} = c\n",
    Add: "    S{i} = S{a} + S{b}\n",
    Mul: "    S{i} = S{a} * S{b}\n",
    Abs: "    S{i} = S{a}\n",
    Max: "    S{i} = S{a} if S{a} >= S{b} else S{b}\n",
}
_RATIONAL_SUP.update({Sub: _RATIONAL_SUP[Add], Min: _RATIONAL_SUP[Max]})

_HEAD = """\
def block(xs, q, L, K, C):
    emx = 1 << (K - 1)
    emin = 1 - emx
    L1 = L + 1
"""
# (M, q, D, E, R, ind): value M * 2^q, bound ind * D * 2^(E-L) / R
_DYADIC_TAIL = "    return M{i}, q{i}, D{i}, E{i}, 1, C[-1]\n"
_RATIONAL_TAIL = "    return M{i}, q{i}, S{i}.numerator, 0, S{i}.denominator, C[-1]\n"

# per-block caches of constant tables (per L, K), static bounds (per emax, L),
# range-safe records (per emax, L, K) and integer-mode limits (per emax, L, K,
# q) are cleared when they reach this size
_CACHE_LIMIT = 1024


def _edge(t: int, u: int, L: int, K: int, op: str) -> tuple[int, int]:
    return to_pair(_round_scaled(1 if t > 0 else -1, abs(t), u, L, K, op))


def _magnitude(M: int, q: int) -> Fraction:
    """|M| * 2^q as a Fraction."""
    M = abs(M)
    return Fraction(M << q) if q >= 0 else Fraction(M, 1 << -q)


def _least(parts) -> dict:
    """{degree d: the least exponent c} over the (d, c) parts."""
    return dict(sorted(parts, reverse=True))


def _exponent(parts: tuple, q: int) -> Optional[int]:
    """The least d * q + c over the (d, c) parts; None without parts."""
    return min([d * q + c for d, c in parts]) if parts else None


def _low(M: int, e: int) -> Optional[int]:
    """The exponent of the lowest set bit of M * 2^e; None for zero."""
    return e + (M & -M).bit_length() - 1 if M else None


_POSITIVE = SignCertified(1)
_NEGATIVE = SignCertified(-1)
_FAILED = GuardFailed()


class _Block:
    """One arithmetic expression (Add/Sub/Mul/Abs/Min/Max over inputs and
    constants) planned as one numbered step per node in post-order.

    The plan is the block's one structure.  _fold reads it for the static
    bound, the range-safe record and the value quantum; the rounded block and
    the integer mode are written from it and exec'd on first use, so an
    analysis that reads only the quantum compiles nothing."""

    def __init__(self, node: Expr):
        self.node = node
        self._plan = plan = []  # (kind, child numbers, index) per node
        self.consts = consts = []
        first: dict[int, int] = {}  # input index -> number of its one node

        def visit(n: Expr) -> int:
            kind = type(n)
            if kind is Input:
                k, kids = n.index, ()
                if k in first:  # loaded and checked once; later reads reuse it
                    return first[k]
                first[k] = len(plan)
            elif kind is Const:
                k, kids = len(consts), ()
                consts.append(n.value)
            elif kind is Div:
                raise UnsupportedNode("division below an arithmetic node")
            elif kind in _DYADIC_SUP:
                k, kids = _OP_INDEX.get(kind, 0), tuple(map(visit, n.children()))
            else:
                raise TypeError(f"unknown node {kind.__name__}")
            plan.append((kind, kids, k))
            return len(plan) - 1

        visit(node)
        self.rational = any(c.denominator & (c.denominator - 1) for c in self.consts)  # non-dyadic
        self._folds, self._tables, self._safe = {}, {}, {}  # per (emax, L), (L, K), (emax, L, K)
        self._limits = {}  # per (emax, L, K, q)
        self._quanta_at = {}  # per L
        # an instance attribute keeps the verdict's loads fast; the stub writes the code
        self._run = self._write_run
        self._fixed = None
        self._code = None

    def _write_run(self, *args):
        return self._write()(*args)

    def _write(self):
        """The rounded block and, with only dyadic constants, the integer mode,
        written and exec'd once; the stubs still in place give way to them."""
        if self._code is not None:
            return self._code
        sup = _RATIONAL_SUP if self.rational else _DYADIC_SUP
        lines = [_HEAD]
        for i, (kind, kids, k) in enumerate(self._plan):
            a, b = (kids + (0, 0))[:2]
            if kind is not Const:
                lines.append(_VALUE[kind].format(i=i, k=k, a=a, b=b))
            lines.append(sup[kind].format(i=i, k=k, a=a, b=b))
        lines.append((_RATIONAL_TAIL if self.rational else _DYADIC_TAIL).format(i=len(self._plan) - 1))
        if not self.rational:  # a non-dyadic constant has no exact integer
            lines += self._integer_mode()
        namespace = {"RangeError": RangeError, "_edge": _edge, "_magnitude": _magnitude, "_OP_NAMES": _OP_NAMES,
                     "get": self._limits.get, "int_limits": self._int_limits, "fall": self._rounded,
                     "POSITIVE": _POSITIVE, "NEGATIVE": _NEGATIVE}
        exec(compile("".join(lines), "<compiled guard block>", "exec"), namespace)
        self._code = namespace["block"]
        if self._run == self._write_run:
            self._run = self._code
        self.verdict = namespace.get("verdict", self._rounded)
        if not self.consts:  # the table holds only the block's ind, for every L, K
            self._fixed = (self._fold(0, 1)[0],)
        return self._code

    def _integer_mode(self) -> list:
        """The integer-mode verdict's source.  Node i's value is M{i} * 2^e_i(q),
        e_i(q) the least d * q + c over its parts with exact constants; a join
        whose operands' parts differ shifts them onto e_i(q) by S0, S1, ...,
        which _int_limits computes per q.  A homogeneous block (no constant,
        each join of one degree) writes no shift."""
        parts = self._parts([_low(c.numerator, 1 - c.denominator.bit_length()) for c in self.consts])
        self._root, self._shifts, lines = tuple(parts[-1].items()), [], []
        for i, (kind, kids, k) in enumerate(self._plan):
            a, b = (kids + (0, 0))[:2]
            ops = f"M{a}", f"M{b}"
            if kind is Const:
                c = self.consts[k].numerator
                k = c // (c & -c) if c else 0
            elif len(kids) == 2 and kind is not Mul and parts[a] != parts[b]:
                for op, j in zip(("a", "b"), kids):
                    lines.append(f"    {op} = M{j} << S{len(self._shifts)}\n")
                    self._shifts.append((tuple(parts[j].items()), tuple(parts[i].items())))
                ops = "a", "b"
            lines.append(_INTS[kind].format(i=i, k=k, a=ops[0], b=ops[1]))
        head = _INT_HEAD.format(shifts="".join(f" S{j}," for j in range(len(self._shifts))))
        return [head, *lines, _INT_TAIL.format(i=len(self._plan) - 1)]

    def _fold(self, emax: int, L: int) -> tuple:
        """One pass over the plan at (emax, L) by annotate's rules, each constant
        rounded once at L (a wide exponent field stands in for every admissible
        K): (ind, B, top, quanta).  B = ind * sup * 2^-L is the static bound as
        (numerator, denominator); 2^top bounds every node's sup, each Add and
        Sub doubling the larger; quanta is _quanta(L).  ind depends on L
        alone."""
        fold = self._folds.get((emax, L))
        if fold is not None:
            return fold
        domain = 1 << emax if emax >= 0 else Fraction(1, 1 << -emax)
        nodes = []  # per node (ind, sup, top)
        for kind, kids, k in self._plan:
            if kind is Input:
                node = 0, domain, emax
            elif kind is Const:
                c = self.consts[k]
                v = fl_round(c, L, 64).to_fraction() if c else c
                s = max(abs(c), abs(v))
                node = int(v != c), s, s.numerator.bit_length() + 1 - s.denominator.bit_length()
            else:  # Abs reads its one child twice
                (ia, sa, ta), (ib, sb, tb) = nodes[kids[0]], nodes[kids[-1]]
                if kind is Mul:
                    node = 1 + ia + ib, sa * sb, ta + tb
                elif kind is Add or kind is Sub:
                    node = 1 + max(ia, ib), sa + sb, 1 + max(ta, tb)
                else:
                    node = max(ia, ib), max(sa, sb), max(ta, tb)
            nodes.append(node)
        ind, sup = nodes[-1][:2]
        B = Fraction(ind * sup, 1 << L)
        top = max(t for _, _, t in nodes)
        if len(self._folds) >= _CACHE_LIMIT:
            self._folds.clear()
        fold = self._folds[(emax, L)] = (ind, (B.numerator, B.denominator), top, self._quanta(L))
        return fold

    def _parts(self, lows: list) -> list:
        """Per node {degree d: the least c} over the parts d * Q + c of its
        value quantum, for inputs on 2^Q and constant k a multiple of
        2^lows[k] (None for zero): the node's values are multiples of
        2^(d * Q + c) for its least part, and zero without parts."""
        nodes = []
        for kind, kids, k in self._plan:
            if kind is Input:
                parts = {1: 0}
            elif kind is Const:
                parts = {} if lows[k] is None else {0: lows[k]}
            else:
                pa, pb = nodes[kids[0]], nodes[kids[-1]]
                if kind is Mul:
                    parts = _least([(da + db, ca + cb) for da, ca in pa.items() for db, cb in pb.items()])
                else:
                    parts = pa if pa == pb else _least([*pa.items(), *pb.items()])
            nodes.append(parts)
        return nodes

    def _quanta(self, L: int) -> dict:
        """The parts of every node over _parts, constants rounded as in _fold:
        one pass on integers, cached per L."""
        quanta = self._quanta_at.get(L)
        if quanta is not None:
            return quanta
        lows = [_low(*to_pair(fl_round(c, L, 64))) if c else None for c in self.consts]
        if len(self._quanta_at) >= _CACHE_LIMIT:
            self._quanta_at.clear()
        quanta = self._quanta_at[L] = _least([p for parts in self._parts(lows) for p in parts.items()])
        return quanta

    def _table(self, L: int, K: int) -> tuple:
        """Each constant rounded into F_{L,K} with its sup (None where the
        rounding raises), then the block's ind."""
        table = self._tables.get((L, K))
        if table is not None:
            return table
        entries = []
        for c in self.consts:
            try:
                f = fl_round(c, L, K, source_op="const")
            except RangeError:
                entries.append(None)
                continue
            s = max(abs(c), abs(f.to_fraction()))
            entries.append(to_pair(f) + ((s,) if self.rational else (s.numerator, 1 - s.denominator.bit_length())))
        if len(self._tables) >= _CACHE_LIMIT:
            self._tables.clear()
        table = self._tables[(L, K)] = (*entries, self._fold(0, L)[0])  # ind: any emax
        return table

    def verdict(self, xs: Sequence[int], L: int, K: int, emax: int, q: int) -> "GuardVerdict":
        """The verdict on inputs m_i * 2^q given as the integers m_i.  The
        first call writes the block's code: the integer mode then stands in
        for this method, or the rounded verdict in a block that holds a
        non-dyadic constant."""
        self._write()
        return self.verdict(xs, L, K, emax, q)

    def _int_limits(self, emax: int, L: int, K: int, q: int) -> Optional[tuple]:
        """(T, S0, S1, ...) for integer mode on inputs m_i * 2^q at (emax, L,
        K): with E = N * 2^e_root(q), |N| > T is |E| > 2B; S_j is the shift of
        a join's operand.  None unless the range-safe record admits q.  Cached
        in _limits, which _limits.clear() keeps in place."""
        limits = None
        safe = self._safe.get((emax, L, K), False)
        if safe is False:
            safe = self._range_safe(emax, L, K)
        if safe and safe[0] <= q:
            s = _exponent(self._root, q) or 0  # a block without parts is zero: N = 0 never passes T
            limits = ((safe[1] << max(-s, 0)) // (safe[2] << max(s, 0)),
                      *(_exponent(a, q) - _exponent(b, q) if a else 0 for a, b in self._shifts))
        if len(self._limits) >= _CACHE_LIMIT:
            self._limits.clear()
        self._limits[(emax, L, K, q)] = limits
        return limits

    def _static_bound(self, emax: int, L: int) -> tuple[int, int]:
        """static_bound of the block as (numerator, denominator)."""
        return (self._folds.get((emax, L)) or self._fold(emax, L))[1]

    def _range_safe(self, emax: int, L: int, K: int) -> Optional[tuple[int, int, int]]:
        """(Q_safe, 2B) as (Q_safe, numerator, denominator), B the static bound,
        when no range error can occur at (emax, L, K) for inputs of magnitude at
        most 2^emax that are multiples of 2^Q_safe; else None.  _fold gives
        every input sup 2^emax, which an input at +-2^emax attains, so the
        steps below hold up to the box's edge.  No overflow: a rounded node
        is at most sup * (1 + 2^-L)^ind <= sup * e^(1/2) < 2 * sup once
        ind <= 2^(L-1), so 2 * sup <= 2^(2^(K-1)) at each node, the fold's
        top.  No inexact underflow: each node's value quantum is at least
        e_min - L (value_quantum's rule); rounding keeps a quantum.  And every
        constant rounds into F_{L,K}.  Then |fl(E) - E| <= B."""
        ind, (num, den), top, quanta = self._fold(emax, L)
        target = 1 - (1 << (K - 1)) - L
        record = None
        if (ind <= 1 << (L - 1) and top < 1 << (K - 1) and quanta.get(0, target) >= target
                and None not in (self._fixed or self._table(L, K))):
            Q = max((-((c - target) // d) for d, c in quanta.items() if d), default=target)
            record = (Q, 2 * num, den)
        if len(self._safe) >= _CACHE_LIMIT:
            self._safe.clear()
        self._safe[(emax, L, K)] = record
        return record

    def _rounded(self, xs: Sequence[int], L: int, K: int, emax: int, q: int) -> "GuardVerdict":
        """The verdict of the rounded block on inputs m_i * 2^q."""
        try:
            M, q, D, E, R, ind = self._run(xs, q, L, K, self._fixed or self._table(L, K))
        except RangeError as exc:
            return RangeErrorVerdict(exc.source_op)
        if not M:
            return _FAILED
        # certified iff |v| > min(dynamic, static), that is |v| beats either
        a = M if M > 0 else -M
        s = q - E + L
        if (a * R << s > ind * D) if s >= 0 else (a * R > ind * D << -s):
            return _POSITIVE if M > 0 else _NEGATIVE
        num, den = self._static_bound(emax, L)
        if (a * den << q > num) if q >= 0 else (a * den > num << -q):
            return _POSITIVE if M > 0 else _NEGATIVE
        return _FAILED

    def evaluate(self, xs: Sequence[int], q: int, L: int, K: int) -> tuple[Fraction, Fraction]:
        M, q, D, E, R, ind = self._run(xs, q, L, K, self._fixed or self._table(L, K))
        value = _magnitude(M, q) if M >= 0 else -_magnitude(M, q)
        return value, _magnitude(ind * D, E - L) / R


# --- guards over whole expressions -----------------------------------------------


def _input_pairs(x: Sequence[Union[SoftFloat, Exact]], L: int, K: int) -> list[tuple[int, int]]:
    """The inputs as pairs (M, q) of value M * 2^q; each must lie in F_{L,K}.
    Members of F_{L,K} as SoftFloats take the fast path; any other input,
    a member of another F_{L',K'} too, is taken by value."""
    if L < 1 or K < 2:
        raise InadmissibleInput("need L >= 1 and K >= 2")
    pairs = [
        ((v.sign * v.significand, v.exponent - L) if v.significand else (0, 0))
        if v.__class__ is SoftFloat and v.prec == L and v.expbits == K
        else member_pair(v.to_fraction() if isinstance(v, SoftFloat) else v, L, K)
        for v in x
    ]
    if None in pairs:
        v = x[pairs.index(None)]
        v = v.to_fraction() if isinstance(v, SoftFloat) else v
        raise InadmissibleInput(f"input {v} is not exactly representable in F_{{{L},{K}}}")
    return pairs


def _on_one_exponent(x: Sequence[Union[SoftFloat, Exact]], L: int, K: int,
                     emax: Optional[int] = None) -> tuple[list[int], int]:
    """The inputs, which must lie in F_{L,K} and, given emax, in the box
    [-2^emax, 2^emax] that every guard bound assumes (the one range check of
    a guard call), as integers m_i on one exponent q, x_i = m_i * 2^q: q is
    the least exponent of any input's lowest set bit (0 when every input is
    zero), so every input is a multiple of 2^q' exactly when q' <= q."""
    pairs = _input_pairs(x, L, K)
    q = None
    for M, p in pairs:  # a plain loop: cheaper than min() over a generator
        if M:
            p += (M & -M).bit_length()
            if q is None or p < q:
                q = p
    q = 0 if q is None else q - 1
    ms = [M << (p - q) if p >= q else M >> (q - p) for M, p in pairs]
    top = max(max(ms, default=0), -min(ms, default=0))  # |m| <= 2^(emax - q): |m| - 1 has that many bits
    if emax is not None and top and (top - 1).bit_length() + q > emax:
        raise InadmissibleInput(f"an input of magnitude {_magnitude(top, q)} lies outside [-2^{emax}, 2^{emax}]")
    return ms, q


class CompiledGuard:
    """The guard of one expression, built once.

    Each maximal arithmetic block (the subtrees below every Min/Max/Abs/Div
    that sits above all arithmetic) becomes straight-line integer functions;
    Min/Max/Abs/Div above the blocks combine the children's verdicts.
    Calling the guard with inputs (SoftFloat members of F_{L,K} or exact
    values in it), L, K and emax gives guarded_eval's verdict.
    """

    def __init__(self, e: Expr):
        self.expr = e
        self.blocks: list[_Block] = []
        self._whole: Optional[_Block] = None  # e as one block, for evaluate()
        self._tree = self._compile(e)

    def _compile(self, n: Expr):
        if isinstance(n, (Min, Max, Div)):
            left, right = self._compile(n.left), self._compile(n.right)
            if isinstance(n, Div):
                combine = operator.mul
            else:
                combine = min if isinstance(n, Min) else max

            def composite(xs, L, K, emax, q):
                a = left(xs, L, K, emax, q)
                if isinstance(a, RangeErrorVerdict):
                    return a
                b = right(xs, L, K, emax, q)
                if isinstance(b, RangeErrorVerdict):
                    return b
                if isinstance(a, SignCertified) and isinstance(b, SignCertified):
                    return _POSITIVE if combine(a.sign, b.sign) > 0 else _NEGATIVE
                return _FAILED

            return composite
        if isinstance(n, Abs):
            inner = self._compile(n.operand)

            def absolute(xs, L, K, emax, q):
                v = inner(xs, L, K, emax, q)
                return _POSITIVE if isinstance(v, SignCertified) else v

            return absolute
        block = _Block(n)
        self.blocks.append(block)
        if n is self.expr:
            self._whole = block
        return lambda xs, L, K, emax, q: block.verdict(xs, L, K, emax, q)  # the written function, once written

    def __call__(self, x: Sequence[Union[SoftFloat, Exact]], L: int, K: int, emax: int) -> GuardVerdict:
        ms, q = _on_one_exponent(x, L, K, emax)
        return self.verdict(ms, L, K, emax, q)

    def verdict(self, xs: Sequence[int], L: int, K: int, emax: int, q: int) -> GuardVerdict:
        """The verdict on inputs m_i * 2^q given as the integers m_i.  After
        its first call, a guard that is one block calls the block's written
        verdict directly; any other runs its verdict tree."""
        verdict = self._tree(xs, L, K, emax, q)  # writes the blocks' code
        block = self.blocks[0]
        self.verdict = block.verdict if block.node is self.expr else self._tree
        return verdict

    def evaluate(self, x: Sequence[Union[SoftFloat, Exact]], L: int, K: int) -> tuple[Fraction, Fraction]:
        """(fl(e), ind * dynsup * 2^-L) with the whole expression evaluated as
        one arithmetic block in F_{L,K}; RangeError propagates."""
        if self._whole is None:
            self._whole = _Block(self.expr)
        return self._whole.evaluate(*_on_one_exponent(x, L, K), L, K)


def compile_guard(e: Expr) -> CompiledGuard:
    """Compile the guard of e; raises UnsupportedNode for a division below
    an arithmetic node."""
    return CompiledGuard(e)


def _guard_of(e: Expr) -> CompiledGuard:
    """The compiled guard memoized on the expression instance: an attribute
    costs far less than hashing the tree for a cache lookup.  One guard
    serves every predicate built on that instance (geom's builders, parse
    and polynomial_expr share one per expression)."""
    g = getattr(e, "_guard", None)
    if g is None:
        g = compile_guard(e)
        object.__setattr__(e, "_guard", g)
    return g


def guarded_eval(
    e: Expr, x: Sequence[Union[SoftFloat, Exact, int]], L: int, K: int, emax: int, q: Optional[int] = None
) -> GuardVerdict:
    """Evaluate with F_{L,K} arithmetic; certify the sign or fail safely.

    The certified sign always equals the exact rational sign; exact zeros can
    never be certified.  Overflow, inexact underflow and division by zero all
    surface as RangeErrorVerdict, the signal on which the perturbation loop
    grows K.  Inputs are SoftFloats or exact values, and must lie in F_{L,K}
    and in the box [-2^emax, 2^emax] the static bounds assume: any other
    input, too large, too small or not dyadic, raises InadmissibleInput.
    With ``q``, x holds integers m_i instead, of the inputs m_i * 2^q, taken
    unchecked: the caller guarantees that they are such members, |m_i| * 2^q
    <= 2^emax included, as _on_one_exponent checks them; without q the guard
    checks the inputs and puts them on one exponent.
    """
    try:
        guard = e._guard
    except AttributeError:
        guard = _guard_of(e)
    return guard(x, L, K, emax) if q is None else guard.verdict(x, L, K, emax, q)


# --- closed-form fp-safety bounds -------------------------------------------


def safety_lower_univariate(d: int, coeffs: Sequence[Exact], emax: int, L: int) -> Fraction:
    """(d+2) * max_{1<=i<=d} |a_i| * 2^(emax*(d+1)+1-L) for a degree-d polynomial.

    ``coeffs`` is (a_0, ..., a_d); the constant coefficient does not enter the
    maximum, exactly as in the closed form.
    """
    if d < 1:
        raise ValueError("need degree >= 1")
    top = max(abs(Fraction(c)) for c in coeffs[1 : d + 1])
    return (d + 2) * top * Fraction(2) ** (emax * (d + 1) + 1 - L)


def safety_lower_multivariate(d: int, n_terms: int, maxcoeff: Exact, emax: int, L: int) -> Fraction:
    """(d+1+ceil(log2 N_T)) * N_T * maxcoeff * 2^(emax*d+1-L)."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    log_term = ceil_log2(n_terms) if n_terms > 1 else 0
    return (d + 1 + log_term) * n_terms * abs(Fraction(maxcoeff)) * Fraction(2) ** (emax * d + 1 - L)


def value_quantum(e: Expr, emax: int, L: int) -> int:
    """Exponent q such that every subexpression value over grid inputs is an
    integer multiple of 2^q (inputs are multiples of tau = 2^(emax-L-1);
    constants contribute their own dyadic quantum after rounding to L bits).

    Any inexact intermediate is then at least 2^(L+1+q) in magnitude, which is
    what the exponent-width requirement uses to rule out inexact underflow.
    The returned q is the least d * (emax-L-1) + c over the quantum parts of
    every node of every block of e's guard (_Block._quanta), 0 when every
    value is zero; no block code is written.
    """
    Q, blocks = emax - L - 1, _guard_of(e).blocks
    return min((d * Q + c for b in blocks for d, c in b._quanta(L).items()), default=0)
