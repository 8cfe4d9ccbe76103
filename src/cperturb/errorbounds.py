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
its exact stage's range record and its value quantum.  On first use the plan
becomes straight-line Python on signed integer significand/exponent pairs,
rounding every operation exactly as softfloat does.  The dynamic sup (the sup
recursion seeded with the actual input magnitudes) is carried as an exact
dyadic integer pair, so the certify test |v| > min(ind * dynsup * 2^-L,
static) is an integer shift-compare; a block holding a non-dyadic constant
carries its dynamic sup as an exact Fraction instead.

A block with only dyadic constants first runs an exact stage on the same
alignment templates for E, its exact value.  With inputs in [-2^emax, 2^emax]
and no range error possible (_Block._range_safe), |fl(E) - E| <= B, the
static bound, so |E| > 2B means the rounded block would certify sign E.
The rounded block and the exact stage load each input index once, at its
first read (where the stage also checks it); later reads reuse that pair.

Integer mode (guarded_eval with q) takes the inputs as integers m_i of value
m_i * 2^q, as the hull holds its points.  A homogeneous block (no constant,
each Add, Sub, Min and Max joining operands of one degree) then has
E = N * 2^(deg * q), where N is the block on the m_i, exact; its third
function, written on first use, computes N with no alignment and no
per-input exponent.  Given the range-safe record at (emax, L, K), q at or
above its Q_safe and every |m_i| below H = 2^(emax - q), the exact stage's
premises hold, so |N| > T, T = floor(2B / 2^(deg * q)) cached per
(emax, L, K, q), is |E| > 2B, and the function certifies sign N = sign E.
Every other case runs the verdict on the pairs (m_i, q): another block, q
below Q_safe, an input at 2^emax, or |N| <= T.  A guard that is one block
calls that function directly, so a clear test costs the block's integer
arithmetic, one cache lookup and one compare.
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
# A block runs on signed integer pairs (M, q) of value M * 2^q; zero is (0, 0),
# and pairs need not be normalized, because each rounding starts from the exact
# value.  A block's dynamic sup is the dyadic pair (D, E) of value D * 2^E, or a
# Fraction in a block that holds a non-dyadic constant.  The source templates
# below take only integers (node numbers, input and constant indices);
# constants reach the code as values in the table argument C.

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
    Input: "    M{i}, q{i} = xs[{k}]\n",
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

# The exact stage: the block on exact pairs, constants exact in X; None for an
# input not below 2^H or not a multiple of 2^Q (trailing zeros count if q < Q).
_EXACT = {
    **_VALUE,
    **{kind: step + "    M{i} = t\n    q{i} = u\n" for kind, step in _ALIGN.items()},
    Const: "    M{i}, q{i} = X[{k}]\n",
    Input: """\
    M{i}, q{i} = xs[{k}]
    if M{i} and (q{i} + M{i}.bit_length() > H or q{i} < Q and q{i} + (M{i} & -M{i}).bit_length() <= Q):
        return None
""",
}

# Integer mode: a homogeneous block on inputs m_i * 2^q computes N, with
# E = N * 2^(deg * q), and certifies sign N when |N| > T; it falls back to the
# pairs verdict without limits (T, H), for an input not below 2^emax = H * 2^q
# and for |N| <= T.
_INT_HEAD = """\
def verdict(xs, L, K, emax, q):
    limits = get((emax, L, K, q), False)
    if limits is False:
        limits = int_limits(emax, L, K, q)
    if not limits:
        return fall(xs, L, K, emax, q)
    T, H = limits
"""
_INT_TAIL = """\
    if M{i} > T or M{i} < -T:
        return POSITIVE if M{i} > 0 else NEGATIVE
    return fall(xs, L, K, emax, q)
"""
_INTS = {
    Input: "    M{i} = xs[{k}]\n    if abs(M{i}) >= H:\n        return fall(xs, L, K, emax, q)\n",
    **{kind: f"    M{{i}} = M{{a}} {op} M{{b}}\n" for kind, op in zip(_OP_INDEX, _OP_NAMES)},
    Abs: "    M{i} = abs(M{a})\n",
    Min: "    M{i} = M{a} if M{a} <= M{b} else M{b}\n",
    Max: "    M{i} = M{a} if M{a} >= M{b} else M{b}\n",
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
def block(xs, L, K, C):
    emx = 1 << (K - 1)
    emin = 1 - emx
    L1 = L + 1
"""
# (M, q, D, E, R, ind): value M * 2^q, bound ind * D * 2^(E-L) / R
_DYADIC_TAIL = "    return M{i}, q{i}, D{i}, E{i}, 1, C[-1]\n"
_RATIONAL_TAIL = "    return M{i}, q{i}, S{i}.numerator, 0, S{i}.denominator, C[-1]\n"

# per-block caches of constant tables (per L, K), static bounds (per emax, L)
# and range-safe records (per emax, L, K) are cleared when they reach this size
_CACHE_LIMIT = 256


def _edge(t: int, u: int, L: int, K: int, op: str) -> tuple[int, int]:
    return to_pair(_round_scaled(1 if t > 0 else -1, abs(t), u, L, K, op))


def _magnitude(M: int, q: int) -> Fraction:
    """|M| * 2^q as a Fraction."""
    M = abs(M)
    return Fraction(M << q) if q >= 0 else Fraction(M, 1 << -q)


def _least(parts) -> dict:
    """{degree d: the least exponent c} over the (d, c) parts."""
    return dict(sorted(parts, reverse=True))


_POSITIVE = SignCertified(1)
_NEGATIVE = SignCertified(-1)
_FAILED = GuardFailed()


class _Block:
    """One arithmetic expression (Add/Sub/Mul/Abs/Min/Max over inputs and
    constants) planned as one numbered step per node in post-order.

    The plan is the block's one structure.  _fold reads it for the static
    bound, the range-safe record and the value quantum; the two
    straight-line functions are written from it and exec'd on first use,
    so an analysis that reads only the quantum compiles nothing."""

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
        self._quanta_at = {}  # per L
        # instance attributes keep verdict's loads fast; stubs write the code
        self._run = self._write_run
        self._exact = None if self.rational else self._write_exact
        self._fixed = None
        self._code = None

    def _write_run(self, *args):
        return self._write()[0](*args)

    def _write_exact(self, *args):
        return self._write()[1](*args)

    def _write(self) -> tuple:
        """The rounded block and, with only dyadic constants, the exact stage,
        written and exec'd once; each stub still in place gives way to them."""
        if self._code is not None:
            return self._code
        sup = _RATIONAL_SUP if self.rational else _DYADIC_SUP
        lines = [_HEAD]
        exact = ["def exact(xs, Q, H):\n"]
        for i, (kind, kids, k) in enumerate(self._plan):
            a, b = (kids + (0, 0))[:2]
            if kind is not Const:
                lines.append(_VALUE[kind].format(i=i, k=k, a=a, b=b))
            lines.append(sup[kind].format(i=i, k=k, a=a, b=b))
            exact.append(_EXACT[kind].format(i=i, k=k, a=a, b=b))
        root = len(self._plan) - 1
        lines.append((_RATIONAL_TAIL if self.rational else _DYADIC_TAIL).format(i=root))
        if not self.rational:  # a non-dyadic constant has no exact pair
            lines += exact + [f"    return M{root}, q{root}\n"]
        namespace = {"RangeError": RangeError, "_edge": _edge, "_magnitude": _magnitude, "_OP_NAMES": _OP_NAMES,
                     "X": [(c.numerator, 1 - c.denominator.bit_length()) for c in self.consts]}
        exec(compile("".join(lines), "<compiled guard block>", "exec"), namespace)
        self._code = namespace["block"], namespace.get("exact")
        if self._run == self._write_run:
            self._run = self._code[0]
        if self._exact == self._write_exact:
            self._exact = self._code[1]
        if not self.consts:  # the table holds only the block's ind, for every L, K
            self._fixed = (self._fold(0, 1)[0],)
        return self._code

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

    def _quanta(self, L: int) -> dict:
        """{degree d: the least c} over the parts d * Q + c of every node's
        value quantum, for inputs on 2^Q, constants rounded as in _fold: one
        pass on integers, cached per L."""
        quanta = self._quanta_at.get(L)
        if quanta is not None:
            return quanta
        nodes = []  # per node {d: least c}
        for kind, kids, k in self._plan:
            if kind is Input:
                parts = {1: 0}
            elif kind is Const:
                c = self.consts[k]
                M, e = to_pair(fl_round(c, L, 64)) if c else (0, 0)
                parts = {0: e + (M & -M).bit_length() - 1} if M else {}  # the lowest set bit of M * 2^e
            else:
                pa, pb = nodes[kids[0]], nodes[kids[-1]]
                if kind is Mul:
                    parts = _least([(da + db, ca + cb) for da, ca in pa.items() for db, cb in pb.items()])
                else:
                    parts = pa if pa == pb else _least([*pa.items(), *pb.items()])
            nodes.append(parts)
        if len(self._quanta_at) >= _CACHE_LIMIT:
            self._quanta_at.clear()
        quanta = self._quanta_at[L] = _least([p for parts in nodes for p in parts.items()])
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

    def int_verdict(self, xs: Sequence[int], L: int, K: int, emax: int, q: int) -> "GuardVerdict":
        """The verdict on inputs m_i * 2^q given as the integers m_i.  The
        first call writes the block's integer mode, which then stands in for
        this method, or the pairs verdict for a block that is not homogeneous
        (a constant, or an Add, Sub, Min or Max joining two degrees)."""

        def fall(xs, L, K, emax, q):
            return self.verdict([(m, q) for m in xs], L, K, emax)

        degree, lines = [], [_INT_HEAD]
        for i, (kind, kids, k) in enumerate(self._plan):
            d = {degree[j] for j in kids}
            if kind is Const or kind is not Mul and len(d) > 1:
                self.int_verdict = fall
                return fall(xs, L, K, emax, q)
            degree.append(sum(degree[j] for j in kids) if kind is Mul else max(d, default=1))
            a, b = (kids + (0, 0))[:2]
            lines.append(_INTS[kind].format(i=i, k=k, a=a, b=b))
        self._degree = degree[-1]
        namespace = {"get": self._safe.get, "int_limits": self._int_limits, "fall": fall,
                     "POSITIVE": _POSITIVE, "NEGATIVE": _NEGATIVE}
        exec(compile("".join(lines) + _INT_TAIL.format(i=i), "<integer-mode guard block>", "exec"), namespace)
        self.int_verdict = namespace["verdict"]
        return self.int_verdict(xs, L, K, emax, q)

    def _int_limits(self, emax: int, L: int, K: int, q: int) -> Optional[tuple[int, int]]:
        """(T, H) for integer mode on inputs m_i * 2^q at (emax, L, K): with
        E = N * 2^(deg * q), |N| > T is |E| > 2B, and |m_i| < H is
        |x_i| < 2^emax.  None unless the range-safe record admits q.  Cached
        in _safe beside the records, which _safe.clear() keeps in place."""
        limits = None
        if q <= emax:
            safe = self._safe.get((emax, L, K), False)
            if safe is False:
                safe = self._range_safe(emax, L, K)
            if safe and safe[0] <= q:
                s = self._degree * q
                limits = (safe[1] << max(-s, 0)) // (safe[2] << max(s, 0)), 1 << (emax - q)
        if len(self._safe) >= _CACHE_LIMIT:
            self._safe.clear()
        self._safe[(emax, L, K, q)] = limits
        return limits

    def _static_bound(self, emax: int, L: int) -> tuple[int, int]:
        """static_bound of the block as (numerator, denominator)."""
        return (self._folds.get((emax, L)) or self._fold(emax, L))[1]

    def _range_safe(self, emax: int, L: int, K: int) -> Optional[tuple[int, int, int]]:
        """(Q_safe, 2B) as (Q_safe, numerator, denominator), B the static bound,
        when no range error can occur at (emax, L, K) for inputs below 2^emax
        that are multiples of 2^Q_safe; else None.  No overflow: a rounded node
        is at most sup * (1 + 2^-L)^ind <= sup * e^(1/2) < 2 * sup once
        ind <= 2^(L-1), so 2 * sup <= 2^(2^(K-1)) at each node, the fold's
        top.  No inexact underflow: each node's value quantum is at least
        e_min - L (value_quantum's rule); rounding keeps a quantum.  And every
        constant rounds into F_{L,K}."""
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

    def verdict(self, xs: list, L: int, K: int, emax: int, q: Optional[int] = None) -> "GuardVerdict":
        if q is not None:
            return self.int_verdict(xs, L, K, emax, q)
        # the exact stage: |E| > 2B settles the sign as the rounded block would
        safe = self._safe.get((emax, L, K), False) if self._exact else None
        if safe is False:
            safe = self._range_safe(emax, L, K)
        exact = safe and self._exact(xs, safe[0], emax)
        if exact:
            (M, q), (_, num, den) = exact, safe
            a = M if M > 0 else -M
            if (a * den << q > num) if q >= 0 else (a * den > num << -q):
                return _POSITIVE if M > 0 else _NEGATIVE
        try:
            M, q, D, E, R, ind = self._run(xs, L, K, self._fixed or self._table(L, K))
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

    def evaluate(self, xs: list, L: int, K: int) -> tuple[Fraction, Fraction]:
        M, q, D, E, R, ind = self._run(xs, L, K, self._fixed or self._table(L, K))
        value = _magnitude(M, q) if M >= 0 else -_magnitude(M, q)
        return value, _magnitude(ind * D, E - L) / R


# --- guards over whole expressions -----------------------------------------------


def _input_pair(v: Union[SoftFloat, Exact], L: int, K: int) -> tuple[int, int]:
    """An input as a pair (M, q) of value M * 2^q; it must lie in F_{L,K}."""
    if isinstance(v, SoftFloat):
        v = v.to_fraction()  # a member of another F_{L',K'}: taken by value
    pair = member_pair(v, L, K)
    if pair is None:
        raise InadmissibleInput(f"input {v} is not exactly representable in F_{{{L},{K}}}")
    return pair


def _input_pairs(x: Sequence[Union[SoftFloat, Exact]], L: int, K: int) -> list[tuple[int, int]]:
    """The inputs as pairs; members of F_{L,K} as SoftFloats take the fast path."""
    if L < 1 or K < 2:
        raise InadmissibleInput("need L >= 1 and K >= 2")
    return [
        ((v.sign * v.significand, v.exponent - L) if v.significand else (0, 0))
        if v.__class__ is SoftFloat and v.prec == L and v.expbits == K else _input_pair(v, L, K)
        for v in x
    ]


class CompiledGuard:
    """The guard of one expression, built once.

    Each maximal arithmetic block (the subtrees below every Min/Max/Abs/Div
    that sits above all arithmetic) becomes one straight-line integer
    function; Min/Max/Abs/Div above the blocks combine the children's
    verdicts.  Calling the guard with inputs (SoftFloat members of F_{L,K}
    or exact values in it), L, K and emax gives guarded_eval's verdict.
    """

    def __init__(self, e: Expr):
        self.expr = e
        self.blocks: list[_Block] = []
        self._whole: Optional[_Block] = None  # e as one block, for evaluate()
        self._verdict = self._compile(e)

    def _compile(self, n: Expr):
        if isinstance(n, (Min, Max, Div)):
            left, right = self._compile(n.left), self._compile(n.right)
            if isinstance(n, Div):
                combine = operator.mul
            else:
                combine = min if isinstance(n, Min) else max

            def composite(xs, L, K, emax, q=None):
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

            def absolute(xs, L, K, emax, q=None):
                v = inner(xs, L, K, emax, q)
                return _POSITIVE if isinstance(v, SignCertified) else v

            return absolute
        block = _Block(n)
        self.blocks.append(block)
        if n is self.expr:
            self._whole = block
        return block.verdict

    def __call__(self, x: Sequence[Union[SoftFloat, Exact]], L: int, K: int, emax: int) -> GuardVerdict:
        return self._verdict(_input_pairs(x, L, K), L, K, emax)

    def int_verdict(self, xs: Sequence[int], L: int, K: int, emax: int, q: int) -> GuardVerdict:
        """guarded_eval's integer mode.  After its first call, a guard that is
        one block calls the block's integer mode directly; any other hands q
        down its verdict tree."""
        block = self.blocks[0]
        entry = self._verdict if block.node is not self.expr else None
        verdict = (entry or block.int_verdict)(xs, L, K, emax, q)  # writes the block's function
        self.int_verdict = entry or block.int_verdict
        return verdict

    def evaluate(self, x: Sequence[Union[SoftFloat, Exact]], L: int, K: int) -> tuple[Fraction, Fraction]:
        """(fl(e), ind * dynsup * 2^-L) with the whole expression evaluated as
        one arithmetic block in F_{L,K}; RangeError propagates."""
        if self._whole is None:
            self._whole = _Block(self.expr)
        return self._whole.evaluate(_input_pairs(x, L, K), L, K)


def compile_guard(e: Expr) -> CompiledGuard:
    """Compile the guard of e; raises UnsupportedNode for a division below
    an arithmetic node."""
    return CompiledGuard(e)


def _guard_of(e: Expr) -> CompiledGuard:
    """The compiled guard memoized on the expression instance: an attribute
    costs far less than hashing the tree for a cache lookup."""
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
    grows K.  Inputs are SoftFloats or exact values, and must lie in F_{L,K}:
    any other input, whether too large, too small or not dyadic, raises
    InadmissibleInput.  With ``q``, x holds integers m_i instead, of the
    inputs m_i * 2^q, which must be such members and are taken unchecked:
    integer mode, whose sign test is one compare on a homogeneous block.
    """
    try:
        guard = e._guard
    except AttributeError:
        guard = _guard_of(e)
    return guard(x, L, K, emax) if q is None else guard.int_verdict(x, L, K, emax, q)


def dynamic_bound(e: Expr, x: Sequence[Union[SoftFloat, Exact]], L: int, K: int, emax: int) -> Fraction:
    """Input-dependent error bound; never exceeds the static bound."""
    guard = _guard_of(e)
    _, raw = guard.evaluate(x, L, K)
    return min(raw, Fraction(*guard._whole._static_bound(emax, L)))


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


def safety_upper(K: int, s_inf_at_L: Exact) -> Fraction:
    """S_sup(K) = 2^(2^(K-1)) - S_inf(L): below it, evaluations stay in range."""
    if K > 16:
        raise ValueError("use the log-domain comparison for large K")
    s = Fraction(s_inf_at_L)
    if s < 0:
        raise ValueError("S_inf must be nonnegative")
    return Fraction(2) ** (1 << (K - 1)) - s


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
