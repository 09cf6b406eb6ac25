"""Exact piecewise-linear functions on an interval of the line.

A function is a strictly increasing list of rational breakpoints with a
value at each, linearly interpolated in between, optionally extended by a
constant beyond either endpoint. The base coordinate (default 0) must be a
breakpoint with value 0. The norm is the largest absolute segment slope:
the two-point slope between any p < q is a convex combination of the
segment slopes crossed, so segments dominate.

The partners of a pointwise sup are breakpoints too, so on its
breakpoints a function is a Lipschitz function on a finite subset of the
line, and the scans run on integers, as in :mod:`lipcheck.lipfun`, on the
cached view ``PLFn.lifted``; one Fraction is built per answer.

Functions come from the generators the acceptance criteria use: tents,
tent sums and zigzag cascades. The attainment taxonomy of a function
(which points and one-sided derivatives attain the norm) is read off in
the tests, by ``classify`` in ``tests/pl_oracle.py``.

The module also holds ``sample_analytic``, the float sampling of an
analytic reference function on the line: the package's one non-exact
code path, labeled as such in its output.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .lipfun import max_quotient_at
from .metric import PreconditionError, StructureError, common_denominator
from .rational import Rat, ZERO, ONE, rat


@dataclass(frozen=True)
class PLFn:
    breakpoints: tuple
    values: tuple
    left_extension: bool = True
    right_extension: bool = True
    base: Rat = ZERO

    def __post_init__(self):
        if not self.breakpoints:
            raise StructureError("need at least one breakpoint")
        if len(self.values) != len(self.breakpoints):
            raise StructureError("breakpoint/value length mismatch")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise StructureError("breakpoints must be strictly increasing")
        if self.base not in self.breakpoints:
            raise PreconditionError("base coordinate must be a breakpoint")
        if self.values[self.breakpoints.index(self.base)] != ZERO:
            raise PreconditionError("function must vanish at the base coordinate")

    @cached_property
    def lifted(self):
        """``(X, DX, V, DV)``: integers with ``breakpoints[i] == X[i] / DX``
        and ``values[i] == V[i] / DV``, computed once per function."""
        DX, mx = common_denominator(self.breakpoints)
        DV, mv = common_denominator(self.values)
        X = tuple(x.numerator * mx[x.denominator] for x in self.breakpoints)
        return X, DX, tuple(v.numerator * mv[v.denominator] for v in self.values), DV


def pl_eval(f: PLFn, x) -> Rat:
    x = rat(x)
    bps = f.breakpoints
    if x < bps[0]:
        if not f.left_extension:
            raise PreconditionError("x left of the domain and no extension")
        return f.values[0]
    if x > bps[-1]:
        if not f.right_extension:
            raise PreconditionError("x right of the domain and no extension")
        return f.values[-1]
    # bps[i] <= x < bps[i + 1], or x is the last breakpoint
    i = bisect_right(bps, x) - 1
    if x == bps[i]:
        return f.values[i]
    t = (x - bps[i]) / (bps[i + 1] - bps[i])
    return f.values[i] + t * (f.values[i + 1] - f.values[i])


def pl_norm(f: PLFn) -> Rat:
    """Largest absolute segment slope, by cross-multiplication on the
    integer view; a single breakpoint gives 0."""
    X, DX, V, DV = f.lifted
    num, den = 0, 1
    for i in range(len(X) - 1):
        dv, dx = abs(V[i + 1] - V[i]), X[i + 1] - X[i]
        if dv * den > num * dx:
            num, den = dv, dx
    return Rat(num * DX, den * DV)


def pl_pointwise_sup(f: PLFn, x) -> Rat:
    """Largest |slope| from x to any other point, computed over breakpoints.

    Breakpoint partners suffice. For x outside a segment [a, b], the slope
    (f(q) - f(x)) / (q - x) is a linear-fractional function of q in [a, b]
    whose pole x lies outside it, so it is monotone there; for x in [a, b]
    it is the segment's slope. Constant extensions only shrink quotients.
    x and f(x) join the integer view as one extra point, and
    :func:`lipfun.max_quotient_at` scans the row ``|X[q] - x|`` (x's own
    breakpoint, if any, is at distance 0 with difference 0: never larger).
    """
    x = rat(x)
    bps = f.breakpoints
    if x < bps[0] or x > bps[-1]:
        raise PreconditionError("x outside the function's domain")
    fx = pl_eval(f, x)
    X, DX, V, DV = f.lifted
    M, N = lcm(DX, x.denominator), lcm(DV, fx.denominator)
    sx, sv = M // DX, N // DV
    xm = x.numerator * (M // x.denominator)
    row = [abs(a * sx - xm) for a in X] + [0]
    F = [v * sv for v in V] + [fx.numerator * (N // fx.denominator)]
    num, den = max_quotient_at(row, F, len(X))
    return Rat(num * M, den * N)


# ---------------------------------------------------------------------------
# Generators


def gen_tents(n: int) -> PLFn:
    """The n-th unit tent on [0, 1].

    Support is ]2^(-n^2), 2^(-(n-1)^2)[ with peak (2^(2n-1)-1)/2^(n^2+1)
    at x = (2^(2n-1)+1)/2^(n^2+1); both flanks have slope magnitude 1.
    """
    if n < 1:
        raise PreconditionError("tent index must be >= 1")
    left = rat(1, 2 ** (n * n))
    right = rat(1, 2 ** ((n - 1) * (n - 1)))
    center = rat(2 ** (2 * n - 1) + 1, 2 ** (n * n + 1))
    peak = rat(2 ** (2 * n - 1) - 1, 2 ** (n * n + 1))
    bps = [ZERO, left, center, right]
    vals = [ZERO, ZERO, peak, ZERO]
    if right != ONE:
        bps.append(ONE)
        vals.append(ZERO)
    return PLFn(tuple(bps), tuple(vals))


def tent_sum(a) -> PLFn:
    """Sum of a_n times the n-th tent; supports are pairwise disjoint, so
    no tent's breakpoint lies inside another tent's support, and the sum
    is built tent by tent from each tent's own breakpoints."""
    total = {ZERO: ZERO, ONE: ZERO}
    for n, c in enumerate(a, 1):
        c = rat(c)
        t = gen_tents(n)
        for x, v in zip(t.breakpoints, t.values):
            total[x] = total.get(x, ZERO) + c * v
    bps = tuple(sorted(total))
    return PLFn(bps, tuple(total[x] for x in bps))


def gen_zigzag(eps, eta, K: int) -> PLFn:
    """Zigzag of K cones on [0, 1] whose tips lie on the line y = eps*x.

    Cone n spans [p_{n+1}, p_n] with flank slopes +-(1 - eta^n); the tip
    q_n is where the right flank through (p_n, 0) meets y = eps*x. The
    function is 0 on [0, p_{K+1}].
    """
    eps, eta = rat(eps), rat(eta)
    if K < 1:
        raise PreconditionError("zigzag needs K >= 1")
    if not (ZERO < eps < ONE and ZERO < eta < ONE):
        raise PreconditionError("zigzag needs 0 < eps, eta < 1")
    if eps >= ONE - eta:
        raise PreconditionError("zigzag needs eps < 1 - eta so cones stay right of 0")

    p = ONE
    tips = []  # (qx, qy) per cone, feet p_{n+1} alongside
    feet = [p]
    for n in range(1, K + 1):
        s = ONE - eta ** n
        qx = s * p / (eps + s)
        qy = eps * qx
        p = qx - qy / s
        tips.append((qx, qy))
        feet.append(p)

    bps = [ZERO, feet[-1]]
    vals = [ZERO, ZERO]
    for n in range(K, 0, -1):
        qx, qy = tips[n - 1]
        bps.extend([qx, feet[n - 1]])
        vals.extend([qy, ZERO])
    return PLFn(tuple(bps), tuple(vals))


# ---------------------------------------------------------------------------
# Float sampling of an analytic reference function (the one non-exact path)

ANALYTIC_FUNCTIONS = {
    "x2-over-absx-plus-2": lambda x: x * x / (abs(x) + 2.0),
}


def sample_analytic(function_id: str, resolution: int, horizon: int,
                    span: float = 1000.0) -> dict:
    """Float-only sampling of a reference function; clearly labeled as the
    single non-exact code path.

    Reports the max two-point slope over an even grid on [-span, span] and
    the base-to-horizon slope, against the bounds the limiting statement
    implies (slope below 1 up to float error, horizon sample within
    4/horizon of 1).
    """
    if function_id not in ANALYTIC_FUNCTIONS:
        raise PreconditionError(f"unknown analytic function {function_id!r}")
    if resolution <= 0 or horizon <= 0 or not 0.0 < span < float("inf"):
        raise PreconditionError("resolution, horizon and span must be positive and finite")
    f = ANALYTIC_FUNCTIONS[function_id]
    xs = [-span + 2.0 * span * i / resolution for i in range(resolution + 1)]
    ys = [f(x) for x in xs]
    max_slope = 0.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            gap = xs[j] - xs[i]
            if gap == 0.0:
                continue
            s = abs(ys[j] - ys[i]) / gap
            if s > max_slope:
                max_slope = s
    sample = (f(float(horizon)) - f(0.0)) / float(horizon)
    slope_bound = 1.0 + 1e-12
    error_bound = 4.0 / horizon
    slope_ok = max_slope <= slope_bound
    sample_ok = abs(1.0 - sample) <= error_bound
    return {
        "function": function_id,
        "arithmetic": "float64",
        "exact": False,
        "resolution": resolution,
        "span": span,
        "horizon": horizon,
        "max_grid_slope": max_slope,
        "slope_bound": slope_bound,
        "slope_ok": slope_ok,
        "sample_at_horizon": sample,
        "limit": 1.0,
        "sample_error": abs(1.0 - sample),
        "error_bound": error_bound,
        "sample_ok": sample_ok,
        "passed": slope_ok and sample_ok,
    }
