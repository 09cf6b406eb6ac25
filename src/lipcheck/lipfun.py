"""Lipschitz functions on finite pointed spaces, all arithmetic exact.

A function is a value per row with value 0 at the base (row 0). The norm
is the largest absolute difference quotient; on a finite space that is a
maximum, so attainment questions become equalities between rationals.

The kernels run on integers. Distances are ``A / D`` from the space's
cached integer view, and values are ``F / L`` from the function's cached
integer view ``LipFn.lifted``, lifted once per function. :func:`combine`
sums integer products and hands its result that view, so the scans that
follow lift nothing. The scans (:func:`lip_norm`, :func:`strong_pairs`,
:func:`pointwise_sup`) compare the quotients ``|F[q] - F[p]| / A[p][q]``
by integer cross-multiplication: a slope's size is
``|F[q] - F[p]| * D / (A[p][q] * L)``, and one Fraction is built at the
API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .metric import FiniteMetricSpace, PreconditionError, StructureError, common_denominator
from .rational import Rat, ZERO, rat


@dataclass(frozen=True)
class LipFn:
    space: FiniteMetricSpace
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.space.n_points:
            raise StructureError(
                f"{len(self.values)} values for a {self.space.n_points}-point space"
            )
        if self.values[self.space.base_index] != ZERO:
            raise PreconditionError("functions must vanish at the base point")

    def __call__(self, p: int) -> Rat:
        return self.values[p]

    @cached_property
    def lifted(self):
        """``(F, L)``: integer values over one denominator L > 0 with
        ``f(p) == F[p] / L``, computed once per function. L need not be in
        lowest terms; every consumer only divides by it."""
        L, mult = common_denominator(self.values)
        return tuple(v.numerator * mult[v.denominator] for v in self.values), L


def lipfn(space: FiniteMetricSpace, values) -> LipFn:
    return LipFn(space, tuple(rat(v) for v in values))


def zero_fn(space: FiniteMetricSpace) -> LipFn:
    return LipFn(space, (ZERO,) * space.n_points)


def slope(f: LipFn, p: int, q: int) -> Rat:
    """Difference quotient of f over the ordered pair (p, q)."""
    if p == q:
        raise PreconditionError("slope needs two distinct points")
    return (f.values[q] - f.values[p]) / f.space.d(p, q)


def max_quotient(A, F):
    """``(num, den) == (|F[q] - F[p]|, A[p][q])`` at the first pair p < q in
    scan order with the largest quotient, found by cross-multiplication;
    ``(0, 1)`` when no pair has a nonzero difference."""
    num, den = 0, 1
    n = len(F)
    for p in range(n):
        Ap, fp = A[p], F[p]
        for q in range(p + 1, n):
            df = abs(F[q] - fp)
            if df * den > num * Ap[q]:
                num, den = df, Ap[q]
    return num, den


def max_quotient_at(Ap, F, p):
    """``(num, den)`` as :func:`max_quotient`, over the pairs through p only,
    with ``Ap`` the distance row of p."""
    fp = F[p]
    num, den = 0, 1
    for q in range(len(F)):
        if q == p:
            continue
        df = abs(F[q] - fp)
        if df * den > num * Ap[q]:
            num, den = df, Ap[q]
    return num, den


def lip_norm(f: LipFn) -> Rat:
    A, D = f.space.scaled
    F, L = f.lifted
    num, den = max_quotient(A, F)
    return Rat(num * D, den * L)


def strong_pairs(f: LipFn):
    """All ordered pairs attaining the norm, oriented so the slope is +norm.

    The zero function attains nothing, so it gets an empty list. The norm
    is found in the same scan: a larger slope restarts the list.
    """
    A, _ = f.space.scaled
    F, _ = f.lifted
    num, den = 0, 1
    pairs = []
    n = len(F)
    for p in range(n):
        Ap, fp = A[p], F[p]
        for q in range(p + 1, n):
            df = F[q] - fp
            if df < 0:
                df, pair = -df, (q, p)
            else:
                pair = (p, q)
            lhs, rhs = df * den, num * Ap[q]
            if lhs > rhs:
                num, den, pairs = df, Ap[q], [pair]
            elif lhs == rhs and df:
                pairs.append(pair)
    pairs.sort()
    return pairs


def pointwise_sup(f: LipFn, p: int) -> Rat:
    """Largest absolute slope over pairs through p (a max, finitely)."""
    if f.space.n_points < 2:
        raise PreconditionError("pointwise sup needs at least two points")
    A, D = f.space.scaled
    F, L = f.lifted
    num, den = max_quotient_at(A[p], F, p)
    return Rat(num * D, den * L)


def defect(f: LipFn, p: int) -> Rat:
    """How far the norm exceeds what pairs through p can see; >= 0."""
    return lip_norm(f) - pointwise_sup(f, p)


def defect_sequence(fns, p: int):
    """Defects at row p across a list of functions (usually one per
    truncation size); the finite reading of attainment in the limit."""
    return [defect(f, p) for f in fns]


def add(f: LipFn, g: LipFn) -> LipFn:
    if f.space.dist != g.space.dist:
        raise PreconditionError("cannot add functions on different spaces")
    return LipFn(f.space, tuple(a + b for a, b in zip(f.values, g.values)))


def scale(f: LipFn, c) -> LipFn:
    c = rat(c)
    return LipFn(f.space, tuple(c * v for v in f.values))


def combine(fns, coeffs) -> LipFn:
    """Linear combination of the first len(coeffs) members, on integers.

    The nonzero coefficients are lifted over their LCM K (``c_i == C_i / K``)
    and the members' views ``F_i / L_i`` over the LCM M of the L_i, so each
    value is ``sum(C_i * (M // L_i) * F_i[p]) / (K * M)``. The result carries
    that integer view; one Fraction is built per point.
    """
    fns = list(fns)
    coeffs = [rat(c) for c in coeffs]
    if len(coeffs) > len(fns):
        raise PreconditionError(f"{len(coeffs)} coefficients for a family of {len(fns)}")
    if not fns:
        raise PreconditionError("combine needs a nonempty family")
    space = fns[0].space
    terms = list(zip(coeffs, fns))
    for _, f in terms:
        if f.space is not space and f.space.dist != space.dist:
            raise PreconditionError("cannot add functions on different spaces")
    terms = [(c, f.lifted) for c, f in terms if c]
    K, mult = common_denominator(c for c, _ in terms)
    M = lcm(*(L for _, (_, L) in terms))
    S = [0] * space.n_points
    for c, (F, L) in terms:
        w = c.numerator * mult[c.denominator] * (M // L)
        S = [s + w * x for s, x in zip(S, F)]
    den = K * M
    out = LipFn(space, tuple(Rat(s, den) if s else ZERO for s in S))
    object.__setattr__(out, "lifted", (tuple(S), den))
    return out
