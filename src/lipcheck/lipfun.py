"""Lipschitz functions on finite pointed spaces, all arithmetic exact.

A function is a value per row with value 0 at the base (row 0). The norm
is the largest absolute difference quotient; on a finite space that is a
maximum, so attainment questions become equalities between rationals.

The kernels run on integers. Distances are ``A / D`` from the space's
integer view, and values are ``F / L`` from the function's, ``LipFn.lifted``,
the only form a function stores: L is the least denominator, so equal
functions have equal views. Rationals enter through :func:`lipfn`; an
integer view, which :func:`combine` sums from integer products, enters
through :func:`reduced_fn`, which divides out the gcd. ``values`` is built
on first read, so a caller that reads only the scans and slopes builds no
value Fraction. The scans (:func:`lip_norm`, :func:`strong_pairs`,
:func:`pointwise_sup`) compare the quotients ``|F[q] - F[p]| / A[p][q]``
by integer cross-multiplication: a slope is
``(F[q] - F[p]) * D / (A[p][q] * L)``, and one Fraction is built at the
API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from .metric import (
    FiniteMetricSpace,
    PreconditionError,
    StructureError,
    common_denominator,
)
from .rational import Rat, ZERO, rat


@dataclass(frozen=True)
class LipFn:
    """A function on a finite pointed space, vanishing at the base, stored
    as its least integer view.

    ``lifted`` is ``(F, L)``: a tuple of ints ``F`` and L > 0 with
    ``f(p) == F[p] / L`` and gcd(L, every F[p]) == 1, so equality and
    hashing compare integers. Build one with :func:`lipfn` from rationals
    or :func:`reduced_fn` from any integer view.
    """

    space: FiniteMetricSpace
    lifted: tuple

    def __post_init__(self):
        # The shape: a base point, one value per point and 0 at the base.
        n, F = self.space.n_points, self.lifted[0]
        if n == 0:
            raise PreconditionError("a function needs a space with a base point")
        if len(F) != n:
            raise StructureError(f"{len(F)} values for a {n}-point space")
        if F[self.space.base_index] != 0:
            raise PreconditionError("functions must vanish at the base point")

    def __call__(self, p: int) -> Rat:
        return self.values[p]

    @cached_property
    def values(self) -> tuple:
        """One rational per row, built on first read."""
        F, L = self.lifted
        return tuple(Rat(x, L) if x else ZERO for x in F)


def lipfn(space: FiniteMetricSpace, values) -> LipFn:
    """The function with the given values, coerced with rat(). Over the LCM
    of the reduced denominators the view is already the least."""
    values = [rat(v) for v in values]
    L, mult = common_denominator(values)
    return LipFn(space, (tuple(v.numerator * mult[v.denominator] for v in values), L))


def reduced_fn(space: FiniteMetricSpace, F: tuple, L: int) -> LipFn:
    """The function with ``f(p) == F[p] / L``, for a tuple of ints ``F`` and
    L > 0, both divided by their gcd so that the stored view is the least."""
    g = gcd(L, *F)
    if g > 1:
        F, L = tuple(x // g for x in F), L // g
    return LipFn(space, (F, L))


def zero_fn(space: FiniteMetricSpace) -> LipFn:
    return LipFn(space, ((0,) * space.n_points, 1))


def slope_parts(f: LipFn, p: int, q: int):
    """``(num, den)`` with ``slope(f, p, q) == num / den``, read off the
    integer views; den > 0 on a metric."""
    if p == q:
        raise PreconditionError("slope needs two distinct points")
    F, L = f.lifted
    A, D = f.space.scaled
    return (F[q] - F[p]) * D, A[p][q] * L


def slope(f: LipFn, p: int, q: int) -> Rat:
    """Difference quotient of f over the ordered pair (p, q)."""
    return Rat(*slope_parts(f, p, q))


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


def combine(fns, coeffs) -> LipFn:
    """Linear combination of the first len(coeffs) members, on integers.

    The nonzero coefficients are lifted over their LCM K (``c_i == C_i / K``)
    and the members' views ``F_i / L_i`` over the LCM M of the L_i, so each
    value is ``sum(C_i * (M // L_i) * F_i[p]) / (K * M)``. The result is
    that integer view, reduced, so its values are built only if read.
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
        if f.space is not space and f.space.scaled != space.scaled:
            raise PreconditionError("cannot add functions on different spaces")
    terms = [(c, f.lifted) for c, f in terms if c]
    K, mult = common_denominator(c for c, _ in terms)
    M = lcm(*(L for _, (_, L) in terms))
    S = [0] * space.n_points
    for c, (F, L) in terms:
        w = c.numerator * mult[c.denominator] * (M // L)
        S = [s + w * x for s, x in zip(S, F)]
    return reduced_fn(space, tuple(S), K * M)
