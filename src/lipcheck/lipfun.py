"""Lipschitz functions on finite pointed spaces, all arithmetic exact.

A function is a value per row with value 0 at the base (row 0). The norm
is the largest absolute difference quotient; on a finite space that is a
maximum, so attainment questions become equalities between rationals.

The kernels run on integers. Distances are ``A / D`` from the space's
cached integer view, and values are ``F / L`` from the function's cached
integer view ``LipFn.lifted``, lifted once per function. A function can be
built from that view (:meth:`LipFn.from_lifted`), and then its ``values``
are built on first read: :func:`combine` sums integer products and builds
its result so, and a caller that reads only the scans and slopes builds
no value Fraction. The scans (:func:`lip_norm`, :func:`strong_pairs`,
:func:`pointwise_sup`) compare the quotients ``|F[q] - F[p]| / A[p][q]``
by integer cross-multiplication: a slope is
``(F[q] - F[p]) * D / (A[p][q] * L)``, and one Fraction is built at the
API boundary.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .metric import (
    FiniteMetricSpace,
    FrozenValue,
    PreconditionError,
    StructureError,
    common_denominator,
)
from .rational import Rat, ZERO, rat


class LipFn(FrozenValue):
    """A function on a finite pointed space, vanishing at the base.

    Built from its ``values``, or with :meth:`from_lifted` from its integer
    view, and then ``values`` is built on first read. Equality and hashing
    compare ``space`` and ``values`` either way.
    """

    _fields = ("space", "values")

    def __init__(self, space: FiniteMetricSpace, values: tuple):
        _check_shape(space, values)
        vars(self).update(space=space, values=values)

    @classmethod
    def from_lifted(cls, space: FiniteMetricSpace, F: tuple, L: int) -> "LipFn":
        """The function with ``f(p) == F[p] / L``, for a tuple of ints ``F``
        and L > 0."""
        _check_shape(space, F)
        fn = cls.__new__(cls)
        vars(fn).update(space=space, lifted=(F, L))
        return fn

    def __call__(self, p: int) -> Rat:
        return self.values[p]

    @cached_property
    def values(self) -> tuple:
        """One rational per row; built from the view when the function was
        built from it."""
        F, L = self.lifted
        return tuple(Rat(x, L) if x else ZERO for x in F)

    @cached_property
    def lifted(self):
        """``(F, L)``: integer values over one denominator L > 0 with
        ``f(p) == F[p] / L``, computed once per function. L need not be in
        lowest terms; every consumer only divides by it."""
        L, mult = common_denominator(self.values)
        return tuple(v.numerator * mult[v.denominator] for v in self.values), L


def _check_shape(space: FiniteMetricSpace, values) -> None:
    """One value per point and 0 at the base; ``values`` may be rationals
    or their integer numerators."""
    if len(values) != space.n_points:
        raise StructureError(
            f"{len(values)} values for a {space.n_points}-point space"
        )
    if values[space.base_index] != 0:
        raise PreconditionError("functions must vanish at the base point")


def lipfn(space: FiniteMetricSpace, values) -> LipFn:
    return LipFn(space, tuple(rat(v) for v in values))


def zero_fn(space: FiniteMetricSpace) -> LipFn:
    return LipFn(space, (ZERO,) * space.n_points)


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
    built from that integer view, so its values are built only if read.
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
    return LipFn.from_lifted(space, tuple(S), K * M)
