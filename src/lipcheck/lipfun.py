"""Lipschitz functions on finite pointed spaces, all arithmetic exact.

A function is a value per row with value 0 at the base (row 0). The norm
is the largest absolute difference quotient; on a finite space that is a
maximum, so attainment questions become equalities between rationals.

The scans (:func:`lip_norm`, :func:`strong_pairs`, :func:`pointwise_sup`)
run on integers: distances as ``A / D`` from the space's cached integer
view, values as ``F / L`` with L the LCM of their denominators, lifted once
per call. A slope's size is ``|F[q] - F[p]| * D / (A[p][q] * L)``, so the
quotients ``|F[q] - F[p]| / A[p][q]`` are compared by integer
cross-multiplication, and one Fraction is built at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def lipfn(space: FiniteMetricSpace, values) -> LipFn:
    return LipFn(space, tuple(rat(v) for v in values))


def zero_fn(space: FiniteMetricSpace) -> LipFn:
    return LipFn(space, (ZERO,) * space.n_points)


def slope(f: LipFn, p: int, q: int) -> Rat:
    """Difference quotient of f over the ordered pair (p, q)."""
    if p == q:
        raise PreconditionError("slope needs two distinct points")
    return (f.values[q] - f.values[p]) / f.space.d(p, q)


def _lifted(f: LipFn):
    """``(F, L)``: integer values over one denominator, ``f(p) == F[p] / L``."""
    L, mult = common_denominator(f.values)
    return [v.numerator * mult[v.denominator] for v in f.values], L


def lip_norm(f: LipFn) -> Rat:
    A, D = f.space.scaled
    F, L = _lifted(f)
    num, den = 0, 1
    n = len(F)
    for p in range(n):
        Ap, fp = A[p], F[p]
        for q in range(p + 1, n):
            df = abs(F[q] - fp)
            if df * den > num * Ap[q]:
                num, den = df, Ap[q]
    return Rat(num * D, den * L)


def strong_pairs(f: LipFn):
    """All ordered pairs attaining the norm, oriented so the slope is +norm.

    The zero function attains nothing, so it gets an empty list. The norm
    is found in the same scan: a larger slope restarts the list.
    """
    A, _ = f.space.scaled
    F, _ = _lifted(f)
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
    F, L = _lifted(f)
    Ap, fp = A[p], F[p]
    num, den = 0, 1
    for q in range(len(F)):
        if q == p:
            continue
        df = abs(F[q] - fp)
        if df * den > num * Ap[q]:
            num, den = df, Ap[q]
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
    """Linear combination of the first len(coeffs) members, in one pass."""
    fns = list(fns)
    coeffs = [rat(c) for c in coeffs]
    if len(coeffs) > len(fns):
        raise PreconditionError(f"{len(coeffs)} coefficients for a family of {len(fns)}")
    if not fns:
        raise PreconditionError("combine needs a nonempty family")
    space = fns[0].space
    terms = list(zip(coeffs, fns))
    for _, f in terms:
        if f.space.dist != space.dist:
            raise PreconditionError("cannot add functions on different spaces")
    values = (sum((c * f.values[p] for c, f in terms), ZERO) for p in space.points())
    return LipFn(space, tuple(values))
