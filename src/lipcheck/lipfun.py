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

A battery over a family reads its combinations off the family's
:class:`MoleculeTable`, one row per direction of the members' slope
vectors, instead of combining each and scanning every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import floordiv, mul, neg, sub
from itertools import compress, count, repeat

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


def sup_parts(space: FiniteMetricSpace, view, p: int):
    """``(num, den)``: the pointwise sup at p of the function with integer
    view ``view == (F, L)`` on ``space`` is ``num / den``."""
    if space.n_points < 2:
        raise PreconditionError("pointwise sup needs at least two points")
    (A, D), (F, L) = space.scaled, view
    num, den = max_quotient_at(A[p], F, p)
    return num * D, den * L


def pointwise_sup(f: LipFn, p: int) -> Rat:
    """Largest absolute slope over pairs through p (a max, finitely)."""
    return Rat(*sup_parts(f.space, f.lifted, p))


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


# Row weights are exact when the distances' lcm has at most this many bits.
EXACT_SCALE_BITS = 128


class MoleculeTable:
    """The molecule table of a family f_1..f_k on one space.

    The unit ball of the free space is the convex hull of the molecules
    (δ_p − δ_q) / d(p, q), so ‖Σ c_i f_i‖ is the largest |Σ c_i w_i| over
    the pairs, w being the members' slopes at (p, q). Over the members'
    least common denominator M their values at p form an integer column
    G[p], and G[q] − G[p] == g·u for an integer g and a primitive direction
    u whose first nonzero entry is positive. One row per direction keeps
    the largest |g| / A[p][q] and, among the pairs reaching it, the least
    pair oriented the way f rises when ⟨c, u⟩ > 0, and when ⟨c, u⟩ < 0.
    Other pairs never attain a nonzero norm, so one scan of the rows gives
    the norm and, as the least oriented pair of the attaining rows,
    ``strong_pairs(f)[0]``. Points with equal columns form one group; the
    rows, one per pair of groups at most, are built on first read.
    """

    def __init__(self, functions):
        space = functions[0].space
        views = []
        for f in functions:
            if f.space is not space and f.space.scaled != space.scaled:
                raise PreconditionError("cannot add functions on different spaces")
            views.append(f.lifted)
        self.space, self.size = space, len(views)
        self.scale = M = lcm(*[L for _, L in views])
        self.columns = tuple(zip(*[map(mul, F, repeat(M // L)) for F, L in views]))
        index = {}
        self.group_of = tuple(map(lambda col: index.setdefault(col, len(index)), self.columns))
        self.group_columns = tuple(index)
        # per member, its nonzero values by group
        self.member_groups = [[] for _ in views]
        for g, col in enumerate(self.group_columns):
            for i, x in enumerate(col):
                if x:
                    self.member_groups[i].append((g, x))

    @cached_property
    def rows(self) -> tuple:
        """``(u, num, den, up, down)`` per direction u: ``num / den`` is the
        largest |g| / A[p][q], ``up`` and ``down`` the least attaining pairs
        oriented for ⟨c, u⟩ > 0 and < 0."""
        A, _ = self.space.scaled
        points = [[] for _ in self.group_columns]
        for p, group in enumerate(self.group_of):
            points[group].append(p)
        groups = list(zip(self.group_columns, points))
        rows = {}
        for b, (cq, Q) in enumerate(groups):
            for cp, P in groups[:b]:
                d = tuple(map(sub, cq, cp))
                g = gcd(*d)
                if next(filter(None, d)) < 0:
                    g = -g
                u = tuple(map(floordiv, d, repeat(g)))
                den, pq, qp = _closest_pairs(A, P, Q)
                # f rises from P to Q exactly when g * <c, u> > 0
                up, down = (pq, qp) if g > 0 else (qp, pq)
                num = abs(g)
                row = rows.get(u)
                if row is None or num * row[1] > row[0] * den:
                    rows[u] = [num, den, up, down]
                elif num * row[1] == row[0] * den:
                    row[2], row[3] = min(row[2], up), min(row[3], down)
        return tuple((u, *row) for u, row in rows.items())

    @cached_property
    def _weights(self):
        """Per member the rows of its nonzero direction entries and the
        entries; per row num / den times one scale, rounded down and up
        (one list when all are exact); the scale; the rows' fields. The
        scale is the dens' lcm when short, else a power of two putting the
        largest weight near 2**62."""
        rows = self.rows
        entries = [([], []) for _ in range(self.size)]
        shift = 0
        for r, (u, num, den, _, _) in enumerate(rows):
            shift = max(shift, num.bit_length() - den.bit_length())
            for i, x in enumerate(u):
                if x:
                    entries[i][0].append(r)
                    entries[i][1].append(x)
        _, nums, dens, ups, downs = zip(*rows) if rows else ((),) * 5
        scale = 1
        for den in set(dens):
            scale = lcm(scale, den)
            if scale.bit_length() > EXACT_SCALE_BITS:
                scale = 1 << max(62 - shift, 0)
                break
        floor = list(map(floordiv, map(mul, nums, repeat(scale)), dens))
        ceil = list(map(neg, map(floordiv, map(mul, nums, repeat(-scale)), dens)))
        return entries, floor, ceil if ceil != floor else floor, scale, nums, dens, ups, downs

    def scan(self, C, find_pair: bool = False):
        """``(num, den, pairs)``: ``num / den`` is the norm of Σ C[i] f_i for
        integers C, one per member, and with ``find_pair`` ``pairs`` is the
        least oriented attaining pair of it and of its negation, which swaps
        up and down over the same rows (None for a zero combination).

        A row's value times the scale lies between |<C, u>| times its two
        weights. The largest lower end is at most the norm's, and every
        attaining row's upper end reaches it: only those rows are compared
        exactly, and none when every weight is exact.
        """
        entries, floor, ceil, scale, nums, dens, ups, downs = self._weights
        dots = [0] * len(nums)
        for c, (where, xs) in zip(C, entries):
            if c:
                for r, x in zip(where, xs):
                    dots[r] += c * x
        sizes = list(map(abs, dots))
        low = list(map(mul, sizes, floor))
        lo = max(low, default=0)
        if ceil is floor:
            num, den = lo, scale
            hits = list(compress(count(), map(lo.__eq__, low))) if lo else []
        else:
            num, den, hits = 0, 1, []
            for r in compress(count(), map(lo.__le__, map(mul, sizes, ceil))):
                v = sizes[r] * nums[r]
                if v:
                    lhs, rhs = v * den, num * dens[r]
                    if lhs > rhs:
                        num, den, hits = v, dens[r], [r]
                    elif lhs == rhs:
                        hits.append(r)
        pairs = None
        if find_pair and hits:  # the least of the rows' pairs oriented for C, and for -C
            pairs = tuple(map(min, zip(*[(ups[r], downs[r]) if dots[r] > 0 else (downs[r], ups[r])
                                         for r in hits])))
        return num * self.space.scaled[1], den * self.scale, pairs

    def combination(self, C, K: int) -> "Combination":
        """Σ c_i f_i for ``c_i == C[i] / K``, over the first len(C) members."""
        if len(C) > self.size:
            raise PreconditionError(f"{len(C)} coefficients for a family of {self.size}")
        return Combination(self, tuple(C) + (0,) * (self.size - len(C)), K)


class Combination:
    """A combination read off a molecule table, with no function built: the
    norm from one scan of the rows, a slope from two columns in O(k), the
    pointwise sup from one distance row."""

    __slots__ = ("table", "C", "K")

    def __init__(self, table: MoleculeTable, C: tuple, K: int):
        self.table, self.C, self.K = table, C, K

    def norm_parts(self, find_pair: bool = False):
        """``(num, den, pairs)``: the norm is ``num / den``, and ``pairs`` as
        :meth:`MoleculeTable.scan` finds them."""
        num, den, pairs = self.table.scan(self.C, find_pair)
        return num, den * self.K, pairs

    def slope_parts(self, p: int, q: int):
        if p == q:
            raise PreconditionError("slope needs two distinct points")
        table, C = self.table, self.C
        A, D = table.space.scaled
        rise = sum(map(mul, C, table.columns[q])) - sum(map(mul, C, table.columns[p]))
        return rise * D, A[p][q] * table.scale * self.K

    def values(self):
        """``(W, S)``: the values as integers over one denominator."""
        table = self.table
        sums = [0] * len(table.group_columns)
        for c, entries in zip(self.C, table.member_groups):
            if c:
                for g, x in entries:
                    sums[g] += c * x
        return list(map(sums.__getitem__, table.group_of)), table.scale * self.K

    def sup_parts(self, p: int):
        return sup_parts(self.table.space, self.values(), p)


def _closest_pairs(A, P, Q):
    """``(a, pq, qp)``: the least distance ``a == A[p][q]`` over p in P and
    q in Q, both ascending, with the least pairs (p, q) and (q, p) at it."""
    best = None
    for p in P:
        Ap = A[p]
        for q in Q:
            a = Ap[q]
            if best is None or a < best:
                best, pq, qp = a, (p, q), (q, p)
            elif a == best and (q, p) < qp:
                qp = (q, p)
    return best, pq, qp
