"""Pointed finite metric spaces, validation, and the model catalog.

Everything in this module is exact. Distances come from closed-form rules,
each one exact division of integers with the paper's form as a comment
above it; validation is a literal check of the metric axioms, and models
carry whatever tail data (limits along the index set) the downstream
checkers need. A model that cannot supply a limit says so through an error
instead of letting callers guess one numerically.

Integer view: a space stores only its least integer view ``A / D``
(:attr:`FiniteMetricSpace.scaled`). Each model gives one integer rule
``(num, den)`` per distance, and :func:`truncate` builds its space from
those; rationals enter only through :func:`make_space`. The axiom check
compares the integers ``A``; since ``D > 0`` every comparison and sum means
the same thing on ``A / D`` as on the rationals. An O(n^2) row-bound
certificate (see :func:`validate`) spares the cubic triangle scan every
pair of rows that cannot fail. Fractions are built only at the API
boundary: violations carry the ``dist`` entries, in the order the rational
scan found them, and ``dist`` is built on first read, so a kernel that
reads only the view, a passing truncation included, builds no Fraction.

Row convention: the base point is always row 0. Models whose base point is
the first sequence element alias row i to p_{i+1}; models with a separate
base map row i to p_i for i >= 1.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Callable, Optional

from .rational import Rat, ZERO, ONE, format_rat, parse_rat, rat

BASE_INDEX = 0


class LipcheckError(Exception):
    """Base class for everything this package raises on purpose."""


class StructureError(LipcheckError):
    """Malformed container input (non-square matrix, bad JSON shape)."""


class PreconditionError(LipcheckError):
    """A documented precondition of an operation was violated."""


class ModelError(LipcheckError):
    """Unknown catalog entry, parameter out of range, or a rule that
    produced a non-metric."""


class TailDataError(ModelError):
    """A checker needed a declared limit the model does not supply."""


def as_index(x, what: str, error: type = PreconditionError) -> int:
    """``x`` as an int. Anything that is not an integer, a float such as
    1.7 included, raises ``error`` naming ``what`` and ``x``: an index is
    never truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{what} {x!r} is not an integer") from None


# ---------------------------------------------------------------------------
# Finite spaces


@dataclass(frozen=True)
class Violation:
    axiom: str
    indices: tuple
    values: tuple


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {
                    "axiom": v.axiom,
                    "indices": list(v.indices),
                    "values": [format_rat(x) for x in v.values],
                }
                for v in self.violations
            ],
        }


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a named condition check; truthy iff the condition holds.

    When a check fails, ``clause`` names the violated condition and the
    witness fields carry the first violating indices with the exact values
    on both sides.
    """

    ok: bool
    name: str
    clause: str = ""
    witness_indices: tuple = ()
    witness_values: tuple = ()

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "name": self.name,
            "clause": self.clause,
            "witness_indices": list(self.witness_indices),
            "witness_values": [format_rat(x) for x in self.witness_values],
        }


@dataclass(frozen=True)
class FiniteMetricSpace:
    """An n-point metric with the base fixed at row 0, stored as its least
    integer view.

    ``scaled`` is ``(A, D)``: int row tuples ``A`` and one denominator
    D > 0 with ``d(i, j) == A[i][j] / D`` and gcd(D, every entry) == 1, so
    equal distances give equal views and equality and hashing compare
    integers. Construction does not validate the axioms; run
    :func:`validate` for that. Rationals enter through :func:`make_space`,
    and ``dist`` gives them back, built on first read.
    """

    scaled: tuple
    labels: tuple
    name: str = ""

    @cached_property
    def dist(self) -> tuple:
        """Rows of rationals, one Fraction per distinct entry."""
        A, D = self.scaled
        as_rat = {x: Rat(x, D) for x in set().union(*A)}
        return tuple(tuple(as_rat[x] for x in row) for row in A)

    @property
    def n_points(self) -> int:
        return len(self.scaled[0])

    @property
    def base_index(self) -> int:
        return BASE_INDEX

    def d(self, i: int, j: int) -> Rat:
        return self.dist[i][j]

    def points(self):
        return range(self.n_points)

    def subspace(self, indices) -> "FiniteMetricSpace":
        """Restrict to ``indices``; the first listed index becomes the base."""
        idx = [as_index(a, "subspace index") for a in indices]
        for a in idx:
            if not 0 <= a < self.n_points:
                raise PreconditionError(f"subspace index {a} outside the space")
        if len(idx) < 1:
            raise PreconditionError("subspace needs at least one index")
        if len(set(idx)) != len(idx):
            raise PreconditionError("subspace indices must be distinct")
        A, D = self.scaled
        rows = tuple(tuple(A[a][b] for b in idx) for a in idx)
        labs = tuple(self.labels[a] for a in idx)
        return _least_space(rows, D, labs, self.name)


def _least_space(A: tuple, D: int, labels: tuple, name: str) -> FiniteMetricSpace:
    """The space of the view ``A / D``, both divided by their gcd so that
    the stored view is the least one."""
    g = gcd(D, *chain.from_iterable(A))
    if g > 1:
        A = tuple(tuple(x // g for x in row) for row in A)
        D //= g
    return FiniteMetricSpace((A, D), labels, name)


def common_denominator(values):
    """``(D, mult)``: D is the LCM of the distinct denominators of
    ``values`` (1 when there are none) and ``mult[den] == D // den``, so
    ``x == x.numerator * mult[x.denominator] / D`` for every x."""
    dens = {x.denominator for x in values}
    D = lcm(*dens)
    return D, {den: D // den for den in dens}


def make_space(dist_rows, labels=None, name: str = "") -> FiniteMetricSpace:
    """Build a space from nested lists, coercing entries with rat(). Over
    the LCM of the reduced denominators the view is already the least."""
    rows = [[rat(x) for x in row] for row in dist_rows]
    if labels is None:
        labels = tuple(f"x{i}" for i in range(len(rows)))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != len(rows):
            raise StructureError("label count does not match matrix size")
    D, mult = common_denominator(x for row in rows for x in row)
    A = tuple(tuple(x.numerator * mult[x.denominator] for x in row) for row in rows)
    return FiniteMetricSpace((A, D), labels, name)


def validate(space: FiniteMetricSpace) -> ValidationReport:
    """Check the three metric axioms and report every violation.

    Positivity covers both the zero diagonal and strictly positive
    off-diagonal entries. Witnesses are the smallest index tuples in
    lexicographic order, since iteration is ordered.

    The triangle scan skips a pair (i, j) when ``tail_max[j] = max(A[j][j+1:])
    <= A[i][j] + row_min[i]``, the least entry of row i off the diagonal: then
    ``A[j][k] <= tail_max[j] <= A[i][j] + A[i][k]`` for every k it would visit,
    so the report is the full scan's. Lines and trees, whose triangles are
    mostly tight, keep most of the cubic scan. The structure check reads the
    view; ``dist`` is read only to report a violation.
    """
    A, _ = space.scaled
    n = len(A)
    for i, row in enumerate(A):
        if len(row) != n:
            raise StructureError(f"row {i} has length {len(row)}, expected {n}")
        if not set(map(type, row)) <= {int}:
            raise StructureError(f"non-integer view entry in row {i}")

    violations = []
    for i in range(n):
        if A[i][i] != 0:
            violations.append(Violation("positivity", (i, i), (space.dist[i][i],)))
        for j in range(i + 1, n):
            if A[i][j] <= 0:
                violations.append(Violation("positivity", (i, j), (space.dist[i][j],)))
            if A[i][j] != A[j][i]:
                violations.append(
                    Violation("symmetry", (i, j), (space.dist[i][j], space.dist[j][i]))
                )
    tail_max = [max(row[j + 1:], default=0) for j, row in enumerate(A)]
    row_min = [min(row[:i] + row[i + 1:], default=0) for i, row in enumerate(A)]
    for i in range(n):
        Ai, min_i = A[i], row_min[i]
        for j in range(n):
            if j == i:
                continue
            a_ij, Aj = Ai[j], A[j]
            if tail_max[j] <= a_ij + min_i:
                continue  # the row-bound certificate: no k below can fail
            for k in range(j + 1, n):
                if k != i and Aj[k] > a_ij + Ai[k]:
                    dist = space.dist
                    violations.append(Violation(
                        "triangle", (j, i, k), (dist[j][k], dist[i][j], dist[i][k])
                    ))
    return ValidationReport(passed=not violations, violations=tuple(violations))


def _require_metric(space: FiniteMetricSpace, what: str) -> FiniteMetricSpace:
    """The loaders' one axiom check: ``space``, or a ModelError naming ``what``
    and the first violation."""
    report = validate(space)
    if not report.passed:
        v = report.violations[0]
        raise ModelError(f"{what} violates {v.axiom} at indices {v.indices}")
    return space


def min_radius(A, p: int) -> int:
    """The least entry of row p of an integer view off the diagonal."""
    row = A[p]
    return min(row[:p] + row[p + 1:])


def min_positive_radius(space: FiniteMetricSpace, p: int) -> Rat:
    """Distance from p to the rest of the space (a minimum, finitely)."""
    if space.n_points < 2:
        raise PreconditionError("radius needs at least two points")
    A, D = space.scaled
    return Rat(min_radius(A, p), D)


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class MetricModel:
    """A countable metric rule plus declared tail data.

    A rule gives each distance as ``(num, den)``, den > 0, not necessarily in
    lowest terms. ``row_parts(i, j)``, i != j, is the authoritative rule on
    row indices. Sequence models also give the 1-based rule ``seq_parts``
    (and ``base_parts`` when the base is a separate point), which
    ``row_parts`` wraps. The rules are read only by :func:`truncate`: a
    checker or pipeline reads a sequence distance from the validated
    truncation, through ``n_seq`` and ``seq_row``. Tail fields are declared
    closed forms, not computed limits:

    - ``L_pair(n)``  = lim_m d(p_n, p_m)
    - ``L``          = lim_n L_pair(n)
    - ``base_limit`` = lim_n d(0, p_n)
    - ``eps(n)``     = the model's canonical epsilon assignment, if any
    - ``env_phi(s)``   bounds sup_{s<=n<m} |phi(n, m)|
    - ``env_psi(s)``   bounds sup_{n>=s} |psi(n)|
    - ``env_dev(n,s)`` bounds sup_{m>=s} |phi(n, m) - psi(n)| for s > n

    where phi(n, m) = d(p_n, p_m) - L and psi(n) = L_pair(n) - L.
    """

    name: str
    params: dict
    row_parts: Callable
    row_label: Callable
    base_aliases_p1: bool
    max_points: Optional[int] = None
    seq_parts: Optional[Callable] = None
    base_parts: Optional[Callable] = None
    L_pair: Optional[Callable] = None
    L: Optional[Rat] = None
    base_limit: Optional[Rat] = None
    eps: Optional[Callable] = None
    env_phi: Optional[Callable] = None
    env_psi: Optional[Callable] = None
    env_dev: Optional[Callable] = None
    bounded: bool = True
    uniformly_discrete: bool = True
    monotone_tails: bool = False
    liminf_phi_nonneg: Optional[bool] = None
    ratio_tends_to_one: bool = False

    # -- sequence/row bookkeeping ------------------------------------------

    @property
    def is_sequence_model(self) -> bool:
        return self.seq_parts is not None

    def need_sequence(self):
        if not self.is_sequence_model:
            raise ModelError(f"model {self.name!r} has no sequence structure")

    def n_seq(self, n_points: int) -> int:
        """Number of sequence points inside an n_points truncation."""
        self.need_sequence()
        return n_points if self.base_aliases_p1 else n_points - 1

    def seq_row(self, n: int) -> int:
        self.need_sequence()
        return n - 1 if self.base_aliases_p1 else n

    # -- declared tails -----------------------------------------------------

    @property
    def has_tails(self) -> bool:
        return self.L is not None and self.L_pair is not None

    def need_tails(self):
        if not self.has_tails:
            raise TailDataError(f"limits unavailable for model {self.name!r}")

    def need_envelopes(self):
        if self.env_phi is None or self.env_psi is None or self.env_dev is None:
            raise TailDataError(f"envelope bounds unavailable for model {self.name!r}")


def truncate(model: MetricModel, N: int) -> FiniteMetricSpace:
    """The metric on the first N row indices of the model, validated.

    The space is built from its integer view: ``A'[i][j] = num * (D' // den)``
    over D' the LCM of the formula denominators, both divided by their gcd
    since a formula need not be in lowest terms, which leaves the least view.
    Entries are computed in both orders, so the symmetry check keeps its
    meaning."""
    if N < 2:
        raise PreconditionError("truncation needs N >= 2")
    if model.max_points is not None and N > model.max_points:
        raise ModelError(
            f"model {model.name!r} has only {model.max_points} points "
            f"with the given parameters, asked for {N}"
        )
    parts = [[(0, 1) if i == j else model.row_parts(i, j) for j in range(N)] for i in range(N)]
    dens = {den for row in parts for _, den in row}
    D = lcm(*dens)
    mult = {den: D // den for den in dens}
    A = tuple(tuple(num * mult[den] for num, den in row) for row in parts)
    del parts  # not kept alive through the validation
    labels = tuple(model.row_label(i) for i in range(N))
    space = _least_space(A, D, labels, model.name)
    return _require_metric(space, f"truncation of {model.name!r} at N={N}")


# ---------------------------------------------------------------------------
# Catalog builders


def _seq_model(name, params, seq_parts, base_parts=None, **extra) -> MetricModel:
    alias = base_parts is None

    def row_parts(i, j):
        if alias:
            return seq_parts(i + 1, j + 1)
        if i == 0:
            return base_parts(j)
        if j == 0:
            return base_parts(i)
        return seq_parts(i, j)

    def row_label(i):
        if alias:
            return f"p{i + 1}"
        return "0" if i == 0 else f"p{i}"

    return MetricModel(
        name=name,
        params=params,
        row_parts=row_parts,
        row_label=row_label,
        base_aliases_p1=alias,
        seq_parts=seq_parts,
        base_parts=base_parts,
        **extra,
    )


def _discrete() -> MetricModel:
    return _seq_model(
        "discrete",
        {},
        seq_parts=lambda n, m: (1, 1),
        L_pair=lambda n: ONE,
        L=ONE,
        env_phi=lambda s: ZERO,
        env_psi=lambda s: ZERO,
        env_dev=lambda n, s: ZERO,
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _prop23() -> MetricModel:
    two = rat(2)
    return _seq_model(
        "prop23",
        {},
        seq_parts=lambda n, m: (2, 1),
        base_parts=lambda n: (1, 1),
        L_pair=lambda n: two,
        L=two,
        base_limit=ONE,
        env_phi=lambda s: ZERO,
        env_psi=lambda s: ZERO,
        env_dev=lambda n, s: ZERO,
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _prop24() -> MetricModel:
    # Points 1/2^{n^2} on the line accumulating at the base point 0.
    def x(n):
        return rat(1, 2 ** (n * n))

    return _seq_model(
        "prop24",
        {},
        # 2^{-min(n, m)^2} - 2^{-max(n, m)^2}
        seq_parts=lambda n, m: ((1 << abs(n * n - m * m)) - 1, 1 << max(n, m) ** 2),
        base_parts=lambda n: (1, 1 << n * n),
        L_pair=x,
        L=ZERO,
        base_limit=ZERO,
        env_phi=lambda s: x(s),
        env_psi=lambda s: x(s),
        env_dev=lambda n, s: x(s),
        monotone_tails=True,
        liminf_phi_nonneg=True,
        uniformly_discrete=False,
    )


def _example33() -> MetricModel:
    return _seq_model(
        "example33",
        {},
        # 1 + 1/min(n, m)
        seq_parts=lambda n, m: (n + 1, n) if n < m else (m + 1, m),
        # 1 + 1/n
        L_pair=lambda n: Rat(n + 1, n),
        L=ONE,
        env_phi=lambda s: rat(1, s),
        env_psi=lambda s: rat(1, s),
        # For m > n, phi(n, m) = 1/n = psi(n), so the deviation vanishes.
        env_dev=lambda n, s: ZERO,
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _example35() -> MetricModel:
    return _seq_model(
        "example35",
        {},
        # 1 + 1/n + 1/m
        seq_parts=lambda n, m: (n * m + n + m, n * m),
        # 1 + 1/n
        base_parts=lambda n: (n + 1, n),
        # 1 + 1/n
        L_pair=lambda n: Rat(n + 1, n),
        L=ONE,
        base_limit=ONE,
        env_phi=lambda s: rat(2, s),
        env_psi=lambda s: rat(1, s),
        env_dev=lambda n, s: rat(1, s),
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _dmqr41() -> MetricModel:
    return _seq_model(
        "dmqr41",
        {},
        # 1 + 1/max(n, m)
        seq_parts=lambda n, m: (n + 1, n) if n > m else (m + 1, m),
        L_pair=lambda n: ONE,
        L=ONE,
        env_phi=lambda s: rat(1, s + 1),
        env_psi=lambda s: ZERO,
        env_dev=lambda n, s: rat(1, s),
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _example44() -> MetricModel:
    return _seq_model(
        "example44",
        {},
        # 1 + 1/(n + m)
        seq_parts=lambda n, m: (n + m + 1, n + m),
        # 1/2 + 1/n
        base_parts=lambda n: (n + 2, 2 * n),
        L_pair=lambda n: ONE,
        L=ONE,
        base_limit=rat(1, 2),
        env_phi=lambda s: rat(1, 2 * s + 1),
        env_psi=lambda s: ZERO,
        env_dev=lambda n, s: rat(1, n + s),
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _example48() -> MetricModel:
    # 2 - 3^{-min(n, m)} - 2 * 3^{-max(n, m)}
    def srule(n, m):
        lo, hi = (n, m) if n < m else (m, n)
        return 2 * 3 ** hi - 3 ** (hi - lo) - 2, 3 ** hi

    return _seq_model(
        "example48",
        {},
        seq_parts=srule,
        # 2 - 3^{-n}
        L_pair=lambda n: Rat(2 * 3 ** n - 1, 3 ** n),
        L=rat(2),
        env_phi=lambda s: rat(5, 3 ** (s + 1)),
        env_psi=lambda s: rat(1, 3 ** s),
        env_dev=lambda n, s: rat(2, 3 ** s),
        monotone_tails=True,
        # phi(n, m) < 0 everywhere but tends to 0, so the liminf is 0.
        liminf_phi_nonneg=True,
    )


def _dmqr44(c) -> MetricModel:
    c = rat(c)
    if c <= ZERO:
        raise ModelError("dmqr44 needs c > 0 so that eps_n stays inside ]0, 1/2[")
    P, Q = c.numerator, c.denominator

    # n / (2(n + c))
    def eps(n):
        return Rat(n * Q, 2 * (n * Q + P))

    # n + m - eps_k with k = max(n, m)
    def srule(n, m):
        kQ = (n if n > m else m) * Q
        den = 2 * (kQ + P)
        return (n + m) * den - kQ, den

    return _seq_model(
        "dmqr44",
        {"c": c},
        seq_parts=srule,
        base_parts=lambda n: (n, 1),
        eps=eps,
        bounded=False,
        # residual 1 - (g_n + g_m)/d = eps_min/(n + m - eps_max) -> 0
        ratio_tends_to_one=True,
    )


# thm51star and prop53 have 2 ** levels point pairs; far more than any
# truncation can reach, and small enough to build without cost.
MAX_LEVELS = 64


def int_param(name: str, key: str, value) -> int:
    """An integer model parameter as an int. A non-integral value, 27/10
    say, raises ModelError naming it instead of being truncated."""
    n = int(value)
    if n != (rat(value) if isinstance(value, str) else value):
        raise ModelError(f"{name} needs an integer {key}, got {value}")
    return n


def _check_levels(name: str, levels) -> int:
    """``levels`` as an int in 1..MAX_LEVELS, checked before 2 ** levels is formed."""
    levels = int_param(name, "levels", levels)
    if not 1 <= levels <= MAX_LEVELS:
        raise ModelError(f"{name} needs 1 <= levels <= {MAX_LEVELS}, got {levels}")
    return levels


def _thm51star(levels) -> MetricModel:
    levels = _check_levels("thm51star", levels)
    n_pairs = 2 ** levels

    def row_label(i):
        g = i // 2
        return f"q{g}" if i % 2 == 0 else f"p{g}"

    return MetricModel(
        name="thm51star",
        params={"levels": levels},
        row_parts=lambda i, j: (1, 1) if i // 2 == j // 2 else (2, 1),
        row_label=row_label,
        base_aliases_p1=False,
        max_points=2 * n_pairs,
    )


def _prop53(levels) -> MetricModel:
    levels = _check_levels("prop53", levels)
    n_pairs = 2 ** levels

    def row_label(i):
        if i == 0:
            return "0"
        g = (i - 1) // 2
        return f"p{g}" if (i - 1) % 2 == 0 else f"q{g}"

    return MetricModel(
        name="prop53",
        params={"levels": levels},
        row_parts=lambda i, j: (1, 1),
        row_label=row_label,
        base_aliases_p1=False,
        max_points=2 * n_pairs + 1,
    )


def _thm57(c, groups, levels) -> MetricModel:
    c = rat(c)
    groups = int_param("thm57", "groups", groups)
    levels = int_param("thm57", "levels", levels)
    if c <= ONE:
        raise ModelError("thm57 needs c > 1")
    if groups < 1 or levels < 1:
        raise ModelError("thm57 needs groups >= 1 and levels >= 1")

    def group_of(i):
        return (i - 1) // levels

    def row_label(i):
        if i == 0:
            return "0"
        j = group_of(i) + 1
        k = (i - 1) % levels + 1
        return f"p{j}.{k}"

    return MetricModel(
        name="thm57",
        params={"c": c, "groups": groups, "levels": levels},
        row_parts=lambda i, j: (1, 1) if 0 in (i, j) or group_of(i) == group_of(j) else (2, 1),
        row_label=row_label,
        base_aliases_p1=False,
        max_points=1 + groups * levels,
    )


_CATALOG = {
    "discrete": (_discrete, ()),
    "prop23": (_prop23, ()),
    "prop24": (_prop24, ()),
    "example33": (_example33, ()),
    "example35": (_example35, ()),
    "dmqr41": (_dmqr41, ()),
    "example44": (_example44, ()),
    "example48": (_example48, ()),
    "dmqr44": (_dmqr44, ("c",)),
    "thm51star": (_thm51star, ("levels",)),
    "prop53": (_prop53, ("levels",)),
    "thm57": (_thm57, ("c", "groups", "levels")),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))

# Defaults chosen so every entry admits a 64-point truncation.
CATALOG_DEFAULTS = {
    "dmqr44": {"c": 1},
    "thm51star": {"levels": 5},
    "prop53": {"levels": 5},
    "thm57": {"c": 2, "groups": 8, "levels": 8},
}


def catalog(name: str, /, **params) -> MetricModel:
    """Build a catalog model by identifier, applying documented defaults."""
    if name not in _CATALOG:
        raise ModelError(f"unknown catalog model {name!r}; known: {', '.join(CATALOG_NAMES)}")
    builder, allowed = _CATALOG[name]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ModelError(f"model {name!r} does not take parameters {sorted(unknown)}")
    merged = dict(CATALOG_DEFAULTS.get(name, {}))
    merged.update(params)
    return builder(**merged)


def integer_line() -> MetricModel:
    """Nonnegative integers with |i - j|; base at 0. Not a catalog entry."""
    return _seq_model(
        "integer_line",
        {},
        seq_parts=lambda n, m: (abs(n - m), 1),
        base_parts=lambda n: (n, 1),
        bounded=False,
    )


def power_line(ratio=4) -> MetricModel:
    """Points ratio^i on the line, i >= 0, base at ratio^0. Not a catalog entry."""
    ratio = rat(ratio)
    if ratio <= ONE:
        raise ModelError("power_line needs ratio > 1")
    P, Q = ratio.numerator, ratio.denominator

    # |ratio^{n-1} - ratio^{m-1}| = P^lo (P^{hi-lo} - Q^{hi-lo}) / Q^hi, lo < hi the exponents
    def srule(n, m):
        lo, hi = (n - 1, m - 1) if n < m else (m - 1, n - 1)
        return P ** lo * (P ** (hi - lo) - Q ** (hi - lo)), Q ** hi

    return _seq_model(
        "power_line",
        {"ratio": ratio},
        seq_parts=srule,
        bounded=False,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def space_from_json(obj) -> FiniteMetricSpace:
    """Parse and validate a space. Rejects non-canonical rational strings."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "dist" not in obj:
        raise StructureError("space JSON needs a 'dist' field")
    if obj.get("base", BASE_INDEX) != BASE_INDEX:
        raise StructureError("the base point must be index 0")
    dist = obj["dist"]
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise StructureError("'dist' must be a list of rows")
    if not all(isinstance(x, str) for row in dist for x in row):
        raise StructureError("'dist' entries must be rational strings")
    if not dist:
        raise StructureError("'dist' must have at least one row: the base point")
    try:
        rows = [[parse_rat(x) for x in row] for row in dist]
    except ValueError as exc:
        raise StructureError(str(exc)) from None
    labels = obj.get("points")
    if labels is not None and not isinstance(labels, list):
        raise StructureError("'points' must be a list of labels")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise StructureError("'name' must be a string")
    space = make_space(rows, labels, name)
    return _require_metric(space, "space JSON")
