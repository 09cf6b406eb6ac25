"""Hypothesis checkers, function-family builders, and exact isometry verification.

Each supported construction follows the same pattern: a checker tests the
construction's hypothesis on a concrete space (finite clauses on the
truncation, limit clauses through the model's declared tail data), a builder
produces the explicit Lipschitz family, and ``verify_isometry`` confirms the
norm identities for a battery of coefficient vectors. Each checker is
written as a generator of its hypothesis's clause violations, in a fixed
order, and one runner makes it the public ``check_*``, whose result names
the first. A model's distance rules are read only by ``truncate``: the
model-backed checkers and the main pipeline read sequence distances and
the tail gaps phi and psi through one sequence view of the validated
truncation, and ask the model only for declared tails. ``CONSTRUCTIONS`` is
the one table of them: per construction id its builder, its checker, its
target and expectation, the anchors ``lipcheck check`` uses and its standard
instance. The standard families, the three main-pipeline cases and the tree
pipeline all take their target and expectation from the table, through
``assemble_family``, and ``verify_standard`` checks each on the standard
battery.

Each family carries its expectation as one rule per coefficient vector a,
instead of pretending everything is attained at finite scale. The rule
states what f_a must show: its exact norm, the slopes of named pairs, and
the pointwise sup at a designated point. Its ``kind`` labels the report:

- "exact": the norm is the coefficient norm outright, with a nameable
  witness pair (and a zero pointwise defect where claimed);
- "asymptotic": the norm stays below the coefficient norm on every
  truncation, and is bounded there instead of named; the rule pins each
  member's slope on its witness pair, read off the construction's declared
  orbit values and never off the built functions, which bounds the norm
  from below (``tests/isometry_oracle.py`` recomputes f_a's norm and sup
  from the model's closed forms);
- "deflated": the norm is the coefficient norm times an explicit
  truncation factor, with the remaining gap at the base pinned exactly.

All arithmetic is exact; no tolerances anywhere.
"""

from __future__ import annotations

import functools
import inspect
import random
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from math import lcm
from operator import itemgetter, neg
from typing import Callable, Optional

from .rational import ONE, Rat, ZERO, format_rat, rat
from .lipfun import LipFn, MoleculeTable, lipfn
from .metric import (
    CheckResult,
    FiniteMetricSpace,
    LipcheckError,
    MetricModel,
    PreconditionError,
    TailDataError,
    as_index,
    catalog,
    int_param,
    integer_line,
    min_positive_radius,
    min_radius,
    truncate,
)

BATTERY_SEED = 20260815
BATTERY_RANDOM_COUNT = 100
SIGN_SUPPORT_LIMIT = 5


class DichotomyError(LipcheckError):
    """The comparison splitting bounded-sequence models is not uniform."""


class ConstructionError(LipcheckError):
    """A pipeline construction invariant failed on this truncation."""


# ---------------------------------------------------------------------------
# Small number-theory helpers (orbit families index members by primes)


def prime_orbits(limit: int):
    """Prime-power orbits {r, r^2, ...} inside 1..limit with >= 2 points.

    Returns a list of (prime, positions) in increasing prime order. Orbits
    with a single in-range point are dropped: a one-point member cannot
    carry its witness pair.
    """
    orbits = []
    sieve = [True] * (limit + 1)
    primes = []
    for n in range(2, limit + 1):
        if sieve[n]:
            primes.append(n)
            for k in range(n * n, limit + 1, n):
                sieve[k] = False
    for r in primes:
        positions = []
        v = r
        while v <= limit:
            positions.append(v)
            v *= r
        if len(positions) >= 2:
            orbits.append((r, tuple(positions)))
    return orbits


def _check_anchor_rows(space, rows, what: str) -> tuple:
    """``rows`` as distinct in-range ints, each read by ``as_index``."""
    seen = {}
    for r in rows:
        r = as_index(r, f"{what} index")
        if not 0 <= r < space.n_points:
            raise PreconditionError(f"{what} index {r!r} out of range")
        if r in seen:
            raise PreconditionError(f"{what} indices must be distinct")
        seen[r] = None
    return tuple(seen)


def _check_pairs(space, pairs) -> tuple:
    """``pairs`` as 2-tuples of ints whose rows are distinct and in range."""
    try:
        pairs = tuple(tuple(pq) for pq in pairs)
    except TypeError:
        pairs = None
    if pairs is None or any(len(pq) != 2 for pq in pairs):
        raise PreconditionError("pair anchors must be a sequence of index pairs")
    pairs = tuple(tuple(as_index(r, "pair index") for r in pq) for pq in pairs)
    _check_anchor_rows(space, [r for pq in pairs for r in pq], "pair")
    return pairs


def _check_point_partners(space, points, partners) -> tuple:
    """``(points, partners)`` as int tuples of equal length: distinct
    in-range points, each partner in range and apart from its point."""
    points = tuple(points)
    partners = tuple(as_index(q, "partner index") for q in partners)
    if len(points) != len(partners):
        raise PreconditionError("points and partners must have equal length")
    points = _check_anchor_rows(space, points, "point")
    for p, q in zip(points, partners):
        if not 0 <= q < space.n_points:
            raise PreconditionError(f"partner index {q!r} out of range")
        if q == p:
            raise PreconditionError("partner must differ from its point")
    return points, partners


# ---------------------------------------------------------------------------
# Hypothesis checkers


def _checker(clauses):
    """The public checker of the clause generator ``clauses``, which checks
    its arguments, raising on malformed input, then yields (clause, witness
    indices, witness values) for each violation in a fixed order. The
    checker reports the first violation, or a pass, named as the generator
    less its ``check_`` prefix."""
    name = clauses.__name__[len("check_"):]

    @functools.wraps(clauses)
    def check(*args, **kwargs):
        for clause, indices, values in clauses(*args, **kwargs):
            return CheckResult(False, name, clause, indices, values)
        return CheckResult(True, name)

    return check


def _no_limits(model: MetricModel, why: str = "") -> TailDataError:
    return TailDataError(f"limits unavailable for model {model.name!r}{why}")


class SequenceView:
    """``model`` truncated at N, read in sequence indices, the one place a
    checker or pipeline takes a sequence distance from: ``ns`` sequence
    points, ``lo`` the first of them that is not the base point, and as
    integers over ``scale``, the truncation's D times what the declared L
    and L(n) need, the rows ``dist`` of d(n, m) with index 0 the base point,
    the radius ``radius(n)`` and the tail gaps ``phi(n, m) = d(n, m) - L``
    and ``psi(n) = L(n) - L``, which need the model's declared tails.

    ``space`` is the truncation, handed in when already built; otherwise
    ``truncate`` builds and validates it on first read, so that checks on
    the index range alone come first.
    """

    def __init__(self, model: MetricModel, N: int, space: Optional[FiniteMetricSpace] = None):
        model.need_sequence()
        self.model, self.N = model, N
        self.ns = model.n_seq(N)
        self.lo = 2 if model.base_aliases_p1 else 1
        self.rows = (0,) + tuple(model.seq_row(n) for n in range(1, self.ns + 1))
        if space is not None:
            self.space = space

    @functools.cached_property
    def space(self) -> FiniteMetricSpace:
        return truncate(self.model, self.N)

    @functools.cached_property
    def _declared(self) -> tuple:
        model = self.model
        return (model.L, *map(model.L_pair, range(1, self.ns + 1))) if model.has_tails else ()

    @functools.cached_property
    def scale(self) -> int:
        return lcm(self.space.scaled[1], *(t.denominator for t in self._declared))

    @functools.cached_property
    def dist(self) -> tuple:
        A, D = self.space.scaled
        get, k = itemgetter(*self.rows), self.scale // D
        rows = tuple(map(get, get(A)))
        return rows if k == 1 else tuple(tuple(x * k for x in row) for row in rows)

    @functools.cached_property
    def tails(self) -> tuple:  # (L, Lp): L and, as Lp[n], L(n)
        self.model.need_tails()
        Lp = tuple(t.numerator * (self.scale // t.denominator) for t in self._declared)
        return Lp[0], Lp

    def rat(self, x: int) -> Rat:  # for a value a report prints
        return Rat(x, self.scale)

    def radius(self, n: int) -> int:
        return min(filter(None, self.dist[n]))  # the rows cover every point

    def phi(self, n: int, m: int) -> int:
        return self.dist[n][m] - self.tails[0]

    def psi(self, n: int) -> int:
        return self.tails[1][n] - self.tails[0]


def _check_subsequence(seq: SequenceView, subseq) -> tuple:
    """``subseq`` as at least two strictly increasing ints, each a sequence
    index of the view ``seq`` and none the base point."""
    subseq = tuple(as_index(s, "subsequence index") for s in subseq)
    if len(subseq) < 2:
        raise PreconditionError("subsequence needs at least two indices")
    if any(b <= a for a, b in zip(subseq, subseq[1:])):
        raise PreconditionError("subsequence indices must be strictly increasing")
    if subseq[0] < seq.lo or subseq[-1] > seq.ns:
        raise PreconditionError("subsequence indices out of the truncated range")
    return subseq


@_checker
def check_prop31(space: FiniteMetricSpace, points, partners) -> CheckResult:
    """Spike-family hypothesis: each point's partner realizes its radius and
    the points are pairwise separated by the sum of the partner distances.

    Clause "radius": d(p, q) == R(p) for every (point, partner).
    Clause "separation": d(p_a, p_b) >= d(p_a, q_a) + d(p_b, q_b).
    """
    points, partners = _check_point_partners(space, points, partners)
    A, D = space.scaled
    for p, q in zip(points, partners):
        r = min_radius(A, p)
        if A[p][q] != r:
            yield "radius", (p, q), (Rat(A[p][q], D), Rat(r, D))
    for (pa, qa), (pb, qb) in combinations(zip(points, partners), 2):
        lhs, rhs = A[pa][pb], A[pa][qa] + A[pb][qb]
        if lhs < rhs:
            yield "separation", (pa, pb), (Rat(lhs, D), Rat(rhs, D))


@_checker
def check_thm34(space: FiniteMetricSpace, pairs) -> CheckResult:
    """Balanced two-point family hypothesis.

    Clause "radius": R(p), R(q) >= d(p, q)/2 for each pair.
    Clause "cross-gap": d(p_a, q_a) + d(p_b, q_b) <= 2 min over the four
    distances between the two pairs.
    """
    pairs = _check_pairs(space, pairs)
    A, D = space.scaled
    for p, q in pairs:
        for r in (p, q):
            rad = min_radius(A, r)
            if 2 * rad < A[p][q]:
                yield "radius", (p, q), (Rat(rad, D), Rat(A[p][q], 2 * D))
    for (i, (pa, qa)), (j, (pb, qb)) in combinations(enumerate(pairs), 2):
        lhs = A[pa][qa] + A[pb][qb]
        cross = min(A[pa][pb], A[pa][qb], A[qa][pb], A[qa][qb])
        if lhs > 2 * cross:
            yield "cross-gap", (i, j), (Rat(lhs, D), Rat(2 * cross, D))


@_checker
def check_thm37(space: FiniteMetricSpace, pairs) -> CheckResult:
    """Radius-shifted two-point family hypothesis (four inequalities).

    With d_a = d(p_a, q_a):
      (1) d_a <= R(p_a) + R(q_a) for each pair;
      (2) d_a + d_b + R(p_a) + R(p_b) - R(q_a) - R(q_b) <= 2 d(p_a, p_b);
      (3) d_a + d_b + R(p_a) - R(p_b) - R(q_a) + R(q_b) <= 2 d(p_a, q_b),
          checked in both orders because it is not symmetric;
      (4) d_a + d_b - R(p_a) - R(p_b) + R(q_a) + R(q_b) <= 2 d(q_a, q_b).
    """
    pairs = _check_pairs(space, pairs)
    A, D = space.scaled
    rad = {r: min_radius(A, r) for pq in pairs for r in pq}
    dd = [A[p][q] for p, q in pairs]
    for (p, q), d in zip(pairs, dd):
        if d > rad[p] + rad[q]:
            yield "pair-radius", (p, q), (Rat(d, D), Rat(rad[p] + rad[q], D))
    for (i, (pa, qa)), (j, (pb, qb)) in permutations(enumerate(pairs), 2):
        base = dd[i] + dd[j]
        if i < j:
            lhs = base + rad[pa] + rad[pb] - rad[qa] - rad[qb]
            if lhs > 2 * A[pa][pb]:
                yield "pp", (i, j), (Rat(lhs, D), Rat(2 * A[pa][pb], D))
            lhs = base - rad[pa] - rad[pb] + rad[qa] + rad[qb]
            if lhs > 2 * A[qa][qb]:
                yield "qq", (i, j), (Rat(lhs, D), Rat(2 * A[qa][qb], D))
        lhs = base + rad[pa] - rad[pb] - rad[qa] + rad[qb]
        if lhs > 2 * A[pa][qb]:
            yield "pq", (i, j), (Rat(lhs, D), Rat(2 * A[pa][qb], D))


@_checker
def check_prop42(space: FiniteMetricSpace, points) -> CheckResult:
    """Spike-family pointwise hypothesis: d(p_n, p_m) >= R(p_n) + R(p_m)."""
    points = _check_anchor_rows(space, points, "point")
    A, D = space.scaled
    rad = {p: min_radius(A, p) for p in points}
    for p, q in combinations(points, 2):
        lhs, rhs = A[p][q], rad[p] + rad[q]
        if lhs < rhs:
            yield "separation", (p, q), (Rat(lhs, D), Rat(rhs, D))


@_checker
def check_thm43(model: MetricModel, N: int) -> CheckResult:
    """Bounded-sequence orbit family hypothesis.

    Finite clauses on the truncation, limit clauses through declared tails:
      "monotone": d(p_n, p_m) non-increasing in each index (the tail part
      needs the model's monotone_tails declaration);
      "radius": R(p_k) >= L(k) - L/2;
      "tail-sum": L(k) + L(l) <= L + d(p_k, p_l).
    """
    model.need_sequence()
    model.need_tails()
    seq = SequenceView(model, N, truncate(model, N))
    ns, d, r = seq.ns, seq.dist, seq.rat
    for n, m in permutations(range(1, ns + 1), 2):
        d_here = d[n][m]
        if m + 1 <= ns and m + 1 != n and d_here < d[n][m + 1]:
            yield "monotone", (n, m), (r(d_here), r(d[n][m + 1]))
        if n + 1 <= ns and n + 1 != m and d_here < d[n + 1][m]:
            yield "monotone", (n, m), (r(d_here), r(d[n + 1][m]))
    if not model.monotone_tails:
        yield "monotone-tail-undeclared", (), ()
    L, Lp = seq.tails
    for k in range(1, ns + 1):
        rad, bound = seq.radius(k), 2 * Lp[k] - L
        if 2 * rad < bound:
            yield "radius", (k,), (r(rad), Rat(bound, 2 * seq.scale))
    for k, l in combinations(range(1, ns + 1), 2):
        lhs, rhs = Lp[k] + Lp[l], L + d[k][l]
        if lhs > rhs:
            yield "tail-sum", (k, l), (r(lhs), r(rhs))


@_checker
def check_thm45(model: MetricModel, subseq, N: int) -> CheckResult:
    """Constant-orbit family hypothesis on a selected subsequence.

    ``subseq`` lists the model's sequence indices (strictly increasing) that
    play the roles p_1, p_2, ... With D the model's declared base-distance
    limit:
      "positive-limit": D > 0;
      "radius-equality": d(p_s, 0) == R(p_s);
      "decreasing": base distances non-increasing along the subsequence and
      never below D;
      "separation": 2D <= d(p_s, p_t).
    """
    seq = SequenceView(model, N)
    subseq = _check_subsequence(seq, subseq)
    if model.base_limit is None:
        raise _no_limits(model)
    dlim = model.base_limit
    if dlim.numerator <= 0:
        yield "positive-limit", (), (dlim,)
    d, r = seq.dist, seq.rat
    # d(n, m) < dlim, cross-multiplied over dlim's denominator
    lim, S = dlim.numerator * seq.scale, dlim.denominator
    for s in subseq:
        if d[0][s] != seq.radius(s):
            yield "radius-equality", (s,), (r(d[0][s]), r(seq.radius(s)))
    for a, b in zip(subseq, subseq[1:]):
        if d[0][a] < d[0][b]:
            yield "decreasing", (a, b), (r(d[0][a]), r(d[0][b]))
    for s in subseq:
        if d[0][s] * S < lim:
            yield "decreasing", (s,), (r(d[0][s]), dlim)
    for s, t in combinations(subseq, 2):
        if 2 * lim > d[s][t] * S:
            yield "separation", (s, t), (Rat(2 * dlim.numerator, S), r(d[s][t]))


def _eps_values(model: MetricModel, eps_seq, ns: int, lo: int):
    if callable(eps_seq):
        return {n: rat(eps_seq(n)) for n in range(lo, ns + 1)}
    eps_list = list(eps_seq)
    if len(eps_list) < ns - lo + 1:
        raise PreconditionError(
            f"epsilon sequence too short: need {ns - lo + 1} values, got {len(eps_list)}"
        )
    return {n: rat(eps_list[n - lo]) for n in range(lo, ns + 1)}


@_checker
def check_thm46(model: MetricModel, eps_seq, N: int) -> CheckResult:
    """Shifted-orbit family hypothesis with an explicit epsilon assignment.

    For models whose base aliases the first sequence element, the working
    sequence starts at its successor. With g_n = d(p_n, 0) - eps_n:
      "ratio": g_n + g_m <= d(p_n, p_m);
      "radius-window": 0 <= g_n <= R(p_n);
      "ratio-limit": the slope ratio must tend to one, which the finite data
      cannot certify; the model's declaration covers it, and only for the
      model's own canonical epsilon assignment.
    """
    model.need_sequence()
    if model.eps is None or not model.ratio_tends_to_one:
        raise _no_limits(model, ": no declared slope-ratio limit")
    seq = SequenceView(model, N)
    ns, lo = seq.ns, seq.lo
    eps = _eps_values(model, eps_seq, ns, lo)
    for n in range(lo, ns + 1):
        if eps[n].numerator < 0:
            raise PreconditionError(f"epsilon values must be nonnegative, got {eps[n]}")
    for n in range(lo, ns + 1):
        declared = model.eps(n)
        if (eps[n].numerator, eps[n].denominator) != (declared.numerator, declared.denominator):
            raise TailDataError(
                "limits unavailable: epsilon sequence differs from the model's "
                f"declared closed form at n={n}"
            )
    d = seq.dist  # built and validated here even when no index is left to check
    g, T = _shifted_distances(seq, eps)
    k = T // seq.scale
    for n in range(lo, ns + 1):
        if g[n] < 0:
            yield "radius-window", (n,), (Rat(g[n], T), ZERO)
        rad = seq.radius(n)
        if g[n] > rad * k:
            yield "radius-window", (n,), (Rat(g[n], T), seq.rat(rad))
    for n, m in combinations(range(lo, ns + 1), 2):
        if g[n] + g[m] > d[n][m] * k:
            yield "ratio", (n, m), (Rat(g[n] + g[m], T), seq.rat(d[n][m]))


def _shifted_distances(seq: SequenceView, eps: dict):
    """``(g, T)``: g_n = d(p_n, 0) - eps_n as ``g[n]`` over one denominator T."""
    T = lcm(seq.scale, *(e.denominator for e in eps.values()))
    k = T // seq.scale
    return {n: seq.dist[0][n] * k - e.numerator * (T // e.denominator)
            for n, e in eps.items()}, T


@_checker
def check_thm310(model: MetricModel, N: int) -> CheckResult:
    """Three clauses: tails declared, phi(n, m) > psi(n) + psi(m) strictly
    on the index range, and the declared liminf certificate for phi.

    Missing declarations are an error, never a quiet False.
    """
    if N < 2:
        raise PreconditionError("needs N >= 2")
    model.need_tails()
    if model.liminf_phi_nonneg is None:
        raise TailDataError(
            f"model {model.name!r} declares no liminf certificate for phi"
        )
    model.need_sequence()
    seq = SequenceView(model, N, truncate(model, N))
    (L, Lp), d = seq.tails, seq.dist
    for n, m in combinations(range(1, seq.ns + 1), 2):
        lhs, rhs = d[n][m] - L, Lp[n] + Lp[m] - 2 * L
        if not lhs > rhs:
            yield "strict-gap", (n, m), (seq.rat(lhs), seq.rat(rhs))
    if not model.liminf_phi_nonneg:
        yield "liminf-certificate", (), ()


# ---------------------------------------------------------------------------
# Family plumbing


@dataclass(frozen=True)
class FamilySpec:
    """What to build: a construction id, the space it lives on, anchor rows,
    and rational parameters. Model-backed constructions also carry the model
    and the truncation size so the hypothesis checker can run."""

    theorem_id: str
    space: FiniteMetricSpace
    anchors: tuple = ()
    parameters: dict = field(default_factory=dict)
    model: Optional[MetricModel] = None
    N: Optional[int] = None


@dataclass(frozen=True)
class RuleData:
    """What one combination f_a must show, as its family's rule derives it
    from a; an unset field names nothing to check. A rule with a ceiling
    bounds the norm instead of naming it, and names no sup."""

    expected_norm: Optional[Rat] = None
    member_checks: tuple = ()  # (member_key, row_u, row_v, expected_abs_slope)
    designated_point: Optional[int] = None
    expected_sup: Optional[Rat] = None  # None: the computed norm, a zero defect
    base_gap: Optional[Rat] = None  # coefficient norm minus the designated sup
    witness_pair: Optional[tuple] = None  # (u, v) whose slope is expected_norm
    ceiling: str = ""  # "<" or "<=": the norm against the coefficient norm


@dataclass(frozen=True)
class Expectation:
    """What finite-scale attainment should look like for a family.

    ``rule(C, K, norm)`` takes a coefficient vector a as integers over one
    denominator (``a_n == C[n] / K``) and its norm in the target, and
    returns the RuleData f_a must meet, or None for a zero vector that only
    needs a zero norm. ``kind`` ("exact", "deflated" or "asymptotic") only
    labels the report."""

    kind: str
    rule: Callable


@dataclass(frozen=True)
class WitnessRecord:
    coeffs: tuple
    norm: Rat
    pair: Optional[tuple]
    point: Optional[int]
    point_defect: Optional[Rat]


@dataclass(frozen=True)
class VerificationReport:
    """Battery outcome. ``exact_pass`` is the literal statement that every
    tested combination's Lipschitz norm equals the coefficient norm;
    asymptotic families keep it False by design and pass through
    ``expectation_pass`` instead."""

    target: str
    coefficient_set: tuple
    exact_pass: bool
    worst_defect: Rat
    witnesses: tuple
    expectation_kind: str
    expectation_pass: bool
    failures: tuple = ()
    seed: Optional[int] = None


@dataclass(frozen=True)
class BuiltFamily:
    spec: FamilySpec
    functions: tuple
    target: str  # "sup-norm" | "sum-norm"
    expectation: Expectation
    members: tuple  # descriptive member keys (anchor index, prime, depth, ...)
    checker: Optional[CheckResult] = None

    @property
    def size(self) -> int:
        return len(self.functions)


def _values_fn(space, value_map) -> LipFn:
    vals = [ZERO] * space.n_points
    for row, v in value_map.items():
        vals[row] = rat(v)
    return lipfn(space, vals)


def _sign_bit(group: int, member: int) -> Rat:
    """Sign pattern used by the group families: member n reads bit n-1."""
    return ONE if (group >> (member - 1)) & 1 else -ONE


def _pattern_index(coeffs) -> int:
    """Group whose sign pattern matches the coefficient signs (zero -> +)."""
    return sum(1 << n for n, a in enumerate(coeffs) if a >= 0)


# ---------------------------------------------------------------------------
# Family builders: FamilySpec -> (functions, members)


def _refuse_base_anchor(rows):
    if 0 in rows:
        raise PreconditionError("family cannot be anchored at the base point")


def _build_unit_spikes(spec: FamilySpec):
    space = spec.space
    points = _check_anchor_rows(space, spec.anchors or range(1, space.n_points), "point")
    _refuse_base_anchor(points)
    return tuple(_values_fn(space, {p: ONE}) for p in points), points


def _build_radius_spikes(space: FiniteMetricSpace, points):
    points = _check_anchor_rows(space, points, "point")
    _refuse_base_anchor(points)
    fns = tuple(_values_fn(space, {p: min_positive_radius(space, p)}) for p in points)
    return fns, points


def _build_pairs(spec: FamilySpec, values):
    """Two-point members; ``values(space, p, q)`` gives the values at p, q."""
    space = spec.space
    pairs = _check_pairs(space, spec.anchors)
    _refuse_base_anchor([r for pq in pairs for r in pq])
    fns = tuple(_values_fn(space, dict(zip((p, q), values(space, p, q)))) for p, q in pairs)
    return fns, pairs


def _balanced_values(space, p, q):
    A, D = space.scaled
    return Rat(A[p][q], 2 * D), Rat(-A[p][q], 2 * D)


def _radius_shifted_values(space, p, q):
    A, D = space.scaled
    shift = min_radius(A, p) - min_radius(A, q)
    return Rat(A[p][q] + shift, 2 * D), Rat(-A[p][q] + shift, 2 * D)


def _orbit_family(space, count, node_of, value, row_of):
    """One member per prime orbit {r, r^2, ...} inside 1..count, keyed by r.

    The four arguments after ``space`` are an orbit row's declaration:
    orbit position k sits at node ``node_of(k)`` with ``value(node, head)``,
    ``head`` marking the orbit's first position, and ``row_of`` maps a node
    to its row in ``space``, in node order. :func:`_orbit_rule` reads the
    same declaration.
    """
    fns, members = [], []
    for r, positions in prime_orbits(count):
        vmap = {row_of(node_of(k)): value(node_of(k), k == positions[0]) for k in positions}
        fns.append(_values_fn(space, vmap))
        members.append(r)
    return tuple(fns), tuple(members)


# Orbit declarations: FamilySpec -> (count, node_of, value, row_of), as
# _orbit_family reads them.


def _thm43_orbits(spec: FamilySpec):
    # sequence index n: L(n) - L/2 at an orbit's head, -L/2 below it
    model = spec.model
    model.need_sequence()
    model.need_tails()
    half_l = model.L / 2
    return (model.n_seq(spec.N), lambda k: k,
            lambda n, head: model.L_pair(n) - half_l if head else -half_l, model.seq_row)


def _thm45_orbits(spec: FamilySpec):
    # the subsequence's k-th index: the base limit throughout
    seq = SequenceView(spec.model, spec.space.n_points, spec.space)
    subseq = _check_subsequence(seq, spec.anchors)
    dlim = spec.model.base_limit
    if dlim is None:
        raise _no_limits(spec.model)
    return len(subseq), lambda k: subseq[k - 1], lambda n, head: dlim, spec.model.seq_row


def _thm46_orbits(spec: FamilySpec):
    # sequence index n: the shifted distance g_n at an orbit's head, -g_n below
    seq = SequenceView(spec.model, spec.N, spec.space)
    ns, lo = seq.ns, seq.lo
    g, T = _shifted_distances(seq, _eps_values(spec.model, spec.parameters["eps"], ns, lo))
    g = {n: Rat(x, T) for n, x in g.items()}
    return (ns - lo + 1, lambda k: k + lo - 1,
            lambda n, head: g[n] if head else -g[n], spec.model.seq_row)


def _build_thm51(spec: FamilySpec):
    space = spec.space
    levels = int_param(spec.theorem_id, "levels", spec.parameters["levels"])
    n_groups_present = space.n_points // 2
    fns = []
    for n in range(1, levels + 1):
        vmap = {}
        for g in range(n_groups_present):
            prow = 2 * g + 1
            if prow < space.n_points:
                vmap[prow] = _sign_bit(g, n)
        fns.append(_values_fn(space, vmap))
    return tuple(fns), tuple(range(1, levels + 1))


def _build_prop53(spec: FamilySpec):
    space = spec.space
    levels = int_param(spec.theorem_id, "levels", spec.parameters["levels"])
    half = rat(1, 2)
    n_pairs_present = (space.n_points - 1) // 2
    fns = []
    for n in range(1, levels + 1):
        vmap = {}
        for g in range(n_pairs_present):
            s = _sign_bit(g, n)
            vmap[2 * g + 1] = s * half
            if 2 * g + 2 < space.n_points:
                vmap[2 * g + 2] = -s * half
        fns.append(_values_fn(space, vmap))
    return tuple(fns), tuple(range(1, levels + 1))


def _build_thm57(spec: FamilySpec):
    space = spec.space
    c = rat(spec.parameters["c"])
    groups = int_param(spec.theorem_id, "groups", spec.parameters["groups"])
    levels = int_param(spec.theorem_id, "levels", spec.parameters["levels"])
    if c <= ONE:
        raise PreconditionError("group family needs c > 1")
    depth = groups.bit_length() - 1  # largest B with 2^B <= groups
    fns = []
    for n in range(1, depth + 1):
        vmap = {}
        for j in range(1, groups + 1):
            s = _sign_bit(j - 1, n)
            for k in range(1, levels + 1):
                row = (j - 1) * levels + k
                if row < space.n_points:
                    vmap[row] = s * (ONE - c ** (-k))
        fns.append(_values_fn(space, vmap))
    return tuple(fns), tuple(range(1, depth + 1))


def _thm49i_orbits(spec: FamilySpec):
    # space: the sequence points re-based at the first, sequence index k at
    # row k - 1; parameters["g"]: the shifted distances g_n, n >= 2.
    g = spec.parameters["g"]
    return (spec.space.n_points - 1, lambda k: k + 1,
            lambda n, head: g[n] if head else -g[n], lambda k: k - 1)


def _build_thm49ii(spec: FamilySpec):
    # anchors: ((sigma_row, tau_row), ...) in the family's space, one member
    # each; parameters: L plus per-pair phi(sigma, tau), psi(sigma), psi(tau).
    big_l = rat(spec.parameters["L"])
    phis = spec.parameters["phi_st"]
    psis = spec.parameters["psi_s"]
    psit = spec.parameters["psi_t"]
    half = rat(1, 2)
    fns = []
    for i, (srow, trow) in enumerate(spec.anchors):
        pval = half * (big_l + phis[i] + psis[i] - psit[i])
        qval = -half * (big_l + phis[i] - psis[i] + psit[i])
        fns.append(_values_fn(spec.space, {srow: pval, trow: qval}))
    return tuple(fns), tuple(spec.anchors)


def _thm49case2_orbits(spec: FamilySpec):
    # space: the greedily selected subspace (selection order = rows);
    # parameters["c"]: the weight recurrence values along the selection.
    cvals = tuple(rat(x) for x in spec.parameters["c"])
    return (len(cvals), lambda k: k,
            lambda k, head: cvals[k - 1] if head else -cvals[k - 1], lambda k: k - 1)


def run_checker(spec: FamilySpec) -> Optional[CheckResult]:
    """The hypothesis check matching a family spec, or None when the
    construction has no separate hypothesis."""
    rec = _BY_ID.get(spec.theorem_id)
    if rec is None or rec.check is None:
        return None
    if not rec.space_check and (spec.model is None or spec.N is None):
        raise PreconditionError(f"{spec.theorem_id} needs the model and truncation size")
    return rec.check(spec)


def build_family(spec: FamilySpec, override: bool = False):
    """Build the family after running its hypothesis check (when one exists).

    A failing check raises PreconditionError unless ``override`` is set;
    overriding is how the shape-without-hypothesis direction gets exercised.
    """
    build = _construction(spec.theorem_id, "build", "family builder").build
    checker = None if override else run_checker(spec)
    if checker is not None and not checker.ok:
        raise PreconditionError(
            f"hypothesis check failed for {spec.theorem_id}: clause "
            f"{checker.clause!r} at {checker.witness_indices}; "
            "pass override=True to build the shape anyway"
        )
    fns, _ = build(spec)
    return fns


# ---------------------------------------------------------------------------
# Coefficient batteries


_TARGET_NORMS = {"sup-norm": lambda sizes: max(sizes, default=0), "sum-norm": sum}


def _lift(coeffs, target: str):
    """``(C, K, N)``: integers C over one positive denominator K with
    ``coeffs[n] == C[n] / K``, and their norm N / K in ``target``."""
    norm_of = _TARGET_NORMS.get(target)
    if norm_of is None:
        raise PreconditionError(f"unknown target {target!r}")
    K = lcm(*[a.denominator for a in coeffs])
    C = tuple(a.numerator * (K // a.denominator) for a in coeffs)
    return C, K, norm_of(map(abs, C))


def lift_coefficients(coeffs, target: str):
    """``(C, K, norm)``: :func:`_lift`, with the norm N / K as a rational."""
    C, K, N = _lift(coeffs, target)
    return C, K, Rat(N, K)


def coefficient_norm(coeffs, target: str) -> Rat:
    return lift_coefficients(tuple(rat(a) for a in coeffs), target)[2]


def standard_battery(size: int, seed: int = BATTERY_SEED, rand_count: int = BATTERY_RANDOM_COUNT,
                     support: Optional[int] = None):
    """Sign-or-zero vectors on the first min(size, support) coordinates plus
    seeded random rational vectors with entries in [-3, 3]. The sign support
    defaults to SIGN_SUPPORT_LIMIT to keep the enumeration below 3^5."""
    if size < 1:
        raise PreconditionError("battery needs at least one family member")
    head = min(size, SIGN_SUPPORT_LIMIT if support is None else support)
    tail = (ZERO,) * (size - head)
    vectors = [signs + tail for signs in product((-ONE, ZERO, ONE), repeat=head)]
    rng = random.Random(seed)
    for _ in range(rand_count):
        entries = []
        for _ in range(size):
            den = rng.randint(1, 20)
            entries.append(Rat(rng.randint(-3 * den, 3 * den), den))
        vectors.append(tuple(entries))
    return tuple(vectors)


# ---------------------------------------------------------------------------
# Isometry verification


def verify_isometry(family, target: str, coeff_set, expectation: Expectation,
                    seed: Optional[int] = None) -> VerificationReport:
    """Check every coefficient vector against the RuleData its expectation's
    rule derives from it, in this order: the norm, or under a ceiling the
    norm against the coefficient norm, the members' absolute slopes, the sup
    at the designated point (a zero defect when no sup is expected; under a
    ceiling the defect is only recorded) and the base gap, the witness
    pair's signed slope. Failures are collected, never raised; the first
    eight are kept, in the order they occur.

    Each vector is read off the family's molecule table and compared as
    integer pairs ``(num, den)``. As ‖−f‖ = ‖f‖, a vector whose negation
    came earlier reuses its norm, sup and least attaining pair, reversed,
    with no scan."""
    family, coeff_set = tuple(family), tuple(coeff_set)
    if not family:
        raise PreconditionError("empty family")
    vectors = [(a, *_lift(a, target)) for a in (tuple(map(rat, c)) for c in coeff_set)]
    table = MoleculeTable(family)

    # A table adding one fixed function to every combination is not odd,
    # and shows it at a = 0: then every vector reads its own combination.
    zero = (0,) * len(family)
    mirror = bool(vectors) and not any(table.combination(zero, 1).values()[0])
    exact_all = expect_all = True
    worst, witnesses, failures = (0, 1), [], []
    memo = {}  # per (-C, K) awaiting that vector, what it reuses

    def fail(msg):
        nonlocal expect_all
        expect_all = False
        if len(failures) < 8:
            failures.append(f"a=({','.join(format_rat(a) for a in coeffs)}): {msg}")

    for coeffs, C, K, N in vectors:
        seen = memo.pop((C, K), None)
        cn = seen[0] if seen else Rat(N, K) if N else ZERO
        f = table.combination(C, K)
        data = expectation.rule(C, K, cn)
        # Without a witness pair, one scan finds the norm and the least
        # attaining pair, the recorded witness.
        find = data is None or data.witness_pair is None
        if seen and (seen[4] or not find):
            _, num, den, ln, find, pairs, sup = seen
            pairs = pairs and pairs[::-1]
        else:
            num, den, pairs = f.norm_parts(find)
            ln, sup = Rat(num, den) if num else ZERO, None
        gap = abs(N * den - num * K)  # |cn - ln| == gap / (K * den)
        if gap * worst[1] > worst[0] * K * den:
            worst = (gap, K * den)
        exact_all = exact_all and not gap
        point = point_defect = pair = None

        if data is None:
            if num:
                fail("zero vector with nonzero norm")
        else:
            en, ed = num, den  # the norm a witness pair must meet
            if data.ceiling:  # bounds the norm instead of naming it
                if num * K > N * den:
                    fail("truncation norm exceeds the target")
                elif data.ceiling == "<" and not gap:
                    fail("truncation norm not strictly below target")
            else:
                want = data.expected_norm
                en, ed = want.numerator, want.denominator
                if num * ed != en * den:
                    fail(f"norm {format_rat(ln)} != {format_rat(want)}")
            for key, u, v, want in data.member_checks:
                rise, run = f.slope_parts(u, v)
                if abs(rise) * want.denominator != want.numerator * run:
                    fail(f"member {key} slope {format_rat(Rat(abs(rise), run))} "
                         f"!= {format_rat(want)}")
            point = data.designated_point
            if point is not None:
                if sup is None or sup[0] != point:
                    sn, sd = f.sup_parts(point)
                    defect = num * sd - sn * den
                    sup = point, sn, sd, Rat(defect, den * sd) if defect else ZERO
                _, sn, sd, point_defect = sup
                if not data.ceiling:  # a ceiling names no sup: the defect is recorded
                    want = data.expected_sup
                    if want is None:
                        if point_defect:
                            fail(f"defect {format_rat(point_defect)} at {point}")
                    elif sn * want.denominator != want.numerator * sd:
                        fail(f"sup at {point} is {format_rat(Rat(sn, sd))}")
                want, rest = data.base_gap, N * sd - sn * K  # cn - sup == rest / (K * sd)
                if want is not None and rest * want.denominator != want.numerator * K * sd:
                    fail(f"base gap {format_rat(Rat(rest, K * sd))} off rule")
            pair = data.witness_pair
            if pair is not None:
                rise, run = f.slope_parts(*pair)
                if rise * ed != en * run:
                    fail(f"witness pair {pair} misses the norm")

        if pair is None and num:
            pair = pairs[0]
        witnesses.append(WitnessRecord(coeffs, ln, pair, point, point_defect))
        if mirror and not seen:
            memo[tuple(map(neg, C)), K] = (cn, num, den, ln, find, pairs, sup)

    return VerificationReport(
        target=target,
        coefficient_set=tuple(tuple(a) for a in coeff_set),
        exact_pass=exact_all,
        worst_defect=Rat(*worst) if worst[0] else ZERO,
        witnesses=tuple(witnesses),
        expectation_kind=expectation.kind,
        expectation_pass=expect_all,
        failures=tuple(failures),
        seed=seed,
    )


def _argmax_member(coeffs):
    """Smallest position carrying the largest absolute coefficient (0 for
    an empty vector, the zero vector's answer)."""
    sizes = list(map(abs, coeffs))
    return sizes.index(max(sizes)) if sizes else 0


def _orbit_rule(space, count, node_of, value, row_of, designated=None, strict=True):
    """The asymptotic rule of the orbit family that :func:`_orbit_family`
    builds on ``space`` from the same declaration.

    Each member is witnessed by its orbit's head and deepest row; with a
    designated row, by its deepest row and the designated one (a constant
    orbit attains toward it). Its slope s_n there is read off the declared
    values at those rows and the space's distance, never off the family's
    functions. The orbits are disjoint, so on f_a that pair's slope is
    |a_n| s_n: the member checks pin it, and with it ‖f_a‖ ≥ max_n |a_n| s_n.
    From above the norm is bounded, not named: it stays strictly below the
    coefficient norm, or with ``strict`` False at most meets it. The sup is
    taken at row ``designated``, by default the head of the dominant member's
    orbit, and only its defect is recorded. The zero vector gets no record.
    """
    A, D = space.scaled
    heads, slopes = [], []
    for r, positions in prime_orbits(count):
        head, deep = node_of(positions[0]), node_of(positions[-1])
        u, v = row_of(head), row_of(deep)
        heads.append(u)
        if designated is None:
            rise = value(head, True) - value(deep, False)
        else:
            u, v, rise = v, designated, value(deep, False)
        slopes.append((r, u, v, abs(rat(rise)) * D / A[u][v]))
    ceiling = "<" if strict else "<="

    def rule(C, K, norm):
        if not norm:
            return None
        checks = tuple((key, u, v, Rat(abs(c) * s.numerator, K * s.denominator))
                       for c, (key, u, v, s) in zip(C, slopes) if c)
        x0 = heads[_argmax_member(C)] if designated is None else designated
        return RuleData(member_checks=checks, designated_point=x0, ceiling=ceiling)

    return rule


# ---------------------------------------------------------------------------
# The construction table


def _dominant_pair_rule(pairs, points=None):
    """Exact rule for families whose member n spans the row pair
    ``pairs[n]``: the norm is the coefficient norm, attained on the dominant
    member's pair oriented so the slope is positive and, with ``points``,
    at the dominant member's designated row."""

    def rule(C, K, norm):
        n0 = _argmax_member(C)
        pair = None
        if norm:
            p, q = pairs[n0]
            pair = (q, p) if C[n0] > 0 else (p, q)
        point = None if points is None else points[n0]
        return RuleData(norm, designated_point=point, witness_pair=pair)

    return rule


def _disjoint_pairs(n_points: int):
    """Consecutive row pairs (1, 2), (3, 4), ... inside n_points rows."""
    return tuple((r, r + 1) for r in range(1, n_points - 1, 2))


def _split(pairs):
    pairs = tuple(pairs)
    return tuple(p for p, _ in pairs), tuple(q for _, q in pairs)


def _point_partners(spec):
    """prop31's anchors ``(points, partners)``: exactly two index sequences
    of equal length, checked against the space on the checked and the
    override path alike."""
    try:
        points, partners = (tuple(rows) for rows in spec.anchors)
    except (TypeError, ValueError):
        points = partners = None
    if points is None or len(points) != len(partners):
        raise PreconditionError("prop31 anchors must be two index sequences of equal length")
    return _check_point_partners(spec.space, points, partners)


def _nearest_pairs(space, points):
    """Each point p with the least row at its radius, where a spike at p attains."""
    A, _ = space.scaled
    return tuple((p, A[p].index(min_radius(A, p))) for p in points)


def _pair_expectation(spec, members):
    return Expectation("exact", _dominant_pair_rule(members))


def _orbit_row(orbits, designated=None, strict=True):
    """The builder and the asymptotic expectation of an orbit row, both read
    off its one declaration ``orbits(spec) -> (count, node_of, value,
    row_of)``; see :func:`_orbit_rule` for ``designated`` and ``strict``."""
    return {
        "build": lambda spec: _orbit_family(spec.space, *orbits(spec)),
        "expectation": lambda spec, members: Expectation("asymptotic", _orbit_rule(
            spec.space, *orbits(spec), designated=designated, strict=strict,
        )),
    }


def _sign_pattern_expectation(pair_of_group):
    """Exact sum-norm expectation witnessed by the pair of the group whose
    sign pattern matches the coefficients."""

    def rule(C, K, norm):
        return RuleData(norm, witness_pair=pair_of_group(_pattern_index(C)) if norm else None)

    return lambda spec, members: Expectation("exact", rule)


def _thm57_expectation(spec, members):
    """The norm and the sup at the base deflate by 1 - c^-levels, leaving the
    residue |a| c^-levels as the gap at the base; the deepest point of the
    sign-matched group witnesses the norm."""
    levels = spec.parameters["levels"]
    residue = spec.parameters["c"] ** (-levels)
    r, s = residue.numerator, residue.denominator  # the factor is (s - r) / s

    def rule(C, K, norm):
        N, K = norm.numerator, norm.denominator * s
        expected = Rat(N * (s - r), K)
        pair = (0, (_pattern_index(C) + 1) * levels) if N else None
        return RuleData(expected, designated_point=0, expected_sup=expected,
                        base_gap=Rat(N * r, K), witness_pair=pair)

    return Expectation("deflated", rule)


@dataclass(frozen=True)
class Construction:
    """One construction id and everything lipcheck knows about it.

    ``build(spec)`` returns (functions, members), and every family built
    from the row is verified in ``target`` against ``expectation(spec,
    members)``; an orbit row declares its orbits once and reads both off
    that declaration (:func:`_orbit_row`), so its expectation never reads
    the functions built. ``check(spec)`` tests the hypothesis through a
    ``check_*`` checker, a clause generator under the runner that reports
    the first violation. ``anchors(model, N)`` and ``parameters(model)`` lay
    out the canonical spec on the model truncated at N: ``lipcheck check``
    tests it, and the standard instance builds on it unless
    ``standard_anchors`` lays out its own. The standard instance truncates ``model(**params)`` at
    ``default_N`` (at every point of the model when None); the keywords of
    ``model`` are the only parameters it accepts.

    The checks, builders and expectations call the module-level ``check_*``
    names, ``_orbit_family`` and the rule factories at call time, so a
    wrapper installed on them later sees every call.
    """

    theorem_id: str
    build: Optional[Callable] = None
    check: Optional[Callable] = None
    space_check: bool = False  # check reads only space and anchors, not model and N
    anchors: Callable = lambda model, N: ()
    parameters: Callable = lambda model: {}
    model: Optional[Callable] = None
    default_N: Optional[int] = None
    standard_anchors: Optional[Callable] = None
    target: str = "sup-norm"
    expectation: Optional[Callable] = None


CONSTRUCTIONS = (
    Construction(
        "prop23", build=_build_unit_spikes,
        anchors=lambda model, N: tuple(range(1, N)),
        model=lambda: catalog("prop23"), default_N=16,
        expectation=lambda spec, members: Expectation(
            "exact",
            _dominant_pair_rule(tuple((p, 0) for p in members), (0,) * len(members)),
        ),
    ),
    Construction(
        "prop31", build=lambda spec: _build_radius_spikes(spec.space, _point_partners(spec)[0]),
        check=lambda spec: check_prop31(spec.space, *_point_partners(spec)), space_check=True,
        # `lipcheck check` pairs each odd row p with p + 1, the standard
        # instance with p - 1
        anchors=lambda model, N: _split(_disjoint_pairs(N)),
        model=lambda: integer_line(), default_N=10,
        standard_anchors=lambda model, N: _split((p, p - 1) for p in range(1, N, 2)),
        expectation=lambda spec, members: Expectation(
            "exact", _dominant_pair_rule(tuple(zip(*_point_partners(spec)))),
        ),
    ),
    Construction(
        "thm34", build=lambda spec: _build_pairs(spec, _balanced_values),
        check=lambda spec: check_thm34(spec.space, spec.anchors), space_check=True,
        anchors=lambda model, N: _disjoint_pairs(N),
        model=lambda: catalog("discrete"), default_N=16,
        expectation=_pair_expectation,
    ),
    Construction(
        "thm37", build=lambda spec: _build_pairs(spec, _radius_shifted_values),
        check=lambda spec: check_thm37(spec.space, spec.anchors), space_check=True,
        anchors=lambda model, N: _disjoint_pairs(N),
        model=lambda: catalog("example35"), default_N=10,
        expectation=_pair_expectation,
    ),
    Construction(
        "prop42", build=lambda spec: _build_radius_spikes(spec.space, spec.anchors),
        check=lambda spec: check_prop42(spec.space, spec.anchors), space_check=True,
        anchors=lambda model, N: tuple(range(1, N, 2)),
        model=lambda: integer_line(), default_N=12,
        expectation=lambda spec, members: Expectation(
            "exact", _dominant_pair_rule(_nearest_pairs(spec.space, members), members),
        ),
    ),
    Construction(
        "thm43", check=lambda spec: check_thm43(spec.model, spec.N),
        model=lambda: catalog("dmqr41"), default_N=30, **_orbit_row(_thm43_orbits),
    ),
    Construction(
        "thm45", check=lambda spec: check_thm45(spec.model, spec.anchors, spec.N),
        anchors=lambda model, N: tuple(range(2, model.n_seq(N) + 1)),
        model=lambda: catalog("example44"), default_N=30,
        # the constant orbit attains toward the base, row 0
        **_orbit_row(_thm45_orbits, designated=0),
    ),
    Construction(
        "thm46", check=lambda spec: check_thm46(spec.model, spec.parameters["eps"], spec.N),
        parameters=lambda model: {"eps": model.eps},
        model=lambda c=1: catalog("dmqr44", c=c), default_N=20, **_orbit_row(_thm46_orbits),
    ),
    Construction("thm310", check=lambda spec: check_thm310(spec.model, spec.N)),
    Construction(
        "thm51", build=_build_thm51, parameters=lambda model: dict(model.params),
        model=lambda levels=5: catalog("thm51star", levels=levels),
        target="sum-norm",
        expectation=_sign_pattern_expectation(lambda g: (2 * g, 2 * g + 1)),
    ),
    Construction(
        "prop53", build=_build_prop53, parameters=lambda model: dict(model.params),
        model=lambda levels=5: catalog("prop53", levels=levels),
        target="sum-norm",
        expectation=_sign_pattern_expectation(lambda g: (2 * g + 2, 2 * g + 1)),
    ),
    Construction(
        "thm57", build=_build_thm57, parameters=lambda model: dict(model.params),
        model=lambda c=2, groups=8, levels=8: catalog(
            "thm57", c=c, groups=groups, levels=levels
        ),
        target="sum-norm", expectation=_thm57_expectation,
    ),
    # built by the main pipeline on the subspaces it selects; their sums may
    # meet the distances exactly (the case boundary and the growth recurrence
    # allow equality), so the norm may touch the target
    Construction("thm49i", **_orbit_row(_thm49i_orbits, strict=False)),
    Construction("thm49ii", build=_build_thm49ii, expectation=_pair_expectation),
    Construction("thm49case2", **_orbit_row(_thm49case2_orbits, strict=False)),
)

_BY_ID = {rec.theorem_id: rec for rec in CONSTRUCTIONS}

VERIFY_THEOREMS = tuple(rec.theorem_id for rec in CONSTRUCTIONS if rec.model is not None)
CHECK_THEOREMS = tuple(rec.theorem_id for rec in CONSTRUCTIONS if rec.check is not None)


def _construction(theorem_id: str, field_name: str, what: str) -> Construction:
    rec = _BY_ID.get(theorem_id)
    if rec is None:
        raise PreconditionError(f"unknown construction id {theorem_id!r}")
    if getattr(rec, field_name) is None:
        raise PreconditionError(f"construction {theorem_id!r} has no {what}")
    return rec


def _canonical_spec(rec: Construction, space, model, N: int, anchors) -> FamilySpec:
    """A spec on the model truncated at N; a spec checked on its space
    alone carries no model."""
    on_model = not rec.space_check
    return FamilySpec(
        rec.theorem_id, space, anchors=anchors(model, N),
        parameters=rec.parameters(model),
        model=model if on_model else None, N=N if on_model else None,
    )


def check_canonical(theorem_id: str, model: MetricModel, N: int) -> CheckResult:
    """Run a hypothesis checker on ``model`` truncated at ``N``, with its
    canonical anchor layout (what ``lipcheck check`` runs)."""
    rec = _construction(theorem_id, "check", "hypothesis check")
    space = truncate(model, N) if rec.space_check else None
    return rec.check(_canonical_spec(rec, space, model, N, rec.anchors))


def standard_size(theorem_id: str, params) -> int:
    """The truncation size of the standard instance of theorem_id on params
    when none is given; PreconditionError unless it reads every key."""
    rec = _construction(theorem_id, "model", "standard instance")
    unknown = sorted(set(params) - set(inspect.signature(rec.model).parameters))
    if unknown:
        raise PreconditionError(
            f"standard instance of {theorem_id!r} takes no parameter {', '.join(unknown)}"
        )
    return rec.default_N if rec.default_N is not None else rec.model(**params).max_points


def standard_family(theorem_id: str, N: Optional[int] = None, **params) -> BuiltFamily:
    """The catalog instantiation of each supported construction, with its
    checker outcome and finite-scale expectation wired in."""
    default_N = standard_size(theorem_id, params)
    rec = _construction(theorem_id, "model", "standard instance")
    if N is None:
        N = default_N
    elif rec.default_N is None and N != default_N:
        raise PreconditionError(f"standard instance of {theorem_id!r} uses all {default_N} points")
    model = rec.model(**params)
    space = truncate(model, N)
    spec = _canonical_spec(rec, space, model, N, rec.standard_anchors or rec.anchors)
    return assemble_family(spec, run_checker(spec))


def assemble_family(spec: FamilySpec, checker: Optional[CheckResult] = None) -> BuiltFamily:
    """The family ``spec`` names, built by its construction, with the
    table's target and expectation; ``checker`` is recorded as given."""
    rec = _construction(spec.theorem_id, "build", "family builder")
    fns, members = rec.build(spec)
    return BuiltFamily(spec, fns, rec.target, rec.expectation(spec, members), members, checker)


def verify_standard(built: BuiltFamily, seed: int = BATTERY_SEED,
                    rand_count: int = BATTERY_RANDOM_COUNT,
                    support: Optional[int] = None) -> VerificationReport:
    """``built`` verified in its target against its expectation, on the
    standard battery these arguments lay out."""
    battery = standard_battery(built.size, seed=seed, rand_count=rand_count, support=support)
    return verify_isometry(built.functions, built.target, battery, built.expectation, seed=seed)


def report_json(theorem: str, space_name: str, N: int, checker, report: VerificationReport) -> dict:
    """The consolidated verification record the command line emits."""
    samples = []
    for rec in report.witnesses[:5]:
        samples.append(
            {
                "coeffs": [format_rat(a) for a in rec.coeffs],
                "norm": format_rat(rec.norm),
                "pair": list(rec.pair) if rec.pair is not None else None,
                "point": rec.point,
                "point_defect": format_rat(rec.point_defect)
                if rec.point_defect is not None
                else None,
            }
        )
    return {
        "theorem": theorem,
        "space": space_name,
        "N": N,
        "checker": bool(checker) if checker is not None else None,
        "coeff_count": len(report.coefficient_set),
        "exact_pass": report.exact_pass,
        "expectation_kind": report.expectation_kind,
        "expectation_pass": report.expectation_pass,
        "worst_defect": format_rat(report.worst_defect),
        "seed": report.seed,
        "witness_samples": samples,
    }


# ---------------------------------------------------------------------------
# Main pipeline: pick the construction a model supports and run it


@dataclass(frozen=True)
class PipelineResult:
    """Iterable as (case, subspace, family, report); the construction data
    (epsilons, selected pairs, weights) rides along for inspection."""

    case: str
    subspace: tuple
    family: tuple
    report: VerificationReport
    data: dict

    def __iter__(self):
        return iter((self.case, self.subspace, self.family, self.report))


def _verified(case: str, rows, built: BuiltFamily, data: dict) -> PipelineResult:
    """The case's result with ``built`` verified on the standard battery.

    A truncation too short to carry a member is a construction failure of
    the case, refused before the battery, which needs a member.
    """
    if not built.functions:
        raise ConstructionError("selection too short to carry any orbit member")
    return PipelineResult(case, tuple(rows), built.functions, verify_standard(built), data)


def _classify_bounded(seq: SequenceView) -> str:
    """The uniform comparison between pair gaps and tail gaps, or an error
    naming the first disagreeing pairs."""
    ns = seq.ns
    if ns < 2:
        return "I-(ii)"  # no pair to compare
    # phi(n, m) >= psi(n) + psi(m), with L added on both sides
    d, (L, Lp) = seq.dist, seq.tails
    sign = d[1][2] + L >= Lp[1] + Lp[2]
    for n in range(1, ns + 1):
        dn, gap = d[n], Lp[n] - L
        for m in range(n + 1, ns + 1):
            if (dn[m] >= gap + Lp[m]) != sign:
                raise DichotomyError(
                    f"dichotomy not uniform on range: pairs (1, 2) and {(n, m)} disagree"
                )
    return "I-(i)" if sign else "I-(ii)"


def _pipeline_case_i1(seq: SequenceView) -> PipelineResult:
    # eps_n = L/2 + phi(1, n) - psi(n) and g_n = L/2 + psi(n), over 2S
    ns, d, S = seq.ns, seq.dist, seq.scale
    L, _ = seq.tails
    eps, g = {}, {}
    for n in range(2, ns + 1):
        eps[n] = L + 2 * (seq.phi(1, n) - seq.psi(n))
        g[n] = L + 2 * seq.psi(n)
        # An identity, kept as a guard on the two closed forms: with
        # phi(1, n) = d(1, n) - L, 2d - (L + 2(d - L - psi)) = L + 2 psi.
        if 2 * d[1][n] - eps[n] != g[n]:
            raise ConstructionError("epsilon assignment does not match the closed form")
        if g[n] < 0:
            raise ConstructionError(f"negative shifted distance at n={n}")
    for n in range(2, ns + 1):
        for m in range(n + 1, ns + 1):
            if g[n] + g[m] > 2 * d[n][m]:
                raise ConstructionError(f"shifted sum exceeds the distance at ({n},{m})")

    # the subspace keeps only sequence points, re-based at the first
    rows = list(seq.rows[1:])
    sub = seq.space.subspace(rows)
    A, D = sub.scaled
    for k in range(2, ns + 1):
        if g[k] * D > min_radius(A, k - 1) * 2 * S:
            raise ConstructionError(f"shifted distance exceeds the radius at n={k}")

    eps = {n: Rat(x, 2 * S) for n, x in eps.items()}
    g = {n: Rat(x, 2 * S) for n, x in g.items()}
    built = assemble_family(FamilySpec("thm49i", sub, parameters={"g": g}))
    return _verified("I-(i)", rows, built, {"eps": eps, "g": g})


def _pipeline_case_i2(seq: SequenceView) -> PipelineResult:
    model = seq.model
    model.need_envelopes()
    ns = seq.ns
    if ns < 2:
        raise ConstructionError("need at least two sequence points")
    sigma, tau, eps = [1], [2], []  # eps over 6 * seq.scale

    def below(bound, e):  # bound < e / (6 * seq.scale)
        return bound.numerator * 6 * seq.scale < e * bound.denominator

    while True:
        s, t = sigma[-1], tau[-1]
        e = -seq.phi(s, t) + seq.psi(s) + seq.psi(t)
        if e <= 0:
            raise ConstructionError(f"nonpositive epsilon at pair ({s},{t})")
        eps.append(e)
        # cand + 1 <= ns for the tau partner
        nxt = next((cand for cand in range(t + 1, ns)
                    if below(model.env_phi(cand), e) and below(model.env_psi(cand), e)
                    and below(model.env_dev(s, cand), e) and below(model.env_dev(t, cand), e)),
                   None)
        if nxt is None:
            break
        sigma.append(nxt)
        tau.append(nxt + 1)

    used = set(sigma) | set(tau)
    base_idx = next((n for n in range(1, ns + 1) if n not in used), None)
    if base_idx is None:
        raise ConstructionError("no unused sequence index left to serve as the base")

    order = [base_idx] + [n for n in range(1, ns + 1) if n != base_idx]
    rows = [seq.rows[n] for n in order]
    sub = seq.space.subspace(rows)
    pos = {n: i for i, n in enumerate(order)}

    anchor_rows = tuple((pos[s], pos[t]) for s, t in zip(sigma, tau))
    built = assemble_family(FamilySpec("thm49ii", sub, anchors=anchor_rows, parameters={
        "L": model.L,
        "phi_st": tuple(seq.rat(seq.phi(s, t)) for s, t in zip(sigma, tau)),
        "psi_s": tuple(seq.rat(seq.psi(s)) for s in sigma),
        "psi_t": tuple(seq.rat(seq.psi(t)) for t in tau),
    }))
    A, D = sub.scaled
    for i, (f, (srow, trow)) in enumerate(zip(built.functions, anchor_rows), 1):
        F, Lf = f.lifted
        if (F[srow] - F[trow]) * D != A[srow][trow] * Lf:
            raise ConstructionError(f"pair values do not span the distance at member {i}")
    eps = tuple(Rat(e, 6 * seq.scale) for e in eps)
    data = {"sigma": tuple(sigma), "tau": tuple(tau), "eps": eps, "base": base_idx}
    return _verified("I-(ii)", rows, built, data)


def _pipeline_case_ii(trunc: FiniteMetricSpace) -> PipelineResult:
    A, D = trunc.scaled  # distances and weights over the truncation's D
    selected, cvals = [0], [D]
    while True:
        inner = max(A[a][b] + ca for a, ca in zip(selected, cvals) for b in selected)
        bound = len(selected) * inner
        nxt = next((r for r in range(trunc.n_points) if r not in selected
                    and all(A[k][r] > bound for k in selected)), None)
        if nxt is None:
            break
        selected.append(nxt)
        cvals.append(max(A[a][b] for a in selected for b in selected) - inner)

    if len(selected) < 2:
        raise ConstructionError("growth selection found no second point")
    if any(c <= 0 for c in cvals):
        raise ConstructionError("nonpositive weight in the growth recurrence")
    k_sel = len(selected)
    for i in range(k_sel):
        for j in range(i + 1, k_sel):
            if cvals[i] + cvals[j] > A[selected[i]][selected[j]]:
                raise ConstructionError(
                    f"weight sum exceeds the distance at selection ({i + 1},{j + 1})"
                )
    sub = trunc.subspace(selected)
    A_sub, D_sub = sub.scaled
    for i in range(k_sel):
        if cvals[i] * D_sub > min_radius(A_sub, i) * D:
            raise ConstructionError(f"weight exceeds the radius at selection {i + 1}")

    cvals = tuple(Rat(c, D) for c in cvals)
    built = assemble_family(FamilySpec("thm49case2", sub, parameters={"c": cvals}))
    return _verified("II", selected, built, {"c": cvals})


def main_theorem_pipeline(model: MetricModel, N: int) -> PipelineResult:
    """Classify the model, run the matching construction, and verify it.

    Bounded models split by the uniform gap comparison (asymmetric mixes
    raise DichotomyError with the disagreeing pairs); unbounded models go
    through the greedy growth selection. The returned result iterates as
    (case, subspace rows, family, report).
    """
    model.need_sequence()
    trunc = truncate(model, N)
    if model.bounded:
        seq = SequenceView(model, N, trunc)
        if _classify_bounded(seq) == "I-(i)":
            return _pipeline_case_i1(seq)
        return _pipeline_case_i2(seq)
    return _pipeline_case_ii(trunc)
