"""Exact free-space norms on finite metric spaces, two independent ways.

The norm of a finitely supported element mu = sum w_x delta_x is computed
twice: as a linear program over the dual ball (exact simplex, Bland's
rule, lexicographic witness selection) and as a min-cost transportation
problem (successive shortest paths on the residual graph). The dual-ball
constraint matrix is totally unimodular, so the simplex keeps its
coefficients as Python ints in {0, +-1} and updates only the nonzero
cells of each pivot row; only right-hand sides and the weight objective
are Fractions, and a pivot element other than +-1 is divided out exactly.
The two routes share no code beyond the metric itself, so agreement is a
meaningful cross-check; the tests add a brute-force vertex oracle for
small spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .lipfun import LipFn, lip_norm, zero_fn
from .metric import (
    CheckResult,
    FiniteMetricSpace,
    LipcheckError,
    MetricModel,
    PreconditionError,
    StructureError,
    TailDataError,
)
from .rational import Rat, ZERO, ONE, format_rat, parse_rat, rat


# ---------------------------------------------------------------------------
# Elements


@dataclass
class FreeElement:
    """Finitely supported combination of point evaluations.

    Weight at the base point is allowed (it pairs to zero with every
    function, and the flow route absorbs it when balancing masses).
    Canonical form keeps only nonzero weights.
    """

    space: FiniteMetricSpace
    weights: dict

    def support(self):
        return sorted(self.weights)


def free_element(space: FiniteMetricSpace, weights) -> FreeElement:
    if isinstance(weights, dict):
        items = weights.items()
    else:
        items = list(weights)
    out = {}
    for p, w in items:
        p = int(p)
        if not 0 <= p < space.n_points:
            raise PreconditionError(f"point index {p} outside the space")
        w = rat(w)
        if w != ZERO:
            out[p] = out.get(p, ZERO) + w
    return FreeElement(space, {p: w for p, w in out.items() if w != ZERO})


def delta(space: FiniteMetricSpace, p: int) -> FreeElement:
    return free_element(space, {p: ONE})


def molecule(space: FiniteMetricSpace, p: int, q: int) -> FreeElement:
    """(delta_p - delta_q) / d(p, q)."""
    if p == q:
        raise PreconditionError("molecule needs two distinct points")
    d = space.d(p, q)
    return free_element(space, {p: ONE / d, q: -ONE / d})


def free_add(a: FreeElement, b: FreeElement) -> FreeElement:
    if a.space.dist != b.space.dist:
        raise PreconditionError("cannot add elements over different spaces")
    out = dict(a.weights)
    for p, w in b.weights.items():
        out[p] = out.get(p, ZERO) + w
    return free_element(a.space, out)


def free_scale(a: FreeElement, c) -> FreeElement:
    c = rat(c)
    return free_element(a.space, {p: c * w for p, w in a.weights.items()})


def pairing(mu: FreeElement, f: LipFn) -> Rat:
    """<mu, f> = sum of w_x f(x); the base value is 0 by construction."""
    if mu.space.dist != f.space.dist:
        raise PreconditionError("element and function live on different spaces")
    total = ZERO
    for p, w in mu.weights.items():
        total += w * f.values[p]
    return total


# ---------------------------------------------------------------------------
# Route 1: simplex over the dual ball


class _LexSimplex:
    """Sparse exact simplex maximizing stacked objectives in order.

    Rows are equality constraints with a designated basic variable; the
    initial basis must be feasible. Objective rows ride along through the
    pivots; stage k only enters columns whose reduced cost is zero in all
    earlier stages, which pins earlier optima while optimizing the next.
    Bland's rule (lowest eligible column, lowest basic variable on ties)
    rules out cycling.

    Rows are dense lists, but a pivot touches only the nonzero columns of
    the pivot row, and only in the rows and objectives whose entry in the
    pivot column is nonzero. On a totally unimodular constraint matrix
    (the dual-ball LP below is one) every coefficient stays in {0, +-1}
    and every pivot element is +-1, so coefficient cells are Python ints
    and only the right-hand side and objectives with rational data hold
    Fractions. Any other pivot element is divided out exactly as a
    Fraction, so correctness does not rest on unimodularity.
    """

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self.rows = []
        self.basis = []
        self.objs = []  # row vectors of length n_cols + 1; last cell = -value

    def add_row(self, coeffs: dict, rhs: Rat, basic: int):
        row = [0] * (self.n_cols + 1)
        for j, c in coeffs.items():
            row[j] = c
        row[-1] = rhs
        self.rows.append(row)
        self.basis.append(basic)

    def add_objective(self, coeffs: dict):
        row = [0] * (self.n_cols + 1)
        for j, c in coeffs.items():
            row[j] = c
        row[-1] = ZERO
        self.objs.append(row)

    def _pivot(self, r: int, c: int):
        prow = self.rows[r]
        piv = prow[c]
        nz = [j for j, x in enumerate(prow) if x]
        if piv == -1:
            for j in nz:
                prow[j] = -prow[j]
        elif piv != 1:
            inv = ONE / piv
            for j in nz:
                prow[j] = prow[j] * inv
        for i, row in enumerate(self.rows):
            if i != r and row[c]:
                self._eliminate(row, row[c], prow, nz)
        for obj in self.objs:
            if obj[c]:
                self._eliminate(obj, obj[c], prow, nz)
        self.basis[r] = c

    @staticmethod
    def _eliminate(row, f, prow, nz):
        """row -= f * prow on the columns ``nz``."""
        if f == 1:
            for j in nz:
                row[j] -= prow[j]
        elif f == -1:
            for j in nz:
                row[j] += prow[j]
        else:
            for j in nz:
                row[j] -= f * prow[j]

    def optimize(self):
        for stage in range(len(self.objs)):
            earlier = self.objs[:stage]
            while True:
                obj = self.objs[stage]
                enter = -1
                for j in range(self.n_cols):
                    if obj[j] > 0 and not any(prev[j] for prev in earlier):
                        enter = j
                        break
                if enter < 0:
                    break
                leave = -1
                best = None
                for i, row in enumerate(self.rows):
                    a = row[enter]
                    if a > 0:
                        ratio = row[-1] if a == 1 else row[-1] / a
                        if (
                            best is None
                            or ratio < best
                            or (ratio == best and self.basis[i] < self.basis[leave])
                        ):
                            best = ratio
                            leave = i
                if leave < 0:
                    raise LipcheckError("simplex objective unbounded")
                self._pivot(leave, enter)

    def value(self, stage: int) -> Rat:
        return -self.objs[stage][-1]

    def solution(self):
        x = [ZERO] * self.n_cols
        for var, row in zip(self.basis, self.rows):
            x[var] = row[-1]
        return x


@dataclass(frozen=True)
class FreeNormResult:
    value: Rat
    witness: LipFn


def free_norm_lp(mu: FreeElement) -> FreeNormResult:
    """Free norm as sup of <mu, f> over the unit dual ball, with witness.

    Variables are f(p) = u_p - v_p for p >= 1 (f(0) = 0 is substituted
    away); one slack row per ordered pair keeps |f(p) - f(q)| <= d(p, q).
    After the norm stage, extra stages minimize f(1), f(2), ... in order,
    so the witness is the lexicographically smallest optimal vertex.
    """
    space = mu.space
    n = space.n_points
    if not mu.weights:
        return FreeNormResult(ZERO, zero_fn(space))

    n_struct = 2 * (n - 1)
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    sx = _LexSimplex(n_struct + len(pairs))

    def ucol(p):
        return 2 * (p - 1)

    def vcol(p):
        return 2 * (p - 1) + 1

    for k, (p, q) in enumerate(pairs):
        coeffs = {}
        if p != 0:
            coeffs[ucol(p)] = 1
            coeffs[vcol(p)] = -1
        if q != 0:
            coeffs[ucol(q)] = -1
            coeffs[vcol(q)] = 1
        slack = n_struct + k
        coeffs[slack] = 1
        sx.add_row(coeffs, space.d(p, q), slack)

    head = {}
    for p, w in mu.weights.items():
        if p != 0:
            head[ucol(p)] = w
            head[vcol(p)] = -w
    sx.add_objective(head)
    for p in range(1, n):
        sx.add_objective({ucol(p): -1, vcol(p): 1})

    sx.optimize()
    x = sx.solution()
    values = [ZERO] * n
    for p in range(1, n):
        values[p] = x[ucol(p)] - x[vcol(p)]
    witness = LipFn(space, tuple(values))
    value = sx.value(0)

    if lip_norm(witness) > ONE:
        raise LipcheckError("simplex witness escaped the dual ball")
    if pairing(mu, witness) != value:
        raise LipcheckError("simplex witness does not certify the optimum")
    return FreeNormResult(value, witness)


# ---------------------------------------------------------------------------
# Route 2: min-cost transportation


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def free_norm_flow(mu: FreeElement) -> Rat:
    """Free norm as exact min-cost transport of mu+ onto mu-.

    The net imbalance is absorbed at the base point (delta_0 is the zero
    vector, so this does not change the element). Masses are scaled to
    integers so every augmentation moves at least one unit; paths are
    found with Bellman-Ford on the residual graph, so reverse arcs with
    negative cost are handled exactly.
    """
    space = mu.space
    net = dict(mu.weights)
    total = sum(net.values(), ZERO)
    net[0] = net.get(0, ZERO) - total
    pos = [(p, w) for p, w in sorted(net.items()) if w > ZERO]
    neg = [(p, -w) for p, w in sorted(net.items()) if w < ZERO]
    if not pos:
        return ZERO

    scale = 1
    for _, w in pos + neg:
        scale = _lcm(scale, int(w.denominator))
    supply = [int(w * scale) for _, w in pos]
    demand = [int(w * scale) for _, w in neg]
    spts = [p for p, _ in pos]
    tpts = [p for p, _ in neg]
    m, k = len(spts), len(tpts)
    flow = [[0] * k for _ in range(m)]
    cost = [[space.d(spts[i], tpts[j]) for j in range(k)] for i in range(m)]

    while True:
        live_sources = [i for i in range(m) if supply[i] > 0]
        if not live_sources:
            break
        # Bellman-Ford over the residual graph from all live sources.
        dist_s = [None] * m
        dist_t = [None] * k
        par_t = [None] * k  # source index feeding each sink
        par_s = [None] * m  # sink index feeding each source via a reverse arc
        for i in live_sources:
            dist_s[i] = ZERO
        for _ in range(m + k):
            changed = False
            for i in range(m):
                if dist_s[i] is None:
                    continue
                for j in range(k):
                    nd = dist_s[i] + cost[i][j]
                    if dist_t[j] is None or nd < dist_t[j]:
                        dist_t[j] = nd
                        par_t[j] = i
                        changed = True
            for j in range(k):
                if dist_t[j] is None:
                    continue
                for i in range(m):
                    if flow[i][j] > 0:
                        nd = dist_t[j] - cost[i][j]
                        if dist_s[i] is None or nd < dist_s[i]:
                            dist_s[i] = nd
                            par_s[i] = j
                            changed = True
            if not changed:
                break

        target = None
        for j in range(k):
            if demand[j] > 0 and dist_t[j] is not None:
                if target is None or dist_t[j] < dist_t[target]:
                    target = j
        if target is None:
            raise LipcheckError("transportation network disconnected")

        # Trace the alternating path back and find the bottleneck.
        path = []  # (i, j, forward?)
        j = target
        while True:
            i = par_t[j]
            path.append((i, j, True))
            if par_s[i] is None:
                break
            nj = par_s[i]
            path.append((i, nj, False))
            j = nj
        start = path[-1][0]
        delta = min(supply[start], demand[target])
        for i, j, fwd in path:
            if not fwd:
                delta = min(delta, flow[i][j])
        if delta <= 0:
            raise LipcheckError("transportation augmentation stalled")
        for i, j, fwd in path:
            if fwd:
                flow[i][j] += delta
            else:
                flow[i][j] -= delta
        supply[start] -= delta
        demand[target] -= delta

    total_cost = ZERO
    for i in range(m):
        for j in range(k):
            if flow[i][j]:
                total_cost += rat(flow[i][j]) * cost[i][j]
    return total_cost / rat(scale)


# ---------------------------------------------------------------------------
# Matching criterion


@dataclass(frozen=True)
class MatchingResult:
    ok: bool
    permutation: tuple
    identity_cost: Rat
    best_cost: Rat

    def __bool__(self) -> bool:
        return self.ok


EXHAUSTIVE_MATCHING_LIMIT = 10


def _assignment_dfs(cost, best_bound):
    """Exact branch-and-bound over permutations; returns (cost, perm)."""
    k = len(cost)
    best = [best_bound, tuple(range(k))]
    used = [False] * k
    choice = [0] * k

    def row_min(i):
        return min(cost[i][j] for j in range(k) if not used[j])

    def rec(i, partial):
        if i == k:
            if partial < best[0]:
                best[0] = partial
                best[1] = tuple(choice)
            return
        bound = partial
        for r in range(i, k):
            bound += row_min(r)
        if bound >= best[0] and i > 0:
            return
        for j in range(k):
            if not used[j]:
                used[j] = True
                choice[i] = j
                rec(i + 1, partial + cost[i][j])
                used[j] = False

    rec(0, ZERO)
    return best[0], best[1]


def _hungarian(cost):
    """Exact rational Hungarian algorithm; returns (cost, perm)."""
    k = len(cost)
    big = sum((sum(row, ZERO) for row in cost), ONE)
    u = [ZERO] * (k + 1)
    v = [ZERO] * (k + 1)
    p = [0] * (k + 1)  # p[j] = row matched to column j (1-based)
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        p[0] = i
        j0 = 0
        minv = [big] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = big
            j1 = 0
            for j in range(1, k + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(k + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = [0] * k
    total = ZERO
    for j in range(1, k + 1):
        perm[p[j] - 1] = j - 1
        total += cost[p[j] - 1][j - 1]
    return total, tuple(perm)


def matching_min_check(space: FiniteMetricSpace, match_pairs) -> MatchingResult:
    """Is the identity matching u_i -> v_i minimum-weight among all
    bijections of {u_i} onto {v_j}? False comes with a cheaper permutation.

    Exhaustive branch-and-bound up to 10 pairs, exact Hungarian beyond.
    """
    match_pairs = list(match_pairs)
    if not match_pairs:
        return MatchingResult(True, (), ZERO, ZERO)
    k = len(match_pairs)
    cost = [
        [space.d(u, v) for _, v in match_pairs] for u, _ in match_pairs
    ]
    identity = sum((cost[i][i] for i in range(k)), ZERO)
    if k <= EXHAUSTIVE_MATCHING_LIMIT:
        best, perm = _assignment_dfs(cost, identity)
    else:
        best, perm = _hungarian(cost)
    if best < identity:
        return MatchingResult(False, perm, identity, best)
    return MatchingResult(True, tuple(range(k)), identity, identity)


# ---------------------------------------------------------------------------
# Strict-gap tail check


def check_thm310(model: MetricModel, N: int) -> CheckResult:
    """Three clauses: tails declared, phi(n, m) > psi(n) + psi(m) strictly
    on the index range, and the declared liminf certificate for phi.

    Missing declarations are an error, never a quiet False.
    """
    if N < 2:
        raise PreconditionError("needs N >= 2")
    if not model.has_tails:
        raise TailDataError(f"limits unavailable for model {model.name!r}")
    if model.liminf_phi_nonneg is None:
        raise TailDataError(
            f"model {model.name!r} declares no liminf certificate for phi"
        )
    top = model.n_seq(N)
    for n in range(1, top + 1):
        for m in range(n + 1, top + 1):
            lhs = model.phi(n, m)
            rhs = model.psi(n) + model.psi(m)
            if not lhs > rhs:
                return CheckResult(
                    False, "thm310", "strict-gap", (n, m), (lhs, rhs)
                )
    if not model.liminf_phi_nonneg:
        return CheckResult(False, "thm310", "liminf-certificate", (), ())
    return CheckResult(True, "thm310")


# ---------------------------------------------------------------------------
# 1-complementation


@dataclass(frozen=True)
class ComplementationRow:
    norm_mu: Rat
    coeff_sum: Rat
    norm_projection: Rat

    @property
    def ok(self) -> bool:
        return self.coeff_sum <= self.norm_mu and self.norm_projection <= self.norm_mu


@dataclass(frozen=True)
class ComplementationReport:
    passed: bool
    rows: tuple
    first_failure: int = -1


def complementation_test(molecule_pairs, duals, samples) -> ComplementationReport:
    """Projection P(mu) = sum <mu, f_g> m_g must not increase the norm,
    and the coefficient sums must sit under ||mu||; both exact.
    """
    molecule_pairs = list(molecule_pairs)
    duals = list(duals)
    if len(molecule_pairs) != len(duals):
        raise PreconditionError("one dual function per molecule pair")
    for f in duals:
        if lip_norm(f) > ONE:
            raise PreconditionError("dual functions must sit in the unit ball")
    rows = []
    first_bad = -1
    for idx, mu in enumerate(samples):
        mols = [molecule(mu.space, p, q) for p, q in molecule_pairs]
        coeffs = [pairing(mu, f) for f in duals]
        norm_mu = free_norm_lp(mu).value
        coeff_sum = sum((c if c >= ZERO else -c for c in coeffs), ZERO)
        proj = free_element(mu.space, {})
        for c, m in zip(coeffs, mols):
            proj = free_add(proj, free_scale(m, c))
        norm_proj = free_norm_lp(proj).value
        row = ComplementationRow(norm_mu, coeff_sum, norm_proj)
        rows.append(row)
        if not row.ok and first_bad < 0:
            first_bad = idx
    return ComplementationReport(first_bad < 0, tuple(rows), first_bad)


# ---------------------------------------------------------------------------
# JSON interchange


def free_to_json(mu: FreeElement) -> dict:
    return {
        "space": mu.space.name,
        "weights": {str(p): format_rat(w) for p, w in sorted(mu.weights.items())},
    }


def free_from_json(obj, space: FiniteMetricSpace) -> FreeElement:
    if not isinstance(obj, dict) or "weights" not in obj:
        raise StructureError("free-element JSON needs a 'weights' field")
    name = obj.get("space", "")
    if name and space.name and name != space.name:
        raise StructureError(
            f"element is over space {name!r}, got {space.name!r}"
        )
    raw = obj["weights"]
    if not isinstance(raw, dict) or not all(isinstance(w, str) for w in raw.values()):
        raise StructureError("'weights' must map point indices to rational strings")
    try:
        weights = {int(p): parse_rat(w) for p, w in raw.items()}
    except ValueError as exc:
        raise StructureError(str(exc)) from None
    return free_element(space, weights)
