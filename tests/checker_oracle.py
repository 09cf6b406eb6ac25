"""The eight hand-written hypothesis checkers that clause generators under
one first-failure runner replaced.

Kept verbatim as a differential oracle: each returns its ``CheckResult`` at
the first violation it meets, and the model-backed ones read distances from
the model's closed forms (``d_seq``, ``d_base``, ``phi`` and ``psi`` in
``model_oracle``) where the production checkers read a sequence view of the
truncation. The argument checks they share with the production code are
imported; the subsequence checks of ``check_thm45`` stay inline, as they
were before they moved into a helper.
"""

from __future__ import annotations

from model_oracle import d_base, d_seq, phi, psi
from lipcheck.embeddings import (
    _check_anchor_rows,
    _check_pairs,
    _check_point_partners,
    _eps_values,
)
from lipcheck.metric import (
    CheckResult,
    FiniteMetricSpace,
    MetricModel,
    ModelError,
    PreconditionError,
    TailDataError,
    as_index,
    min_positive_radius,
    truncate,
)
from lipcheck.rational import Rat, ZERO, rat


def check_prop31(space: FiniteMetricSpace, points, partners) -> CheckResult:
    """Spike-family hypothesis: each point's partner realizes its radius and
    the points are pairwise separated by the sum of the partner distances.

    Clause "radius": d(p, q) == R(p) for every (point, partner).
    Clause "separation": d(p_a, p_b) >= d(p_a, q_a) + d(p_b, q_b).
    """
    points, partners = _check_point_partners(space, points, partners)
    for p, q in zip(points, partners):
        r = min_positive_radius(space, p)
        if space.dist[p][q] != r:
            return CheckResult(False, "prop31", "radius", (p, q), (space.dist[p][q], r))
    k = len(points)
    for i in range(k):
        for j in range(i + 1, k):
            lhs = space.dist[points[i]][points[j]]
            rhs = space.dist[points[i]][partners[i]] + space.dist[points[j]][partners[j]]
            if lhs < rhs:
                return CheckResult(
                    False, "prop31", "separation", (points[i], points[j]), (lhs, rhs)
                )
    return CheckResult(True, "prop31")


def check_thm34(space: FiniteMetricSpace, pairs) -> CheckResult:
    """Balanced two-point family hypothesis.

    Clause "radius": R(p), R(q) >= d(p, q)/2 for each pair.
    Clause "cross-gap": d(p_a, q_a) + d(p_b, q_b) <= 2 min over the four
    distances between the two pairs.
    """
    pairs = _check_pairs(space, pairs)
    half = rat(1, 2)
    for p, q in pairs:
        dpq = space.dist[p][q]
        for r in (p, q):
            rad = min_positive_radius(space, r)
            if rad < half * dpq:
                return CheckResult(False, "thm34", "radius", (p, q), (rad, half * dpq))
    k = len(pairs)
    for i in range(k):
        for j in range(i + 1, k):
            pa, qa = pairs[i]
            pb, qb = pairs[j]
            lhs = space.dist[pa][qa] + space.dist[pb][qb]
            cross = min(
                space.dist[pa][pb], space.dist[pa][qb], space.dist[qa][pb], space.dist[qa][qb]
            )
            if lhs > 2 * cross:
                return CheckResult(
                    False, "thm34", "cross-gap", (i, j), (lhs, 2 * cross)
                )
    return CheckResult(True, "thm34")


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
    flat = [r for pq in pairs for r in pq]
    rad = {r: min_positive_radius(space, r) for r in flat}
    dd = {i: space.dist[p][q] for i, (p, q) in enumerate(pairs)}
    for i, (p, q) in enumerate(pairs):
        if dd[i] > rad[p] + rad[q]:
            return CheckResult(
                False, "thm37", "pair-radius", (p, q), (dd[i], rad[p] + rad[q])
            )
    k = len(pairs)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            pa, qa = pairs[i]
            pb, qb = pairs[j]
            base = dd[i] + dd[j]
            if i < j:
                lhs2 = base + rad[pa] + rad[pb] - rad[qa] - rad[qb]
                if lhs2 > 2 * space.dist[pa][pb]:
                    return CheckResult(
                        False, "thm37", "pp", (i, j), (lhs2, 2 * space.dist[pa][pb])
                    )
                lhs4 = base - rad[pa] - rad[pb] + rad[qa] + rad[qb]
                if lhs4 > 2 * space.dist[qa][qb]:
                    return CheckResult(
                        False, "thm37", "qq", (i, j), (lhs4, 2 * space.dist[qa][qb])
                    )
            lhs3 = base + rad[pa] - rad[pb] - rad[qa] + rad[qb]
            if lhs3 > 2 * space.dist[pa][qb]:
                return CheckResult(
                    False, "thm37", "pq", (i, j), (lhs3, 2 * space.dist[pa][qb])
                )
    return CheckResult(True, "thm37")


def check_prop42(space: FiniteMetricSpace, points) -> CheckResult:
    """Spike-family pointwise hypothesis: d(p_n, p_m) >= R(p_n) + R(p_m)."""
    points = _check_anchor_rows(space, points, "point")
    rad = {p: min_positive_radius(space, p) for p in points}
    k = len(points)
    for i in range(k):
        for j in range(i + 1, k):
            lhs = space.dist[points[i]][points[j]]
            rhs = rad[points[i]] + rad[points[j]]
            if lhs < rhs:
                return CheckResult(
                    False, "prop42", "separation", (points[i], points[j]), (lhs, rhs)
                )
    return CheckResult(True, "prop42")


def _seq_radius(model: MetricModel, space: FiniteMetricSpace, n: int) -> Rat:
    return min_positive_radius(space, model.seq_row(n))


def check_thm43(model: MetricModel, N: int) -> CheckResult:
    """Bounded-sequence orbit family hypothesis.

    Finite clauses on the truncation, limit clauses through declared tails:
      "monotone": d(p_n, p_m) non-increasing in each index (the tail part
      needs the model's monotone_tails declaration);
      "radius": R(p_k) >= L(k) - L/2;
      "tail-sum": L(k) + L(l) <= L + d(p_k, p_l).
    """
    if not model.is_sequence_model:
        raise ModelError(f"model {model.name!r} has no sequence structure")
    phi(model, 1, 2)  # raises TailDataError when limits are undeclared
    space = truncate(model, N)
    ns = model.n_seq(N)
    for n in range(1, ns + 1):
        for m in range(1, ns + 1):
            if m == n:
                continue
            d_here = d_seq(model, n, m)
            if m + 1 <= ns and m + 1 != n and d_here < d_seq(model, n, m + 1):
                return CheckResult(
                    False, "thm43", "monotone", (n, m), (d_here, d_seq(model, n, m + 1))
                )
            if n + 1 <= ns and n + 1 != m and d_here < d_seq(model, n + 1, m):
                return CheckResult(
                    False, "thm43", "monotone", (n, m), (d_here, d_seq(model, n + 1, m))
                )
    if not model.monotone_tails:
        return CheckResult(False, "thm43", "monotone-tail-undeclared", (), ())
    half_l = model.L / 2
    for k in range(1, ns + 1):
        r = _seq_radius(model, space, k)
        bound = model.L_pair(k) - half_l
        if r < bound:
            return CheckResult(False, "thm43", "radius", (k,), (r, bound))
    for k in range(1, ns + 1):
        for l in range(k + 1, ns + 1):
            lhs = model.L_pair(k) + model.L_pair(l)
            rhs = model.L + d_seq(model, k, l)
            if lhs > rhs:
                return CheckResult(False, "thm43", "tail-sum", (k, l), (lhs, rhs))
    return CheckResult(True, "thm43")


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
    if not model.is_sequence_model:
        raise ModelError(f"model {model.name!r} has no sequence structure")
    subseq = tuple(as_index(s, "subsequence index") for s in subseq)
    if len(subseq) < 2:
        raise PreconditionError("subsequence needs at least two indices")
    if any(b <= a for a, b in zip(subseq, subseq[1:])):
        raise PreconditionError("subsequence indices must be strictly increasing")
    ns = model.n_seq(N)
    lo = 2 if model.base_aliases_p1 else 1
    if subseq[0] < lo or subseq[-1] > ns:
        raise PreconditionError("subsequence indices out of the truncated range")
    if model.base_limit is None:
        raise TailDataError(f"limits unavailable for model {model.name!r}")
    dlim = model.base_limit
    if dlim <= ZERO:
        return CheckResult(False, "thm45", "positive-limit", (), (dlim,))
    space = truncate(model, N)
    for s in subseq:
        db = d_base(model, s)
        r = _seq_radius(model, space, s)
        if db != r:
            return CheckResult(False, "thm45", "radius-equality", (s,), (db, r))
    for a, b in zip(subseq, subseq[1:]):
        if d_base(model, a) < d_base(model, b):
            return CheckResult(
                False, "thm45", "decreasing", (a, b), (d_base(model, a), d_base(model, b))
            )
    for s in subseq:
        if d_base(model, s) < dlim:
            return CheckResult(
                False, "thm45", "decreasing", (s,), (d_base(model, s), dlim)
            )
    for i in range(len(subseq)):
        for j in range(i + 1, len(subseq)):
            d = d_seq(model, subseq[i], subseq[j])
            if 2 * dlim > d:
                return CheckResult(
                    False, "thm45", "separation", (subseq[i], subseq[j]), (2 * dlim, d)
                )
    return CheckResult(True, "thm45")


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
    if not model.is_sequence_model:
        raise ModelError(f"model {model.name!r} has no sequence structure")
    if model.eps is None or not model.ratio_tends_to_one:
        raise TailDataError(
            f"limits unavailable for model {model.name!r}: no declared slope-ratio limit"
        )
    ns = model.n_seq(N)
    lo = 2 if model.base_aliases_p1 else 1
    eps = _eps_values(model, eps_seq, ns, lo)
    for n in range(lo, ns + 1):
        if eps[n] < ZERO:
            raise PreconditionError(f"epsilon values must be nonnegative, got {eps[n]}")
    for n in range(lo, ns + 1):
        if eps[n] != model.eps(n):
            raise TailDataError(
                "limits unavailable: epsilon sequence differs from the model's "
                f"declared closed form at n={n}"
            )
    space = truncate(model, N)
    g = {n: d_base(model, n) - eps[n] for n in range(lo, ns + 1)}
    for n in range(lo, ns + 1):
        if g[n] < ZERO:
            return CheckResult(False, "thm46", "radius-window", (n,), (g[n], ZERO))
        r = _seq_radius(model, space, n)
        if g[n] > r:
            return CheckResult(False, "thm46", "radius-window", (n,), (g[n], r))
    for n in range(lo, ns + 1):
        for m in range(n + 1, ns + 1):
            if g[n] + g[m] > d_seq(model, n, m):
                return CheckResult(
                    False, "thm46", "ratio", (n, m), (g[n] + g[m], d_seq(model, n, m))
                )
    return CheckResult(True, "thm46")


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
            lhs = phi(model, n, m)
            rhs = psi(model, n) + psi(model, m)
            if not lhs > rhs:
                return CheckResult(
                    False, "thm310", "strict-gap", (n, m), (lhs, rhs)
                )
    if not model.liminf_phi_nonneg:
        return CheckResult(False, "thm310", "liminf-certificate", (), ())
    return CheckResult(True, "thm310")
