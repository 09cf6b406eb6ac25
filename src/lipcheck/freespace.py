"""Exact free-space norms on finite metric spaces.

The norm of a finitely supported element mu = sum w_x delta_x is the cost
of one exact min-cost transport of its positive part onto its negative
part. One flow loop, ``_min_cost_flow`` (successive shortest paths on the
residual graph), serves both min-cost problems of the module: the free
norm's transport, and the matching criterion, an assignment with unit
masses whose integer costs carry a tie-break term, so a cheaper
permutation, when one exists, is reported as the lexicographically first
of minimum cost. One Bellman-Ford kernel, ``_shortest_paths``, does all
the path work: it finds each augmenting path of the flow loop, and one
more pass over the difference constraints tight on the arcs that carry
flow gives the least optimal 1-Lipschitz function as the dual witness.
Each element is solved once and its result certified once, by weak
duality (the witness sits in the unit ball and pairs with mu to the
transport cost). The tests keep a dense exact simplex over the dual ball
and a brute-force vertex oracle as independent routes, and a Hungarian
solver as the matching's differential oracle.

Both passes run on the space's integer view ``A / D``
(:attr:`~lipcheck.metric.FiniteMetricSpace.scaled`) and the masses scaled
to integers: path lengths are integer sums, and since ``D > 0`` every
comparison and tie is the one the rationals give, so the paths and arcs
are too. One Fraction is built per result: the transport cost, the
matching's identity and best costs, and each witness value, built on
first read from the witness's stored integer view, which the certificate
reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm

from .lipfun import LipFn, lip_norm, reduced_fn, zero_fn
from .metric import FiniteMetricSpace, LipcheckError, PreconditionError, StructureError, as_index
from .rational import Rat, ZERO, ONE, parse_rat, rat


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


def _point(space: FiniteMetricSpace, p) -> int:
    p = as_index(p, "point index")
    if not 0 <= p < space.n_points:
        raise PreconditionError(f"point index {p} outside the space")
    return p


def free_element(space: FiniteMetricSpace, weights) -> FreeElement:
    if isinstance(weights, dict):
        items = weights.items()
    else:
        items = list(weights)
    out = {}
    for p, w in items:
        p = _point(space, p)
        w = rat(w)
        if w != ZERO:
            out[p] = out.get(p, ZERO) + w
    return FreeElement(space, {p: w for p, w in out.items() if w != ZERO})


def molecule(space: FiniteMetricSpace, p: int, q: int) -> FreeElement:
    """(delta_p - delta_q) / d(p, q)."""
    p, q = _point(space, p), _point(space, q)
    if p == q:
        raise PreconditionError("molecule needs two distinct points")
    d = space.d(p, q)
    return free_element(space, {p: ONE / d, q: -ONE / d})


def free_add(a: FreeElement, b: FreeElement) -> FreeElement:
    if a.space is not b.space and a.space.scaled != b.space.scaled:
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
    if mu.space is not f.space and mu.space.scaled != f.space.scaled:
        raise PreconditionError("element and function live on different spaces")
    total = ZERO
    for p, w in mu.weights.items():
        total += w * f.values[p]
    return total


# ---------------------------------------------------------------------------
# Min-cost transportation and its least optimal dual


def _shortest_paths(n, arcs, sources):
    """Bellman-Ford over arcs (u, v, weight) with integer weights on nodes
    0..n-1 from sources at distance 0: (dist, parent) with None where no
    arc reached, or None if a negative cycle is reachable (a change in
    round n)."""
    dist = [None] * n
    parent = [None] * n
    for s in sources:
        dist[s] = 0
    for _ in range(n):
        changed = False
        for u, v, w in arcs:
            if dist[u] is not None:
                nd = dist[u] + w
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    changed = True
        if not changed:
            return dist, parent
    return None


def _min_cost_flow(supply, demand, cost):
    """Exact min-cost flow of integer supplies onto integer demands over the
    complete bipartite graph with integer arc costs ``cost[i][j]``: the
    integer flow matrix.

    Nodes are the sources 0..m-1 and the sinks m..m+k-1; each augmenting
    path is a shortest path from the live sources on the residual graph,
    whose reverse arcs carry negative cost, to the nearest open sink
    (successive shortest paths). The supplies must not exceed the demands.
    """
    supply, demand = list(supply), list(demand)
    m, k = len(supply), len(demand)
    flow = [[0] * k for _ in range(m)]
    forward = [(i, m + j, cost[i][j]) for i in range(m) for j in range(k)]

    while True:
        live = [i for i in range(m) if supply[i] > 0]
        if not live:
            break
        residual = forward + [
            (m + j, i, -cost[i][j]) for i in range(m) for j in range(k) if flow[i][j]
        ]
        found = _shortest_paths(m + k, residual, live)
        if found is None:
            raise LipcheckError("transport residual graph has a negative cycle")
        dist, parent = found
        open_sinks = [j for j in range(k) if demand[j] > 0 and dist[m + j] is not None]
        if not open_sinks:
            raise LipcheckError("transportation network disconnected")
        target = min(open_sinks, key=lambda j: dist[m + j])

        # Follow the parents back to a live source; a sink-to-source step
        # runs a reverse arc, which caps the amount by the flow it cancels.
        path = []
        start = m + target
        while parent[start] is not None:
            path.append((parent[start], start))
            start = parent[start]
        amount = min([supply[start], demand[target]]
                     + [flow[v][u - m] for u, v in path if u >= m])
        for u, v in path:
            if u < m:
                flow[u][v - m] += amount
            else:
                flow[v][u - m] -= amount
        supply[start] -= amount
        demand[target] -= amount
    return flow


def _transport(mu: FreeElement):
    """Exact min-cost transport of mu+ onto mu-: (cost, arcs carrying flow).

    The net imbalance is absorbed at the base point (delta_0 is the zero
    vector, so this does not change the element). Masses are scaled to
    integers so every augmentation moves at least one unit, and costs are
    the integer distances ``A`` (``d == A / D``), handed to
    ``_min_cost_flow``. Arcs are (source point, sink point).
    """
    space = mu.space
    net = dict(mu.weights)
    total = sum(net.values(), ZERO)
    net[0] = net.get(0, ZERO) - total
    pos = [(p, w) for p, w in sorted(net.items()) if w > ZERO]
    neg = [(p, -w) for p, w in sorted(net.items()) if w < ZERO]
    if not pos:
        return ZERO, []

    scale = lcm(*(w.denominator for _, w in pos + neg))
    supply = [w.numerator * (scale // w.denominator) for _, w in pos]
    demand = [w.numerator * (scale // w.denominator) for _, w in neg]
    A, D = space.scaled
    cost = [[A[p][q] for q, _ in neg] for p, _ in pos]
    flow = _min_cost_flow(supply, demand, cost)

    total_cost = 0
    arcs = []
    for i in range(len(pos)):
        for j in range(len(neg)):
            if flow[i][j]:
                total_cost += flow[i][j] * cost[i][j]
                arcs.append((pos[i][0], neg[j][0]))
    return Rat(total_cost, scale * D), arcs


def free_norm_flow(mu: FreeElement) -> Rat:
    """Free norm as exact min-cost transport of mu+ onto mu-."""
    return _transport(mu)[0]


def _least_optimal_dual(space: FiniteMetricSpace, arcs) -> LipFn:
    """Pointwise-least f with f(0) = 0, |f(p) - f(q)| <= d(p, q), and
    f(s) - f(t) = d(s, t) on every arc (s, t).

    Each constraint f(a) - f(b) <= w is an arc b -> a of weight w, so
    f(v) >= -dist(v, 0) for the shortest-path distance to the base point,
    with equality attained (CLRS 24.4), found from the base point over
    the reversed arcs. A negative cycle, which only a matrix violating
    the triangle inequality can produce, leaves no solution. The pass runs
    on the integer distances ``A`` (``d == A / D``), so ``f == F / D`` with
    ``F`` minus the integer path lengths; the witness is that view, reduced.
    """
    A, D = space.scaled
    n = space.n_points
    reversed_arcs = [(p, q, A[p][q]) for p in range(n) for q in range(n) if p != q]
    reversed_arcs += [(t, s, -A[s][t]) for s, t in arcs]
    found = _shortest_paths(n, reversed_arcs, [0])
    if found is None:
        raise PreconditionError(
            "optimal transport arcs admit no 1-Lipschitz dual: "
            "the distances violate the triangle inequality"
        )
    return reduced_fn(space, tuple(-x for x in found[0]), D)


@dataclass(frozen=True)
class FreeNormResult:
    value: Rat
    witness: LipFn
    witness_norm: Rat


def free_norm_lp(mu: FreeElement) -> FreeNormResult:
    """Free norm as max of <mu, f> over the unit dual ball, with witness.

    By Kantorovich-Rubinstein duality and complementary slackness, the
    optimal f are the 1-Lipschitz f with f(0) = 0 that are tight on every
    arc of an optimal transport plan, whichever optimal plan is found. The
    witness is the pointwise-least of them, hence also the
    lexicographically smallest optimal point. It is returned only after it
    is certified by weak duality: its norm (``witness_norm``) is at most 1
    and it pairs with mu to the transport cost. A failed certificate
    raises ``LipcheckError``.
    """
    space = mu.space
    if not mu.weights:
        return FreeNormResult(ZERO, zero_fn(space), ZERO)
    value, arcs = _transport(mu)
    witness = _least_optimal_dual(space, arcs)
    witness_norm = lip_norm(witness)
    if witness_norm > ONE:
        raise LipcheckError("dual witness escaped the unit ball")
    if pairing(mu, witness) != value:
        raise LipcheckError("dual witness does not pair to the transport cost")
    return FreeNormResult(value, witness, witness_norm)


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


def matching_min_check(space: FiniteMetricSpace, match_pairs) -> MatchingResult:
    """Is the identity matching u_i -> v_i minimum-weight among all
    bijections of {u_i} onto {v_j}? False comes with a cheaper permutation.

    One ``_min_cost_flow`` with unit supplies and demands on the integer
    costs A[u_i][v_j] * k**k + j * k**(k-1-i), with ``A`` the space's
    integer view (``d == A / D``). The added term of a permutation is the
    permutation read as a base-k number, below k**k, so it only breaks ties
    and the minimum is unique: the reported permutation is the
    lexicographically first of minimum cost. The identity is reported
    unless it is strictly beaten.
    """
    match_pairs = [(_point(space, u), _point(space, v)) for u, v in match_pairs]
    if not match_pairs:
        return MatchingResult(True, (), ZERO, ZERO)
    k = len(match_pairs)
    A, D = space.scaled
    flow = _min_cost_flow([1] * k, [1] * k, [
        [A[u][v] * k ** k + j * k ** (k - 1 - i) for j, (_, v) in enumerate(match_pairs)]
        for i, (u, _) in enumerate(match_pairs)
    ])
    perm = tuple(row.index(1) for row in flow)
    identity = sum(A[u][v] for u, v in match_pairs)
    best = sum(A[u][match_pairs[j][1]] for (u, _), j in zip(match_pairs, perm))
    if best < identity:
        return MatchingResult(False, perm, Rat(identity, D), Rat(best, D))
    identity = Rat(identity, D)
    return MatchingResult(True, tuple(range(k)), identity, identity)


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

_INDEX_RE = re.compile(r"0|[1-9][0-9]*")


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
    # One spelling per index, as parse_rat has one per value: int() would
    # read "01", " 1", "+1" and "1_0", and two keys naming one point would
    # silently replace each other.
    bad = [p for p in raw if not _INDEX_RE.fullmatch(p)]
    if bad:
        raise StructureError(f"not a canonical point index: {bad[0]!r}")
    try:
        weights = {int(p): parse_rat(w) for p, w in raw.items()}
    except ValueError as exc:
        raise StructureError(str(exc)) from None
    return free_element(space, weights)
