"""Differential oracles for the integer free-norm path and integer trees.

``freespace._transport`` and ``freespace._least_optimal_dual`` run on the
space's integer view ``A / D``, and ``rtree.tree_metric`` walks the tree on
edge lengths lifted over one denominator. The Fraction code they replaced
is kept here verbatim. On seeded inputs both must agree exactly: the same
transport value, the same arcs in the same order, the same witness values,
the same errors on triangle-violating matrices, and the same tree spaces.
The integer views the new code hands on must equal the ones computed lazily.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from lipcheck.acceptance import _closure_space
from lipcheck.freespace import (
    FreeElement,
    _least_optimal_dual,
    _transport,
    free_element,
    free_norm_lp,
    molecule,
    free_add,
)
from lipcheck.lipfun import LipFn, lip_norm, lipfn
from lipcheck.metric import (
    CATALOG_NAMES,
    FiniteMetricSpace,
    LipcheckError,
    PreconditionError,
    catalog,
    integer_line,
    make_space,
    truncate,
)
from lipcheck.rational import ONE, ZERO, rat
from lipcheck.rtree import (
    WeightedTree,
    _adjacency,
    _vertex_order,
    four_point_check,
    tree_metric,
    weighted_tree,
)


# ---------------------------------------------------------------------------
# The Fraction code, verbatim


def _shortest_paths_oracle(n, arcs, sources):
    dist = [None] * n
    parent = [None] * n
    for s in sources:
        dist[s] = ZERO
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


def _transport_oracle(mu: FreeElement):
    space = mu.space
    net = dict(mu.weights)
    total = sum(net.values(), ZERO)
    net[0] = net.get(0, ZERO) - total
    pos = [(p, w) for p, w in sorted(net.items()) if w > ZERO]
    neg = [(p, -w) for p, w in sorted(net.items()) if w < ZERO]
    if not pos:
        return ZERO, []

    scale = lcm(*(w.denominator for _, w in pos + neg))
    supply = [int(w * scale) for _, w in pos]
    demand = [int(w * scale) for _, w in neg]
    m, k = len(pos), len(neg)
    flow = [[0] * k for _ in range(m)]
    cost = [[space.dist[p][q] for q, _ in neg] for p, _ in pos]
    forward = [(i, m + j, cost[i][j]) for i in range(m) for j in range(k)]

    while True:
        live = [i for i in range(m) if supply[i] > 0]
        if not live:
            break
        residual = forward + [
            (m + j, i, -cost[i][j]) for i in range(m) for j in range(k) if flow[i][j]
        ]
        found = _shortest_paths_oracle(m + k, residual, live)
        if found is None:
            raise LipcheckError("transport residual graph has a negative cycle")
        dist, parent = found
        open_sinks = [j for j in range(k) if demand[j] > 0 and dist[m + j] is not None]
        if not open_sinks:
            raise LipcheckError("transportation network disconnected")
        target = min(open_sinks, key=lambda j: dist[m + j])

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

    total_cost = ZERO
    arcs = []
    for i in range(m):
        for j in range(k):
            if flow[i][j]:
                total_cost += rat(flow[i][j]) * cost[i][j]
                arcs.append((pos[i][0], neg[j][0]))
    return total_cost / rat(scale), arcs


def _least_optimal_dual_oracle(space: FiniteMetricSpace, arcs) -> LipFn:
    n = space.n_points
    reversed_arcs = [(p, q, space.dist[p][q]) for p in range(n) for q in range(n) if p != q]
    reversed_arcs += [(t, s, -space.dist[s][t]) for s, t in arcs]
    found = _shortest_paths_oracle(n, reversed_arcs, [0])
    if found is None:
        raise PreconditionError(
            "optimal transport arcs admit no 1-Lipschitz dual: "
            "the distances violate the triangle inequality"
        )
    return lipfn(space, tuple(-x for x in found[0]))


def _tree_metric_oracle(tree: WeightedTree) -> FiniteMetricSpace:
    n = tree.n_vertices
    adj = _adjacency(n, tree.edges)
    order = _vertex_order(tree)
    pos = {v: i for i, v in enumerate(order)}

    dist = [[ZERO] * n for _ in range(n)]
    for src in range(n):
        acc = {src: ZERO}
        stack = [src]
        while stack:
            x = stack.pop()
            for y, w in adj[x]:
                if y not in acc:
                    acc[y] = acc[x] + w
                    stack.append(y)
        for v, d in acc.items():
            dist[pos[src]][pos[v]] = d

    labels = [f"v{v}" for v in order]
    return make_space(dist, labels=labels, name=f"tree{n}")


# ---------------------------------------------------------------------------
# Helpers


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except LipcheckError as exc:
        return type(exc), str(exc)


def _assert_same_solve(mu):
    """Transport value and arcs in order, witness values and its handed view,
    and the certified solve, all equal to the Fraction route."""
    space = mu.space
    value, arcs = _transport(mu)
    old_value, old_arcs = _transport_oracle(mu)
    assert value == old_value
    assert type(value) is Fraction
    assert arcs == old_arcs
    new = _outcome(_least_optimal_dual, space, arcs)
    old = _outcome(_least_optimal_dual_oracle, space, arcs)
    if old[0] != "ok":
        assert new == old
        return None
    assert new[0] == "ok"
    witness = new[1]
    assert witness.values == old[1].values
    F, D = witness.lifted
    assert D > 0
    assert all(Fraction(x, D) == v for x, v in zip(F, witness.values))
    assert lip_norm(witness) == lip_norm(lipfn(space, witness.values))
    if mu.weights:
        result = free_norm_lp(mu)
        assert result.value == old_value
        assert result.witness.values == old[1].values
    return witness


def _random_weights(rng, n, lo=0):
    return {
        p: rat(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7)))
        for p in rng.sample(range(lo, n), rng.randint(1, n - lo))
    }


def _alternating(space):
    return free_element(
        space, {p: rat((-1) ** p * p, p + 1) for p in range(1, space.n_points)}
    )


# ---------------------------------------------------------------------------
# Transport and least optimal dual


def test_transport_and_dual_match_oracle_on_closure_spaces():
    rng = random.Random(20261018)
    for k in range(300):
        n = 2 + k % 11
        space = _closure_space(rng, n)
        _assert_same_solve(free_element(space, _random_weights(rng, n)))


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("n", [10, 32])
def test_transport_and_dual_match_oracle_on_catalog_truncations(name, n):
    space = truncate(catalog(name), n)
    rng = random.Random(f"int-free:{name}:{n}")
    _assert_same_solve(_alternating(space))
    _assert_same_solve(free_element(space, _random_weights(rng, n, lo=1)))
    rows = rng.sample(range(1, n), 8)
    mu = free_element(space, {})
    for p, q in zip(rows[0::2], rows[1::2]):
        mu = free_add(mu, molecule(space, p, q))
    _assert_same_solve(mu)


@pytest.mark.parametrize("name", ["discrete", "integer_line"])
def test_transport_and_dual_match_oracle_on_tie_heavy_spaces(name):
    """Small integer distances and weights: many optimal plans, many equal
    path lengths. Ties must break exactly as on the Fractions."""
    model = integer_line() if name == "integer_line" else catalog(name)
    space = truncate(model, 12)
    rng = random.Random(f"int-free-ties:{name}")
    for _ in range(40):
        rows = rng.sample(range(space.n_points), rng.randint(2, 11))
        weights = {p: rat(rng.choice((-2, -1, 1, 2))) for p in rows}
        _assert_same_solve(free_element(space, weights))


def test_transport_and_dual_match_oracle_on_mixed_denominators():
    """Distances over coprime denominators, so D is their product and the
    integer costs are far from the Fraction numerators."""
    rng = random.Random(17)
    dens = (1, 2, 3, 5, 7, 11, 13)
    for n in range(2, 9):
        for _ in range(6):
            dist = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    dist[i][j] = dist[j][i] = ONE + rat(rng.randint(0, 12), rng.choice(dens))
            space = make_space(dist)  # values in [1, 2]: a metric
            _assert_same_solve(free_element(space, _random_weights(rng, n)))


def test_empty_element_and_weight_at_the_base():
    space = truncate(catalog("dmqr41"), 6)
    assert _transport(free_element(space, {})) == (ZERO, [])
    assert _transport(free_element(space, {0: rat(3, 2)})) == (ZERO, [])
    _assert_same_solve(free_element(space, {}))
    _assert_same_solve(free_element(space, {0: rat(-5, 3), 2: rat(1, 2), 4: rat(-1, 7)}))
    _assert_same_solve(free_element(space, {0: ONE, 3: ONE}))


def test_triangle_violating_matrices_fail_as_the_oracle_does():
    """Positive symmetric matrices without the closure step: the transport
    still runs, and the dual pass raises the same PreconditionError with the
    same message exactly when the Fraction pass does."""
    rng = random.Random(99)
    failures = 0
    for k in range(150):
        n = 3 + k % 6
        dist = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = rat(rng.randint(1, 20), rng.randint(1, 3))
        space = make_space(dist)
        mu = free_element(space, _random_weights(rng, n))
        if _assert_same_solve(mu) is None:
            failures += 1
            with pytest.raises(PreconditionError, match="triangle inequality"):
                free_norm_lp(mu)
    assert failures > 10


# ---------------------------------------------------------------------------
# Integer trees


def _random_tree(rng, n):
    edges = [
        (v, rng.randrange(v), rat(rng.randint(1, 30), rng.choice((1, 2, 3, 4, 6, 9, 10))))
        for v in range(1, n)
    ]
    return weighted_tree(n, edges, base=rng.randrange(n))


def _assert_same_tree(tree):
    space = tree_metric(tree)
    old = _tree_metric_oracle(tree)
    assert space.dist == old.dist
    assert all(type(x) is Fraction for row in space.dist for x in row)
    assert space.labels == old.labels
    assert space.name == old.name
    handed = space.scaled
    lazy = make_space(space.dist, space.labels, space.name).scaled
    assert handed == lazy
    return space


def test_tree_metric_matches_oracle_on_seeded_trees():
    rng = random.Random(20261018)
    for k in range(600):
        _assert_same_tree(_random_tree(rng, 1 + k % 14))


def test_tree_metric_view_on_edge_cases():
    """One vertex, unit lengths, a non-base root, and lengths over coprime
    denominators whose sums cancel some of them: the handed view is still
    the lazily computed one, since each edge length is itself a distance."""
    _assert_same_tree(weighted_tree(1, []))
    _assert_same_tree(weighted_tree(3, [(0, 1, 1), (1, 2, 1)], base=2))
    space = _assert_same_tree(weighted_tree(3, [(0, 1, rat(1, 2)), (1, 2, rat(1, 2))]))
    assert space.scaled == (((0, 1, 2), (1, 0, 1), (2, 1, 0)), 2)
    space = _assert_same_tree(
        weighted_tree(4, [(0, 1, rat(1, 2)), (1, 2, rat(1, 3)), (2, 3, rat(7, 6))], base=3)
    )
    assert space.scaled[1] == 6 and space.dist[0][1] == 2
    space = _assert_same_tree(weighted_tree(2, [(0, 1, rat(4, 6))]))
    assert space.scaled == (((0, 2), (2, 0)), 3)
    assert four_point_check(space)
