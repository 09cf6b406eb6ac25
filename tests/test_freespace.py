import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import matching_oracle
from builders import delta
from lipcheck.embeddings import check_thm310
from lipcheck.freespace import (
    ComplementationRow,
    complementation_test,
    free_add,
    free_element,
    free_from_json,
    free_norm_flow,
    free_norm_lp,
    free_scale,
    matching_min_check,
    molecule,
    pairing,
)
from lipcheck.lipfun import lip_norm, lipfn, zero_fn
from lipcheck.metric import (
    PreconditionError,
    StructureError,
    TailDataError,
    catalog,
    integer_line,
    make_space,
    truncate,
)
from lipcheck.rational import ONE, ZERO, rat


# ---------------------------------------------------------------------------
# Brute-force vertex oracle: an independent third route for small spaces

VERTEX_ORACLE_MAX_POINTS = 6


def _pruefer_trees(n):
    """All labeled spanning trees on n nodes as edge lists."""
    if n == 2:
        yield [(0, 1)]
        return
    seq = [0] * (n - 2)
    while True:
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        seq_iter = list(seq)
        edges = []
        leaves = sorted(i for i in range(n) if degree[i] == 1)
        for x in seq_iter:
            leaf = leaves.pop(0)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                # keep the leaf pool sorted so decoding is deterministic
                lo, hi = 0, len(leaves)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if leaves[mid] < x:
                        lo = mid + 1
                    else:
                        hi = mid
                leaves.insert(lo, x)
        edges.append((leaves[0], leaves[1]))
        yield edges
        for i in range(n - 3, -1, -1):
            if seq[i] < n - 1:
                seq[i] += 1
                for j in range(i + 1, n - 2):
                    seq[j] = 0
                break
        else:
            return


def free_norm_vertex_oracle(mu):
    """Free norm by enumerating candidate vertices of the dual ball.

    Every vertex of the ball is determined by a spanning tree of tight
    constraints with a sign per edge; propagate values from the base,
    keep the feasible ones, and take the best objective. Exponential, so
    capped at 6 points; larger spaces are covered by the LP/flow pair.
    """
    space = mu.space
    n = space.n_points
    if n > VERTEX_ORACLE_MAX_POINTS:
        raise PreconditionError(
            f"vertex oracle is exponential; limit is {VERTEX_ORACLE_MAX_POINTS} points"
        )
    if not mu.weights:
        return ZERO

    best = ZERO  # f = 0 is always feasible
    for edges in _pruefer_trees(n):
        adj = {i: [] for i in range(n)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        for mask in range(2 ** (n - 1)):
            sign_of = {}
            for idx, (a, b) in enumerate(edges):
                sign_of[(a, b)] = ONE if (mask >> idx) & 1 else -ONE
                sign_of[(b, a)] = -sign_of[(a, b)]
            values = [None] * n
            values[0] = ZERO
            stack = [0]
            while stack:
                a = stack.pop()
                for b in adj[a]:
                    if values[b] is None:
                        values[b] = values[a] + sign_of[(a, b)] * space.d(a, b)
                        stack.append(b)
            feasible = True
            for p in range(n):
                for q in range(p + 1, n):
                    gap = values[p] - values[q]
                    if gap < ZERO:
                        gap = -gap
                    if gap > space.d(p, q):
                        feasible = False
                        break
                if not feasible:
                    break
            if not feasible:
                continue
            val = sum(
                (w * values[p] for p, w in mu.weights.items()), ZERO
            )
            if val > best:
                best = val
    return best


# ---------------------------------------------------------------------------
# Branch-and-bound matching oracle: scans columns in increasing order and
# keeps strict improvements only, so it returns the lexicographically first
# permutation of minimum cost, or the identity when nothing beats it.


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


def _cost_space(cost):
    """Points u_0..u_{k-1}, v_0..v_{k-1} with d(u_i, v_j) = cost[i][j] and
    pairs (u_i, v_i). Only cross distances matter to the matching, so the
    others are 1 and the axioms are not checked."""
    k = len(cost)
    rows = [[rat(0 if a == b else 1) for b in range(2 * k)] for a in range(2 * k)]
    for i in range(k):
        for j in range(k):
            rows[i][k + j] = rows[k + j][i] = cost[i][j]
    return make_space(rows), [(i, k + i) for i in range(k)]


DISCRETE5 = truncate(catalog("discrete"), 5)


def test_element_canonicalization():
    mu = free_element(DISCRETE5, {1: rat(1, 2), 2: rat(-1, 2), 3: 0})
    assert mu.weights == {1: rat(1, 2), 2: rat(-1, 2)}
    combined = free_add(mu, free_scale(mu, -1))
    assert combined.weights == {}
    with pytest.raises(PreconditionError):
        free_element(DISCRETE5, {7: 1})
    with pytest.raises(PreconditionError):
        molecule(DISCRETE5, 2, 2)


def test_delta_norm_is_base_distance():
    space = truncate(catalog("example35"), 5)
    for p in range(1, 5):
        mu = delta(space, p)
        res = free_norm_lp(mu)
        assert res.value == space.d(p, 0)
        assert free_norm_flow(mu) == space.d(p, 0)
        assert free_norm_vertex_oracle(mu) == space.d(p, 0)
        assert lip_norm(res.witness) <= rat(1)
        assert pairing(mu, res.witness) == res.value


def test_molecule_norm_is_one():
    space = truncate(catalog("example44"), 6)
    for p, q in [(1, 2), (0, 3), (2, 5)]:
        mu = molecule(space, p, q)
        assert free_norm_lp(mu).value == rat(1)
        assert free_norm_flow(mu) == rat(1)


def test_discrete_two_deltas():
    space = truncate(catalog("discrete"), 3)
    mu = free_add(delta(space, 1), delta(space, 2))
    assert free_norm_lp(mu).value == rat(2)
    assert free_norm_flow(mu) == rat(2)
    assert free_norm_vertex_oracle(mu) == rat(2)


def test_base_weight_is_inert():
    space = truncate(catalog("example33"), 4)
    mu = delta(space, 2)
    nu = free_add(mu, free_scale(delta(space, 0), 3))
    assert free_norm_lp(nu).value == free_norm_lp(mu).value
    assert free_norm_flow(nu) == free_norm_flow(mu)

    zero = free_element(space, {})
    res = free_norm_lp(zero)
    assert res.value == rat(0)
    assert res.witness == zero_fn(space)
    assert free_norm_flow(zero) == rat(0)
    assert free_norm_vertex_oracle(zero) == rat(0)


def test_dmqr41_shadow_frozen_oracle():
    space = truncate(catalog("dmqr41"), 6)
    # rows are p1..p6 on this alias model
    res = matching_min_check(space, [(0, 1), (2, 3)])
    assert not res
    assert res.identity_cost == rat(11, 4)
    assert res.best_cost == rat(31, 12)
    assert res.permutation == (1, 0)

    mu = free_add(molecule(space, 0, 1), molecule(space, 2, 3))
    lp = free_norm_lp(mu)
    assert lp.value == rat(17, 9)
    assert free_norm_flow(mu) == rat(17, 9)
    assert free_norm_vertex_oracle(mu) == rat(17, 9)
    assert lp.value < rat(2)
    # Lexicographically smallest optimal vertex, frozen by hand.
    assert lp.witness.values == (
        rat(0), rat(-4, 3), rat(0), rat(-5, 4), rat(-6, 5), rat(-7, 6)
    )


def test_matching_basic_cases():
    line = truncate(integer_line(), 6)
    assert matching_min_check(line, [])
    assert matching_min_check(line, [(0, 3)])
    assert matching_min_check(line, [(0, 1), (2, 3)])
    res = matching_min_check(line, [(0, 3), (2, 1)])
    assert not res
    assert res.best_cost == rat(2)
    assert res.identity_cost == rat(4)


def test_matching_large_integer_line():
    line = truncate(integer_line(), 24)
    pairs = [(2 * i, 2 * i + 1) for i in range(10)] + [(20, 23), (22, 21)]
    res = matching_min_check(line, pairs)
    assert not res
    assert res.identity_cost == rat(14)
    assert res.best_cost == rat(12)
    assert res.permutation[:10] == tuple(range(10))
    assert (res.permutation[10], res.permutation[11]) == (11, 10)


def test_matching_agrees_with_dfs_oracle():
    rng = random.Random(20260815)
    for _ in range(20):
        k = rng.randint(2, 5)
        cost = [
            [rat(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k)]
            for _ in range(k)
        ]
        identity = sum((cost[i][i] for i in range(k)), rat(0))
        dfs_val, _ = _assignment_dfs(cost, identity)
        res = matching_min_check(*_cost_space(cost))
        assert res.identity_cost == identity
        assert res.best_cost == dfs_val


def test_matching_tie_break_matches_dfs_oracle_and_brute_force():
    """On tie-heavy costs the one min-cost flow reports the same cheaper
    permutation as the branch-and-bound oracle, and for k <= 7 the same as
    the lexicographically first minimum over all permutations."""
    rng = random.Random(7001)
    beaten = 0
    for k in range(2, 11):
        for _ in range(45):
            cost = [
                [rat(rng.randint(1, 6), rng.randint(1, 2)) for _ in range(k)]
                for _ in range(k)
            ]
            identity = sum((cost[i][i] for i in range(k)), rat(0))
            res = matching_min_check(*_cost_space(cost))
            dfs_val, dfs_perm = _assignment_dfs(cost, identity)
            assert res.identity_cost == identity
            assert (res.best_cost, res.permutation) == (dfs_val, dfs_perm)
            assert bool(res) == (dfs_val == identity)
            beaten += not res
            if k <= 7:
                brute = min(
                    itertools.permutations(range(k)),
                    key=lambda perm: sum(cost[i][j] for i, j in enumerate(perm)),
                )
                brute_val = sum(cost[i][j] for i, j in enumerate(brute))
                if brute_val < identity:
                    assert (res.best_cost, res.permutation) == (brute_val, brute)
                else:
                    assert res.permutation == tuple(range(k))
    assert beaten > 300


def _differential_matching_instances():
    """(space, pairs) for the flow-against-Hungarian test: the 405
    tie-break instances, k = 1, 11 and 12, pairs that share points on the
    discrete and dmqr41 truncations, and the integer_line(24) case."""
    rng = random.Random(7001)
    for k in range(2, 11):
        for _ in range(45):
            cost = [
                [rat(rng.randint(1, 6), rng.randint(1, 2)) for _ in range(k)]
                for _ in range(k)
            ]
            yield _cost_space(cost)
    rng = random.Random(7002)
    for k in (1, 11, 12):
        for _ in range(15):
            cost = [
                [rat(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(k)
            ]
            yield _cost_space(cost)
    rng = random.Random(7003)
    for name in ("discrete", "dmqr41"):
        space = truncate(catalog(name), 6)
        yield space, [(0, 1), (1, 2), (2, 0)]
        yield space, [(0, 0), (1, 1)]
        for k in range(1, 8):
            for _ in range(10):
                yield space, [(rng.randrange(6), rng.randrange(6)) for _ in range(k)]
    pairs = [(2 * i, 2 * i + 1) for i in range(10)] + [(20, 23), (22, 21)]
    yield truncate(integer_line(), 24), pairs


def test_matching_flow_matches_hungarian_oracle():
    """The min-cost flow returns the Hungarian route's whole result,
    permutation and Fraction cost sums included, on every seeded set."""
    results = []
    for space, pairs in _differential_matching_instances():
        res = matching_min_check(space, pairs)
        assert res == matching_oracle.matching_min_check(space, pairs), pairs
        results.append(res)
    assert len(results) == 405 + 45 + 2 * (2 + 70) + 1
    beaten = [r for r in results if not r]
    assert len(beaten) > 300
    # Some cheaper permutations are not involutions, so a flow read
    # transposed (the inverse permutation) would be caught.
    assert any(
        any(r.permutation[r.permutation[i]] != i for i in range(len(r.permutation)))
        for r in beaten
    )


def test_matching_and_molecule_reject_bad_indices():
    """A negative or too large point index is named, never read as another
    row or left to an IndexError."""
    line = truncate(integer_line(), 6)
    for bad in (-1, 6, 9):
        for call in (
            lambda: matching_min_check(line, [(0, bad), (2, 3)]),
            lambda: matching_min_check(line, [(bad, 0)]),
            lambda: molecule(line, 0, bad),
            lambda: molecule(line, bad, 0),
        ):
            with pytest.raises(PreconditionError, match=f"point index {bad} outside"):
                call()


def test_non_integer_point_indices_are_named_not_truncated():
    """A float or string index is refused with its own spelling; 1.7 is
    not read as row 1."""
    line = truncate(integer_line(), 6)
    for bad, call in (
        ("1.7", lambda: free_element(line, {1.7: 1})),
        ("2.0", lambda: free_element(line, [(2.0, 1)])),
        ("0.9", lambda: molecule(line, 0.9, 2.2)),
        ("2.2", lambda: molecule(line, 1, 2.2)),
        ("'1'", lambda: delta(line, "1")),
        ("0.5", lambda: matching_min_check(line, [(0.5, 1)])),
    ):
        with pytest.raises(PreconditionError, match=f"point index {re.escape(bad)} is not an integer"):
            call()


def test_check_thm310_instances():
    assert check_thm310(catalog("dmqr41"), 12)
    res = check_thm310(catalog("example48"), 12)
    assert not res
    assert res.clause == "strict-gap"
    assert res.witness_indices == (1, 2)
    assert res.witness_values == (rat(-5, 9), rat(-4, 9))

    res24 = check_thm310(catalog("prop24"), 8)
    assert not res24
    assert res24.witness_indices == (1, 2)

    with pytest.raises(TailDataError):
        check_thm310(catalog("dmqr44"), 8)


def test_complementation_on_discrete_pairs():
    space = DISCRETE5
    pairs = [(1, 2), (3, 4)]
    half = rat(1, 2)
    duals = [
        lipfn(space, [0, half, -half, 0, 0]),
        lipfn(space, [0, 0, 0, half, -half]),
    ]
    # Projection of a molecule onto its own family is itself.
    mols = [molecule(space, p, q) for p, q in pairs]
    report = complementation_test(pairs, duals, mols + [delta(space, 0)])
    assert report.passed
    assert report.rows[0].norm_projection == report.rows[0].norm_mu
    assert report.rows[2].norm_mu == rat(0)

    # Sign combinations of the molecules reach the full pair count.
    for s1 in (1, -1):
        for s2 in (1, -1):
            mu = free_add(free_scale(mols[0], s1), free_scale(mols[1], s2))
            assert free_norm_lp(mu).value == rat(2)
            assert free_norm_flow(mu) == rat(2)

    with pytest.raises(PreconditionError):
        complementation_test(pairs, duals[:1], mols)
    with pytest.raises(PreconditionError):
        complementation_test(pairs, [duals[0], lipfn(space, [0, 2, 0, 0, 0])], mols)


def test_complementation_reports_its_first_failing_sample():
    """Two copies of one dual double the coefficient sum at δ₁, where the
    norm is 1; the sample before it, δ₁ − δ₂, pairs to zero with both."""
    space = make_space([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    f = lipfn(space, [0, 1, 1])
    samples = [free_add(delta(space, 1), free_scale(delta(space, 2), -1)), delta(space, 1)]
    report = complementation_test([(1, 0), (2, 0)], [f, f], samples)
    assert not report.passed and report.first_failure == 1
    assert report.rows[0].ok and report.rows[0].norm_mu == rat(2)
    assert report.rows[1] == ComplementationRow(rat(1), rat(2), rat(2))
    assert not report.rows[1].ok


def test_pairing_identities():
    space = truncate(catalog("prop23"), 5)
    a = [rat(1), rat(-1), rat(1, 2), rat(0)]
    f = lipfn(space, [rat(0)] + a)
    for n in range(1, 5):
        assert pairing(molecule(space, n, 0), f) == a[n - 1]
    other = truncate(catalog("discrete"), 5)
    with pytest.raises(PreconditionError):
        pairing(delta(other, 1), f)


def _random_space(rng, n):
    if rng.random() < 0.5:
        coords = rng.sample(range(-30, 30), n)
        return make_space([[rat(abs(a - b)) for b in coords] for a in coords])
    rows = [[rat(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = rat(rng.randint(4, 8), 4)  # within [1, 2]: triangle automatic
            rows[i][j] = rows[j][i] = d
    return make_space(rows)


def test_three_routes_agree_on_seeded_battery():
    rng = random.Random(74123)
    for _ in range(25):
        n = rng.randint(2, 6)
        space = _random_space(rng, n)
        weights = {}
        for p in range(n):
            if rng.random() < 0.7:
                den = rng.randint(1, 6)
                weights[p] = rat(rng.randint(-3 * den, 3 * den), den)
        mu = free_element(space, weights)
        res = free_norm_lp(mu)
        assert free_norm_flow(mu) == res.value
        assert free_norm_vertex_oracle(mu) == res.value
        assert lip_norm(res.witness) <= rat(1)
        assert pairing(mu, res.witness) == res.value


def test_vertex_oracle_size_guard():
    space = truncate(catalog("discrete"), 7)
    with pytest.raises(PreconditionError):
        free_norm_vertex_oracle(delta(space, 1))


def test_json_roundtrip():
    space = truncate(catalog("dmqr41"), 4)
    mu = free_element(space, {1: rat(1, 2), 3: rat(-2)})
    blob = {"space": "dmqr41", "weights": {"1": "1/2", "3": "-2"}}
    assert free_from_json(blob, space).weights == mu.weights
    with pytest.raises(StructureError):
        free_from_json({"space": "other", "weights": {}}, space)
    with pytest.raises(StructureError):
        free_from_json({"space": "dmqr41", "weights": {"1": "2/4"}}, space)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
)
def test_pairing_bounded_by_norm_product(ws, fs):
    space = truncate(catalog("example33"), 5)
    mu = free_element(space, {p + 1: rat(w, 3) for p, w in enumerate(ws)})
    f = lipfn(space, [rat(0)] + [rat(v, 5) for v in fs])
    val = pairing(mu, f)
    if val < rat(0):
        val = -val
    assert val <= free_norm_lp(mu).value * lip_norm(f)
