"""The matching criterion's Hungarian route, kept as a differential oracle.

``matching_min_check`` solves the assignment as a unit-mass min-cost flow
on ``freespace._min_cost_flow``. This module keeps the solver it replaced
verbatim: an exact dense Hungarian algorithm (Kuhn 1955) on the same
tie-broken integer costs, with the identity and best costs summed as
``Fraction`` distances. Both must return equal ``MatchingResult``s.
"""

from lipcheck.freespace import MatchingResult
from lipcheck.metric import FiniteMetricSpace
from lipcheck.rational import ZERO


def _hungarian(cost):
    """Exact Hungarian algorithm on an integer cost matrix; returns a
    minimum-cost permutation (row i goes to column perm[i])."""
    k = len(cost)
    big = sum(map(sum, cost)) + 1
    u = [0] * (k + 1)
    v = [0] * (k + 1)
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
    for j in range(1, k + 1):
        perm[p[j] - 1] = j - 1
    return tuple(perm)


def matching_min_check(space: FiniteMetricSpace, match_pairs) -> MatchingResult:
    """Is the identity matching u_i -> v_i minimum-weight among all
    bijections of {u_i} onto {v_j}? False comes with a cheaper permutation.

    One Hungarian solve on the integer costs A[u_i][v_j] * k**k +
    j * k**(k-1-i), with ``A`` the space's integer view (``d == A / D``).
    The added term of a permutation is the permutation read as a base-k
    number, below k**k, so it only breaks ties: the reported permutation is
    the lexicographically first of minimum cost. The identity is reported
    unless it is strictly beaten.
    """
    match_pairs = list(match_pairs)
    if not match_pairs:
        return MatchingResult(True, (), ZERO, ZERO)
    k = len(match_pairs)
    cost = [
        [space.dist[u][v] for _, v in match_pairs] for u, _ in match_pairs
    ]
    identity = sum((cost[i][i] for i in range(k)), ZERO)
    A, _ = space.scaled
    perm = _hungarian([
        [A[u][v] * k ** k + j * k ** (k - 1 - i) for j, (_, v) in enumerate(match_pairs)]
        for i, (u, _) in enumerate(match_pairs)
    ])
    best = sum((cost[i][perm[i]] for i in range(k)), ZERO)
    if best < identity:
        return MatchingResult(False, perm, identity, best)
    return MatchingResult(True, tuple(range(k)), identity, identity)
