"""free_norm_lp against an exact simplex over the dual ball.

``DenseLexSimplex`` is a dense exact-rational simplex, and ``lp_oracle``
sets up the dual-ball LP on it with lexicographic witness stages. The
package derives value and witness from one min-cost transport instead; on
every instance both must return the same value and the same witness.
Pinned pivot counts are facts about the oracle.
"""

import random

import pytest

from lipcheck.acceptance import _closure_space
from lipcheck.freespace import (
    FreeNormResult,
    free_add,
    free_element,
    free_norm_flow,
    free_norm_lp,
    molecule,
)
from lipcheck.lipfun import lip_norm, lipfn, zero_fn
from lipcheck.metric import (
    CATALOG_NAMES,
    LipcheckError,
    PreconditionError,
    catalog,
    make_space,
    truncate,
)
from lipcheck.rational import ONE, ZERO, rat


class DenseLexSimplex:
    """Dense exact-rational simplex maximizing stacked objectives in order.

    Rows are equality constraints with a designated basic variable; the
    initial basis must be feasible. Objective rows ride along through the
    pivots; stage k only enters columns whose reduced cost is zero in all
    earlier stages, which pins earlier optima while optimizing the next.
    Bland's rule (lowest eligible column, lowest basic variable on ties)
    rules out cycling.
    """

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self.rows = []
        self.basis = []
        self.objs = []  # row vectors of length n_cols + 1; last cell = -value

    def add_row(self, coeffs: dict, rhs, basic: int):
        row = [ZERO] * (self.n_cols + 1)
        for j, c in coeffs.items():
            row[j] = c
        row[-1] = rhs
        self.rows.append(row)
        self.basis.append(basic)

    def add_objective(self, coeffs: dict):
        row = [ZERO] * (self.n_cols + 1)
        for j, c in coeffs.items():
            row[j] = c
        self.objs.append(row)

    def _pivot(self, r: int, c: int):
        prow = self.rows[r]
        inv = ONE / prow[c]
        prow = [x * inv for x in prow]
        self.rows[r] = prow
        for i, row in enumerate(self.rows):
            if i != r and row[c] != ZERO:
                f = row[c]
                self.rows[i] = [a - f * b for a, b in zip(row, prow)]
        for k, obj in enumerate(self.objs):
            if obj[c] != ZERO:
                f = obj[c]
                self.objs[k] = [a - f * b for a, b in zip(obj, prow)]
        self.basis[r] = c

    def optimize(self):
        for stage in range(len(self.objs)):
            while True:
                obj = self.objs[stage]
                enter = -1
                for j in range(self.n_cols):
                    if obj[j] > ZERO and all(
                        self.objs[k][j] == ZERO for k in range(stage)
                    ):
                        enter = j
                        break
                if enter < 0:
                    break
                leave = -1
                best = None
                for i, row in enumerate(self.rows):
                    if row[enter] > ZERO:
                        ratio = row[-1] / row[enter]
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

    def value(self, stage: int):
        return -self.objs[stage][-1]

    def solution(self):
        x = [ZERO] * self.n_cols
        for var, row in zip(self.basis, self.rows):
            x[var] = row[-1]
        return x


def lp_oracle(mu):
    """The dual-ball LP behind free_norm_lp before the transport witness,
    solved by ``DenseLexSimplex``; returns the result and the (row, col)
    pivot sequence.

    Variables are f(p) = u_p - v_p for p >= 1 (f(0) = 0 is substituted
    away); one slack row per ordered pair keeps |f(p) - f(q)| <= d(p, q).
    After the norm stage, extra stages minimize f(1), f(2), ... in order,
    so the witness is the lexicographically smallest optimal vertex.
    """
    log = []

    class Logged(DenseLexSimplex):
        def _pivot(self, r, c):
            log.append((r, c))
            super()._pivot(r, c)

    space = mu.space
    n = space.n_points
    if not mu.weights:
        return FreeNormResult(ZERO, zero_fn(space), ZERO), log

    n_struct = 2 * (n - 1)
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    sx = Logged(n_struct + len(pairs))

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
    witness = lipfn(space, tuple(values))
    return FreeNormResult(sx.value(0), witness, lip_norm(witness)), log


def _random_weights(rng, n):
    return {
        p: rat(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 5))
        for p in range(rng.randint(0, 1), n)
    }


def _molecule_sum(rng, space):
    rows = rng.sample(range(1, space.n_points), 8)
    mu = free_element(space, {})
    for p, q in zip(rows[0::2], rows[1::2]):
        mol = molecule(space, p, q) if rng.random() < 0.5 else molecule(space, q, p)
        mu = free_add(mu, mol)
    return mu


def _assert_same(mu):
    new = free_norm_lp(mu)
    old, log = lp_oracle(mu)
    assert new.value == old.value
    assert new.witness.values == old.witness.values
    assert new.witness_norm == old.witness_norm
    return len(log)


def test_matches_dense_oracle_on_closure_spaces():
    rng = random.Random(20261017)
    pivots = 0
    for k in range(140):
        n = 2 + k % 7
        space = _closure_space(rng, n)
        pivots += _assert_same(free_element(space, _random_weights(rng, n)))
    assert pivots > 0


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_matches_dense_oracle_on_catalog_truncations(name):
    space = truncate(catalog(name), 10)
    rng = random.Random(f"oracle:{name}")
    _assert_same(_molecule_sum(rng, space))
    _assert_same(free_element(space, _random_weights(rng, 10)))


@pytest.mark.parametrize("name", ["discrete", "prop53"])
def test_matches_dense_oracle_on_tie_heavy_elements(name):
    """Every distance of these truncations is 1 and the weights are small
    integers, so each element has many optimal transport plans. The
    witness must not depend on which one the transport finds."""
    space = truncate(catalog(name), 8)
    rng = random.Random(f"ties:{name}")
    for _ in range(24):
        rows = rng.sample(range(space.n_points), rng.randint(2, 7))
        weights = {p: rat(rng.choice((-2, -1, 1, 2))) for p in rows}
        _assert_same(free_element(space, weights))


def test_non_unimodular_pivots_fall_back_to_fractions():
    """The oracle divides a pivot element other than +-1 out as a Fraction."""
    # maximize x0 + x1 s.t. 2 x0 + x1 <= 4, x0 + 3 x1 <= 6; the first
    # pivot is on the 2.
    sx = DenseLexSimplex(4)
    sx.add_row({0: 2, 1: 1, 2: 1}, rat(4), 2)
    sx.add_row({0: 1, 1: 3, 3: 1}, rat(6), 3)
    sx.add_objective({0: 1, 1: 1})
    sx.optimize()
    assert sx.value(0) == rat(14, 5)
    assert sx.solution()[:2] == [rat(6, 5), rat(8, 5)]
    assert sx.basis == [0, 1]


def test_triangle_violation_has_no_dual_witness():
    """On a matrix that fails the triangle inequality the transport still
    runs, but no 1-Lipschitz function is tight on its arcs."""
    space = make_space([[0, 1, 1], [1, 0, 5], [1, 5, 0]])
    mu = free_element(space, {1: 1, 2: -1})
    assert free_norm_flow(mu) == rat(5)
    with pytest.raises(PreconditionError, match="triangle inequality"):
        free_norm_lp(mu)


# Recorded with the dense simplex; a change to the pivot rule shows here.
PINNED_PIVOTS = {
    "dmqr41-6": 8,
    "dmqr41-10": 25,
    "example48-10": 13,
    "prop24-10": 9,
    "discrete-10": 19,
}


def _alternating(space):
    return free_element(
        space, {p: rat((-1) ** p * p, p + 1) for p in range(1, space.n_points)}
    )


def test_pinned_pivot_counts():
    dmqr41 = truncate(catalog("dmqr41"), 6)
    mu = free_add(molecule(dmqr41, 0, 1), molecule(dmqr41, 2, 3))
    elements = {"dmqr41-6": mu}
    for name in ("dmqr41", "example48", "prop24", "discrete"):
        elements[name + "-10"] = _alternating(truncate(catalog(name), 10))
    counts = {
        key: len(lp_oracle(mu)[1])
        for key, mu in elements.items()
    }
    assert counts == PINNED_PIVOTS
