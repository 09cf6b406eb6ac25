"""The sparse simplex behind free_norm_lp against the dense one it replaced.

``DenseLexSimplex`` is the original dense exact-rational simplex, kept
verbatim as a differential oracle: on every instance both solvers must
make the same pivots and return the same value and witness. Pinned pivot
counts catch algorithmic regressions on any machine.
"""

import random
from fractions import Fraction

import pytest

from lipcheck import freespace
from lipcheck.freespace import free_add, free_element, free_norm_lp, molecule
from lipcheck.metric import CATALOG_NAMES, LipcheckError, catalog, make_space, truncate
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


def _solve_logged(monkeypatch, mu, solver):
    """free_norm_lp on ``mu`` with ``solver`` as its simplex; returns the
    result and the (row, col) pivot sequence."""
    log = []

    class Logged(solver):
        def _pivot(self, r, c):
            log.append((r, c))
            super()._pivot(r, c)

    with monkeypatch.context() as m:
        m.setattr(freespace, "_LexSimplex", Logged)
        res = free_norm_lp(mu)
    return res, log


def _closure_space(rng, n):
    """Shortest-path closure of a seeded positive symmetric matrix."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 12), rng.randint(1, 3))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return make_space(d)


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


def _assert_same(monkeypatch, mu):
    new, new_log = _solve_logged(monkeypatch, mu, freespace._LexSimplex)
    old, old_log = _solve_logged(monkeypatch, mu, DenseLexSimplex)
    assert new.value == old.value
    assert new.witness.values == old.witness.values
    assert new_log == old_log
    return len(new_log)


def test_matches_dense_oracle_on_closure_spaces(monkeypatch):
    rng = random.Random(20261017)
    pivots = 0
    for k in range(140):
        n = 2 + k % 7
        space = _closure_space(rng, n)
        pivots += _assert_same(monkeypatch, free_element(space, _random_weights(rng, n)))
    assert pivots > 0


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_matches_dense_oracle_on_catalog_truncations(monkeypatch, name):
    space = truncate(catalog(name), 10)
    rng = random.Random(f"oracle:{name}")
    _assert_same(monkeypatch, _molecule_sum(rng, space))
    _assert_same(monkeypatch, free_element(space, _random_weights(rng, 10)))


def test_non_unimodular_pivots_fall_back_to_fractions():
    """A pivot element other than +-1 is divided out as a Fraction."""
    results = []
    for solver in (freespace._LexSimplex, DenseLexSimplex):
        # maximize x0 + x1 s.t. 2 x0 + x1 <= 4, x0 + 3 x1 <= 6; the first
        # pivot is on the 2.
        sx = solver(4)
        sx.add_row({0: 2, 1: 1, 2: 1}, rat(4), 2)
        sx.add_row({0: 1, 1: 3, 3: 1}, rat(6), 3)
        sx.add_objective({0: 1, 1: 1})
        sx.optimize()
        results.append((sx.value(0), sx.solution(), sx.basis))
    assert results[0] == results[1]
    assert results[0][0] == rat(14, 5)
    assert results[0][1][:2] == [rat(6, 5), rat(8, 5)]


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


def test_pinned_pivot_counts(monkeypatch):
    dmqr41 = truncate(catalog("dmqr41"), 6)
    mu = free_add(molecule(dmqr41, 0, 1), molecule(dmqr41, 2, 3))
    elements = {"dmqr41-6": mu}
    for name in ("dmqr41", "example48", "prop24", "discrete"):
        elements[name + "-10"] = _alternating(truncate(catalog(name), 10))
    counts = {
        key: len(_solve_logged(monkeypatch, mu, freespace._LexSimplex)[1])
        for key, mu in elements.items()
    }
    assert counts == PINNED_PIVOTS
