"""Differential oracles for the integer-lifted kernels.

``validate``, ``four_point_check``, ``lip_norm``, ``strong_pairs`` and
``pointwise_sup`` scan integers (distances as ``A / D``, function values as
``F / L``). The Fraction kernels they replaced are kept here verbatim, and
the two must agree exactly on seeded inputs: the same violation lists in the
same order, the same first violating quadruple with its three sums, and the
same norms and attaining pairs in the same order.
"""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import pytest

import model_oracle
from lipcheck import lipfun, metric, rtree
from lipcheck.cli import load_model
from lipcheck.freespace import free_add, free_element, free_norm_lp, pairing
from lipcheck.lipfun import (
    LipFn, combine, lip_norm, lipfn, pointwise_sup, slope, strong_pairs, zero_fn,
)
from lipcheck.metric import (
    CATALOG_NAMES,
    CheckResult,
    FiniteMetricSpace,
    MetricModel,
    ModelError,
    PreconditionError,
    StructureError,
    ValidationReport,
    Violation,
    catalog,
    integer_line,
    make_space,
    power_line,
    space_from_json,
    truncate,
    validate,
)
from lipcheck.rational import ZERO, is_rational, rat
from lipcheck.rtree import four_point_check, tree_metric, weighted_tree


# ---------------------------------------------------------------------------
# The Fraction kernels, verbatim


def _validate_oracle(space: FiniteMetricSpace) -> ValidationReport:
    n = space.n_points
    for i, row in enumerate(space.dist):
        if len(row) != n:
            raise StructureError(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not is_rational(x):
                raise StructureError(f"non-rational entry in row {i}")

    violations = []
    for i in range(n):
        if space.dist[i][i] != ZERO:
            violations.append(Violation("positivity", (i, i), (space.dist[i][i],)))
        for j in range(i + 1, n):
            if space.dist[i][j] <= ZERO:
                violations.append(Violation("positivity", (i, j), (space.dist[i][j],)))
            if space.dist[i][j] != space.dist[j][i]:
                violations.append(
                    Violation("symmetry", (i, j), (space.dist[i][j], space.dist[j][i]))
                )
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            d_ij = space.dist[i][j]
            for k in range(j + 1, n):
                if k == i:
                    continue
                if space.dist[j][k] > d_ij + space.dist[i][k]:
                    violations.append(
                        Violation(
                            "triangle",
                            (j, i, k),
                            (space.dist[j][k], d_ij, space.dist[i][k]),
                        )
                    )
    return ValidationReport(passed=not violations, violations=tuple(violations))


def _four_point_oracle(space: FiniteMetricSpace) -> CheckResult:
    n = space.n_points
    for p in range(n):
        for q in range(p + 1, n):
            for r in range(q + 1, n):
                for s in range(r + 1, n):
                    s1 = space.dist[p][q] + space.dist[r][s]
                    s2 = space.dist[p][r] + space.dist[q][s]
                    s3 = space.dist[p][s] + space.dist[q][r]
                    top = max(s1, s2, s3)
                    if (s1, s2, s3).count(top) < 2:
                        return CheckResult(
                            False, "four-point", "quadruple",
                            (p, q, r, s), (s1, s2, s3),
                        )
    return CheckResult(True, "four-point")


def _lip_norm_oracle(f: LipFn):
    best = ZERO
    n = f.space.n_points
    for p in range(n):
        for q in range(p + 1, n):
            s = slope(f, p, q)
            if s < ZERO:
                s = -s
            if s > best:
                best = s
    return best


def _strong_pairs_oracle(f: LipFn):
    best = ZERO
    pairs = []
    n = f.space.n_points
    for p in range(n):
        for q in range(p + 1, n):
            s = slope(f, p, q)
            if s < ZERO:
                s, pair = -s, (q, p)
            else:
                pair = (p, q)
            if s > best:
                best, pairs = s, [pair]
            elif s == best and s != ZERO:
                pairs.append(pair)
    pairs.sort()
    return pairs


def _pointwise_sup_oracle(f: LipFn, p: int):
    best = ZERO
    for q in f.space.points():
        if q == p:
            continue
        s = slope(f, p, q)
        if s < ZERO:
            s = -s
        if s > best:
            best = s
    return best


# ---------------------------------------------------------------------------
# The integer view


def test_scaled_view_clears_the_distinct_denominators_once():
    space = truncate(catalog("example48"), 9)
    A, D = space.scaled
    assert D == lcm(*{x.denominator for row in space.dist for x in row})
    assert all(Fraction(a, D) == x for ra, row in zip(A, space.dist) for a, x in zip(ra, row))
    assert all(type(a) is int for row in A for a in row)
    assert space.scaled is space.scaled
    # Plain int entries lift too, over D = 1.
    ints = make_space(((0, 2), (2, 0)), ("a", "b"))
    assert ints.scaled == (((0, 2), (2, 0)), 1)


def test_view_built_space_equals_the_value_built_one():
    """A space built from its least view is the space of its values: equal,
    with the same hash, repr and view, and ``dist`` is built only when read."""
    for space in _NORM_SPACES + (make_space([]), make_space([[0]])):
        A, D = space.scaled
        twin = FiniteMetricSpace((A, D), space.labels, space.name)
        assert twin.n_points == space.n_points and list(twin.points()) == list(space.points())
        assert "dist" not in vars(twin)
        values = make_space(space.dist, space.labels, space.name)
        assert values.scaled == (A, D)
        assert twin == values and hash(twin) == hash(values) and repr(twin) == repr(values)
        assert twin == space and hash(twin) == hash(space)
        assert twin.dist == space.dist
        assert all(type(x) is Fraction for row in twin.dist for x in row)
        with pytest.raises(FrozenInstanceError):
            twin.dist = space.dist


def test_space_comparisons_read_the_views():
    """free_add, pairing and combine compare their spaces on the views:
    two equal truncations built apart are one space to them, and neither
    builds its ``dist``; a different space is still refused."""
    a, b = truncate(catalog("example48"), 12), truncate(catalog("example48"), 12)
    other = truncate(catalog("example33"), 12)
    assert a is not b
    total = free_add(free_element(a, {1: 1}), free_element(b, {2: -1}))
    assert total.weights == {1: 1, 2: -1}
    f = combine([lipfn(a, range(12)), lipfn(b, [0] * 12)], [1, 1])
    assert pairing(free_element(b, {3: 2}), f) == 6
    assert "dist" not in vars(a) and "dist" not in vars(b)
    with pytest.raises(PreconditionError):
        free_add(total, free_element(other, {1: 1}))
    with pytest.raises(PreconditionError):
        pairing(free_element(other, {1: 1}), f)
    with pytest.raises(PreconditionError):
        combine([f, lipfn(other, [0] * 12)], [1, 1])


def _least_space_view(space) -> bool:
    A, D = space.scaled
    return D > 0 and gcd(D, *chain.from_iterable(A)) == 1


def _least_fn_view(f) -> bool:
    F, L = f.lifted
    return L > 0 and gcd(L, *F) == 1


def _subspace_oracle(space, indices):
    """The Fraction route: rows of ``dist`` entries through make_space."""
    idx = list(indices)
    rows = [[space.dist[a][b] for b in idx] for a in idx]
    return make_space(rows, [space.labels[a] for a in idx], space.name)


def test_every_route_stores_the_least_view():
    """gcd(D, every A entry) == 1 and gcd(L, every F entry) == 1 on each
    route into a space or a function, including a subspace and a
    combination whose raw views share a factor with their denominators."""
    rng = random.Random(20261019)
    halves = make_space([[0, rat(1, 2), 1], [rat(1, 2), 0, rat(1, 2)], [1, rat(1, 2), 0]])
    assert halves.scaled == (((0, 1, 2), (1, 0, 1), (2, 1, 0)), 2)
    ends = halves.subspace([0, 2])  # raw view ((0, 2), (2, 0)) over 2
    assert ends.scaled == (((0, 1), (1, 0)), 1)
    spaces = [
        halves, ends, make_space([[0]]), make_space([[0, 4], [4, 0]]),
        space_from_json({"dist": [["0", "2/3"], ["2/3", "0"]]}),
        space_from_json({"dist": [["0"]]}),
        truncate(load_model("dmqr44", {"c": rat(7, 2)}), 128),
    ]
    spaces += [truncate(catalog(name), 16) for name in CATALOG_NAMES]
    spaces += [truncate(catalog(name), 16).subspace([3, 0, 9, 12]) for name in CATALOG_NAMES]
    spaces += [_random_tree_metric(rng, rng.randint(1, 9)) for _ in range(60)]
    for space in spaces:
        assert _least_space_view(space), space.name

    f = lipfn(halves, [0, rat(1, 2), rat(3, 2)])
    g = lipfn(halves, [0, rat(-1, 2), rat(1, 2)])
    doubled = combine([f], [2])  # raw view (2 * F, 2)
    assert doubled.lifted == ((0, 1, 3), 1)
    fns = [f, g, doubled, zero_fn(halves), lipfn(halves, [0, 2, 4]),
           combine([f, g], [rat(1, 2), rat(1, 2)]), combine([f, g, f], [rat(2, 3), 0, rat(4, 3)])]
    # On d(0, 1) = d(1, 2) = 1, d(0, 2) = 1/2 the least optimal dual of
    # delta_1 is (0, 1, 0): raw view (0, 2, 0) over D == 2.
    kite = make_space([[0, 1, rat(1, 2)], [1, 0, 1], [rat(1, 2), 1, 0]])
    witness = free_norm_lp(free_element(kite, {1: 1})).witness
    assert witness.lifted == ((0, 1, 0), 1)
    fns.append(witness)
    for name in ("example48", "dmqr44", "thm57"):
        space = truncate(catalog(name), 10)
        fns.append(free_norm_lp(free_element(space, {1: 1, 4: rat(-3, 2), 7: rat(1, 3)})).witness)
    for f in fns:
        assert _least_fn_view(f), f.lifted


def test_equality_and_hash_build_no_fraction(monkeypatch):
    """Two truncations and two combinations built apart compare and hash on
    their integer views."""
    a = truncate(catalog("example48"), 64)
    b = truncate(catalog("example48"), 64)
    f = lipfn(a, [0] + [rat(k % 7 - 3, 1 + k % 4) for k in range(1, 64)])
    g = lipfn(b, [0] + [rat(k % 5, 6) for k in range(1, 64)])
    h = combine([f, g], [rat(1, 2), rat(1, 2)])
    k = combine([f, f, g, g], [rat(1, 4)] * 4)

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(metric, "Rat", refuse)
    monkeypatch.setattr(lipfun, "Rat", refuse)
    assert a is not b and a == b and hash(a) == hash(b)
    assert h is not k and h == k and hash(h) == hash(k)
    assert "dist" not in vars(a) and "dist" not in vars(b)
    assert "values" not in vars(h) and "values" not in vars(k)


def test_subspace_of_a_view_built_truncation_builds_no_fraction(monkeypatch):
    """``subspace`` slices the integer view and reduces it; the result is
    the Fraction route's subspace."""
    cases = [("example48", [5, 0, 2, 7]), ("dmqr41", [3, 1, 4, 8, 9]),
             ("power_line", list(range(1, 30, 3))), ("prop24", [0, 12, 6]),
             ("example35", [2, 0, 4])]
    for name, rows in cases:
        space = truncate(catalog(name) if name != "power_line" else power_line(), 30)
        with monkeypatch.context() as patch:
            def refuse(*args):
                raise AssertionError("a Fraction was built")

            patch.setattr(metric, "Rat", refuse)
            sub = space.subspace(rows)
            assert "dist" not in vars(space) and "dist" not in vars(sub)
        want = _subspace_oracle(space, rows)
        assert sub == want and hash(sub) == hash(want) and sub.scaled == want.scaled
        assert sub.dist == want.dist and sub.labels == want.labels and sub.name == name


# ---------------------------------------------------------------------------
# validate on non-metrics

# Entries that break positivity (0, negatives) or mix denominators.
_ENTRY_POOL = (
    rat(0), rat(-1), rat(-1, 3), rat(1), rat(2), rat(1, 2), rat(1, 3), rat(5, 6),
    rat(7, 4), rat(3), rat(2, 3), rat(9, 10), rat(1, 12),
)


def _random_matrix(rng, n):
    """A symmetric matrix with zero diagonal, then a few seeded defects:
    nonzero diagonal entries, asymmetric entries, zero or negative ones."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rat(rng.randint(1, 12), rng.randint(1, 6))
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rng.choice(_ENTRY_POOL)
    return make_space(tuple(map(tuple, rows)), tuple(f"x{i}" for i in range(n)))


def _assert_same_report(space):
    got, want = validate(space), _validate_oracle(space)
    assert got == want
    assert got.to_json() == want.to_json()
    return want


def test_validate_matches_the_oracle_on_seeded_non_metrics():
    rng = random.Random(20261018)
    axioms = set()
    failing = 0
    for _ in range(400):
        space = _random_matrix(rng, rng.randint(1, 7))
        want = _assert_same_report(space)
        failing += not want.passed
        axioms.update(v.axiom for v in want.violations)
    assert axioms == {"positivity", "symmetry", "triangle"}
    assert 100 < failing < 400


def test_validate_matches_the_oracle_on_perturbed_catalog_truncations():
    rng = random.Random(7)
    for name in ("example33", "example48", "prop24", "dmqr44", "thm57"):
        base = truncate(catalog(name), 9)
        _assert_same_report(base)
        for _ in range(6):
            rows = [list(r) for r in base.dist]
            i, j = rng.sample(range(9), 2)
            bump = rng.choice((rat(1, 2), rat(3), rat(-1, 7), -rows[i][j]))
            rows[i][j] = rows[j][i] = rows[i][j] + bump
            _assert_same_report(make_space(tuple(map(tuple, rows)), base.labels))


def test_validate_lists_every_violation_in_scan_order():
    # A nonzero diagonal, a zero entry, asymmetric pairs and a triangle
    # violation, with int and Fraction entries mixed in one matrix.
    space = make_space(
        ((rat(1, 2), 1, rat(4)), (1, 0, 0), (rat(9, 2), rat(1, 3), 0)),
        ("a", "b", "c"),
    )
    want = _assert_same_report(space)
    assert [(v.axiom, v.indices) for v in want.violations] == [
        ("positivity", (0, 0)), ("symmetry", (0, 2)), ("positivity", (1, 2)),
        ("symmetry", (1, 2)), ("triangle", (0, 1, 2)),
    ]


def test_validate_structure_errors_come_first():
    space = make_space(((rat(0), rat(1)), (rat(1),)), ("a", "b"))
    with pytest.raises(StructureError) as new:
        validate(space)
    with pytest.raises(StructureError) as old:
        _validate_oracle(space)
    assert str(new.value) == str(old.value)


def test_view_structure_errors():
    """A space is checked on its view: ragged rows and entries that are not
    ints, which no constructor route makes but a hand-built view can hold."""
    for A, message in (
        (((0, 1), (1,)), "row 1 has length 1, expected 2"),
        (((0, rat(1, 2)), (rat(1, 2), 0)), "non-integer view entry in row 0"),
        (((0, 1), (1.0, 0)), "non-integer view entry in row 1"),
    ):
        with pytest.raises(StructureError) as err:
            validate(FiniteMetricSpace((A, 1), ("a", "b")))
        assert str(err.value) == message


def _rule_model(rng, n, name):
    """A hand-built model whose integer rule reads a seeded table of
    ``(num, den)`` pairs, most not in lowest terms: symmetric entries in
    [1, 2], which make a metric, then a few asymmetric, zero, negative or
    triangle-breaking ones."""
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            k = rng.choice((1, 2, 3, 6))
            table[i, j] = table[j, i] = (k * rng.randint(4, 6), k * rng.randint(3, 4))
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((1, 2, 3))
        table[i, j] = rng.choice(((0, k), (-k, 3 * k), (9 * k, k), (k * rng.randint(1, 9), 2 * k)))
        if rng.random() < 0.5:
            table[j, i] = table[i, j]
    return MetricModel(name=name, params={}, row_parts=lambda i, j: table[i, j],
                       row_label=lambda i: f"x{i}", base_aliases_p1=False)


def test_truncate_reports_what_the_oracle_reports_on_non_metric_rules(monkeypatch):
    """``truncate`` builds each space from the rule's integer view; the
    report its validation gives equals the Fraction oracle's on the rule's
    values, and its ModelError names the oracle's first violation."""
    real, seen = metric.validate, []

    def recording(space):
        seen.append((space, "dist" in vars(space), real(space)))
        return seen[-1][2]

    monkeypatch.setattr(metric, "validate", recording)
    rng = random.Random(20261019)
    axioms, failing = set(), 0
    for k in range(400):
        n = rng.randint(2, 7)
        model = _rule_model(rng, n, f"rule{k}")
        rows = tuple(tuple(model_oracle.row_dist(model, i, j) for j in range(n)) for i in range(n))
        want = _validate_oracle(make_space(rows, tuple(f"x{i}" for i in range(n))))
        try:
            truncate(model, n)
            error = None
        except ModelError as exc:
            error = str(exc)
        space, had_dist, got = seen.pop()
        assert not had_dist and space.dist == rows
        assert got == want and got.to_json() == want.to_json()
        if want.passed:
            assert error is None
        else:
            v = want.violations[0]
            assert error == f"truncation of 'rule{k}' at N={n} violates {v.axiom} at indices {v.indices}"
        failing += not want.passed
        axioms.update(v.axiom for v in want.violations)
    assert axioms == {"positivity", "symmetry", "triangle"}
    assert 100 < failing < 400


# ---------------------------------------------------------------------------
# validate's row-bound certificate


def _skipped_pairs(space):
    """The pairs (i, j) whose triangles (j, i, k) the certificate lets
    ``validate`` skip: max(A[j][j+1:]) <= A[i][j] + the least entry of row i
    off the diagonal."""
    A, _ = space.scaled
    n = len(A)
    tail_max = [max(A[j][j + 1:], default=0) for j in range(n)]
    row_min = [min(A[i][:i] + A[i][i + 1:], default=0) for i in range(n)]
    return {(i, j) for i in range(n) for j in range(n)
            if j != i and tail_max[j] <= A[i][j] + row_min[i]}


def _bumped(space, a, b, factor):
    """``space`` with the entry pair d(a, b) = d(b, a) scaled by ``factor``."""
    rows = [list(r) for r in space.dist]
    rows[a][b] = rows[b][a] = rows[a][b] * factor
    return make_space(tuple(map(tuple, rows)), space.labels, space.name)


def _assert_certificate_sound(space):
    """validate equals the oracle, and no triangle the oracle reports lies in
    a pair the certificate skips."""
    want = _assert_same_report(space)
    skipped = _skipped_pairs(space)
    assert not any((v.indices[1], v.indices[0]) in skipped
                   for v in want.violations if v.axiom == "triangle")
    return want, skipped


_LINES = {"integer_line": integer_line(), "power_line": power_line()}
# Catalog models whose truncation at N = 64 the certificate clears entirely.
_NO_TRIPLE_SCANNED = {"discrete", "dmqr41", "example33", "example35", "example48",
                      "prop23", "prop53", "thm51star", "thm57"}


@pytest.mark.parametrize("name", CATALOG_NAMES + tuple(_LINES))
def test_certificate_matches_the_oracle_on_truncations_at_64(name):
    space = truncate(_LINES[name] if name in _LINES else catalog(name), 64)
    want, skipped = _assert_certificate_sound(space)
    assert want.passed
    assert (len(skipped) == 64 * 63) == (name in _NO_TRIPLE_SCANNED)


def test_certificate_matches_the_oracle_on_seeded_trees():
    rng = random.Random(27)
    for _ in range(40):
        _assert_certificate_sound(_random_tree_metric(rng, rng.randint(2, 20)))


def _bump_cases():
    # Bumped copies at N = 32, where the oracle's Fraction scan is cheap.
    rng = random.Random(2027)
    spaces = [truncate(catalog(name), 32) for name in CATALOG_NAMES]
    spaces += [truncate(model, 32) for model in _LINES.values()]
    spaces += [_random_tree_metric(rng, 16) for _ in range(4)]
    for space in spaces:
        a, b = sorted(rng.sample(range(space.n_points), 2))
        for factor in (rat(3), rat(1, 3)):
            yield space, _bumped(space, a, b, factor)


def test_certificate_matches_the_oracle_on_bumped_copies():
    """One symmetric entry pair scaled up or down: its rows fail the bound
    and are scanned, while rows the bump leaves alone are still skipped."""
    failing = partial = 0
    for base, bent in _bump_cases():
        want, skipped = _assert_certificate_sound(bent)
        failing += not want.passed
        n = bent.n_points
        partial += 0 < len(skipped) < n * (n - 1) and skipped != _skipped_pairs(base)
    assert failing >= 20
    assert partial >= 20


def test_certificate_matches_the_oracle_on_int_and_mixed_matrices():
    """The type fast path: an all-int matrix and an int/Fraction mix give the
    oracle's report, passing and failing alike."""
    ints = ((0, 2, 3, 4), (2, 0, 1, 7), (3, 1, 0, 2), (4, 7, 2, 0))
    mixed = ((0, rat(3, 2), 2, rat(7, 2)), (rat(3, 2), 0, rat(1, 2), 9),
             (2, rat(1, 2), 0, rat(3, 2)), (rat(7, 2), 9, rat(3, 2), 0))
    for rows, fix in ((ints, rat(3, 7)), (mixed, rat(2, 9))):
        space = make_space(rows, ("a", "b", "c", "d"))
        assert any(type(x) is int for row in rows for x in row)
        want, _ = _assert_certificate_sound(space)
        assert [v.axiom for v in want.violations] == ["triangle"] * 2
        assert _assert_certificate_sound(_bumped(space, 1, 3, fix))[0].passed


# ---------------------------------------------------------------------------
# four_point_check on perturbed tree metrics


def _random_tree_metric(rng, n):
    edges = [(rng.randrange(i), i, rat(rng.randint(1, 8), rng.randint(1, 4)))
             for i in range(1, n)]
    return tree_metric(weighted_tree(n, edges))


def _perturbed(rng, space):
    rows = [list(r) for r in space.dist]
    n = space.n_points
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] + rng.choice(
            (rat(1, 5), rat(-1, 3), rat(1, 2), rat(-1, 8)))
    return make_space(rows)


def test_four_point_check_matches_the_oracle_on_perturbed_trees():
    rng = random.Random(4242)
    failed = 0
    for _ in range(150):
        tree = _random_tree_metric(rng, rng.randint(4, 9))
        assert four_point_check(tree) == _four_point_oracle(tree)
        assert four_point_check(tree).ok
        bent = _perturbed(rng, tree)
        got, want = four_point_check(bent), _four_point_oracle(bent)
        assert got == want
        assert got.to_json() == want.to_json()
        failed += not want.ok
    assert failed > 100


def _arbitrary_matrix(rng, n):
    """Integer entries with no structure: asymmetric, zero and negative ones
    included. Both scans read only the entries above the diagonal."""
    return make_space([[rng.randint(-2, 6) for _ in range(n)] for _ in range(n)])


def _planted_off_base(rng, space):
    """``space`` with violations planted between rows >= 1 only."""
    rows = [list(r) for r in space.dist]
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(1, space.n_points), 2)
        rows[i][j] = rows[j][i] = rows[i][j] + rng.choice((rat(1, 5), rat(-1, 3), rat(1)))
    return make_space(rows)


def test_base_point_scan_names_the_full_scan_witness():
    """The scan through row 0 alone returns the full scan's CheckResult on
    inputs where the lemma has no metric to lean on, on violations planted
    away from row 0, on perturbed trees, and on the vacuous sizes."""
    rng = random.Random(20261019)
    groups = {
        "vacuous": [make_space([]), make_space([[0]]), make_space([[0, 1], [1, 0]]),
                    make_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
                    make_space([[0, 5, -1], [2, 0, 7], [3, 3, 0]])],
        "arbitrary": [_arbitrary_matrix(rng, rng.randint(4, 8)) for _ in range(300)],
        "off-base": [_planted_off_base(rng, _random_tree_metric(rng, rng.randint(5, 9)))
                     for _ in range(150)],
        "perturbed": [_perturbed(rng, _random_tree_metric(rng, rng.randint(4, 9)))
                      for _ in range(150)],
    }
    failed = dict.fromkeys(groups, 0)
    for kind, spaces in groups.items():
        for space in spaces:
            got, want = four_point_check(space), _four_point_oracle(space)
            assert got == want, kind
            assert got.to_json() == want.to_json()
            failed[kind] += not want.ok
    assert failed["vacuous"] == 0
    assert failed["arbitrary"] > 250 and failed["off-base"] > 100 and failed["perturbed"] > 100


def test_four_point_witness_sums_are_the_rational_sums():
    cycle = make_space([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    got = four_point_check(cycle)
    assert got == _four_point_oracle(cycle)
    assert got.witness_indices == (0, 1, 2, 3)
    assert got.witness_values == (rat(2), rat(4), rat(2))
    assert all(type(v) is Fraction for v in got.witness_values)


def test_passing_four_point_check_on_a_tree_builds_no_fraction(monkeypatch):
    rng = random.Random(77)
    trees = [weighted_tree(n, [(rng.randrange(i), i, rat(rng.randint(1, 8), rng.randint(1, 4)))
                               for i in range(1, n)])
             for n in range(1, 13)]

    def refuse(*args):
        raise RuntimeError("a Fraction was built")

    monkeypatch.setattr(rtree, "Rat", refuse)
    monkeypatch.setattr(metric, "Rat", refuse)
    for tree in trees:
        space = tree_metric(tree)
        assert four_point_check(space).ok
        assert "dist" not in vars(space)


# ---------------------------------------------------------------------------
# lip_norm, strong_pairs and pointwise_sup on tie-heavy functions

# Two- and three-valued distances (many ties), and mixed denominators.
_NORM_SPACES = (
    truncate(catalog("discrete"), 7),
    truncate(catalog("thm51star"), 9),
    truncate(catalog("prop23"), 6),
    truncate(catalog("example33"), 7),
    truncate(catalog("example48"), 6),
    truncate(catalog("prop24"), 5),
)
_TIE_VALUES = (rat(-1), rat(-1, 2), ZERO, ZERO, rat(1, 2), rat(1))
_MIXED_VALUES = (rat(1, 3), rat(-1, 6), rat(2, 5), rat(-3, 10), rat(7, 4), rat(5, 12))


def _functions(rng, space):
    n = space.n_points
    yield zero_fn(space)
    for _ in range(25):
        yield lipfn(space, [0] + [rng.choice(_TIE_VALUES) for _ in range(n - 1)])
    for _ in range(15):
        yield lipfn(space, [0] + [rng.choice(_MIXED_VALUES + _TIE_VALUES) for _ in range(n - 1)])
    # Multiples of the distance to the base tie slopes across pairs whose
    # distances have different denominators.
    for c in (rat(1), rat(-2, 3)):
        yield lipfn(space, [c * space.dist[0][p] for p in space.points()])


def test_norm_kernels_match_the_oracles_on_tie_heavy_functions():
    rng = random.Random(20260815)
    tied = 0
    for space in _NORM_SPACES:
        for f in _functions(rng, space):
            norm = lip_norm(f)
            assert type(norm) is Fraction
            assert norm == _lip_norm_oracle(f)
            pairs = strong_pairs(f)
            assert pairs == _strong_pairs_oracle(f)
            tied += len(pairs) > 1
            for p in space.points():
                sup = pointwise_sup(f, p)
                assert type(sup) is Fraction
                assert sup == _pointwise_sup_oracle(f, p)
    assert tied > 60


def test_zero_function_attains_nothing():
    f = zero_fn(_NORM_SPACES[0])
    assert lip_norm(f) == _lip_norm_oracle(f) == ZERO
    assert strong_pairs(f) == _strong_pairs_oracle(f) == []
    assert pointwise_sup(f, 3) == _pointwise_sup_oracle(f, 3) == ZERO
