"""Differential oracles for the integer coefficient battery.

``combine`` sums the members' integer views and hands its result one, and
each asymptotic rule reads its family space's integer view once. The
Fraction ``combine`` they replaced is kept here verbatim, and the Fraction
``_orbit_rule`` (with the thm45 base-pair wrapper), over the model's closed
forms, in ``isometry_oracle``, beside the ``verify_isometry`` that read it.
The two paths must write the same verification reports, witness records and
failure lists in order, on every standard family and every pipeline case,
and the rules must name the same member slopes and designated point vector
by vector.
"""

import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import product

import pytest

import isometry_oracle as oracle
from builders import scale
from isometry_oracle import EXPECTATIONS as ORACLE_EXPECTATIONS
from lipcheck import embeddings
from lipcheck.embeddings import (
    VERIFY_THEOREMS,
    RuleData,
    lift_coefficients,
    main_theorem_pipeline,
    standard_battery,
    standard_family,
    verify_isometry,
)
from lipcheck.lipfun import (
    LipFn,
    combine,
    lip_norm,
    lipfn,
    max_quotient,
    max_quotient_at,
    pointwise_sup,
    reduced_fn,
    slope,
    strong_pairs,
    zero_fn,
)
from lipcheck.metric import (
    FiniteMetricSpace,
    PreconditionError,
    StructureError,
    catalog,
    truncate,
)
from lipcheck.rational import ZERO, rat
from lipcheck.cli import load_model


# ---------------------------------------------------------------------------
# The Fraction battery, verbatim


def _combine_oracle(fns, coeffs) -> LipFn:
    """Linear combination of the first len(coeffs) members, in one pass."""
    fns = list(fns)
    coeffs = [rat(c) for c in coeffs]
    if len(coeffs) > len(fns):
        raise PreconditionError(f"{len(coeffs)} coefficients for a family of {len(fns)}")
    if not fns:
        raise PreconditionError("combine needs a nonempty family")
    space = fns[0].space
    terms = list(zip(coeffs, fns))
    for _, f in terms:
        if f.space.dist != space.dist:
            raise PreconditionError("cannot add functions on different spaces")
    values = (sum((c * f.values[p] for c, f in terms), ZERO) for p in space.points())
    return lipfn(space, tuple(values))


# ---------------------------------------------------------------------------
# Coefficient vectors: sign vectors (many ties), mixed denominators, zero
# vectors, empty support and vectors shorter than the family


def _vectors(rng, size, count=30):
    head = min(size, 3)
    vectors = [list(s) + [0] * (size - head) for s in product((-1, 0, 1), repeat=head)]
    vectors += [[rat(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(size)]
                for _ in range(count)]
    # tied magnitudes over mixed denominators
    vectors += [[rat(rng.choice((-1, 1)), 1 + k % 3) for k in range(size)]]
    vectors += [[rat(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 12)))
                 for _ in range(rng.randint(1, size))] for _ in range(count)]
    vectors += [[0] * size, [0], [], [rat(0, 7)] * min(size, 2)]
    return [tuple(rat(a) for a in v) for v in vectors]


TIE_SPACES = (
    truncate(catalog("discrete"), 7),
    truncate(catalog("thm51star"), 9),
    truncate(catalog("dmqr41"), 8),
)
TIE_VALUES = (rat(-1), rat(-1, 2), rat(-1, 3), ZERO, ZERO, rat(1, 6), rat(1, 2), rat(1))


def _tie_family(rng, space, size):
    return [
        lipfn(space, (0,) + tuple(rng.choice(TIE_VALUES) for _ in range(space.n_points - 1)))
        for _ in range(size)
    ]


def _assert_view(g):
    """The integer view divides to the values, whatever its denominator."""
    F, L = g.lifted
    assert L > 0 and len(F) == len(g.values)
    assert all(type(x) is int for x in F)
    assert all(Fraction(x, L) == v for x, v in zip(F, g.values))


def test_combine_matches_the_oracle_values_and_view():
    rng = random.Random(20260815)
    families = [_tie_family(rng, space, 5) for space in TIE_SPACES]
    families += [list(standard_family(tid).functions) for tid in ("thm43", "thm57", "prop31")]
    for fam in families:
        for coeffs in _vectors(rng, len(fam)):
            g = combine(fam, coeffs)
            want = _combine_oracle(fam, coeffs)
            assert g.space is want.space
            assert g.values == want.values, coeffs
            assert all(type(v) is Fraction for v in g.values)
            # combine hands its result the view, so the scans lift nothing
            assert "lifted" in vars(g)
            _assert_view(g)
            assert lip_norm(g) == lip_norm(want)
            assert strong_pairs(g) == strong_pairs(want)
            assert [pointwise_sup(g, p) for p in g.space.points()] == [
                pointwise_sup(want, p) for p in want.space.points()
            ]


def test_combine_of_nothing_is_the_zero_function():
    space = TIE_SPACES[0]
    fam = _tie_family(random.Random(7), space, 3)
    for coeffs in ([], [0], [0, 0, 0], [ZERO, rat(0, 5)]):
        g = combine(fam, coeffs)
        assert g == zero_fn(space) == _combine_oracle(fam, coeffs)
        assert g.lifted == ((0,) * space.n_points, 1)
        assert lip_norm(g) == ZERO and strong_pairs(g) == []


def test_lifted_view_is_cached_outside_the_fields():
    """The least view is the one stored field beside the space; ``values``
    is built from it on first read and cached outside the fields."""
    space = TIE_SPACES[2]
    f = lipfn(space, [0, "1/2", "-1/3", "5/6", 0, 2, "-7/4", "1/12"])
    assert f.lifted == ((0, 6, -4, 10, 0, 24, -21, 1), 12)
    assert "values" not in vars(f)
    values = f.values
    assert f.values is values and vars(f)["values"] is values
    twin = lipfn(space, values)
    assert f == twin and hash(f) == hash(twin)
    assert "values" not in vars(twin)
    _assert_view(f)


def test_view_built_function_equals_the_value_built_one():
    """A function built from a view over any multiple of the least
    denominator reduces to the function of its values: equal, with the
    same hash, repr and view, and its values are built only when read."""
    space = TIE_SPACES[2]
    f = lipfn(space, [0, "1/2", "-1/3", "5/6", 0, 2, "-7/4", "1/12"])
    F, L = f.lifted
    for view in ((F, L), (tuple(3 * x for x in F), 3 * L)):
        g = reduced_fn(space, *view)
        assert g.lifted == (F, L)
        assert slope(g, 1, 6) == slope(f, 1, 6) and "values" not in vars(g)
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
        assert g.values == f.values and all(type(v) is Fraction for v in g.values)
        with pytest.raises(FrozenInstanceError):
            g.values = f.values
        with pytest.raises(FrozenInstanceError):
            g.lifted = view
    for build in (reduced_fn, lambda space, F, L: LipFn(space, (F, L))):
        with pytest.raises(StructureError):
            build(space, F[:-1], L)
        with pytest.raises(PreconditionError):
            build(space, (1,) + F[1:], L)


def _first_max_oracle(A, F, pairs):
    best, found = ZERO, (0, 1)
    for p, q in pairs:
        s = Fraction(abs(F[q] - F[p]), A[p][q])
        if s > best:
            best, found = s, (abs(F[q] - F[p]), A[p][q])
    return found


def test_max_quotient_reads_the_first_maximal_pair():
    """Equal quotients come in many spellings (1/2, 2/4, 3/6): the scans
    report the one at the first maximal pair in scan order."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 7)
        A = [[0] * n for _ in range(n)]
        for p in range(n):
            for q in range(p + 1, n):
                A[p][q] = A[q][p] = rng.choice((1, 2, 3, 4, 6))
        F = [0] + [rng.choice((-3, -2, -1, 0, 0, 1, 2, 3)) for _ in range(n - 1)]
        upper = [(p, q) for p in range(n) for q in range(p + 1, n)]
        assert max_quotient(A, F) == _first_max_oracle(A, F, upper)
        for p in range(n):
            through = [(p, q) for q in range(n) if q != p]
            assert max_quotient_at(A[p], F, p) == _first_max_oracle(A, F, through)
    assert max_quotient([[0]], [0]) == (0, 1)


# ---------------------------------------------------------------------------
# The asymptotic rules, vector by vector


ASYMPTOTIC_IDS = ("thm43", "thm45", "thm46")


def _standard_rule_pairs():
    for tid in ASYMPTOTIC_IDS:
        built = standard_family(tid)
        old = ORACLE_EXPECTATIONS[tid](built.spec, built.members).rule
        yield tid, built.expectation.rule, old, built.size


def _pipeline_rule_pairs(monkeypatch, model_name):
    """Run the pipeline once, recording the arguments of every rule it
    builds, and pair each new rule with the oracle on the same arguments."""
    seen = []
    real = embeddings._orbit_rule

    def recording(*args, **kwargs):
        seen.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(embeddings, "_orbit_rule", recording)
    model = load_model(model_name, {})
    result = main_theorem_pipeline(model, 30)
    monkeypatch.setattr(embeddings, "_orbit_rule", real)
    assert len(seen) == 1
    args, kwargs = seen[0]
    assert kwargs.pop("strict") is False
    new = real(*args, strict=False, **kwargs)
    old = oracle._old_orbit_fields(*args, model=model, **kwargs)["rule"]
    return result.case, new, old, len(result.family)


def _new_outcome(rule, coeffs):
    """The rule reads the integer lift; the zero vector gets no record."""
    C, K, norm = lift_coefficients(coeffs, "sup-norm")
    got = rule(C, K, norm)
    assert (got is None) == (norm == 0), coeffs
    return got


def _assert_rules_agree(new, old, size, seed, ceiling="<"):
    """The same member slopes and designated point; the new rule bounds the
    norm under ``ceiling`` and names neither the oracle's norm nor its sup."""
    rng = random.Random(seed)
    for coeffs in _vectors(rng, size):
        got = _new_outcome(new, coeffs)
        if got is None:
            continue
        want = old(coeffs)
        assert got == replace(want, expected_norm=None, expected_sup=None, ceiling=ceiling)
        assert all(type(c[3]) is Fraction for c in got.member_checks)


def test_standard_rules_match_the_oracle_vector_by_vector():
    tids = []
    for tid, new, old, size in _standard_rule_pairs():
        _assert_rules_agree(new, old, size, tid)
        tids.append(tid)
    assert tids == ["thm43", "thm45", "thm46"]


@pytest.mark.parametrize("model_name, case", [("dmqr41", "I-(i)"), ("power_line", "II")])
def test_pipeline_rules_match_the_oracle_vector_by_vector(monkeypatch, model_name, case):
    got_case, new, old, size = _pipeline_rule_pairs(monkeypatch, model_name)
    assert got_case == case
    _assert_rules_agree(new, old, size, model_name, ceiling="<=")


def test_rules_read_only_their_distance_closure(monkeypatch):
    """A model-backed rule reads neither the truncated matrix nor its
    integer view when called: it holds the view it read once when built."""
    rules = [(tid, new, size) for tid, new, _, size in _standard_rule_pairs()]

    def refuse(self, *args):
        raise AssertionError("a rule read the truncated space")

    # ``scaled`` is an instance field; the class property shadows it.
    monkeypatch.setattr(FiniteMetricSpace, "scaled", property(refuse), raising=False)
    monkeypatch.setattr(FiniteMetricSpace, "dist", property(refuse))
    for tid, rule, size in rules:
        coeffs = (ZERO,) * (size - 1) + (rat(3, 2),)
        assert isinstance(rule(*lift_coefficients(coeffs, "sup-norm")), RuleData), tid


# ---------------------------------------------------------------------------
# Whole reports, new path against the Fraction path


def _perturbed(fns):
    """Member 0 doubled: the exact identities and the member slopes break, so
    the failure lists are compared too."""
    return (scale(fns[0], 2),) + tuple(fns[1:])


@pytest.mark.parametrize("tid", VERIFY_THEOREMS)
def test_reports_match_the_oracle_path(monkeypatch, tid):
    """The old path is the three-branch verify_isometry on the old
    expectations and the Fraction combine."""
    built = standard_family(tid)
    old_expectation = ORACLE_EXPECTATIONS[tid](built.spec, built.members)
    battery = standard_battery(built.size, seed=11, rand_count=12, support=3)
    for fns in (built.functions, _perturbed(built.functions)):
        new = verify_isometry(fns, built.target, battery, built.expectation, seed=11)
        with monkeypatch.context() as m:
            m.setattr(oracle, "combine", _combine_oracle)
            old = oracle.verify_isometry(fns, built.target, battery, old_expectation, seed=11)
        assert new == old
    assert old.failures and not old.expectation_pass


@pytest.mark.parametrize("model_name, case", [
    ("power_line", "II"), ("example48", "I-(ii)"), ("dmqr41", "I-(i)"),
])
def test_pipeline_results_match_the_oracle_path(monkeypatch, model_name, case):
    model = load_model(model_name, {})
    new = main_theorem_pipeline(model, 30)
    with monkeypatch.context() as m:
        oracle.old_path(m, embeddings, model=model)
        m.setattr(oracle, "combine", _combine_oracle)
        old = main_theorem_pipeline(model, 30)
    assert new.case == case
    assert new == old
