"""Battery verdicts on integers, and the mirror that scans each ± pair of
battery vectors once.

``verify_isometry`` compares norms, sups and gaps as integer pairs and reads
a vector whose negation came earlier off that negation's scan: its norm and
designated sup, and its least attaining pair reversed. Its reports must be
``pair_route_verify``'s, which scans every vector, on batteries built to
stress the mirror. The checkers and the main pipeline read
sequence distances as integers and build rationals only for what they
report: counts pin that, and prop42's witness pair is checked on spaces
other than its standard line.
"""

import fractions
import random
from dataclasses import replace
from itertools import product

import pytest

import isometry_oracle as oracle
from lipcheck import embeddings, lipfun
from lipcheck.acceptance import _closure_space
from lipcheck.cli import load_model
from lipcheck.embeddings import (
    VERIFY_THEOREMS,
    Expectation,
    FamilySpec,
    RuleData,
    assemble_family,
    check_canonical,
    check_prop42,
    main_theorem_pipeline,
    standard_family,
    verify_isometry,
    verify_standard,
)
from lipcheck.lipfun import MoleculeTable, combine, lipfn, strong_pairs
from lipcheck.metric import FiniteMetricSpace, make_space
from lipcheck.rational import ZERO, rat


# ---------------------------------------------------------------------------
# The mirrored loop against the pair-route verifier


def _mirror_battery(rng, size):
    """Random vectors, some negated before they come, some repeated before
    and after their negation, and the zero vector three times."""
    vectors = [tuple(rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size))
               for _ in range(8)]
    signs = [tuple(s) for s in product((-1, 0, 1), repeat=min(size, 2))]
    signs = [tuple(map(rat, s)) + (ZERO,) * (size - len(s)) for s in signs]
    negated = [tuple(-a for a in v) for v in vectors]
    zero = (ZERO,) * size
    return (negated[:4] + [zero] + vectors + vectors[:2] + negated[4:] + [zero]
            + signs[::-1] + negated[:3] + [()])


def _doubled_norm(data, C):
    """The named norm doubled; under a ceiling, which names no norm, the
    member slopes that bound it from below."""
    if data.ceiling:
        return replace(data, member_checks=tuple(
            (key, u, v, 2 * s) for key, u, v, s in data.member_checks))
    return replace(data, expected_norm=2 * data.expected_norm)


def _point_by_sign(data, C):
    """The designated point moves with the dominant sign, so a vector and
    its negation name different points."""
    return replace(data, designated_point=1 if sum(C) > 0 else data.designated_point)


def _flipped_witness(data, C):
    pair = data.witness_pair
    return replace(data, witness_pair=pair[::-1] if pair and sum(C) < 0 else pair)


def _witness_dropped(data, C):
    """No witness pair on negative sums: such a vector needs the attaining
    pair that its negation's scan may not have looked for."""
    return replace(data, witness_pair=None) if sum(C) < 0 else data


def _member_slopes_off(data, C):
    return replace(data, member_checks=tuple(
        (key, u, v, s + 1) for key, u, v, s in data.member_checks))


WRONG = {
    "as built": None,
    "doubled norm": _doubled_norm,
    "point by sign": _point_by_sign,
    "flipped witness": _flipped_witness,
    "witness dropped": _witness_dropped,
    "member slopes": _member_slopes_off,
}


def _wrong(expectation, change):
    if change is None:
        return expectation

    def rule(C, K, norm):
        data = expectation.rule(C, K, norm)
        return None if data is None else change(data, C)

    return Expectation(expectation.kind, rule)


@pytest.mark.parametrize("tid", VERIFY_THEOREMS)
def test_mirrored_reports_match_the_pair_route(tid):
    """Every witness and failure, in order."""
    built = standard_family(tid)
    battery = _mirror_battery(random.Random(f"mirror:{tid}"), built.size)
    for name, change in WRONG.items():
        expectation = _wrong(built.expectation, change)
        got = verify_isometry(built.functions, built.target, battery, expectation, seed=3)
        want = oracle.pair_route_verify(built.functions, built.target, battery, expectation,
                                        seed=3)
        assert got == want, (tid, name)
        if name in ("as built", "doubled norm"):
            assert got.expectation_pass == (name == "as built"), (tid, name)


def test_a_negation_reuses_one_scan(monkeypatch):
    """A vector reuses the scan of its negation if that scan was not reused
    yet: C, -C, -C and the zero vector twice take three scans."""
    scans = []
    monkeypatch.setattr(lipfun.Combination, "norm_parts",
                        _counting(lipfun.Combination.norm_parts, scans))
    built = standard_family("thm43")
    C = (rat(1), rat(-2, 3), ZERO)
    battery = [C, tuple(-a for a in C), tuple(-a for a in C), (ZERO,) * 3, (ZERO,) * 3]
    report = verify_isometry(built.functions, built.target, battery, built.expectation)
    assert len(scans) == 3 and report.expectation_pass
    norms = [w.norm for w in report.witnesses]
    assert norms[0] is norms[1] and norms[1] == norms[2] and norms[3] is norms[4] is ZERO


def _counting(method, calls):
    def counting(self, *args):
        calls.append(args)
        return method(self, *args)

    return counting


# ---------------------------------------------------------------------------
# The reverse orientation of a tied row


def _tied_family():
    """Points 1, 2 share a column and 3, 4 another; d(1, 4) = d(2, 3) = 1 is
    the least distance between the two groups. Going up, (1, 4) is the least
    pair; going down, (3, 2), which comes second in scan order."""
    space = make_space([
        [0, 10, 10, 10, 10],
        [10, 0, 2, 2, 1],
        [10, 2, 0, 1, 2],
        [10, 2, 1, 0, 2],
        [10, 1, 2, 2, 0],
    ])
    return (lipfn(space, [0, 1, 1, 2, 2]),)


def test_a_tied_row_keeps_the_least_pair_of_each_orientation():
    family = _tied_family()
    table = MoleculeTable(family)
    (u, num, den, up, down), = [row for row in table.rows if row[3] in ((1, 4), (4, 1))]
    assert (up, down) == ((1, 4), (3, 2))
    for c in (1, -1):
        num, den, pairs = table.combination((c,), 1).norm_parts(True)
        firsts = tuple(strong_pairs(combine(family, [s]))[0] for s in (c, -c))
        assert (rat(num, den), pairs) == (rat(1), firsts)
    assert pairs == ((3, 2), (1, 4))


def test_a_mirrored_vector_records_the_reversed_pair():
    family = _tied_family()
    exact = Expectation("exact", lambda C, K, norm: RuleData(norm))
    battery = [(rat(1),), (rat(-1),), (rat(-3, 2),), (rat(3, 2),)]
    report = verify_isometry(family, "sup-norm", battery, exact)
    assert [w.pair for w in report.witnesses] == [(1, 4), (3, 2), (3, 2), (1, 4)]
    assert report == oracle.pair_route_verify(family, "sup-norm", battery, exact)
    assert report.expectation_pass


# ---------------------------------------------------------------------------
# prop42's witness pair off the standard line


def _prop42_report(space, anchors):
    built = assemble_family(FamilySpec("prop42", space, anchors=anchors))
    return verify_standard(built, rand_count=10, support=3)


def test_prop42_witnesses_the_nearest_row():
    """R(1) = 3 is reached at row 2 only, not at row 0 = 1 - 1."""
    space = make_space([[0, 5, 8, 11], [5, 0, 3, 6], [8, 3, 0, 3], [11, 6, 3, 0]])
    assert check_prop42(space, (1,)).ok
    report = _prop42_report(space, (1,))
    assert report.expectation_pass and report.exact_pass
    assert [w.pair for w in report.witnesses[:3]] == [(1, 2), None, (2, 1)]


def test_prop42_verifies_wherever_its_check_passes():
    rng = random.Random(20261020)
    passed = 0
    for _ in range(120):
        n = rng.randint(3, 7)
        space = _closure_space(rng, n)
        anchors = tuple(sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))))
        if check_prop42(space, anchors).ok:
            passed += 1
            assert _prop42_report(space, anchors).expectation_pass, (space, anchors)
    assert passed == 71  # the row (p, p - 1) missed the norm on 49 of them


# ---------------------------------------------------------------------------
# Rationals only at the report boundary


def _refuse_dist(monkeypatch):
    def refuse(self):
        raise AssertionError("read the rational distances")

    monkeypatch.setattr(FiniteMetricSpace, "dist", property(refuse))


@pytest.mark.parametrize("tid, model_name", [
    ("thm43", "dmqr41"), ("thm45", "example44"), ("thm46", "dmqr44"),
    ("thm310", "dmqr41"), ("thm310", "prop24"), ("thm34", "discrete"),
    ("thm37", "example48"), ("prop31", "integer_line"), ("prop42", "discrete"),
])
def test_checkers_read_only_integer_views(monkeypatch, tid, model_name):
    model = load_model(model_name, {})
    want = check_canonical(tid, model, 24)
    _refuse_dist(monkeypatch)
    assert check_canonical(tid, model, 24) == want


@pytest.mark.parametrize("model_name, case", [
    ("dmqr41", "I-(i)"), ("example48", "I-(ii)"), ("power_line", "II"),
])
def test_pipelines_read_only_integer_views(monkeypatch, model_name, case):
    model = load_model(model_name, {})
    want = main_theorem_pipeline(model, 30)
    _refuse_dist(monkeypatch)
    got = main_theorem_pipeline(model, 30)
    assert got.case == case and got == want


# Rationals each benchmark job's battery builds inside ``verify_isometry``
# (support 4, 20 random vectors; the pipelines at N = 30 on the standard
# battery): per ± class the coefficient norm and the norm, each nonzero point
# defect, the orbit rules' member slopes and thm57's two rule values. None
# comes from arithmetic, so the count is the same on every Python version.
VERIFY_FRACTIONS = {
    "prop23": 120, "prop31": 120, "thm34": 120, "thm37": 120, "prop42": 120,
    "thm43": 184, "thm45": 187, "thm46": 102, "thm51": 120, "prop53": 120, "thm57": 161,
    "dmqr41": 575, "example48": 442, "power_line": 509,
}
# The only rational comparisons left in these jobs check the parameters of
# the dmqr44, thm57 and power_line models and of the thm57 builder.
PARAMETER_CHECKS = [("thm46", "__le__")] + [("thm57", "__le__")] * 3 + [("power_line", "__le__")]


def test_fraction_counts_of_the_benchmark_batteries(monkeypatch):
    counts = dict.fromkeys(VERIFY_FRACTIONS, 0)
    comparisons = []
    real_new, real_verify = fractions.Fraction.__new__, embeddings.verify_isometry
    job = None

    def new(cls, *args, **kwargs):
        counts[job] += verifying
        return real_new(cls, *args, **kwargs)

    def verify(*args, **kwargs):
        nonlocal verifying
        verifying = 1
        try:
            return real_verify(*args, **kwargs)
        finally:
            verifying = 0

    def compare(name):
        real = getattr(fractions.Fraction, name)
        return lambda a, b: comparisons.append((job, name)) or real(a, b)

    verifying = 0
    monkeypatch.setattr(embeddings, "verify_isometry", verify)
    monkeypatch.setattr(fractions.Fraction, "__new__", new)
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(fractions.Fraction, name, compare(name))
    for job in VERIFY_THEOREMS:
        verify_standard(standard_family(job), seed=12345, rand_count=20, support=4)
    for job in ("dmqr41", "example48", "power_line"):
        main_theorem_pipeline(load_model(job, {}), 30)
    monkeypatch.undo()
    assert counts == VERIFY_FRACTIONS
    assert comparisons == PARAMETER_CHECKS
