import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from builders import as_parts, defect, ell1_sign_check
from lipcheck import embeddings, metric
from lipcheck.embeddings import (
    BATTERY_SEED,
    ConstructionError,
    DichotomyError,
    Expectation,
    FamilySpec,
    RuleData,
    build_family,
    check_canonical,
    check_prop31,
    check_prop42,
    check_thm34,
    check_thm37,
    check_thm43,
    check_thm45,
    check_thm46,
    coefficient_norm,
    lift_coefficients,
    main_theorem_pipeline,
    prime_orbits,
    report_json,
    run_checker,
    standard_battery,
    standard_family,
    verify_isometry,
    verify_standard,
)
from lipcheck.lipfun import (
    MoleculeTable,
    combine,
    lip_norm,
    lipfn,
    max_quotient,
    pointwise_sup,
    slope,
    strong_pairs,
)
from lipcheck.metric import (
    ModelError,
    PreconditionError,
    TailDataError,
    _seq_model,
    catalog,
    integer_line,
    power_line,
    truncate,
)
from lipcheck.rational import ONE, ZERO, rat

INTLINE10 = truncate(integer_line(), 10)
DISCRETE10 = truncate(catalog("discrete"), 10)
EX33_10 = truncate(catalog("example33"), 10)
EX35_10 = truncate(catalog("example35"), 10)


# ---------------------------------------------------------------------------
# helpers


def test_prime_orbits():
    assert prime_orbits(1) == []
    assert prime_orbits(4) == [(2, (2, 4))]
    assert prime_orbits(30) == [(2, (2, 4, 8, 16)), (3, (3, 9, 27)), (5, (5, 25))]


def test_standard_battery_shape():
    batt = standard_battery(3)
    assert len(batt) == 27 + 100
    assert all(len(vec) == 3 for vec in batt)
    assert tuple([ZERO] * 3) in batt
    # the random tail keeps entries in [-3, 3] and is seed-deterministic
    assert all(abs(a) <= rat(3) for vec in batt for a in vec)
    assert batt == standard_battery(3)
    assert batt != standard_battery(3, seed=BATTERY_SEED + 1)
    big = standard_battery(8)
    assert len(big) == 3 ** 5 + 100  # sign part clipped to the first 5 slots


def test_coefficient_norm():
    assert coefficient_norm((rat(1, 2), rat(-2)), "sup-norm") == rat(2)
    assert coefficient_norm((rat(1, 2), rat(-2)), "sum-norm") == rat(5, 2)
    with pytest.raises(PreconditionError):
        coefficient_norm((ONE,), "euclid")


# ---------------------------------------------------------------------------
# hypothesis checkers


def test_check_prop31_star_passes():
    star = truncate(catalog("prop23"), 8)
    points = tuple(range(1, 8))
    partners = tuple(0 for _ in points)
    assert check_prop31(star, points, partners)


def test_check_prop31_integer_line_passes():
    points = (1, 3, 5, 7, 9)
    partners = (0, 2, 4, 6, 8)
    assert check_prop31(INTLINE10, points, partners)


def test_check_prop31_example33_separation_fails():
    res = check_prop31(EX33_10, (1, 2), (2, 3))
    assert not res
    assert res.clause == "separation"
    assert res.witness_indices == (1, 2)
    assert res.witness_values == (rat(3, 2), rat(3, 2) + rat(4, 3))


def test_check_prop31_radius_clause():
    res = check_prop31(INTLINE10, (1,), (3,))
    assert not res
    assert res.clause == "radius"
    assert res.witness_values == (rat(2), ONE)


def test_check_prop31_anchor_validation():
    with pytest.raises(PreconditionError):
        check_prop31(INTLINE10, (1, 1), (2, 2))
    with pytest.raises(PreconditionError):
        check_prop31(INTLINE10, (1,), (1,))
    with pytest.raises(PreconditionError):
        check_prop31(INTLINE10, (1, 2), (0,))


def test_check_thm34_discrete_passes():
    pairs = ((1, 2), (3, 4), (5, 6))
    assert check_thm34(DISCRETE10, pairs)


def test_check_thm34_example35_cross_gap():
    res = check_thm34(EX35_10, ((1, 2), (3, 4)))
    assert not res
    assert res.clause == "cross-gap"
    # pair distances 5/2 and 19/12 against twice the closest cross distance
    assert res.witness_values == (rat(49, 12), rat(7, 2))


def test_check_thm34_radius_clause():
    res = check_thm34(INTLINE10, ((1, 4),))
    assert not res
    assert res.clause == "radius"
    assert res.witness_values == (ONE, rat(3, 2))


def test_check_thm37_example35_passes():
    pairs = ((1, 2), (3, 4), (5, 6), (7, 8))
    assert check_thm37(EX35_10, pairs)


def test_check_thm37_example48_fails():
    res = check_thm37(truncate(catalog("example48"), 12), ((1, 2), (3, 4)))
    assert not res
    assert res.clause == "qq"
    assert res.witness_indices == (0, 1)


def test_check_thm37_pair_radius_clause():
    res = check_thm37(INTLINE10, ((1, 5),))
    assert not res
    assert res.clause == "pair-radius"
    assert res.witness_values == (rat(4), rat(2))


def test_check_prop42_integer_line_passes():
    assert check_prop42(INTLINE10, (1, 3, 5, 7, 9))


def test_check_prop42_discrete_fails():
    res = check_prop42(DISCRETE10, (1, 2, 3, 4))
    assert not res
    assert res.clause == "separation"
    assert res.witness_values == (ONE, rat(2))


def test_check_prop42_example33_fails():
    res = check_prop42(EX33_10, (1, 2, 3))
    assert not res
    assert res.clause == "separation"


def test_check_thm43_dmqr41_passes():
    assert check_thm43(catalog("dmqr41"), 30)


def test_check_thm43_requires_tails():
    with pytest.raises(TailDataError):
        check_thm43(catalog("dmqr44", c=1), 10)


def test_check_thm43_monotone_tail_declaration():
    model = _seq_model(
        "undeclared-tails",
        {},
        seq_parts=as_parts(lambda n, m: ONE + rat(1, max(n, m))),
        L_pair=lambda n: ONE,
        L=ONE,
    )
    res = check_thm43(model, 8)
    assert not res
    assert res.clause == "monotone-tail-undeclared"


def test_check_thm43_finite_monotone_violation():
    def srule(n, m):
        lo, hi = min(n, m), max(n, m)
        if (lo, hi) == (1, 2):
            return rat(5, 4)
        return ONE + rat(1, hi)

    model = _seq_model(
        "bump", {}, seq_parts=as_parts(srule), L_pair=lambda n: ONE, L=ONE,
        monotone_tails=True,
    )
    res = check_thm43(model, 6)
    assert not res
    assert res.clause == "monotone"
    assert res.witness_indices == (1, 2)
    assert res.witness_values == (rat(5, 4), rat(4, 3))


def test_check_thm45_example44_passes():
    model = catalog("example44")
    assert check_thm45(model, range(2, model.n_seq(30) + 1), 30)


def test_check_thm45_rejects_first_index():
    # the first sequence point is closer to the tail than to the base
    res = check_thm45(catalog("example44"), (1, 2, 3), 30)
    assert not res
    assert res.clause == "radius-equality"
    assert res.witness_indices == (1,)
    assert res.witness_values == (rat(3, 2), rat(31, 30))


def test_check_thm45_needs_base_limit():
    with pytest.raises(TailDataError):
        check_thm45(catalog("dmqr41"), (2, 3, 4), 10)


def test_check_thm45_positive_limit():
    res = check_thm45(catalog("prop24"), (1, 2, 3), 10)
    assert not res
    assert res.clause == "positive-limit"


def test_check_thm45_subseq_validation():
    model = catalog("example44")
    with pytest.raises(PreconditionError):
        check_thm45(model, (3, 2), 10)
    with pytest.raises(PreconditionError):
        check_thm45(model, (2, 99), 10)
    with pytest.raises(PreconditionError):
        check_thm45(model, (2,), 10)


def test_checker_indices_are_never_truncated():
    """A non-integer index raises an error naming it; it is not read as
    its integer part."""
    with pytest.raises(PreconditionError, match="subsequence index 2.7 is not an integer"):
        check_thm45(catalog("example44"), [2.7, 3.2], 20)
    with pytest.raises(PreconditionError, match="point index 1.5 is not an integer"):
        check_prop42(DISCRETE10, [1.5, 2])
    with pytest.raises(PreconditionError, match="partner index 2.0 is not an integer"):
        check_prop31(INTLINE10, (1,), (2.0,))
    for checker in (check_thm34, check_thm37):
        with pytest.raises(PreconditionError, match="pair index 2.5 is not an integer"):
            checker(DISCRETE10, [(1, 2.5)])


def test_checker_witnesses_hold_plain_ints():
    res = check_prop42(DISCRETE10, [True, 2])
    assert not res
    assert res.witness_indices == (1, 2)
    assert [type(i) for i in res.witness_indices] == [int, int]
    res = check_prop31(INTLINE10, (True,), (3,))
    assert [type(i) for i in res.witness_indices] == [int, int]


def test_check_thm46_dmqr44_passes():
    model = catalog("dmqr44", c=1)
    assert check_thm46(model, model.eps, 20)


def test_check_thm46_eps_mismatch():
    model = catalog("dmqr44", c=1)

    def off_by_one(n):
        return model.eps(n) + (rat(1, 100) if n == 3 else ZERO)

    with pytest.raises(TailDataError):
        check_thm46(model, off_by_one, 20)


def test_check_thm46_needs_ratio_declaration():
    with pytest.raises(TailDataError):
        check_thm46(catalog("example44"), lambda n: rat(1, 10), 10)


def test_check_thm46_rejects_negative_eps():
    model = catalog("dmqr44", c=1)
    with pytest.raises(PreconditionError):
        check_thm46(model, lambda n: -ONE, 10)


def test_check_thm46_eps_list_form():
    model = catalog("dmqr44", c=1)
    eps = [model.eps(n) for n in range(1, model.n_seq(12) + 1)]
    assert check_thm46(model, eps, 12)
    with pytest.raises(PreconditionError):
        check_thm46(model, eps[:3], 12)


# ---------------------------------------------------------------------------
# build_family gatekeeping


def test_build_family_runs_checker():
    spec = FamilySpec("prop42", DISCRETE10, anchors=(1, 2, 3))
    with pytest.raises(PreconditionError):
        build_family(spec)
    fns = build_family(spec, override=True)
    assert len(fns) == 3
    assert fns[0].values[1] == ONE  # spike at the radius


def test_build_family_rejects_base_anchor():
    spec = FamilySpec("prop23", DISCRETE10, anchors=(0, 1))
    with pytest.raises(PreconditionError):
        build_family(spec)


def test_build_family_unknown_id():
    with pytest.raises(PreconditionError):
        build_family(FamilySpec("thm99", DISCRETE10))


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("anchors", [
    ((1, 3),), ((1, 3), (0, 2), (5,)), (1, 3, 5), (1, 3), (), ((1, 3), (2,)),
])
def test_prop31_anchors_are_two_index_sequences_of_equal_length(anchors, override):
    """prop31's anchors are (points, partners). Any other shape is refused
    on the checked and the override path alike; before, some raised
    TypeError or IndexError and some built with the wrong rows paired."""
    spec = FamilySpec("prop31", INTLINE10, anchors=anchors)
    with pytest.raises(PreconditionError, match="two index sequences of equal length"):
        build_family(spec, override=override)
    fns = build_family(replace(spec, anchors=((1, 3), (2, 4))), override=override)
    assert [f.values[p] for f, p in zip(fns, (1, 3))] == [ONE, ONE]


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("tid, anchors", [
    ("thm34", ((1, 2, 3),)), ("thm37", ((1,),)), ("thm34", (1, 2)),
])
def test_pair_anchors_are_pairs_of_two_indices(tid, anchors, override):
    """thm34 and thm37 take index pairs. A pair of another length, or a bare
    index where a pair belongs, is refused on the checked and the override
    path alike; before, these raised ValueError or TypeError from unpacking."""
    spec = FamilySpec(tid, INTLINE10, anchors=anchors)
    with pytest.raises(PreconditionError, match="^pair anchors must be a sequence of index pairs$"):
        build_family(spec, override=override)
    fns = build_family(replace(spec, anchors=((1, 2), (4, 5))), override=override)
    assert len(fns) == 2


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("tid, anchors, message", [
    ("prop31", ((1, 30), (2, 4)), "point index 30 out of range"),
    ("prop42", (1, 30), "point index 30 out of range"),
    ("thm34", ((1, 30),), "pair index 30 out of range"),
    ("prop31", ((1.5, 3), (2, 4)), "point index 1.5 is not an integer"),
    ("prop31", ((1, 3), (2, 40)), "partner index 40 out of range"),
])
def test_override_builders_check_their_rows(tid, anchors, message, override):
    """The builders check anchor rows (and prop31's partners) themselves, so
    override=True raises the checked path's error; before, these raised
    IndexError or TypeError, or built with a partner past the space."""
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        build_family(FamilySpec(tid, INTLINE10, anchors=anchors), override=override)


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("anchors, message", [
    ((2.5, 3.5, 4.5, 5.5), "subsequence index 2.5 is not an integer"),
    ((2, 3, 4, 99), "subsequence indices out of the truncated range"),
    ((5, 4, 3, 2), "subsequence indices must be strictly increasing"),
])
def test_thm45_builder_checks_its_subsequence(anchors, message, override):
    """thm45's builder checks the subsequence as its checker does, so
    override=True raises the checked path's error; before, these raised
    TypeError or IndexError, or built on a decreasing subsequence."""
    model = catalog("example44")
    spec = FamilySpec("thm45", truncate(model, 10), anchors=anchors, model=model, N=10)
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        build_family(spec, override=override)


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("tid, model, parameters, message", [
    ("thm51", catalog("thm51star", levels=3), {"levels": rat(27, 10)},
     "thm51 needs an integer levels, got 27/10"),
    ("prop53", catalog("prop53", levels=3), {"levels": rat(5, 2)},
     "prop53 needs an integer levels, got 5/2"),
    ("thm57", catalog("thm57"), {"c": rat(2), "groups": rat(9, 2), "levels": 2},
     "thm57 needs an integer groups, got 9/2"),
    ("thm57", catalog("thm57"), {"c": rat(2), "groups": 4, "levels": rat(3, 2)},
     "thm57 needs an integer levels, got 3/2"),
])
def test_group_builders_refuse_non_integral_counts(tid, model, parameters, message, override):
    """levels and groups go through metric.int_param: a hand-built spec with
    27/10 levels is refused, where it used to build the levels=2 family."""
    spec = FamilySpec(tid, truncate(model, 8), parameters=parameters)
    with pytest.raises(ModelError, match=f"^{message}$"):
        build_family(spec, override=override)


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("tid, model, anchors, error, message", [
    ("thm43", integer_line(), (), TailDataError, "limits unavailable for model 'integer_line'"),
    ("thm43", catalog("prop53"), (), ModelError, "model 'prop53' has no sequence structure"),
    ("thm45", catalog("dmqr41"), (2, 3, 4, 5), TailDataError,
     "limits unavailable for model 'dmqr41'"),
    ("thm45", catalog("thm57"), (2, 3, 4, 5), ModelError,
     "model 'thm57' has no sequence structure"),
])
def test_orbit_builders_check_the_tails_they_read(tid, model, anchors, error, message, override):
    """thm43's builder reads L and L_pair, and thm45's the base limit, so
    override=True raises the checked path's error; before, these raised
    TypeError on the missing tail."""
    spec = FamilySpec(tid, truncate(model, 10), anchors=anchors, model=model, N=10)
    with pytest.raises(error, match=f"^{message}$") as err:
        build_family(spec, override=override)
    assert type(err.value) is error


def test_registry_refuses_ids_without_the_asked_role():
    with pytest.raises(PreconditionError):
        standard_family("thm99")
    with pytest.raises(PreconditionError):
        standard_family("thm310")  # check-only
    with pytest.raises(PreconditionError):
        check_canonical("thm51", catalog("thm51star"), 8)  # no hypothesis check
    with pytest.raises(PreconditionError):
        build_family(FamilySpec("thm310", DISCRETE10))
    assert run_checker(FamilySpec("thm99", DISCRETE10)) is None
    with pytest.raises(PreconditionError):
        run_checker(FamilySpec("thm43", DISCRETE10))  # no model and N


def test_registry_reaches_checkers_through_module_names(monkeypatch):
    """A wrapper installed on ``embeddings.check_*`` after import sees the
    calls made through the table, from both the check and verify paths."""
    import lipcheck.embeddings as emb

    calls = []
    real = emb.check_thm34
    monkeypatch.setattr(
        emb, "check_thm34", lambda *args: calls.append(args) or real(*args)
    )
    assert check_canonical("thm34", catalog("discrete"), 6).ok
    assert standard_family("thm34", N=6).checker.ok
    assert len(calls) == 2


def test_canonical_and_standard_prop31_layouts_differ():
    # the check command pairs odd rows with p + 1, the standard family with p - 1
    assert check_canonical("prop31", integer_line(), 10).ok
    built = standard_family("prop31")
    assert built.spec.anchors == ((1, 3, 5, 7, 9), (0, 2, 4, 6, 8))
    assert built.spec.model is None


# ---------------------------------------------------------------------------
# standard families: exact constructions


EXACT_IDS = ("prop23", "prop31", "thm34", "thm37", "prop42", "thm51", "prop53")


@pytest.mark.parametrize("tid", EXACT_IDS)
def test_standard_exact_families(tid):
    built = standard_family(tid)
    if built.checker is not None:
        assert built.checker.ok
    report = verify_standard(built)
    assert report.exact_pass
    assert report.expectation_pass
    assert report.worst_defect == ZERO
    assert report.failures == ()
    assert report.seed == BATTERY_SEED


def test_standard_family_sizes_and_targets():
    assert standard_family("prop23").size == 15
    assert standard_family("thm34").size == 7
    assert standard_family("thm37").size == 4
    assert standard_family("thm51").target == "sum-norm"
    assert standard_family("prop53").target == "sum-norm"
    assert standard_family("thm43").members == (2, 3, 5)
    assert standard_family("thm46").members == (2, 3)


def test_verify_computes_one_norm_per_vector(count_calls, monkeypatch):
    """verify_isometry reads each combination off the family's molecule
    table with one scan: thm43 has no designated witness pair, so that scan
    gives the norm and the recorded pair, reused for the defect. A vector
    whose negation came earlier reuses that scan: the 27 sign vectors are
    the zero vector and 13 pairs, so the 127 vectors take 114 scans. No pair
    is scanned by ``lip_norm``, ``strong_pairs`` or ``max_quotient``."""
    built = standard_family("thm43")
    battery = standard_battery(built.size)
    scans = []
    real = MoleculeTable.scan
    monkeypatch.setattr(MoleculeTable, "scan",
                        lambda self, C, find_pair=False: scans.append(find_pair)
                        or real(self, C, find_pair))
    pair_scans = [count_calls(fn) for fn in (lip_norm, strong_pairs, max_quotient)]
    report = verify_standard(built)
    assert report.expectation_pass
    assert scans == [True] * 114 and len(battery) == len(report.witnesses) == 127
    assert [len(calls) for calls in pair_scans] == [0, 0, 0]


def test_thm57_deflated():
    built = standard_family("thm57")
    assert built.size == 3  # sign depth carried by eight groups
    report = verify_standard(built)
    assert not report.exact_pass  # norms deflate by the truncation factor
    assert report.expectation_pass
    a = (rat(1), rat(-1), rat(1))
    f = combine(built.functions, a)
    scale = ONE - rat(1, 256)
    assert lip_norm(f) == rat(3) * scale
    assert pointwise_sup(f, 0) == rat(3) * scale  # zero defect at the base
    assert rat(3) - pointwise_sup(f, 0) == rat(3, 256)
    # the witness pair is the deepest point of the sign-matched group
    pr = built.expectation.rule(*lift_coefficients(a, built.target)).witness_pair
    assert slope(f, pr[0], pr[1]) == rat(3) * scale


# ---------------------------------------------------------------------------
# standard families: asymptotic constructions


def test_thm43_frozen_oracle():
    built = standard_family("thm43", N=30)
    assert built.members == (2, 3, 5)
    assert built.checker.ok
    a = (rat(1), rat(-1), rat(1))
    f = combine(built.functions, a)
    assert lip_norm(f) == rat(27, 28)
    assert abs(slope(f, 1, 15)) == rat(16, 17)  # head pair of the first member
    assert pointwise_sup(f, 1) == rat(25, 26)
    assert defect(f, 1) == rat(1, 364)
    report = verify_standard(built)
    assert not report.exact_pass
    assert report.expectation_pass
    assert report.failures == ()


def test_thm43_norm_gap_nonincreasing():
    # with the member set and coefficients fixed, larger truncations only add
    # slope pairs, so the gap to the target norm can only shrink
    a = (rat(1), rat(-1))
    gaps = []
    for n_points in (20, 25, 30):
        built = standard_family("thm43", N=n_points)
        f = combine(built.functions[:2], a)
        gaps.append(ONE - lip_norm(f))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[0] == rat(1, 17)
    assert gaps[2] == rat(1, 28)


def test_thm45_frozen_oracle():
    built = standard_family("thm45", N=30)
    assert built.checker.ok
    a = (rat(1), rat(-1), rat(0))
    f = combine(built.functions, a)
    assert lip_norm(f) == rat(45, 46)
    assert pointwise_sup(f, 0) == rat(14, 15)
    assert defect(f, 0) == rat(31, 690)
    # deepest orbit point of the first member against the base
    assert abs(slope(f, 17, 0)) == rat(17, 19)
    report = verify_standard(built)
    assert not report.exact_pass
    assert report.expectation_pass


def test_thm46_frozen_oracle():
    built = standard_family("thm46", N=20)
    assert built.checker.ok
    f = combine(built.functions, (rat(1), rat(0)))
    # shifted distances: g_2 = 5/3, g_4 = 18/5, g_16 = 264/17; the deepest
    # orbit point dominates: (5/3 + 264/17) / (18 - 8/17) = 877/894
    assert abs(slope(f, 2, 4)) == rat(79, 84)
    assert lip_norm(f) == rat(877, 894)
    assert abs(slope(f, 2, 16)) == rat(877, 894)
    assert defect(f, 2) == ZERO  # the head-to-deepest pair attains the norm
    report = verify_standard(built)
    assert not report.exact_pass
    assert report.expectation_pass


# ---------------------------------------------------------------------------
# isometry verification plumbing


def _norm_only(C, K, norm):
    """The norm is the coefficient norm; nothing more is named."""
    return RuleData(norm)


def test_verify_isometry_reports_failures():
    space = truncate(catalog("prop23"), 4)
    vals = [ZERO] * 4
    vals[1] = rat(2)  # twice the radius: the spike is too tall

    fam = (lipfn(space, vals),)
    report = verify_isometry(fam, "sup-norm", ((ONE,),), Expectation("exact", _norm_only))
    assert not report.exact_pass
    assert not report.expectation_pass
    assert report.failures == ("a=(1): norm 2 != 1",)
    assert report.worst_defect == ONE


def test_verify_isometry_reports_deflated_failures_in_order():
    """thm57 with its norm factor doubled: the norm, the sup at the base and
    the witness pair miss on every vector, and only the first eight
    failures are kept."""
    built = standard_family("thm57")
    rule = built.expectation.rule

    def doubled(C, K, norm):
        data = rule(C, K, norm)
        return replace(data, expected_norm=2 * data.expected_norm,
                       expected_sup=2 * data.expected_sup)

    report = verify_isometry(built.functions, built.target, standard_battery(built.size),
                             Expectation("deflated", doubled), seed=BATTERY_SEED)
    assert report.failures == (
        "a=(-1,-1,-1): norm 765/256 != 765/128",
        "a=(-1,-1,-1): sup at 0 is 765/256",
        "a=(-1,-1,-1): witness pair (0, 8) misses the norm",
        "a=(-1,-1,0): norm 255/128 != 255/64",
        "a=(-1,-1,0): sup at 0 is 255/128",
        "a=(-1,-1,0): witness pair (0, 40) misses the norm",
        "a=(-1,-1,1): norm 765/256 != 765/128",
        "a=(-1,-1,1): sup at 0 is 765/256",
    )
    assert not report.exact_pass and not report.expectation_pass
    assert report.worst_defect == rat(83, 2560)


def test_verify_isometry_rejects_bad_input():
    with pytest.raises(PreconditionError):
        verify_isometry((), "sup-norm", ((ONE,),), Expectation("exact", _norm_only))


def test_every_verified_family_reaches_verify_isometry_once(monkeypatch, tmp_path, capsys):
    """`lipcheck verify`, each family of criterion 2's loop, the three main
    pipeline cases and the tree pipeline each verify through exactly one
    call of ``embeddings.verify_isometry``, the one ``verify_standard``
    makes, and report the vector count of that call."""
    import lipcheck.embeddings as emb
    from lipcheck import acceptance, cli
    from lipcheck.rtree import tree_c0_pipeline, tree_metric, weighted_tree

    sizes = []
    real = emb.verify_isometry

    def counting(family, target, coeff_set, expectation, seed=None):
        sizes.append(len(coeff_set))
        return real(family, target, coeff_set, expectation, seed=seed)

    monkeypatch.setattr(emb, "verify_isometry", counting)

    def once(run):
        sizes.clear()
        result = run()
        assert len(sizes) == 1
        return result

    argv = ["verify", "--theorem", "thm34", "--support", "2", "--rand-count", "3",
            "--out", str(tmp_path / "verify.json")]
    assert once(lambda: cli.main(argv)) == 0
    assert f"({sizes[0]} vectors)" in capsys.readouterr().out

    sizes.clear()
    details = acceptance.criterion_2()["details"]
    assert sizes == [details[f"N={N}"]["vectors"] for N in (8, 16, 32)]

    for model_name, case in (("power_line", "II"), ("example48", "I-(ii)"),
                             ("dmqr41", "I-(i)")):
        model = cli.load_model(model_name, {})
        assert once(lambda: main_theorem_pipeline(model, 30)).case == case

    star = weighted_tree(8, [(0, leaf, 1) for leaf in range(1, 8)])
    res = once(lambda: tree_c0_pipeline(tree_metric(star)))
    assert res.family.members == res.points
    assert res.family.spec.anchors == (res.points, res.partners)
    assert res.family.checker is res.check


def test_witness_records_orientation():
    built = standard_family("thm34", N=6)
    report = verify_standard(built)
    for rec in report.witnesses:
        if rec.norm > ZERO and rec.pair is not None:
            f = combine(built.functions, rec.coeffs)
            assert slope(f, rec.pair[0], rec.pair[1]) == rec.norm


def test_report_json_shape():
    built = standard_family("thm34")
    report = verify_standard(built)
    js = report_json("thm34", "discrete", 16, built.checker, report)
    assert js["checker"] is True
    assert js["exact_pass"] is True
    assert js["worst_defect"] == "0"
    assert js["coeff_count"] == len(report.coefficient_set)
    assert len(js["witness_samples"]) == 5
    assert js["witness_samples"][0]["norm"] == "1"  # battery starts all-minus-one


# ---------------------------------------------------------------------------
# coherence between checkers and sign-vector verification


COHERENCE_CASES = [
    ("prop31", truncate(catalog("prop23"), 8), (tuple(range(1, 8)), (0,) * 7), True),
    ("prop31", EX33_10, ((1, 2), (2, 3)), False),
    ("thm34", DISCRETE10, ((1, 2), (3, 4)), True),
    ("thm34", EX35_10, ((1, 2), (3, 4)), False),
    ("thm37", EX35_10, ((1, 2), (3, 4), (5, 6), (7, 8)), True),
    ("thm37", truncate(catalog("example48"), 12), ((1, 2), (3, 4)), False),
    ("prop42", INTLINE10, (1, 3, 5, 7, 9), True),
    ("prop42", DISCRETE10, (1, 2, 3, 4), False),
    ("prop42", EX33_10, (1, 2, 3), False),
]


@pytest.mark.parametrize("tid,space,anchors,expected", COHERENCE_CASES)
def test_checker_coheres_with_sign_vectors(tid, space, anchors, expected):
    spec = FamilySpec(tid, space, anchors=anchors)
    res = run_checker(spec)
    assert res.ok is expected
    fns = build_family(spec, override=True)
    all_exact = True
    for signs in itertools.product((-1, 0, 1), repeat=len(fns)):
        coeffs = tuple(rat(s) for s in signs)
        if lip_norm(combine(fns, coeffs)) != coefficient_norm(coeffs, "sup-norm"):
            all_exact = False
            break
    assert all_exact is expected


# ---------------------------------------------------------------------------
# main pipeline


def test_pipeline_dmqr41_takes_first_route():
    res = main_theorem_pipeline(catalog("dmqr41"), 30)
    assert res.case == "I-(i)"
    assert res.subspace == tuple(range(30))
    assert len(res.family) == 3
    eps, g = res.data["eps"], res.data["g"]
    assert eps[2] == ONE and eps[3] == rat(5, 6) and eps[4] == rat(3, 4)
    assert eps[10] == rat(3, 5)
    assert all(v == rat(1, 2) for v in g.values())
    assert res.report.expectation_pass
    case, subspace, family, report = res
    assert case == "I-(i)" and len(family) == 3 and report is res.report


def test_pipeline_example35_boundary_equalities():
    # pair gaps meet tail gaps exactly, so the combined norms reach the
    # target already at finite scale even on this route
    res = main_theorem_pipeline(catalog("example35"), 12)
    assert res.case == "I-(i)"
    assert res.report.expectation_pass
    assert res.report.exact_pass


def test_pipeline_example48_takes_second_route():
    res = main_theorem_pipeline(catalog("example48"), 30)
    assert res.case == "I-(ii)"
    assert res.data["sigma"] == (1, 5, 9, 13, 17, 21, 25, 29)
    assert res.data["tau"] == (2, 6, 10, 14, 18, 22, 26, 30)
    assert res.data["eps"][0] == rat(1, 54)
    assert res.data["eps"][1] == rat(1, 4374)
    assert res.data["base"] == 3
    assert res.subspace[:3] == (2, 0, 1)
    f1 = res.family[0]
    assert f1.values[1] == rat(11, 18)
    assert f1.values[2] == rat(-5, 6)
    assert len(res.family) == 8
    assert res.report.exact_pass
    assert res.report.expectation_pass


def test_pipeline_example33_takes_second_route():
    res = main_theorem_pipeline(catalog("example33"), 30)
    assert res.case == "I-(ii)"
    assert res.data["sigma"] == (1, 13)
    assert res.data["tau"] == (2, 14)
    assert res.data["eps"] == (rat(1, 12), rat(1, 84))
    assert res.data["base"] == 3
    f1 = res.family[0]
    assert f1.values[1] == rat(5, 4)
    assert f1.values[2] == rat(-3, 4)
    assert res.report.exact_pass


def test_pipeline_dichotomy_must_be_uniform():
    def srule(n, m):
        if {n, m} == {1, 2}:
            return rat(3)
        return rat(2) - rat(1, n + m)

    model = _seq_model(
        "mixed-gaps", {}, seq_parts=as_parts(srule), L_pair=lambda n: rat(2), L=rat(2)
    )
    with pytest.raises(DichotomyError) as err:
        main_theorem_pipeline(model, 8)
    assert "(1, 2)" in str(err.value) and "(1, 3)" in str(err.value)


def test_pipeline_case_i1_refuses_a_negative_shifted_distance():
    # Unit distances under declared tails L = 2, L(n) = 1/2: phi = -1 is at
    # least psi(n) + psi(m) = -3 on every pair, so the model takes I-(i),
    # and g_n = L/2 + psi(n) = -1/2.
    model = _seq_model(
        "short-tails", {}, seq_parts=lambda n, m: (1, 1), L_pair=lambda n: rat(1, 2), L=rat(2)
    )
    with pytest.raises(ConstructionError) as err:
        main_theorem_pipeline(model, 8)
    assert str(err.value) == "negative shifted distance at n=2"


def test_pipeline_case_ii_integer_line():
    res = main_theorem_pipeline(integer_line(), 60)
    assert res.case == "II"
    assert res.subspace == (0, 2, 9, 55)
    assert res.data["c"] == (ONE, ONE, rat(6), rat(40))
    assert len(res.family) == 1
    f = res.family[0]
    assert f.values[1] == ONE and f.values[3] == rat(-40)
    assert lip_norm(f) == rat(20, 23)
    assert pointwise_sup(f, 1) == rat(41, 53)
    assert defect(f, 1) == rat(117, 1219)
    assert res.report.expectation_pass


def test_pipeline_case_ii_power_line():
    res = main_theorem_pipeline(power_line(4), 30)
    assert res.case == "II"
    assert res.subspace == (0, 1, 2, 4, 6, 8, 10, 12, 15, 18, 21, 24, 27)
    assert res.data["c"][:4] == (ONE, rat(2), rat(10), rat(230))
    assert len(res.family) == 2
    assert res.report.expectation_pass
    # weight sums meet the distances exactly here, so aligned coefficients
    # attain the target norm on the truncation
    f = combine(res.family, (ONE, ONE))
    assert lip_norm(f) == ONE
    assert abs(slope(f, 2, 3)) == ONE  # the equality pair c_3 + c_4 = d


def test_pipeline_case_ii_needs_an_orbit():
    with pytest.raises(ConstructionError):
        main_theorem_pipeline(integer_line(), 3)


def test_pipeline_rejects_nonsequence_models():
    with pytest.raises(ModelError):
        main_theorem_pipeline(catalog("thm51star", levels=3), 8)


def _rule_counted(model, calls):
    """``model`` with each of its rules recording one entry in ``calls`` per
    evaluation. ``row_parts`` wraps the uncounted sequence rules, so an entry
    a truncation computes counts once."""

    def counted(rule):
        def evaluate(*args):
            calls.append(args)
            return rule(*args)

        return rule and evaluate

    return replace(model, **{
        name: counted(getattr(model, name)) for name in ("row_parts", "seq_parts", "base_parts")
    })


# Each runs one job on rule-counted models (``counted`` wraps a model; the
# standard instances build theirs through ``embeddings.catalog``).
RULE_READERS = {
    "pipeline-dmqr41": lambda counted: main_theorem_pipeline(counted(catalog("dmqr41")), 30),
    "pipeline-example48": lambda counted: main_theorem_pipeline(counted(catalog("example48")), 30),
    "pipeline-power_line": lambda counted: main_theorem_pipeline(counted(power_line(4)), 30),
    "verify-thm43": lambda counted: verify_standard(standard_family("thm43")),
    "verify-thm45": lambda counted: verify_standard(standard_family("thm45")),
    "verify-thm46": lambda counted: verify_standard(standard_family("thm46")),
    "check-thm310": lambda counted: check_canonical("thm310", counted(catalog("dmqr41")), 20),
}


@pytest.mark.parametrize("label", RULE_READERS)
def test_model_rules_are_evaluated_only_inside_truncate(monkeypatch, count_calls, label):
    """Checkers, orbit rules and the main pipeline read every sequence
    distance and tail gap from the validated truncation: the model's rules
    are evaluated exactly N(N - 1) times per truncation built, and nowhere
    else."""
    calls, models = [], []

    def counted(model):
        models.append(_rule_counted(model, calls))
        return models[-1]

    monkeypatch.setattr(embeddings, "catalog", lambda name, **params: counted(catalog(name, **params)))
    truncations = count_calls(metric.truncate)
    RULE_READERS[label](counted)
    built = [N for model, N in truncations if any(model is m for m in models)]
    assert built
    assert len(calls) == sum(N * (N - 1) for N in built)


# ---------------------------------------------------------------------------
# sign-pattern check for sum-norm families


def test_ell1_sign_check_matched():
    built = standard_family("thm51")
    a = (rat(1), rat(-1), rat(1), ZERO, ZERO)
    # bits 1, 3, 4, 5 set: members one and three positive, zeros count as +
    g0 = 1 + 4 + 8 + 16
    pair = (2 * g0, 2 * g0 + 1)
    assert ell1_sign_check(built.functions, a, pair)
    assert ell1_sign_check(built.functions, a, pair, require_strong=True)
    flipped = (rat(1), rat(1), rat(1), ZERO, ZERO)
    assert not ell1_sign_check(built.functions, flipped, pair)


def test_ell1_sign_check_single_member():
    built = standard_family("thm51")
    pair = (2, 3)  # group 1 has its first bit set
    assert ell1_sign_check(built.functions[:1], (ONE,), pair, require_strong=True)


def test_ell1_sign_check_require_strong():
    built = standard_family("thm51")
    a = (rat(1), rat(-1), rat(1), ZERO, ZERO)
    with pytest.raises(PreconditionError):
        ell1_sign_check(built.functions, a, (0, 1), require_strong=True)


def test_ell1_sign_check_coeff_count():
    built = standard_family("thm51")
    with pytest.raises(PreconditionError):
        ell1_sign_check(built.functions[:2], (ONE, ONE, ONE), (2, 3))


THM51_L4 = standard_family("thm51", levels=4)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.sampled_from([-1, 0, 1]), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=15),
)
def test_ell1_check_matches_strong_attainment(signs, group):
    # the sign check answers True exactly when the pair's slope reaches the
    # combined norm
    coeffs = tuple(rat(s) for s in signs)
    pair = (2 * group, 2 * group + 1)
    f = combine(THM51_L4.functions, coeffs)
    attained = slope(f, pair[0], pair[1]) == lip_norm(f)
    assert ell1_sign_check(THM51_L4.functions, coeffs, pair) is attained


THM34_FAMILY = standard_family("thm34")


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(-30, 30), st.integers(1, 15)),
        min_size=7,
        max_size=7,
    )
)
def test_thm34_isometry_on_random_rationals(entries):
    coeffs = tuple(rat(n, d) for n, d in entries)
    f = combine(THM34_FAMILY.functions, coeffs)
    assert lip_norm(f) == coefficient_norm(coeffs, "sup-norm")
