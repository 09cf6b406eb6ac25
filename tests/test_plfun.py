import random

import pytest
from hypothesis import given, settings, strategies as st

import pl_oracle
from builders import gen_example62, plfn, symmetrize
from lipcheck.embeddings import standard_battery
from lipcheck.metric import LipcheckError, PreconditionError, StructureError
from lipcheck.plfun import gen_tents, gen_zigzag, pl_eval, pl_norm, pl_pointwise_sup, tent_sum
from lipcheck.rational import rat


def test_construction_guards():
    with pytest.raises(StructureError):
        plfn([0, 0, 1], [0, 0, 0])
    with pytest.raises(StructureError):
        plfn([0, 1], [0])
    with pytest.raises(PreconditionError):
        plfn([0, 1], [1, 0])
    with pytest.raises(PreconditionError):
        plfn([1, 2], [0, 1])  # base coordinate 0 missing


def test_identity_map():
    f = plfn([0, 1], [0, 1])
    assert pl_norm(f) == rat(1)
    flags = pl_oracle.classify(f)
    assert flags.sna
    assert flags.pna_points == (rat(0), rat(1))
    assert (rat(0), "right") in flags.der_points
    assert (rat(1), "left") in flags.der_points
    assert flags.ldira_points == (rat(0), rat(1))


def test_single_breakpoint_degenerates_to_zero():
    f = plfn([0], [0])
    assert pl_norm(f) == rat(0)
    assert pl_pointwise_sup(f, 0) == rat(0)


def test_pointwise_sup_segment_check_raises(monkeypatch):
    """The oracle's per-segment monotonicity check is an error, not an
    assert, so it survives python -O."""
    f = plfn([0, 1, 2], [0, 1, 2])
    real_eval = pl_oracle.pl_eval
    # Bend the midpoint of [1, 2] so the slope from 0 is not monotone there.
    monkeypatch.setattr(
        pl_oracle, "pl_eval",
        lambda g, q: rat(100) if q == rat(3, 2) else real_eval(g, q),
    )
    with pytest.raises(LipcheckError, match="segment monotonicity"):
        pl_oracle.pl_pointwise_sup(f, 0)


def _brute_sup(f, x, samples=3):
    """Largest |slope| from x to the breakpoints and to ``samples`` interior
    points of every segment, on Fractions through pl_eval."""
    bps = f.breakpoints
    partners = list(bps) + [
        a + (b - a) * rat(j, samples + 1)
        for a, b in zip(bps, bps[1:]) for j in range(1, samples + 1)
    ]
    fx = pl_eval(f, x)
    return max(
        (abs((pl_eval(f, q) - fx) / (q - x)) for q in partners if q != x),
        default=rat(0),
    )


def _seeded_zigzags(seed, count):
    """Zigzags in the ranges of the benchmark's zigzag jobs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        eta = rat(rng.randint(1, 3), 4)
        eps = rat(1, rng.randint(2, 8)) * (1 - eta)
        out.append(gen_zigzag(eps, eta, rng.randint(6, 12)))
    return out


def test_pointwise_sup_at_segment_midpoints():
    """At a segment midpoint the sup is the brute-force maximum over
    breakpoints and interior partners; the removed midpoint sample divided
    by zero there."""
    assert pl_pointwise_sup(plfn([0, 1, 2], [0, 1, 0]), rat(1, 2)) == rat(1)
    for g in _seeded_zigzags(20261019, 3):
        for f in (g, symmetrize(g)):
            bps = f.breakpoints
            for a, b in zip(bps, bps[1:]):
                m = (a + b) / 2
                assert pl_pointwise_sup(f, m) == _brute_sup(f, m), (f, m)


def _random_functions(seed, count):
    """Seeded functions of 1 to 12 breakpoints with signed values, so that
    the steepest segment may fall or rise."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        cuts = rng.sample(range(-40, 41), k % 12)
        bps = sorted({rat(c, rng.randint(1, 5)) for c in cuts} | {rat(0)})
        values = [rat(0) if b == 0 else rat(rng.randint(-9, 9), rng.randint(1, 4)) for b in bps]
        out.append(plfn(bps, values))
    return out


def _oracle_functions():
    """Seeded zigzags, tents 1-7, gen_example62(1..7), two tent sums and
    seeded signed functions, with symmetrized forms of all but six of the
    zigzags (the oracle is slow on the longest functions)."""
    zigzags = _seeded_zigzags(20261020, 8)
    fns = [gen_tents(n) for n in range(1, 8)]
    fns += [gen_example62(k) for k in range(1, 8)]
    fns += [tent_sum(a) for a in ([1, -2, rat(1, 3)], [0, rat(5, 7), 0, -1])]
    return (zigzags + fns + [symmetrize(f) for f in zigzags[:2] + fns]
            + _random_functions(20261022, 36))


def test_integer_scans_match_fraction_oracle():
    """Norm and pointwise sups equal the Fraction oracle's, at every
    breakpoint and a third of the way into every segment (the oracle
    divides by zero at segment midpoints)."""
    sups = 0
    for f in _oracle_functions():
        assert pl_norm(f) == pl_oracle.pl_norm(f)
        bps = f.breakpoints
        for x in bps + tuple(a + (b - a) / 3 for a, b in zip(bps, bps[1:])):
            assert pl_pointwise_sup(f, x) == pl_oracle.pl_pointwise_sup(f, x), (f, x)
            sups += 1
    assert sups == 1598


def test_tent_sum_matches_fraction_oracle():
    """Breakpoints and values, on criterion 3's battery and seeded vectors
    with zero and negative coefficients."""
    rng = random.Random(20261021)
    vectors = list(standard_battery(10, support=4))
    vectors += [
        [rat(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(rng.randint(0, 10))]
        for _ in range(40)
    ]
    for a in vectors:
        f, g = tent_sum(a), pl_oracle.tent_sum(a)
        assert (f.breakpoints, f.values) == (g.breakpoints, g.values), a


def _pl_eval_oracle(f, x):
    """The linear-scan pl_eval that bisection replaced, verbatim."""
    x = rat(x)
    bps = f.breakpoints
    if x < bps[0]:
        if not f.left_extension:
            raise PreconditionError("x left of the domain and no extension")
        return f.values[0]
    if x > bps[-1]:
        if not f.right_extension:
            raise PreconditionError("x right of the domain and no extension")
        return f.values[-1]
    for i in range(len(bps) - 1):
        if bps[i] <= x <= bps[i + 1]:
            if x == bps[i]:
                return f.values[i]
            t = (x - bps[i]) / (bps[i + 1] - bps[i])
            return f.values[i] + t * (f.values[i + 1] - f.values[i])
    return f.values[-1]


def test_eval_matches_linear_scan_oracle():
    """Breakpoints (the last one included), midpoints, random points inside
    and both extensions, on seeded functions of 1 to 12 breakpoints."""
    rng = random.Random(20261018)
    for k in range(200):
        n = 1 + k % 12
        cuts = rng.sample(range(-40, 41), n - 1)
        bps = sorted({rat(c, 3) for c in cuts} | {rat(0)})
        values = [rat(0) if b == 0 else rat(rng.randint(-9, 9), rng.randint(1, 4)) for b in bps]
        f = plfn(bps, values)
        points = list(bps) + [(a + b) / 2 for a, b in zip(bps, bps[1:])]
        points += [rat(rng.randint(-150, 150), 11) for _ in range(10)]
        for x in points:
            assert pl_eval(f, x) == _pl_eval_oracle(f, x), (bps, x)


def test_tent_1_oracle():
    t = gen_tents(1)
    assert t.breakpoints == (rat(0), rat(1, 2), rat(3, 4), rat(1))
    assert pl_eval(t, rat(3, 4)) == rat(1, 4)
    assert pl_norm(t) == rat(1)
    # Slope from the peak to the left foot attains the norm.
    assert pl_pointwise_sup(t, rat(3, 4)) == rat(1)


def test_tent_2_oracle():
    t = gen_tents(2)
    assert pl_eval(t, rat(9, 32)) == rat(7, 32)
    assert t.breakpoints == (rat(0), rat(1, 16), rat(9, 32), rat(1, 2), rat(1))
    assert pl_norm(t) == rat(1)


def test_tent_sum_unit_vectors():
    for k in range(1, 5):
        a = [0] * k
        a[k - 1] = 1
        assert pl_norm(tent_sum(a)) == rat(1)


def test_tent_sum_is_exact_on_mixed_vector():
    f = tent_sum([rat(1, 2), rat(-3, 2), rat(1)])
    assert pl_norm(f) == rat(3, 2)
    assert pl_pointwise_sup(f, 0) < rat(3, 2)


def test_zigzag_frozen_coordinates():
    g = gen_zigzag(rat(1, 4), rat(1, 2), 2)
    # Cones: tips on y = x/4; q1 = (2/3, 1/6), p2 = 1/3, q2 = (1/4, 1/16), p3 = 1/6.
    assert g.breakpoints == (rat(0), rat(1, 6), rat(1, 4), rat(1, 3), rat(2, 3), rat(1))
    assert pl_eval(g, rat(2, 3)) == rat(1, 6)
    assert pl_eval(g, rat(1, 4)) == rat(1, 16)
    assert pl_norm(g) == rat(3, 4)
    assert pl_pointwise_sup(g, 0) == rat(1, 4)


def test_zigzag_k10_norm_and_base_sup():
    g = gen_zigzag(rat(1, 4), rat(1, 2), 10)
    assert pl_norm(g) == rat(1) - rat(1, 2 ** 10)
    assert pl_pointwise_sup(g, 0) == rat(1, 4)


def test_zigzag_parameter_guards():
    with pytest.raises(PreconditionError):
        gen_zigzag(rat(1, 2), rat(1, 2), 3)  # eps >= 1 - eta
    with pytest.raises(PreconditionError):
        gen_zigzag(rat(1, 4), rat(3, 2), 3)
    with pytest.raises(PreconditionError):
        gen_zigzag(rat(1, 4), rat(1, 2), 0)


def test_example62_frozen_coordinates():
    f = gen_example62(2)
    assert f.breakpoints == (
        rat(0), rat(1, 32), rat(5, 32), rat(1, 4), rat(3, 4), rat(1)
    )
    assert f.values == (
        rat(0), rat(1, 64), rat(1, 8), rat(1, 8), rat(1, 2), rat(1, 2)
    )
    assert pl_norm(f) == rat(7, 8)
    flags = pl_oracle.classify(f)
    # The slope at 0 is 1/2, so no one-sided derivative there attains.
    assert all(x != rat(0) for x, _ in flags.der_points)
    assert rat(0) not in flags.pna_points
    assert pl_pointwise_sup(f, 0) == rat(4, 5)


def test_example62_norm_across_levels():
    for K in (1, 3, 5):
        f = gen_example62(K)
        assert pl_norm(f) == rat(1) - rat(1, 2 ** (K + 1))
        assert rat(0) not in pl_oracle.classify(f).pna_points


def test_symmetrize():
    t = gen_tents(1)
    s = symmetrize(t)
    assert s.breakpoints[0] == rat(-1)
    assert pl_norm(s) == rat(1)
    assert pl_eval(s, rat(-3, 4)) == rat(1, 4)
    assert pl_pointwise_sup(s, 0) == pl_pointwise_sup(t, 0)

    g = gen_zigzag(rat(1, 4), rat(1, 2), 4)
    assert pl_pointwise_sup(symmetrize(g), 0) == rat(1, 4)


def test_eval_extension_rules():
    f = plfn([0, 1], [0, 1], left_extension=False, right_extension=True)
    assert pl_eval(f, 5) == rat(1)
    with pytest.raises(PreconditionError):
        pl_eval(f, -1)
    with pytest.raises(PreconditionError):
        pl_pointwise_sup(f, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-8, 8).map(lambda k: rat(k, 3)), min_size=1, max_size=5))
def test_tent_sum_isometry_property(a):
    f = tent_sum(a)
    expected = max((abs(c) for c in a), default=rat(0))
    expected = rat(expected.numerator, expected.denominator)
    assert pl_norm(f) == expected
