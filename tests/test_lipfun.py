import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from builders import add, defect, scale
from lipcheck.lipfun import combine, lip_norm, lipfn, pointwise_sup, slope, strong_pairs, zero_fn
from lipcheck.metric import PreconditionError, StructureError, catalog, truncate
from lipcheck.rational import ZERO, rat


SPACE = truncate(catalog("example33"), 6)


def test_construction_guards():
    with pytest.raises(PreconditionError):
        lipfn(SPACE, [1, 0, 0, 0, 0, 0])
    with pytest.raises(StructureError):
        lipfn(SPACE, [0, 1])


def test_slope_and_norm_on_prop23():
    # Function sending p_n to a_n with a = (1, -1, 1/2, 0).
    space = truncate(catalog("prop23"), 5)
    f = lipfn(space, [0, 1, -1, rat(1, 2), 0])
    assert lip_norm(f) == rat(1)
    # Attained over the base (distance 1) and across p_1, p_2 (distance 2).
    assert strong_pairs(f) == [(0, 1), (2, 0), (2, 1)]
    assert pointwise_sup(f, 0) == rat(1)
    assert defect(f, 0) == rat(0)
    assert slope(f, 1, 2) == rat(-1)
    with pytest.raises(PreconditionError):
        slope(f, 3, 3)


def test_grouped_space_sup_oracle():
    # Seven points: base plus two groups of three at geometric heights
    # 1/2, 3/4, 7/8, one group negated; base distance 1, cross-group 2.
    space = truncate(catalog("thm57", c=2, groups=2, levels=3), 7)
    h = [rat(1, 2), rat(3, 4), rat(7, 8)]
    f = lipfn(space, [0, -h[0], -h[1], -h[2], h[0], h[1], h[2]])
    assert pointwise_sup(f, 0) == rat(7, 8)
    # Deepest cross-group pair: (7/8 + 7/8) / 2 = 7/8, so the norm equals it.
    assert lip_norm(f) == rat(7, 8)
    assert defect(f, 0) == rat(0)


def test_zero_function():
    z = zero_fn(SPACE)
    assert lip_norm(z) == rat(0)
    assert strong_pairs(z) == []
    assert all(defect(z, p) == rat(0) for p in SPACE.points())


def test_combine_preconditions():
    space = truncate(catalog("prop23"), 4)
    fam = [
        lipfn(space, [0, 1, 0, 0]),
        lipfn(space, [0, 0, 1, 0]),
        lipfn(space, [0, 0, 0, 1]),
    ]
    g = combine(fam, [1, -2])
    assert g.values == (rat(0), rat(1), rat(-2), rat(0))
    with pytest.raises(PreconditionError):
        combine(fam, [1, 1, 1, 1])
    other = truncate(catalog("discrete"), 4)
    with pytest.raises(PreconditionError):
        add(fam[0], lipfn(other, [0, 1, 0, 0]))


def test_combine_rejects_members_on_different_spaces():
    space = truncate(catalog("prop23"), 4)
    other = truncate(catalog("discrete"), 4)
    fam = [lipfn(space, [0, 1, 0, 0]), lipfn(other, [0, 1, 0, 0])]
    with pytest.raises(PreconditionError, match="different spaces"):
        combine(fam, [1, 1])
    # Only the members that get a coefficient are combined.
    assert combine(fam, [2]).values == (rat(0), rat(2), rat(0), rat(0))


def test_defect_sequence_shrinks_for_head_bump():
    # Bump of height R(p_1) at p_1 on a space where R depends on the
    # truncation; the defect at p_1 stays zero while norms vary.
    fns = []
    for N in (4, 6, 8):
        space = truncate(catalog("example33"), N)
        vals = [0] * N
        vals[0] = 0
        # row 0 is p_1 on this alias model, so bump p_2 (row 1) instead
        vals[1] = min(space.d(1, q) for q in range(N) if q != 1)
        fns.append(lipfn(space, vals))
    seq = [defect(f, 1) for f in fns]
    assert all(x == rat(0) for x in seq)


RAND_SPACE = truncate(catalog("dmqr41"), 5)
rat_values = st.integers(-12, 12).map(lambda k: rat(k, 4))


def _fn(draw_vals):
    return lipfn(RAND_SPACE, (0,) + tuple(draw_vals))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*([rat_values] * 4)),
    st.tuples(*([rat_values] * 4)),
    rat_values,
)
def test_norm_algebra_properties(vals_f, vals_g, c):
    f, g = _fn(vals_f), _fn(vals_g)
    assert lip_norm(add(f, g)) <= lip_norm(f) + lip_norm(g)
    cn = lip_norm(scale(f, c))
    expected = c * lip_norm(f)
    if expected < rat(0):
        expected = -expected
    assert cn == expected
    # The norm is the largest pointwise sup.
    assert lip_norm(f) == max(pointwise_sup(f, p) for p in RAND_SPACE.points())
    for p, q in strong_pairs(f):
        assert slope(f, p, q) == lip_norm(f)


# ---------------------------------------------------------------------------
# Differential oracles: the two-pass strong_pairs and the add/scale fold of
# combine, kept verbatim from before the one-pass kernels replaced them.


def _strong_pairs_two_pass(f):
    norm = lip_norm(f)
    if norm == ZERO:
        return []
    pairs = []
    n = f.space.n_points
    for p in range(n):
        for q in range(p + 1, n):
            s = slope(f, p, q)
            if s == norm:
                pairs.append((p, q))
            elif -s == norm:
                pairs.append((q, p))
    pairs.sort()
    return pairs


def _combine_fold(fns, coeffs):
    fns = list(fns)
    coeffs = [rat(c) for c in coeffs]
    if len(coeffs) > len(fns):
        raise PreconditionError(
            f"{len(coeffs)} coefficients for a family of {len(fns)}"
        )
    if not fns:
        raise PreconditionError("combine needs a nonempty family")
    out = zero_fn(fns[0].space)
    for c, f in zip(coeffs, fns):
        out = add(out, scale(f, c))
    return out


# Spaces whose distances take two or three values, so many pairs tie.
TIE_SPACES = (
    truncate(catalog("discrete"), 7),
    truncate(catalog("thm51star"), 9),
    truncate(catalog("prop23"), 6),
)
TIE_VALUES = (rat(-1), rat(-1, 2), ZERO, ZERO, rat(1, 2), rat(1))


def _tie_family(rng, space, size):
    return [
        lipfn(space, (0,) + tuple(rng.choice(TIE_VALUES) for _ in range(space.n_points - 1)))
        for _ in range(size)
    ]


def test_one_pass_kernels_match_the_oracles_on_tie_heavy_inputs():
    rng = random.Random(20260815)
    checked = 0
    for space in TIE_SPACES:
        z = zero_fn(space)
        assert strong_pairs(z) == _strong_pairs_two_pass(z) == []
        fam = _tie_family(rng, space, 4)
        vectors = [list(v) for v in product((-1, 0, 1), repeat=4)]
        vectors += [[rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
                    for _ in range(40)]
        vectors += [[], [0, 0], [0, 0, 0, 0]]
        for coeffs in vectors:
            g = combine(fam, coeffs)
            want = _combine_fold(fam, coeffs)
            assert g.space is want.space
            assert g.values == want.values, coeffs
            assert strong_pairs(g) == _strong_pairs_two_pass(g), coeffs
            checked += 1
        for f in fam + _tie_family(rng, space, 30):
            assert strong_pairs(f) == _strong_pairs_two_pass(f)
    assert checked == 3 * (81 + 40 + 3)


@pytest.mark.parametrize("fns, coeffs", [
    ([], []),
    ([lipfn(SPACE, [0, 1, 0, 0, 0, 0])], [1, 2]),
])
def test_combine_preconditions_match_the_oracle(fns, coeffs):
    with pytest.raises(PreconditionError) as new:
        combine(fns, coeffs)
    with pytest.raises(PreconditionError) as old:
        _combine_fold(fns, coeffs)
    assert str(new.value) == str(old.value)
