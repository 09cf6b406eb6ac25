import pytest
from hypothesis import given, settings, strategies as st

import model_oracle
from lipcheck.embeddings import SequenceView
from lipcheck.metric import (
    CATALOG_NAMES,
    MAX_LEVELS,
    ModelError,
    PreconditionError,
    StructureError,
    TailDataError,
    catalog,
    integer_line,
    make_space,
    min_positive_radius,
    power_line,
    space_from_json,
    truncate,
    validate,
)
from lipcheck.rational import rat


# ---------------------------------------------------------------------------
# Validation


def test_validate_accepts_discrete():
    space = truncate(catalog("discrete"), 5)
    report = validate(space)
    assert report.passed
    assert report.violations == ()


def test_validate_flags_triangle_with_witness():
    # d(1,2) = 5 exceeds d(1,0) + d(0,2) = 2.
    space = make_space([[0, 1, 1], [1, 0, 5], [1, 5, 0]])
    report = validate(space)
    assert not report.passed
    axioms = {v.axiom for v in report.violations}
    assert axioms == {"triangle"}
    first = report.violations[0]
    assert first.values[0] == rat(5)


def test_validate_flags_asymmetry_and_positivity():
    space = make_space([[0, 2, 1], [1, 0, 1], [1, 1, 0]])
    report = validate(space)
    assert any(v.axiom == "symmetry" and v.indices == (0, 1) for v in report.violations)

    space2 = make_space([[0, 0], [0, 0]])
    report2 = validate(space2)
    assert any(v.axiom == "positivity" for v in report2.violations)


def test_validate_rejects_non_square():
    space = make_space(((rat(0), rat(1)), (rat(1),)), ("a", "b"))
    with pytest.raises(StructureError):
        validate(space)


def test_subspace_rebases_at_first_index():
    space = truncate(catalog("example35"), 6)
    sub = space.subspace([2, 0, 4])
    assert sub.n_points == 3
    assert sub.labels[0] == space.labels[2]
    assert sub.dist[0][1] == space.dist[2][0]


@pytest.mark.parametrize("indices, message", [
    ([-1, 0], "subspace index -1 outside the space"),
    ([4, -1], "subspace index -1 outside the space"),
    ([1.5, 0], "subspace index 1.5 is not an integer"),
    ([9, 0], "subspace index 9 outside the space"),
])
def test_subspace_refuses_indices_outside_the_space(indices, message):
    """Negative indices no longer wrap to the last rows (``[4, -1]`` named
    row 4 twice, with a zero distance between distinct points); a float or
    an index past the end raises PreconditionError, not TypeError or
    IndexError."""
    space = truncate(catalog("discrete"), 5)
    with pytest.raises(PreconditionError) as err:
        space.subspace(indices)
    assert str(err.value) == message
    assert space.subspace([4, 3]).dist[0][1] == space.dist[4][3]


# ---------------------------------------------------------------------------
# Truncation oracles (values computed from the closed-form rules by hand)


def test_truncate_dmqr41_oracle():
    space = truncate(catalog("dmqr41"), 5)
    # alias model: row 0 = p_1, row 1 = p_2; d = 1 + 1/max(1, 2)
    assert space.dist[0][1] == rat(3, 2)
    assert space.dist[2][4] == rat(6, 5)
    assert space.labels[0] == "p1"


def test_truncate_example48_oracle():
    space = truncate(catalog("example48"), 6)
    # d(p_1, p_2) = 2 - 1/3 - 2/9 = 13/9
    assert space.dist[0][1] == rat(13, 9)
    assert space.dist[1][2] == rat(2) - rat(1, 9) - rat(2, 27)


def test_truncate_prop23_shape():
    space = truncate(catalog("prop23"), 4)
    # separate base: rows are 0, p_1, p_2, p_3
    assert space.n_points == 4
    assert space.labels == ("0", "p1", "p2", "p3")
    assert space.dist[0][1] == rat(1)
    assert space.dist[1][2] == rat(2)


def test_truncate_bounds():
    with pytest.raises(PreconditionError):
        truncate(catalog("discrete"), 1)
    with pytest.raises(ModelError):
        truncate(catalog("thm51star", levels=1), 5)


def test_radius_oracles():
    space33 = truncate(catalog("example33"), 10)
    # p_2 is row 1; nearest neighbour is p_1 at 1 + 1/1... no: 1 + 1/min(1,2) = 2,
    # and 1 + 1/min(2, m) = 3/2 for m > 2.
    assert min_positive_radius(space33, 1) == rat(3, 2)

    space44 = truncate(catalog("example44"), 10)
    # p_1 is row 1; candidates are the base at 3/2 and p_m at 1 + 1/(1+m),
    # minimized at m = 9.
    assert min_positive_radius(space44, 1) == rat(11, 10)

    space24 = truncate(catalog("prop24"), 4)
    # p_1 = 1/2; nearest is p_2 = 1/16 at distance 7/16.
    assert min_positive_radius(space24, 1) == rat(7, 16)


# ---------------------------------------------------------------------------
# Catalog coverage


ALL_MODELS = sorted(CATALOG_NAMES)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_catalog_validates_at_n64(name, count_calls):
    """truncate checks the axioms once and raises on a violation, so a
    returned space has passed."""
    calls = count_calls(validate)
    space = truncate(catalog(name), 64)
    assert space.n_points == 64
    assert len(calls) == 1


def test_catalog_rejects_unknown_and_bad_params():
    with pytest.raises(ModelError):
        catalog("nope")
    with pytest.raises(ModelError):
        catalog("dmqr44", c=0)
    with pytest.raises(ModelError):
        catalog("dmqr44", c=-1)
    with pytest.raises(ModelError):
        catalog("thm57", c=1)
    with pytest.raises(ModelError):
        catalog("thm51star", levels=0)
    with pytest.raises(ModelError):
        catalog("discrete", levels=3)


def test_levels_cap_comes_before_the_point_count():
    """thm51star and prop53 have 2 ** levels point pairs; levels past
    MAX_LEVELS are refused, the largest allowed value still builds."""
    assert MAX_LEVELS == 64
    assert catalog("thm51star", levels=MAX_LEVELS).max_points == 2 ** 65
    assert catalog("prop53", levels=MAX_LEVELS).max_points == 2 ** 65 + 1
    for name in ("thm51star", "prop53"):
        with pytest.raises(ModelError, match=r"1 <= levels <= 64, got 65"):
            catalog(name, levels=MAX_LEVELS + 1)


def test_integer_parameters_are_never_truncated():
    """levels and groups read as ints when integral, whatever their type,
    and a non-integral value is refused by name instead of being cut down."""
    assert catalog("thm51star", levels=rat(3)).params == {"levels": 3}
    assert catalog("thm57", groups=rat(4), levels=3).params["groups"] == 4
    assert catalog("prop53", levels="3").max_points == 17
    cases = [
        ("thm51star", {"levels": rat(27, 10)}, "thm51star needs an integer levels, got 27/10"),
        ("prop53", {"levels": rat(7, 2)}, "prop53 needs an integer levels, got 7/2"),
        ("thm57", {"levels": rat(7, 2)}, "thm57 needs an integer levels, got 7/2"),
        ("thm57", {"groups": rat(5, 2)}, "thm57 needs an integer groups, got 5/2"),
        ("thm57", {"groups": 2.5}, "thm57 needs an integer groups, got 2.5"),
    ]
    for name, params, message in cases:
        with pytest.raises(ModelError) as info:
            catalog(name, **params)
        assert str(info.value) == message


def test_dmqr44_eps_range():
    model = catalog("dmqr44")
    for n in range(1, 40):
        e = model.eps(n)
        assert rat(0) < e < rat(1, 2)
        if n > 1:
            assert e > model.eps(n - 1)
    assert model.eps(1) == rat(1, 4)
    space = truncate(model, 6)
    # separate base: d(p_1, p_2) = 3 - eps_2 = 3 - 1/3 = 8/3
    assert space.dist[1][2] == rat(8, 3)


def test_thm57_structure():
    model = catalog("thm57")
    space = truncate(model, 65)
    assert space.labels[1] == "p1.1"
    assert space.labels[9] == "p2.1"
    assert space.dist[0][5] == rat(1)
    assert space.dist[1][2] == rat(1)       # same group
    assert space.dist[1][9] == rat(2)       # different groups
    assert model.max_points == 65


def _on_truncation(model, N=10):
    """The sequence view of ``model`` truncated at N, which checkers and
    pipelines read; index 0 is the base point."""
    return SequenceView(model, N, truncate(model, N))


def _read(view, name, *args):
    """The view's integer ``name(*args)`` as a rational; ``dist`` reads the rows."""
    if name == "dist":
        return view.rat(view.dist[args[0]][args[1]])
    return view.rat(getattr(view, name)(*args))


def test_sequence_bookkeeping():
    alias = catalog("dmqr41")
    assert alias.seq_row(1) == 0
    assert model_oracle.row_seq(alias, 0) == 1
    assert _read(_on_truncation(alias), "dist", 0, 1) == rat(0)
    assert _read(_on_truncation(alias), "dist", 0, 3) == rat(4, 3)

    sep = catalog("example35")
    assert sep.seq_row(1) == 1
    assert _read(_on_truncation(sep), "dist", 0, 2) == rat(3, 2)
    with pytest.raises(PreconditionError):
        model_oracle.row_seq(sep, 0)
    assert sep.n_seq(10) == 9
    assert alias.n_seq(10) == 10


def test_tail_data_declared_values():
    v33 = _on_truncation(catalog("example33"))
    assert _read(v33, "psi", 3) == rat(1, 3)
    assert _read(v33, "phi", 2, 5) == rat(1, 2)
    assert _read(v33, "phi", 5, 2) == rat(1, 2)

    v48 = _on_truncation(catalog("example48"))
    assert _read(v48, "psi", 1) == rat(-1, 3)
    assert _read(v48, "phi", 1, 2) == rat(-1, 3) - rat(2, 9)

    v41 = _on_truncation(catalog("dmqr41"))
    assert _read(v41, "psi", 7) == rat(0)
    assert _read(v41, "phi", 2, 6) == rat(1, 6)


def test_missing_tails_raise():
    model = catalog("dmqr44")
    with pytest.raises(TailDataError):
        _on_truncation(model).phi(1, 2)
    with pytest.raises(TailDataError):
        model.need_envelopes()
    structured = catalog("prop53")
    with pytest.raises(ModelError):
        _on_truncation(structured).dist[1][2]


@pytest.mark.parametrize(
    "name", [n for n in ALL_MODELS if catalog(n).monotone_tails]
)
def test_tail_monotonicity(name):
    # |d(p_n, p_m) - L(n)| should be non-increasing in m for monotone tails.
    model = catalog(name)
    for n in range(1, 8):
        prev = None
        for m in range(n + 1, 16):
            gap = model_oracle.d_seq(model, n, m) - model.L_pair(n)
            if gap < rat(0):
                gap = -gap
            if prev is not None:
                assert gap <= prev, (name, n, m)
            prev = gap


@pytest.mark.parametrize("name", ALL_MODELS)
def test_envelope_declarations_hold_on_window(name):
    model = catalog(name)
    if not model.has_tails:
        return
    model.need_envelopes()
    H = 24
    for s in range(1, 9):
        worst_phi = max(
            abs(model_oracle.phi(model, n, m)) for n in range(s, H) for m in range(n + 1, H + 1)
        )
        assert worst_phi <= model.env_phi(s), (name, s)
        worst_psi = max(abs(model_oracle.psi(model, n)) for n in range(s, H))
        assert worst_psi <= model.env_psi(s), (name, s)
    for n in range(1, 5):
        for s in range(n + 1, 10):
            worst = max(
                abs(model_oracle.phi(model, n, m) - model_oracle.psi(model, n)) for m in range(s, H)
            )
            assert worst <= model.env_dev(n, s), (name, n, s)


# ---------------------------------------------------------------------------
# Unbounded helpers


def test_integer_and_power_line():
    line = integer_line()
    sp = truncate(line, 8)
    assert sp.dist[0][7] == rat(7)
    assert not line.bounded

    p4 = power_line(4)
    sp4 = truncate(p4, 4)
    # alias rows: 1, 4, 16, 64
    assert sp4.dist[0][1] == rat(3)
    assert sp4.dist[0][3] == rat(63)
    assert sp4.dist[2][3] == rat(48)
    with pytest.raises(ModelError):
        power_line(1)


# ---------------------------------------------------------------------------
# JSON interchange


def test_space_json_roundtrip():
    space = truncate(catalog("example44"), 6)
    blob = {
        "name": "example44",
        "base": 0,
        "points": ["0", "p1", "p2", "p3", "p4", "p5"],
        "dist": [
            ["0", "3/2", "1", "5/6", "3/4", "7/10"],
            ["3/2", "0", "4/3", "5/4", "6/5", "7/6"],
            ["1", "4/3", "0", "6/5", "7/6", "8/7"],
            ["5/6", "5/4", "6/5", "0", "8/7", "9/8"],
            ["3/4", "6/5", "7/6", "8/7", "0", "10/9"],
            ["7/10", "7/6", "8/7", "9/8", "10/9", "0"],
        ],
    }
    back = space_from_json(blob)
    assert back.dist == space.dist
    assert back.labels == space.labels
    assert back.dist[1][2] == rat(4, 3)


def test_space_json_rejects_non_canonical():
    blob = {
        "name": "discrete",
        "base": 0,
        "points": ["p1", "p2", "p3"],
        "dist": [["0", "2/2", "1"], ["1", "0", "1"], ["1", "1", "0"]],
    }
    with pytest.raises(StructureError):
        space_from_json(blob)


def test_space_json_rejects_non_metric():
    blob = {
        "name": "bad",
        "base": 0,
        "points": ["a", "b", "c"],
        "dist": [["0", "1", "1"], ["1", "0", "5"], ["1", "5", "0"]],
    }
    with pytest.raises(ModelError):
        space_from_json(blob)
    with pytest.raises(StructureError):
        space_from_json({"name": "x", "base": 1, "dist": [["0"]]})


# ---------------------------------------------------------------------------
# Random-space sanity via hypothesis: subspaces of metrics stay metrics


@st.composite
def random_metric(draw):
    n = draw(st.integers(2, 6))
    # Start from points on a line; any 1-D configuration is a metric.
    coords = draw(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True)
    )
    rows = [[rat(abs(a - b)) for b in coords] for a in coords]
    return make_space(rows)


@settings(max_examples=40, deadline=None)
@given(random_metric(), st.data())
def test_subspace_preserves_axioms(space, data):
    k = data.draw(st.integers(1, space.n_points))
    idx = data.draw(
        st.lists(
            st.integers(0, space.n_points - 1),
            min_size=k, max_size=k, unique=True,
        )
    )
    sub = space.subspace(idx)
    if sub.n_points >= 2:
        assert validate(sub).passed
