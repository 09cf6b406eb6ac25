"""The molecule table against the pair route it replaced.

``MoleculeTable`` reads a combination's norm, first attaining pair, slopes,
values and pointwise sups off one table per family; the pair route combines
every vector with ``combine`` and scans its pairs with ``strong_pairs`` or
``lip_norm``. The kernels must agree on tie-heavy families, and
``verify_isometry`` must write the same reports as ``pair_route_verify``,
the pair-route verifier kept in ``isometry_oracle``, on every battery shape
the CLI and the benchmark run. Counts pin the table sizes and one table
scan per vector and its negation.
"""

import random
from dataclasses import replace
from itertools import product

import pytest

import isometry_oracle as oracle
from lipcheck import embeddings, lipfun
from lipcheck.cli import load_model
from lipcheck.embeddings import (
    VERIFY_THEOREMS,
    main_theorem_pipeline,
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
    slope_parts,
    strong_pairs,
)
from lipcheck.metric import PreconditionError, catalog, truncate
from lipcheck.rational import Rat, ZERO, rat
from lipcheck.rtree import tree_c0_pipeline, tree_metric, weighted_tree

# ---------------------------------------------------------------------------
# Families: random ones with many ties, and the workbench's own


TIE_SPACES = (
    truncate(catalog("discrete"), 7),
    truncate(catalog("thm51star"), 9),
    truncate(catalog("dmqr41"), 8),
    truncate(catalog("example35"), 6),
)
TIE_VALUES = (rat(-1), rat(-1, 2), rat(-1, 3), ZERO, ZERO, rat(1, 6), rat(1, 2), rat(1))


def _tie_family(rng, space, size):
    """Members with few distinct values, some repeated, some zero: many
    equal columns, parallel directions and tied norms."""
    fns = [lipfn(space, (0,) + tuple(rng.choice(TIE_VALUES) for _ in range(space.n_points - 1)))
           for _ in range(size)]
    return fns + [fns[0], lipfn(space, [0] * space.n_points)][:rng.randint(0, 2)]


def _vectors(rng, size, count=25):
    head = min(size, 3)
    vectors = [tuple(s) + (0,) * (size - head) for s in product((-1, 0, 1), repeat=head)]
    vectors += [tuple(rat(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(size))
                for _ in range(count)]
    vectors += [tuple(rat(rng.randint(-4, 4), 3) for _ in range(rng.randint(1, size)))
                for _ in range(count // 2)]
    return [tuple(rat(a) for a in v) for v in vectors] + [()]


def _lifted(coeffs):
    C, K, _ = embeddings.lift_coefficients(coeffs, "sup-norm")
    return C, K


def _pipeline_families():
    """(name, built family) of the three pipeline cases at N = 30 and 128."""
    for model_name in ("dmqr41", "power_line", "example48"):
        for N in (30, 128):
            seen = []
            real = embeddings.assemble_family

            def recording(spec, checker=None):
                seen.append(real(spec, checker))
                return seen[-1]

            embeddings.assemble_family = recording
            try:
                main_theorem_pipeline(load_model(model_name, {}), N)
            finally:
                embeddings.assemble_family = real
            yield f"{model_name}@{N}", seen[0]


STANDARD = {tid: standard_family(tid) for tid in VERIFY_THEOREMS}
PIPELINE = dict(_pipeline_families())


# ---------------------------------------------------------------------------
# The kernels, vector by vector


def _assert_kernels_agree(fns, vectors):
    table = MoleculeTable(fns)
    for coeffs in vectors:
        f = combine(fns, coeffs)
        comb = table.combination(*_lifted(coeffs))
        num, den, pairs = comb.norm_parts(True)
        assert Rat(num, den) == lip_norm(f), coeffs
        # the pairs of f and of -f, the latter read off the same rows
        firsts = [strong_pairs(g)[0] for g in (f, combine(fns, [-a for a in coeffs]))
                  if strong_pairs(g)]
        assert pairs == (tuple(firsts) or None), coeffs
        num, den, pairs = comb.norm_parts()
        assert Rat(num, den) == lip_norm(f) and pairs is None
        W, S = comb.values()
        F, L = f.lifted
        assert [Rat(w, S) for w in W] == [Rat(x, L) for x in F]
        n = f.space.n_points
        for p in range(n):
            assert Rat(*comb.sup_parts(p)) == pointwise_sup(f, p)
            for q in range(n):
                if q != p:
                    a, b = comb.slope_parts(p, q)
                    c, d = slope_parts(f, p, q)
                    assert a * d == b * c and b > 0


@pytest.mark.parametrize("exact_bits", [lipfun.EXACT_SCALE_BITS, 0])
def test_kernels_match_the_pair_scans_on_tie_heavy_families(monkeypatch, exact_bits):
    """With the default the tie spaces' row weights are exact; with 0 they
    are brackets over a power of two, compared exactly only where they
    reach the largest lower end."""
    monkeypatch.setattr(lipfun, "EXACT_SCALE_BITS", exact_bits)
    rng = random.Random(20261020)
    for space in TIE_SPACES:
        for size in (1, 2, 3, 5):
            fns = _tie_family(rng, space, size)
            _assert_kernels_agree(fns, _vectors(rng, len(fns)))


@pytest.mark.parametrize("name", list(STANDARD) + list(PIPELINE))
def test_kernels_match_the_pair_scans_on_the_workbench_families(name):
    built = STANDARD.get(name) or PIPELINE[name]
    rng = random.Random(name)
    vectors = _vectors(rng, built.size, count=6)
    if built.spec.space.n_points > 40:
        vectors = vectors[::4]  # every kernel runs n^2 slope pairs per vector
    _assert_kernels_agree(built.functions, vectors)


def test_combination_refuses_what_combine_refuses():
    fns = STANDARD["thm43"].functions
    table = MoleculeTable(fns)
    with pytest.raises(PreconditionError, match="4 coefficients for a family of 3"):
        table.combination((1, 2, 3, 4), 1)
    with pytest.raises(PreconditionError, match="two distinct points"):
        table.combination((1,), 1).slope_parts(2, 2)
    other = truncate(catalog("discrete"), fns[0].space.n_points)
    with pytest.raises(PreconditionError, match="different spaces"):
        MoleculeTable(fns + (lipfn(other, [0] * other.n_points),))
    point = truncate(catalog("discrete"), 2).subspace([0])
    assert MoleculeTable([lipfn(point, [0])]).rows == ()


# ---------------------------------------------------------------------------
# Whole reports against the pair-route verifier


# (support, rand_count): the default battery, the benchmark's, and the
# smallest ones with and without a random vector
BATTERIES = {"default": {}, "4x20": dict(support=4, rand_count=20),
             "1x1": dict(support=1, rand_count=1), "1x0": dict(support=1, rand_count=0)}


@pytest.mark.parametrize("battery", BATTERIES)
@pytest.mark.parametrize("tid", VERIFY_THEOREMS)
def test_standard_reports_match_the_pair_route(monkeypatch, battery, tid):
    built = STANDARD[tid]
    got = verify_standard(built, **BATTERIES[battery])
    with monkeypatch.context() as m:
        m.setattr(embeddings, "verify_isometry", oracle.pair_route_verify)
        want = verify_standard(built, **BATTERIES[battery])
    assert got == want
    assert got.expectation_pass


@pytest.mark.parametrize("tid", VERIFY_THEOREMS)
def test_seeded_random_batteries_match_the_pair_route(tid):
    built = STANDARD[tid]
    rng = random.Random(f"battery:{tid}")
    battery = [tuple(rat(rng.randint(-30, 30), rng.randint(1, 12))
                     for _ in range(rng.randint(1, built.size))) for _ in range(30)]
    battery += [(ZERO,) * built.size, ()]
    got = verify_isometry(built.functions, built.target, battery, built.expectation, seed=7)
    want = oracle.pair_route_verify(built.functions, built.target, battery, built.expectation,
                                    seed=7)
    assert got == want


@pytest.mark.parametrize("route", ["table", "pairs"])
def test_a_vector_longer_than_the_family_is_refused(route):
    """The table refuses it as ``combine`` does on the pair-route oracle,
    before the rule reads the vector."""
    verify = verify_isometry if route == "table" else oracle.pair_route_verify
    built = STANDARD["thm43"]
    with pytest.raises(PreconditionError, match="4 coefficients for a family of 3"):
        verify(built.functions, built.target, [(1, 0, 0, 1)], built.expectation)


def test_a_family_on_two_spaces_is_refused_with_an_empty_battery():
    """The table is built before any vector is read, so members on
    different spaces are refused even when there is no vector to combine."""
    built = STANDARD["thm43"]
    other = truncate(catalog("discrete"), built.spec.space.n_points)
    family = built.functions + (lipfn(other, [0] * other.n_points),)
    with pytest.raises(PreconditionError, match="cannot add functions on different spaces"):
        verify_isometry(family, built.target, [], built.expectation)


def test_a_battery_may_be_any_iterable():
    """The battery is read twice, for the vectors and the report's
    coefficient set, so a generator reads as the tuple it yields."""
    built = STANDARD["thm45"]
    battery = standard_battery(built.size, rand_count=4, support=2)
    got = verify_isometry(built.functions, built.target, iter(battery), built.expectation)
    assert got == verify_isometry(built.functions, built.target, battery, built.expectation)
    assert len(got.coefficient_set) == len(battery) == len(got.witnesses)


def _pipeline_pair(monkeypatch, run):
    new = run()
    with monkeypatch.context() as m:
        m.setattr(embeddings, "verify_isometry", oracle.pair_route_verify)
        old = run()
    return new, old


@pytest.mark.parametrize("N", [30, 128])
@pytest.mark.parametrize("model_name, case", [
    ("dmqr41", "I-(i)"), ("power_line", "II"), ("example48", "I-(ii)"),
])
def test_pipeline_results_match_the_pair_route(monkeypatch, model_name, case, N):
    model = load_model(model_name, {})
    new, old = _pipeline_pair(monkeypatch, lambda: main_theorem_pipeline(model, N))
    assert new.case == case
    assert new == old
    assert new.report.expectation_pass


TREES = {
    "star": (8, [(0, i, 1) for i in range(1, 8)]),
    "path": (10, [(i, i + 1, 1) for i in range(9)]),
    "caterpillar": (8, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1),
                        (1, 5, 1), (2, 6, 1), (3, 7, 1)]),
    "weighted path": (4, [(0, 1, 5), (1, 2, 5), (2, 3, 1)]),  # a right-neighbour partner
    "weighted star": (6, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 5), (0, 5, 8)]),
    "spider": (7, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (0, 5, 1), (5, 6, 1)]),
}


@pytest.mark.parametrize("shape", TREES)
def test_tree_pipelines_match_the_pair_route(monkeypatch, shape):
    tree = weighted_tree(*TREES[shape])
    new, old = _pipeline_pair(monkeypatch, lambda: tree_c0_pipeline(tree_metric(tree), tree=tree))
    # the built families hold distinct rule closures, so compare the rest
    assert new.family.functions == old.family.functions
    assert replace(new, family=None) == replace(old, family=None)
    assert new.report.exact_pass


# ---------------------------------------------------------------------------
# Counts


ROWS = {
    "thm43": (9, 435), "thm45": (6, 435), "thm46": (10, 190), "thm51": (121, 2016),
    "prop53": (121, 2080), "thm57": (685, 2080), "prop23": (120, 120),
    "dmqr41@30": (9, 435), "power_line@30": (8, 78), "example48@30": (120, 435),
    "dmqr41@128": (25, 8128), "power_line@128": (34, 861),
}


@pytest.mark.parametrize("name", ROWS)
def test_table_rows_and_pairs(name):
    built = STANDARD.get(name) or PIPELINE[name]
    table = MoleculeTable(built.functions)
    n = len(table.columns)
    assert (len(table.rows), n * (n - 1) // 2) == ROWS[name]


def test_rows_keep_one_least_pair_per_orientation():
    """Each row keeps its magnitude and two pairs, the least attaining one
    in each orientation; the direction is primitive, its first nonzero
    entry positive."""
    for built in (STANDARD["thm51"], PIPELINE["example48@30"]):
        A, _ = built.spec.space.scaled
        for u, num, den, up, down in MoleculeTable(built.functions).rows:
            assert next(x for x in u if x) > 0
            assert len(up) == len(down) == 2 and up != down and sorted(up) == sorted(down)
            assert den == A[up[0]][up[1]] and num > 0


def _count_scans(monkeypatch, count_calls):
    scans = []
    real = MoleculeTable.scan

    def counting(self, C, find_pair=False):
        scans.append(find_pair)
        return real(self, C, find_pair)

    monkeypatch.setattr(MoleculeTable, "scan", counting)
    return scans, [count_calls(fn) for fn in (lip_norm, strong_pairs, max_quotient)]


def test_one_table_scan_per_vector_on_the_dmqr41_pipeline(monkeypatch, count_calls):
    """One scan per vector whose negation came no earlier: the 243 sign
    vectors are the zero vector and 121 pairs, so 343 vectors take 222."""
    scans, pair_scans = _count_scans(monkeypatch, count_calls)
    result = main_theorem_pipeline(load_model("dmqr41", {}), 128)
    assert result.case == "I-(i)" and result.report.expectation_pass
    assert scans == [True] * 222 and len(result.report.witnesses) == 343
    assert [len(calls) for calls in pair_scans] == [0, 0, 0]
