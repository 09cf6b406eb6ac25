"""The asymptotic verdict can fail: orbit families checked against their
declared orbit data.

An orbit row of ``CONSTRUCTIONS`` declares its orbits once; the builder
reads the declaration into functions, and the expectation reads it into
each member's slope on its witness pair, never the functions built. So a
fault planted where the functions are built (every value halved or zeroed,
or one member's value moved at its witness row) must make the verdict fail,
through the library and through the command line, on the molecule table
and on the pair-route oracle ``isometry_oracle.pair_route_verify`` alike,
so the reference the table is compared with elsewhere bites on these faults
too. Seeded sweeps of the catalog parameters then check the converse: wherever a hypothesis check (or, for the pipelines, the
construction) passes, the verdict passes.
"""

import random

import pytest

import isometry_oracle as oracle
from lipcheck import cli, embeddings
from lipcheck.cli import load_model
from lipcheck.embeddings import (
    ConstructionError,
    main_theorem_pipeline,
    prime_orbits,
    standard_family,
    verify_standard,
)
from lipcheck.metric import catalog, power_line
from lipcheck.rational import ZERO, Rat

# The battery's verifier: the library's molecule table, or the pair-route
# oracle, which combines and scans every vector.
ROUTES = {"table": None, "pairs": oracle.pair_route_verify}

# Each asymptotic family and pipeline case: its command line, and whether
# its members are witnessed toward the base, from their deepest row (thm45),
# rather than from their head.
CASES = {
    "thm43": (["verify", "--theorem", "thm43"], False),
    "thm45": (["verify", "--theorem", "thm45"], True),
    "thm46": (["verify", "--theorem", "thm46"], False),
    "dmqr41": (["pipeline", "--model", "dmqr41", "--n", "30"], False),
    "power_line": (["pipeline", "--model", "power_line", "--n", "30"], False),
}


def _halved(count, node_of, value, toward_base):
    return lambda n, head: value(n, head) / 2


def _zeroed(count, node_of, value, toward_base):
    return lambda n, head: 0 * value(n, head)


def _moved(count, node_of, value, toward_base):
    """The first member's value at its witness row moved halfway to the
    value at the pair's other end (the base's is zero): the member's slope
    halves, and the norm stays below the target."""
    _, positions = prime_orbits(count)[0]
    if toward_base:
        at, other = node_of(positions[-1]), ZERO
    else:
        at, deep = node_of(positions[0]), node_of(positions[-1])
        other = value(deep, False)
    return lambda n, head: (value(n, head) + other) / 2 if n == at else value(n, head)


CORRUPTIONS = {"halved": _halved, "zeroed": _zeroed, "moved": _moved}


def _report(name):
    if CASES[name][0][0] == "verify":
        return verify_standard(standard_family(name))
    return main_theorem_pipeline(load_model(name, {}), 30).report


def _corrupt(monkeypatch, name, corruption, route):
    """Build every orbit family of ``name`` with ``corruption`` applied to
    its declared values and verify it on ``route``; returns the list of
    families so corrupted."""
    if ROUTES[route] is not None:
        monkeypatch.setattr(embeddings, "verify_isometry", ROUTES[route])
    real, corrupted = embeddings._orbit_family, []

    def orbit_family(space, count, node_of, value, row_of):
        corrupted.append(count)
        if corruption is None:
            return real(space, count, node_of, value, row_of)
        wrong = CORRUPTIONS[corruption](count, node_of, value, CASES[name][1])
        return real(space, count, node_of, wrong, row_of)

    monkeypatch.setattr(embeddings, "_orbit_family", orbit_family)
    return corrupted


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("name", CASES)
def test_a_corrupted_orbit_family_fails_its_verdict(monkeypatch, tmp_path, capsys,
                                                    name, corruption, route):
    corrupted = _corrupt(monkeypatch, name, corruption, route)
    report = _report(name)
    assert len(corrupted) == 1
    assert report.expectation_kind == "asymptotic"
    assert report.expectation_pass is False
    assert any(" slope " in failure for failure in report.failures), report.failures
    argv = CASES[name][0] + ["--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", CASES)
def test_the_uncorrupted_orbit_family_passes(monkeypatch, tmp_path, name, route):
    corrupted = _corrupt(monkeypatch, name, None, route)
    assert _report(name).expectation_pass is True
    assert cli.main(CASES[name][0] + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(corrupted) == 2


# ---------------------------------------------------------------------------
# Seeded sweeps: a passing check gives a passing verdict


def _family_passes(tid, N, **params):
    """Whether the standard instance's check passes; if it does, its verdict
    must pass too, on a small standard battery."""
    built = standard_family(tid, N=N, **params)
    if not built.checker.ok:
        return False
    report = verify_standard(built, seed=N, rand_count=6, support=3)
    assert report.expectation_pass, (tid, N, params, report.failures)
    return True


def _pipeline_passes(model, N):
    """Whether the pipeline's construction goes through; if it does, its
    verdict must pass."""
    try:
        result = main_theorem_pipeline(model, N)
    except ConstructionError:
        return False
    assert result.report.expectation_kind == "asymptotic", (model.name, N)
    assert result.report.expectation_pass, (model.name, N, result.report.failures)
    return True


def _thm46_draws(rng):
    return [(rng.randint(5, 40), Rat(rng.randint(1, 48), rng.randint(1, 12)))
            for _ in range(40)]


def _power_line_draws(rng):
    return [(rng.randint(4, 40), Rat(rng.randint(13, 96), rng.randint(1, 12)))
            for _ in range(40)]


# Per row: the seeded instances (seed 20261020 where drawn), and how many of
# them pass their check.
SWEEPS = {
    "thm46 on dmqr44 (c, N)": (
        lambda rng: [_family_passes("thm46", N, c=c) for N, c in _thm46_draws(rng)], 40),
    "thm43 on dmqr41 (N)": (
        lambda rng: [_family_passes("thm43", N) for N in range(6, 46)], 40),
    "thm45 on example44 (N)": (
        lambda rng: [_family_passes("thm45", N) for N in range(6, 46)], 40),
    "pipeline dmqr41 (N)": (
        lambda rng: [_pipeline_passes(catalog("dmqr41"), N) for N in range(6, 46)], 40),
    "pipeline power_line (ratio, N)": (
        lambda rng: [_pipeline_passes(power_line(ratio), N)
                     for N, ratio in _power_line_draws(rng)], 39),
}


@pytest.mark.parametrize("row", SWEEPS)
def test_a_passing_check_gives_a_passing_verdict(row):
    sweep, passing = SWEEPS[row]
    outcomes = sweep(random.Random(20261020))
    assert sum(outcomes) == passing, outcomes
