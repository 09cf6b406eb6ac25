"""Consolidated acceptance suite: eleven exact criteria, one function each.

Every criterion returns a dict with ``id``, ``title``, ``passed`` and a
``details`` payload of JSON-ready values (rationals formatted canonically).
``run_all`` executes them in order and aggregates; the CLI ``report``
command wraps that into the consolidated JSON and markdown artifacts.

Only criterion 11 touches floating point, through the sampling helper,
and says so in its payload. Everything else is exact rational arithmetic
with zero tolerance.
"""

import random

from .rational import BACKEND, ONE, ZERO, format_rat, rat
from .metric import (
    CATALOG_NAMES,
    ModelError,
    catalog,
    make_space,
    power_line,
    truncate,
)
from .plfun import gen_zigzag, pl_norm, pl_pointwise_sup, sample_analytic, tent_sum
from .embeddings import (
    BATTERY_SEED,
    FamilySpec,
    SequenceView,
    build_family,
    check_canonical,
    coefficient_norm,
    main_theorem_pipeline,
    standard_battery,
    standard_family,
    verify_standard,
)
from .freespace import (
    complementation_test,
    free_element,
    free_norm_lp,
    matching_min_check,
    molecule,
    free_add,
    free_scale,
)
from .rtree import four_point_check, tree_c0_pipeline, tree_metric, weighted_tree

RANDOM_SPACE_TRIALS = 200
RANDOM_TREE_TRIALS = 1000
COMPLEMENTATION_SAMPLES = 50


def _result(cid: int, title: str, passed: bool, details: dict) -> dict:
    return {"id": cid, "title": title, "passed": bool(passed), "details": details}


# ---------------------------------------------------------------------------
# 1-3: catalog, spikes, piecewise linear


def criterion_1() -> dict:
    per_model = {}
    for name in CATALOG_NAMES:
        per_model[name] = True
        try:
            truncate(catalog(name), 64)  # validates: ModelError on a violation
        except ModelError:
            per_model[name] = False
    ok = len(CATALOG_NAMES) == 12 and all(per_model.values())
    return _result(
        1, "all 12 catalog models validate at N=64", ok,
        {"models": per_model, "count": len(CATALOG_NAMES)},
    )


def criterion_2() -> dict:
    per_n = {}
    ok = True
    for N in (8, 16, 32):
        built = standard_family("prop23", N=N)
        rep = verify_standard(built, support=4)
        good = rep.exact_pass and rep.expectation_pass and rep.worst_defect == ZERO
        per_n[f"N={N}"] = {
            "members": built.size,
            "vectors": len(rep.coefficient_set),
            "pass": good,
        }
        ok = ok and good
    return _result(
        2, "unit spikes: exact sup isometry with attainment at the base", ok, per_n
    )


def criterion_3() -> dict:
    battery = standard_battery(10, support=4)
    tents_ok = all(
        pl_norm(tent_sum(a)) == coefficient_norm(a, "sup-norm") for a in battery
    )

    g = gen_zigzag(rat(1, 4), rat(1, 2), 10)
    nrm = pl_norm(g)
    norm_ok = nrm == ONE - rat(1, 2 ** 10)
    base_sup = pl_pointwise_sup(g, rat(0))
    base_ok = base_sup <= rat(1, 4)

    # A finite truncation always attains its norm somewhere; the limiting
    # "strictly below everywhere" statement survives in this form: the
    # attainment set is exactly the deepest cone (the three smallest
    # positive breakpoints), every other breakpoint sits strictly below
    # the norm, all sups stay strictly below 1, and the sup at each
    # breakpoint outside that cone is unchanged when one more level is
    # added.
    sups = {x: pl_pointwise_sup(g, x) for x in g.breakpoints}
    deepest = g.breakpoints[1:4]
    attaining = tuple(x for x in g.breakpoints if sups[x] == nrm)
    attain_ok = attaining == deepest
    others_below = all(sups[x] < nrm for x in g.breakpoints if x not in deepest)
    below_one = all(v < ONE for v in sups.values())
    g_next = gen_zigzag(rat(1, 4), rat(1, 2), 11)
    stable = all(
        pl_pointwise_sup(g_next, x) == sups[x]
        for x in g.breakpoints
        if x not in deepest
    )

    ok = (tents_ok and norm_ok and base_ok and attain_ok
          and others_below and below_one and stable)
    return _result(
        3, "tent sums exact; zigzag norm, base sup and attainment structure", ok,
        {
            "tent_vectors": len(battery),
            "tents_exact": tents_ok,
            "zigzag_norm": format_rat(nrm),
            "zigzag_norm_expected": format_rat(ONE - rat(1, 2 ** 10)),
            "sup_at_0": format_rat(base_sup),
            "attaining_breakpoints": [format_rat(x) for x in attaining],
            "attains_only_on_deepest_cone": attain_ok,
            "others_strictly_below": others_below,
            "all_sups_below_one": below_one,
            "sups_stable_at_next_level": stable,
        },
    )


# ---------------------------------------------------------------------------
# 4-6: checkers, families, pipeline


# (theorem, catalog model, N, documented verdict), run with the canonical
# anchor layout of ``lipcheck check``
CHECK_INSTANCES = (
    ("thm34", "discrete", 16, True),
    ("thm37", "example35", 10, True),
    ("thm37", "example48", 10, False),
    ("prop42", "discrete", 10, False),
    ("thm43", "dmqr41", 20, True),
    ("thm45", "example44", 20, True),
    ("thm46", "dmqr44", 20, True),
)


def criterion_4() -> dict:
    outcomes = {
        f"{tid} on {name}": (check_canonical(tid, catalog(name), N).ok, want)
        for tid, name, N, want in CHECK_INSTANCES
    }
    ok = all(got == want for got, want in outcomes.values())
    return _result(
        4, "hypothesis checkers match their documented pass/fail instances", ok,
        {k: {"got": got, "expected": want} for k, (got, want) in outcomes.items()},
    )


def criterion_5() -> dict:
    ids = ("thm34", "thm37", "prop42", "thm43", "thm45", "thm46",
           "thm51", "prop53", "thm57")
    per_id = {}
    ok = True
    for tid in ids:
        built = standard_family(tid)
        rep = verify_standard(built)
        kind = rep.expectation_kind
        good = rep.expectation_pass
        if kind == "exact":
            good = good and rep.exact_pass and rep.worst_defect == ZERO
        per_id[tid] = {
            "space": built.spec.space.name,
            "target": built.target,
            "kind": kind,
            "members": built.size,
            "pass": good,
        }
        if kind == "deflated":
            # thm57's residue rule, |a| - sup at the base = |a| c^-levels:
            # recorded for visibility, enforced per vector by verify_isometry.
            params = built.spec.parameters
            per_id[tid]["base_gap_factor"] = format_rat(params["c"] ** (-params["levels"]))
        ok = ok and good
    return _result(
        5, "standard families verify on their catalog spaces", ok, per_id
    )


def _case_i1_invariants(seq, res) -> bool:
    eps, g, r = res.data["eps"], res.data["g"], seq.rat
    half_l = seq.model.L / 2
    for n, e in eps.items():
        if e != half_l + r(seq.phi(1, n) - seq.psi(n)):
            return False
        if g[n] != r(seq.dist[1][n]) - e:
            return False
    for n, gn in g.items():
        if gn != half_l + r(seq.psi(n)) or gn < ZERO:
            return False
    items = sorted(g)
    for i, n in enumerate(items):
        for m in items[i + 1:]:
            if g[n] + g[m] > r(seq.dist[n][m]):
                return False
    return True


def _case_i2_invariants(seq, res) -> bool:
    sigma, tau, eps = res.data["sigma"], res.data["tau"], res.data["eps"]
    for s, t, e in zip(sigma, tau, eps):
        formula = seq.rat(-seq.phi(s, t) + seq.psi(s) + seq.psi(t)) / 6
        if e != formula or not e > ZERO:
            return False
    return True


def _case_ii_invariants(seq, res) -> bool:
    space = seq.space
    rows, c = res.subspace, res.data["c"]
    if any(not ci > ZERO for ci in c):
        return False
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if c[i] + c[j] > space.d(rows[i], rows[j]):
                return False
    return True


# Per case, the invariants of its construction data, read on one sequence
# view of the run's truncation.
_CASE_INVARIANTS = {
    "I-(i)": _case_i1_invariants,
    "I-(ii)": _case_i2_invariants,
    "II": _case_ii_invariants,
}


def criterion_6() -> dict:
    runs = (
        ("example48", catalog("example48"), "I-(ii)"),
        ("dmqr41", catalog("dmqr41"), "I-(i)"),
        ("power_line(4)", power_line(4), "II"),
    )
    per_run = {}
    ok = True
    for label, model, want in runs:
        res = main_theorem_pipeline(model, 30)
        inv = _CASE_INVARIANTS[res.case](SequenceView(model, 30, truncate(model, 30)), res)
        good = res.case == want and inv and res.report.expectation_pass
        per_run[label] = {
            "case": res.case,
            "expected_case": want,
            "invariants": inv,
            "members": len(res.family),
            "kind": res.report.expectation_kind,
            "pass": good,
        }
        ok = ok and good
    return _result(
        6, "pipeline: route selection, construction invariants, verification",
        ok, per_run,
    )


# ---------------------------------------------------------------------------
# 7-9: free space


def _closure_space(rng, n):
    """Shortest-path closure of a seeded positive symmetric matrix."""
    dist = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = rat(rng.randint(1, 12), rng.randint(1, 3))
            dist[i][j] = dist[j][i] = d
    # Shortest-path closure turns any positive symmetric seed into a metric.
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return make_space(dist, name=f"rand{n}")


def _random_space(rng):
    return _closure_space(rng, rng.randint(2, 8))


def _random_element(rng, space):
    n = space.n_points
    count = rng.randint(1, n - 1)
    rows = rng.sample(range(1, n), count)
    weights = {
        p: rat(rng.randint(-8, 8), rng.randint(1, 5)) for p in sorted(rows)
    }
    return free_element(space, weights)


def criterion_7() -> dict:
    rng = random.Random(BATTERY_SEED)
    for _ in range(RANDOM_SPACE_TRIALS):
        space = _random_space(rng)
        free_norm_lp(_random_element(rng, space))
    catalog_checked = 0
    for name in CATALOG_NAMES:
        space = truncate(catalog(name), 10)
        for _ in range(3):
            free_norm_lp(_random_element(rng, space))
            catalog_checked += 1
    # free_norm_lp raises unless its witness pairs to the transport cost
    # inside the unit ball, so a returned row has no mismatch to count.
    return _result(
        7, "free-norm dual routes agree, witnesses certified", True,
        {
            "random_trials": RANDOM_SPACE_TRIALS,
            "catalog_elements": catalog_checked,
            "route_mismatches": 0,
            "bad_witnesses": 0,
            "seed": BATTERY_SEED,
        },
    )


def criterion_8() -> dict:
    space = truncate(catalog("dmqr41"), 6)
    res = matching_min_check(space, [(0, 1), (2, 3)])
    mu = free_add(molecule(space, 0, 1), molecule(space, 2, 3))
    value = free_norm_lp(mu).value
    ok = (
        not res.ok
        and res.permutation == (1, 0)
        and res.best_cost < res.identity_cost
        and value < rat(2)
    )
    return _result(
        8, "identity matching beaten on dmqr41 at N=6; molecule sum below 2", ok,
        {
            "identity_cost": format_rat(res.identity_cost),
            "best_cost": format_rat(res.best_cost),
            "swap_witness": list(res.permutation),
            "free_norm": format_rat(value),
            "strictly_below": format_rat(rat(2)),
        },
    )


def criterion_9() -> dict:
    space = truncate(catalog("discrete"), 10)
    pairs = ((1, 2), (3, 4), (5, 6), (7, 8))
    norm_ok = True
    for mask in range(16):
        mu = free_element(space, {})
        for i, (p, q) in enumerate(pairs):
            sign = ONE if mask & (1 << i) else -ONE
            mu = free_add(mu, free_scale(molecule(space, p, q), sign))
        if free_norm_lp(mu).value != rat(4):
            norm_ok = False
            break

    duals = build_family(FamilySpec("thm34", space, anchors=pairs))
    rng = random.Random(BATTERY_SEED)
    samples = [
        _random_element(rng, space) for _ in range(COMPLEMENTATION_SAMPLES)
    ]
    comp = complementation_test(pairs, duals, samples)
    ok = norm_ok and comp.passed
    return _result(
        9, "signed molecule sums hit 4 exactly; complementation holds", ok,
        {
            "sign_vectors": 16,
            "norms_exact": norm_ok,
            "complementation_samples": COMPLEMENTATION_SAMPLES,
            "complementation_passed": comp.passed,
            "first_failure": comp.first_failure,
        },
    )


# ---------------------------------------------------------------------------
# 10-11: trees and the float sample


def _random_tree(rng, n):
    edges = []
    for i in range(1, n):
        edges.append((rng.randrange(i), i, rat(rng.randint(1, 8), rng.randint(1, 4))))
    return weighted_tree(n, edges)


def criterion_10() -> dict:
    rng = random.Random(BATTERY_SEED)
    four_point_failures = 0
    for _ in range(RANDOM_TREE_TRIALS):
        n = rng.randint(4, 12)
        if not four_point_check(tree_metric(_random_tree(rng, n))).ok:
            four_point_failures += 1

    cycle = make_space(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], name="cycle4"
    )
    cyc = four_point_check(cycle)
    cycle_ok = not cyc.ok and cyc.witness_indices == (0, 1, 2, 3)

    instances = {
        "star": weighted_tree(8, [(0, i, 1) for i in range(1, 8)]),
        "path": weighted_tree(10, [(i, i + 1, 1) for i in range(9)]),
        "caterpillar": weighted_tree(
            8,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1),
             (1, 5, 1), (2, 6, 1), (3, 7, 1)],
        ),
    }
    per_instance = {}
    pipelines_ok = True
    for label, t in instances.items():
        res = tree_c0_pipeline(tree_metric(t), tree=t)
        good = (res.report.exact_pass and res.report.expectation_pass
                and res.report.worst_defect == ZERO)
        per_instance[label] = {"case": res.case, "members": res.family.size,
                               "pass": good}
        pipelines_ok = pipelines_ok and good

    ok = four_point_failures == 0 and cycle_ok and pipelines_ok
    return _result(
        10, "random trees pass the four-point check; tree pipeline verifies", ok,
        {
            "trees": RANDOM_TREE_TRIALS,
            "four_point_failures": four_point_failures,
            "cycle_witness": list(cyc.witness_indices),
            "cycle_sums": [format_rat(v) for v in cyc.witness_values],
            "pipelines": per_instance,
            "seed": BATTERY_SEED,
        },
    )


def criterion_11() -> dict:
    rep = sample_analytic("x2-over-absx-plus-2", 512, 10 ** 6)
    ok = (
        rep["passed"]
        and rep["exact"] is False
        and rep["sample_error"] < 1e-5
        and rep["max_grid_slope"] <= 1.0 + 1e-12
    )
    return _result(
        11, "float sampling of the analytic example stays within bounds", ok, rep
    )


# ---------------------------------------------------------------------------
# Aggregation


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
)


def run_all() -> dict:
    rows = [fn() for fn in CRITERIA]
    return {
        "suite": "acceptance",
        "seed": BATTERY_SEED,
        "backend": BACKEND,
        "passed": all(row["passed"] for row in rows),
        "criteria": rows,
    }


def markdown_summary(results: dict) -> str:
    lines = [
        "# Acceptance suite",
        "",
        f"- seed: {results['seed']}",
        f"- rational backend: {results['backend']}",
        f"- overall: {'PASS' if results['passed'] else 'FAIL'}",
        "",
        "| # | criterion | result |",
        "|---|-----------|--------|",
    ]
    for row in results["criteria"]:
        status = "pass" if row["passed"] else "FAIL"
        lines.append(f"| {row['id']} | {row['title']} | {status} |")
    return "\n".join(lines) + "\n"
