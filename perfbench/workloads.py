"""Seeded job streams for the three benchmark workloads.

A workload is a table of job kinds; one pass over the table is a cycle. A
run executes a fixed number of cycles, built from the seed alone, so two
runs with the same arguments execute the same jobs in the same order. That
keeps the operation counts, the report digests and the tail percentile
comparable between runs and between commits.

Every job is driven through an entry point a user calls: ``cli.main`` with
the report written to a file, or the library function for the tree and
piecewise-linear jobs, which have no subcommand. Each job ends with a
verdict check that holds for any seed; the check reads the job's report and,
for free-space norms, re-checks the dual witness against the distances the
benchmark generated.
"""

from __future__ import annotations

import json
import os
import random
from collections import namedtuple
from fractions import Fraction

# Nominal cost of one cycle on a 2-core x86 machine with the fractions
# backend, measured when the benchmark was introduced. The cycle count of a
# run is fixed from --seconds with these, so the work of a run does not
# depend on how fast the code under test is.
CYCLE_SECONDS = {
    "lp-sweep": 11.0,
    "battery-verify": 11.0,
    "fresh-spaces": 17.0,
}

CATALOG_TRUNCATION = 10  # 90 pair rows in the free-norm LP
SMALL_SIZES = (2, 3, 4, 5, 6, 7, 8)  # random space sizes, in rotation
# 3.5 small jobs per catalog job put the median of a cycle in the middle of
# the 6-point jobs, away from the steps between sizes.
SMALL_PER_LARGE = (3, 4)
VERIFY_SUPPORT = 4  # 81 sign vectors ...
VERIFY_RAND_COUNT = 20  # ... plus 20 seeded random vectors per verify job
PIPELINES = (("power_line", "II"), ("example48", "I-(ii)"), ("dmqr41", "I-(i)"))
PIPELINE_N = 30
VALIDATE_N = 64
TREES_PER_CYCLE = 960
# Criterion-4 instances of the acceptance suite with their documented verdicts.
CHECK_INSTANCES = (
    ("thm34", "discrete", 16, True),
    ("thm37", "example35", 10, True),
    ("thm37", "example48", 10, False),
    ("prop42", "discrete", 10, False),
    ("thm43", "dmqr41", 20, True),
    ("thm45", "example44", 20, True),
    ("thm46", "dmqr44", 20, True),
)
TREE_INSTANCES = {
    "star": (8, [(0, i, 1) for i in range(1, 8)], "hub-bumps"),
    "path": (10, [(i, i + 1, 1) for i in range(9)], "aligned-chain"),
    "caterpillar": (
        8,
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 5, 1), (2, 6, 1), (3, 7, 1)],
        "hub-bumps",
    ),
}


# One unit of work: ``execute(libs, out_path)`` runs it and checks its
# verdict, returning ``(ok, report_bytes, bytes_written_by_cli)``.
Job = namedtuple("Job", "kind label execute")


def cycle_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cli_job(kind, label, argv, verdict) -> Job:
    def execute(libs, out):
        rc = libs.cli.main(argv + ["--out", out])
        with open(out, "rb") as fh:
            data = fh.read()
        return verdict(rc, json.loads(data)), data, len(data)

    return Job(kind, label, execute)


def library_job(kind, label, body) -> Job:
    """``body(libs)`` returns ``(ok, summary)``; the canonical JSON of the
    summary stands in for the report a subcommand would write."""

    def execute(libs, out):
        ok, summary = body(libs)
        return ok, _canonical(summary), 0

    return Job(kind, label, execute)


# ---------------------------------------------------------------------------
# lp-sweep: free-norm jobs, mostly small random spaces


def _closure_space(rng, n):
    """Shortest-path closure of a seeded positive symmetric matrix."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 12), rng.randint(1, 3))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return d


def _random_weights(rng, n):
    """Nonzero seeded weights on every point but the base."""
    return {
        p: Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 5))
        for p in range(1, n)
    }


def _molecule_sum(rng, dist):
    """Signed sum of molecules (delta_p - delta_q)/d(p, q) over four
    seeded disjoint pairs."""
    rows = rng.sample(range(1, len(dist)), 8)
    weights = {}
    for p, q in zip(rows[0::2], rows[1::2]):
        sign = rng.choice((-1, 1))
        weights[p] = weights.get(p, 0) + sign / dist[p][q]
        weights[q] = weights.get(q, 0) - sign / dist[p][q]
    return {p: w for p, w in weights.items() if w != 0}


def _free_norm_verdict(dist, weights):
    """LP value equals flow value; the dual witness vanishes at the base, is
    1-Lipschitz for ``dist`` and attains the value on ``weights``."""

    def verdict(rc, blob):
        if rc != 0 or blob["passed"] is not True or blob["value"] != blob["flow_value"]:
            return False
        f = [Fraction(v) for v in blob["dual_witness"]]
        n = len(dist)
        if len(f) != n or f[0] != 0:
            return False
        for p in range(n):
            for q in range(p + 1, n):
                if abs(f[p] - f[q]) > dist[p][q]:
                    return False
        return sum(w * f[p] for p, w in weights.items()) == Fraction(blob["value"])

    return verdict


def _free_norm_job(kind, label, space_args, dist, weights, seed) -> Job:
    element = json.dumps({"weights": {str(p): _fmt(w) for p, w in weights.items()}})
    argv = ["free-norm", *space_args, "--element", element, "--seed", str(seed)]
    return cli_job(kind, label, argv, _free_norm_verdict(dist, weights))


def _small_free_norm_job(rng, n, inputs, index, seed) -> Job:
    dist = _closure_space(rng, n)
    name = f"rand{n}-{index}"
    path = os.path.join(inputs, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "name": name,
            "base": 0,
            "points": [f"x{i}" for i in range(n)],
            "dist": [[_fmt(x) for x in row] for row in dist],
        }, fh)
    return _free_norm_job("free-norm-small", name, ["--space", path], dist,
                          _random_weights(rng, n), seed)


def _truncation(libs, name, n):
    """Distances of a catalog truncation, for building elements and for the
    witness check."""
    metric = libs.metric
    space = metric.truncate(metric.catalog(name), n)
    return [[Fraction(x) for x in row] for row in space.dist]


def lp_sweep(libs, seed, cycles, inputs):
    """Per cycle: on each catalog model one molecule sum and one random
    element, each after 3 or 4 small random-space jobs."""
    rng = random.Random(f"lp-sweep:{seed}")
    catalog = {name: _truncation(libs, name, CATALOG_TRUNCATION)
               for name in libs.metric.CATALOG_NAMES}
    jobs = []
    small = 0
    for _ in range(cycles):
        for m, (name, dist) in enumerate(catalog.items()):
            space_args = ["--space", name, "--n", str(CATALOG_TRUNCATION)]
            for k in range(2):
                for _ in range(SMALL_PER_LARGE[k]):
                    n = SMALL_SIZES[small % len(SMALL_SIZES)]
                    jobs.append(_small_free_norm_job(rng, n, inputs, len(jobs), seed))
                    small += 1
                if (m + k) % 2 == 0:
                    jobs.append(_free_norm_job("free-norm-molecules", name, space_args,
                                               dist, _molecule_sum(rng, dist), seed))
                else:
                    jobs.append(_free_norm_job("free-norm-catalog", name, space_args,
                                               dist, _random_weights(rng, len(dist)), seed))
    return jobs


def lp_sweep_warmup(libs, seed, inputs):
    rng = random.Random(f"lp-sweep-warmup:{seed}")
    dist = _truncation(libs, "dmqr41", 6)
    return [
        _small_free_norm_job(rng, 5, inputs, 0, seed),
        _free_norm_job("free-norm-catalog", "dmqr41", ["--space", "dmqr41", "--n", "6"],
                       dist, _random_weights(rng, 6), seed),
    ]


# ---------------------------------------------------------------------------
# battery-verify: few spaces, many norm evaluations per space


def _verify_job(theorem, battery_seed, n=None) -> Job:
    argv = ["verify", "--theorem", theorem, "--seed", str(battery_seed),
            "--support", str(VERIFY_SUPPORT), "--rand-count", str(VERIFY_RAND_COUNT)]
    if n is not None:
        argv += ["--n", str(n)]

    def verdict(rc, blob):
        ok = rc == 0 and blob["expectation_pass"] is True
        if blob["expectation_kind"] == "exact":
            ok = ok and blob["exact_pass"] is True and blob["worst_defect"] == "0"
        return ok

    return cli_job("verify", theorem, argv, verdict)


def _pipeline_job(model, case, n, seed) -> Job:
    argv = ["pipeline", "--model", model, "--n", str(n), "--seed", str(seed)]

    def verdict(rc, blob):
        return rc == 0 and blob["passed"] is True and blob["case"] == case

    return cli_job("pipeline", model, argv, verdict)


def _tent_job(rng) -> Job:
    coeffs = []
    for _ in range(rng.randint(6, 10)):
        den = rng.randint(1, 20)
        coeffs.append(Fraction(rng.randint(-3 * den, 3 * den), den))
    want = max(abs(a) for a in coeffs)

    def body(libs):
        norm = libs.plfun.pl_norm(libs.plfun.tent_sum(coeffs))
        return norm == want, {"coeffs": [_fmt(a) for a in coeffs], "norm": _fmt(norm)}

    return library_job("tent-sum", f"tents{len(coeffs)}", body)


def _zigzag_job(rng) -> Job:
    eta = Fraction(rng.randint(1, 3), 4)
    eps = Fraction(1, rng.randint(2, 8)) * (1 - eta)  # keeps eps < 1 - eta
    levels = rng.randint(6, 12)

    def body(libs):
        pl = libs.plfun
        g = pl.gen_zigzag(eps, eta, levels)
        norm = pl.pl_norm(g)
        sups = [pl.pl_pointwise_sup(g, x) for x in g.breakpoints]
        # Each segment's slope is seen from its endpoints, so the largest
        # pointwise sup over breakpoints is the norm; the base sees only eps.
        ok = (norm == 1 - eta ** levels and max(sups) == norm
              and sups[g.breakpoints.index(0)] <= eps)
        return ok, {"eps": _fmt(eps), "eta": _fmt(eta), "K": levels,
                    "norm": _fmt(norm), "sups": [_fmt(s) for s in sups]}

    return library_job("zigzag", f"zigzag{levels}", body)


def battery_verify(libs, seed, cycles, inputs):
    rng = random.Random(f"battery-verify:{seed}")
    theorems = libs.cli.VERIFY_THEOREMS
    jobs = []
    for _ in range(cycles):
        # Eleven verify jobs, three pipelines after the 3rd, 7th and 11th,
        # and three plfun jobs after the 2nd, 6th and 10th. With three plfun
        # jobs the median of a cycle falls among the ~0.2-0.3 s jobs
        # (thm46, prop23, power_line), not on a step between two of them.
        for i, theorem in enumerate(theorems):
            jobs.append(_verify_job(theorem, rng.randrange(1, 2 ** 31)))
            if i % 4 == 1:
                jobs.append(_tent_job(rng) if i == 1 else _zigzag_job(rng))
            elif i % 4 == 2:
                model, case = PIPELINES[i // 4]
                jobs.append(_pipeline_job(model, case, PIPELINE_N, seed))
    return jobs


def battery_verify_warmup(libs, seed, inputs):
    rng = random.Random(f"battery-verify-warmup:{seed}")
    return [
        _verify_job("thm37", rng.randrange(1, 2 ** 31), n=6),
        _pipeline_job("power_line", "II", 8, seed),
        _tent_job(rng),
        _zigzag_job(rng),
    ]


# ---------------------------------------------------------------------------
# fresh-spaces: every space built and queried once


def _validate_job(model, n, seed) -> Job:
    argv = ["validate", "--space", model, "--n", str(n), "--seed", str(seed)]

    def verdict(rc, blob):
        return (rc == 0 and blob["passed"] is True and blob["violations"] == []
                and blob["n_points"] == n)

    return cli_job("validate", model, argv, verdict)


def _check_job(theorem, model, n, expected, seed) -> Job:
    argv = ["check", "--theorem", theorem, "--model", model, "--n", str(n),
            "--seed", str(seed)]

    def verdict(rc, blob):
        return rc == (0 if expected else 1) and blob["ok"] is expected

    return cli_job("check", f"{theorem}/{model}", argv, verdict)


def _random_tree_job(rng) -> Job:
    n = rng.randint(4, 12)
    edges = [(rng.randrange(i), i, Fraction(rng.randint(1, 8), rng.randint(1, 4)))
             for i in range(1, n)]

    def body(libs):
        rt = libs.rtree
        check = rt.four_point_check(rt.tree_metric(rt.weighted_tree(n, edges)))
        return check.ok, {"n": n, "check": check.to_json()}

    return library_job("four-point", f"tree{n}", body)


def _tree_pipeline_job(label) -> Job:
    n, edges, case = TREE_INSTANCES[label]

    def body(libs):
        rt = libs.rtree
        tree = rt.weighted_tree(n, edges)
        res = rt.tree_c0_pipeline(rt.tree_metric(tree), tree=tree)
        rep = res.report
        ok = (res.case == case and rep.exact_pass and rep.expectation_pass
              and rep.worst_defect == 0)
        return ok, {"case": res.case, "points": list(res.points),
                    "partners": list(res.partners), "exact": rep.exact_pass,
                    "expectation": rep.expectation_pass,
                    "worst_defect": _fmt(Fraction(rep.worst_defect))}

    return library_job("tree-pipeline", label, body)


def fresh_spaces(libs, seed, cycles, inputs):
    rng = random.Random(f"fresh-spaces:{seed}")
    models = libs.metric.CATALOG_NAMES
    extras = ([_check_job(*inst, seed) for inst in CHECK_INSTANCES]
              + [_tree_pipeline_job(label) for label in TREE_INSTANCES])
    per_model = TREES_PER_CYCLE // len(models)
    jobs = []
    for _ in range(cycles):
        pending = list(extras)
        for model in models:
            jobs.append(_validate_job(model, VALIDATE_N, seed))
            jobs.extend(_random_tree_job(rng) for _ in range(per_model))
            if pending:
                jobs.append(pending.pop(0))
        jobs.extend(pending)
    return jobs


def fresh_spaces_warmup(libs, seed, inputs):
    rng = random.Random(f"fresh-spaces-warmup:{seed}")
    return [
        _validate_job("discrete", 16, seed),
        _check_job("thm34", "discrete", 8, True, seed),
        _random_tree_job(rng),
        _tree_pipeline_job("caterpillar"),
    ]


WORKLOADS = {
    "lp-sweep": (lp_sweep, lp_sweep_warmup),
    "battery-verify": (battery_verify, battery_verify_warmup),
    "fresh-spaces": (fresh_spaces, fresh_spaces_warmup),
}
