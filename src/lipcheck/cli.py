"""Command-line front end for the workbench.

Subcommands cover space validation, Lipschitz and free-space norms,
theorem hypothesis checks, family verification, the main pipeline, the
consolidated report, and one floating-point sampling command (everything
else is exact rational arithmetic).

Every report records the seed and is written atomically (temp file plus
rename); identical configuration and seed produce byte-identical JSON,
because keys are sorted and no timestamps are embedded.

``free-norm`` solves its element once. Its ``value`` and ``flow_value``
are both the transport cost, ``witness_lip_norm`` is the norm of the
certified dual witness, and ``routes_agree``, ``witness_achieves`` and
``passed`` are always true: a failed certificate exits 4 before any
report is written.

Exit codes:
  0  all requested checks passed
  1  a verification failed (the report is still written)
  2  usage or configuration errors
  3  model definition errors (unknown model, missing tail data)
  4  an internal certificate or construction failed (a bug, never a verdict)
"""

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from .rational import ZERO, format_rat, is_rational, parse_rat, rat
from .metric import (
    CATALOG_NAMES,
    LipcheckError,
    ModelError,
    PreconditionError,
    StructureError,
    catalog,
    integer_line,
    power_line,
    space_from_json,
    truncate,
)
from .lipfun import lipfn, pointwise_sup, slope, strong_pairs
from .freespace import free_from_json, free_norm_lp
from .plfun import ANALYTIC_FUNCTIONS, sample_analytic
from .embeddings import (
    BATTERY_RANDOM_COUNT,
    BATTERY_SEED,
    CHECK_THEOREMS,
    VERIFY_THEOREMS,
    ConstructionError,
    DichotomyError,
    check_canonical,
    main_theorem_pipeline,
    report_json,
    standard_family,
    standard_size,
    verify_standard,
)

OUT_DIR_ENV = "LIPCHECK_OUT_DIR"

MODEL_NAMES = CATALOG_NAMES + ("integer_line", "power_line")

# Largest truncation the command line builds. Validation is cubic in N in the
# worst case, on spaces with tight triangles such as lines and trees, and the
# largest size the shipped checks use is 65 (the thm57 instance).
MAX_N = 128

# Bounds on the verify battery: 3 ** support sign vectors, built eagerly (8
# gives 6,561, 27 times the default), plus rand_count random vectors. Each
# costs O(N^2) exact slopes. A negative count would drop the random vectors.
MAX_SUPPORT = 8
MAX_RAND_COUNT = 1000

# sample-analytic compares every pair of its resolution + 1 grid points in
# floating point; 4,096 is 64 times the pairs of the default 512.
MAX_RESOLUTION = 4096
# Its horizon check allows an error of 4/horizon; at 2**48 that is 2**-46,
# 64 times float64's spacing at 1.0, so the bound stays above rounding.
MAX_HORIZON = 2 ** 48


@dataclass
class RunConfig:
    command: str
    space: Optional[str] = None
    model: Optional[str] = None
    theorem: Optional[str] = None
    n: Optional[int] = None
    values: Optional[str] = None
    element: Optional[str] = None
    support: Optional[int] = None
    rand_count: int = BATTERY_RANDOM_COUNT
    seed: int = BATTERY_SEED
    out: Optional[str] = None
    fmt: str = "json"
    params: dict = field(default_factory=dict)
    function: str = "x2-over-absx-plus-2"
    resolution: int = 512
    horizon: int = 10 ** 6
    span: float = 1000.0


# ---------------------------------------------------------------------------
# Report plumbing


def _atomic_write(path: str, text: str) -> str:
    path = os.path.abspath(path)
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lipcheck-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_json(path: str, obj) -> str:
    return _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _markdown_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}- {key}:")
                lines.extend(_markdown_lines(val, indent + 1))
            else:
                lines.append(f"{pad}- {key}: {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_markdown_lines(val, indent + 1))
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def write_report_file(config: RunConfig, blob: dict, default_stem: str) -> str:
    ext = ".md" if config.fmt == "markdown" else ".json"
    if config.out:
        path = config.out
    else:
        path = os.path.join(
            os.environ.get(OUT_DIR_ENV, "."), default_stem + ext
        )
    if config.fmt == "markdown":
        text = f"# {default_stem}\n\n" + "\n".join(_markdown_lines(blob)) + "\n"
        return _atomic_write(path, text)
    return write_json(path, blob)


def _fmt(obj):
    """Rationals to canonical strings, recursively; leaves everything else."""
    if is_rational(obj):
        return format_rat(obj)
    if isinstance(obj, dict):
        return {str(k): _fmt(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fmt(v) for v in obj]
    return obj


def _parse_values(text: str):
    """The --values JSON: an array of rational strings or integers."""
    raw = json.loads(text)
    if not isinstance(raw, list) or not all(
        isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool))
        for x in raw
    ):
        raise StructureError("--values must be a JSON array of rational strings or integers")
    try:
        return [parse_rat(x) if isinstance(x, str) else rat(x) for x in raw]
    except ValueError as exc:
        raise StructureError(str(exc)) from None


# ---------------------------------------------------------------------------
# Selectors


def load_model(name: str, params: dict):
    if name == "integer_line":
        if params:
            raise ModelError("integer_line takes no parameters")
        return integer_line()
    if name == "power_line":
        unknown = sorted(set(params) - {"ratio"})
        if unknown:
            raise ModelError(f"model 'power_line' does not take parameters {unknown}")
        return power_line(**params)
    return catalog(name, **params)


def _check_range(what: str, value: Optional[int], lo: int, hi: int) -> Optional[int]:
    if value is not None and not lo <= value <= hi:
        raise PreconditionError(f"{what} {value} is outside {lo}..{hi}")
    return value


def _require_n(config: RunConfig) -> int:
    if config.n is None:
        raise PreconditionError("--n is required for model-backed spaces")
    return _check_range("truncation size", config.n, 2, MAX_N)


def load_space(config: RunConfig):
    sel = config.space
    if sel is None:
        raise PreconditionError("--space is required")
    if sel.startswith("@") or sel.endswith(".json"):
        path = sel[1:] if sel.startswith("@") else sel
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        # validation is cubic in the rows in the worst case (tight triangles,
        # as on lines and trees), so the file is held to the --n cap
        rows = obj.get("dist") if isinstance(obj, dict) else None
        if isinstance(rows, list) and len(rows) > MAX_N:
            raise PreconditionError(f"space file has {len(rows)} rows; at most {MAX_N} are allowed")
        return space_from_json(obj)
    return truncate(load_model(sel, config.params), _require_n(config))


# ---------------------------------------------------------------------------
# Command handlers, each returning the process exit code


def cmd_validate(config: RunConfig) -> int:
    # Loading checks the axioms once: a violation raises ModelError (exit 3,
    # naming the first one), so a space that loads has passed.
    space = load_space(config)
    blob = {
        "command": "validate",
        "space": space.name or config.space,
        "n_points": space.n_points,
        "seed": config.seed,
        "passed": True,
        "violations": [],
    }
    path = write_report_file(config, blob, "lipcheck-validate")
    print(f"validate {blob['space']}: pass -> {path}")
    return 0


def cmd_norm(config: RunConfig) -> int:
    space = load_space(config)
    if config.values is None:
        raise PreconditionError("--values is required")
    f = lipfn(space, _parse_values(config.values))
    pairs = strong_pairs(f)
    value = slope(f, *pairs[0]) if pairs else ZERO
    sup = pointwise_sup(f, 0)
    blob = {
        "command": "norm",
        "space": space.name or config.space,
        "seed": config.seed,
        "lip_norm": format_rat(value),
        "attaining_pairs": [list(pq) for pq in pairs],
        "sup_at_base": format_rat(sup),
        "defect_at_base": format_rat(value - sup),
    }
    path = write_report_file(config, blob, "lipcheck-norm")
    print(f"norm {blob['space']}: {blob['lip_norm']} -> {path}")
    return 0


def cmd_free_norm(config: RunConfig) -> int:
    space = load_space(config)
    if config.element is None:
        raise PreconditionError("--element is required")
    mu = free_from_json(json.loads(config.element), space)
    lp = free_norm_lp(mu)
    blob = {
        "command": "free-norm",
        "space": space.name or config.space,
        "seed": config.seed,
        "value": format_rat(lp.value),
        "flow_value": format_rat(lp.value),
        "routes_agree": True,
        "dual_witness": [format_rat(v) for v in lp.witness.values],
        "witness_lip_norm": format_rat(lp.witness_norm),
        "witness_achieves": True,
        "passed": True,
    }
    path = write_report_file(config, blob, "lipcheck-free-norm")
    print(f"free-norm {blob['space']}: {blob['value']} (pass) -> {path}")
    return 0


def cmd_check(config: RunConfig) -> int:
    if config.model is None:
        raise PreconditionError("--model is required")
    model = load_model(config.model, config.params)
    n = _require_n(config)
    check = check_canonical(config.theorem, model, n)
    blob = {
        "command": "check",
        "theorem": config.theorem,
        "model": config.model,
        "n": n,
        "seed": config.seed,
    }
    blob.update(check.to_json())
    path = write_report_file(config, blob, f"lipcheck-check-{config.theorem}")
    print(f"check {config.theorem} on {config.model}: "
          f"{'pass' if check.ok else 'FAIL'} -> {path}")
    return 0 if check.ok else 1


def cmd_verify(config: RunConfig) -> int:
    _check_range("--support", config.support, 0, MAX_SUPPORT)
    _check_range("--rand-count", config.rand_count, 0, MAX_RAND_COUNT)
    default_n = standard_size(config.theorem, config.params)
    n = _check_range("truncation size", default_n if config.n is None else config.n, 2, MAX_N)
    built = standard_family(config.theorem, N=n, **config.params)
    if not built.size:
        raise PreconditionError(f"{config.theorem} has no family member at N = {n}: nothing to verify")
    report = verify_standard(built, seed=config.seed, rand_count=config.rand_count,
                             support=config.support)
    blob = report_json(config.theorem, built.spec.space.name, n, built.checker, report)
    blob["command"] = "verify"
    ok = report.expectation_pass
    path = write_report_file(config, blob, f"lipcheck-verify-{config.theorem}")
    print(f"verify {config.theorem}: {'pass' if ok else 'FAIL'} "
          f"({len(report.coefficient_set)} vectors) -> {path}")
    return 0 if ok else 1


def cmd_pipeline(config: RunConfig) -> int:
    if config.model is None:
        raise PreconditionError("--model is required")
    model = load_model(config.model, config.params)
    n = _require_n(config)
    base = {
        "command": "pipeline",
        "model": config.model,
        "n": n,
        "seed": config.seed,
    }
    try:
        res = main_theorem_pipeline(model, n)
    except (DichotomyError, ConstructionError) as exc:
        blob = dict(base, passed=False, error=str(exc))
        path = write_report_file(config, blob, "lipcheck-pipeline")
        print(f"pipeline {config.model}: FAIL ({exc}) -> {path}")
        return 1
    ok = res.report.expectation_pass
    blob = dict(
        base,
        case=res.case,
        subspace=list(res.subspace),
        family_size=len(res.family),
        data=_fmt(res.data),
        exact_pass=res.report.exact_pass,
        expectation_kind=res.report.expectation_kind,
        expectation_pass=res.report.expectation_pass,
        worst_defect=format_rat(res.report.worst_defect),
        failures=list(res.report.failures),
        passed=ok,
    )
    path = write_report_file(config, blob, "lipcheck-pipeline")
    print(f"pipeline {config.model}: case {res.case} "
          f"{'pass' if ok else 'FAIL'} -> {path}")
    return 0 if ok else 1


def cmd_report(config: RunConfig) -> int:
    from . import acceptance

    results = acceptance.run_all()
    if config.out:
        json_path = config.out
    else:
        json_path = os.path.join(
            os.environ.get(OUT_DIR_ENV, "."), "lipcheck-report.json"
        )
    stem, _ = os.path.splitext(json_path)
    write_json(json_path, results)
    md_path = _atomic_write(stem + ".md", acceptance.markdown_summary(results))
    for row in results["criteria"]:
        print(f"criterion {row['id']:2d} {row['title']}: "
              f"{'pass' if row['passed'] else 'FAIL'}")
    print(f"report: {'pass' if results['passed'] else 'FAIL'} "
          f"-> {json_path}, {md_path}")
    return 0 if results["passed"] else 1


def cmd_sample_analytic(config: RunConfig) -> int:
    _check_range("--resolution", config.resolution, 1, MAX_RESOLUTION)
    _check_range("--horizon", config.horizon, 1, MAX_HORIZON)
    rep = sample_analytic(
        config.function, config.resolution, config.horizon, config.span
    )
    blob = dict(rep, command="sample-analytic", seed=config.seed)
    path = write_report_file(config, blob, "lipcheck-sample-analytic")
    print(f"sample-analytic {config.function}: "
          f"{'pass' if rep['passed'] else 'FAIL'} -> {path}")
    return 0 if rep["passed"] else 1


HANDLERS = {
    "validate": cmd_validate,
    "norm": cmd_norm,
    "free-norm": cmd_free_norm,
    "check": cmd_check,
    "verify": cmd_verify,
    "pipeline": cmd_pipeline,
    "report": cmd_report,
    "sample-analytic": cmd_sample_analytic,
}


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_params(pairs):
    """--param k=v entries; integers stay integers, anything else must be a
    canonical rational string."""
    out = {}
    for entry in pairs or ():
        if "=" not in entry:
            raise PreconditionError(f"--param needs key=value, got {entry!r}")
        key, _, value = entry.partition("=")
        try:
            out[key] = int(value)
        except ValueError:
            out[key] = parse_rat(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipcheck",
        description="Exact verification workbench for norm attainment "
                    "on pointed metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_space=False, needs_model=False):
        if needs_space:
            p.add_argument("--space", help="catalog model name or a JSON file path")
        if needs_model:
            p.add_argument("--model", choices=MODEL_NAMES)
        p.add_argument("--n", type=int, help=f"truncation size (2 to {MAX_N})")
        p.add_argument("--param", action="append", dest="params_raw",
                       metavar="KEY=VALUE", help="model parameter, repeatable")
        p.add_argument("--seed", type=int, default=BATTERY_SEED)
        p.add_argument("--out", help="report path (default under $%s)" % OUT_DIR_ENV)
        p.add_argument("--format", dest="fmt", choices=("json", "markdown"),
                       default="json")

    common(sub.add_parser("validate", help="check the metric axioms"),
           needs_space=True)
    p_norm = sub.add_parser("norm", help="Lipschitz norm of explicit values")
    common(p_norm, needs_space=True)
    p_norm.add_argument("--values", help="JSON array of rational strings")

    p_free = sub.add_parser("free-norm", help="free-space norm with a certified dual witness")
    common(p_free, needs_space=True)
    p_free.add_argument("--element", help='JSON like {"weights": {"1": "1/2"}}')

    p_check = sub.add_parser("check", help="run a theorem hypothesis checker")
    common(p_check, needs_model=True)
    p_check.add_argument("--theorem", required=True, choices=CHECK_THEOREMS)

    p_verify = sub.add_parser("verify", help="build and verify a standard family")
    common(p_verify)
    p_verify.add_argument("--theorem", required=True, choices=VERIFY_THEOREMS)
    p_verify.add_argument("--support", type=int,
                          help=f"sign-vector support size (0 to {MAX_SUPPORT}, default 5)")
    p_verify.add_argument("--rand-count", type=int, default=BATTERY_RANDOM_COUNT,
                          help=f"seeded random vectors (0 to {MAX_RAND_COUNT})")

    p_pipe = sub.add_parser("pipeline", help="run the main construction pipeline")
    common(p_pipe, needs_model=True)

    p_rep = sub.add_parser("report", help="full acceptance suite, JSON + markdown")
    common(p_rep)

    p_samp = sub.add_parser("sample-analytic",
                            help="float sampling of the reference function")
    common(p_samp)
    p_samp.add_argument("--function", default="x2-over-absx-plus-2",
                        choices=sorted(ANALYTIC_FUNCTIONS))
    p_samp.add_argument("--resolution", type=int, default=512, help=f"1 to {MAX_RESOLUTION}")
    p_samp.add_argument("--horizon", type=int, default=10 ** 6, help=f"1 to {MAX_HORIZON}")
    p_samp.add_argument("--span", type=float, default=1000.0, help="finite and positive")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = vars(args).copy()
    params_raw = fields.pop("params_raw", None)
    fields["params"] = _parse_params(params_raw)
    return RunConfig(**fields)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls to main."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = config_from_args(args)
        return HANDLERS[config.command](config)
    except (StructureError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except LipcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
