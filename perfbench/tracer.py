"""Span tracer that wraps lipcheck's public functions from outside.

``Tracer.install`` replaces each traced function in every lipcheck module
namespace that binds it (``lipcheck.cli.validate``, ``lipcheck.embeddings
.lip_norm``, ...), so calls between modules are seen as well as calls from
the benchmark. A span records name, start, end, parent span and job id; spans
stay in memory until the run writes them to a sidecar file. Operation counts
are taken at the same boundaries from the arguments and results, never from
inside the program, and the program's outputs are passed through unchanged.
"""

from __future__ import annotations

import functools
import time
import weakref
from math import comb

# (module, function, span name). All check_* hypothesis checkers share one
# span name, so their time is summed.
SPANS = (
    ("metric", "truncate", "metric.truncate"),
    ("metric", "validate", "metric.validate"),
    ("lipfun", "lip_norm", "lipfun.lip_norm"),
    ("lipfun", "combine", "lipfun.combine"),
    ("lipfun", "pointwise_sup", "lipfun.pointwise_sup"),
    ("lipfun", "strong_pairs", "lipfun.strong_pairs"),
    ("plfun", "pl_norm", "plfun.pl_norm"),
    ("plfun", "pl_pointwise_sup", "plfun.pl_pointwise_sup"),
    ("freespace", "free_norm_lp", "freespace.free_norm_lp"),
    ("freespace", "free_norm_flow", "freespace.free_norm_flow"),
    ("embeddings", "standard_family", "embeddings.standard_family"),
    ("embeddings", "verify_isometry", "embeddings.verify_isometry"),
    ("embeddings", "main_theorem_pipeline", "embeddings.main_theorem_pipeline"),
    ("embeddings", "check_prop31", "embeddings.check"),
    ("embeddings", "check_thm34", "embeddings.check"),
    ("embeddings", "check_thm37", "embeddings.check"),
    ("embeddings", "check_prop42", "embeddings.check"),
    ("embeddings", "check_thm43", "embeddings.check"),
    ("embeddings", "check_thm45", "embeddings.check"),
    ("embeddings", "check_thm46", "embeddings.check"),
    ("rtree", "tree_metric", "rtree.tree_metric"),
    ("rtree", "four_point_check", "rtree.four_point_check"),
    ("rtree", "tree_c0_pipeline", "rtree.tree_c0_pipeline"),
    ("cli", "main", "cli.main"),
)

# Space constructors whose results are only inspected for denominator size;
# they get no span, so their parsing time stays in the caller's self time.
SPACE_CONSTRUCTORS = (("metric", "make_space"), ("metric", "space_from_json"))

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))

# Per-layer counters beyond calls/busy_s/self_s, with their units.
COUNTERS = (
    ("metric.validate.triples", "count"),
    ("metric.validate.per_space", "ratio"),
    ("rational.den_bits_max", "bits"),
    ("lipfun.lip_norm.pairs", "count"),
    ("freespace.free_norm_lp.pair_rows", "count"),
    ("freespace.route_agree_ratio", "ratio"),
    ("embeddings.verify_isometry.vectors", "count"),
    ("rtree.four_point_check.quadruples", "count"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, job id]
        self.stack = []
        self.job = -1
        self.counts = dict.fromkeys(
            ("metric.validate.triples", "lipfun.lip_norm.pairs",
             "freespace.free_norm_lp.pair_rows", "embeddings.verify_isometry.vectors",
             "rtree.four_point_check.quadruples", "routes_agree", "spaces_validated"),
            0)
        self.den_bits_max = 0
        self._validated = {}  # id -> weakref of the last space validated there
        self._lp_values = {}  # id(element) -> (weakref, LP value)
        self._patched = []

    # -- boundary hooks ------------------------------------------------------

    def _before(self, name, args, kwargs):
        c = self.counts
        if name == "metric.validate":
            space = _arg(args, kwargs, 0, "space")
            n = space.n_points
            c["metric.validate.triples"] += n * (n - 1) * (n - 2) // 2
            ref = self._validated.get(id(space))
            if ref is None or ref() is not space:
                self._validated[id(space)] = weakref.ref(space)
                c["spaces_validated"] += 1
        elif name == "lipfun.lip_norm":
            n = _arg(args, kwargs, 0, "f").space.n_points
            c["lipfun.lip_norm.pairs"] += n * (n - 1) // 2
        elif name == "freespace.free_norm_lp":
            n = _arg(args, kwargs, 0, "mu").space.n_points
            c["freespace.free_norm_lp.pair_rows"] += n * (n - 1)
        elif name == "embeddings.verify_isometry":
            c["embeddings.verify_isometry.vectors"] += len(
                _arg(args, kwargs, 2, "coeff_set"))
        elif name == "rtree.four_point_check":
            c["rtree.four_point_check.quadruples"] += comb(
                _arg(args, kwargs, 0, "space").n_points, 4)

    def _note_space(self, space):
        bits = max((x.denominator.bit_length() for row in space.dist for x in row),
                   default=0)
        if bits > self.den_bits_max:
            self.den_bits_max = bits

    def _after(self, name, args, kwargs, result):
        if name in ("metric.truncate", "rtree.tree_metric"):
            self._note_space(result)
        elif name == "freespace.free_norm_lp":
            mu = _arg(args, kwargs, 0, "mu")
            self._lp_values[id(mu)] = (weakref.ref(mu), result.value)
        elif name == "freespace.free_norm_flow":
            mu = _arg(args, kwargs, 0, "mu")
            entry = self._lp_values.pop(id(mu), None)
            if entry is not None and entry[0]() is mu and entry[1] == result:
                self.counts["routes_agree"] += 1

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self.stack
        before, after = self._before, self._after
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before(name, args, kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            after(name, args, kwargs, result)
            return result

        return wrapper

    def _constructor_wrapper(self, fn):
        note = self._note_space

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            note(result)
            return result

        return wrapper

    def install(self, modules):
        """Wrap every target in every module of ``modules`` (name -> module)
        that binds it."""
        wrappers = {}
        for mod, attr, name in SPANS:
            fn = getattr(modules["lipcheck." + mod], attr)
            wrappers[id(fn)] = (fn, self._span_wrapper(fn, name))
        for mod, attr in SPACE_CONSTRUCTORS:
            fn = getattr(modules["lipcheck." + mod], attr)
            wrappers[id(fn)] = (fn, self._constructor_wrapper(fn))
        for module in modules.values():
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._patched.append((module, key, value))

    def uninstall(self):
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """calls, busy_s and self_s per span name, plus the counters.

        self_s is a span's duration minus the time its child spans cover;
        busy_s counts only the outermost span of a name, so a function that
        reaches itself is not counted twice.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        busy = dict.fromkeys(SPAN_NAMES, 0)
        own = dict.fromkeys(SPAN_NAMES, 0)
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child_ns[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                busy[name] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = calls[name]
            out[name + ".busy_s"] = busy[name] / 1e9
            out[name + ".self_s"] = own[name] / 1e9
        c = self.counts
        for key in ("metric.validate.triples", "lipfun.lip_norm.pairs",
                    "freespace.free_norm_lp.pair_rows",
                    "embeddings.verify_isometry.vectors",
                    "rtree.four_point_check.quadruples"):
            out[key] = c[key]
        out["metric.validate.per_space"] = (
            calls["metric.validate"] / c["spaces_validated"]
            if c["spaces_validated"] else 0)
        out["rational.den_bits_max"] = self.den_bits_max
        lp_solves = calls["freespace.free_norm_lp"]
        out["freespace.route_agree_ratio"] = c["routes_agree"] / lp_solves if lp_solves else 0
        return out


def per_layer_units():
    """(metric name, unit) for every per-layer metric, in report order."""
    rows = []
    for name in SPAN_NAMES:
        rows += [(name + ".calls", "count"), (name + ".busy_s", "s"),
                 (name + ".self_s", "s")]
    return rows + list(COUNTERS)
