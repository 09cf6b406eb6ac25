"""The three-branch ``verify_isometry`` that one rule per vector replaced.

Kept verbatim as a differential oracle, with the ``Expectation`` it reads,
the Fraction ``coefficient_norm``, and the expectation factories of every
standard family in that API. Its asymptotic families read the Fraction
orbit rule (with the thm45 base-pair wrapper), which recomputes f_a's
values, norm and designated sup from the model's closed forms
(``model_oracle``): the standard families' member values come from the
theorems' closed forms, the pipelines' from the declaration their orbit
rule reads. As in the production rule, an asymptotic verdict bounds the
norm and names no norm or sup; a test compares the rule's norm and sup with
each witness record instead. ``combine`` is looked up in this module, so a
test can swap in another path.

``pair_route_verify`` is the one-rule ``verify_isometry`` as it stood
before the molecule table: every vector combined by ``combine`` and its
pairs scanned by ``strong_pairs`` or ``lip_norm``. It reads the production
``Expectation`` and ``RuleData``.

``old_path(monkeypatch, *modules, model=None)`` routes the construction
pipelines through this oracle: the rule factories they call hand back the
old expectation's fields, and ``verify_isometry`` reads them into an oracle
``Expectation``. ``model`` is the model the pipeline runs on, whose closed
forms the case I-(i) rule reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

from model_oracle import _model_nodes, d_base, d_seq
from lipcheck.embeddings import (
    RuleData,
    VerificationReport,
    WitnessRecord,
    lift_coefficients,
    prime_orbits,
)
from lipcheck.lipfun import combine, lip_norm, pointwise_sup, slope, slope_parts, strong_pairs
from lipcheck.metric import PreconditionError
from lipcheck.rational import ONE, Rat, ZERO, format_rat, rat


@dataclass(frozen=True)
class Expectation:
    """What finite-scale attainment should look like for a family."""

    kind: str  # "exact" | "asymptotic" | "deflated"
    designated_point: object = None  # row, or callable(coeffs) -> row, or None
    witness_pair: Optional[Callable] = None  # coeffs -> (u, v) positively oriented
    rule: Optional[Callable] = None  # coeffs -> RuleData (asymptotic only)
    norm_factor: Rat = ONE  # deflated: expected norm = coeff norm * factor
    base_gap_factor: Rat = ZERO  # deflated: coeff norm - sup@designated
    strict: bool = True  # asymptotic: truncation norm strictly below the target


def coefficient_norm(coeffs, target: str) -> Rat:
    vals = [abs(rat(a)) for a in coeffs]
    if target == "sup-norm":
        best = ZERO
        for v in vals:
            if v > best:
                best = v
        return best
    if target == "sum-norm":
        total = ZERO
        for v in vals:
            total = total + v
        return total
    raise PreconditionError(f"unknown target {target!r}")


def _argmax_member(coeffs):
    """Smallest position carrying the largest absolute coefficient."""
    best = None
    pos = None
    for i, a in enumerate(coeffs):
        v = abs(a)
        if best is None or v > best:
            best, pos = v, i
    return pos


def _pattern_index(coeffs) -> int:
    """Group whose sign pattern matches the coefficient signs (zero -> +)."""
    g = 0
    for n, a in enumerate(coeffs, start=1):
        if a >= ZERO:
            g |= 1 << (n - 1)
    return g


def _resolve_point(designated, coeffs):
    if designated is None:
        return None
    if callable(designated):
        return designated(coeffs)
    return designated


def verify_isometry(family, target: str, coeff_set, expectation: Expectation,
                    seed: Optional[int] = None) -> VerificationReport:
    """Check the norm identity and the attainment expectation for every
    coefficient vector. Failures are collected, never raised."""
    family = tuple(family)
    if not family:
        raise PreconditionError("empty family")
    exact_all = True
    expect_all = True
    worst = ZERO
    witnesses = []
    failures = []

    def fail(msg):
        nonlocal expect_all
        expect_all = False
        if len(failures) < 8:
            failures.append(msg)

    for coeffs in coeff_set:
        coeffs = tuple(rat(a) for a in coeffs)
        cn = coefficient_norm(coeffs, target)
        f = combine(family, coeffs)
        # Without a designated witness pair, one scan finds the norm and
        # the attaining pairs that name the recorded witness.
        if expectation.witness_pair is None:
            attaining = strong_pairs(f)
            ln = slope(f, *attaining[0]) if attaining else ZERO
        else:
            attaining, ln = None, lip_norm(f)
        gap = cn - ln if cn >= ln else ln - cn
        if gap > worst:
            worst = gap
        if ln != cn:
            exact_all = False
        label = "(" + ",".join(format_rat(a) for a in coeffs) + ")"
        point = None
        point_defect = None
        pair = None

        if expectation.kind == "exact":
            if ln != cn:
                fail(f"a={label}: norm {format_rat(ln)} != {format_rat(cn)}")
            point = _resolve_point(expectation.designated_point, coeffs)
            if point is not None:
                point_defect = ln - pointwise_sup(f, point)
                if point_defect != ZERO:
                    fail(f"a={label}: defect {format_rat(point_defect)} at {point}")
            if expectation.witness_pair is not None and cn > ZERO:
                pair = expectation.witness_pair(coeffs)
                if pair is not None and slope(f, pair[0], pair[1]) != cn:
                    fail(f"a={label}: witness pair {pair} misses the norm")

        elif expectation.kind == "deflated":
            expected = cn * expectation.norm_factor
            if ln != expected:
                fail(f"a={label}: norm {format_rat(ln)} != {format_rat(expected)}")
            point = _resolve_point(expectation.designated_point, coeffs)
            if point is not None:
                sup_here = pointwise_sup(f, point)
                point_defect = ln - sup_here
                if sup_here != expected:
                    fail(f"a={label}: sup at {point} is {format_rat(sup_here)}")
                if cn - sup_here != cn * expectation.base_gap_factor:
                    fail(f"a={label}: base gap {format_rat(cn - sup_here)} off rule")
            if expectation.witness_pair is not None and cn > ZERO:
                pair = expectation.witness_pair(coeffs)
                if pair is not None and slope(f, pair[0], pair[1]) != expected:
                    fail(f"a={label}: witness pair {pair} misses the norm")

        elif expectation.kind == "asymptotic":
            if cn == ZERO:
                if ln != ZERO:
                    fail(f"a={label}: zero vector with nonzero norm")
            else:
                data = expectation.rule(coeffs)
                if ln > cn:
                    fail(f"a={label}: truncation norm exceeds the target")
                elif expectation.strict and ln == cn:
                    fail(f"a={label}: truncation norm not strictly below target")
                for key, u, v, expected_slope in data.member_checks:
                    got = slope(f, u, v)
                    if abs(got) != expected_slope:
                        fail(
                            f"a={label}: member {key} slope {format_rat(abs(got))} "
                            f"!= {format_rat(expected_slope)}"
                        )
                point = data.designated_point
                point_defect = ln - pointwise_sup(f, point)
        else:
            raise PreconditionError(f"unknown expectation kind {expectation.kind!r}")

        if pair is None and ln > ZERO:
            pair = (attaining or strong_pairs(f))[0]
        witnesses.append(WitnessRecord(coeffs, ln, pair, point, point_defect))

    return VerificationReport(
        target=target,
        coefficient_set=tuple(tuple(a) for a in coeff_set),
        exact_pass=exact_all,
        worst_defect=worst,
        witnesses=tuple(witnesses),
        expectation_kind=expectation.kind,
        expectation_pass=expect_all,
        failures=tuple(failures),
        seed=seed,
    )


def pair_route_verify(family, target: str, coeff_set, expectation,
                      seed: Optional[int] = None) -> VerificationReport:
    """Check every coefficient vector against the RuleData its expectation's
    rule derives from it, in this order: the norm, under a ceiling the norm
    against the coefficient norm, the members' absolute slopes, the sup at
    the designated point (a zero defect when no sup is expected; under a
    ceiling the defect is only recorded) and the base gap, the witness
    pair's signed slope. Failures are collected, never raised; the first
    eight are kept, in the order they occur."""
    family = tuple(family)
    if not family:
        raise PreconditionError("empty family")
    exact_all = True
    expect_all = True
    worst = ZERO
    witnesses = []
    failures = []

    def fail(msg):
        nonlocal expect_all
        expect_all = False
        if len(failures) < 8:
            failures.append(f"a=({','.join(format_rat(a) for a in coeffs)}): {msg}")

    for coeffs in coeff_set:
        coeffs = tuple(rat(a) for a in coeffs)
        C, K, cn = lift_coefficients(coeffs, target)
        f = combine(family, coeffs)
        data = expectation.rule(C, K, cn)
        # Without a witness pair, one scan finds the norm and the attaining
        # pairs that name the recorded witness.
        if data is None or data.witness_pair is None:
            attaining = strong_pairs(f)
            ln = slope(f, *attaining[0]) if attaining else ZERO
        else:
            attaining, ln = None, lip_norm(f)
        gap = abs(cn - ln)
        if gap > worst:
            worst = gap
        if ln != cn:
            exact_all = False
        point = point_defect = pair = None

        if data is None:
            if ln != ZERO:
                fail("zero vector with nonzero norm")
        else:
            expected = ln if data.ceiling else data.expected_norm
            if data.ceiling:
                if ln > cn:
                    fail("truncation norm exceeds the target")
                elif data.ceiling == "<" and ln == cn:
                    fail("truncation norm not strictly below target")
            elif ln != expected:
                fail(f"norm {format_rat(ln)} != {format_rat(expected)}")
            for key, u, v, want in data.member_checks:
                num, den = slope_parts(f, u, v)
                if abs(num) * want.denominator != want.numerator * den:
                    fail(f"member {key} slope {format_rat(Rat(abs(num), den))} "
                         f"!= {format_rat(want)}")
            point = data.designated_point
            if point is not None:
                sup_here = pointwise_sup(f, point)
                point_defect = ln - sup_here
                if data.ceiling:
                    pass
                elif data.expected_sup is None:
                    if point_defect != ZERO:
                        fail(f"defect {format_rat(point_defect)} at {point}")
                elif sup_here != data.expected_sup:
                    fail(f"sup at {point} is {format_rat(sup_here)}")
                if data.base_gap is not None and cn - sup_here != data.base_gap:
                    fail(f"base gap {format_rat(cn - sup_here)} off rule")
            pair = data.witness_pair
            if pair is not None:
                num, den = slope_parts(f, *pair)
                if num * expected.denominator != expected.numerator * den:
                    fail(f"witness pair {pair} misses the norm")

        if pair is None and ln > ZERO:
            pair = attaining[0]
        witnesses.append(WitnessRecord(coeffs, ln, pair, point, point_defect))

    return VerificationReport(
        target=target,
        coefficient_set=tuple(tuple(a) for a in coeff_set),
        exact_pass=exact_all,
        worst_defect=worst,
        witnesses=tuple(witnesses),
        expectation_kind=expectation.kind,
        expectation_pass=expect_all,
        failures=tuple(failures),
        seed=seed,
    )


def _exact_witness_pairs(members_pairs):
    """Witness rule for two-point families: the dominant pair, oriented so
    the slope is positive."""

    def witness(coeffs):
        n0 = _argmax_member(coeffs)
        if abs(coeffs[n0]) == ZERO:
            return None
        p, q = members_pairs[n0]
        return (q, p) if coeffs[n0] > ZERO else (p, q)

    return witness


def _pair_expectation(spec, members):
    return Expectation("exact", witness_pair=_exact_witness_pairs(members))


def _prop42_expectation(spec, members):
    return Expectation(
        "exact",
        designated_point=lambda coeffs: members[_argmax_member(coeffs)],
        witness_pair=_exact_witness_pairs(tuple((p, p - 1) for p in members)),
    )


def _sign_pattern_expectation(pair_of_group):
    """Exact sum-norm expectation witnessed by the pair of the group whose
    sign pattern matches the coefficients."""

    def expectation(spec, members):
        return Expectation(
            "exact", witness_pair=lambda coeffs: pair_of_group(_pattern_index(coeffs))
        )

    return expectation


def _thm57_expectation(spec, members):
    c = spec.parameters["c"]
    levels = spec.parameters["levels"]
    return Expectation(
        "deflated",
        designated_point=0,
        witness_pair=lambda coeffs: (0, (_pattern_index(coeffs) + 1) * levels),
        norm_factor=ONE - c ** (-levels),
        base_gap_factor=c ** (-levels),
    )


def _orbit_rule_oracle(members, value_maps, nodes, dist, row_of, designated=None):
    def rule(coeffs):
        val = {node: ZERO for node in nodes}
        support = []
        for i, a in enumerate(coeffs):
            if a == ZERO:
                continue
            support.append(i)
            for node, v in value_maps[i].items():
                val[node] = val[node] + a * v
        best = ZERO
        node_list = list(nodes)
        for x in range(len(node_list)):
            for y in range(x + 1, len(node_list)):
                u, v = node_list[x], node_list[y]
                dv = val[u] - val[v]
                if dv == ZERO:
                    continue
                s = abs(dv) / dist(u, v)
                if s > best:
                    best = s
        checks = []
        for i in support:
            vm = value_maps[i]
            head_node = min(vm.keys())
            deep_node = max(vm.keys())
            su = abs(coeffs[i]) * abs(vm[head_node] - vm[deep_node]) / dist(
                head_node, deep_node
            )
            checks.append((members[i], row_of(head_node), row_of(deep_node), su))
        n0 = _argmax_member(coeffs)
        x0 = min(value_maps[n0]) if designated is None else designated
        sup_best = ZERO
        for u in nodes:
            if u == x0:
                continue
            dv = val[x0] - val[u]
            if dv == ZERO:
                continue
            s = abs(dv) / dist(x0, u)
            if s > sup_best:
                sup_best = s
        return RuleData(best, tuple(checks), row_of(x0), sup_best)

    return rule


def _orbit(r, count):
    """The positions r, r^2, ... inside 1..count."""
    positions = [r]
    while positions[-1] * r <= count:
        positions.append(positions[-1] * r)
    return positions


def _thm43_maps(spec, members):
    """Sequence index k: L(k) - L/2 at an orbit's head, -L/2 below it."""
    model = spec.model
    half = model.L / 2
    count = model.n_seq(spec.N)
    return tuple({k: model.L_pair(k) - half if k == r else -half for k in _orbit(r, count)}
                 for r in members)


def _thm45_maps(spec, members):
    """The k-th subsequence index: the base-distance limit throughout."""
    sub = spec.anchors
    return tuple({sub[k - 1]: spec.model.base_limit for k in _orbit(r, len(sub))}
                 for r in members)


def _thm46_maps(spec, members):
    """Working index k, sequence index n = k + lo - 1: g_n = d(p_n, 0) - eps_n
    at an orbit's head, -g_n below it."""
    model = spec.model
    lo = 2 if model.base_aliases_p1 else 1
    maps = []
    for r in members:
        vm = {}
        for k in _orbit(r, model.n_seq(spec.N) - lo + 1):
            n = k + lo - 1
            g = d_base(model, n) - rat(spec.parameters["eps"](n))
            vm[n] = g if k == r else -g
        maps.append(vm)
    return tuple(maps)


def _on_nodes(spec, members, maps_of):
    """The model's closed-form node loop and each member's values by node."""
    nodes, dist, row_of = _model_nodes(spec.model, spec.model.n_seq(spec.N))
    return nodes, dist, row_of, maps_of(spec, members)


def _orbit_expectation_oracle(maps_of):
    def expectation(spec, members):
        nodes, dist, row_of, maps = _on_nodes(spec, members, maps_of)
        return Expectation(
            "asymptotic", rule=_orbit_rule_oracle(members, maps, nodes, dist, row_of)
        )

    return expectation


def _thm45_expectation_oracle(spec, members):
    model = spec.model
    nodes, dist, row_of, value_maps = _on_nodes(spec, members, _thm45_maps)
    base_node = 1 if model.base_aliases_p1 else 0
    # the constant orbit attains toward the base
    rule = _orbit_rule_oracle(members, value_maps, nodes, dist, row_of, designated=base_node)

    def rule_with_base_pairs(coeffs):
        data = rule(coeffs)
        # the member witness pair is (deepest orbit point, base)
        checks = []
        for i, a in enumerate(coeffs):
            if a == ZERO:
                continue
            vmap = value_maps[i]
            deep = max(vmap.keys())
            s = abs(a * vmap[deep]) / dist(deep, base_node)
            checks.append((members[i], row_of(deep), row_of(base_node), s))
        return RuleData(
            data.expected_norm, tuple(checks), data.designated_point, data.expected_sup
        )

    return Expectation("asymptotic", rule=rule_with_base_pairs)


def _prop23_expectation(spec, members):
    return Expectation(
        "exact", designated_point=0,
        witness_pair=_exact_witness_pairs(tuple((p, 0) for p in members)),
    )


def _prop31_expectation(spec, members):
    return Expectation(
        "exact", witness_pair=_exact_witness_pairs(tuple(zip(*spec.anchors))),
    )


# The old expectation of each standard family, by construction id
EXPECTATIONS = {
    "prop23": _prop23_expectation,
    "prop31": _prop31_expectation,
    "thm34": _pair_expectation,
    "thm37": _pair_expectation,
    "prop42": _prop42_expectation,
    "thm43": _orbit_expectation_oracle(_thm43_maps),
    "thm45": _thm45_expectation_oracle,
    "thm46": _orbit_expectation_oracle(_thm46_maps),
    "thm51": _sign_pattern_expectation(lambda g: (2 * g, 2 * g + 1)),
    "prop53": _sign_pattern_expectation(lambda g: (2 * g + 2, 2 * g + 1)),
    "thm57": _thm57_expectation,
}


def _old_orbit_fields(space, count, node_of, value, row_of, designated=None, strict=True,
                      model=None):
    """The old fields of a main-pipeline orbit rule, whose node k sits at row
    k - 1 of the selected ``space``, with the member values its declaration
    ``(count, node_of, value, row_of)`` gives. A bounded ``model`` reaches
    the orbit rule only in case I-(i), whose selection is its sequence, node
    k the point p_k, and the rule reads the model's closed forms; case II's
    rule reads the space's distances."""
    if model is not None and model.bounded:
        def dist(u, v):
            return d_seq(model, u, v)
    else:
        def dist(u, v):
            return space.d(u - 1, v - 1)
    members, maps = [], []
    for r, positions in prime_orbits(count):
        members.append(r)
        maps.append({row_of(node_of(k)) + 1: rat(value(node_of(k), k == r)) for k in positions})
    point = None if designated is None else designated + 1
    rule = _orbit_rule_oracle(members, maps, range(1, space.n_points + 1), dist,
                              lambda k: k - 1, designated=point)
    return {"rule": rule, "strict": strict}


def _old_pair_fields(pairs, points=None):
    fields = {"witness_pair": _exact_witness_pairs(pairs)}
    if points is not None:
        fields["designated_point"] = lambda coeffs: points[_argmax_member(coeffs)]
    return fields


def _old_verify(family, target, coeff_set, expectation, seed=None):
    return verify_isometry(
        family, target, coeff_set, Expectation(expectation.kind, **expectation.rule), seed=seed
    )


def old_path(monkeypatch, *modules, model=None):
    """Route every pipeline in ``modules`` through the oracle: each rule
    factory returns the old expectation's fields in place of a rule."""
    orbit_fields = functools.partial(_old_orbit_fields, model=model)
    for module in modules:
        for name, old in (("_orbit_rule", orbit_fields),
                          ("_dominant_pair_rule", _old_pair_fields),
                          ("verify_isometry", _old_verify)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, old)
