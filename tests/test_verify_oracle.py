"""One expectation path against the three-branch ``verify_isometry``.

Every expectation is now one rule per coefficient vector, checked in one
pass. ``isometry_oracle`` keeps the verifier it replaced, with the
expectations in that API. Both must write equal reports, witness records
and failure lists in order included, on all eleven standard families, the
three pipeline cases and the tree pipeline. Each runs on its own
expectation and on seeded wrong ones: a bumped norm factor, a wrong
designated point, a flipped or wrong witness pair, a wrong member slope,
and a flipped strictness. Perturbed members and a combination that misses
the zero vector break the norms themselves. Together they reach every
failure template and the cap of eight failures. An asymptotic verdict
names no norm or sup, so on the unperturbed asymptotic families each
witness record is held to the oracle's closed-form norm and sup directly.
"""

import re
from dataclasses import replace
from functools import lru_cache, partial

import pytest

import isometry_oracle as oracle
from builders import scale
from lipcheck import embeddings
from lipcheck.cli import load_model
from lipcheck.embeddings import (
    VERIFY_THEOREMS,
    Expectation,
    main_theorem_pipeline,
    standard_battery,
    standard_family,
    verify_isometry,
)
from lipcheck.lipfun import MoleculeTable, combine
from lipcheck.rational import ONE, ZERO
from lipcheck.rtree import tree_c0_pipeline, tree_metric, weighted_tree

TEMPLATES = {
    "norm": r"norm \S+ != \S+",
    "defect": r"defect \S+ at \d+",
    "witness": r"witness pair \(\d+, \d+\) misses the norm",
    "sup": r"sup at \d+ is \S+",
    "base gap": r"base gap \S+ off rule",
    "zero vector": r"zero vector with nonzero norm",
    "exceeds": r"truncation norm exceeds the target",
    "not strict": r"truncation norm not strictly below target",
    "member": r"member .+ slope \S+ != \S+",
}


def _template(failure):
    msg = failure.split("): ", 1)[1]
    found = [name for name, pattern in TEMPLATES.items() if re.fullmatch(pattern, msg)]
    assert len(found) == 1, failure
    return found[0]


# ---------------------------------------------------------------------------
# Cases: (name, family, target, new expectation, old expectation)


def _standard_cases():
    for tid in VERIFY_THEOREMS:
        built = standard_family(tid)
        old = oracle.EXPECTATIONS[tid](built.spec, built.members)
        yield tid, built.functions, built.target, built.expectation, old


def _recorded(monkeypatch, modules, run, model=None):
    """Run a pipeline on the new path, recording the family and expectation
    it verifies, and the old expectation of the same data; ``model`` is the
    model the pipeline runs on, whose closed forms the old orbit rule reads."""
    calls = []
    real_verify = embeddings.verify_isometry

    def recording_verify(family, target, coeff_set, expectation, seed=None):
        old = oracle.Expectation(expectation.kind, **expectation.rule.old_fields)
        calls.append((tuple(family), target, expectation, old))
        return real_verify(family, target, coeff_set, expectation, seed=seed)

    def recording(factory, old_factory):
        def build(*args, **kwargs):
            rule = factory(*args, **kwargs)
            rule.old_fields = old_factory(*args, **kwargs)
            return rule
        return build

    with monkeypatch.context() as m:
        for module in modules:
            m.setattr(module, "verify_isometry", recording_verify)
            m.setattr(module, "_dominant_pair_rule", recording(
                embeddings._dominant_pair_rule, oracle._old_pair_fields))
        m.setattr(embeddings, "_orbit_rule", recording(
            embeddings._orbit_rule, partial(oracle._old_orbit_fields, model=model)))
        run()
    assert len(calls) == 1
    return calls[0]


def _pipeline_cases(monkeypatch):
    for model_name in ("power_line", "example48", "dmqr41"):
        model = load_model(model_name, {})
        yield (model_name,) + _recorded(
            monkeypatch, (embeddings,), lambda: main_theorem_pipeline(model, 30), model)
    star = weighted_tree(8, [(0, leaf, 1) for leaf in range(1, 8)])
    yield ("tree",) + _recorded(
        monkeypatch, (embeddings,), lambda: tree_c0_pipeline(tree_metric(star)))


# ---------------------------------------------------------------------------
# Seeded wrong expectations, each written in both APIs


def _new_mapped(new, change, kind=None):
    """``new`` with ``change(data, norm)`` applied to every record."""
    def rule(C, K, norm):
        data = new.rule(C, K, norm)
        return None if data is None else change(data, norm)
    return Expectation(kind or new.kind, rule)


def _old_rule_mapped(old, change):
    return replace(old, rule=lambda coeffs: change(old.rule(coeffs)))


def _bumped_norm(old, new):
    """Norm factor doubled; an exact family reads as a deflated one."""
    if old.kind == "asymptotic":
        return None
    if old.kind == "exact":
        def change(data, norm):
            at_point = data.designated_point is not None
            return replace(data, expected_norm=2 * norm,
                           expected_sup=2 * norm if at_point else None,
                           base_gap=ZERO if at_point else None)
        return (replace(old, kind="deflated", norm_factor=2 * ONE),
                _new_mapped(new, change, kind="deflated"))
    return (replace(old, norm_factor=2 * old.norm_factor),
            _new_mapped(new, lambda data, norm: replace(
                data, expected_norm=2 * data.expected_norm,
                expected_sup=2 * data.expected_sup)))


def _wrong_point(row):
    def mutation(old, new):
        if old.kind == "asymptotic":
            old = _old_rule_mapped(old, lambda data: replace(data, designated_point=row))
        else:
            old = replace(old, designated_point=row)
        return old, _new_mapped(new, lambda data, norm: replace(data, designated_point=row))
    return mutation


def _flip(pair):
    return None if pair is None else pair[::-1]


def _flipped_witness(old, new):
    if old.witness_pair is None:
        return None
    wp = old.witness_pair
    return (replace(old, witness_pair=lambda coeffs: _flip(wp(coeffs))),
            _new_mapped(new, lambda data, norm: replace(data, witness_pair=_flip(data.witness_pair))))


def _wrong_witness(old, new):
    if old.witness_pair is None:
        return None
    return (replace(old, witness_pair=lambda coeffs: (0, 1)),
            _new_mapped(new, lambda data, norm: replace(
                data, witness_pair=(0, 1) if norm else None)))


def _wrong_member_slopes(old, new):
    if old.kind != "asymptotic":
        return None

    def change(data, *_):
        checks = tuple((key, u, v, s + 1) for key, u, v, s in data.member_checks)
        return replace(data, member_checks=checks)

    return _old_rule_mapped(old, change), _new_mapped(new, change)


def _flipped_strictness(old, new):
    if old.kind != "asymptotic":
        return None
    flipped = {"<": "<=", "<=": "<"}
    return (replace(old, strict=not old.strict),
            _new_mapped(new, lambda data, norm: replace(data, ceiling=flipped[data.ceiling])))


def _mutations(family):
    last = family[0].space.n_points - 1
    return {
        "bumped norm": _bumped_norm,
        "point 1": _wrong_point(1),
        "last point": _wrong_point(last),
        "flipped witness": _flipped_witness,
        "wrong witness": _wrong_witness,
        "member slopes": _wrong_member_slopes,
        "strictness": _flipped_strictness,
    }


# ---------------------------------------------------------------------------
# Family faults, the same on both paths


def _perturbed(fns):
    """Member 0 tripled: the norms and the member slopes break."""
    return (scale(fns[0], 3),) + tuple(fns[1:])


def _missing_zero(fns, coeffs):
    """A combination off by the last member: the zero vector misses."""
    coeffs = tuple(coeffs)
    return combine(fns, coeffs[:-1] + (coeffs[-1] + 1,))


_table_combination = MoleculeTable.combination


def _missing_zero_on_table(table, C, K):
    """The same fault where the table reads a combination: the last
    coefficient ``C[-1] / K`` one more. Any linear combination of members
    vanishes at the zero vector, so no change to the members alone can
    make it miss."""
    return _table_combination(table, C[:-1] + (C[-1] + K,), K)


def _compare(monkeypatch, family, target, battery, new, old, seen, broken=False):
    with monkeypatch.context() as m:
        if broken:
            m.setattr(MoleculeTable, "combination", _missing_zero_on_table)
            m.setattr(oracle, "combine", _missing_zero)
        got = verify_isometry(family, target, battery, new, seed=11)
        want = oracle.verify_isometry(family, target, battery, old, seed=11)
    assert got == want
    for failure in got.failures:
        seen.add(_template(failure))
    return got


def _assert_closed_forms(report, rule):
    """Each nonzero vector's witness record carries the closed-form norm of
    the oracle's rule, and its sup at the rule's designated point."""
    for w in report.witnesses:
        if any(w.coeffs):
            data = rule(w.coeffs)
            assert w.norm == data.expected_norm, w.coeffs
            assert w.point == data.designated_point, w.coeffs
            assert w.norm - w.point_defect == data.expected_sup, w.coeffs


def _run_case(monkeypatch, case, seen, capped, biting, closed):
    name, family, target, new, old = case
    if old.rule is not None:  # the Fraction rule, once per vector
        old = replace(old, rule=lru_cache(maxsize=None)(old.rule))
    battery = standard_battery(len(family), seed=11, rand_count=12, support=3)
    zero_first = ((ZERO,) * len(family),) + battery
    reports = [
        _compare(monkeypatch, family, target, battery, new, old, seen),
        _compare(monkeypatch, _perturbed(family), target, battery, new, old, seen),
        _compare(monkeypatch, family, target, zero_first, new, old, seen, broken=True),
    ]
    assert reports[0].expectation_pass, name
    if old.kind == "asymptotic":
        _assert_closed_forms(reports[0], old.rule)
        closed.append(name)
    for label, mutation in _mutations(family).items():
        pair = mutation(old, new)
        if pair is not None:
            reports.append(_compare(monkeypatch, family, target, battery, pair[1], pair[0], seen))
            if reports[-1].failures:
                biting.add(label)
    capped.extend(name for rep in reports if len(rep.failures) == 8)


def test_every_case_matches_the_oracle_on_seeded_wrong_expectations(monkeypatch):
    seen, capped, biting, names, closed = set(), [], set(), [], []
    cases = list(_standard_cases()) + list(_pipeline_cases(monkeypatch))
    for case in cases:
        _run_case(monkeypatch, case, seen, capped, biting, closed)
        names.append(case[0])
    assert names == list(VERIFY_THEOREMS) + ["power_line", "example48", "dmqr41", "tree"]
    assert closed == ["thm43", "thm45", "thm46", "power_line", "dmqr41"]
    assert seen == set(TEMPLATES)
    assert biting == set(_mutations(cases[0][1]))
    assert capped


@pytest.mark.parametrize("kind", ["exact", "deflated", "asymptotic"])
def test_kind_only_labels_the_report(kind):
    """The same rule under any label gives the same checks."""
    built = standard_family("thm34", N=6)
    battery = standard_battery(built.size, rand_count=3, support=2)
    labelled = Expectation(kind, built.expectation.rule)
    got = verify_isometry(built.functions, built.target, battery, labelled)
    want = verify_isometry(built.functions, built.target, battery, built.expectation)
    assert got == replace(want, expectation_kind=kind)


def test_empty_vector_reads_as_the_zero_vector():
    """An empty coefficient vector is the zero vector of every family; the
    three-branch path raised on prop42's designated point."""
    for tid in VERIFY_THEOREMS:
        built = standard_family(tid)
        zero = (ZERO,) * built.size
        got = verify_isometry(built.functions, built.target, [()], built.expectation)
        want = verify_isometry(built.functions, built.target, [zero], built.expectation)
        assert got.expectation_pass, tid
        assert got.witnesses == (replace(want.witnesses[0], coeffs=()),), tid
