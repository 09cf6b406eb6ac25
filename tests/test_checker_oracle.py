"""The hypothesis checkers against the hand-written first-failure checkers
they replaced (``checker_oracle``), on seeded inputs.

Every call must give an equal ``CheckResult`` (clause, witness indices and
values, in order) or raise the same exception class with the same message.
The inputs cover all twelve catalog models and five more sequence models at
seven sizes: random anchors, pairs, points with partners and subsequences,
malformed anchors, epsilon assignments in each form, and models whose
declared tails are perturbed. The set of (checker, outcome) pairs they reach
is pinned, so a re-seed that stops reaching a clause or an error class fails.
"""

import random
from dataclasses import replace

import checker_oracle as oracle
from builders import as_parts
from lipcheck import embeddings
from lipcheck.metric import (
    CATALOG_NAMES,
    CheckResult,
    _seq_model,
    catalog,
    integer_line,
    power_line,
    truncate,
)
from lipcheck.rational import ONE, ZERO, rat

SEED = 20261019
SIZES = (2, 3, 4, 6, 10, 16, 20)

# (checker, clause | "pass" | exception class) for every outcome the inputs reach
REACHED = {
    ("prop31", "pass"), ("prop31", "radius"), ("prop31", "separation"),
    ("prop31", "PreconditionError"),
    ("thm34", "pass"), ("thm34", "radius"), ("thm34", "cross-gap"),
    ("thm34", "PreconditionError"),
    ("thm37", "pass"), ("thm37", "pair-radius"), ("thm37", "pp"), ("thm37", "qq"),
    ("thm37", "pq"), ("thm37", "PreconditionError"),
    ("prop42", "pass"), ("prop42", "separation"), ("prop42", "PreconditionError"),
    ("thm43", "pass"), ("thm43", "monotone"), ("thm43", "monotone-tail-undeclared"),
    ("thm43", "radius"), ("thm43", "tail-sum"), ("thm43", "ModelError"),
    ("thm43", "TailDataError"), ("thm43", "PreconditionError"),
    ("thm45", "pass"), ("thm45", "positive-limit"), ("thm45", "radius-equality"),
    ("thm45", "decreasing"), ("thm45", "separation"), ("thm45", "ModelError"),
    ("thm45", "TailDataError"), ("thm45", "PreconditionError"),
    ("thm46", "pass"), ("thm46", "radius-window"), ("thm46", "ratio"),
    ("thm46", "ModelError"), ("thm46", "TailDataError"), ("thm46", "PreconditionError"),
    ("thm310", "pass"), ("thm310", "strict-gap"), ("thm310", "liminf-certificate"),
    ("thm310", "ModelError"), ("thm310", "TailDataError"), ("thm310", "PreconditionError"),
}


def _rising():
    """Distances 2 - 1/n - 1/m, rising in both indices, but d(p_1, p_2) = 1:
    thm43's first monotone failure, at (1, 3), fails in both indices."""

    def srule(n, m):
        return ONE if {n, m} == {1, 2} else 2 - rat(1, n) - rat(1, m)

    return _seq_model("rising", {}, seq_parts=as_parts(srule), L_pair=lambda n: rat(2),
                      L=rat(2), monotone_tails=True)


def _models():
    return [catalog(name) for name in CATALOG_NAMES] + [
        integer_line(), power_line(4), power_line(rat(3, 2)),
        catalog("dmqr44", c=rat(1, 3)), catalog("dmqr44", c=7), _rising(),
    ]


def _bad_index(rng, rows, n):
    """A malformed index: a repeat of ``rows[0]``, a row past the space, a
    negative or a non-integral index."""
    return rng.choice([rows[0], n, -1, 2.5, rat(3, 2), "1"])


def _mangle(rng, rows, n):
    """``rows`` with a malformed index inserted."""
    rows = list(rows)
    rows.insert(rng.randint(0, len(rows)), _bad_index(rng, rows, n))
    return rows


def _nearest(space, p):
    return min((q for q in space.points() if q != p), key=lambda q: (space.dist[p][q], q))


def _space_calls(rng, space):
    """(checker, anchors) on ``space``: random and malformed anchors."""
    n = space.n_points
    for _ in range(4):
        rows = rng.sample(range(n), rng.randint(0, n))
        yield "prop42", (rows,)
        partners = [_nearest(space, p) if rng.random() < 0.75
                    else rng.choice([q for q in range(n) if q != p]) for p in rows]
        yield "prop31", (rows, partners)
        paired = rng.sample(range(n), 2 * rng.randint(0, n // 2))
        pairs = list(zip(paired[::2], paired[1::2]))
        yield rng.choice(("thm34", "thm37")), (pairs,)
    rows = rng.sample(range(n), rng.randint(1, n))
    yield "prop42", (_mangle(rng, rows, n),)
    yield "prop31", (_mangle(rng, rows, n), [_nearest(space, p) for p in rows])
    yield "prop31", (rows, [_nearest(space, p) for p in rows][1:])
    yield "prop31", (rows, rows)
    yield "prop31", (rows, [n] * len(rows))
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
    i = rng.randrange(len(pairs))
    mangled = pairs[:i] + [(pairs[i][0], _bad_index(rng, pairs[0], n))] + pairs[i + 1:]
    for bad in (mangled, pairs + [(1, 2, 3)], pairs + [1], [(r, r) for r, _ in pairs]):
        yield rng.choice(("thm34", "thm37")), (bad,)


def _perturbed(rng, model):
    """``model`` with one to three declared tails replaced."""
    fields = {
        "L": lambda: rng.choice([ZERO, rat(1, 2), ONE, rat(2), (model.L or ONE) + rat(1, 3)]),
        "L_pair": lambda: (lambda n, k=rng.choice([rat(-1, 2), rat(1, 2), rat(2)]),
                           base=model.L_pair or (lambda n: ONE): base(n) + k),
        "base_limit": lambda: rng.choice([None, rat(-1, 2), ZERO, rat(1, 3), ONE,
                                          rat(11, 10), rat(2)]),
        "monotone_tails": lambda: not model.monotone_tails,
        "liminf_phi_nonneg": lambda: rng.choice([None, False, True]),
        "eps": lambda: rng.choice([lambda n: ZERO, lambda n: rat(n + 1),
                                   lambda n: rat(1, n + 1)]),
    }
    chosen = rng.sample(sorted(fields), rng.randint(1, 3))
    changes = {name: fields[name]() for name in chosen}
    if "eps" in changes:
        changes["ratio_tends_to_one"] = True
    return replace(model, **changes)


def _model_calls(rng, model, N):
    """(checker, args) on ``model`` truncated at N: the size-only checks,
    random and malformed subsequences, and epsilon assignments."""
    yield "thm43", (model, N)
    yield "thm310", (model, N)
    ns = model.n_seq(N) if model.is_sequence_model else N - 1
    for _ in range(3):
        yield "thm45", (model, sorted(rng.sample(range(1, ns + 1), rng.randint(1, ns))), N)
    yield "thm45", (model, range(2, ns + 1), N)
    subseq = sorted(rng.sample(range(1, ns + 1), min(ns, 3)))
    yield "thm45", (model, rng.choice([subseq[::-1], subseq + [ns + 1], [0] + subseq,
                                       subseq + [2.5]]), N)
    lo = 2 if model.base_aliases_p1 else 1
    eps = model.eps or (lambda n: rat(1, 10))
    listed = [eps(n) for n in range(lo, ns + 1)]
    yield "thm46", (model, eps, N)
    yield "thm46", (model, listed, N)
    yield "thm46", (model, listed[:-1], N)
    k = rng.randint(lo, max(lo, ns))
    yield "thm46", (model, lambda n: eps(n) + (rat(1, 100) if n == k else ZERO), N)
    yield "thm46", (model, lambda n: -ONE, N)


def _outcome(check, args):
    try:
        return check(*args)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


def _calls():
    rng = random.Random(SEED)
    for model in _models():
        for N in SIZES:
            space = truncate(model, N)
            for name, anchors in _space_calls(rng, space):
                yield name, (space,) + anchors
            yield from _model_calls(rng, model, N)
            for _ in range(2):
                yield from _model_calls(rng, _perturbed(rng, model), N)
        # declared tails on every model, one without sequence structure included
        with_tails = replace(model, L=ONE, L_pair=lambda n: ONE, liminf_phi_nonneg=True)
        yield "thm43", (with_tails, 6)
        yield "thm310", (with_tails, 6)
        # a size below the smallest truncation
        yield "thm43", (model, 1)
        yield "thm310", (model, 1)
        yield "thm45", (model, [2, 3], 1)
        yield "thm46", (model, model.eps or (lambda n: ZERO), 1)


def test_checkers_match_the_first_failure_oracle():
    reached = set()
    mismatches = []
    for name, args in _calls():
        got = _outcome(getattr(embeddings, f"check_{name}"), args)
        want = _outcome(getattr(oracle, f"check_{name}"), args)
        if got != want:
            mismatches.append((name, args, got, want))
        if isinstance(want, CheckResult):
            reached.add((name, want.clause or "pass"))
        else:
            reached.add((name, want[0].__name__))
    assert mismatches[:3] == []
    assert reached == REACHED
