"""The catalog builders of ``lipcheck.metric`` whose rules chained
``Fraction`` arithmetic, before each rule became one exact division, and
the model's Fraction reads that sequence views of the truncation replaced.

Kept as a differential oracle: every rule here adds, subtracts, divides or
raises ``Fraction``s as the paper writes it, so a rewritten rule that drops
a term or shifts an exponent disagrees with its builder here. A model takes
integer rules, so each rule is handed over through ``as_parts``, which
gives its value's numerator and denominator in lowest terms; a truncation
that reduces a rule's ``(num, den)`` wrongly disagrees with these too. Each
builder returns a ``MetricModel`` that ``truncate`` accepts.

``row_dist``, ``row_seq``, ``d_seq``, ``d_base``, ``phi``, ``psi`` and
``_model_nodes`` are the ``MetricModel`` methods and the orbit rules' node
loop that read a model's rules one Fraction at a time, kept verbatim as
functions of the model: the closed forms the oracles compare against.
"""

from __future__ import annotations

from builders import as_parts
from lipcheck.metric import MetricModel, ModelError, PreconditionError, _seq_model
from lipcheck.rational import ONE, Rat, ZERO, rat


def row_dist(model: MetricModel, i: int, j: int) -> Rat:
    return ZERO if i == j else Rat(*model.row_parts(i, j))


def row_seq(model: MetricModel, r: int) -> int:
    model.need_sequence()
    if not model.base_aliases_p1 and r == 0:
        raise PreconditionError("row 0 is the base point, not a sequence point")
    return r + 1 if model.base_aliases_p1 else r


def d_seq(model: MetricModel, n: int, m: int) -> Rat:
    model.need_sequence()
    if n == m:
        return ZERO
    return Rat(*model.seq_parts(n, m))


def d_base(model: MetricModel, n: int) -> Rat:
    """d(0, p_n) in sequence indexing."""
    model.need_sequence()
    if model.base_aliases_p1:
        return ZERO if n == 1 else Rat(*model.seq_parts(1, n))
    return Rat(*model.base_parts(n))


def phi(model: MetricModel, n: int, m: int) -> Rat:
    model.need_tails()
    return d_seq(model, n, m) - model.L


def psi(model: MetricModel, n: int) -> Rat:
    model.need_tails()
    return model.L_pair(n) - model.L


def _model_nodes(model: MetricModel, ns: int):
    """Node keys and closed-form distance for a model-backed rule loop.

    Node 0 stands for a separate base point; alias models use sequence
    index 1 directly (its family value is always zero)."""
    if model.base_aliases_p1:
        nodes = tuple(range(1, ns + 1))
    else:
        nodes = (0,) + tuple(range(1, ns + 1))

    def dist(u, v):
        if u == 0:
            return d_base(model, v)
        if v == 0:
            return d_base(model, u)
        return d_seq(model, u, v)

    def row_of(node):
        return 0 if node == 0 else model.seq_row(node)

    return nodes, dist, row_of


def _prop24() -> MetricModel:
    # Points 1/2^{n^2} on the line accumulating at the base point 0.
    def x(n):
        return rat(1, 2 ** (n * n))

    return _seq_model(
        "prop24",
        {},
        seq_parts=as_parts(lambda n, m: x(min(n, m)) - x(max(n, m))),
        base_parts=as_parts(x),
        L_pair=x,
        L=ZERO,
        base_limit=ZERO,
        env_phi=lambda s: x(s),
        env_psi=lambda s: x(s),
        env_dev=lambda n, s: x(s),
        monotone_tails=True,
        liminf_phi_nonneg=True,
        uniformly_discrete=False,
    )


def _example33() -> MetricModel:
    return _seq_model(
        "example33",
        {},
        seq_parts=as_parts(lambda n, m: ONE + rat(1, min(n, m))),
        L_pair=lambda n: ONE + rat(1, n),
        L=ONE,
        env_phi=lambda s: rat(1, s),
        env_psi=lambda s: rat(1, s),
        # For m > n, phi(n, m) = 1/n = psi(n), so the deviation vanishes.
        env_dev=lambda n, s: ZERO,
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _example35() -> MetricModel:
    return _seq_model(
        "example35",
        {},
        seq_parts=as_parts(lambda n, m: ONE + rat(1, n) + rat(1, m)),
        base_parts=as_parts(lambda n: ONE + rat(1, n)),
        L_pair=lambda n: ONE + rat(1, n),
        L=ONE,
        base_limit=ONE,
        env_phi=lambda s: rat(2, s),
        env_psi=lambda s: rat(1, s),
        env_dev=lambda n, s: rat(1, s),
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _dmqr41() -> MetricModel:
    return _seq_model(
        "dmqr41",
        {},
        seq_parts=as_parts(lambda n, m: ONE + rat(1, max(n, m))),
        L_pair=lambda n: ONE,
        L=ONE,
        env_phi=lambda s: rat(1, s + 1),
        env_psi=lambda s: ZERO,
        env_dev=lambda n, s: rat(1, s),
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _example44() -> MetricModel:
    half = rat(1, 2)
    return _seq_model(
        "example44",
        {},
        seq_parts=as_parts(lambda n, m: ONE + rat(1, n + m)),
        base_parts=as_parts(lambda n: half + rat(1, n)),
        L_pair=lambda n: ONE,
        L=ONE,
        base_limit=half,
        env_phi=lambda s: rat(1, 2 * s + 1),
        env_psi=lambda s: ZERO,
        env_dev=lambda n, s: rat(1, n + s),
        monotone_tails=True,
        liminf_phi_nonneg=True,
    )


def _example48() -> MetricModel:
    two = rat(2)

    def srule(n, m):
        lo, hi = min(n, m), max(n, m)
        return two - rat(1, 3 ** lo) - rat(2, 3 ** hi)

    return _seq_model(
        "example48",
        {},
        seq_parts=as_parts(srule),
        L_pair=lambda n: two - rat(1, 3 ** n),
        L=two,
        env_phi=lambda s: rat(5, 3 ** (s + 1)),
        env_psi=lambda s: rat(1, 3 ** s),
        env_dev=lambda n, s: rat(2, 3 ** s),
        monotone_tails=True,
        # phi(n, m) < 0 everywhere but tends to 0, so the liminf is 0.
        liminf_phi_nonneg=True,
    )


def _dmqr44(c) -> MetricModel:
    c = rat(c)
    if c <= ZERO:
        raise ModelError("dmqr44 needs c > 0 so that eps_n stays inside ]0, 1/2[")

    def eps(n):
        return rat(n) / (2 * (rat(n) + c))

    def srule(n, m):
        return rat(n + m) - eps(max(n, m))

    return _seq_model(
        "dmqr44",
        {"c": c},
        seq_parts=as_parts(srule),
        base_parts=as_parts(lambda n: rat(n)),
        eps=eps,
        bounded=False,
        # residual 1 - (g_n + g_m)/d = eps_min/(n + m - eps_max) -> 0
        ratio_tends_to_one=True,
    )


def power_line(ratio=4) -> MetricModel:
    """Points ratio^i on the line, i >= 0, base at ratio^0. Not a catalog entry."""
    ratio = rat(ratio)
    if ratio <= ONE:
        raise ModelError("power_line needs ratio > 1")

    def srule(n, m):
        a = ratio ** (n - 1)
        b = ratio ** (m - 1)
        return a - b if a > b else b - a

    return _seq_model(
        "power_line",
        {"ratio": ratio},
        seq_parts=as_parts(srule),
        bounded=False,
    )
