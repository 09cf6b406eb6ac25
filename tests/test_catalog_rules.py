"""The catalog's closed-form rules against the Fraction builders they
replaced (``tests/model_oracle.py``), the truncations built from the rules'
integer view against the oracles' Fraction rows, and the Fraction count.

Each rewritten rule builds its value as one exact division of integers.
The oracle builders chain ``Fraction`` arithmetic as the paper writes each
form, so the two agree value for value or a rule is wrong.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest

import model_oracle
from lipcheck.metric import CATALOG_NAMES, catalog, integer_line, power_line, truncate
from lipcheck.rational import format_rat

N_GRID = 64

# Every ordered pair of sequence indices up to 64, the diagonal included,
# and a fixed sample of pairs up to 128.
_rng = random.Random(128)
PAIRS = [(n, m) for n in range(1, N_GRID + 1) for m in range(1, N_GRID + 1)] + [
    (_rng.randint(1, 128), _rng.randint(1, 128)) for _ in range(400)
]
INDICES = range(1, 129)

DMQR44_C = {"1": 1, "1/3": "1/3", "7/2": "7/2", "10**40": 10**40}
POWER_RATIOS = {"4": 4, "3/2": "3/2", "10/3": "10/3", "10**20": 10**20}

# (label, rewritten model, oracle model) for every builder whose rules changed.
REWRITTEN = [
    (name, lambda name=name: catalog(name), getattr(model_oracle, f"_{name}"))
    for name in ("prop24", "example33", "example35", "dmqr41", "example44", "example48")
] + [
    (f"dmqr44-c={k}", lambda c=c: catalog("dmqr44", c=c), lambda c=c: model_oracle._dmqr44(c))
    for k, c in DMQR44_C.items()
] + [
    (f"power_line-ratio={k}", lambda r=r: power_line(r), lambda r=r: model_oracle.power_line(r))
    for k, r in POWER_RATIOS.items()
]


@pytest.mark.parametrize("label, build, oracle", REWRITTEN, ids=[r[0] for r in REWRITTEN])
def test_rewritten_rules_equal_their_fraction_oracles(label, build, oracle):
    """``d_seq`` on every pair of the grid, ``d_base``, ``L_pair`` and
    ``eps`` on every index up to 128. The grid holds every pair a truncation
    at N=64 evaluates; the truncations themselves are pinned below."""
    new, old = build(), oracle()
    for field in ("base_parts", "L_pair", "eps"):
        assert (getattr(new, field) is None) == (getattr(old, field) is None), field
    reads = {
        "d_seq": lambda model: [model_oracle.d_seq(model, n, m) for n, m in PAIRS],
        "d_base": lambda model: [model_oracle.d_base(model, n) for n in INDICES],
        "L_pair": lambda model: model.L_pair and [model.L_pair(n) for n in INDICES],
        "eps": lambda model: model.eps and [model.eps(n) for n in INDICES],
    }
    for field, read in reads.items():
        got, want = read(new), read(old)
        assert got is None or all(type(x) is Fraction for x in got), field
        assert got == want, field


# The rewritten models and every model whose rules did not change, each
# against itself read through its Fraction values.
VIEWED = REWRITTEN + [
    (name, lambda name=name: _model(name), lambda name=name: _model(name))
    for name in ("discrete", "prop23", "thm51star", "prop53", "thm57", "integer_line")
]
# One seeded size past the grid for each model that has that many points.
_rng_n = random.Random(64128)
PAST_GRID = {label: _rng_n.randint(N_GRID + 1, 128) for label, _, _ in VIEWED}


def _oracle_scaled(rows):
    """``(A, D)`` of Fraction rows, D the LCM of the reduced denominators."""
    D = lcm(*{x.denominator for row in rows for x in row})
    return tuple(tuple(x.numerator * (D // x.denominator) for x in row) for row in rows), D


@pytest.mark.parametrize("label, build, oracle", VIEWED, ids=[r[0] for r in VIEWED])
def test_truncation_view_equals_the_oracle_rows(label, build, oracle):
    """``truncate(model, N)`` builds its space from the model's integer
    rule; its ``scaled`` and the ``dist`` read from it equal those of the
    oracle's Fraction rows at every N up to 64 and one seeded N up to 128.
    example35, example44 and dmqr44 give (num, den) not in lowest terms, so
    at some N of each the view's final gcd pass divides out a common factor;
    a truncation without that pass fails here on all six of them."""
    model, reference = build(), oracle()
    top = PAST_GRID[label]
    if model.max_points is not None and top > model.max_points:
        top = N_GRID
    full = [[model_oracle.row_dist(reference, i, j) for j in range(top)] for i in range(top)]
    for N in [*range(2, N_GRID + 1), top]:
        rows = tuple(tuple(row[:N]) for row in full[:N])
        space = truncate(model, N)
        assert space.scaled == _oracle_scaled(rows), N
        assert "dist" not in vars(space)
        assert space.dist == rows, N


def _digest(space) -> str:
    text = ";".join(",".join(format_rat(x) for x in row) for row in space.dist)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each truncation's distances at N=64 (rows joined by ";", entries
# by ",", in canonical form), frozen from the Fraction-chaining builders, so
# every catalog model and both lines keep their dist tuples.
TRUNCATION_DIGESTS = {
    "discrete": "9daceba7bb3eb2551f28b8db1f4f55d3c877a72ce49cf2358ed69d4528354d97",
    "dmqr41": "c8fd51b2aa72909fbc2ad8083960b8b81c7e5733861e390fb169a5e4ba564ac2",
    "dmqr44": "5d7ee390c1b87fac8ce46a8ccce5f9189b7aa785b91735ee4051401247d66d76",
    "example33": "6018fae43e6dfcd75a7730d868ba2732b047187360ebac6b9821f9e186bd28f7",
    "example35": "fbabcd2c6c0efa25c0fc7a77d7f2d967add34582b4f5a48f70e9e2592205861b",
    "example44": "ad69b8dbb8717100aa1b16cc24e98773baa0a4cbd122c494f3e5103c703ee2cd",
    "example48": "c6532d03eb2c52684fec5f9b4fef3a9f6c148b3bfe2a43eab137749effffe8dc",
    "prop23": "98a03ede1e9e88beb34dd35627528b4825b9217a9d3526486bccc66613c95470",
    "prop24": "1f6da5442c7a7075f2ff12e5ff70f098a7f55ef6a52bad6efab4de88890f660e",
    "prop53": "9daceba7bb3eb2551f28b8db1f4f55d3c877a72ce49cf2358ed69d4528354d97",
    "thm51star": "f774040a82a80f6dd10cfa57ca8ede3865ee5e0385f222e225bfd432f90b717a",
    "thm57": "78c0aef91731572913fb465c1a09b716c6cb353ae3275288961e59d0754f5bc0",
    "integer_line": "d8a573aa9a9c08924b8fe548317dc6db7b93648de0b4480206de78f2cd106211",
    "power_line": "09ef29f0b8ce93247860ae8e533d01f8108889d63e2a06563d32683c693d895d",
}


def _model(name):
    if name == "integer_line":
        return integer_line()
    if name == "power_line":
        return power_line()
    return catalog(name)


def test_truncation_digests_cover_the_catalog():
    assert set(TRUNCATION_DIGESTS) == set(CATALOG_NAMES) | {"integer_line", "power_line"}


@pytest.mark.parametrize("name", sorted(TRUNCATION_DIGESTS))
def test_truncation_at_64_points_is_unchanged(name):
    assert _digest(truncate(_model(name), N_GRID)) == TRUNCATION_DIGESTS[name]


@pytest.mark.parametrize("name, before", [
    *((name, N_GRID * (N_GRID - 1)) for name in (
        "prop24", "example33", "example35", "dmqr41", "example44", "example48",
        "dmqr44", "power_line", "integer_line",
    )),
    *((name, 0) for name in ("discrete", "prop23", "prop53", "thm51star", "thm57")),
])
def test_truncation_builds_at_most_one_fraction_per_rule_call(name, before, monkeypatch):
    """A truncation at N=64 calls its integer rule on the N(N-1) = 4,032
    ordered pairs off the diagonal and builds its space from the view, and
    validation builds no Fraction on a passing space: none at all. ``before``
    is the bound this test held while each rule call built one Fraction."""
    model = _model(name)
    count = [0]
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    space = truncate(model, N_GRID)
    monkeypatch.undo()
    assert space.n_points == N_GRID
    assert count[0] == 0
