"""The Fraction kernels of ``lipcheck.plfun`` that the integer view replaced.

Kept verbatim as a differential oracle: the segment-slope norm, the
pointwise sup that evaluates every partner breakpoint with ``pl_eval`` and
samples each segment's midpoint to check monotonicity, the tent sum that
evaluates every tent at every breakpoint of the union, and the
classification that reads them. The classification is the package's only
attainment taxonomy of a PL function: no command reads one, so it is not in
``lipcheck.plfun``. ``pl_eval`` is looked up in this module, so a test can
swap in another evaluation.

The midpoint check raises a Fraction division by zero when x is the
midpoint of a segment (its sample lands on x), so these oracles are
compared only at points that are not segment midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from lipcheck.metric import LipcheckError, PreconditionError
from lipcheck.plfun import PLFn, gen_tents, pl_eval
from lipcheck.rational import Rat, ZERO, ONE, rat


@dataclass(frozen=True)
class AttainmentFlags:
    sna: bool
    pna_points: tuple
    der_points: tuple
    ldira_points: tuple


def segment_slopes(f: PLFn):
    return [
        (f.values[i + 1] - f.values[i]) / (f.breakpoints[i + 1] - f.breakpoints[i])
        for i in range(len(f.breakpoints) - 1)
    ]


def pl_norm(f: PLFn) -> Rat:
    """Largest absolute segment slope; a single breakpoint gives 0."""
    best = ZERO
    for s in segment_slopes(f):
        if s < ZERO:
            s = -s
        if s > best:
            best = s
    return best


def pl_pointwise_sup(f: PLFn, x) -> Rat:
    """Largest |slope| from x to any other point, computed over breakpoints.

    Restricting partners to breakpoints is sound because the slope from a
    fixed x, as the partner moves along one linear segment, is monotone;
    a midpoint sample checks that on each segment and raises LipcheckError
    if it fails.
    Constant extensions only shrink quotients past the end breakpoints.
    """
    x = rat(x)
    bps = f.breakpoints
    if x < bps[0] or x > bps[-1]:
        raise PreconditionError("x outside the function's domain")
    fx = pl_eval(f, x)

    def quot(q):
        return (pl_eval(f, q) - fx) / (q - x)

    best = ZERO
    for q in bps:
        if q == x:
            continue
        s = quot(q)
        if s < ZERO:
            s = -s
        if s > best:
            best = s
    for i in range(len(bps) - 1):
        a, b = bps[i], bps[i + 1]
        if a == x or b == x:
            continue
        qa, qb, qm = quot(a), quot(b), quot((a + b) / rat(2))
        lo, hi = (qa, qb) if qa <= qb else (qb, qa)
        if not lo <= qm <= hi:
            raise LipcheckError("segment monotonicity violated")
    return best


def classify(f: PLFn) -> AttainmentFlags:
    """Attainment taxonomy of a finite PL function.

    Finite PL functions always strongly attain (the endpoints of a
    maximal-slope segment witness it). A one-sided derivative at a
    breakpoint is the adjacent segment slope, so the derivative and
    locally-directional flags are read off the same slope list.
    """
    norm = pl_norm(f)
    slopes = segment_slopes(f)
    bps = f.breakpoints

    pna = tuple(b for b in bps if pl_pointwise_sup(f, b) == norm)

    der = []
    ldira = set()
    for i, s in enumerate(slopes):
        mag = -s if s < ZERO else s
        if mag == norm:
            der.append((bps[i], "right"))
            der.append((bps[i + 1], "left"))
            ldira.add(bps[i])
            ldira.add(bps[i + 1])
    return AttainmentFlags(
        sna=True,
        pna_points=pna,
        der_points=tuple(sorted(der)),
        ldira_points=tuple(sorted(ldira)),
    )


def tent_sum(a) -> PLFn:
    """Sum of a_n times the n-th tent; supports are pairwise disjoint."""
    coeffs = [rat(c) for c in a]
    tents = [gen_tents(n) for n in range(1, len(coeffs) + 1)]
    cuts = {ZERO, ONE}
    for t in tents:
        cuts.update(t.breakpoints)
    bps = tuple(sorted(cuts))
    vals = []
    for x in bps:
        total = ZERO
        for c, t in zip(coeffs, tents):
            total += c * pl_eval(t, x)
        vals.append(total)
    return PLFn(bps, tuple(vals))
