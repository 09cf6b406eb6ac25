"""Builders and small oracles that only the tests use, moved out of the package.

No command, acceptance criterion or pipeline reaches these, so they live
here; ``tests/test_cli.py`` fails on a package name nothing in the package
reads and on a package import from outside the standard library, which keeps
them from moving back. Each is kept as it was in the package: the
piecewise-linear constructor and the paper's Example 6.2, the even
reflection, the point mass of the free space, the pointwise defect, the
pointwise sum and scalar multiple that fold into ``combine``'s oracle, and
the sign-pattern check of the sum-norm families. ``as_parts`` turns a
rational rule written for a test into the integer rule a model takes.
"""

from __future__ import annotations

from lipcheck.freespace import FreeElement, free_element
from lipcheck.lipfun import LipFn, combine, lip_norm, lipfn, pointwise_sup, slope
from lipcheck.metric import FiniteMetricSpace, PreconditionError
from lipcheck.plfun import PLFn
from lipcheck.rational import ONE, Rat, ZERO, rat


# ---------------------------------------------------------------------------
# Model rules


def as_parts(rule):
    """The rational rule ``rule`` as the integer rule a model takes: each
    call gives ``(num, den)`` of ``rule``'s value, in lowest terms."""

    def parts(*indices):
        x = rat(rule(*indices))
        return x.numerator, x.denominator

    return parts


# ---------------------------------------------------------------------------
# Piecewise-linear functions


def plfn(breakpoints, values, left_extension=True, right_extension=True, base=0) -> PLFn:
    return PLFn(
        tuple(rat(x) for x in breakpoints),
        tuple(rat(v) for v in values),
        left_extension,
        right_extension,
        rat(base),
    )


def gen_example62(K: int) -> PLFn:
    """Slope-1/2 head, then K ever-steeper risers separated by plateaus.

    The corner points t_k sit on y = x/2 and obey
    t_{k+1} = (t_k.x * 2^(-(k+1)), t_k.x * 2^(-(k+2))) from t_1 = (1, 1/2);
    each plateau left end is s_k = (t_k.x * (1/2 + 2^(-(k+1))), t_k.y),
    the factor forced by requiring the riser below it to have slope
    1 - 2^(-(k+1)). The norm is 1 - 2^(-(K+1)); the slope at 0 stays 1/2.
    """
    if K < 1:
        raise PreconditionError("needs K >= 1")
    tx, ty = ONE, rat(1, 2)
    t_pts = [(tx, ty)]
    s_pts = []
    for k in range(1, K + 1):
        delta = rat(1, 2 ** (k + 1))
        s_pts.append((tx * (rat(1, 2) + delta), ty))
        tx, ty = tx * delta, tx * delta / rat(2)
        t_pts.append((tx, ty))

    bps = [ZERO, t_pts[K][0]]
    vals = [ZERO, t_pts[K][1]]
    for k in range(K, 0, -1):
        bps.extend([s_pts[k - 1][0], t_pts[k - 1][0]])
        vals.extend([t_pts[k - 1][1], t_pts[k - 1][1]])
    return PLFn(tuple(bps), tuple(vals))


def symmetrize(f: PLFn) -> PLFn:
    """Even reflection of a function on [0, b] to [-b, b]."""
    if f.breakpoints[0] != ZERO or f.values[0] != ZERO:
        raise PreconditionError("symmetrize needs a function on [0, b] with f(0) = 0")
    bps = tuple(-x for x in reversed(f.breakpoints[1:])) + f.breakpoints
    vals = tuple(reversed(f.values[1:])) + f.values
    return PLFn(bps, vals, f.right_extension, f.right_extension)


# ---------------------------------------------------------------------------
# Free-space elements and Lipschitz functions


def delta(space: FiniteMetricSpace, p: int) -> FreeElement:
    return free_element(space, {p: ONE})


def defect(f: LipFn, p: int) -> Rat:
    """How far the norm exceeds what pairs through p can see; >= 0."""
    return lip_norm(f) - pointwise_sup(f, p)


def add(f: LipFn, g: LipFn) -> LipFn:
    if f.space.dist != g.space.dist:
        raise PreconditionError("cannot add functions on different spaces")
    return lipfn(f.space, tuple(a + b for a, b in zip(f.values, g.values)))


def scale(f: LipFn, c) -> LipFn:
    c = rat(c)
    return lipfn(f.space, tuple(c * v for v in f.values))


# ---------------------------------------------------------------------------
# Sign-pattern check for sum-norm families


def ell1_sign_check(family, coeffs, pair, require_strong: bool = False) -> bool:
    """Whether every supported member's slope along ``pair`` equals the
    coefficient's sign exactly.

    With ``require_strong`` the pair must realize the combined function's
    norm with positive slope, otherwise a precondition error is raised; by
    default the orientation is taken as given and the answer is a plain
    boolean, so a flipped coefficient simply reports False.
    """
    family = tuple(family)
    coeffs = tuple(rat(a) for a in coeffs)
    if len(coeffs) > len(family):
        raise PreconditionError("more coefficients than family members")
    u, v = pair
    f = combine(family, coeffs)
    if require_strong:
        norm = lip_norm(f)
        if slope(f, u, v) != norm or norm == ZERO:
            raise PreconditionError("pair does not strongly attain the norm")
    for i, a in enumerate(coeffs):
        if a == ZERO:
            continue
        want = ONE if a > ZERO else -ONE
        if slope(family[i], u, v) != want:
            return False
    return True
