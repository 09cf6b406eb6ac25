"""Finite pieces of geodesic trees and the embedding route for them.

A weighted tree induces a path-length metric on its vertices. This module
builds those metrics, decides the four-point condition that characterises
them, and computes the structural data the embedding route needs: branching
points, cut components and an aligned chain.

The pipeline at the bottom takes a tree-like space and produces a spike
family: the table's prop31 construction on the anchors it selects, built by
``embeddings.assemble_family`` and checked by ``embeddings.verify_standard``.
It picks the anchors by one of two routes:

* ``hub-bumps``: some point disconnects the space into at least
  ``HUB_COMPONENT_THRESHOLD`` pieces. Each piece contributes a spike at its
  closest point, all sharing the hub as partner.
* ``aligned-chain``: otherwise the space is path-like. A greedy walk from
  the base builds an aligned sequence; every other chain point gets a spike,
  partnered with its nearest chain neighbour.

Either way the selected (point, partner) pairs must pass the bump-family
hypothesis check before anything is built; a failure is reported as a
structured refusal naming the check, never as a silently degraded family.

The four-point check scans the space's integer view ``A / D``
(:attr:`~lipcheck.metric.FiniteMetricSpace.scaled`): pair sums and their
comparisons are integer operations, exact because ``D > 0``. It scans only
the quadruples through row 0, by the base-point lemma: if the condition
holds on every quadruple through one fixed point, it holds on all of them
(Gromov's lemma with delta = 0; Bridson and Haefliger, Metric Spaces of
Non-Positive Curvature, Prop. III.H.1.22; Buneman 1974). The quadruples
through row 0 come first in lexicographic order, so the first failing one
among them is the first failing one overall, and the witness is the one
the full scan names. That is C(n-1, 3) quadruples instead of C(n, 4).
Fractions are built only at the API boundary: a failing quadruple's three
sums. ``tree_metric`` builds the view itself, growing each distance row
from the parent's row over edge lengths lifted to one denominator, and
builds the space from it, so a passing four-point check on a tree metric
builds no Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rational import Rat, ZERO, format_rat, rat
from .metric import (
    CheckResult,
    FiniteMetricSpace,
    LipcheckError,
    StructureError,
    as_index,
    common_denominator,
)
from .embeddings import (
    BuiltFamily,
    FamilySpec,
    VerificationReport,
    assemble_family,
    check_prop31,
    verify_standard,
)

# Minimum number of components a single cut point must produce before the
# pipeline takes the hub route. The idealised statement asks for infinitely
# many pieces; at finite scale this threshold stands in for "many".
HUB_COMPONENT_THRESHOLD = 3


class TreeRefusal(LipcheckError):
    """Raised when the tree pipeline declines to build a family.

    Carries the failed CheckResult so callers can see exactly which
    hypothesis broke and at which points.
    """

    def __init__(self, check: CheckResult):
        super().__init__(
            f"tree pipeline refused: check {check.name!r} clause "
            f"{check.clause!r} failed at {check.witness_indices}"
        )
        self.check = check


# ---------------------------------------------------------------------------
# Weighted trees


@dataclass(frozen=True)
class WeightedTree:
    """A tree on vertices 0..n-1 with positive rational edge lengths.

    Instances are expected to come from :func:`weighted_tree`, which
    validates connectivity and acyclicity; the dataclass itself stores
    already-checked data.
    """

    n_vertices: int
    edges: tuple  # ((u, v, length), ...)
    base: int = 0


def weighted_tree(n_vertices: int, edges, base: int = 0) -> WeightedTree:
    """Validate and build a WeightedTree.

    Requires exactly n-1 edges forming a connected acyclic graph, with
    strictly positive rational lengths. Edge endpoints may come in either
    order; duplicates (in either orientation) are rejected. The vertex
    count, the base and the endpoints must be integers: 1.7 is refused,
    not read as 1.
    """
    n_vertices = as_index(n_vertices, "vertex count", StructureError)
    base = as_index(base, "base vertex", StructureError)
    if n_vertices < 1:
        raise StructureError("a tree needs at least one vertex")
    if not 0 <= base < n_vertices:
        raise StructureError(f"base vertex {base} out of range")
    norm_edges = []
    seen = set()
    for entry in edges:
        try:
            u, v, w = entry
        except (TypeError, ValueError):
            raise StructureError(f"edge {entry!r} is not (u, v, length)") from None
        u = as_index(u, "edge endpoint", StructureError)
        v = as_index(v, "edge endpoint", StructureError)
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise StructureError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise StructureError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise StructureError(f"duplicate edge between {key[0]} and {key[1]}")
        seen.add(key)
        try:
            length = rat(w)
        except (TypeError, ValueError) as exc:
            raise StructureError(f"edge ({u}, {v}) length: {exc}") from None
        if length <= ZERO:
            raise StructureError(
                f"edge ({u}, {v}) has non-positive length {format_rat(length)}"
            )
        norm_edges.append((u, v, length))
    if len(norm_edges) != n_vertices - 1:
        raise StructureError(
            f"a tree on {n_vertices} vertices needs {n_vertices - 1} edges, "
            f"got {len(norm_edges)}"
        )
    # n-1 edges and connected together force acyclicity.
    reached = {0}
    frontier = [0]
    adj = _adjacency(n_vertices, norm_edges)
    while frontier:
        x = frontier.pop()
        for y, _ in adj[x]:
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    if len(reached) != n_vertices:
        missing = min(set(range(n_vertices)) - reached)
        raise StructureError(f"tree is disconnected: vertex {missing} unreachable")
    return WeightedTree(n_vertices, tuple(norm_edges), base)


def _adjacency(n_vertices: int, edges):
    adj = [[] for _ in range(n_vertices)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _vertex_order(tree: WeightedTree):
    """Canonical row order for the induced metric: base first, the rest
    ascending by vertex id."""
    return [tree.base] + [v for v in range(tree.n_vertices) if v != tree.base]


def tree_metric(tree: WeightedTree) -> FiniteMetricSpace:
    """Path-length metric of a weighted tree as a FiniteMetricSpace.

    Row 0 is the tree's base vertex; the remaining vertices follow in
    ascending id order. Labels keep the original vertex ids. The distances
    are integer sums of the edge lengths lifted over their LCM, and the
    space is built from that integer view.
    """
    n = tree.n_vertices
    D, mult = common_denominator(w for _, _, w in tree.edges)
    order = _vertex_order(tree)
    pos = {v: i for i, v in enumerate(order)}
    adj = _adjacency(n, [(pos[u], pos[v], w.numerator * mult[w.denominator])
                         for u, v, w in tree.edges])

    # One search from the base (row 0). A vertex y reached over the edge
    # (x, y) of length w is w further than x from every vertex reached
    # before it, since none of those lies beyond y; so every distance
    # between reached vertices is known once both are reached.
    A = [[0] * n for _ in range(n)]
    reached = [0]
    seen = [False] * n
    seen[0] = True
    for x in reached:
        Ax = A[x]
        for y, w in adj[x]:
            if seen[y]:
                continue
            seen[y] = True
            Ay = A[y]
            for z in reached:
                Ay[z] = A[z][y] = Ax[z] + w
            reached.append(y)

    # Every edge length is itself a distance in lowest terms, so no prime
    # power of D, the LCM of the edges' denominators, divides every entry:
    # the view is already the least one.
    return FiniteMetricSpace(
        (tuple(map(tuple, A)), D), tuple(f"v{v}" for v in order), name=f"tree{n}"
    )


def branching_points(tree: WeightedTree):
    """Vertices of degree at least 3, ascending."""
    degree = [0] * tree.n_vertices
    for u, v, _ in tree.edges:
        degree[u] += 1
        degree[v] += 1
    return tuple(v for v in range(tree.n_vertices) if degree[v] >= 3)


# ---------------------------------------------------------------------------
# Metric structure


def four_point_check(space: FiniteMetricSpace) -> CheckResult:
    """Decide the four-point condition.

    For every quadruple, of the three ways to split it into two pairs the
    two largest pair-distance sums must agree. Tree metrics always satisfy
    this; a cycle breaks it. Fewer than four points pass vacuously. The
    witness is the lexicographically first violating quadruple with all
    three pairing sums.

    Only the quadruples (0, q, r, s) are scanned. By the base-point lemma
    (Gromov's lemma with delta = 0; Bridson and Haefliger, Prop.
    III.H.1.22), if every quadruple through one point passes, every
    quadruple passes. So if any quadruple fails, one through row 0 fails,
    and since those come before all others in lexicographic order, the
    first failing one is the lexicographically first overall.
    """
    A, D = space.scaled
    n = len(A)
    if n < 4:
        return CheckResult(True, "four-point")
    A0 = A[0]
    for q in range(1, n):
        Aq, a_pq = A[q], A0[q]
        for r in range(q + 1, n):
            Ar, a_pr, a_qr = A[r], A0[r], Aq[r]
            for s in range(r + 1, n):
                s1 = a_pq + Ar[s]
                s2 = a_pr + Aq[s]
                s3 = A0[s] + a_qr
                top = max(s1, s2, s3)
                if (s1, s2, s3).count(top) < 2:
                    return CheckResult(
                        False, "four-point", "quadruple", (0, q, r, s),
                        (Rat(s1, D), Rat(s2, D), Rat(s3, D)),
                    )
    return CheckResult(True, "four-point")


def _aligned_triple(space, a, b, c) -> bool:
    return space.d(a, c) == space.d(a, b) + space.d(b, c)


def _split_components(space: FiniteMetricSpace, rows, cut: int):
    """Partition ``rows`` by the relation "the cut point does not lie
    strictly between": in a tree metric these are the pieces left after
    removing the cut point.

    Components come back sorted internally and ordered by smallest member.
    """
    rows = [r for r in rows if r != cut]
    parent = {r: r for r in rows}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if space.d(a, cut) + space.d(cut, b) != space.d(a, b):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    groups = {}
    for r in rows:
        groups.setdefault(find(r), []).append(r)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def _best_hub(space: FiniteMetricSpace):
    """The row whose removal leaves the most components (tie: lowest row)."""
    n = space.n_points
    best_row, best_count = 0, 0
    for p in range(n):
        count = len(_split_components(space, range(n), p))
        if count > best_count:
            best_row, best_count = p, count
    return best_row, best_count


def _greedy_chain(space: FiniteMetricSpace):
    """Walk from the base, always descending into the largest remaining
    component and stepping to its closest point.

    On a tree metric each step extends an aligned sequence: everything in
    the chosen component lies behind the current point, so the previous
    point, the current one and the next are collinear.
    """
    n = space.n_points
    chain = [0]
    region = set(range(1, n))
    current = 0
    while region:
        comps = _split_components(space, sorted(region), current)
        # Largest component first; ties go to the one with the lowest row.
        comp = sorted(comps, key=lambda c: (-len(c), c[0]))[0]
        nxt = min(comp, key=lambda r: (space.d(current, r), r))
        chain.append(nxt)
        region = set(comp) - {nxt}
        current = nxt
    return chain


def _chain_pairs(space: FiniteMetricSpace, chain):
    """The bump anchors read off an aligned chain: every other chain point,
    each partnered with its nearest chain neighbour (ties toward the start).

    The chain begins at the base point, which cannot anchor a member of a
    vanishing-at-base family, so position 0 is always skipped; the family
    in the idealised statement is infinite and loses nothing by it.
    """
    points, partners = [], []
    for pos in range(2, len(chain), 2):
        p = chain[pos]
        if p == 0:
            continue
        left = chain[pos - 1]
        if pos + 1 < len(chain):
            right = chain[pos + 1]
            if space.d(p, right) < space.d(p, left):
                partners.append(right)
            else:
                partners.append(left)
        else:
            partners.append(left)
        points.append(p)
    return tuple(points), tuple(partners)


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class TreeFamilyResult:
    """Outcome of the tree pipeline: which route it took, the structural
    data behind the anchor choice, and the verified family."""

    case: str  # "hub-bumps" | "aligned-chain"
    hub: Optional[int]
    chain: tuple
    points: tuple
    partners: tuple
    check: CheckResult
    family: BuiltFamily
    report: VerificationReport

    def __iter__(self):
        yield self.family
        yield self.report


def tree_c0_pipeline(space: FiniteMetricSpace, tree: Optional[WeightedTree] = None,
                     vertex_rows: Optional[dict] = None) -> TreeFamilyResult:
    """Build and verify a spike family on a tree-like space.

    Preconditions, each refused with the failing check attached:

    * the space satisfies the four-point condition;
    * when the generating ``tree`` is supplied, every branching point is
      present in the space (rows are assumed to follow tree_metric's
      canonical order unless ``vertex_rows`` maps vertex ids to rows);
    * the selected anchors pass the bump-family hypothesis check
      (partner at minimal positive distance, pairwise separation).

    Route selection: if some point cuts the space into at least
    ``HUB_COMPONENT_THRESHOLD`` pieces the hub route runs, otherwise the
    chain route.
    The verification report covers the standard coefficient battery under
    the sup-norm target with exact attainment expected.
    """
    fp = four_point_check(space)
    if not fp.ok:
        raise TreeRefusal(fp)

    if tree is not None:
        if vertex_rows is None:
            order = _vertex_order(tree)
            vertex_rows = {v: i for i, v in enumerate(order) if i < space.n_points}
        for b in branching_points(tree):
            if b not in vertex_rows:
                raise TreeRefusal(CheckResult(
                    False, "tree-pipeline", "branching-points", (b,), ()
                ))

    n = space.n_points
    hub, count = _best_hub(space)
    if count >= HUB_COMPONENT_THRESHOLD:
        case = "hub-bumps"
        chain = ()
        points, partners = [], []
        for comp in _split_components(space, range(n), hub):
            closest = min(comp, key=lambda r: (space.d(hub, r), r))
            if closest == 0:
                # The base cannot anchor a member; the other components
                # still make up the family.
                continue
            points.append(closest)
            partners.append(hub)
        points, partners = tuple(points), tuple(partners)
    else:
        case = "aligned-chain"
        chain = tuple(_greedy_chain(space))
        for i in range(len(chain) - 2):
            a, b, c = chain[i], chain[i + 1], chain[i + 2]
            if not _aligned_triple(space, a, b, c):
                raise TreeRefusal(CheckResult(
                    False, "tree-pipeline", "aligned-chain", (a, b, c),
                    (space.d(a, c), space.d(a, b) + space.d(b, c)),
                ))
        points, partners = _chain_pairs(space, chain)

    if not points:
        raise TreeRefusal(CheckResult(
            False, "tree-pipeline", "no-usable-members", (case,), ()
        ))

    check = check_prop31(space, points, partners)
    if not check.ok:
        raise TreeRefusal(check)

    built = assemble_family(FamilySpec("prop31", space, anchors=(points, partners)), check)
    return TreeFamilyResult(
        case=case,
        hub=hub if case == "hub-bumps" else None,
        chain=chain,
        points=points,
        partners=partners,
        check=check,
        family=built,
        report=verify_standard(built),
    )
