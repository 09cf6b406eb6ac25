import random

import pytest
from hypothesis import given, settings, strategies as st

from lipcheck.metric import StructureError, make_space, validate
from lipcheck.rational import ONE, ZERO, rat
from lipcheck.rtree import (
    TreeRefusal,
    branching_points,
    four_point_check,
    tree_c0_pipeline,
    tree_metric,
    weighted_tree,
)


def unit_path(n):
    return weighted_tree(n, [(i, i + 1, 1) for i in range(n - 1)])


def unit_star(n_leaves):
    return weighted_tree(n_leaves + 1, [(0, i, 1) for i in range(1, n_leaves + 1)])


def caterpillar():
    # Spine 0-1-2-3-4 with one pendant leaf on each interior spine vertex.
    return weighted_tree(
        8,
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 5, 1), (2, 6, 1), (3, 7, 1)],
    )


def four_cycle_space():
    # Unit square with the cycle metric: sides 1, diagonals 2. Not a tree.
    return make_space(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], name="cycle4"
    )


def random_tree(rng, n, unit=True):
    edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        length = 1 if unit else rat(rng.randint(1, 8), rng.randint(1, 4))
        edges.append((parent, i, length))
    return weighted_tree(n, edges)


# ---------------------------------------------------------------------------
# WeightedTree construction


def test_weighted_tree_validation():
    weighted_tree(1, [])
    with pytest.raises(StructureError):
        weighted_tree(0, [])
    with pytest.raises(StructureError):
        weighted_tree(3, [(0, 1, 1)])  # wrong edge count
    with pytest.raises(StructureError):
        weighted_tree(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])  # cycle, 3 unreachable
    with pytest.raises(StructureError):
        weighted_tree(2, [(0, 0, 1)])
    with pytest.raises(StructureError):
        weighted_tree(3, [(0, 1, 1), (1, 0, 1)])  # duplicate, reversed
    with pytest.raises(StructureError):
        weighted_tree(2, [(0, 1, 0)])  # zero length
    with pytest.raises(StructureError):
        weighted_tree(2, [(0, 1, 1)], base=2)


def test_non_integer_tree_indices_are_named_not_truncated():
    with pytest.raises(StructureError, match="edge endpoint 1.7 is not an integer"):
        weighted_tree(3, [(0, 1.7, 1), (1, 2, 1)])
    with pytest.raises(StructureError, match="vertex count 3.9 is not an integer"):
        weighted_tree(3.9, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(StructureError, match="base vertex 2.2 is not an integer"):
        weighted_tree(3, [(0, 1, 1), (1, 2, 1)], base=2.2)


# ---------------------------------------------------------------------------
# Induced metric


def test_path_metric_distances():
    sp = tree_metric(unit_path(3))
    assert sp.dist[0][2] == rat(2)
    assert sp.dist[0][1] == ONE
    assert validate(sp).passed


def test_star_metric_distances():
    sp = tree_metric(unit_star(3))
    assert sp.dist[1][2] == rat(2)
    assert sp.dist[0][3] == ONE
    assert validate(sp).passed


def test_weighted_path_accumulates_lengths():
    t = weighted_tree(4, [(0, 1, rat(1, 2)), (1, 2, rat(1, 3)), (2, 3, 2)])
    sp = tree_metric(t)
    assert sp.dist[0][3] == rat(1, 2) + rat(1, 3) + 2
    assert sp.dist[1][3] == rat(1, 3) + 2


def test_nonzero_base_goes_first():
    t = weighted_tree(6, [(0, i, 1) for i in range(1, 6)], base=3)
    sp = tree_metric(t)
    assert sp.labels == ("v3", "v0", "v1", "v2", "v4", "v5")
    # Row 0 is the base leaf; row 1 is the hub.
    assert sp.dist[0][1] == ONE
    assert sp.dist[0][2] == rat(2)


# ---------------------------------------------------------------------------
# Four-point condition


def test_tree_metric_passes_four_point():
    for t in (unit_path(6), unit_star(5), caterpillar()):
        assert four_point_check(tree_metric(t)).ok


def test_four_cycle_fails_four_point():
    res = four_point_check(four_cycle_space())
    assert not res.ok
    assert res.witness_indices == (0, 1, 2, 3)
    # Pairing sums: opposite sides twice, then the diagonal pairing.
    assert res.witness_values == (rat(2), rat(4), rat(2))


def test_four_point_vacuous_below_four_points():
    sp = make_space([[0, 1, 5], [1, 0, 5], [5, 5, 0]])
    assert four_point_check(sp).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_tree_metrics_pass_four_point(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    sp = tree_metric(random_tree(rng, n, unit=False))
    assert validate(sp).passed
    assert four_point_check(sp).ok


# ---------------------------------------------------------------------------
# Branching points


def test_branching_points():
    assert branching_points(unit_path(6)) == ()
    assert branching_points(unit_star(4)) == (0,)
    assert branching_points(caterpillar()) == (1, 2, 3)


# ---------------------------------------------------------------------------
# Pipeline routing


def test_pipeline_star_takes_hub_route():
    res = tree_c0_pipeline(tree_metric(unit_star(7)))
    assert res.case == "hub-bumps"
    assert res.hub == 0
    assert res.points == tuple(range(1, 8))
    assert res.partners == (0,) * 7
    assert res.family.size == 7
    assert res.report.exact_pass and res.report.expectation_pass
    assert res.report.worst_defect == ZERO
    fam, rep = tuple(res)
    assert fam is res.family and rep is res.report


def test_pipeline_path_takes_chain_route():
    sp = tree_metric(unit_path(10))
    res = tree_c0_pipeline(sp)
    assert res.case == "aligned-chain"
    assert res.hub is None
    assert res.chain == tuple(range(10))
    assert res.points == (2, 4, 6, 8)
    assert res.partners == (1, 3, 5, 7)
    assert res.report.exact_pass and res.report.expectation_pass


def test_pipeline_chain_partners_a_closer_right_neighbour():
    # Path 0-1-2-3 with edges 5, 5, 1: anchor 2 is nearer its right
    # neighbour 3 than its left neighbour 1, so 3 is its partner.
    t = weighted_tree(4, [(0, 1, 5), (1, 2, 5), (2, 3, 1)])
    res = tree_c0_pipeline(tree_metric(t), tree=t)
    assert res.case == "aligned-chain"
    assert res.chain == (0, 1, 2, 3)
    assert res.points == (2,)
    assert res.partners == (3,)
    assert res.report.exact_pass and res.report.expectation_pass


def test_pipeline_chain_walk_from_interior_base():
    # Base in the middle of a path: the walk descends into the longer side.
    t = weighted_tree(7, [(i, i + 1, 1) for i in range(6)], base=2)
    sp = tree_metric(t)
    res = tree_c0_pipeline(sp)
    assert res.case == "aligned-chain"
    # Rows: 0=v2, then v0,v1,v3,v4,v5,v6. The longer side is v3..v6.
    assert res.chain == (0, 3, 4, 5, 6)
    assert res.report.exact_pass and res.report.expectation_pass


def test_pipeline_caterpillar_verifies():
    res = tree_c0_pipeline(tree_metric(caterpillar()), tree=caterpillar())
    assert res.case in ("hub-bumps", "aligned-chain")
    assert res.report.exact_pass and res.report.expectation_pass
    # Spine vertex 1 splits off {0}, {5} and the rest; the base component's
    # closest point is the base itself, so it cannot anchor a member.
    assert res.case == "hub-bumps"
    assert res.hub == 1
    assert res.points == (2, 5)
    assert res.partners == (1, 1)


def test_pipeline_skips_base_anchor_on_leaf_based_star():
    t = weighted_tree(6, [(0, i, 1) for i in range(1, 6)], base=3)
    res = tree_c0_pipeline(tree_metric(t), tree=t)
    assert res.case == "hub-bumps"
    assert res.hub == 1  # the hub vertex sits at row 1 after re-basing
    assert 0 not in res.points
    assert res.family.size == 4
    assert res.report.exact_pass and res.report.expectation_pass


# ---------------------------------------------------------------------------
# Pipeline refusals


def test_pipeline_refuses_cycle():
    with pytest.raises(TreeRefusal) as exc:
        tree_c0_pipeline(four_cycle_space())
    assert exc.value.check.name == "four-point"
    assert exc.value.check.witness_indices == (0, 1, 2, 3)


def test_pipeline_refuses_missing_branching_point():
    star = unit_star(6)
    sp = tree_metric(star)
    leaves_only = sp.subspace(range(1, 7))
    # The hub (vertex 0, a branching point) is not among the rows.
    with pytest.raises(TreeRefusal) as exc:
        tree_c0_pipeline(leaves_only, tree=star, vertex_rows={v: v - 1 for v in range(1, 7)})
    assert exc.value.check.clause == "branching-points"
    assert exc.value.check.witness_indices == (0,)


def test_pipeline_refuses_unalignable_space():
    # Equilateral 7-point space: passes four-point vacuity arguments fail,
    # no hub, and the greedy walk cannot align three points.
    rows = [[0 if i == j else 2 for j in range(7)] for i in range(7)]
    sp = make_space(rows)
    assert four_point_check(sp).ok
    with pytest.raises(TreeRefusal) as exc:
        tree_c0_pipeline(sp)
    assert exc.value.check.clause == "aligned-chain"


def test_pipeline_refuses_when_no_member_is_usable():
    sp = make_space([[0, 1], [1, 0]])
    with pytest.raises(TreeRefusal) as exc:
        tree_c0_pipeline(sp)
    assert exc.value.check.clause == "no-usable-members"


def test_pipeline_refuses_when_bump_radius_fails():
    # Hub with three arms; one arm continues past its first vertex with a
    # much shorter edge, so that vertex's nearest neighbour is not the hub.
    t = weighted_tree(
        5, [(0, 1, 1), (1, 2, rat(1, 4)), (0, 3, 1), (0, 4, 1)]
    )
    with pytest.raises(TreeRefusal) as exc:
        tree_c0_pipeline(tree_metric(t), tree=t)
    check = exc.value.check
    assert check.clause == "radius"
    assert check.witness_indices[0] == 1


# ---------------------------------------------------------------------------
# Random trees end to end


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pipeline_verifies_random_unit_trees(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    t = random_tree(rng, n, unit=True)
    res = tree_c0_pipeline(tree_metric(t), tree=t)
    assert res.report.exact_pass
    assert res.report.expectation_pass
    assert res.report.worst_defect == ZERO
