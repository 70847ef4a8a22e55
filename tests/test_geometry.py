import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditpd.geometry import (
    Box,
    Halfspace,
    as_vector,
    project,
    project_halfspace,
    project_intersection,
    project_scaled,
)

BOX5 = Box(dim=2, halfwidth=5.0)


def test_box_validation():
    with pytest.raises(ValueError):
        Box(dim=0, halfwidth=1.0)
    with pytest.raises(ValueError):
        Box(dim=2, halfwidth=0.0)


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])


def test_project_clamps_componentwise():
    assert np.array_equal(project(BOX5, [7.0, -9.0]), [5.0, -5.0])
    assert np.array_equal(project(BOX5, [1.0, -2.0]), [1.0, -2.0])


def test_project_scaled_frozen_example():
    # Shrink 0.5 of the halfwidth-5 box clamps (4, 4) at 2.5.
    out = project_scaled(BOX5, [4.0, 4.0], 0.5)
    assert np.array_equal(out, [2.5, 2.5])


def test_project_scaled_full_shrink_is_origin():
    assert np.array_equal(project_scaled(BOX5, [3.0, -1.0], 1.0), [0.0, 0.0])


def test_project_scaled_range():
    with pytest.raises(ValueError):
        project_scaled(BOX5, [0.0, 0.0], -0.1)
    with pytest.raises(ValueError):
        project_scaled(BOX5, [0.0, 0.0], 1.1)


def test_halfspace_violation_and_projection():
    hs = Halfspace(normal=[0.0, 1.0], offset=1.0)
    assert hs.violation([3.0, 4.0]) == pytest.approx(3.0)
    assert np.allclose(project_halfspace([3.0, 4.0], hs), [3.0, 1.0])
    # Feasible points are untouched.
    assert np.array_equal(project_halfspace([3.0, 0.5], hs), [3.0, 0.5])


def test_halfspace_zero_normal_rejected():
    with pytest.raises(ValueError):
        Halfspace(normal=[0.0, 0.0], offset=1.0)


def test_intersection_box_and_one_halfspace():
    # Box [-5,5]^2 with {x1 <= 0}: projection of (2, 2) lands at (0, 2).
    point, converged = project_intersection([2.0, 2.0], BOX5,
                                            [Halfspace([1.0, 0.0], 0.0)])
    assert converged
    assert np.allclose(point, [0.0, 2.0], atol=1e-7)


def test_intersection_wedge():
    # {x1 + x2 <= 0} and {x1 - x2 <= 0} pin (2, 0) to the origin.
    halfspaces = [Halfspace([1.0, 1.0], 0.0), Halfspace([1.0, -1.0], 0.0)]
    point, converged = project_intersection([2.0, 0.0], BOX5, halfspaces)
    assert converged
    assert np.allclose(point, [0.0, 0.0], atol=1e-7)


def test_intersection_no_halfspaces_is_box_projection():
    point, converged = project_intersection([9.0, -1.0], BOX5, [])
    assert converged
    assert np.array_equal(point, [5.0, -1.0])


finite_points = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=2, max_size=2,
)


@given(finite_points)
def test_projection_idempotent(point):
    once = project(BOX5, point)
    assert np.array_equal(project(BOX5, once), once)


@given(finite_points, finite_points)
def test_projection_nonexpansive(a, b):
    pa, pb = project(BOX5, a), project(BOX5, b)
    lhs = np.linalg.norm(pa - pb)
    rhs = np.linalg.norm(np.asarray(a) - np.asarray(b))
    assert lhs <= rhs + 1e-12


@given(finite_points, st.floats(min_value=0.0, max_value=1.0))
def test_scaled_projection_lands_inside(point, shrink):
    out = project_scaled(BOX5, point, shrink)
    assert np.all(np.abs(out) <= (1.0 - shrink) * BOX5.halfwidth + 1e-12)


@settings(max_examples=25)
@given(finite_points)
def test_dykstra_point_is_feasible(point):
    halfspaces = [Halfspace([1.0, 2.0], 1.0), Halfspace([-1.0, 1.0], 3.0)]
    out, converged = project_intersection(point, BOX5, halfspaces, tol=1e-10)
    assert converged
    for hs in halfspaces:
        assert hs.violation(out) <= 1e-7
    assert np.all(np.abs(out) <= BOX5.halfwidth + 1e-9)
