"""Instance definition layer: boxes, shapes, finite-difference validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdegames import (
    ControlBox,
    Dims,
    ShapeValidationError,
    lq_to_problem,
    random_lq_spec,
    validate_problem,
)
from fbsdegames.problem import _check_partials, _Map

from conftest import coupled_lq_spec


def test_dims_flattened_sizes():
    dims = Dims(n=2, m=3, d=2, k1=1, k2=0)
    assert dims.dz == 6
    assert dims.control_dim(1) == 1
    assert dims.control_dim(2) == 0


def test_dims_rejects_nonpositive_core():
    with pytest.raises(ValueError):
        Dims(n=0, m=1, d=1, k1=1, k2=1)
    with pytest.raises(ValueError):
        Dims(n=1, m=1, d=1, k1=-1, k2=1)


def test_box_projection_examples():
    box = ControlBox(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(
        box.project(np.array([[3.0, -5.0]])), [[1.0, 0.0]]
    )
    assert box.contains(np.array([[0.5, 1.5]]))
    assert not box.contains(np.array([[0.5, 2.5]]))
    np.testing.assert_array_equal(box.midpoint(), [0.0, 1.0])
    assert box.bounded


def test_unbounded_box_midpoint_is_zero():
    box = ControlBox.unbounded(2)
    np.testing.assert_array_equal(box.midpoint(), [0.0, 0.0])
    assert not box.bounded
    v = np.array([[1e9, -1e9]])
    np.testing.assert_array_equal(box.project(v), v)


@given(
    lo=st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    width=st.lists(st.floats(0, 5), min_size=4, max_size=4),
    point=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_projection_is_idempotent_and_feasible(lo, width, point):
    k = len(lo)
    lower = np.asarray(lo)
    upper = lower + np.asarray(width[:k])
    box = ControlBox(lower, upper)
    v = np.asarray(point[:k])[None, :]
    proj = box.project(v)
    assert box.contains(proj, tol=1e-12)
    np.testing.assert_array_equal(box.project(proj), proj)


def test_terminal_constant():
    spec = dataclasses.replace(random_lq_spec(0, Dims(1, 2, 2, 1, 1)), xi=np.array([0.3, -0.1]))
    out = lq_to_problem(spec).xi(np.zeros((5, 2)))
    assert out.shape == (5, 2)
    np.testing.assert_array_equal(out[3], [0.3, -0.1])
    # a read-only broadcast: the Monte Carlo fits round it as given
    assert out.strides[0] == 0 and not out.flags.writeable


def _fd_checks(name, value, partial, samples, seed):
    """The finite-difference checks of a map of one scalar argument x."""
    m = _Map(name, value, ("x",), (), (("dx", partial, (1,)),), ())
    return _check_partials(m, {"x": (1,)}, {}, samples=samples, seed=seed, horizon=1.0)


def test_fd_catches_half_unit_derivative_error():
    # claim d/dx (x^2/2) = x + 0.5; the scaled error saturates at 0.5 on
    # any sample with |x| <= 1 and the default cloud always contains one
    (check,) = _fd_checks("halfsquare", lambda t, x: 0.5 * x[:, 0] ** 2,
                          lambda t, x: x + 0.5, samples=120, seed=0)
    assert not check.passed
    assert check.max_error == pytest.approx(0.5, abs=1e-6)


def test_fd_passes_exact_cubic():
    (check,) = _fd_checks("cubic", lambda t, x: x[:, 0] ** 3,
                          lambda t, x: 3.0 * x**2, samples=200, seed=1)
    assert check.passed
    assert check.max_error < 1e-5


def test_validate_passes_consistent_nonlinear_drift():
    problem = lq_to_problem(coupled_lq_spec())
    co = problem.coefficients
    b0, bx0 = co.b, co.b_x

    def b(t, x, y, z, u1, u2):
        return b0(t, x, y, z, u1, u2) + 0.05 * x**3

    def b_x(t, x, y, z, u1, u2):
        return bx0(t, x, y, z, u1, u2) + 0.15 * (x**2)[:, :, None]

    tweaked = dataclasses.replace(
        problem, coefficients=dataclasses.replace(co, b=b, b_x=b_x)
    )
    report = validate_problem(tweaked, samples=150, seed=3, probe_radius=None)
    assert report.passed


def test_validate_flags_stale_partial_of_modified_drift():
    problem = lq_to_problem(coupled_lq_spec())
    co = problem.coefficients
    b0 = co.b

    def b(t, x, y, z, u1, u2):
        return b0(t, x, y, z, u1, u2) + 0.05 * x**3

    stale = dataclasses.replace(problem, coefficients=dataclasses.replace(co, b=b))
    report = validate_problem(stale, samples=150, seed=3, probe_radius=None)
    assert not report.passed
    failed = {c.partial for c in report.failures()}
    assert "b_x" in failed


def test_wrong_jacobian_shape_is_named():
    problem = lq_to_problem(coupled_lq_spec())

    def extra_axis(t, x, y, z, u1, u2):
        return np.zeros((x.shape[0], 1, 1, 1))

    broken = dataclasses.replace(
        problem,
        coefficients=dataclasses.replace(problem.coefficients, b_y=extra_axis),
    )
    with pytest.raises(ShapeValidationError, match="b_y"):
        validate_problem(broken, samples=20, seed=0, probe_radius=None)


def test_probe_warnings_are_nonfatal():
    problem = lq_to_problem(coupled_lq_spec())
    co = problem.coefficients
    b0, bx0 = co.b, co.b_x

    def b(t, x, y, z, u1, u2):
        return b0(t, x, y, z, u1, u2) + 0.05 * x**3

    def b_x(t, x, y, z, u1, u2):
        return bx0(t, x, y, z, u1, u2) + 0.15 * (x**2)[:, :, None]

    cubic = dataclasses.replace(
        problem, coefficients=dataclasses.replace(co, b=b, b_x=b_x)
    )
    report = validate_problem(cubic, samples=60, seed=5, probe_radius=1e3)
    assert report.passed  # warnings are advisory, not failures
    assert any(w.startswith("b_x") and "magnitude" in w for w in report.warnings)


def test_linear_problem_probes_clean():
    problem = lq_to_problem(coupled_lq_spec())
    report = validate_problem(problem, samples=40, seed=5, probe_radius=1e3)
    assert report.passed
    assert report.warnings == ()


def test_validate_is_deterministic_in_seed():
    problem = lq_to_problem(coupled_lq_spec())
    r1 = validate_problem(problem, samples=40, seed=9, probe_radius=None)
    r2 = validate_problem(problem, samples=40, seed=9, probe_radius=None)
    worst1 = [(c.partial, c.max_error) for c in r1.checks]
    worst2 = [(c.partial, c.max_error) for c in r2.checks]
    assert worst1 == worst2


@pytest.mark.parametrize("dims", [Dims(1, 1, 1, 1, 1), Dims(2, 2, 1, 2, 2), Dims(3, 2, 2, 3, 0)])
def test_lq_value_callbacks_act_row_by_row(dims):
    # a row's value must not depend on the rows evaluated with it, bit for bit:
    # the grid oracle stacks many profiles along the scenario axis
    spec = random_lq_spec(4, dims)
    spec = dataclasses.replace(spec, xi_linear=np.full((dims.m, dims.d), 0.3))
    problem = lq_to_problem(spec)
    co, costs = problem.coefficients, problem.costs
    rng = np.random.default_rng(0)
    S = 300
    x, y = rng.standard_normal((S, dims.n)), rng.standard_normal((S, dims.m))
    z = rng.standard_normal((S, dims.m, dims.d))
    u1, u2 = rng.standard_normal((S, dims.k1)), rng.standard_normal((S, dims.k2))
    bt = rng.standard_normal((S, dims.d))
    calls = {
        name: (lambda rows, fn=fn: fn(0.3, x[rows], y[rows], z[rows], u1[rows], u2[rows]))
        for name, fn in (("b", co.b), ("sigma", co.sigma), ("f", co.f),
                         ("l1", costs.l1), ("l2", costs.l2))
    }
    calls.update(phi1=lambda rows: costs.phi1(x[rows]), h2=lambda rows: costs.h2(y[rows]),
                 xi=lambda rows: problem.xi(bt[rows]))
    for name, call in calls.items():
        together = call(slice(None))
        for start, stop in ((0, 1), (5, 7), (10, 13), (17, 300)):
            np.testing.assert_array_equal(call(slice(start, stop)), together[start:stop],
                                          err_msg=name)


@pytest.mark.parametrize("dims", [Dims(2, 2, 1, 2, 2), Dims(3, 2, 2, 3, 0)])
def test_lq_gradient_callbacks_act_row_by_row(dims):
    # the costate matrices and control gradients evaluate these once over the
    # rows of all steps, against the per-step reference; a matrix product
    # through BLAS rounds a lone row (lattice step 0) differently
    problem = lq_to_problem(random_lq_spec(4, dims))
    costs = problem.costs
    rng = np.random.default_rng(0)
    S = 300
    x, y = rng.standard_normal((S, dims.n)), rng.standard_normal((S, dims.m))
    z = rng.standard_normal((S, dims.m, dims.d))
    u1, u2 = rng.standard_normal((S, dims.k1)), rng.standard_normal((S, dims.k2))
    calls = {
        f"l{i}_{v}": (lambda rows, fn=costs.running_grad(i, v):
                      fn(0.3, x[rows], y[rows], z[rows], u1[rows], u2[rows]))
        for i in (1, 2) for v in ("x", "y", "z", "u1", "u2")
    }
    for i in (1, 2):
        calls[f"phi{i}_x"] = lambda rows, fn=costs.terminal_grad(i): fn(x[rows])
        calls[f"h{i}_y"] = lambda rows, fn=costs.initial_grad(i): fn(y[rows])
    for name, call in calls.items():
        together = call(slice(None))
        for start, stop in ((0, 1), (5, 7), (10, 13), (17, 300)):
            np.testing.assert_array_equal(call(slice(start, stop)), together[start:stop],
                                          err_msg=name)
