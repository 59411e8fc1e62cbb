"""Hamiltonian evaluation, stationarity residuals, pointwise checks, certificates."""

import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbsdegames import (
    CertificateOptions,
    ControlBox,
    ControlProcess,
    Dims,
    FbsdeConfig,
    NonFiniteStateError,
    build_certificate,
    check_convexity,
    check_pointwise_min,
    control_gradient,
    costate_combination,
    eval_hamiltonian,
    lq_to_problem,
    random_lq_spec,
    solve_adjoint,
    solve_fbsde,
    vi_residual,
)
from fbsdegames import hamiltonian
from fbsdegames.cli import plain
from fbsdegames.hamiltonian import CONVENTION_NOTE, _control_grid

from conftest import (
    ROUNDOFF_TOL,
    coupled_lq_spec,
    lattice,
    montecarlo,
    plain_callbacks,
    random_controls,
    reference_cases,
    zero_spec,
)


def _random_point(problem, S=6, seed=0):
    dims = problem.dims
    rng = np.random.default_rng(seed)
    return dict(
        t=0.4,
        x=rng.normal(size=(S, dims.n)),
        y=rng.normal(size=(S, dims.m)),
        z=rng.normal(size=(S, dims.m, dims.d)),
        u1=rng.normal(size=(S, dims.k1)),
        u2=rng.normal(size=(S, dims.k2)),
        p=rng.normal(size=(S, dims.n)),
        q=rng.normal(size=(S, dims.n, dims.d)),
        k=rng.normal(size=(S, dims.m)),
    )


def _fd_grad(problem, player, point, var, step=1e-6):
    base = dict(point)
    target = base[var]
    flat = target.reshape(target.shape[0], -1)
    cols = []
    for c in range(flat.shape[1]):
        for sign in (+1.0, -1.0):
            bumped = flat.copy()
            bumped[:, c] += sign * step
            base[var] = bumped.reshape(target.shape)
            cols.append(eval_hamiltonian(problem, player, **base))
    base[var] = target
    up = np.stack(cols[0::2], axis=1)
    dn = np.stack(cols[1::2], axis=1)
    return (up - dn) / (2.0 * step)


@pytest.mark.parametrize("player", [1, 2])
@pytest.mark.parametrize("var", ["x", "y", "z", "u1", "u2"])
def test_hamiltonian_gradients_match_finite_differences(player, var):
    problem = lq_to_problem(coupled_lq_spec())
    point = _random_point(problem, seed=17 + player)
    claimed = costate_combination(problem, player, var, **point)
    fd = _fd_grad(problem, player, point, var)
    np.testing.assert_allclose(claimed, fd, rtol=1e-6, atol=1e-8)


def test_hamiltonian_value_assembles_inner_products():
    # with everything but p zeroed, H reduces to <p, b>
    problem = lq_to_problem(coupled_lq_spec())
    point = _random_point(problem, seed=3)
    point["q"] = np.zeros_like(point["q"])
    point["k"] = np.zeros_like(point["k"])
    zero_costs = dataclasses.replace(
        problem.costs,
        l1=lambda t, x, y, z, u1, u2: np.zeros(x.shape[0]),
    )
    stripped = dataclasses.replace(problem, costs=zero_costs)
    value = eval_hamiltonian(stripped, 1, **point)
    b = problem.coefficients.b(
        point["t"], point["x"], point["y"], point["z"], point["u1"], point["u2"]
    )
    np.testing.assert_allclose(value, np.einsum("sn,sn->s", point["p"], b), atol=1e-13)


def test_control_gradient_agrees_with_costate_combination():
    backend = lattice(8)
    problem = lq_to_problem(coupled_lq_spec())
    u = ControlProcess.constant(backend, 0.4, -0.3)
    traj, _ = solve_fbsde(problem, u, backend, FbsdeConfig(tol=1e-12))
    adj, _ = solve_adjoint(problem, traj, u, 1, backend)
    grads = control_gradient(problem, traj, adj, u, 1)
    j = 5
    grad_u1 = costate_combination(
        problem, 1, "u1", float(backend.grid.knots[j]),
        traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j],
        adj.p[j], adj.q[j], adj.k[j],
    )
    np.testing.assert_allclose(grads[j], grad_u1, atol=1e-13)


def _constant_gradient_problem(c: float):
    """Zero dynamics with l1 = c * u1, so H_1u1 = c identically."""
    spec = zero_spec()
    problem = lq_to_problem(spec)
    costs = dataclasses.replace(
        problem.costs,
        l1=lambda t, x, y, z, u1, u2: c * u1[:, 0],
        l1_u1=lambda t, x, y, z, u1, u2: np.full((u1.shape[0], 1), c),
    )
    return dataclasses.replace(problem, costs=costs)


def _vi_at(problem, backend, value1):
    u = ControlProcess.constant(backend, value1, 0.0)
    traj, _ = solve_fbsde(problem, u, backend)
    adj1, _ = solve_adjoint(problem, traj, u, 1, backend)
    adj2, _ = solve_adjoint(problem, traj, u, 2, backend)
    return vi_residual(problem, traj, adj1, adj2, u)


def test_vi_interior_point_sees_full_gradient():
    problem = _constant_gradient_problem(0.5)
    vi = _vi_at(problem, lattice(4), 0.0)
    # interior u = 0 with gradient 0.5: residual is the whole step
    assert vi.rho1 == pytest.approx(0.5, abs=1e-12)
    assert vi.inner_min_1 < -1e-3  # some feasible direction decreases H
    assert vi.rho2 == 0.0


def test_vi_boundary_stationarity():
    problem = _constant_gradient_problem(0.5)
    vi = _vi_at(problem, lattice(4), -1.0)  # box is [-1, 1]
    assert vi.rho1 == pytest.approx(0.0, abs=1e-12)
    assert vi.inner_min_1 >= -1e-9  # positive gradient, u at lower bound
    assert vi.convention == CONVENTION_NOTE


def test_vi_invariant_to_constant_cost_shift():
    base = _constant_gradient_problem(0.5)
    l0 = base.costs.l1
    shifted_costs = dataclasses.replace(
        base.costs, l1=lambda t, x, y, z, u1, u2: l0(t, x, y, z, u1, u2) + 7.0
    )
    shifted = dataclasses.replace(base, costs=shifted_costs)
    a = _vi_at(base, lattice(4), 0.25)
    b = _vi_at(shifted, lattice(4), 0.25)
    assert a.rho1 == b.rho1
    assert a.inner_min_1 == b.inner_min_1


@pytest.mark.parametrize("c", [0.5, -1.25])
@pytest.mark.parametrize("u", [-1.0, -0.3, 0.0, 0.7, 1.0])
def test_vi_inner_min_takes_the_better_end_of_the_box(c, u):
    # H_1u1 = c on the box [-1, 1]: the first-order condition is exact
    vi = _vi_at(_constant_gradient_problem(c), lattice(4), u)
    assert vi.inner_min_1 == min(c * (-1.0 - u), c * (1.0 - u))
    assert vi.inner_min_2 == 0.0


def test_vi_inner_min_is_the_least_vertex_of_the_clipped_box():
    # k = 3 with one unbounded coordinate, clipped to +-_INNER_RADIUS; some
    # controls on that coordinate lie beyond the clip
    spec = random_lq_spec(5, Dims(1, 1, 1, 3, 1))
    box = ControlBox(np.array([-1.0, -0.5, -np.inf]), np.array([1.0, 2.0, np.inf]))
    problem = lq_to_problem(dataclasses.replace(spec, u1_box=box))
    backend = lattice(6)
    u = random_controls(problem, backend, seed=4)
    u.u1.rows[:, 2] *= 15.0
    traj, _ = solve_fbsde(problem, u, backend, FbsdeConfig(tol=1e-12))
    adj1, _ = solve_adjoint(problem, traj, u, 1, backend)
    adj2, _ = solve_adjoint(problem, traj, u, 2, backend)
    vi = vi_residual(problem, traj, adj1, adj2, u)
    radius = hamiltonian._INNER_RADIUS
    ends = zip(np.maximum(box.lower, -radius), np.minimum(box.upper, radius))
    g, own = vi.grad1.rows, u.u1.rows
    assert np.abs(own[:, 2]).max() > radius
    by_vertex = [(g * (np.array(v) - own)).sum(axis=1) for v in itertools.product(*ends)]
    assert len(by_vertex) == 8
    # each term is one of the two ends' terms, and a sum in a fixed order
    # rounds monotonically, so the least vertex is met exactly
    assert vi.inner_min_1 == np.min(by_vertex)


@given(
    u=st.floats(-1.0, 1.0),
    g=st.floats(-3.0, 3.0),
)
@example(u=1.0, g=1e-12)
@example(u=-1.0, g=-1e-12)
@settings(max_examples=300, deadline=None)
def test_projection_residual_iff_inner_condition(u, g):
    # classical equivalence on a box: |u - proj(u - g)| = 0 exactly when
    # <g, v - u> >= 0 for all v in the box.  In floats: a nonzero residual
    # always exposes a descent direction, and the most negative pairing is
    # at most max(2, |g|) times the residual plus two ulps at that scale
    # (the rounding of u - g and of the products).
    box = ControlBox(np.array([-1.0]), np.array([1.0]))
    r = abs(u - box.project(np.array([u - g]))[0])
    inner_min = min(g * (v - u) for v in (-1.0, 1.0))
    if r > 0.0:
        assert inner_min < 0.0
    scale = max(2.0, abs(g))
    assert inner_min >= -scale * r - 2.0 * scale * np.spacing(max(abs(u), abs(g), 1.0))


def _solved_equilibrium(backend):
    from fbsdegames import GradientConfig, solve_nash

    problem = lq_to_problem(coupled_lq_spec())
    report = solve_nash(
        problem, backend,
        fbsde_config=FbsdeConfig(tol=1e-12),
        grad_config=GradientConfig(step=0.5, max_iterations=400, tolerance=1e-9),
    )
    assert report.converged
    return problem, report


def _resolve(problem, u, backend):
    traj, _ = solve_fbsde(problem, u, backend, FbsdeConfig(tol=1e-12))
    adj1, _ = solve_adjoint(problem, traj, u, 1, backend)
    adj2, _ = solve_adjoint(problem, traj, u, 2, backend)
    return traj, adj1, adj2


class TestPointwiseMin:
    def test_equilibrium_passes(self):
        backend = lattice(16)
        problem, report = _solved_equilibrium(backend)
        traj, adj1, _ = _resolve(problem, report.controls, backend)
        out = check_pointwise_min(
            problem, traj, adj1, report.controls, 1, grid_density=21, radius=None, tol=1e-4
        )
        assert out.passed

    def test_shifted_control_is_beaten_on_grid(self):
        backend = lattice(16)
        problem, report = _solved_equilibrium(backend)
        shifted = report.controls.replace_player(
            1, tuple(a + 0.5 for a in report.controls.u1)
        )
        traj, adj1, _ = _resolve(problem, shifted, backend)
        out = check_pointwise_min(problem, traj, adj1, shifted, 1, grid_density=21, radius=None,
                                  tol=1e-8)
        assert not out.passed
        # quadratic own-cost: a 0.5 shift leaves roughly N/2 * 0.25 on the table
        assert out.violation > 0.05
        assert out.best_alternative is not None

    def test_grid_is_the_product_of_the_axes_in_order(self):
        # the order sets which of tied candidates a search keeps
        box = ControlBox(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 3.0]))
        axes = [np.linspace(lo, hi, 4) for lo, hi in zip(box.lower, box.upper)]
        np.testing.assert_array_equal(_control_grid(box, 4, None),
                                      np.array(list(itertools.product(*axes))))
        assert _control_grid(ControlBox.unbounded(0), 4, None).shape == (1, 0)

    def test_unbounded_box_needs_radius(self):
        box = ControlBox.unbounded(1)
        with pytest.raises(ValueError, match="radius"):
            _control_grid(box, 9, None)
        grid = _control_grid(box, 9, 2.0)
        assert grid.shape == (9, 1)
        assert grid.min() == -2.0 and grid.max() == 2.0


class TestConvexity:
    def test_parabola_not_refuted(self):
        rep = check_convexity(
            lambda v: (v**2).sum(axis=1),
            np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
            samples=300, seed=1, tol=1e-9, label="|v|^2",
        )
        assert rep.passed

    def test_concave_function_refuted_with_witness(self):
        rep = check_convexity(
            lambda v: -(v**2).sum(axis=1), np.array([-1.0]), np.array([1.0]),
            samples=300, seed=1, tol=1e-9, label="-|v|^2",
        )
        assert not rep.passed
        assert rep.violation > 0.0
        a, b = rep.witness_a, rep.witness_b
        mid = 0.5 * (a + b)
        lhs = -float(mid @ mid)
        rhs = 0.5 * (-float(a @ a) - float(b @ b))
        assert lhs > rhs  # the recorded pair really does violate midpoint convexity


class TestCertificate:
    def test_equilibrium_certified(self):
        backend = lattice(16)
        problem, report = _solved_equilibrium(backend)
        traj, adj1, adj2 = _resolve(problem, report.controls, backend)
        cert = build_certificate(
            problem, traj, (adj1, adj2), report.controls,
            CertificateOptions(grid_density=21, pointwise_tol=1e-4),
        )
        assert cert.verdict == "certified"
        assert CONVENTION_NOTE in cert.notes
        payload = plain(cert)
        assert payload["verdict"] == "certified"
        assert payload["player1"]["pointwise"]["passed"]

    def test_shifted_controls_refuted_with_stationarity_witness(self):
        backend = lattice(16)
        problem, report = _solved_equilibrium(backend)
        shifted = report.controls.replace_player(
            1, tuple(a + 0.5 for a in report.controls.u1)
        )
        traj, adj1, adj2 = _resolve(problem, shifted, backend)
        cert = build_certificate(
            problem, traj, (adj1, adj2), shifted,
            CertificateOptions(grid_density=21),
        )
        assert cert.verdict == "refuted"
        assert cert.witness is not None
        assert "player 1" in cert.witness

    def test_concave_control_cost_refuted_on_convexity(self):
        # H_1 = -u1^2/2 has its box minimum at the corner, so a corner
        # control passes the pointwise check and only convexity can fail
        spec = zero_spec()
        spec = dataclasses.replace(
            spec,
            cost1=dataclasses.replace(spec.cost1, N=np.array([[-1.0]])),
            u1_box=ControlBox(np.array([-2.0]), np.array([2.0])),
        )
        problem = lq_to_problem(spec)
        backend = lattice(12)
        u = ControlProcess.constant(backend, 2.0, 0.0)
        traj, adj1, adj2 = _resolve(problem, u, backend)
        cert = build_certificate(
            problem, traj, (adj1, adj2), u, CertificateOptions(grid_density=15)
        )
        assert cert.verdict == "refuted"
        assert not cert.player1.hamiltonian_convexity[0].passed
        assert "convex" in (cert.witness or "")

    def test_unbounded_box_without_radius_is_inconclusive(self):
        spec = coupled_lq_spec()
        spec = dataclasses.replace(spec, u1_box=ControlBox.unbounded(1))
        problem = lq_to_problem(spec)
        backend = lattice(8)
        u = ControlProcess.constant(backend, 0.0, 0.0)
        traj, adj1, adj2 = _resolve(problem, u, backend)
        cert = build_certificate(problem, traj, (adj1, adj2), u, CertificateOptions())
        assert cert.verdict in ("inconclusive", "refuted")
        if cert.verdict == "inconclusive":
            assert any("radius" in n or "unbounded" in n for n in cert.notes)


def _candidate_loop(problem, traj, adj, u, player, candidates):
    """check_pointwise_min's search as one Hamiltonian call per candidate."""
    grid = traj.backend.grid
    worst, worst_loc, worst_alt, per_step = -np.inf, (0, 0), None, []
    for j in range(grid.steps):
        t = float(grid.knots[j])
        x, y, z, u1, u2 = traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j]
        pj, qj, kj = adj.p[j], adj.q[j], adj.k[j]
        base = eval_hamiltonian(problem, player, t, x, y, z, u1, u2, pj, qj, kj)
        step_best = np.full(base.shape, -np.inf)
        step_alt = np.zeros((base.shape[0], candidates.shape[1]))
        for c in candidates:
            cu = np.broadcast_to(c, (base.shape[0], c.shape[0]))
            trial_u1 = cu if player == 1 else u1
            trial_u2 = cu if player == 2 else u2
            gain = base - eval_hamiltonian(problem, player, t, x, y, z, trial_u1, trial_u2,
                                           pj, qj, kj)
            better = gain > step_best
            step_best = np.where(better, gain, step_best)
            step_alt[better] = c
        per_step.append(step_best)
        s = int(np.argmax(step_best))
        if step_best[s] > worst:
            worst, worst_loc, worst_alt = float(step_best[s]), (j, s), step_alt[s].copy()
    return worst, worst_loc, worst_alt, per_step


def _assert_matches_candidate_loop(problem, backend, player, density):
    u = random_controls(problem, backend, seed=player)
    traj, adj1, adj2 = _resolve(problem, u, backend)
    adj = adj1 if player == 1 else adj2
    out = check_pointwise_min(problem, traj, adj, u, player, grid_density=density, radius=None,
                              tol=1e-8)
    candidates = _control_grid(problem.box(player), density, None)
    worst, (step, scenario), alt, per_step = _candidate_loop(
        problem, traj, adj, u, player, candidates
    )
    # a batch of another size may round H differently in the last bits
    close = dict(rtol=0.0, atol=ROUNDOFF_TOL * (1.0 + abs(worst)))
    assert out.violation > 0.0  # random controls leave room to improve
    np.testing.assert_allclose(out.violation, worst, **close)
    assert (out.step, out.scenario) == (step, scenario)
    np.testing.assert_array_equal(out.best_alternative, alt)
    for got, ref in zip(out.per_step_violation, per_step, strict=True):
        np.testing.assert_allclose(got, ref, **close)
    return out


@pytest.mark.parametrize("spec, make_backend", reference_cases())
@pytest.mark.parametrize("player", [1, 2])
def test_batched_pointwise_min_matches_candidate_loop(spec, make_backend, player):
    problem = lq_to_problem(spec)
    density = 9 if problem.dims.control_dim(player) > 1 else 21
    _assert_matches_candidate_loop(problem, make_backend(), player, density)


def test_pointwise_min_blocks_at_default_density_match_candidate_loop():
    # k = 2 at the default density: 33**2 candidates x 2,048 rows (4 steps of
    # 512 paths) is 136 times _POINTWISE_ROWS, so the rows of all steps run
    # together in calls of 8 candidates, the last call of one
    problem = lq_to_problem(random_lq_spec(3, Dims(2, 2, 2, 2, 2)))
    backend = montecarlo(4, paths=512, d=2)
    assert 33**2 * 512 > hamiltonian._POINTWISE_ROWS
    _assert_matches_candidate_loop(problem, backend, 1, 33)


@pytest.mark.parametrize("rows", [1, 40, 100])
def test_pointwise_min_small_blocks_match_candidate_loop(monkeypatch, rows):
    # one candidate per call (fewer rows than scenarios), uneven blocks with
    # a partial last one, and blocks spanning scenario counts that vary by step
    monkeypatch.setattr(hamiltonian, "_POINTWISE_ROWS", rows)
    problem = lq_to_problem(random_lq_spec(3, Dims(2, 2, 1, 2, 2)))
    _assert_matches_candidate_loop(problem, lattice(16), 2, 7)


@pytest.mark.parametrize("rows", [None, 3])
def test_pointwise_min_ties_keep_the_first_candidate(monkeypatch, rows):
    # zero_spec's H_1 does not depend on u1, so every candidate ties at gain 0;
    # with 3 rows per call the tie also spans blocks
    if rows is not None:
        monkeypatch.setattr(hamiltonian, "_POINTWISE_ROWS", rows)
    problem = lq_to_problem(zero_spec())
    backend = lattice(4)
    u = random_controls(problem, backend)
    traj, adj1, _ = _resolve(problem, u, backend)
    out = check_pointwise_min(problem, traj, adj1, u, 1, grid_density=5, radius=None, tol=1e-8)
    candidates = _control_grid(problem.box(1), 5, None)
    assert _candidate_loop(problem, traj, adj1, u, 1, candidates)[2] == candidates[0]
    assert (out.violation, out.step, out.scenario) == (0.0, 0, 0)
    np.testing.assert_array_equal(out.best_alternative, candidates[0])


def _nan_at_candidate(problem, player, value):
    """problem with H_i NaN where player i's control is `value` and t >= 0.5."""
    running = problem.costs.running(player)

    def l(t, x, y, z, u1, u2):
        own = u1 if player == 1 else u2
        hit = (own[:, 0] == value) & (np.asarray(t) >= 0.5)
        return np.where(hit, np.nan, running(t, x, y, z, u1, u2))

    return dataclasses.replace(problem, costs=dataclasses.replace(problem.costs, **{f"l{player}": l}))


@pytest.mark.parametrize("rows", [None, 40])
def test_pointwise_min_nan_candidate_leaves_the_others_in_the_search(monkeypatch, rows):
    # the candidate that beats the stored control on some row has H_1 NaN on
    # the later steps; their rows keep the best of the other candidates, as
    # a candidate loop does, whether a call takes all 21 candidates on the
    # lattice's 136 rows or one candidate broadcast over 40 rows
    if rows is not None:
        monkeypatch.setattr(hamiltonian, "_POINTWISE_ROWS", rows)
    clean = lq_to_problem(coupled_lq_spec())
    backend = lattice(16)
    u = random_controls(clean, backend, seed=1)
    traj, adj1, _ = _resolve(clean, u, backend)
    before = check_pointwise_min(clean, traj, adj1, u, 1, grid_density=21, radius=None, tol=1e-8)
    problem = _nan_at_candidate(clean, 1, before.best_alternative[0])
    out = _assert_matches_candidate_loop(problem, backend, 1, 21)
    assert np.isfinite(out.per_step_violation.rows).all()
    assert not np.array_equal(out.per_step_violation.rows, before.per_step_violation.rows)


def test_non_finite_hamiltonian_at_the_stored_control_is_a_solver_failure():
    # l1 NaN where t >= 0.5 and u1 >= 0: 51 of the 136 rows have H_1 NaN at
    # the stored control, which used to leave them at -inf, out of the check
    clean = lq_to_problem(coupled_lq_spec())
    backend = lattice(16)
    u = random_controls(clean, backend, seed=1)
    traj, adj1, _ = _resolve(clean, u, backend)
    running = clean.costs.l1

    def l1(t, x, y, z, u1, u2):
        hit = (u1[:, 0] >= 0.0) & (np.asarray(t) >= 0.5)
        return np.where(hit, np.nan, running(t, x, y, z, u1, u2))

    problem = dataclasses.replace(clean, costs=dataclasses.replace(clean.costs, l1=l1))
    # step 8 is t = 0.5, where scenario 0 has u1 < 0 and scenario 1 u1 >= 0
    assert u.u1[8][0, 0] < 0.0 <= u.u1[8][1, 0]
    with pytest.raises(NonFiniteStateError,
                       match=r"^non-finite Hamiltonian of player 1 at step 8, scenario 1$"):
        check_pointwise_min(problem, traj, adj1, u, 1, grid_density=21, radius=None, tol=1e-8)


def _assert_split_is_whole(problem, backend, player, density, radius=None):
    u = random_controls(problem, backend, seed=player)
    traj, adj1, adj2 = _resolve(problem, u, backend)
    adj = adj1 if player == 1 else adj2
    running = type(problem.costs.running(player))
    with mock.patch.object(running, "split", autospec=True, side_effect=running.split) as spy:
        split, whole = (check_pointwise_min(p, traj, adj, u, player, grid_density=density,
                                            radius=radius, tol=1e-8)
                        for p in (problem, plain_callbacks(problem)))
    assert spy.called  # the LQ callbacks took the split path, the wrapped ones did not
    assert np.array_equal(split.violation, whole.violation)
    assert (split.step, split.scenario) == (whole.step, whole.scenario)
    assert np.array_equal(split.best_alternative, whole.best_alternative)
    assert np.array_equal(split.per_step_violation.rows, whole.per_step_violation.rows)
    return split


@pytest.mark.parametrize("spec, make_backend", reference_cases())
@pytest.mark.parametrize("player", [1, 2])
def test_split_search_is_the_whole_hamiltonian_bit_for_bit(spec, make_backend, player):
    problem = lq_to_problem(spec)
    density = 9 if problem.dims.control_dim(player) > 1 else 21
    _assert_split_is_whole(problem, make_backend(), player, density)


@pytest.mark.parametrize("player", [1, 2])
def test_split_search_on_the_2d_game_at_default_density(player):
    # 1,089 candidates on 1,024 rows: calls of 16 candidates, rows tiled
    problem = lq_to_problem(random_lq_spec(11, Dims(2, 2, 2, 2, 2)))
    _assert_split_is_whole(problem, montecarlo(2, paths=512, d=2), player, 33)


@pytest.mark.parametrize("player", [1, 2])
def test_split_search_with_an_inert_player(player):
    problem = lq_to_problem(random_lq_spec(3, Dims(2, 2, 1, 0, 2)))
    _assert_split_is_whole(problem, lattice(8), player, 7)


def test_split_search_on_a_box_truncated_by_a_radius():
    spec = random_lq_spec(3, Dims(2, 2, 1, 2, 2))
    problem = lq_to_problem(dataclasses.replace(spec, u1_box=ControlBox.unbounded(2)))
    _assert_split_is_whole(problem, lattice(16), 1, 7, radius=1.5)


@pytest.mark.parametrize("rows", [1, 40, 100])
@pytest.mark.parametrize("player", [1, 2])
def test_split_search_in_small_blocks(monkeypatch, rows, player):
    monkeypatch.setattr(hamiltonian, "_POINTWISE_ROWS", rows)
    problem = lq_to_problem(random_lq_spec(3, Dims(2, 2, 1, 2, 2)))
    _assert_split_is_whole(problem, lattice(16), player, 7)


def test_split_search_keeps_the_first_of_tied_candidates():
    out = _assert_split_is_whole(lq_to_problem(zero_spec()), lattice(4), 1, 5)
    assert out.violation == 0.0
    np.testing.assert_array_equal(out.best_alternative, [-1.0])


# Bytes a call of check_pointwise_min may hold per (candidate, row) pair on
# random_lq_spec's Dims(2, 2, 2, 2, 2): 19 floats of tiled rows, the
# candidate's 2 and H_i's temporaries, with room to spare
_PAIR_BYTES = 64 * 8


@pytest.mark.parametrize("paths", [1024, 8192])
def test_pointwise_min_peak_memory_is_bounded_by_its_calls(paths):
    # k = 2 at the default density, 1,089 candidates: on 2 steps of 1,024
    # paths a call tiles 8 candidates, on 2 steps of 8,192 it takes one over
    # all 16,384 rows.  Beyond H_i at the stored control (its evaluation's
    # peak), row_best and best, the search holds no more than one call's pairs
    problem = lq_to_problem(random_lq_spec(3, Dims(2, 2, 2, 2, 2)))
    backend = montecarlo(2, paths=paths, d=2)
    u = random_controls(problem, backend)
    traj, adj1, _ = _resolve(problem, u, backend)
    args, costates = hamiltonian._all_rows(traj, adj1, u)
    rows = args[1].shape[0]
    tracemalloc.start()
    try:
        eval_hamiltonian(problem, 1, *args, *costates)
        base_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        check_pointwise_min(problem, traj, adj1, u, 1, grid_density=33, radius=None, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base_peak - 2 * 8 * rows <= _PAIR_BYTES * hamiltonian._POINTWISE_ROWS


def test_non_finite_control_gradient_is_a_solver_failure():
    # a NaN gradient on one row used to drop out of rho's max over steps,
    # leaving rho_1 at its clean value
    backend = lattice(8)
    problem = lq_to_problem(coupled_lq_spec())
    grad = problem.costs.l1_u1

    def poisoned(t, x, y, z, u1, u2):
        out = np.array(grad(t, x, y, z, u1, u2))
        out[20] = np.nan  # row 20 of steps 0..7 is step 5, scenario 5
        return out

    problem = dataclasses.replace(
        problem, costs=dataclasses.replace(problem.costs, l1_u1=poisoned))
    u = ControlProcess.constant(backend, 0.4, -0.3)
    traj, adj1, adj2 = _resolve(problem, u, backend)
    with pytest.raises(NonFiniteStateError,
                       match=r"^non-finite control gradient of player 1 at step 5, scenario 5$"):
        vi_residual(problem, traj, adj1, adj2, u)
