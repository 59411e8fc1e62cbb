"""One evaluation over the rows of all steps against the per-step loops.

Each process is one array over all (step, scenario) rows, and the work that
is pointwise in (t, scenario) runs as one call with t given per row.  Since
the callbacks act row by row, every such call must give, bit for bit, what
one call per step gives; the references below are those per-step loops.
"""

import dataclasses

import numpy as np
import pytest

from fbsdegames import (
    ControlProcess,
    Dims,
    FbsdeConfig,
    NonFiniteStateError,
    ShapeValidationError,
    backward_pass,
    check_pointwise_min,
    control_gradient,
    costate_combination,
    eval_cost,
    forward_pass,
    lq_to_problem,
    random_lq_spec,
    solve_adjoints,
    solve_fbsde,
    validate_problem,
    vi_residual,
)
from fbsdegames import lq
from fbsdegames.adjoint import _costate_matrix, _step_partials
from fbsdegames.drivers import StepArray
from fbsdegames.fbsde import _update_metric, solve_members
from fbsdegames.hamiltonian import _control_grid, eval_hamiltonian

from conftest import (
    coupled_lq_spec,
    lattice,
    montecarlo,
    nonlinear_problem,
    plain_callbacks,
    random_controls,
)


def _time_dependent_problem():
    """The coupled game plus a drift term sin(t) and a running cost term
    t x^2 / 2 (with its x-gradient), each broadcasting t along the rows."""
    problem = lq_to_problem(coupled_lq_spec())
    co, costs = problem.coefficients, problem.costs

    def column(t):
        return np.reshape(t, (-1, 1))

    def b(t, x, y, z, u1, u2):
        return co.b(t, x, y, z, u1, u2) + 0.1 * np.sin(column(t))

    def l1(t, x, y, z, u1, u2):
        return costs.l1(t, x, y, z, u1, u2) + 0.5 * column(t)[:, 0] * x[:, 0] ** 2

    def l1_x(t, x, y, z, u1, u2):
        return costs.l1_x(t, x, y, z, u1, u2) + column(t) * x

    return dataclasses.replace(
        problem,
        coefficients=dataclasses.replace(co, b=b),
        costs=dataclasses.replace(costs, l1=l1, l1_x=l1_x),
    )


CASES = {
    "lattice": lambda: (lq_to_problem(coupled_lq_spec()), lattice(16)),
    "montecarlo": lambda: (lq_to_problem(coupled_lq_spec()), montecarlo(8, paths=256)),
    "montecarlo-2d": lambda: (lq_to_problem(random_lq_spec(3, Dims(2, 2, 2, 2, 2))),
                              montecarlo(4, paths=128, d=2)),
    "lattice-2d": lambda: (lq_to_problem(random_lq_spec(3, Dims(2, 2, 1, 2, 2))), lattice(8)),
    "nonlinear": lambda: (nonlinear_problem(), lattice(16)),
    "time-dependent": lambda: (_time_dependent_problem(), montecarlo(8, paths=256)),
}


# a paired costate solve runs on a member lattice only: its cases are the
# lattice ones, and the time-dependent problem on a lattice
PAIRED_CASES = {
    **{name: CASES[name] for name in ("lattice", "lattice-2d", "nonlinear")},
    "time-dependent-lattice": lambda: (_time_dependent_problem(), lattice(8)),
}


def _solved(name, seed=0):
    problem, backend = (CASES.get(name) or PAIRED_CASES[name])()
    u = random_controls(problem, backend, seed)
    config = FbsdeConfig(tol=1e-12)
    traj, _ = solve_fbsde(problem, u, backend, config)
    adjoints, _ = solve_adjoints(problem, traj, u, backend, config)
    return problem, backend, u, traj, adjoints


def _state(traj, u, j):
    return (float(traj.backend.grid.knots[j]), traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j])


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want), np.abs(got - want).max()


# ---------------------------------------------------------------------------
# the per-step loops


def _metric_loop(backend, ys_new, zs_new, ys_old, zs_old):
    worst = np.zeros(backend.members)
    N = len(zs_new)
    for j in range(N + 1):
        dy = ys_new[j] - ys_old[j]
        total = np.einsum("sk,sk->s", dy, dy)
        if j < N:
            dz = (zs_new[j] - zs_old[j]).reshape(dy.shape[0], -1)
            total = total + np.einsum("sk,sk->s", dz, dz)
        np.fmax(worst, backend.expect(j, total), out=worst)
    return worst


def _vi_loop(problem, traj, adjoints, u):
    backend = traj.backend
    out = []
    for player, adj in zip((1, 2), adjoints):
        box = problem.box(player)
        grads, worst = [], 0.0
        for j in range(backend.grid.steps):
            g = costate_combination(problem, player, f"u{player}", *_state(traj, u, j),
                                    adj.p[j], adj.q[j], adj.k[j])
            uj = u.player(player)[j]
            r = np.linalg.norm(uj - box.project(uj - g), axis=1)
            worst = max(worst, float(np.sqrt(backend.expect(j, r**2))))
            grads.append(g)
        out.append((grads, worst))
    return out


def _cost_loop(problem, traj, u, player):
    backend = traj.backend
    N, dt = backend.grid.steps, backend.grid.dt
    l = problem.costs.running(player)
    phi, h = problem.costs.terminal(player), problem.costs.initial(player)
    if backend.kind == "montecarlo":
        total = np.zeros(backend.scenario_count(0))
        for j in range(N):
            total += dt * l(*_state(traj, u, j))
        total += phi(traj.x[N]) + h(traj.y[0])
        P = total.shape[0]
        return float(total.mean()), float(total.std(ddof=1) / np.sqrt(P))
    value = 0.0
    for j in range(N):
        value = value + dt * backend.expect(j, l(*_state(traj, u, j)))
    value = value + backend.expect(N, phi(traj.x[N]))
    value = value + backend.expect(0, h(traj.y[0]))
    return (float(value) if np.ndim(value) == 0 else value), 0.0


def _pointwise_loop(problem, traj, adj, u, player, candidates):
    """The probe one step at a time, every candidate against the step's rows
    in one call."""
    worst, worst_loc, worst_alt, per_step = -np.inf, (0, 0), None, []
    for j in range(traj.backend.grid.steps):
        t, x, y, z, u1, u2 = _state(traj, u, j)
        costates = (adj.p[j], adj.q[j], adj.k[j])
        base = eval_hamiltonian(problem, player, t, x, y, z, u1, u2, *costates)
        S, C = base.shape[0], candidates.shape[0]
        tiled = [np.tile(a, (C,) + (1,) * (a.ndim - 1)) for a in (x, y, z, u1, u2, *costates)]
        tx, ty, tz, tu1, tu2, tp, tq, tk = tiled
        cu = np.repeat(candidates, S, axis=0)
        trial_u = (cu, tu2) if player == 1 else (tu1, cu)
        trial = eval_hamiltonian(problem, player, t, tx, ty, tz, *trial_u, tp, tq, tk)
        gain = base - trial.reshape(C, S)
        idx = np.argmax(gain, axis=0)
        step_best = gain[idx, np.arange(S)]
        per_step.append(step_best)
        s = int(np.argmax(step_best))
        if step_best[s] > worst:
            worst, worst_loc, worst_alt = float(step_best[s]), (j, s), candidates[idx[s]]
    return worst, worst_loc, worst_alt, per_step


# ---------------------------------------------------------------------------
# the comparisons


@pytest.mark.parametrize("name", CASES)
def test_update_metric_is_the_per_step_loop(name):
    problem, backend, u, traj, _ = _solved(name)
    other, _ = solve_fbsde(problem, random_controls(problem, backend, 1), backend)
    got = _update_metric(backend, traj.y, traj.z, other.y, other.z)
    _same(got, _metric_loop(backend, traj.y, traj.z, other.y, other.z))
    assert got[0] > 0.0


@pytest.mark.parametrize("name", CASES)
def test_residuals_and_gradients_are_the_per_step_loop(name):
    problem, _, u, traj, adjoints = _solved(name)
    vi = vi_residual(problem, traj, *adjoints, u)
    (grads1, rho1), (grads2, rho2) = _vi_loop(problem, traj, adjoints, u)
    assert (vi.rho1, vi.rho2) == (rho1, rho2)
    for got, want in ((vi.grad1, grads1), (vi.grad2, grads2)):
        assert isinstance(got, StepArray) and len(got) == len(want)
        for a, b in zip(got, want):
            _same(a, b)
    for player, adj, want in ((1, adjoints[0], grads1), (2, adjoints[1], grads2)):
        _same(control_gradient(problem, traj, adj, u, player).rows, np.concatenate(want))


@pytest.mark.parametrize("name", CASES)
def test_costs_are_the_per_step_loop(name):
    problem, _, u, traj, _ = _solved(name)
    for player in (1, 2):
        assert eval_cost(problem, traj, u, player) == _cost_loop(problem, traj, u, player)


@pytest.mark.parametrize("name, players", [
    *(pytest.param(name, (1,), id=f"players0-{name}") for name in CASES),
    *(pytest.param(name, (1, 2), id=f"players1-{name}") for name in PAIRED_CASES),
])
def test_costate_matrices_are_the_per_step_evaluation(name, players):
    problem, backend, u, traj, _ = _solved(name)
    view = backend if len(players) == 1 else backend.with_members(len(players))
    forward, backward = _step_partials(problem, traj, u, players, view)
    assert len(forward) == len(backward) == backend.grid.steps
    for j, (fwd, bwd) in enumerate(zip(forward, backward)):
        for var_names, got in ((("y", "z"), fwd), (("x",), bwd)):
            want = _costate_matrix(problem, players, var_names, _state(traj, u, j), view.stack)
            for a, b in zip(got, want, strict=True):
                _same(a, b)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("player", [1, 2])
def test_pointwise_probe_is_the_per_step_loop(name, player):
    problem, _, u, traj, adjoints = _solved(name)
    density = 9 if problem.dims.control_dim(player) > 1 else 21
    out = check_pointwise_min(problem, traj, adjoints[player - 1], u, player,
                              grid_density=density, radius=None, tol=1e-8)
    candidates = _control_grid(problem.box(player), density, None)
    worst, (step, scenario), alt, per_step = _pointwise_loop(
        problem, traj, adjoints[player - 1], u, player, candidates)
    assert out.violation == worst > 0.0
    assert (out.step, out.scenario) == (step, scenario)
    _same(out.best_alternative, alt)
    assert len(out.per_step_violation) == len(per_step)
    for got, want in zip(out.per_step_violation, per_step):
        _same(got, want)


def test_member_lattice_metric_and_costs_are_the_per_step_loop():
    # two control profiles stacked node-major on one lattice, as the oracle does
    problem, backend = lq_to_problem(coupled_lq_spec()), lattice(8)
    profiles = [random_controls(problem, backend, seed) for seed in (0, 1)]
    view = backend.with_members(2)
    u = ControlProcess(
        u1=[view.stack([p.u1[j] for p in profiles]) for j in range(backend.grid.steps)],
        u2=[view.stack([p.u2[j] for p in profiles]) for j in range(backend.grid.steps)],
    )
    traj, _ = solve_members(problem, u, view, FbsdeConfig(tol=1e-12))
    other, _ = solve_members(problem, u, view, FbsdeConfig(tol=1e-2))
    got = _update_metric(view, traj.y, traj.z, other.y, other.z)
    _same(got, _metric_loop(view, traj.y, traj.z, other.y, other.z))
    assert got.shape == (2,) and (got > 0.0).all()
    for player in (1, 2):
        j_got, _ = eval_cost(problem, traj, u, player)
        j_want, _ = _cost_loop(problem, traj, u, player)
        _same(j_got, j_want)


def test_control_rows_are_one_buffer_player_by_player():
    problem, backend = lq_to_problem(coupled_lq_spec()), lattice(4)
    u = random_controls(problem, backend)
    assert np.shares_memory(u.u1[2], u.flat) and np.shares_memory(u.u2[3], u.flat)
    steps = [a.ravel() for a in u.u1] + [a.ravel() for a in u.u2]
    _same(u.flat, np.concatenate(steps))


# ---------------------------------------------------------------------------
# the state sweeps through the LQ callbacks' sweep forms


SWEEP_CASES = {
    **{name: CASES[name] for name in ("lattice", "lattice-2d", "montecarlo", "montecarlo-2d")},
    "lattice-3-members": lambda: (lq_to_problem(random_lq_spec(3, Dims(2, 2, 1, 2, 2))),
                                  lattice(8).with_members(3)),
}


@pytest.mark.parametrize("name", SWEEP_CASES)
def test_state_sweeps_through_the_sweep_forms_are_the_per_step_calls(name):
    problem, backend = SWEEP_CASES[name]()
    u = random_controls(problem, backend)
    per_step = plain_callbacks(problem)
    traj, _ = solve_members(problem, u, backend, FbsdeConfig(tol=1e-12))
    want, _ = solve_members(per_step, u, backend, FbsdeConfig(tol=1e-12))
    for field in ("x", "y", "z"):
        _same(getattr(traj, field).rows, getattr(want, field).rows)
    # one pass each way at a pair that is not the fixed point
    ys, zs = (StepArray(np.sin(3.0 * a.rows), a.offsets) for a in (traj.y, traj.z))
    _same(forward_pass(problem, u, ys, zs, backend).rows,
          forward_pass(per_step, u, ys, zs, backend).rows)
    xs = StepArray(np.cos(2.0 * traj.x.rows), traj.x.offsets)
    got, wanted = backward_pass(problem, u, xs, backend), backward_pass(per_step, u, xs, backend)
    for a, b in zip(got[:2], wanted[:2]):
        _same(a.rows, b.rows)
    assert got[2] == wanted[2]


def test_state_sweeps_make_no_per_step_call_of_the_lq_values(monkeypatch):
    calls = []
    original = lq._MapValue.__call__

    def counted(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(lq._MapValue, "__call__", counted)
    problem, backend = lq_to_problem(coupled_lq_spec()), lattice(8)
    u = random_controls(problem, backend)
    solve_fbsde(problem, u, backend)
    assert calls == []
    solve_fbsde(plain_callbacks(problem), u, backend)
    co = problem.coefficients
    assert {id(c) for c in calls} == {id(co.b), id(co.sigma), id(co.f)}


@pytest.mark.parametrize("backend", [lattice(8), lattice(8).with_members(3), montecarlo(8, paths=64)],
                         ids=["lattice", "lattice-3-members", "montecarlo"])
def test_state_overflow_is_named_alike_on_both_paths(backend):
    spec = coupled_lq_spec()
    problem = lq_to_problem(dataclasses.replace(spec, drift=dataclasses.replace(spec.drift, A=[[1e200]])))
    u = random_controls(problem, backend)
    N = backend.grid.steps
    ys = StepArray(np.zeros((backend.offsets[N + 1], 1)), backend.offsets)
    zs = StepArray(np.zeros((backend.offsets[N], 1, 1)), backend.offsets[: N + 1])
    named = []
    for p in (problem, plain_callbacks(problem)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as err:
                forward_pass(p, u, ys, zs, backend)
        named.append((err.value.step, err.value.scenario, err.value.row))
    assert named[0] == named[1]
    assert named[0][0] >= 1


# ---------------------------------------------------------------------------
# the callback time contract


def test_time_dependent_callbacks_that_broadcast_t_pass_validation():
    report = validate_problem(_time_dependent_problem(), samples=40, seed=0, probe_radius=None)
    assert report.passed


@pytest.mark.parametrize("term, message", [
    # t (S,) against x (S, 1) broadcasts to (S, S)
    (lambda t, x: 0.1 * np.sin(t) * x, "rows at per-row times t differ"),
    # every row reads the mean time
    (lambda t, x: 0.1 * np.mean(t) * np.ones_like(x), "rows at per-row times t differ"),
    # an array t cannot be converted to a float
    (lambda t, x: 0.1 * float(t) * x, "fails at per-row times t"),
])
def test_callback_that_mishandles_per_row_times_is_named(term, message):
    problem = lq_to_problem(coupled_lq_spec())
    co = problem.coefficients

    def f(t, x, y, z, u1, u2):
        return co.f(t, x, y, z, u1, u2) + term(t, y)

    broken = dataclasses.replace(problem, coefficients=dataclasses.replace(co, f=f))
    with pytest.raises(ShapeValidationError, match=rf"^f: {message}"):
        validate_problem(broken, samples=20, seed=0, probe_radius=None)
