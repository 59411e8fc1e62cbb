"""Per-player and paired costate systems and the discrete
integration-by-parts residual."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fbsdegames import (
    ControlProcess,
    Dims,
    FbsdeConfig,
    NonFiniteCostateError,
    NonFiniteStateError,
    costate_combination,
    duality_residual,
    lq_to_problem,
    random_lq_spec,
    solve_adjoint,
    solve_adjoints,
    solve_fbsde,
)
from fbsdegames import adjoint, equilibrium
from fbsdegames.adjoint import _step_partials
from fbsdegames.cli import build_backend, load_config

from conftest import (
    ROUNDOFF_TOL,
    backward_only_spec,
    coupled_lq_spec,
    lattice,
    montecarlo,
    random_controls,
    reference_cases,
    zero_spec,
)


def _setup(spec, backend, tol=1e-12, u_values=None):
    problem = lq_to_problem(spec)
    if u_values is None:
        u = ControlProcess.midpoint(problem, backend)
    else:
        u = ControlProcess.constant(backend, *u_values)
    traj, diag = solve_fbsde(problem, u, backend, FbsdeConfig(tol=tol))
    assert diag.converged
    return problem, u, traj


class TestZeroProblem:
    def test_costates_take_boundary_values_everywhere(self):
        backend = lattice(12)
        problem, u, traj = _setup(zero_spec(), backend)
        adj, diag = solve_adjoint(problem, traj, u, 1, backend)
        # the costate map ignores its input here, so pass 1's output is
        # exact; the damped step goes halfway there (damping 0.5), the first
        # Anderson step lands on it, and pass 3 finds a zero residual
        assert diag.converged
        assert diag.iterations == 3
        assert diag.residual_history[-1] == 0.0
        for j in range(13):
            np.testing.assert_array_equal(adj.p[j], 1.0)
            np.testing.assert_array_equal(adj.k[j], 0.0)
        for qj in adj.q:
            np.testing.assert_array_equal(qj, 0.0)


def test_linear_running_cost_gives_time_to_go():
    # l1 = x with b = 0 and phi = 0 forces p(t) = T - t on the nose
    spec = zero_spec()
    spec = dataclasses.replace(
        spec, cost1=dataclasses.replace(spec.cost1, G=np.zeros((1, 1)), H=np.zeros((1, 1)))
    )
    problem = lq_to_problem(spec)
    costs = problem.costs
    linear = dataclasses.replace(
        costs,
        l1=lambda t, x, y, z, u1, u2: x[:, 0],
        l1_x=lambda t, x, y, z, u1, u2: np.ones((x.shape[0], 1)),
    )
    problem = dataclasses.replace(problem, costs=linear)
    backend = lattice(16)
    u = ControlProcess.midpoint(problem, backend)
    traj, _ = solve_fbsde(problem, u, backend)
    adj, diag = solve_adjoint(problem, traj, u, 1, backend)
    assert diag.converged
    dt = backend.grid.dt
    for j in range(17):
        np.testing.assert_allclose(adj.p[j], (16 - j) * dt, rtol=1e-13)


def test_backward_state_costate_compounds_exactly():
    # h1 = y^2/2, f = alpha*y: k starts at -y(0) and grows by (1 + alpha dt)
    alpha, steps = 0.5, 32
    spec = backward_only_spec(alpha, 1.0)
    spec = dataclasses.replace(
        spec, cost1=dataclasses.replace(spec.cost1, H=np.eye(1))
    )
    backend = lattice(steps)
    problem, u, traj = _setup(spec, backend)
    adj, diag = solve_adjoint(problem, traj, u, 1, backend)
    assert diag.converged
    dt = backend.grid.dt
    y0 = traj.y[0][0, 0]
    for j in (0, 1, steps // 2, steps):
        expected = -y0 * (1.0 + alpha * dt) ** j
        np.testing.assert_allclose(adj.k[j], expected, rtol=1e-12)
    for j in (0, steps):
        np.testing.assert_array_equal(adj.p[j], 0.0)


def test_costate_combination_matches_lq_expansion():
    # H_u1 for the LQ family is D1' p + (sigma_u1)' q - D1_f' k + N u1,
    # assembled here directly from the LQGameSpec matrices
    spec = coupled_lq_spec()
    problem = lq_to_problem(spec)
    rng = np.random.default_rng(4)
    S = 7
    x, y = rng.normal(size=(S, 1)), rng.normal(size=(S, 1))
    z = rng.normal(size=(S, 1, 1))
    u1, u2 = rng.normal(size=(S, 1)), rng.normal(size=(S, 1))
    p, k = rng.normal(size=(S, 1)), rng.normal(size=(S, 1))
    q = rng.normal(size=(S, 1, 1))
    got = costate_combination(problem, 1, "u1", 0.3, x, y, z, u1, u2, p, q, k)
    expected = (
        p @ spec.drift.D1
        + q[:, :, 0] @ np.zeros((1, 1))
        - k @ spec.driver.D1
        + u1 @ spec.cost1.N
    )
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_doubling_terminal_data_doubles_all_processes():
    # every update is linear and 2.0 scales exactly in binary floats
    backend = lattice(16)
    p1, u1v, t1 = _setup(backward_only_spec(0.5, 1.0), backend)
    p2, u2v, t2 = _setup(backward_only_spec(0.5, 2.0), backend)
    for a, b in zip(t1.y, t2.y):
        np.testing.assert_array_equal(2.0 * a, b)
    spec1 = dataclasses.replace(
        backward_only_spec(0.5, 1.0),
        cost1=dataclasses.replace(backward_only_spec(0.5, 1.0).cost1, H=np.eye(1)),
    )
    spec2 = dataclasses.replace(spec1, xi=np.array([2.0]))
    prob1, uu1, tr1 = _setup(spec1, backend)
    prob2, uu2, tr2 = _setup(spec2, backend)
    adj1, _ = solve_adjoint(prob1, tr1, uu1, 1, backend)
    adj2, _ = solve_adjoint(prob2, tr2, uu2, 1, backend)
    for a, b in zip(adj1.k, adj2.k):
        np.testing.assert_array_equal(2.0 * a, b)


def test_adjoint_warm_start_converges():
    backend = lattice(16)
    problem, u, traj = _setup(coupled_lq_spec(), backend)
    adj, cold = solve_adjoint(problem, traj, u, 1, backend)
    warm_init = (adj.p, adj.q)
    adj2, warm = solve_adjoint(problem, traj, u, 1, backend, initial=warm_init)
    assert warm.converged
    assert warm.iterations <= cold.iterations


class TestDuality:
    def _residual(self, steps, shift=0.5):
        backend = lattice(steps)
        problem, u, traj = _setup(coupled_lq_spec(), backend)
        u_bar = ControlProcess.constant(backend, shift, -shift)
        traj_bar, diag = solve_fbsde(problem, u_bar, backend, FbsdeConfig(tol=1e-12))
        assert diag.converged
        adj_bar, _ = solve_adjoint(problem, traj_bar, u_bar, 1, backend)
        return duality_residual(problem, traj, traj_bar, adj_bar, u, u_bar, backend)

    def test_identical_controls_give_zero_residual(self):
        backend = lattice(16)
        problem, u, traj = _setup(coupled_lq_spec(), backend)
        adj, _ = solve_adjoint(problem, traj, u, 1, backend)
        report = duality_residual(problem, traj, traj, adj, u, u, backend)
        assert report.residual == pytest.approx(0.0, abs=1e-14)

    def test_residual_shrinks_with_dt(self):
        r32 = self._residual(32)
        r64 = self._residual(64)
        assert abs(r64.residual) < abs(r32.residual)
        assert abs(r32.residual) / abs(r64.residual) > 1.3

    def test_sub_identities_also_shrink(self):
        r32 = self._residual(32)
        r64 = self._residual(64)
        assert abs(r64.forward_identity) < abs(r32.forward_identity)
        assert abs(r64.backward_identity) < abs(r32.backward_identity)

    def test_combination_consistency(self):
        # the reported residual is exactly forward minus backward identity
        rep = self._residual(32)
        assert rep.residual == pytest.approx(
            rep.forward_identity - rep.backward_identity, abs=1e-14
        )

    @pytest.mark.parametrize("spec, make_backend", [
        (coupled_lq_spec(), lambda: montecarlo(8, paths=512)),
        (random_lq_spec(3, Dims(2, 2, 2, 2, 2)), lambda: montecarlo(8, paths=512, d=2)),
    ], ids=["coupled", "random-2d"])
    def test_monte_carlo_matches_the_per_step_sums(self, spec, make_backend):
        # duality_residual evaluates every pairing over all rows at once;
        # here each step's pairings are evaluated and averaged on their own
        backend = make_backend()
        problem = lq_to_problem(spec)
        u, u_bar = (random_controls(problem, backend, seed=s) for s in (1, 2))
        traj, traj_bar = (solve_fbsde(problem, c, backend, FbsdeConfig(tol=1e-12))[0]
                          for c in (u, u_bar))
        adj_bar, _ = solve_adjoint(problem, traj_bar, u_bar, 2, backend)
        report = duality_residual(problem, traj, traj_bar, adj_bar, u, u_bar, backend)
        co, knots, dt = problem.coefficients, backend.grid.knots, backend.grid.dt
        sums = np.zeros(6)
        for j in range(backend.grid.steps):
            args = (float(knots[j]), traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j])
            args_bar = (float(knots[j]), traj_bar.x[j], traj_bar.y[j], traj_bar.z[j],
                        u_bar.u1[j], u_bar.u2[j])
            costates = (adj_bar.p[j], adj_bar.q[j], adj_bar.k[j])
            grads = [costate_combination(problem, 2, var, *args_bar, *costates).reshape(a.shape)
                     for var, a in zip("xyz", args[1:4])]
            terms = [g * (a - b) for g, a, b in zip(grads, args[1:4], args_bar[1:4])]
            terms += [c * (getattr(co, name)(*args) - getattr(co, name)(*args_bar))
                      for c, name in zip(costates, ("b", "sigma", "f"))]
            sums += [dt * float(backend.expect(j, term.reshape(term.shape[0], -1).sum(axis=1)))
                     for term in terms]
        got = [report.integral_gx, report.integral_gy, report.integral_gz,
               report.integral_pb, report.integral_qsigma, report.integral_kf]
        _close(np.array(got), sums)
        gx, gy, gz, pb, qs, kf = sums
        want = report.terminal_term - report.initial_term + gx + gy + gz - (pb + qs - kf)
        _close(np.array([report.residual]), np.array([want]))

    def test_shape_guard(self):
        backend = lattice(16)
        other = lattice(8)
        problem, u, traj = _setup(coupled_lq_spec(), backend)
        problem8, u8, traj8 = _setup(coupled_lq_spec(), other)
        adj8, _ = solve_adjoint(problem8, traj8, u8, 1, other)
        with pytest.raises(ValueError):
            duality_residual(problem, traj, traj8, adj8, u, u8, backend)


def _close(got, ref):
    scale = 1.0 + np.abs(ref).max()
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=ROUNDOFF_TOL * scale)


def _dense_jacobians(problem):
    """The same problem with each coefficient Jacobian returned as a dense
    per-scenario array instead of a view shared by all scenarios."""
    co = problem.coefficients

    def dense(fn):
        return lambda *args: np.array(fn(*args))

    names = [f.name for f in dataclasses.fields(co) if "_" in f.name]
    jacobians = {name: dense(getattr(co, name)) for name in names}
    return dataclasses.replace(problem, coefficients=dataclasses.replace(co, **jacobians))


@pytest.mark.parametrize("spec, make_backend", reference_cases())
@pytest.mark.parametrize("player", [1, 2])
@pytest.mark.parametrize("jacobians", ["shared", "dense"])
def test_solved_costates_satisfy_recursions_of_costate_combination(
    spec, make_backend, player, jacobians
):
    # k holds its forward step at the returned triple by construction; p and q
    # hold their backward step once the iteration has reached the roundoff
    # floor, which tol=1e-28 on the mean-square update enforces
    problem = lq_to_problem(spec)
    if jacobians == "dense":
        problem = _dense_jacobians(problem)
    backend = make_backend()
    u = random_controls(problem, backend)
    deep = FbsdeConfig(tol=1e-28, max_picard=200, damping=1.0)
    traj, _ = solve_fbsde(problem, u, backend, deep)
    adj, diag = solve_adjoint(problem, traj, u, player, backend, deep)
    assert diag.converged
    m, d = problem.dims.m, problem.dims.d
    dt = backend.grid.dt
    regressors = traj.x if backend.kind == "montecarlo" else [None] * len(traj.x)
    for j in range(backend.grid.steps):
        state = (float(backend.grid.knots[j]), traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j])
        p, q, k = adj.p[j], adj.q[j], adj.k[j]
        gy = costate_combination(problem, player, "y", *state, p, q, k)
        gz = costate_combination(problem, player, "z", *state, p, q, k)
        k_next = backend.step_forward(j, k, -gy, -gz.reshape(-1, m, d), np.empty_like(adj.k[j + 1]))
        _close(adj.k[j + 1], k_next)
        qv, _ = backend.cond_exp_increment(j, adj.p[j + 1], regressors[j])
        p_hat, _ = backend.cond_exp(j, adj.p[j + 1], regressors[j])
        _close(q, qv / dt)
        gx = costate_combination(problem, player, "x", *state, p_hat, qv / dt, k)
        _close(p, p_hat + gx * dt)


@pytest.mark.parametrize(
    "jacobians, players",
    [("shared", (1,)), ("dense", (1,)), ("shared", (1, 2)), ("dense", (1, 2))],
    ids=["shared", "dense", "shared-paired", "dense-paired"],
)
def test_step_matrices_stay_shared_when_the_jacobians_are(jacobians, players):
    # LQ Jacobians are views with stride 0 over scenarios; the per-solve step
    # matrices keep that, so their memory grows with neither the scenario
    # count nor the players of a paired solve.  A lone player's solve runs
    # on Monte Carlo, a paired one on a member lattice (the lattice needs
    # d = 1)
    if players == (1,):
        problem = lq_to_problem(random_lq_spec(3, Dims(2, 2, 2, 2, 2)))
        backend = view = montecarlo(4, paths=64, d=2)
    else:
        problem = lq_to_problem(random_lq_spec(3, Dims(2, 2, 1, 2, 2)))
        backend = lattice(4)
        view = backend.with_members(len(players))
    if jacobians == "dense":
        problem = _dense_jacobians(problem)
    u = random_controls(problem, backend)
    traj, _ = solve_fbsde(problem, u, backend)
    forward, backward = _step_partials(problem, traj, u, players, view)
    dims = problem.dims
    R = dims.n + dims.n * dims.d + dims.m
    for j, ((mat_f, l_f), (mat_b, l_b)) in enumerate(zip(forward, backward, strict=True)):
        rows = view.scenario_count(j)
        assert mat_f.shape == (rows, dims.m + dims.m * dims.d, R)
        assert mat_b.shape == (rows, dims.n, R)
        assert l_f.shape == (rows, dims.m + dims.m * dims.d) and l_b.shape == (rows, dims.n)
        shared = mat_f.strides[0] == 0 and mat_b.strides[0] == 0
        assert shared == (jacobians == "shared")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _paired_case(name):
    """(problem, backend, fbsde config) of a paired-solve case."""
    if name.endswith(".json"):
        cfg = load_config(CONFIGS / name)
        return cfg.problem, build_backend(cfg), cfg.fbsde
    config = FbsdeConfig(tol=1e-12)
    if name == "montecarlo-256":
        return lq_to_problem(coupled_lq_spec()), montecarlo(16, paths=256), config
    problem = lq_to_problem(random_lq_spec(11, Dims(2, 2, 2, 2, 2)))
    if name == "montecarlo-2d-dense":
        problem = _dense_jacobians(problem)
    return problem, montecarlo(8, paths=256, d=2), config


def _assert_same_costates(got, want):
    assert got.player == want.player
    for field in ("k", "p", "q"):
        for a, b in zip(getattr(got, field), getattr(want, field), strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("start", ["cold", "warm"])
@pytest.mark.parametrize("case", [
    "coupled_game.json",
    "single_player_lqr.json",  # player 2 inert: no control, k2 = 0, empty cost
    "montecarlo-256",
    "montecarlo-2d",  # d = 2 runs step_forward's Brownian contraction
    "montecarlo-2d-dense",  # per-scenario Jacobians, stacked per player
])
def test_paired_solve_is_each_solve_alone(case, start):
    problem, backend, config = _paired_case(case)
    u = random_controls(problem, backend)
    traj, _ = solve_fbsde(problem, u, backend, config)
    initial = None
    if start == "warm":
        other = random_controls(problem, backend, seed=1)
        other_traj, _ = solve_fbsde(problem, other, backend, config)
        initial = tuple(
            (adj.p, adj.q)
            for adj, _ in (solve_adjoint(problem, other_traj, other, i, backend, config)
                           for i in (1, 2))
        )
    alone = [
        solve_adjoint(problem, traj, u, i, backend, config,
                      initial=None if initial is None else initial[i - 1])
        for i in (1, 2)
    ]
    adjoints, diagnostics = solve_adjoints(problem, traj, u, backend, config, initial)
    for (want, want_diag), got, diag in zip(alone, adjoints, diagnostics, strict=True):
        assert diag == want_diag
        _assert_same_costates(got, want)


def test_paired_ridge_fallbacks_count_each_players_own_passes():
    # every path starts at x(0), so step 0's two fits take the ridge fallback
    # on every pass; player 2 needs one pass more than player 1 at these
    # controls, and that pass must not add to player 1's count
    problem, backend, config = _paired_case("montecarlo-2d")
    u = random_controls(problem, backend, seed=19)
    traj, _ = solve_fbsde(problem, u, backend, config)
    _, (d1, d2) = solve_adjoints(problem, traj, u, backend, config)
    assert d1.iterations < d2.iterations
    assert d1.ridge_fallbacks == 2 * d1.iterations
    assert d2.ridge_fallbacks == 2 * d2.iterations


@pytest.mark.parametrize("make_backend", [lambda: lattice(64), lambda: montecarlo(16, paths=256)],
                         ids=["lattice", "montecarlo"])
@pytest.mark.parametrize("failing", [(1,), (2,), (1, 2)], ids=["player1", "player2", "both"])
def test_paired_solve_fails_as_the_first_failing_solve_alone(failing, make_backend):
    # x(T) = 1e308 makes a player whose terminal and running costs see x
    # overflow, and its costate k turns non-finite; a player whose costs
    # ignore x stays finite.  One lattice node is enough (q differences
    # neighbours over sqrt(dt)); a regression averages one path away, so on
    # Monte Carlo every path gets it.  The paired solve names the
    # failing player's own step and scenario (not its stacked row); with two
    # failures at the same step and scenario it is player 1's
    spec = coupled_lq_spec()
    blind = dataclasses.replace(spec.cost1, Q=np.zeros((1, 1)), G=np.zeros((1, 1)))
    spec = dataclasses.replace(
        spec, **{f"cost{i}": blind for i in (1, 2) if i not in failing})
    backend = make_backend()
    problem, u, traj = _setup(spec, backend)
    x_end = traj.x[-1].copy()
    x_end[40 if backend.kind == "lattice" else slice(None)] = 1e308
    huge = dataclasses.replace(traj, x=traj.x[:-1] + (x_end,))
    errors = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i in (1, 2):
            if i in failing:
                with pytest.raises(NonFiniteStateError) as alone:
                    solve_adjoint(problem, huge, u, i, backend)
                errors[i] = alone.value
            else:
                assert solve_adjoint(problem, huge, u, i, backend)[1].converged
        with pytest.raises(NonFiniteStateError) as paired:
            solve_adjoints(problem, huge, u, backend)
    want = errors[failing[0]]
    assert (paired.value.step, paired.value.scenario) == (want.step, want.scenario)
    assert str(paired.value) == str(want)


@pytest.mark.parametrize("make_backend", [lambda: lattice(16), lambda: montecarlo(8, paths=64)],
                         ids=["lattice", "montecarlo"])
@pytest.mark.parametrize("y_step, k_step", [(0, 0), (5, 6)], ids=["k0", "k-sweep"])
def test_nonfinite_k_names_its_player_and_step(make_backend, y_step, k_step):
    # p and q stay finite; player 2's k turns non-finite: at k[0] = -H y(0)
    # when y(0) = 10 meets H = 1e308, or at k[6] when l_y = R y(5) overflows
    spec = coupled_lq_spec()
    cost2 = dataclasses.replace(spec.cost2, H=np.array([[1e308]]), R=np.array([[1e300]]))
    backend = make_backend()
    problem, u, traj = _setup(dataclasses.replace(spec, cost2=cost2), backend)
    ys = list(traj.y)
    ys[y_step] = np.full_like(ys[y_step], 10.0 if y_step == 0 else 1e10)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteCostateError) as err:
        solve_adjoints(problem, dataclasses.replace(traj, y=tuple(ys)), u, backend)
    assert (err.value.player, err.value.step, err.value.scenario) == (2, k_step, 0)
    assert str(err.value) == f"non-finite costate of player 2 at step {k_step}, scenario 0"


def test_one_paired_costate_solve_per_evaluation(monkeypatch):
    labels = []
    original = adjoint.damped_picard

    def counting(*args):
        labels.append(args[-1])
        return original(*args)

    monkeypatch.setattr(adjoint, "damped_picard", counting)
    problem, backend, config = _paired_case("coupled_game.json")
    u = ControlProcess.midpoint(problem, backend)
    state = equilibrium._evaluate(problem, u, backend, config)
    assert labels == ["costate"]
    equilibrium._evaluate(problem, u, backend, config, warm=state.warm())
    assert labels == ["costate"] * 2


@pytest.mark.parametrize("make_backend, members", [
    (lambda: lattice(16), [2]),
    (lambda: montecarlo(8, paths=256), [1, 1]),
], ids=["lattice", "montecarlo"])
def test_costates_pair_on_the_lattice_and_solve_alone_on_monte_carlo(
        monkeypatch, make_backend, members):
    # pairing shares the per-step work of a lattice; on Monte Carlo each
    # player's regressions cost the same alone, so each player is its own
    # one-member solve on the plain backend
    calls = []
    original = adjoint.damped_picard

    def recording(forward, backward, start, solver_backend, config, label):
        calls.append((label, solver_backend.members, solver_backend is backend))
        return original(forward, backward, start, solver_backend, config, label)

    backend = make_backend()
    problem, u, traj = _setup(coupled_lq_spec(), backend)
    monkeypatch.setattr(adjoint, "damped_picard", recording)
    solve_adjoints(problem, traj, u, backend, FbsdeConfig(tol=1e-12))
    # a paired solve runs on the lattice's two-member copy, a lone one on the backend itself
    assert calls == [("costate", b, b == 1) for b in members]


def test_both_players_costates_hold_no_more_memory_than_one():
    # on Monte Carlo the players' costates are solved one at a time, so the
    # pair's peak is one player's iterates and Anderson history, not two
    backend = montecarlo(16, paths=256)
    problem = lq_to_problem(coupled_lq_spec())
    config = FbsdeConfig(tol=1e-12)
    u = random_controls(problem, backend)
    traj, _ = solve_fbsde(problem, u, backend, config)

    def peak(players):
        tracemalloc.start()
        try:
            solve_adjoints(problem, traj, u, backend, config, players=players)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone, paired = peak((1,)), peak((1, 2))
    assert paired <= 1.2 * alone, (paired, alone)
