"""Nash search, cost evaluation, directional derivatives, enumeration oracle."""

import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest

from fbsdegames import (
    AffineMap,
    BudgetExceededError,
    ControlBox,
    ControlProcess,
    Dims,
    FbsdeConfig,
    GradientConfig,
    LQGameSpec,
    NonConvergenceError,
    NonFiniteCostError,
    QuadraticCost,
    brute_force_nash,
    build_certificate,
    eval_cost,
    gateaux_derivative,
    lq_to_problem,
    random_lq_spec,
    solve_fbsde,
    solve_nash,
    vi_residual,
)
from fbsdegames import adjoint, equilibrium, fbsde, hamiltonian
from fbsdegames.cli import OracleOptions, build_backend, load_config, main, plain

from conftest import (
    coupled_lq_spec,
    lattice,
    montecarlo,
    nonlinear_problem,
    riccati_spec,
    two_step_spec,
    zero_spec,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ORACLE_CONFIG = CONFIGS / "two_step_oracle.json"

# chunk sizes for the grid oracle's batched solves; None keeps the default
CHUNKS = [pytest.param(1, id="members-1"), pytest.param(7, id="members-7"),
          pytest.param(None, id="default")]


def _chunked(monkeypatch, members):
    if members is not None:
        monkeypatch.setattr(equilibrium, "_ORACLE_MEMBERS", members)


def _nash(spec, backend, **grad_kw):
    problem = lq_to_problem(spec)
    kw = dict(step=0.5, max_iterations=400, tolerance=1e-8)
    kw.update(grad_kw)
    report = solve_nash(
        problem, backend,
        fbsde_config=FbsdeConfig(tol=1e-12),
        grad_config=GradientConfig(**kw),
    )
    return problem, report


class TestEvalCost:
    def test_unit_running_cost_integrates_to_horizon(self):
        problem = lq_to_problem(zero_spec())
        costs = dataclasses.replace(
            problem.costs,
            l1=lambda t, x, y, z, u1, u2: np.ones(x.shape[0]),
            phi1=lambda x: np.zeros(x.shape[0]),
            h1=lambda y: np.zeros(y.shape[0]),
        )
        problem = dataclasses.replace(problem, costs=costs)
        backend = lattice(16)
        u = ControlProcess.midpoint(problem, backend)
        traj, _ = solve_fbsde(problem, u, backend)
        j1, stderr = eval_cost(problem, traj, u, 1)
        assert j1 == pytest.approx(1.0, abs=1e-14)
        assert stderr == 0.0

    def test_monte_carlo_reports_positive_stderr(self):
        spec = zero_spec()
        spec = dataclasses.replace(
            spec, diffusion=(dataclasses.replace(spec.diffusion[0], const=np.array([0.5])),)
        )
        problem = lq_to_problem(spec)
        backend = montecarlo(steps=8, paths=512, seed=3)
        u = ControlProcess.midpoint(problem, backend)
        traj, _ = solve_fbsde(problem, u, backend)
        j1, stderr = eval_cost(problem, traj, u, 1)  # phi = x(T)^2/2 varies by path
        assert stderr > 0.0
        assert j1 == pytest.approx(0.5 * (1.0 + 0.25), rel=0.1)  # E x^2 = 1 + sigma^2 T


class TestGateaux:
    def test_zero_direction_gives_zero(self):
        problem = lq_to_problem(coupled_lq_spec())
        backend = lattice(16)
        u = ControlProcess.midpoint(problem, backend)
        v = [np.zeros_like(a) for a in u.u1]
        rep = gateaux_derivative(problem, u, v, 1, backend, FbsdeConfig(tol=1e-12))
        assert rep.adjoint_form == pytest.approx(0.0, abs=1e-12)
        assert rep.finite_diff_form == pytest.approx(0.0, abs=1e-9)

    def test_adjoint_form_tracks_finite_difference(self):
        spec = coupled_lq_spec(with_control_in_dynamics=False)
        problem = lq_to_problem(spec)
        backend = lattice(32)
        u = ControlProcess.constant(backend, 0.3, -0.2)
        rng = np.random.default_rng(8)
        for player in (1, 2):
            v = [rng.uniform(-1, 1, a.shape) for a in u.player(player)]
            rep = gateaux_derivative(
                problem, u, v, player, backend, FbsdeConfig(tol=1e-13), epsilon=1e-5
            )
            assert rep.feasible
            scale = max(1.0, abs(rep.adjoint_form))
            assert abs(rep.gap) / scale < 1e-3

    def test_inert_player_has_zero_derivative(self):
        problem = lq_to_problem(riccati_spec())
        backend = lattice(8)
        u = ControlProcess.midpoint(problem, backend)
        v = [np.zeros((j + 1, 0)) for j in range(8)]
        rep = gateaux_derivative(problem, u, v, 2, backend)
        assert rep.adjoint_form == 0.0


class TestSolveNash:
    def test_coupled_game_converges_with_monotone_merit(self):
        _, report = _nash(coupled_lq_spec(), lattice(24))
        assert report.converged
        assert max(report.rho1, report.rho2) <= 1e-8
        merits = [max(r.rho1, r.rho2) for r in report.history]
        assert all(b < a for a, b in zip(merits, merits[1:]))
        assert report.history[-1].step_size == 0.0  # converged row

    def test_controls_absent_game_trivially_stationary(self):
        dims = Dims(n=1, m=1, d=1, k1=0, k2=0)
        spec = LQGameSpec(
            dims=dims,
            horizon=1.0,
            initial=np.ones(1),
            xi=np.zeros(1),
            drift=AffineMap.zeros(1, dims),
            diffusion=(AffineMap.zeros(1, dims),),
            driver=AffineMap.zeros(1, dims),
            cost1=dataclasses.replace(QuadraticCost.zeros(dims, 0, 0), G=np.eye(1)),
            cost2=QuadraticCost.zeros(dims, 0, 0),
            u1_box=ControlBox.unbounded(0),
            u2_box=ControlBox.unbounded(0),
        )
        problem, report = _nash(spec, lattice(8))
        assert report.converged
        assert report.iterations == 1
        assert report.rho1 == 0.0 and report.rho2 == 0.0
        assert report.j1 == 0.5

    def test_symmetric_game_yields_identical_controls(self):
        spec = coupled_lq_spec()
        sym_drift = dataclasses.replace(spec.drift, D2=spec.drift.D1)
        sym_driver = dataclasses.replace(spec.driver, D2=spec.driver.D1)
        spec = dataclasses.replace(spec, drift=sym_drift, driver=sym_driver)
        _, report = _nash(spec, lattice(16))
        assert report.converged
        for a, b in zip(report.controls.u1, report.controls.u2):
            np.testing.assert_array_equal(a, b)

    def test_warm_started_rerun_stays_at_equilibrium(self):
        # inner tol 1e-22 (squared metric) keeps the residual recomputation
        # noise orders below the outer tolerance, so the rerun stops at once
        problem = lq_to_problem(coupled_lq_spec())
        inner = FbsdeConfig(tol=1e-22, max_picard=100)
        outer = GradientConfig(step=0.5, max_iterations=400, tolerance=1e-8)
        report = solve_nash(problem, lattice(16), fbsde_config=inner, grad_config=outer)
        assert report.converged
        rerun = solve_nash(
            problem, lattice(16), fbsde_config=inner, grad_config=outer,
            initial=report.controls,
        )
        assert rerun.converged
        assert rerun.iterations == 1
        assert max(rerun.rho1, rerun.rho2) <= 1e-8

    def test_no_unilateral_grid_deviation_improves(self):
        problem, report = _nash(coupled_lq_spec(), lattice(12), tolerance=1e-10)
        backend = lattice(12)
        u_star = report.controls
        for delta in (-0.4, -0.1, 0.15, 0.5):
            u1_alt = tuple(
                problem.u1_box.project(a + delta) for a in u_star.u1
            )
            u_alt = u_star.replace_player(1, u1_alt)
            traj, _ = solve_fbsde(problem, u_alt, backend, FbsdeConfig(tol=1e-12))
            j1_alt, _ = eval_cost(problem, traj, u_alt, 1)
            assert report.j1 <= j1_alt + 1e-6

    def test_iteration_cap_returns_unconverged_report(self):
        _, report = _nash(coupled_lq_spec(), lattice(12), max_iterations=2, tolerance=1e-12)
        assert not report.converged
        assert len(report.history) == 2
        assert report.certificate.verdict in ("refuted", "inconclusive", "certified")

    @pytest.mark.parametrize(
        "backend, max_iterations",
        [
            pytest.param(lambda: lattice(12), 400, id="lattice-converged"),
            pytest.param(lambda: lattice(12), 2, id="lattice-capped"),
            pytest.param(lambda: montecarlo(6, paths=256), 3, id="montecarlo-capped"),
        ],
    )
    def test_report_carries_the_certified_state(self, backend, max_iterations):
        problem, report = _nash(coupled_lq_spec(), backend(), max_iterations=max_iterations)
        u, traj, adjoints = report.controls, report.trajectory, report.adjoints
        assert [adj.player for adj in adjoints] == [1, 2]
        vi = vi_residual(problem, traj, *adjoints, u)
        assert (vi.rho1, vi.rho2) == (report.rho1, report.rho2)
        assert (report.j1, report.stderr1) == eval_cost(problem, traj, u, 1)
        assert (report.j2, report.stderr2) == eval_cost(problem, traj, u, 2)
        assert plain(build_certificate(problem, traj, adjoints, u)) == plain(report.certificate)

    def test_inert_opponent_single_player_solve(self):
        problem, report = _nash(riccati_spec(), lattice(16), step=0.3)
        assert report.converged
        assert report.rho2 == 0.0

    def test_each_evaluation_computes_the_control_gradients_once(self, monkeypatch):
        # a trial step reads the gradients the VI residual already computed
        counts = {"evaluate": 0, "gradient": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(equilibrium, "_evaluate", counted("evaluate", equilibrium._evaluate))
        gradient = counted("gradient", hamiltonian.control_gradient)
        monkeypatch.setattr(hamiltonian, "control_gradient", gradient)
        monkeypatch.setattr(equilibrium, "control_gradient", gradient)
        _, report = _nash(coupled_lq_spec(), lattice(8), max_iterations=4)
        assert counts["evaluate"] > report.iterations > 1
        assert counts["gradient"] == 2 * counts["evaluate"]


def _counted_solve(tmp_path, monkeypatch, raw):
    """`solve` of config `raw` through the command line: every control
    profile it evaluated, history.csv as an array and report.json."""
    evaluated = []
    evaluate = equilibrium._evaluate

    def recording(problem, u, backend, config, warm=None):
        evaluated.append(u)
        return evaluate(problem, u, backend, config, warm=warm)

    monkeypatch.setattr(equilibrium, "_evaluate", recording)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    history = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1, ndmin=2)
    return evaluated, history, json.loads((out / "report.json").read_text())


class TestAnderson:
    def test_binding_box_keeps_trials_feasible_and_merit_falling(self, tmp_path, monkeypatch):
        raw = json.loads((CONFIGS / "coupled_game.json").read_text())
        raw.update(steps=16, box1={"radius": 0.2}, box2={"radius": 0.2})
        evaluated, history, report = _counted_solve(tmp_path, monkeypatch, raw)
        box = ControlBox.symmetric(1, 0.2)
        assert all(box.contains(a) for u in evaluated for a in u.u1 + u.u2)
        controls = np.loadtxt(tmp_path / "solve" / "controls.csv", delimiter=",", skiprows=1)
        assert np.count_nonzero(np.abs(controls[:, 2:]) == 0.2) > 0  # the box binds
        merit = np.maximum(history[:, 3], history[:, 4])
        assert np.all(np.diff(merit) < 0.0)
        assert report["converged"] and report["verdict"] == "certified"
        assert history[:, 7].sum() >= 1  # an accepted Anderson point
        assert history[:, 6].sum() == len(evaluated)

    @pytest.mark.parametrize("name, evaluations", [
        ("coupled_game", 6), ("two_step_oracle", 8), ("single_player_lqr", 6)])
    def test_shipped_configs_take_pinned_evaluation_counts(
            self, tmp_path, monkeypatch, name, evaluations):
        # a counter, not a timing: more evaluations mean a slower solve
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        evaluated, history, report = _counted_solve(tmp_path, monkeypatch, raw)
        assert report["converged"]
        assert len(evaluated) == evaluations
        assert history[:, 6].sum() == evaluations

    def test_history_counts_every_inner_pass(self, tmp_path, monkeypatch):
        # a paired costate solve runs until both players stop, so it counts
        # its longest member's passes
        passes = {"picard": 0, "costate": 0}
        original = fbsde.damped_picard

        def counting(*args):
            out = original(*args)
            passes[args[-1]] += max(diag.iterations for diag in out[3])
            return out

        monkeypatch.setattr(fbsde, "damped_picard", counting)
        monkeypatch.setattr(adjoint, "damped_picard", counting)
        raw = json.loads((CONFIGS / "coupled_game.json").read_text())
        raw.update(steps=16)
        _, history, _ = _counted_solve(tmp_path, monkeypatch, raw)
        assert history[:, 8].sum() == passes["picard"] > 0
        assert history[:, 9].sum() == passes["costate"] > 0

    def test_solve_residuals_hold_up_at_a_tight_inner_tolerance(self, tmp_path, monkeypatch):
        # larger outer steps make the warm starts colder; the residuals
        # solve reports must still be those of its controls, solved tightly
        raw = json.loads((CONFIGS / "coupled_game.json").read_text())
        _, _, report = _counted_solve(tmp_path, monkeypatch, raw)
        raw["fbsde"] = {"tol": 1e-28, "max_picard": 200}
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(raw))
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "verify"),
                     "--controls", str(tmp_path / "solve" / "controls.csv")])
        assert code == 0
        recheck = json.loads((tmp_path / "verify" / "certificate.json").read_text())
        for key in ("rho1", "rho2"):
            assert abs(report[key] - recheck[key]) <= 0.05 * recheck[key]


# the inner solves of the oracle tests, tighter than FbsdeConfig()
ORACLE_FBSDE = FbsdeConfig(tol=1e-12, max_picard=200)


def oracle(problem, backend, grid1, grid2, budget=OracleOptions.budget):
    """brute_force_nash at OracleOptions' round cap, solving to ORACLE_FBSDE."""
    return brute_force_nash(
        problem, backend, grid1, grid2, budget, OracleOptions.max_rounds, ORACLE_FBSDE)


class TestBruteForce:
    def _tiny(self):
        spec = dataclasses.replace(coupled_lq_spec(), horizon=0.5)
        return lq_to_problem(spec), lattice(2, horizon=0.5)

    def test_budget_of_one_is_exceeded(self):
        problem, backend = self._tiny()
        grid = np.linspace(-1, 1, 3)[:, None]
        with pytest.raises(BudgetExceededError):
            oracle(problem, backend, grid, grid, budget=1)

    def test_monte_carlo_backend_rejected(self):
        problem = lq_to_problem(coupled_lq_spec())
        grid = np.zeros((1, 1))
        with pytest.raises(ValueError, match="lattice"):
            oracle(problem, montecarlo(steps=2, paths=16), grid, grid)

    def test_grid_width_must_match_control_dim(self):
        problem, backend = self._tiny()
        with pytest.raises(ValueError, match="width"):
            oracle(problem, backend, np.zeros((3, 2)), np.zeros((3, 1)))

    @pytest.mark.parametrize("members", CHUNKS)
    def test_zero_cost_game_returns_lexicographically_first(self, monkeypatch, members):
        _chunked(monkeypatch, members)
        spec = dataclasses.replace(
            coupled_lq_spec(),
            horizon=0.5,
            cost1=QuadraticCost.zeros(Dims(1, 1, 1, 1, 1), 1, 1),
            cost2=QuadraticCost.zeros(Dims(1, 1, 1, 1, 1), 1, 1),
        )
        problem = lq_to_problem(spec)
        backend = lattice(2, horizon=0.5)
        grid = np.linspace(-1, 1, 3)[:, None]
        report = oracle(problem, backend, grid, grid, budget=10**4)
        assert report.equilibrium
        assert report.assignment_1 == (0, 0, 0)
        assert report.assignment_2 == (0, 0, 0)

    def test_found_point_survives_exhaustive_deviation_check(self):
        problem, backend = self._tiny()
        grid = np.linspace(-1, 1, 3)[:, None]
        report = oracle(problem, backend, grid, grid, budget=10**5)
        assert report.equilibrium

        import itertools

        offsets = [0, 1, 3]

        def cost_of(a1, a2, player):
            u = ControlProcess(
                u1=tuple(grid[list(a1[offsets[j]:offsets[j + 1]])] for j in range(2)),
                u2=tuple(grid[list(a2[offsets[j]:offsets[j + 1]])] for j in range(2)),
            )
            traj, _ = solve_fbsde(problem, u, backend, FbsdeConfig(tol=1e-12))
            return eval_cost(problem, traj, u, player)[0]

        a1, a2 = report.assignment_1, report.assignment_2
        j1_star = cost_of(a1, a2, 1)
        j2_star = cost_of(a1, a2, 2)
        assert j1_star == pytest.approx(report.j1, rel=1e-10)
        for cand in itertools.product(range(3), repeat=3):
            assert j1_star <= cost_of(cand, a2, 1) + 1e-12
            assert j2_star <= cost_of(a1, cand, 2) + 1e-12

    @pytest.mark.parametrize("members", CHUNKS)
    def test_one_step_quadratic_matches_closed_form_argmin(self, monkeypatch, members):
        _chunked(monkeypatch, members)
        # J(u) = u^2/2 + (1 + u)^2/2 is minimized at -1/2, a grid point
        dims = Dims(n=1, m=1, d=1, k1=1, k2=0)
        spec = LQGameSpec(
            dims=dims,
            horizon=1.0,
            initial=np.ones(1),
            xi=np.zeros(1),
            drift=dataclasses.replace(AffineMap.zeros(1, dims), D1=np.array([[1.0]])),
            diffusion=(AffineMap.zeros(1, dims),),
            driver=AffineMap.zeros(1, dims),
            cost1=dataclasses.replace(
                QuadraticCost.zeros(dims, 1, 0), N=np.eye(1), G=np.eye(1)
            ),
            cost2=QuadraticCost.zeros(dims, 0, 1),
            u1_box=ControlBox.symmetric(1, 1.0),
            u2_box=ControlBox.unbounded(0),
        )
        problem = lq_to_problem(spec)
        backend = lattice(1)
        grid1 = np.linspace(-1, 1, 5)[:, None]
        grid2 = np.zeros((1, 0))
        report = oracle(problem, backend, grid1, grid2, budget=100)
        assert report.equilibrium
        assert report.u1[0][0, 0] == -0.5
        assert report.j1 == pytest.approx(0.5 * 0.25 + 0.5 * 0.25, rel=1e-12)

    def test_resolution_bounds_are_nonnegative_and_finite(self):
        problem, backend = self._tiny()
        grid = np.linspace(-1, 1, 3)[:, None]
        report = oracle(problem, backend, grid, grid, budget=10**5)
        assert np.isfinite(report.resolution_bound_1)
        assert np.isfinite(report.resolution_bound_2)
        assert report.resolution_bound_1 >= 0.0
        assert report.resolution_bound_2 >= 0.0


def test_gradient_config_validation():
    with pytest.raises(ValueError):
        GradientConfig(step=0.0)
    with pytest.raises(ValueError):
        GradientConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# the batched grid oracle against the unbatched loop
# ---------------------------------------------------------------------------

_batched_costs = equilibrium._profile_costs


def _sequential_costs(problem, backend, profiles, config):
    """The unbatched oracle's evaluation: one solve_fbsde and eval_cost per profile."""
    out = []
    for u1, u2 in profiles:
        u = ControlProcess(u1=tuple(u1), u2=tuple(u2))
        traj, diag = solve_fbsde(problem, u, backend, config)
        if not diag.converged:
            raise NonConvergenceError("oracle cost evaluation did not converge", diag)
        out.append((eval_cost(problem, traj, u, 1)[0], eval_cost(problem, traj, u, 2)[0]))
    return out


def _recorded(monkeypatch, costs_fn, log):
    """Route the oracle's evaluations through costs_fn, logging each call's
    profiles (as bytes, in order) and costs."""

    def recording(problem, backend, profiles, config):
        out = costs_fn(problem, backend, profiles, config)
        log.append([(tuple(a.tobytes() for half in p for a in half), c)
                    for p, c in zip(profiles, out)])
        return out

    monkeypatch.setattr(equilibrium, "_profile_costs", recording)


def _oracle_case(name):
    if name == "two-step":
        grid = np.linspace(-2.0, 2.0, 5)[:, None]
        return lq_to_problem(two_step_spec()), lattice(2, horizon=0.5), grid, grid
    grid = np.array([[-1.0, -0.5], [0.3, 0.7], [1.0, -0.2]])
    spec = random_lq_spec(5, Dims(n=2, m=2, d=1, k1=2, k2=2), horizon=0.5)
    return lq_to_problem(spec), lattice(2, horizon=0.5), grid, grid


def _summary(report):
    return (report.j1, report.j2, report.equilibrium, report.cycle_detected, report.rounds,
            report.evaluations, report.resolution_bound_1, report.resolution_bound_2,
            report.assignment_1, report.assignment_2)


@functools.lru_cache(maxsize=None)
def _sequential_oracle(name):
    log = []
    with pytest.MonkeyPatch.context() as mp:
        _recorded(mp, _sequential_costs, log)
        report = oracle(*_oracle_case(name))
    return _summary(report), [entry for call in log for entry in call]


@pytest.mark.parametrize("members", CHUNKS)
@pytest.mark.parametrize("case", ["two-step", "random"])
def test_batched_oracle_equals_the_sequential_loop(monkeypatch, case, members):
    _chunked(monkeypatch, members)
    limit = equilibrium._ORACLE_MEMBERS
    log = []
    _recorded(monkeypatch, _batched_costs, log)
    report = oracle(*_oracle_case(case))
    summary, costs = _sequential_oracle(case)
    assert max(len(call) for call in log) <= limit
    if members is None and case == "two-step":
        assert len(log[0]) == 125  # a whole best response in one solve
    # every profile, in evaluation order, with bitwise the same two costs
    assert [entry for call in log for entry in call] == costs
    assert report.evaluations == len(costs)
    assert _summary(report) == summary


def _config_oracle(budget):
    cfg = load_config(ORACLE_CONFIG)
    return oracle(cfg.problem, build_backend(cfg), cfg.oracle.grid1, cfg.oracle.grid2, budget)


@pytest.mark.parametrize("members", CHUNKS[1:])
def test_budget_covers_exactly_the_evaluations(monkeypatch, members):
    _chunked(monkeypatch, members)
    assert _config_oracle(373).evaluations == 373
    log = []
    _recorded(monkeypatch, _batched_costs, log)
    with pytest.raises(BudgetExceededError):
        _config_oracle(372)
    assert sum(len(call) for call in log) == 372  # the profiles that fit, then the error


def _failing_case(kind):
    spec = two_step_spec()
    if kind == "nonfinite-state":
        # the second profile moves one node to 1e308, and b = 4 u overflows
        drift = dataclasses.replace(spec.drift, D1=np.array([[4.0]]))
        spec = dataclasses.replace(spec, drift=drift)
        grid = np.array([[0.0], [1e308]])
        return lq_to_problem(spec), lattice(2, horizon=0.5), grid, grid
    spec = dataclasses.replace(
        spec, horizon=2.0,
        drift=dataclasses.replace(spec.drift, B=np.array([[8.0]])),
        driver=dataclasses.replace(spec.driver, A=np.array([[8.0]])),
    )
    grid = np.linspace(-1.0, 1.0, 3)[:, None]
    return lq_to_problem(spec), lattice(2, horizon=2.0), grid, grid


def _raised(args):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Exception) as err:
            oracle(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("members", CHUNKS)
@pytest.mark.parametrize("kind", ["nonfinite-state", "divergence"])
def test_failing_profile_raises_as_the_sequential_loop(monkeypatch, kind, members):
    _chunked(monkeypatch, members)
    batched = _raised(_failing_case(kind))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "_profile_costs", _sequential_costs)
        sequential = _raised(_failing_case(kind))
    assert batched == sequential
    assert batched[0].__name__ == {"nonfinite-state": "NonFiniteStateError",
                                   "divergence": "PicardDivergenceError"}[kind]


def test_nonfinite_cost_is_a_solver_failure():
    problem, backend, _, _ = _oracle_case("two-step")
    grid = np.array([[1e308], [0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteCostError, match="not finite"):
            oracle(problem, backend, grid, grid)


def test_resolution_bounds_survive_a_huge_grid_spacing():
    # the spacing squared would overflow; the bound never forms it
    problem, backend, _, _ = _oracle_case("two-step")
    grid = np.array([[1e154], [-1e154]])
    with np.errstate(over="ignore", invalid="ignore"):
        report = oracle(problem, backend, grid, grid)
    assert np.isfinite(report.j1) and np.isfinite(report.j2)
    assert np.isfinite(report.resolution_bound_1) and np.isfinite(report.resolution_bound_2)


@pytest.mark.parametrize("points", [5, 9])
def test_nonlinear_game_lands_within_the_oracle_resolution_bounds(points):
    # the solver against exhaustive search on a game beyond LQ: the smooth
    # terms in b and sigma make every cost non-quadratic in the controls
    problem, backend = nonlinear_problem(), lattice(2, horizon=0.5)
    fb = FbsdeConfig(tol=1e-12)
    grid = np.linspace(-2.0, 2.0, points).reshape(points, 1)
    result = brute_force_nash(
        problem, backend, grid, grid, OracleOptions.budget, OracleOptions.max_rounds, fb)
    assert result.equilibrium and not result.cycle_detected
    report = solve_nash(problem, backend, fbsde_config=fb)
    assert report.converged
    assert abs(report.j1 - result.j1) <= result.resolution_bound_1
    assert abs(report.j2 - result.j2) <= result.resolution_bound_2
