"""End-to-end acceptance checks, one test per numbered criterion.

Each criterion runs inside a `_Criterion` block that prints a single
`criterion NN [PASS|FAIL] label (elapsed)` line and enforces a wall-clock
budget on top of the numeric tolerances.  Frozen reference numbers come
from tests/reference_values.py (generated by scripts/make_oracle_values.py
without touching this package).
"""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

from fbsdegames import (
    ControlProcess,
    Dims,
    FbsdeConfig,
    GradientConfig,
    build_certificate,
    brute_force_nash,
    costate_combination,
    duality_residual,
    eval_cost,
    eval_hamiltonian,
    gateaux_derivative,
    lq_to_problem,
    random_lq_spec,
    solve_adjoint,
    solve_fbsde,
    solve_nash,
    solve_riccati,
    validate_problem,
)
from fbsdegames.cli import OracleOptions
from fbsdegames.cli import main as cli_main

from conftest import (
    backward_only_spec,
    coupled_lq_spec,
    lattice,
    martingale_spec,
    mild_lqr_spec,
    nonlinear_problem,
    two_step_spec,
    zero_spec,
)
from reference_values import EXP_HALF, MILD_RICCATI_P0


class _Criterion:
    """Times a criterion, prints its pass/fail line, enforces the budget."""

    def __init__(self, number: int, label: str, limit: float):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        ok = exc_type is None and elapsed <= self.limit
        status = "PASS" if ok else "FAIL"
        print(
            f"criterion {self.number:02d} [{status}] {self.label} "
            f"({elapsed:.2f}s, limit {self.limit:.0f}s)"
        )
        if exc_type is None:
            assert elapsed <= self.limit, (
                f"criterion {self.number} blew its {self.limit:.0f}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _scaled_gap(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.ones_like(a), np.abs(a), np.abs(b)])


def _hamiltonian_fd_error(problem, player, rng, samples=120, h=1e-4):
    """Worst scaled error between assembled H gradients and central differences."""
    dims = problem.dims
    S = samples
    t = 0.37
    args = {
        "x": rng.normal(0.0, 0.7, (S, dims.n)),
        "y": rng.normal(0.0, 0.7, (S, dims.m)),
        "z": rng.normal(0.0, 0.7, (S, dims.m, dims.d)),
        "u1": rng.uniform(-1.5, 1.5, (S, dims.k1)),
        "u2": rng.uniform(-1.5, 1.5, (S, dims.k2)),
        "p": rng.normal(0.0, 0.7, (S, dims.n)),
        "q": rng.normal(0.0, 0.7, (S, dims.n, dims.d)),
        "k": rng.normal(0.0, 0.7, (S, dims.m)),
    }
    worst = 0.0
    for name in ("x", "y", "z", "u1", "u2"):
        base = args[name]
        claimed = costate_combination(problem, player, name, t, **args)
        for c in range(claimed.shape[1]):
            bump = np.zeros((S, base[0].size))
            bump[:, c] = h
            bump = bump.reshape(base.shape)
            plus = dict(args, **{name: base + bump})
            minus = dict(args, **{name: base - bump})
            fd = (
                eval_hamiltonian(problem, player, t, **plus)
                - eval_hamiltonian(problem, player, t, **minus)
            ) / (2.0 * h)
            worst = max(worst, float(_scaled_gap(claimed[:, c], fd).max()))
    return worst


def test_criterion_01_derivative_consistency():
    instances = (
        (101, Dims(n=2, m=1, d=2, k1=1, k2=2)),
        (202, Dims(n=1, m=2, d=1, k1=2, k2=1)),
        (303, Dims(n=2, m=2, d=2, k1=2, k2=2)),
    )
    with _Criterion(1, "declared partials and H gradients match finite differences", 10.0):
        for seed, dims in instances:
            problem = lq_to_problem(random_lq_spec(seed, dims))
            report = validate_problem(problem, samples=120, seed=seed + 1, probe_radius=None)
            assert report.passed, report.failures()
            for check in report.checks:
                assert check.max_error <= 1e-5, (check.function, check.partial)
            rng = np.random.default_rng(seed + 2)
            for player in (1, 2):
                err = _hamiltonian_fd_error(problem, player, rng)
                assert err <= 1e-5, (seed, player, err)


def test_criterion_02_zero_coefficient_exactness():
    with _Criterion(2, "all-zero instance reproduced at machine precision", 1.0):
        backend = lattice(16)
        problem = lq_to_problem(zero_spec())
        u = ControlProcess.midpoint(problem, backend)
        traj, diag = solve_fbsde(problem, u, backend)
        assert diag.converged
        adj, adiag = solve_adjoint(problem, traj, u, 1, backend)
        assert adiag.converged
        for j in range(17):
            np.testing.assert_array_equal(traj.x[j], 1.0)
            np.testing.assert_array_equal(traj.y[j], 0.0)
            np.testing.assert_array_equal(adj.p[j], 1.0)
            np.testing.assert_array_equal(adj.k[j], 0.0)
        for j in range(16):
            np.testing.assert_array_equal(traj.z[j], 0.0)
            np.testing.assert_array_equal(adj.q[j], 0.0)
        j1, stderr = eval_cost(problem, traj, u, 1)
        assert j1 == 0.5
        assert stderr == 0.0


def _backward_y0(steps):
    backend = lattice(steps)
    problem = lq_to_problem(backward_only_spec(0.5, 1.0))
    u = ControlProcess.midpoint(problem, backend)
    traj, diag = solve_fbsde(problem, u, backend, FbsdeConfig(tol=1e-14))
    assert diag.converged
    return float(traj.y[0][0, 0])


def test_criterion_03_backward_convergence_rate():
    with _Criterion(3, "linear driver y(0) accurate at N=256 and first order in dt", 30.0):
        err = {N: abs(_backward_y0(N) - EXP_HALF) / EXP_HALF for N in (256, 512)}
        assert err[256] <= 1e-3, err
        assert err[256] / err[512] >= 1.8, err


def test_criterion_04_martingale_terminal_exactness():
    with _Criterion(4, "y tracks Brownian motion and z is one exactly", 1.0):
        backend = lattice(64)
        problem = lq_to_problem(martingale_spec())
        u = ControlProcess.midpoint(problem, backend)
        traj, diag = solve_fbsde(problem, u, backend)
        assert diag.converged
        for j in range(65):
            np.testing.assert_array_equal(traj.y[j][:, 0], backend.brownian(j)[:, 0])
        for j in range(64):
            np.testing.assert_array_equal(traj.z[j], 1.0)


# criteria 05 and 06 also run on the nonlinear game, whose controls enter
# the drift and the diffusion as in the paper's setting
@pytest.mark.parametrize("case", ["lq", "nonlinear"])
def test_criterion_05_gateaux_derivative_agreement(case):
    label = f"costate directional derivatives match cost differences ({case})"
    with _Criterion(5, label, 120.0):
        backend = lattice(64)
        problem = (lq_to_problem(coupled_lq_spec(with_control_in_dynamics=False))
                   if case == "lq" else nonlinear_problem())
        u = ControlProcess.midpoint(problem, backend)
        config = FbsdeConfig(tol=1e-12)
        rng = np.random.default_rng(5)
        for player in (1, 2):
            k = problem.dims.k1 if player == 1 else problem.dims.k2
            for _ in range(5):
                direction = [
                    rng.uniform(-1.0, 1.0, (backend.scenario_count(j), k))
                    for j in range(64)
                ]
                rep = gateaux_derivative(
                    problem, u, direction, player, backend, config, epsilon=1e-5
                )
                assert rep.feasible
                gap = abs(rep.adjoint_form - rep.finite_diff_form)
                scale = max(1.0, abs(rep.adjoint_form), abs(rep.finite_diff_form))
                assert gap / scale <= 1e-3, (player, rep)


@pytest.mark.parametrize("case", ["lq", "nonlinear"])
def test_criterion_06_duality_residual_first_order(case):
    label = f"integration-by-parts residual shrinks at first order ({case})"
    with _Criterion(6, label, 120.0):
        problem = lq_to_problem(coupled_lq_spec()) if case == "lq" else nonlinear_problem()
        ratios = []
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            a1, a2, b1, b2 = rng.uniform(-1.0, 1.0, 4)
            residual = {}
            for N in (32, 64, 128, 256):
                backend = lattice(N)
                u = ControlProcess.constant(backend, a1, a2)
                u_bar = ControlProcess.constant(backend, b1, b2)
                config = FbsdeConfig(tol=1e-13)
                traj, diag = solve_fbsde(problem, u, backend, config)
                assert diag.converged
                traj_bar, dbar = solve_fbsde(problem, u_bar, backend, config)
                assert dbar.converged
                adj_bar, adiag = solve_adjoint(problem, traj_bar, u_bar, 1, backend, config)
                assert adiag.converged
                rep = duality_residual(problem, traj, traj_bar, adj_bar, u, u_bar, backend)
                residual[N] = rep.residual
                assert np.isfinite(rep.residual)
            for N in (32, 64, 128):
                ratios.append(abs(residual[N]) / abs(residual[2 * N]))
        assert np.mean(ratios) >= 1.5, ratios


def test_criterion_07_single_player_matches_riccati_feedback():
    with _Criterion(7, "solved control tracks the Riccati feedback law", 60.0):
        steps = 128
        backend = lattice(steps)
        problem = lq_to_problem(mild_lqr_spec())
        report = solve_nash(
            problem, backend,
            fbsde_config=FbsdeConfig(tol=1e-12),
            grad_config=GradientConfig(step=0.3, max_iterations=400, tolerance=1e-7),
        )
        assert report.converged
        sol = solve_riccati(
            A=[[0.2]], B=[[1.0]], Q=[[0.1]], R=[[1.0]], G=[[0.5]],
            horizon=1.0, steps=steps,
        )
        assert abs(sol.values[0][0, 0] - MILD_RICCATI_P0) <= 1e-10
        traj, diag = solve_fbsde(problem, report.controls, backend, FbsdeConfig(tol=1e-12))
        assert diag.converged
        num = 0.0
        den = 0.0
        dt = backend.grid.dt
        for j in range(steps):
            ref = sol.feedback(j, traj.x[j])
            diff = report.controls.u1[j] - ref
            num += dt * float(backend.expect(j, (diff ** 2).sum(axis=1)))
            den += dt * float(backend.expect(j, (ref ** 2).sum(axis=1)))
        rel = np.sqrt(num / den)
        assert rel <= 0.02, rel


def test_criterion_08_enumerated_grid_equilibrium():
    with _Criterion(8, "exhaustive two-step search agrees with the solver", 120.0):
        backend = lattice(2, horizon=0.5)
        problem = lq_to_problem(two_step_spec())
        grid = np.linspace(-2.0, 2.0, 5).reshape(5, 1)
        result = brute_force_nash(
            problem, backend, grid, grid, OracleOptions.budget, OracleOptions.max_rounds,
            FbsdeConfig(tol=1e-12, max_picard=200),
        )
        assert result.equilibrium
        assert not result.cycle_detected

        config = FbsdeConfig(tol=1e-13)

        def cost_against(u1_arrays, u2_arrays, player):
            u = ControlProcess(u1=tuple(u1_arrays), u2=tuple(u2_arrays))
            traj, diag = solve_fbsde(problem, u, backend, config)
            assert diag.converged
            return eval_cost(problem, traj, u, player)[0]

        # every node-function deviation on the grid, checked independently
        for g0, g1, g2 in itertools.product(range(5), repeat=3):
            alt = [grid[[g0]], grid[[g1, g2]]]
            assert result.j1 <= cost_against(alt, result.u2, 1) + 1e-9
            assert result.j2 <= cost_against(result.u1, alt, 2) + 1e-9

        report = solve_nash(
            problem, backend,
            fbsde_config=FbsdeConfig(tol=1e-12),
            grad_config=GradientConfig(step=0.5, max_iterations=600, tolerance=1e-9),
        )
        assert report.converged
        assert abs(report.j1 - result.j1) <= result.resolution_bound_1
        assert abs(report.j2 - result.j2) <= result.resolution_bound_2


def test_criterion_09_certificate_verdicts():
    with _Criterion(9, "certificates separate equilibria from impostors", 60.0):
        backend = lattice(32)
        problem = lq_to_problem(coupled_lq_spec())
        fb = FbsdeConfig(tol=1e-12)
        report = solve_nash(
            problem, backend,
            fbsde_config=fb,
            grad_config=GradientConfig(step=0.5, max_iterations=600, tolerance=1e-8),
        )
        assert report.converged
        assert report.certificate.verdict == "certified"

        # same instance, player 1 pushed 0.5 away from the solution
        box = problem.u1_box
        shifted = report.controls.replace_player(
            1, [box.project(arr + 0.5) for arr in report.controls.u1]
        )
        traj, _ = solve_fbsde(problem, shifted, backend, fb)
        adj1, _ = solve_adjoint(problem, traj, shifted, 1, backend, fb)
        adj2, _ = solve_adjoint(problem, traj, shifted, 2, backend, fb)
        cert = build_certificate(problem, traj, (adj1, adj2), shifted)
        assert cert.verdict == "refuted"
        assert "lowers H" in cert.witness
        assert "player 1" in cert.witness

        # Negative-definite own-control cost.  With u1 removed from the
        # dynamics, H_1(u1) = const - u1^2/2, so both box corners are exact
        # pointwise minima while the interior stationary point is a maximum.
        # Certifying the corner candidate isolates convexity: every
        # stationarity check passes and the certificate must still refuse.
        spec = coupled_lq_spec()
        concave = dataclasses.replace(
            spec,
            drift=dataclasses.replace(spec.drift, D1=np.zeros((1, 1))),
            driver=dataclasses.replace(spec.driver, D1=np.zeros((1, 1))),
            cost1=dataclasses.replace(spec.cost1, N=np.array([[-1.0]])),
        )
        bad_problem = lq_to_problem(concave)
        base = solve_nash(
            bad_problem, backend,
            fbsde_config=fb,
            grad_config=GradientConfig(step=0.5, max_iterations=600, tolerance=1e-8),
        )
        assert base.certificate.verdict == "refuted"
        corner = base.controls.replace_player(
            1, [np.full_like(arr, 2.0) for arr in base.controls.u1]
        )
        traj, _ = solve_fbsde(bad_problem, corner, backend, fb)
        adj1, _ = solve_adjoint(bad_problem, traj, corner, 1, backend, fb)
        adj2, _ = solve_adjoint(bad_problem, traj, corner, 2, backend, fb)
        cert = build_certificate(bad_problem, traj, (adj1, adj2), corner)
        assert cert.verdict == "refuted"
        assert "convexity" in cert.witness


def test_criterion_10_bitwise_reproducibility(tmp_path):
    with _Criterion(10, "reruns are byte-identical", 60.0):
        config = {
            "name": "acceptance",
            "seed": 9,
            "horizon": 1.0,
            "steps": 10,
            "dims": {"n": 1, "m": 1, "d": 1, "k1": 1, "k2": 1},
            "backend": {"kind": "lattice"},
            "initial": [0.5],
            "terminal": {"constant": [0.2]},
            "drift": {"A": [[-0.3]], "D1": [[0.4]], "D2": [[0.2]]},
            "diffusion": [{"const": [0.25]}],
            "driver": {"A": [[0.2]], "B": [[-0.1]]},
            "cost1": {"Q": [[1.0]], "N": [[1.0]], "G": [[0.5]]},
            "cost2": {"R": [[0.6]], "N": [[1.2]], "H": [[0.3]]},
            "box1": {"radius": 2.0},
            "box2": {"radius": 2.0},
            "fbsde": {"tol": 1e-12},
            "gradient": {"step": 0.5, "max_iterations": 300, "tolerance": 1e-7},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        outs = [tmp_path / name for name in ("one", "two")]
        assert cli_main(["solve", "--config", str(cfg), "--out", str(outs[0])]) == 0
        assert cli_main(["solve", "--config", str(cfg), "--out", str(outs[1])]) == 0
        for name in ("report.json", "trajectory.csv", "history.csv", "controls.csv"):
            blobs = [(out / name).read_bytes() for out in outs]
            assert blobs[0] == blobs[1], name
