"""Order-of-convergence tables for the backward solver and the duality residual.

Two experiments on doubling grids:
  1. y(0) for dy = -0.5 y dt, y(1) = 1 against e^0.5 (expected ratio ~2).
  2. the integration-by-parts residual between two constant control pairs
     on the coupled demo game, configs/coupled_game.json read through the
     command line's config loader (expected ratio ~2).

    PYTHONPATH=src python3 scripts/convergence_study.py
"""

import dataclasses
from pathlib import Path

import numpy as np

from fbsdegames import (
    AffineMap,
    ControlBox,
    ControlProcess,
    Dims,
    FbsdeConfig,
    LatticeBackend,
    LQGameSpec,
    QuadraticCost,
    TimeGrid,
    duality_residual,
    lq_to_problem,
    solve_adjoint,
    solve_fbsde,
)
from fbsdegames.cli import load_config

CONFIG = FbsdeConfig(tol=1e-13)
COUPLED_GAME = Path(__file__).resolve().parent.parent / "configs" / "coupled_game.json"


def backward_problem():
    dims = Dims(n=1, m=1, d=1, k1=1, k2=1)
    driver = dataclasses.replace(AffineMap.zeros(1, dims), B=np.array([[0.5]]))
    spec = LQGameSpec(
        dims=dims,
        horizon=1.0,
        initial=np.ones(1),
        xi=np.ones(1),
        drift=AffineMap.zeros(1, dims),
        diffusion=(AffineMap.zeros(1, dims),),
        driver=driver,
        cost1=QuadraticCost.zeros(dims, 1, 1),
        cost2=QuadraticCost.zeros(dims, 1, 1),
        u1_box=ControlBox.symmetric(1, 1.0),
        u2_box=ControlBox.symmetric(1, 1.0),
    )
    return lq_to_problem(spec)


def backward_table() -> None:
    problem = backward_problem()
    target = np.exp(0.5)
    print("backward solver: y(0) vs e^0.5")
    print(f"{'N':>6} {'y(0)':>20} {'rel err':>12} {'ratio':>8}")
    prev = None
    for steps in (32, 64, 128, 256, 512):
        backend = LatticeBackend(TimeGrid(1.0, steps))
        u = ControlProcess.midpoint(problem, backend)
        traj, _ = solve_fbsde(problem, u, backend, CONFIG)
        err = abs(float(traj.y[0][0, 0]) - target) / target
        ratio = "" if prev is None else f"{prev / err:8.3f}"
        print(f"{steps:>6} {float(traj.y[0][0, 0]):>20.12f} {err:>12.3e} {ratio:>8}")
        prev = err


def duality_table() -> None:
    problem = load_config(COUPLED_GAME).problem
    print("\nduality residual between u = (0.4, -0.6) and u_bar = (-0.2, 0.3)")
    print(f"{'N':>6} {'residual':>14} {'ratio':>8}")
    prev = None
    for steps in (32, 64, 128, 256):
        backend = LatticeBackend(TimeGrid(1.0, steps))
        u = ControlProcess.constant(backend, 0.4, -0.6)
        u_bar = ControlProcess.constant(backend, -0.2, 0.3)
        traj, _ = solve_fbsde(problem, u, backend, CONFIG)
        traj_bar, _ = solve_fbsde(problem, u_bar, backend, CONFIG)
        adj_bar, _ = solve_adjoint(problem, traj_bar, u_bar, 1, backend, CONFIG)
        rep = duality_residual(problem, traj, traj_bar, adj_bar, u, u_bar, backend)
        ratio = "" if prev is None else f"{abs(prev / rep.residual):8.3f}"
        print(f"{steps:>6} {rep.residual:>14.6e} {ratio:>8}")
        prev = rep.residual


if __name__ == "__main__":
    backward_table()
    duality_table()
