"""Cross-check the gradient solver against exhaustive search on a tiny game.

Two lattice steps leave three control nodes per player.  With 5-point
grids that is 125 profiles each, small enough to enumerate every best
response exactly.  The solver should land inside the grid's resolution
bound of the enumerated equilibrium; the script exits 1 when either cost
gap is outside its bound.
"""

import dataclasses
import sys

import numpy as np

from fbsdegames import (
    AffineMap,
    ControlBox,
    Dims,
    FbsdeConfig,
    GradientConfig,
    LatticeBackend,
    LQGameSpec,
    QuadraticCost,
    TimeGrid,
    brute_force_nash,
    lq_to_problem,
    solve_nash,
)
from fbsdegames.cli import OracleOptions


def two_step_game():
    dims = Dims(n=1, m=1, d=1, k1=1, k2=1)
    spec = LQGameSpec(
        dims=dims,
        horizon=0.5,
        initial=np.array([0.5]),
        xi=np.array([0.2]),
        drift=AffineMap(
            A=np.array([[-0.3]]), B=np.array([[0.2]]), C=np.array([[0.1]]),
            D1=np.array([[0.4]]), D2=np.array([[0.2]]), const=np.array([0.1]),
        ),
        diffusion=(AffineMap(
            A=np.array([[0.1]]), B=np.array([[0.05]]), C=np.zeros((1, 1)),
            D1=np.zeros((1, 1)), D2=np.zeros((1, 1)), const=np.array([0.3]),
        ),),
        driver=AffineMap(
            A=np.array([[0.25]]), B=np.array([[-0.2]]), C=np.array([[0.1]]),
            D1=np.array([[0.3]]), D2=np.array([[-0.2]]), const=np.array([0.05]),
        ),
        cost1=QuadraticCost(
            Q=np.array([[1.0]]), R=np.array([[0.5]]), S=0.1, N=np.array([[1.0]]),
            M=np.zeros((1, 1)), G=np.array([[0.7]]), H=np.array([[0.4]]),
        ),
        cost2=QuadraticCost(
            Q=np.array([[1.0]]), R=np.array([[0.5]]), S=0.1, N=np.array([[1.0]]),
            M=np.zeros((1, 1)), G=np.array([[0.7]]), H=np.array([[0.4]]),
        ),
        u1_box=ControlBox.symmetric(1, 2.0),
        u2_box=ControlBox.symmetric(1, 2.0),
    )
    return lq_to_problem(spec)


def main() -> int:
    problem = two_step_game()
    backend = LatticeBackend(TimeGrid(0.5, 2))
    grid = np.linspace(-2.0, 2.0, 5).reshape(5, 1)

    oracle = brute_force_nash(
        problem, backend, grid, grid, OracleOptions.budget, OracleOptions.max_rounds,
        FbsdeConfig(tol=1e-12, max_picard=200),
    )
    print("exhaustive search (5-point grids, 3 nodes per player)")
    print(f"  equilibrium found: {oracle.equilibrium}")
    print(f"  rounds {oracle.rounds}, cost evaluations {oracle.evaluations}")
    print(f"  grid assignment player 1: {oracle.assignment_1}")
    print(f"  grid assignment player 2: {oracle.assignment_2}")
    print(f"  J1 = {oracle.j1:.8f}   J2 = {oracle.j2:.8f}")
    print(f"  resolution bounds: {oracle.resolution_bound_1:.3e}, "
          f"{oracle.resolution_bound_2:.3e}")

    report = solve_nash(
        problem,
        backend,
        fbsde_config=FbsdeConfig(tol=1e-13),
        grad_config=GradientConfig(step=0.5, max_iterations=600, tolerance=1e-9),
    )
    print("\ngradient solver on the same game")
    print(f"  converged: {report.converged}   rho = "
          f"({report.rho1:.2e}, {report.rho2:.2e})")
    print(f"  J1 = {report.j1:.8f}   J2 = {report.j2:.8f}")

    gap1 = abs(report.j1 - oracle.j1)
    gap2 = abs(report.j2 - oracle.j2)
    print(f"\n|J1 gap| = {gap1:.3e} (bound {oracle.resolution_bound_1:.3e})")
    print(f"|J2 gap| = {gap2:.3e} (bound {oracle.resolution_bound_2:.3e})")
    ok = gap1 <= oracle.resolution_bound_1 and gap2 <= oracle.resolution_bound_2
    print("within resolution bounds" if ok else "OUTSIDE resolution bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
