"""Cross-check the gradient solver against exhaustive search on a tiny game.

The game is configs/two_step_oracle.json, read through the command line's
config loader, so the script runs what `solve` and `oracle` run on it.  Two
lattice steps leave three control nodes per player.  With 5-point grids
that is 125 profiles each, small enough to enumerate every best response
exactly.  The solver should land inside the grid's resolution bound of the
enumerated equilibrium; the script exits 1 when either cost gap is outside
its bound.
"""

import sys
from pathlib import Path

from fbsdegames import brute_force_nash, solve_nash
from fbsdegames.cli import build_backend, load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "two_step_oracle.json"


def main() -> int:
    cfg = load_config(CONFIG)
    backend = build_backend(cfg)
    grid1, grid2 = cfg.oracle.grid1, cfg.oracle.grid2

    oracle = brute_force_nash(
        cfg.problem, backend, grid1, grid2, cfg.oracle.budget, cfg.oracle.max_rounds, cfg.fbsde,
    )
    print(f"exhaustive search ({len(grid1)} x {len(grid2)} grid points, "
          f"{backend.offsets[cfg.steps]} nodes per player)")
    print(f"  equilibrium found: {oracle.equilibrium}")
    print(f"  rounds {oracle.rounds}, cost evaluations {oracle.evaluations}")
    print(f"  grid assignment player 1: {oracle.assignment_1}")
    print(f"  grid assignment player 2: {oracle.assignment_2}")
    print(f"  J1 = {oracle.j1:.8f}   J2 = {oracle.j2:.8f}")
    print(f"  resolution bounds: {oracle.resolution_bound_1:.3e}, "
          f"{oracle.resolution_bound_2:.3e}")

    report = solve_nash(cfg.problem, backend, fbsde_config=cfg.fbsde, grad_config=cfg.gradient)
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
