"""Candidate Nash points by projected gradient, with independent validators.

The search loop alternates full system solves (state, then both costate
triples, warm-started between outer iterations) with box-projected gradient
steps on the two controls.  Progress is measured by the merit
max(rho_1, rho_2) where rho_i is the stationarity residual of player i; a
step is accepted only when the merit strictly decreases, so the recorded
merit sequence is non-increasing by construction.

Validators, deliberately decoupled from the search: cost evaluation with a
standard error on sampled backends, a directional-derivative pair (costate
form against a two-sided cost difference), and an exhaustive grid oracle for
tiny recombining trees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint
from .drivers import Backend
from .fbsde import (
    ControlProcess,
    FbsdeConfig,
    PicardDivergenceError,
    SolveDiagnostics,
    StateTrajectory,
    solve_fbsde,
)
from .hamiltonian import (
    CertificateOptions,
    VerificationCertificate,
    ViResidualReport,
    build_certificate,
    control_gradient,
    vi_residual,
)
from .problem import GameProblem

Array = np.ndarray


class NonConvergenceError(RuntimeError):
    """A solve needed by a validator did not reach its tolerance."""

    def __init__(self, message: str, diagnostics: SolveDiagnostics):
        super().__init__(f"{message} (residual {diagnostics.final_residual:.3e} "
                         f"after {diagnostics.iterations} iterations)")
        self.diagnostics = diagnostics


class BudgetExceededError(RuntimeError):
    """Enumeration oracle ran out of allowed cost evaluations."""


@dataclass(frozen=True)
class GradientConfig:
    """Projected-gradient controls.

    step is the trial length each outer iteration starts from; it is halved
    until the merit decreases, at most max_halvings times.  mode selects
    simultaneous two-player updates or alternating single-player sweeps.
    """

    step: float = 0.1
    max_iterations: int = 500
    tolerance: float = 1e-6
    mode: str = "simultaneous"
    max_halvings: int = 20
    stall_limit: int = 50

    def __post_init__(self) -> None:
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.mode not in ("simultaneous", "best-response"):
            raise ValueError("mode must be 'simultaneous' or 'best-response'")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    j1: float
    j2: float
    rho1: float
    rho2: float
    step_size: float

    @property
    def merit(self) -> float:
        return max(self.rho1, self.rho2)


@dataclass(frozen=True)
class EquilibriumReport:
    """The returned controls with the state and costates they were certified
    along: rho_i, the certificate and the diagnostics all belong to
    `trajectory` and `adjoints`."""

    controls: ControlProcess
    j1: float
    j2: float
    stderr1: float
    stderr2: float
    rho1: float
    rho2: float
    history: tuple[IterationRecord, ...]
    certificate: VerificationCertificate
    converged: bool
    fbsde_diagnostics: SolveDiagnostics
    adjoint_diagnostics: tuple[SolveDiagnostics, SolveDiagnostics]
    trajectory: StateTrajectory
    adjoints: tuple[AdjointTrajectory, AdjointTrajectory]
    warnings: tuple[str, ...] = ()

    @property
    def iterations(self) -> int:
        return len(self.history)

    def cost(self, player: int) -> float:
        return self.j1 if player == 1 else self.j2


def eval_cost(
    problem: GameProblem,
    traj: StateTrajectory,
    u: ControlProcess,
    player: int,
) -> tuple[float, float]:
    """Total cost of one player: running part by left-endpoint quadrature,
    terminal part at x(T), initial part at y(0).

    Returns (estimate, standard error); the error is zero on the lattice
    where the expectation is exact.
    """
    backend = traj.backend
    grid = backend.grid
    N, dt = grid.steps, grid.dt
    l = problem.costs.running(player)
    phi = problem.costs.terminal(player)
    h = problem.costs.initial(player)
    if backend.kind == "montecarlo":
        total = np.zeros(backend.scenario_count(0))
        for j in range(N):
            t = float(grid.knots[j])
            total += dt * l(t, traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j])
        total += phi(traj.x[N]) + h(traj.y[0])
        P = total.shape[0]
        stderr = float(total.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0
        return float(total.mean()), stderr
    value = 0.0
    for j in range(N):
        t = float(grid.knots[j])
        value += dt * float(
            backend.expect(j, l(t, traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j]))
        )
    value += float(backend.expect(N, phi(traj.x[N])))
    value += float(backend.expect(0, h(traj.y[0])))
    return value, 0.0


@dataclass(frozen=True)
class GateauxReport:
    player: int
    adjoint_form: float
    finite_diff_form: float
    epsilon: float
    feasible: bool

    @property
    def gap(self) -> float:
        return abs(self.adjoint_form - self.finite_diff_form)


def _solved(problem, u, backend, config, initial=None, what="system"):
    traj, diag = solve_fbsde(problem, u, backend, config, initial=initial)
    if not diag.converged:
        raise NonConvergenceError(f"{what} solve did not converge", diag)
    return traj, diag


def gateaux_derivative(
    problem: GameProblem,
    u: ControlProcess,
    direction,
    player: int,
    backend: Backend,
    fbsde_config: FbsdeConfig = FbsdeConfig(),
    epsilon: float = 1e-4,
) -> GateauxReport:
    """Directional derivative of J_player along `direction`, two ways.

    The costate form integrates <grad_u H, v> over the solved trajectory;
    the reference form re-solves the full system at u +- epsilon*v and
    differences the costs.  Perturbed controls are used as given (no
    projection); feasible=False flags an excursion outside the box.
    """
    direction = [np.asarray(v, dtype=float) for v in direction]
    traj, _ = _solved(problem, u, backend, fbsde_config, what="base")
    adj, adiag = solve_adjoint(problem, traj, u, player, backend, fbsde_config)
    if not adiag.converged:
        raise NonConvergenceError("costate solve did not converge", adiag)
    grid = backend.grid
    grads = control_gradient(problem, traj, adj, u, player)
    adjoint_form = 0.0
    for j, g in enumerate(grads):
        adjoint_form += grid.dt * float(backend.expect(j, np.einsum("sv,sv->s", g, direction[j])))
    box = problem.box(player)
    own = u.player(player)
    feasible = all(
        box.contains(own[j] + epsilon * direction[j]) and box.contains(own[j] - epsilon * direction[j])
        for j in range(grid.steps)
    )
    warm = (list(traj.y), list(traj.z))
    u_plus = u.replace_player(player, [own[j] + epsilon * direction[j] for j in range(grid.steps)])
    u_minus = u.replace_player(player, [own[j] - epsilon * direction[j] for j in range(grid.steps)])
    traj_plus, _ = _solved(problem, u_plus, backend, fbsde_config, initial=warm, what="perturbed")
    traj_minus, _ = _solved(problem, u_minus, backend, fbsde_config, initial=warm, what="perturbed")
    j_plus, _ = eval_cost(problem, traj_plus, u_plus, player)
    j_minus, _ = eval_cost(problem, traj_minus, u_minus, player)
    return GateauxReport(
        player=player,
        adjoint_form=adjoint_form,
        finite_diff_form=(j_plus - j_minus) / (2.0 * epsilon),
        epsilon=epsilon,
        feasible=feasible,
    )


@dataclass
class _EvalState:
    traj: StateTrajectory
    adj1: AdjointTrajectory
    adj2: AdjointTrajectory
    vi: ViResidualReport
    fbsde_diag: SolveDiagnostics
    adj_diag: tuple[SolveDiagnostics, SolveDiagnostics]

    @property
    def merit(self) -> float:
        return max(self.vi.rho1, self.vi.rho2)

    def warm(self):
        return (
            (list(self.traj.y), list(self.traj.z)),
            (list(self.adj1.p), list(self.adj1.q)),
            (list(self.adj2.p), list(self.adj2.q)),
        )


def _evaluate(problem, u, backend, config, warm=None) -> _EvalState:
    w0 = warm[0] if warm else None
    traj, fd = solve_fbsde(problem, u, backend, config, initial=w0)
    adj1, d1 = solve_adjoint(
        problem, traj, u, 1, backend, config, initial=warm[1] if warm else None
    )
    adj2, d2 = solve_adjoint(
        problem, traj, u, 2, backend, config, initial=warm[2] if warm else None
    )
    vi = vi_residual(problem, traj, adj1, adj2, u)
    return _EvalState(traj=traj, adj1=adj1, adj2=adj2, vi=vi, fbsde_diag=fd, adj_diag=(d1, d2))


def _stepped(problem, u, state, alpha, players) -> ControlProcess:
    out = u
    for player in players:
        adj = state.adj1 if player == 1 else state.adj2
        grads = control_gradient(problem, state.traj, adj, u, player)
        box = problem.box(player)
        out = out.replace_player(
            player,
            [box.project(out.player(player)[j] - alpha * g) for j, g in enumerate(grads)],
        )
    return out


def solve_nash(
    problem: GameProblem,
    backend: Backend,
    fbsde_config: FbsdeConfig = FbsdeConfig(),
    grad_config: GradientConfig = GradientConfig(),
    certificate_options: CertificateOptions = CertificateOptions(),
    initial: ControlProcess | None = None,
) -> EquilibriumReport:
    """Drive both stationarity residuals to the tolerance, then certify.

    Trial steps that fail (merit up, or a diverging trial solve) are retried
    at half the length.  A fully failed backtracking round ends the search:
    the loop is deterministic, so repeating it cannot help.  The best iterate
    by merit is always the one returned.
    """
    u = initial if initial is not None else ControlProcess.midpoint(problem, backend)
    state = _evaluate(problem, u, backend, fbsde_config)
    history: list[IterationRecord] = []
    warnings: list[str] = []
    best = (state.merit, u, state)
    converged = False
    players_by_mode = {
        "simultaneous": ((1, 2),),
        "best-response": ((1,), (2,)),
    }[grad_config.mode]
    stall = 0
    for it in range(1, grad_config.max_iterations + 1):
        j1, _ = eval_cost(problem, state.traj, u, 1)
        j2, _ = eval_cost(problem, state.traj, u, 2)
        rho1_it, rho2_it = state.vi.rho1, state.vi.rho2
        merit = state.merit
        if merit < best[0]:
            best = (merit, u, state)
        if merit <= grad_config.tolerance:
            history.append(IterationRecord(it, j1, j2, rho1_it, rho2_it, 0.0))
            converged = True
            break
        accepted_alpha = 0.0
        improved = False
        for group in players_by_mode:
            alpha = grad_config.step
            for _ in range(grad_config.max_halvings + 1):
                trial_u = _stepped(problem, u, state, alpha, group)
                try:
                    trial = _evaluate(problem, trial_u, backend, fbsde_config, warm=state.warm())
                except PicardDivergenceError:
                    alpha *= 0.5
                    continue
                if trial.merit < state.merit:
                    u, state = trial_u, trial
                    accepted_alpha = alpha
                    improved = True
                    break
                alpha *= 0.5
        history.append(IterationRecord(it, j1, j2, rho1_it, rho2_it, accepted_alpha))
        if improved:
            stall = 0
        else:
            stall += 1
            warnings.append(f"no improving step at iteration {it}; search stopped")
            break
        if stall >= grad_config.stall_limit:
            break
    if state.merit < best[0]:
        best = (state.merit, u, state)
    if not converged:
        _, u, state = best
        if state.merit <= grad_config.tolerance:
            converged = True
    j1, se1 = eval_cost(problem, state.traj, u, 1)
    j2, se2 = eval_cost(problem, state.traj, u, 2)
    certificate = build_certificate(
        problem, state.traj, (state.adj1, state.adj2), u, certificate_options
    )
    return EquilibriumReport(
        controls=u,
        j1=j1,
        j2=j2,
        stderr1=se1,
        stderr2=se2,
        rho1=state.vi.rho1,
        rho2=state.vi.rho2,
        history=tuple(history),
        certificate=certificate,
        converged=converged,
        fbsde_diagnostics=state.fbsde_diag,
        adjoint_diagnostics=state.adj_diag,
        trajectory=state.traj,
        adjoints=(state.adj1, state.adj2),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# exhaustive grid oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceReport:
    """Grid equilibrium found by iterated exact best response.

    resolution_bound_i estimates how far J_i can drift when both controls
    move within half a grid cell: a second-difference own-control term plus
    a first-difference opponent term, both measured at the returned point.
    """

    u1: tuple[Array, ...]
    u2: tuple[Array, ...]
    j1: float
    j2: float
    equilibrium: bool
    cycle_detected: bool
    rounds: int
    evaluations: int
    resolution_bound_1: float
    resolution_bound_2: float
    assignment_1: tuple[int, ...]
    assignment_2: tuple[int, ...]


def _node_offsets(steps: int) -> list[int]:
    offsets = [0]
    for j in range(steps):
        offsets.append(offsets[-1] + j + 1)
    return offsets


def brute_force_nash(
    problem: GameProblem,
    backend: Backend,
    grid1: Array,
    grid2: Array,
    budget: int = 10**6,
    max_rounds: int = 50,
    fbsde_config: FbsdeConfig = FbsdeConfig(tol=1e-12, max_picard=200),
) -> BruteForceReport:
    """Iterated exact best response over node-function controls on a tree.

    Each player's strategy assigns one grid row to every tree node before the
    final step; best responses enumerate all assignments of one player with
    the other frozen.  Ties go to the lexicographically smallest assignment,
    which makes the result deterministic.  Every cost evaluation is a full
    coupled solve; the budget caps their number.
    """
    if backend.kind != "lattice":
        raise ValueError("the enumeration oracle requires the lattice backend")
    grid1 = np.atleast_2d(np.asarray(grid1, dtype=float))
    grid2 = np.atleast_2d(np.asarray(grid2, dtype=float))
    if grid1.shape[1] != problem.dims.k1 or grid2.shape[1] != problem.dims.k2:
        raise ValueError("control grid width does not match control dimension")
    N = backend.grid.steps
    offsets = _node_offsets(N)
    node_count = offsets[-1]
    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, float]] = {}
    evaluations = 0

    def controls_for(assignment: tuple[int, ...], grid: Array) -> list[Array]:
        return [grid[list(assignment[offsets[j]:offsets[j + 1]])] for j in range(N)]

    def costs_at(a1: tuple[int, ...], a2: tuple[int, ...]) -> tuple[float, float]:
        nonlocal evaluations
        key = (a1, a2)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if evaluations >= budget:
            raise BudgetExceededError(
                f"enumeration budget of {budget} cost evaluations exhausted; "
                "use a smaller grid or fewer steps"
            )
        evaluations += 1
        u = ControlProcess(
            u1=tuple(controls_for(a1, grid1)), u2=tuple(controls_for(a2, grid2))
        )
        traj, diag = solve_fbsde(problem, u, backend, fbsde_config)
        if not diag.converged:
            raise NonConvergenceError("oracle cost evaluation did not converge", diag)
        j1, _ = eval_cost(problem, traj, u, 1)
        j2, _ = eval_cost(problem, traj, u, 2)
        cache[key] = (j1, j2)
        return cache[key]

    def best_response(player: int, frozen: tuple[int, ...]) -> tuple[int, ...]:
        G = grid1.shape[0] if player == 1 else grid2.shape[0]
        best_a: tuple[int, ...] | None = None
        best_j = np.inf
        for cand in itertools.product(range(G), repeat=node_count):
            pair = (cand, frozen) if player == 1 else (frozen, cand)
            j_own = costs_at(*pair)[player - 1]
            if j_own < best_j:
                best_j = j_own
                best_a = cand
        assert best_a is not None
        return best_a

    a1 = tuple([0] * node_count)
    a2 = tuple([0] * node_count)
    seen = {(a1, a2)}
    cycle = False
    settled = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        new_a1 = best_response(1, a2)
        new_a2 = best_response(2, new_a1)
        if (new_a1, new_a2) == (a1, a2):
            settled = True
            break
        a1, a2 = new_a1, new_a2
        if (a1, a2) in seen:
            cycle = True
            break
        seen.add((a1, a2))
    j1, j2 = costs_at(a1, a2)

    def spacing(grid: Array) -> float:
        gaps = []
        for c in range(grid.shape[1]):
            vals = np.unique(grid[:, c])
            if vals.size > 1:
                gaps.append(float(np.diff(vals).max()))
        return max(gaps) if gaps else 0.0

    def bound_for(player: int) -> float:
        own_assign = a1 if player == 1 else a2
        other_assign = a2 if player == 1 else a1
        own_grid = grid1 if player == 1 else grid2
        other_grid = grid2 if player == 1 else grid1
        d_own = spacing(own_grid)
        d_other = spacing(other_grid)
        own_G = own_grid.shape[0]
        other_G = other_grid.shape[0]

        def pair(own, other):
            return (own, other) if player == 1 else (other, own)

        j_here = costs_at(*pair(own_assign, other_assign))[player - 1]
        own_term = 0.0
        for node in range(node_count):
            idx = own_assign[node]
            curv = 0.0
            if 0 < idx < own_G - 1:
                up = list(own_assign); up[node] = idx + 1
                dn = list(own_assign); dn[node] = idx - 1
                j_up = costs_at(*pair(tuple(up), other_assign))[player - 1]
                j_dn = costs_at(*pair(tuple(dn), other_assign))[player - 1]
                curv = abs(j_up - 2.0 * j_here + j_dn) / max(d_own**2, 1e-300)
            elif own_G > 1:
                step = 1 if idx == 0 else -1
                nb = list(own_assign); nb[node] = idx + step
                j_nb = costs_at(*pair(tuple(nb), other_assign))[player - 1]
                # boundary: fall back to the one-sided slope as a curvature proxy
                curv = 2.0 * abs(j_nb - j_here) / max(d_own**2, 1e-300)
            own_term += 0.5 * curv * (0.5 * d_own) ** 2
        cross_term = 0.0
        for node in range(node_count):
            idx = other_assign[node]
            lo = max(idx - 1, 0)
            hi = min(idx + 1, other_G - 1)
            if hi == lo:
                continue
            up = list(other_assign); up[node] = hi
            dn = list(other_assign); dn[node] = lo
            j_up = costs_at(*pair(own_assign, tuple(up)))[player - 1]
            j_dn = costs_at(*pair(own_assign, tuple(dn)))[player - 1]
            slope = abs(j_up - j_dn) / ((hi - lo) * max(d_other, 1e-300))
            cross_term += slope * 0.5 * d_other
        return own_term + cross_term

    bound1 = bound_for(1)
    bound2 = bound_for(2)
    return BruteForceReport(
        u1=tuple(controls_for(a1, grid1)),
        u2=tuple(controls_for(a2, grid2)),
        j1=j1,
        j2=j2,
        equilibrium=settled and not cycle,
        cycle_detected=cycle,
        rounds=rounds,
        evaluations=evaluations,
        resolution_bound_1=bound1,
        resolution_bound_2=bound2,
        assignment_1=a1,
        assignment_2=a2,
    )
