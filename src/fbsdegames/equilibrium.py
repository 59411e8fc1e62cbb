"""Candidate Nash points by projected gradient, with independent validators.

The search loop alternates full system solves (state, then both costate
triples as one paired solve, ``adjoint.solve_adjoints``, all warm-started
between outer iterations) with box-projected gradient steps on the two
controls.  Progress is measured by the merit
max(rho_1, rho_2) where rho_i is the stationarity residual of player i; a
step is accepted only when the merit strictly decreases, so the recorded
merit sequence is non-increasing by construction.

Validators, deliberately decoupled from the search: cost evaluation with a
standard error on sampled backends, a directional-derivative pair (costate
form against a two-sided cost difference), and an exhaustive grid oracle for
tiny recombining trees.  The oracle solves the candidate profiles of a best
response in batches: one damped Picard solve over a member axis
(``drivers.MemberLattice``) in which every member gets, bit for bit, the
solve its profile would get alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint, solve_adjoints
from .drivers import Backend, MemberLattice
from .fbsde import (
    ControlProcess,
    FbsdeConfig,
    NonFiniteStateError,
    PicardDivergenceError,
    SolveDiagnostics,
    StateTrajectory,
    solve_fbsde,
    solve_members,
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


class NonFiniteCostError(RuntimeError):
    """Enumeration oracle met a control profile whose cost is not finite."""


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

    def __post_init__(self) -> None:
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.mode not in ("simultaneous", "best-response"):
            raise ValueError(f"mode must be 'simultaneous' or 'best-response', got {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be >= 0, got {self.max_halvings}")


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


def eval_cost(
    problem: GameProblem,
    traj: StateTrajectory,
    u: ControlProcess,
    player: int,
) -> tuple[float, float]:
    """Total cost of one player: running part by left-endpoint quadrature,
    terminal part at x(T), initial part at y(0).

    Returns (estimate, standard error); the error is zero on the lattice
    where the expectation is exact.  On a ``drivers.MemberLattice`` the
    estimate is an array with one cost per member.
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
        running = l(t, traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j])
        value = value + dt * backend.expect(j, running)
    value = value + backend.expect(N, phi(traj.x[N]))
    value = value + backend.expect(0, h(traj.y[0]))
    return (float(value) if np.ndim(value) == 0 else value), 0.0


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
        """Warm starts for the next evaluation: the state's (y, z) and both
        players' (p, q)."""
        return (
            (self.traj.y, self.traj.z),
            ((self.adj1.p, self.adj1.q), (self.adj2.p, self.adj2.q)),
        )


def _evaluate(problem, u, backend, config, warm=None) -> _EvalState:
    """The state solve, one paired costate solve and the VI residual at u."""
    traj, fd = solve_fbsde(problem, u, backend, config, initial=warm[0] if warm else None)
    (adj1, adj2), adj_diag = solve_adjoints(
        problem, traj, u, backend, config, initial=warm[1] if warm else None
    )
    vi = vi_residual(problem, traj, adj1, adj2, u)
    return _EvalState(traj=traj, adj1=adj1, adj2=adj2, vi=vi, fbsde_diag=fd, adj_diag=adj_diag)


def _stepped(problem, u, state, alpha, players) -> ControlProcess:
    out = u
    for player in players:
        grads = state.vi.grad1 if player == 1 else state.vi.grad2
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
    the loop is deterministic, so repeating it cannot help.  A step is
    accepted only when the merit strictly decreases, so the current iterate
    is always the best one so far, and it is the one returned.
    """
    u = initial if initial is not None else ControlProcess.midpoint(problem, backend)
    state = _evaluate(problem, u, backend, fbsde_config)
    history: list[IterationRecord] = []
    warnings: list[str] = []
    players_by_mode = {
        "simultaneous": ((1, 2),),
        "best-response": ((1,), (2,)),
    }[grad_config.mode]
    for it in range(1, grad_config.max_iterations + 1):
        j1, _ = eval_cost(problem, state.traj, u, 1)
        j2, _ = eval_cost(problem, state.traj, u, 2)
        rho1_it, rho2_it = state.vi.rho1, state.vi.rho2
        if state.merit <= grad_config.tolerance:
            history.append(IterationRecord(it, j1, j2, rho1_it, rho2_it, 0.0))
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
        if not improved:
            warnings.append(f"no improving step at iteration {it}; search stopped")
            break
    converged = state.merit <= grad_config.tolerance
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


# Control profiles per batched state solve in brute_force_nash: a best
# response's uncached profiles are solved together in chunks of at most this
# many members, so memory stays bounded for large grids.
_ORACLE_MEMBERS = 256

# what fails a batched chunk and sends its profiles through one at a time
_ORACLE_FAILURES = (
    PicardDivergenceError, NonFiniteStateError, NonConvergenceError, NonFiniteCostError
)


def _profile_costs(problem, backend, profiles, config) -> list[tuple[float, float]]:
    """Both players' costs of each (u1, u2) profile, from one member-batched solve.

    Any member that fails (divergence, a non-finite state, no convergence or
    a non-finite cost) fails the whole call.  A one-member call fails as that
    profile's own `solve_fbsde` does, with NonConvergenceError when it stops
    unconverged and with NonFiniteCostError when a cost is not finite.
    """
    view = MemberLattice(backend, len(profiles))
    steps = range(backend.grid.steps)
    u = ControlProcess(
        u1=tuple(view.stack([p[0][j] for p in profiles]) for j in steps),
        u2=tuple(view.stack([p[1][j] for p in profiles]) for j in steps),
    )
    traj, diagnostics = solve_members(problem, u, view, config)
    for diag in diagnostics:
        if not diag.converged:
            raise NonConvergenceError("oracle cost evaluation did not converge", diag)
    j1, _ = eval_cost(problem, traj, u, 1)
    j2, _ = eval_cost(problem, traj, u, 2)
    costs = list(zip(j1.tolist(), j2.tolist()))
    for a, b in costs:
        if not (np.isfinite(a) and np.isfinite(b)):
            raise NonFiniteCostError(f"oracle cost is not finite (J1={a}, J2={b})")
    return costs


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

    A best response, and the neighbours the resolution bounds read, are
    solved in batches: the uncached profiles, in enumeration order, go
    through one member-batched Picard solve per chunk of `_ORACLE_MEMBERS`.
    Each member is the solve of its profile alone, bit for bit, so the costs,
    the evaluation count and the result do not depend on the chunking.  When
    a chunk fails, its profiles are solved again one at a time, in order, and
    the first failure is raised as the unbatched loop would raise it.  Past
    the budget, the profiles that fit are evaluated and then
    BudgetExceededError is raised; a best response with more candidates than
    the whole budget raises it before anything is enumerated.  Candidates
    are enumerated lazily, `_ORACLE_MEMBERS` at a time.  A non-finite cost
    raises NonFiniteCostError.
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
    exhausted = (f"enumeration budget of {budget} cost evaluations exhausted; "
                 "use a smaller grid or fewer steps")

    def controls_for(assignment: tuple[int, ...], grid: Array) -> list[Array]:
        return [grid[list(assignment[offsets[j]:offsets[j + 1]])] for j in range(N)]

    def solve(keys) -> None:
        """Fill the cache for keys, evaluating the uncached ones in order."""
        nonlocal evaluations
        missing = list(dict.fromkeys(key for key in keys if key not in cache))
        fitting = missing[:max(budget - evaluations, 0)]
        for start in range(0, len(fitting), _ORACLE_MEMBERS):
            chunk = fitting[start:start + _ORACLE_MEMBERS]
            profiles = [(controls_for(a1, grid1), controls_for(a2, grid2)) for a1, a2 in chunk]
            try:
                costs = _profile_costs(problem, backend, profiles, fbsde_config)
            except _ORACLE_FAILURES:
                costs = None
            if costs is None:
                # one at a time, in order: the first failing profile raises as it would alone
                costs = [_profile_costs(problem, backend, [p], fbsde_config)[0] for p in profiles]
            cache.update(zip(chunk, costs))
            evaluations += len(chunk)
        if len(fitting) < len(missing):
            raise BudgetExceededError(exhausted)

    def best_response(player: int, frozen: tuple[int, ...]) -> tuple[int, ...]:
        G = grid1.shape[0] if player == 1 else grid2.shape[0]
        if G**node_count > budget:
            # the cache holds at most `budget` profiles, so some candidate
            # would have to be evaluated past the budget
            raise BudgetExceededError(exhausted)
        cands = itertools.product(range(G), repeat=node_count)
        best_a: tuple[int, ...] | None = None
        best_j = np.inf
        while chunk := list(itertools.islice(cands, _ORACLE_MEMBERS)):
            pairs = [(cand, frozen) if player == 1 else (frozen, cand) for cand in chunk]
            solve(pairs)
            for cand, pair in zip(chunk, pairs):
                j_own = cache[pair][player - 1]
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
    solve([(a1, a2)])
    j1, j2 = cache[(a1, a2)]

    def bound_for(player: int) -> float:
        # the grid spacing d cancels: a half-cell move costs curvature/d^2 *
        # (d/2)^2 / 2 and slope/d * d/2, so the terms are index differences,
        # each scaled before subtracting so that no intermediate overflows
        own_assign = a1 if player == 1 else a2
        other_assign = a2 if player == 1 else a1
        own_G = (grid1 if player == 1 else grid2).shape[0]
        other_G = (grid2 if player == 1 else grid1).shape[0]

        def pair(own, other):
            return (own, other) if player == 1 else (other, own)

        def moved(assign, node, idx):
            out = list(assign)
            out[node] = idx
            return tuple(out)

        here = pair(own_assign, other_assign)
        own_moves = []  # per node: (up, down) inside the grid, (neighbour,) at its edge
        for node in range(node_count):
            idx = own_assign[node]
            if 0 < idx < own_G - 1:
                own_moves.append((pair(moved(own_assign, node, idx + 1), other_assign),
                                  pair(moved(own_assign, node, idx - 1), other_assign)))
            elif own_G > 1:
                step = 1 if idx == 0 else -1
                own_moves.append((pair(moved(own_assign, node, idx + step), other_assign),))
        cross_moves = []  # per node: (up, down, index distance)
        for node in range(node_count):
            idx = other_assign[node]
            lo = max(idx - 1, 0)
            hi = min(idx + 1, other_G - 1)
            if hi > lo:
                cross_moves.append((pair(own_assign, moved(other_assign, node, hi)),
                                    pair(own_assign, moved(other_assign, node, lo)), hi - lo))
        solve([here] + [key for keys in own_moves for key in keys]
              + [key for up, dn, _ in cross_moves for key in (up, dn)])

        def J(key):
            return cache[key][player - 1]

        own_term = 0.0
        for keys in own_moves:
            if len(keys) == 2:
                own_term += abs(0.125 * J(keys[0]) - 0.25 * J(here) + 0.125 * J(keys[1]))
            else:
                # boundary: fall back to the one-sided slope as a curvature proxy
                own_term += abs(0.25 * J(keys[0]) - 0.25 * J(here))
        cross_term = 0.0
        for up, dn, width in cross_moves:
            cross_term += abs(0.5 * J(up) - 0.5 * J(dn)) / width
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
