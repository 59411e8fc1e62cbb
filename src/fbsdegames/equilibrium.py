"""Candidate Nash points by projected gradient, with independent validators.

An open-loop Nash point over the control boxes solves a variational
inequality, which is a fixed point of the projected-gradient map

    T(u) = Proj_U(u - alpha grad_u H),    alpha = GradientConfig.step.

`solve_nash` finds it by type-II Anderson extrapolation of T (Walker & Ni
2011, SIAM J. Numer. Anal. 49(4)), with backtracking along the plain step
as the fallback.  Every trial point costs one evaluation: a full system
solve (state, then both costate triples, ``adjoint.solve_adjoints``,
warm-started from the current iterate) and the stationarity residuals.
Progress is measured by the merit max(rho_1, rho_2) where rho_i is the
stationarity residual of player i; a step is accepted only when the merit
strictly decreases, so the recorded merit sequence is strictly decreasing
by construction.

Validators, deliberately decoupled from the search: cost evaluation with a
standard error on sampled backends, a directional-derivative pair (costate
form against a two-sided cost difference), and an exhaustive grid oracle for
tiny recombining trees.  The oracle solves the candidate profiles of a best
response in batches: one Picard solve (`fbsde.damped_picard`) over a member
axis (`drivers.LatticeBackend.with_members`) in which every member gets,
bit for bit, the solve its profile would get alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint, solve_adjoints
from .drivers import Backend, StepArray
from .fbsde import (
    ControlProcess,
    FbsdeConfig,
    NonFiniteStateError,
    PicardDivergenceError,
    SolveDiagnostics,
    StateTrajectory,
    _state_rows,
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

    step is alpha in the map T(u) = Proj_U(u - alpha grad_u H) that the
    search extrapolates, and the first length of the fallback backtracking,
    which halves it until the merit decreases, at most max_halvings times.
    """

    step: float = 0.1
    max_iterations: int = 500
    tolerance: float = 1e-6
    max_halvings: int = 20

    def __post_init__(self) -> None:
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be >= 0, got {self.max_halvings}")


@dataclass(frozen=True)
class IterationRecord:
    """One outer iteration: the costs and residuals it started from, the
    length alpha of its accepted step (0 if none), the evaluations it spent,
    rejected trials included (the first iteration also counts the one at the
    starting controls), whether an accepted step was the Anderson point,
    and the inner Picard passes those evaluations spent: state passes, and
    costate passes, per evaluation the longer player's (the players' solves
    are paired on the lattice and one at a time on Monte Carlo)."""

    iteration: int
    j1: float
    j2: float
    rho1: float
    rho2: float
    step_size: float
    evaluations: int
    extrapolated: bool
    state_passes: int
    costate_passes: int


@dataclass(frozen=True)
class EquilibriumReport:
    """The returned controls with the state and costates they were certified
    along: rho_i, the certificate and the state (`fbsde`) and costate
    (`adjoint`) solve diagnostics all belong to `trajectory` and `adjoints`.
    The per-row processes and the history stay out of report.json."""

    controls: ControlProcess = field(repr=False)
    j1: float
    j2: float
    stderr1: float
    stderr2: float
    rho1: float
    rho2: float
    history: tuple[IterationRecord, ...] = field(repr=False)
    certificate: VerificationCertificate
    converged: bool
    fbsde: SolveDiagnostics
    adjoint: tuple[SolveDiagnostics, SolveDiagnostics]
    trajectory: StateTrajectory = field(repr=False)
    adjoints: tuple[AdjointTrajectory, AdjointTrajectory] = field(repr=False)
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
    where the expectation is exact.  On a lattice with B > 1 members the
    estimate is an array with one cost per member.
    """
    backend = traj.backend
    N, dt = backend.grid.steps, backend.grid.dt
    phi = problem.costs.terminal(player)
    h = problem.costs.initial(player)
    # the running cost of every row in one call; the sums over steps go step by step
    running = problem.costs.running(player)(*_state_rows(traj, u))
    if backend.kind == "montecarlo":
        total = np.zeros(backend.scenario_count(0))
        for step in running.reshape(N, -1):
            total += dt * step
        total += phi(traj.x[N]) + h(traj.y[0])
        P = total.shape[0]
        stderr = float(total.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0
        return float(total.mean()), stderr
    value = backend.integrate(running)
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
    direction = StepArray.of(direction)
    traj, _ = _solved(problem, u, backend, fbsde_config, what="base")
    adj, adiag = solve_adjoint(problem, traj, u, player, backend, fbsde_config)
    if not adiag.converged:
        raise NonConvergenceError("costate solve did not converge", adiag)
    grads = control_gradient(problem, traj, adj, u, player)
    adjoint_form = float(backend.integrate(np.einsum("sv,sv->s", grads.rows, direction.rows)))
    offsets = direction.offsets
    box = problem.box(player)
    own = u.player(player).rows
    plus, minus = own + epsilon * direction.rows, own - epsilon * direction.rows
    feasible = box.contains(plus) and box.contains(minus)
    warm = (traj.y, traj.z)
    u_plus = u.replace_player(player, StepArray(plus, offsets))
    u_minus = u.replace_player(player, StepArray(minus, offsets))
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

    @property
    def spent(self) -> Array:
        """(evaluations, state passes, costate passes) of this evaluation."""
        return np.array([1, self.fbsde_diag.iterations,
                         max(diag.iterations for diag in self.adj_diag)])

    def warm(self):
        """Warm starts for the next evaluation: the state's (y, z) and both
        players' (p, q)."""
        return (
            (self.traj.y, self.traj.z),
            ((self.adj1.p, self.adj1.q), (self.adj2.p, self.adj2.q)),
        )


def _evaluate(problem, u, backend, config, warm=None) -> _EvalState:
    """The state solve, both players' costate solves and the VI residual at u.

    A PicardDivergenceError leaves with `spent`, the evaluation's
    (evaluations, state passes, costate passes) up to the divergence, the
    costate passes being those of the diverging solve.
    """
    try:
        traj, fd = solve_fbsde(problem, u, backend, config, initial=warm[0] if warm else None)
    except PicardDivergenceError as exc:
        exc.spent = np.array([1, exc.diagnostics.iterations, 0])
        raise
    try:
        (adj1, adj2), adj_diag = solve_adjoints(
            problem, traj, u, backend, config, initial=warm[1] if warm else None
        )
    except PicardDivergenceError as exc:
        exc.spent = np.array([1, fd.iterations, exc.diagnostics.iterations])
        raise
    vi = vi_residual(problem, traj, adj1, adj2, u)
    return _EvalState(traj=traj, adj1=adj1, adj2=adj2, vi=vi, fbsde_diag=fd, adj_diag=adj_diag)


def _projected(problem, u: ControlProcess) -> ControlProcess:
    """u, just built, with each player's rows projected onto the player's
    box in place."""
    for player in (1, 2):
        box, rows = problem.box(player), u.player(player).rows
        np.clip(rows, box.lower, box.upper, out=rows)
    return u


def _stepped(problem, u, state, alpha) -> ControlProcess:
    return _projected(problem, ControlProcess.from_rows(
        u.u1.rows - alpha * state.vi.grad1.rows, u.u2.rows - alpha * state.vi.grad2.rows,
        u.u1.offsets))


# Anderson memory: how many of the latest differences the extrapolation combines.
_ANDERSON_MEMORY = 4


class _Anderson:
    """Type-II Anderson extrapolation of T for both players' controls.

    x is the controls flattened player by player and step by step (the
    buffer of a ControlProcess, kept as a view), and f = T(u) - u at x.
    The last `_ANDERSON_MEMORY` differences of x and of f fill preallocated
    rows in turn, so the history is those two arrays plus the last f.
    """

    def __init__(self, u: ControlProcess):
        size = u.flat.shape[0]
        self.dx = np.empty((_ANDERSON_MEMORY, size))
        self.df = np.empty((_ANDERSON_MEMORY, size))
        self.differences = 0
        self.x: Array | None = None
        self.f: Array | None = None

    def record(self, u: ControlProcess, mapped: ControlProcess) -> None:
        """Add x = u and f = T(u) - u, where mapped = T(u)."""
        x = u.flat
        f = mapped.flat - x
        if self.x is not None:
            slot = self.differences % _ANDERSON_MEMORY
            np.subtract(x, self.x, out=self.dx[slot])
            np.subtract(f, self.f, out=self.df[slot])
            self.differences += 1
        self.x, self.f = x, f

    def point(self, problem: GameProblem, u: ControlProcess) -> ControlProcess | None:
        """The projected Anderson point x + f - (dX + dF) gamma, gamma the
        least-squares fit of f by dF; None while there is no difference to
        combine."""
        used = min(self.differences, _ANDERSON_MEMORY)
        if used == 0:
            return None
        dx, df = self.dx[:used], self.df[:used]
        # the normal equations, used x used, in one LAPACK call: reruns round alike
        gamma = np.linalg.lstsq(df @ df.T, df @ self.f, rcond=None)[0]
        flat = self.x + self.f
        flat -= gamma @ dx
        flat -= gamma @ df
        return _projected(problem, ControlProcess.from_flat(
            flat, u.u1.offsets, u.u1.rows.shape[1], u.u2.rows.shape[1]))


def _advance(problem, backend, fbsde_config, grad_config, anderson, u, state):
    """One update from (u, state): the Anderson point, then the plain step
    T(u), then that step at halved lengths, until a trial strictly lowers
    the merit.  A trial whose solve diverges is skipped.

    Returns ((u, state, alpha, extrapolated) of the accepted trial, or None)
    and the (evaluations, state passes, costate passes) spent.
    """
    alpha = grad_config.step
    anderson.record(u, _stepped(problem, u, state, alpha))

    def trials():
        # one candidate's controls alive at a time: the plain step is formed
        # again after the Anderson point is let go
        point = anderson.point(problem, u)
        if point is not None:
            yield point, alpha, True
        del point
        length = alpha
        for _ in range(grad_config.max_halvings + 1):
            yield _stepped(problem, u, state, length), length, False
            length *= 0.5

    spent = np.zeros(3, dtype=int)
    for trial_u, length, extrapolated in trials():
        try:
            trial = _evaluate(problem, trial_u, backend, fbsde_config, warm=state.warm())
        except PicardDivergenceError as exc:
            spent += exc.spent
            continue
        spent += trial.spent
        if trial.merit < state.merit:
            return (trial_u, trial, length, extrapolated), spent
    return None, spent


def solve_nash(
    problem: GameProblem,
    backend: Backend,
    fbsde_config: FbsdeConfig = FbsdeConfig(),
    grad_config: GradientConfig = GradientConfig(),
    certificate_options: CertificateOptions = CertificateOptions(),
    initial: ControlProcess | None = None,
) -> EquilibriumReport:
    """Drive both stationarity residuals to the tolerance, then certify.

    Each outer iteration moves both players' controls at once through
    `_advance`, with one Anderson history; the first iteration, with no
    difference recorded yet, starts at the plain step.  A failed iteration
    ends the search: the loop is deterministic, so repeating it cannot
    help.  A step is accepted only when the merit strictly decreases, so
    the current iterate is always the best one so far, and it is the one
    returned.  The Anderson history is released before the certificate is
    built.
    """
    u = initial if initial is not None else ControlProcess.midpoint(problem, backend)
    state = _evaluate(problem, u, backend, fbsde_config)
    spent = state.spent  # (evaluations, state passes, costate passes) of the iteration
    history: list[IterationRecord] = []
    warnings: list[str] = []
    anderson = _Anderson(u)

    def record(alpha, extrapolated):
        """The current iteration's IterationRecord."""
        evaluations, state_passes, costate_passes = spent.tolist()
        return IterationRecord(it, j1, j2, rho1_it, rho2_it, alpha, evaluations,
                               extrapolated, state_passes, costate_passes)

    for it in range(1, grad_config.max_iterations + 1):
        j1, _ = eval_cost(problem, state.traj, u, 1)
        j2, _ = eval_cost(problem, state.traj, u, 2)
        rho1_it, rho2_it = state.vi.rho1, state.vi.rho2
        if state.merit <= grad_config.tolerance:
            history.append(record(0.0, False))
            break
        accepted, evaluations = _advance(
            problem, backend, fbsde_config, grad_config, anderson, u, state)
        spent += evaluations
        if accepted is None:
            history.append(record(0.0, False))
            warnings.append(f"no improving step at iteration {it}; search stopped")
            break
        u, state, accepted_alpha, extrapolated = accepted
        history.append(record(accepted_alpha, extrapolated))
        spent = np.zeros(3, dtype=int)
    del anderson
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
        fbsde=state.fbsde_diag,
        adjoint=state.adj_diag,
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

    Any member that fails (divergence, a non-finite state, a non-finite cost
    or no convergence) fails the whole call.  A one-member call fails as that
    profile's own `solve_fbsde` does, then with NonFiniteCostError when a
    cost is not finite, and else with NonConvergenceError when it stopped
    unconverged: a cost that overflows is the cause, whatever the solve did.
    """
    view = backend.with_members(len(profiles))
    u = ControlProcess.from_rows(
        *(view.stack([StepArray.of(p[i]).rows for p in profiles]) for i in (0, 1)),
        view.offsets[: backend.grid.steps + 1],
    )
    traj, diagnostics = solve_members(problem, u, view, config)
    j1, _ = eval_cost(problem, traj, u, 1)
    j2, _ = eval_cost(problem, traj, u, 2)
    costs = list(zip(np.atleast_1d(j1).tolist(), np.atleast_1d(j2).tolist()))
    for a, b in costs:
        if not (np.isfinite(a) and np.isfinite(b)):
            raise NonFiniteCostError(f"oracle cost is not finite (J1={a}, J2={b})")
    for diag in diagnostics:
        if not diag.converged:
            raise NonConvergenceError("oracle cost evaluation did not converge", diag)
    return costs


def brute_force_nash(
    problem: GameProblem,
    backend: Backend,
    grid1: Array,
    grid2: Array,
    budget: int,
    max_rounds: int,
    fbsde_config: FbsdeConfig,
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
    BudgetExceededError is raised; a grid whose best response has more
    candidates than the whole budget raises it before anything is
    enumerated.  Candidates are enumerated lazily, `_ORACLE_MEMBERS` at a
    time.  A non-finite cost raises NonFiniteCostError.
    """
    if backend.kind != "lattice":
        raise ValueError("the enumeration oracle requires the lattice backend")
    grid1 = np.atleast_2d(np.asarray(grid1, dtype=float))
    grid2 = np.atleast_2d(np.asarray(grid2, dtype=float))
    if grid1.shape[1] != problem.dims.k1 or grid2.shape[1] != problem.dims.k2:
        raise ValueError("control grid width does not match control dimension")
    N = backend.grid.steps
    offsets = backend.offsets[: N + 1]
    node_count = offsets[-1]
    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, float]] = {}
    evaluations = 0
    exhausted = (f"enumeration budget of {budget} cost evaluations exhausted; "
                 "use a smaller grid or fewer steps")

    def controls_for(assignment: tuple[int, ...], grid: Array) -> StepArray:
        return StepArray(grid[list(assignment)], offsets)

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

    if max(grid1.shape[0], grid2.shape[0]) ** node_count > budget:
        # the cache holds at most `budget` profiles, so some candidate of a
        # best response would have to be evaluated past the budget; checked
        # before any grid value is read
        raise BudgetExceededError(exhausted)
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
