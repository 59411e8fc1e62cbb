"""Discrete solver for the coupled forward-backward state system.

Forward half (explicit Euler, per scenario):

    x[j+1] = x[j] + b(t_j, x[j], y[j], z[j], u[j]) dt + sigma(...) dB[j]

Backward half (conditional-expectation recursion from y[N] = xi(B_T)):

    z[j] = E[y[j+1] dB[j]' | F_j] / dt
    y[j] = E[y[j+1] | F_j] + f(t_j, x[j], E[y[j+1] | F_j], z[j], u[j]) dt

``solve_fbsde`` couples the two halves by damped Picard iteration on the
backward pair (y, z) and finishes with one forward pass at the converged
pair, so the returned trajectory satisfies the forward recursion exactly.
``damped_picard`` is that iteration for any forward sweep and backward
sweep; the costate systems of the ``adjoint`` module run through it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import Backend
from .problem import GameProblem

Array = np.ndarray


class NonFiniteStateError(RuntimeError):
    """Forward pass produced a non-finite state value."""

    def __init__(self, step: int, scenario: int):
        super().__init__(f"non-finite state at step {step}, scenario {scenario}")
        self.step = step
        self.scenario = scenario


class PicardDivergenceError(RuntimeError):
    """Fixed-point residual grew beyond 10x its initial value."""

    def __init__(self, diagnostics: "SolveDiagnostics"):
        super().__init__(
            f"Picard iteration diverged after {diagnostics.iterations} iterations "
            f"(residual {diagnostics.final_residual:.3e})"
        )
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class FbsdeConfig:
    """Picard controls: damping theta in (0, 1], sup-over-time mean-square tol."""

    max_picard: int = 50
    damping: float = 0.5
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.max_picard < 1:
            raise ValueError("max_picard must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    final_residual: float
    converged: bool
    residual_history: tuple[float, ...]
    ridge_fallbacks: int = 0
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ControlProcess:
    """Adapted controls, one array of shape (S_j, k_i) per step j = 0..N-1."""

    u1: tuple[Array, ...]
    u2: tuple[Array, ...]

    @classmethod
    def constant(cls, problem: GameProblem, backend: Backend, value1, value2) -> "ControlProcess":
        v1 = np.atleast_1d(np.asarray(value1, dtype=float))
        v2 = np.atleast_1d(np.asarray(value2, dtype=float))
        N = backend.grid.steps
        u1 = tuple(np.tile(v1, (backend.scenario_count(j), 1)) for j in range(N))
        u2 = tuple(np.tile(v2, (backend.scenario_count(j), 1)) for j in range(N))
        return cls(u1=u1, u2=u2)

    @classmethod
    def midpoint(cls, problem: GameProblem, backend: Backend) -> "ControlProcess":
        return cls.constant(
            problem, backend, problem.u1_box.midpoint(), problem.u2_box.midpoint()
        )

    def player(self, i: int) -> tuple[Array, ...]:
        return self.u1 if i == 1 else self.u2

    def replace_player(self, i: int, arrays) -> "ControlProcess":
        arrays = tuple(arrays)
        if i == 1:
            return ControlProcess(u1=arrays, u2=self.u2)
        return ControlProcess(u1=self.u1, u2=arrays)

    @property
    def steps(self) -> int:
        return len(self.u1)


@dataclass(frozen=True)
class StateTrajectory:
    """Solved (x, y, z) fields plus the backend that produced them.

    x and y live on steps 0..N, z on 0..N-1.
    """

    x: tuple[Array, ...]
    y: tuple[Array, ...]
    z: tuple[Array, ...]
    backend: Backend

    @property
    def steps(self) -> int:
        return len(self.x) - 1


def _start_pair(backend: Backend, initial, a_shape: tuple, b_shape: tuple):
    """Float copies of a warm start (a, b), or zeros: a on steps 0..N with
    trailing shape a_shape, b on steps 0..N-1 with trailing shape b_shape."""
    if initial is not None:
        a, b = initial
        return [np.array(v, dtype=float) for v in a], [np.array(v, dtype=float) for v in b]
    N = backend.grid.steps
    a = [np.zeros((backend.scenario_count(j),) + a_shape) for j in range(N + 1)]
    b = [np.zeros((backend.scenario_count(j),) + b_shape) for j in range(N)]
    return a, b


def forward_pass(
    problem: GameProblem,
    u: ControlProcess,
    ys,
    zs,
    backend: Backend,
) -> list[Array]:
    """Explicit Euler for x given the current backward guess. Raises on non-finite."""
    grid = backend.grid
    knots = grid.knots
    xs = [np.broadcast_to(problem.initial, (backend.scenario_count(0), problem.dims.n)).copy()]
    co = problem.coefficients
    for j in range(grid.steps):
        t = float(knots[j])
        x, y, z = xs[j], ys[j], zs[j]
        drift = co.b(t, x, y, z, u.u1[j], u.u2[j])
        diffusion = co.sigma(t, x, y, z, u.u1[j], u.u2[j])
        nxt = backend.step_forward(j, x, drift, diffusion)
        if not np.all(np.isfinite(nxt)):
            bad = np.argwhere(~np.isfinite(nxt))
            raise NonFiniteStateError(step=j + 1, scenario=int(bad[0][0]))
        xs.append(nxt)
    return xs


def backward_pass(
    problem: GameProblem,
    u: ControlProcess,
    xs,
    backend: Backend,
    y_guess=None,
) -> tuple[list[Array], list[Array], int]:
    """Conditional-expectation recursion for (y, z) given x.

    The driver is applied explicitly at E[y[j+1] | F_j].  Returns the pair
    plus the number of steps where regression fell back to ridge.
    """
    grid = backend.grid
    N = grid.steps
    dt = grid.dt
    co = problem.coefficients
    include_y = getattr(backend, "regression", None) is not None and backend.regression.include_y
    ys: list[Array | None] = [None] * (N + 1)
    zs: list[Array | None] = [None] * N
    ys[N] = np.asarray(problem.terminal.xi(backend.brownian(N)), dtype=float)
    ridge_events = 0
    for j in range(N - 1, -1, -1):
        regressors = xs[j]
        if include_y and y_guess is not None:
            regressors = np.concatenate([xs[j], y_guess[j]], axis=1)
        zvals, r1 = backend.cond_exp_increment(j, ys[j + 1], regressors)
        z = zvals / dt
        yhat, r2 = backend.cond_exp(j, ys[j + 1], regressors)
        t = float(grid.knots[j])
        y = yhat + co.f(t, xs[j], yhat, z, u.u1[j], u.u2[j]) * dt
        ys[j] = y
        zs[j] = z
        ridge_events += int(r1) + int(r2)
    return ys, zs, ridge_events


def _update_metric(backend: Backend, ys_new, zs_new, ys_old, zs_old) -> Array:
    """Sup over time of the scenario-mean squared update of (y, z), one value
    per member (a plain backend is one member)."""
    worst = np.zeros(getattr(backend, "members", 1))
    N = len(zs_new)
    for j in range(N + 1):
        dy = ys_new[j] - ys_old[j]
        total = np.einsum("sk,sk->s", dy, dy)
        if j < N:
            dz = (zs_new[j] - zs_old[j]).reshape(dy.shape[0], -1)
            total = total + np.einsum("sk,sk->s", dz, dz)
        np.fmax(worst, backend.expect(j, total), out=worst)  # a NaN mean leaves worst
    return worst


def damped_picard(forward, backward, start, backend: Backend, config: FbsdeConfig, label: str):
    """Damped Picard iteration on a backward pair (a, b) on steps 0..N, 0..N-1.

    Each pass runs ``forward(a, b)`` and then ``backward(fwd, a)``, which
    returns the next (a, b) and its ridge-fallback count; the residual is
    `_update_metric` between consecutive outputs, the first against `start`.
    The iterate moves by damping theta toward each output.  Divergence
    (residual above 10x its first value) raises PicardDivergenceError;
    hitting max_picard keeps the best output with converged = False.  A last
    forward sweep at the returned pair makes the forward recursion hold
    there.  Returns (fwd, a, b, diagnostics), one SolveDiagnostics per
    member; warnings name `label`.

    On a member view (``drivers.MemberLattice``) every member runs this
    iteration on its own rows: its own residuals, warnings, best output,
    stop and divergence check.  A member that has stopped keeps its iterate,
    so the passes the others still need repeat its last input and cannot
    change its result.  A plain backend is the one-member case.
    """
    members = getattr(backend, "members", 1)
    a_in, b_in = start
    prev_a, prev_b = start
    theta = config.damping
    histories: list[list[float]] = [[] for _ in range(members)]
    warnings: list[list[str]] = [[] for _ in range(members)]
    best = [np.inf] * members
    converged = [False] * members
    running = list(range(members))
    ridge_total = 0
    best_a, best_b = a_in, b_in

    def pick(chosen: list[int], new: list, old: list) -> list:
        """Per step, the rows of the chosen members from new, the rest from old."""
        if len(chosen) == members:
            return new
        if not chosen:
            return old
        mask = np.zeros(members, dtype=bool)
        mask[chosen] = True
        out = []
        for j, (a, b) in enumerate(zip(new, old)):
            rows = backend.member_rows(j, mask).reshape((-1,) + (1,) * (a.ndim - 1))
            out.append(np.where(rows, a, b))
        return out

    def damped(new, old):
        return [theta * n + (1.0 - theta) * o for n, o in zip(new, old)]

    def diagnostics(b: int) -> SolveDiagnostics:
        return SolveDiagnostics(
            iterations=len(histories[b]),
            final_residual=histories[b][-1],
            converged=converged[b],
            residual_history=tuple(histories[b]),
            ridge_fallbacks=ridge_total,
            warnings=tuple(warnings[b]),
        )

    for it in range(1, config.max_picard + 1):
        a_out, b_out, ridge = backward(forward(a_in, b_in), a_in)
        ridge_total += ridge
        residual = _update_metric(backend, a_out, b_out, prev_a, prev_b).tolist()
        improved, still = [], []
        for b in running:
            r, history = residual[b], histories[b]
            if history and r > history[-1]:
                warnings[b].append(f"{label} residual non-monotone at iteration {it}")
            history.append(r)
            # a stopping member's residual is its lowest (every earlier one
            # was above tol), so its best output is the one it stops at
            if it == 1 or r < best[b]:
                best[b] = r
                improved.append(b)
            if r <= config.tol:
                converged[b] = True
            else:
                still.append(b)
        best_a = pick(improved, a_out, best_a)
        best_b = pick(improved, b_out, best_b)
        running = still
        for b in running:
            first = histories[b][0]
            if first > 0.0 and histories[b][-1] > 10.0 * first:
                raise PicardDivergenceError(diagnostics(b))
        if not running:
            break
        a_in = pick(running, damped(a_out, a_in), a_in)
        b_in = pick(running, damped(b_out, b_in), b_in)
        prev_a, prev_b = a_out, b_out
    return forward(best_a, best_b), best_a, best_b, tuple(diagnostics(b) for b in range(members))


def solve_members(
    problem: GameProblem,
    u: ControlProcess,
    backend: Backend,
    config: FbsdeConfig = FbsdeConfig(),
    initial=None,
) -> tuple[StateTrajectory, tuple[SolveDiagnostics, ...]]:
    """`solve_fbsde` with one SolveDiagnostics per member of the backend.

    On a ``drivers.MemberLattice`` the returned trajectory stacks every
    member's own solve; a plain backend is one member.
    """
    m, d = problem.dims.m, problem.dims.d
    # the sweeps look forward_pass and backward_pass up at call time, so a
    # wrapper rebound over either module name sees every pass
    xs, ys, zs, diagnostics = damped_picard(
        lambda ys, zs: forward_pass(problem, u, ys, zs, backend),
        lambda xs, ys: backward_pass(problem, u, xs, backend, y_guess=ys),
        _start_pair(backend, initial, (m,), (m, d)),
        backend,
        config,
        "picard",
    )
    return StateTrajectory(x=tuple(xs), y=tuple(ys), z=tuple(zs), backend=backend), diagnostics


def solve_fbsde(
    problem: GameProblem,
    u: ControlProcess,
    backend: Backend,
    config: FbsdeConfig = FbsdeConfig(),
    initial=None,
) -> tuple[StateTrajectory, SolveDiagnostics]:
    """Damped Picard iteration until the (y, z) pass output stabilizes.

    `initial` warm-starts the backward pair with (ys, zs) from an earlier
    solve.  Divergence and the iteration cap behave as in `damped_picard`.
    """
    traj, (diagnostics,) = solve_members(problem, u, backend, config, initial)
    return traj, diagnostics
