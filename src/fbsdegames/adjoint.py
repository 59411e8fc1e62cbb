"""Per-player costate system along a solved trajectory.

For player i the costate triple (k, p, q) obeys, along a fixed state
trajectory and control pair,

    k[0]   = -dh_i/dy (y[0])
    k[j+1] = k[j] - G_y dt - G_z dB        (forward, explicit)
    p[N]   = dphi_i/dx (x[N])
    q[j]   = E[p[j+1] dB' | F_j] / dt
    p[j]   = E[p[j+1] | F_j] + G_x dt      (backward)

where G_v is the costate combination b_v' p + sigma_v' q - f_v' k + l_iv.
Its partials depend only on (t, x, y, z, u1, u2), which a solve holds fixed,
so `solve_adjoint` evaluates them once per step and stacks them into one
matrix per step acting on (p, q flattened, k), with l_iv kept beside it;
each Picard pass then makes one contraction per step forward (for G_y, G_z)
and one backward (for G_x).
`costate_combination` assembles the same vectors from the callbacks at a
single step; it is the reference the solver is tested against, and the
`hamiltonian` module's gradients of H_i call it.

The costate system is itself a coupled forward-backward system, k forward
and (p, q) backward, and linear in (k, p, q): `solve_adjoint` runs it
through `fbsde.damped_picard`, the iteration of the state solve, which
contracts geometrically for moderate coupling.

`duality_residual` evaluates the discrete integration-by-parts identity that
links a costate solved at one control to the state perturbation induced by
another; the result decays at first order in dt and vanishes termwise when
the controls agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import Backend
from .fbsde import (
    ControlProcess,
    FbsdeConfig,
    NonFiniteStateError,
    SolveDiagnostics,
    StateTrajectory,
    _start_pair,
    damped_picard,
)
from .problem import GameProblem

Array = np.ndarray


@dataclass(frozen=True)
class AdjointTrajectory:
    """Costate fields for one player: k, p on steps 0..N, q on 0..N-1."""

    player: int
    k: tuple[Array, ...]
    p: tuple[Array, ...]
    q: tuple[Array, ...]

    @property
    def steps(self) -> int:
        return len(self.p) - 1


def costate_combination(
    problem: GameProblem,
    player: int,
    var: str,
    t: float,
    x: Array,
    y: Array,
    z: Array,
    u1: Array,
    u2: Array,
    p: Array,
    q: Array,
    k: Array,
) -> Array:
    """b_v' p + sigma_v' q - f_v' k + l_iv for var v, shape (S, dim_v).

    sigma_v' q contracts each Brownian column's Jacobian with the matching
    column of q.  For var = "z" the result is flattened C-order like z.
    """
    co = problem.coefficients
    args = (t, x, y, z, u1, u2)
    out = np.einsum("sov,so->sv", getattr(co, f"b_{var}")(*args), p)
    out += np.einsum("scov,soc->sv", getattr(co, f"sigma_{var}")(*args), q)
    out -= np.einsum("sov,so->sv", getattr(co, f"f_{var}")(*args), k)
    out += problem.costs.running_grad(player, var)(*args)
    return out


def _costate_matrix(problem: GameProblem, player: int, var_names: tuple[str, ...], args):
    """(M, l) with G = M @ [p, q flattened, k] + l per scenario, G the
    concatenated G_v for v in var_names.

    M has shape (S, sum of dim_v, n + n*d + m); column for column it is
    costate_combination's b_v' p + sigma_v' q - f_v' k, and l stacks the
    l_iv.  When every Jacobian is a view shared by all scenarios (stride 0
    on the scenario axis, as in LQ problems), M is one such view as well, so
    its memory does not grow with the scenario count.
    """
    co = problem.coefficients
    jacs = [[getattr(co, f"{name}_{v}")(*args) for name in ("b", "sigma", "f")]
            for v in var_names]
    S = args[1].shape[0]
    shared = all(a.strides[0] == 0 for group in jacs for a in group)
    blocks = []
    for b, sigma, f in jacs:
        if shared:
            b, sigma, f = b[:1], sigma[:1], f[:1]
        rows, dim_v = b.shape[0], b.shape[-1]
        blocks.append(np.concatenate(
            [
                b.transpose(0, 2, 1),
                sigma.transpose(0, 3, 2, 1).reshape(rows, dim_v, -1),
                -f.transpose(0, 2, 1),
            ],
            axis=2,
        ))
    mat = np.concatenate(blocks, axis=1)
    l_iv = np.concatenate([problem.costs.running_grad(player, v)(*args) for v in var_names], axis=1)
    return np.broadcast_to(mat, (S,) + mat.shape[1:]), l_iv


def _step_partials(problem, traj, u, player, backend):
    """Per step, what every adjoint pass reuses: (M, l) of (G_y, G_z) for
    the forward k-step, (M, l) of G_x for the backward step, and the
    regressors of the step's regressions (None on the lattice).  All depend
    on (t, x, y, z, u1, u2) only, which the solve holds fixed."""
    knots = backend.grid.knots
    regression = getattr(backend, "regression", None)
    forward, backward, regressors = [], [], []
    for j in range(backend.grid.steps):
        args = (float(knots[j]), traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j])
        forward.append(_costate_matrix(problem, player, ("y", "z"), args))
        backward.append(_costate_matrix(problem, player, ("x",), args))
        if regression is None:
            regressors.append(None)
        elif regression.include_y:
            regressors.append(np.concatenate([traj.x[j], traj.y[j]], axis=1))
        else:
            regressors.append(traj.x[j])
    return forward, backward, regressors


def _combine(partials, p: Array, q: Array, k: Array) -> Array:
    mat, l_iv = partials
    stacked = np.concatenate([p, q.reshape(p.shape[0], -1), k], axis=1)
    return np.einsum("svr,sr->sv", mat, stacked) + l_iv


def _forward_k(problem, backend, forward, ps, qs, k0) -> list[Array]:
    m, d = problem.dims.m, backend.d
    ks = [k0]
    for j in range(backend.grid.steps):
        g = _combine(forward[j], ps[j], qs[j], ks[j])  # (G_y, G_z flattened)
        nxt = backend.step_forward(j, ks[j], -g[:, :m], -g[:, m:].reshape(g.shape[0], m, d))
        if not np.all(np.isfinite(nxt)):
            bad = np.argwhere(~np.isfinite(nxt))
            raise NonFiniteStateError(step=j + 1, scenario=int(bad[0][0]))
        ks.append(nxt)
    return ks


def _backward_pq(backend, backward, regressors, ks, p_terminal):
    N, dt = backend.grid.steps, backend.grid.dt
    ps: list[Array | None] = [None] * (N + 1)
    qs: list[Array | None] = [None] * N
    ps[N] = p_terminal
    ridge_events = 0
    for j in range(N - 1, -1, -1):
        qv, r1 = backend.cond_exp_increment(j, ps[j + 1], regressors[j])
        q = qv / dt
        p_hat, r2 = backend.cond_exp(j, ps[j + 1], regressors[j])
        ps[j] = p_hat + _combine(backward[j], p_hat, q, ks[j]) * dt
        qs[j] = q
        ridge_events += int(r1) + int(r2)
    return ps, qs, ridge_events


def solve_adjoint(
    problem: GameProblem,
    traj: StateTrajectory,
    u: ControlProcess,
    player: int,
    backend: Backend,
    config: FbsdeConfig = FbsdeConfig(),
    initial=None,
) -> tuple[AdjointTrajectory, SolveDiagnostics]:
    """Solve the coupled costate pair for one player by damped iteration.

    The iterate is (p, q); k is rebuilt from it each pass and once more after
    convergence so the forward recursion holds at the returned triple.  The
    boundary values k[0] and p[N] are evaluated data, never iterated.
    `initial` warm-starts the pair with (ps, qs) from an earlier solve.
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    N = backend.grid.steps
    n, d = problem.dims.n, problem.dims.d
    p_terminal = np.asarray(problem.costs.terminal_grad(player)(traj.x[N]), dtype=float)
    k0 = -np.asarray(problem.costs.initial_grad(player)(traj.y[0]), dtype=float)
    ps_in, qs_in = _start_pair(backend, initial, (n,), (n, d))
    ps_in[N] = p_terminal  # p[N] is data: the first residual sees no update there
    forward, backward, regressors = _step_partials(problem, traj, u, player, backend)
    ks, ps, qs, (diagnostics,) = damped_picard(
        lambda ps, qs: _forward_k(problem, backend, forward, ps, qs, k0),
        lambda ks, ps: _backward_pq(backend, backward, regressors, ks, p_terminal),
        (ps_in, qs_in),
        backend,
        config,
        "costate",
    )
    return AdjointTrajectory(player=player, k=tuple(ks), p=tuple(ps), q=tuple(qs)), diagnostics


@dataclass(frozen=True)
class DualityReport:
    """Discrete integration-by-parts bookkeeping between two solved controls.

    forward_identity groups the terms whose continuous-time sum telescopes
    through <p, dx - dx_bar>; backward_identity does the same for
    <k, dy - dy_bar>.  Both tend to zero at first order in dt, hence so does
    residual = forward_identity - backward_identity.
    """

    residual: float
    dt: float
    scenario_count: int
    terminal_term: float
    initial_term: float
    integral_gx: float
    integral_gy: float
    integral_gz: float
    integral_pb: float
    integral_qsigma: float
    integral_kf: float

    @property
    def forward_identity(self) -> float:
        return self.terminal_term + self.integral_gx - self.integral_pb - self.integral_qsigma

    @property
    def backward_identity(self) -> float:
        return self.initial_term - self.integral_gy - self.integral_gz - self.integral_kf


def duality_residual(
    problem: GameProblem,
    traj: StateTrajectory,
    traj_bar: StateTrajectory,
    adj_bar: AdjointTrajectory,
    u: ControlProcess,
    u_bar: ControlProcess,
    backend: Backend,
) -> DualityReport:
    """Evaluate the discrete pairing of adj_bar against the (u - u_bar) deltas.

    Both trajectories must come from the same backend, initial state and
    terminal map.  Left-endpoint quadrature throughout; expectations use the
    backend's scenario weights.
    """
    grid = backend.grid
    N, dt = grid.steps, grid.dt
    if len(traj.x) != N + 1 or len(traj_bar.x) != N + 1:
        raise ValueError("trajectory length does not match the backend grid")
    for j in range(N + 1):
        if traj.x[j].shape != traj_bar.x[j].shape:
            raise ValueError(f"scenario mismatch between trajectories at step {j}")
    co = problem.coefficients
    player = adj_bar.player
    int_gx = int_gy = int_gz = int_pb = int_qs = int_kf = 0.0
    for j in range(N):
        t = float(grid.knots[j])
        dx = traj.x[j] - traj_bar.x[j]
        dy = traj.y[j] - traj_bar.y[j]
        dz = traj.z[j] - traj_bar.z[j]
        args = (t, traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j])
        args_bar = (t, traj_bar.x[j], traj_bar.y[j], traj_bar.z[j], u_bar.u1[j], u_bar.u2[j])
        pb, qb, kb = adj_bar.p[j], adj_bar.q[j], adj_bar.k[j]
        gx = costate_combination(problem, player, "x", *args_bar, pb, qb, kb)
        gy = costate_combination(problem, player, "y", *args_bar, pb, qb, kb)
        gz = costate_combination(problem, player, "z", *args_bar, pb, qb, kb)
        gz_mat = gz.reshape(gz.shape[0], problem.dims.m, backend.d)
        db = co.b(*args) - co.b(*args_bar)
        dsigma = co.sigma(*args) - co.sigma(*args_bar)
        df = co.f(*args) - co.f(*args_bar)
        int_gx += dt * float(backend.expect(j, np.einsum("sv,sv->s", gx, dx)))
        int_gy += dt * float(backend.expect(j, np.einsum("sv,sv->s", gy, dy)))
        int_gz += dt * float(backend.expect(j, np.einsum("svc,svc->s", gz_mat, dz)))
        int_pb += dt * float(backend.expect(j, np.einsum("sv,sv->s", pb, db)))
        int_qs += dt * float(backend.expect(j, np.einsum("svc,svc->s", qb, dsigma)))
        int_kf += dt * float(backend.expect(j, np.einsum("sv,sv->s", kb, df)))
    dx_T = traj.x[N] - traj_bar.x[N]
    dy_0 = traj.y[0] - traj_bar.y[0]
    terminal = float(backend.expect(N, np.einsum("sv,sv->s", adj_bar.p[N], dx_T)))
    initial = float(backend.expect(0, np.einsum("sv,sv->s", adj_bar.k[0], dy_0)))
    residual = (
        terminal
        - initial
        + int_gx
        + int_gy
        + int_gz
        - (int_pb + int_qs - int_kf)
    )
    return DualityReport(
        residual=residual,
        dt=dt,
        scenario_count=backend.scenario_count(N),
        terminal_term=terminal,
        initial_term=initial,
        integral_gx=int_gx,
        integral_gy=int_gy,
        integral_gz=int_gz,
        integral_pb=int_pb,
        integral_qsigma=int_qs,
        integral_kf=int_kf,
    )
