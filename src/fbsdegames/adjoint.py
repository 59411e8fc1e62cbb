"""Both players' costate systems along a solved trajectory.

For player i the costate triple (k, p, q) obeys, along a fixed state
trajectory and control pair,

    k[0]   = -dh_i/dy (y[0])
    k[j+1] = k[j] - G_y dt - G_z dB        (forward, explicit)
    p[N]   = dphi_i/dx (x[N])
    q[j]   = E[p[j+1] dB' | F_j] / dt
    p[j]   = E[p[j+1] | F_j] + G_x dt      (backward)

where G_v is the costate combination b_v' p + sigma_v' q - f_v' k + l_iv.
This is a coupled forward-backward system of the state system's shape, so
it runs through the ``fbsde`` sweeps and `fbsde.damped_picard`; this module
supplies only its per-step coefficients and driver.  The partials in G_v
depend on (t, x, y, z, u1, u2) alone, which a solve holds fixed, so they
are stacked once per solve, in one call over the rows of all steps, into
one matrix per row acting on (p, q flattened, k), with l_iv beside it.
The two players' systems share that matrix and differ only in l_iv, p[N]
and k[0].  `solve_adjoints` solves them over a two-member axis
(`drivers.LatticeBackend.with_members`) on the lattice and one player at
a time on Monte Carlo, and each player's result is bit for bit that of
its solve alone, which `solve_adjoint` is.

`costate_combination` assembles G_v from the callbacks on any rows (one
step's, or all steps' with t per row); it is the reference the solver is
tested against, and the ``hamiltonian`` module's gradients of H_i call
it.  `duality_residual` evaluates the discrete integration-by-parts
identity that links a costate solved at one control to the state
perturbation induced by another; it decays at first order in dt and
vanishes termwise when the controls agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import Backend, StepArray
from .fbsde import (
    ControlProcess,
    FbsdeConfig,
    NonFiniteStateError,
    SolveDiagnostics,
    StateTrajectory,
    _backward_sweep,
    _forward_sweep,
    _pair_views,
    _start_pair,
    _state_rows,
    damped_picard,
)
from .problem import GameProblem

Array = np.ndarray


class NonFiniteCostateError(NonFiniteStateError):
    """A costate (k, p or q) of `player` became non-finite at `step`."""

    def __init__(self, player: int, step: int, scenario: int):
        super().__init__(step, scenario, what=f"costate of player {player}")
        self.player = player


@dataclass(frozen=True)
class AdjointTrajectory:
    """Costate fields for one player: k, p on steps 0..N, q on 0..N-1;
    per-step arrays given in place of StepArrays are copied into one."""

    player: int
    k: StepArray
    p: StepArray
    q: StepArray

    def __post_init__(self) -> None:
        for name in ("k", "p", "q"):
            object.__setattr__(self, name, StepArray.of(getattr(self, name)))

    @property
    def steps(self) -> int:
        return len(self.p) - 1


def costate_combination(
    problem: GameProblem,
    player: int,
    var: str,
    t: float | Array,
    x: Array,
    y: Array,
    z: Array,
    u1: Array,
    u2: Array,
    p: Array,
    q: Array,
    k: Array,
) -> Array:
    """b_v' p + sigma_v' q - f_v' k + l_iv for var v, shape (S, dim_v), with
    t a float or one time per row.

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


def _costate_matrix(problem: GameProblem, players, var_names: tuple[str, ...], args, stack):
    """(M, l) with G = M @ [p, q flattened, k] + l per row, G the
    concatenated G_v for v in var_names, on the rows of `players` stacked
    by `stack`.

    M has shape (rows, sum of dim_v, n + n*d + m); column for column it is
    costate_combination's b_v' p + sigma_v' q - f_v' k, evaluated once for
    all players, and l stacks each player's l_iv.  When every Jacobian is a
    view shared by all scenarios (stride 0 on the scenario axis, as in LQ
    problems), M is one such view over every row, so its memory grows with
    neither the scenario count nor the players.
    """
    co = problem.coefficients
    jacs = [[getattr(co, f"{name}_{v}")(*args) for name in ("b", "sigma", "f")]
            for v in var_names]
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
    if not shared:
        mat = stack([mat] * len(players))
    l_iv = stack([
        np.concatenate([problem.costs.running_grad(i, v)(*args) for v in var_names], axis=1)
        for i in players
    ])
    return np.broadcast_to(mat, (l_iv.shape[0],) + mat.shape[1:]), l_iv


def _step_partials(problem, traj, u, players, view):
    """Per step, the (M, l) of (G_y, G_z) for the forward k-step and of G_x
    for the backward step, on the rows of `view`, one member per player in
    `players`: views of one evaluation over the rows of all steps.  Both
    depend on (t, x, y, z, u1, u2) only, which the solve holds fixed."""
    N = view.grid.steps
    args = _state_rows(traj, u)
    bounds = list(zip(view.offsets[:N], view.offsets[1:N + 1]))
    out = []
    for var_names in (("y", "z"), ("x",)):
        mat, l_iv = _costate_matrix(problem, players, var_names, args, view.stack)
        out.append([(mat[a:b], l_iv[a:b]) for a, b in bounds])
    return out


def _combine(partials, p: Array, q: Array, k: Array) -> Array:
    mat, l_iv = partials
    stacked = np.concatenate([p, q.reshape(p.shape[0], -1), k], axis=1)
    return np.einsum("svr,sr->sv", mat, stacked) + l_iv


def _costate_failure(view, players, k0, ps, qs, exc: NonFiniteStateError) -> NonFiniteCostateError:
    """The error for a k sweep over (ps, qs) that met a non-finite value.

    It names the first non-finite costate in the order the solve made
    them: p and q from step N down to 0 (the backward sweep that produced
    them), then k[0], and else k at the step where the sweep stopped.
    """
    N = view.grid.steps
    made = [(j, a) for j in range(N, -1, -1) for a in ((ps[j],) if j == N else (ps[j], qs[j]))]
    for step, rows in made + [(0, k0)]:
        if np.all(np.isfinite(rows)):
            continue
        for player, own in zip(players, view.unstack(rows)):
            bad = ~np.isfinite(own.reshape(own.shape[0], -1)).all(axis=1)
            if bad.any():
                return NonFiniteCostateError(player, step, int(np.argmax(bad)))
    return NonFiniteCostateError(players[exc.row % view.members], exc.step, exc.scenario)


def solve_adjoints(
    problem: GameProblem,
    traj: StateTrajectory,
    u: ControlProcess,
    backend: Backend,
    config: FbsdeConfig = FbsdeConfig(),
    initial=None,
    players: tuple[int, ...] = (1, 2),
) -> tuple[tuple[AdjointTrajectory, ...], tuple[SolveDiagnostics, ...]]:
    """Solve the costate systems of `players` along one trajectory; returns
    one AdjointTrajectory and one SolveDiagnostics per player, each bit for
    bit that player's solve alone (`solve_adjoint`).  `initial` warm-starts
    the solves with one (ps, qs) per player from an earlier solve.

    On Monte Carlo each player's `solve_adjoint` runs in turn, so a failing
    player 1 raises before player 2's solve starts, whatever the pass.
    Otherwise the players are one `fbsde.damped_picard` solve, one member
    per player (on the lattice's `with_members` copy for several).  Per player
    the iterate is (p, q); each pass's forward sweep rebuilds k from it, and
    a last sweep makes the forward recursion hold at the returned triple.
    k[0] and p[N] are data, never iterated.

    A failing player raises as its solve alone would.  When several fail,
    the first failure in pass order is raised: a non-finite costate met by
    a pass's forward sweep before a divergence, which is checked after the
    pass in player order.  A non-finite costate raises NonFiniteCostateError
    at the first non-finite value in the order the solve made them (see
    `_costate_failure`); within a step the first player wins, then its
    lowest scenario.  Finding it reads the iterate only after the sweep has
    failed, so the passes carry no extra check.
    """
    if not players or any(player not in (1, 2) for player in players):
        raise ValueError("each player must be 1 or 2")
    if backend.kind == "montecarlo" and len(players) > 1:
        solves = [solve_adjoint(problem, traj, u, player, backend, config,
                                None if initial is None else initial[b])
                  for b, player in enumerate(players)]
        return tuple(adj for adj, _ in solves), tuple(diag for _, diag in solves)
    view = backend if len(players) == 1 else backend.with_members(len(players))
    stack = view.stack
    N = backend.grid.steps
    n, m, d = problem.dims.n, problem.dims.m, problem.dims.d
    p_terminal = stack([np.asarray(problem.costs.terminal_grad(i)(traj.x[N]), dtype=float)
                        for i in players])
    k0 = stack([-np.asarray(problem.costs.initial_grad(i)(traj.y[0]), dtype=float)
                for i in players])
    if initial is not None:
        # per field (ps, qs): the players' rows of all steps, stacked
        ps, qs = (stack([StepArray.of(own).rows for own in field]) for field in zip(*initial))
        initial = (StepArray(ps, view.offsets), StepArray(qs, view.offsets[:N + 1]))
    start = _start_pair(view, (n,), (n, d), initial)
    del initial
    # p[N] is data: the first residual sees no update there
    _pair_views(view, *start)[0][N][...] = p_terminal
    forward, backward = _step_partials(problem, traj, u, players, view)

    def forward_k(ps, qs):
        def coefficients(j, k):
            g = _combine(forward[j], ps[j], qs[j], k)  # (G_y, G_z flattened)
            return -g[:, :m], -g[:, m:].reshape(g.shape[0], m, d)

        try:
            return _forward_sweep(view, k0, coefficients)
        except NonFiniteStateError as exc:
            raise _costate_failure(view, players, k0, ps, qs, exc) from None

    def backward_pq(ks):
        return _backward_sweep(
            view, p_terminal, traj.x, lambda j, p, q: _combine(backward[j], p, q, ks[j]))

    ks, ps, qs, diagnostics = damped_picard(forward_k, backward_pq, start, view, config, "costate")
    # each player's rows of all steps: one copy per field, none for a lone player
    k, p, q = (view.unstack(a.rows) for a in (ks, ps, qs))
    offsets = backend.offsets
    adjoints = tuple(
        AdjointTrajectory(
            player=player,
            k=StepArray(k[b], offsets),
            p=StepArray(p[b], offsets),
            q=StepArray(q[b], offsets[:N + 1]),
        )
        for b, player in enumerate(players)
    )
    return adjoints, diagnostics


def solve_adjoint(
    problem: GameProblem,
    traj: StateTrajectory,
    u: ControlProcess,
    player: int,
    backend: Backend,
    config: FbsdeConfig = FbsdeConfig(),
    initial=None,
) -> tuple[AdjointTrajectory, SolveDiagnostics]:
    """Solve the coupled costate pair of one player by Picard iteration:
    `solve_adjoints` for that player alone.  `initial` warm-starts the pair
    with (ps, qs) from an earlier solve."""
    (adjoint,), (diagnostics,) = solve_adjoints(
        problem, traj, u, backend, config,
        initial=None if initial is None else (initial,),
        players=(player,),
    )
    return adjoint, diagnostics


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


def _pairing(a: Array, b: Array) -> Array:
    """<a, b> per row, over the flattened trailing axes."""
    return np.einsum("sv,sv->s", a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1))


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
    N, dt = backend.grid.steps, backend.grid.dt
    if len(traj.x) != N + 1 or len(traj_bar.x) != N + 1:
        raise ValueError("trajectory length does not match the backend grid")
    for j in range(N + 1):
        if traj.x[j].shape != traj_bar.x[j].shape:
            raise ValueError(f"scenario mismatch between trajectories at step {j}")
    co = problem.coefficients
    args, args_bar = _state_rows(traj, u), _state_rows(traj_bar, u_bar)
    costates = [adj_bar.p.leading(N), adj_bar.q.rows, adj_bar.k.leading(N)]
    grads = [costate_combination(problem, adj_bar.player, v, *args_bar, *costates) for v in "xyz"]
    deltas = [a - b for a, b in zip(args[1:4], args_bar[1:4])]
    deltas += [getattr(co, m)(*args) - getattr(co, m)(*args_bar) for m in ("b", "sigma", "f")]
    int_gx, int_gy, int_gz, int_pb, int_qs, int_kf = (
        float(backend.integrate(_pairing(a, b))) for a, b in zip(grads + costates, deltas))
    terminal = float(backend.expect(N, _pairing(adj_bar.p[N], traj.x[N] - traj_bar.x[N])))
    initial = float(backend.expect(0, _pairing(adj_bar.k[0], traj.y[0] - traj_bar.y[0])))
    residual = terminal - initial + int_gx + int_gy + int_gz - (int_pb + int_qs - int_kf)
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
