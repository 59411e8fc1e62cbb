"""Scalar Hamiltonians, stationarity residuals, and optimality certificates.

For player i with costates (p, q, k),

    H_i = <p, b> + <q, sigma> - <k, f> + l_i.

The module evaluates H_i (its gradients are `adjoint.costate_combination`),
maps a solved trajectory plus costates to variational-inequality residuals
(zero exactly at projected-gradient stationary points of box-constrained
controls), and runs the two sufficient-condition probes a verdict rests on:
pointwise minimization of H_i over a control grid and randomized midpoint
convexity sampling. Convexity passes are reported as "not refuted", never
proved. The control gradients and the residuals are pointwise in
(t, scenario), so each runs as one evaluation over the rows of all steps
(``drivers.StepArray``), with t given per row; only the per-step
expectations go step by step. The pointwise probe walks the same rows in
blocks that run across step boundaries and evaluates H_i there at bounded
batches of (candidate, row) pairs, keeping the first candidate among equal
gains; a NaN gain is never a row's best.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointTrajectory, costate_combination
from .drivers import StepArray
from .fbsde import ControlProcess, NonFiniteStateError, StateTrajectory, _state_rows
from .problem import ControlBox, GameProblem

Array = np.ndarray

CONVENTION_NOTE = "stationarity of player i checked with player i costates (p^i, q^i, k^i)"


def eval_hamiltonian(
    problem: GameProblem,
    player: int,
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
    """H_i per row, with t a float or one time per row.  Its gradients are
    `adjoint.costate_combination`."""
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    co = problem.coefficients
    args = (t, x, y, z, u1, u2)
    out = np.einsum("so,so->s", p, co.b(*args))
    out += np.einsum("soc,soc->s", q, co.sigma(*args))
    out -= np.einsum("so,so->s", k, co.f(*args))
    out += problem.costs.running(player)(*args)
    return out


def _all_rows(traj: StateTrajectory, adj: AdjointTrajectory, u: ControlProcess):
    """The (t, x, y, z, u1, u2) and (p, q, k) rows of steps 0..N-1, t per row."""
    N = traj.steps
    return _state_rows(traj, u), (adj.p.leading(N), adj.q.rows, adj.k.leading(N))


def control_gradient(
    problem: GameProblem,
    traj: StateTrajectory,
    adj: AdjointTrajectory,
    u: ControlProcess,
    player: int,
) -> StepArray:
    """Gradient of H_i in player i's own control, step j of shape (S_j, k_i):
    one evaluation over the rows of all steps."""
    args, costates = _all_rows(traj, adj, u)
    grad = costate_combination(problem, player, f"u{player}", *args, *costates)
    return StepArray(grad, u.u1.offsets)


@dataclass(frozen=True)
class ViResidualReport:
    """Stationarity residuals of both players at one (state, costates, u).

    rho_i is the sup over steps of the root mean square of the per-point
    residual |u_i - Proj(u_i - grad)|.  grad_i holds player i's control
    gradients, step j of shape (S_j, k_i), from which the residuals were
    computed; the search steps along them.  inner_min_i is the first-order
    condition, exact: the smallest <grad, v - u_i> over v in the box clipped
    to +-`_INNER_RADIUS`, each coordinate of v at the better of its two ends.
    It is exactly 0 at a stationary point, and negative where a feasible
    direction lowers H_i on some row.
    """

    grad1: StepArray = field(repr=False)
    grad2: StepArray = field(repr=False)
    rho1: float
    rho2: float
    inner_min_1: float
    inner_min_2: float
    convention: str = CONVENTION_NOTE


# Pairs per call of the (candidate, row) search in check_pointwise_min: memory
# stays bounded when the control grid has density**k points or the rows are
# many, and a call's arrays stay near the cache.
_POINTWISE_ROWS = 1 << 14


# vi_residual's first-order condition is taken over the box clipped to
# [-_INNER_RADIUS, _INNER_RADIUS], so that it is finite on an unbounded box.
_INNER_RADIUS = 10.0


def _stationarity(problem, traj, adj, u, player) -> tuple[StepArray, float, float]:
    """Player i's control gradients, rho_i and inner_min_i (`ViResidualReport`)."""
    grads = control_gradient(problem, traj, adj, u, player)
    box = problem.box(player)
    g, own = grads.rows, u.player(player).rows
    bad = ~np.isfinite(g).all(axis=1)
    if bad.any():  # a NaN step would drop out of the max that makes rho
        row = int(np.argmax(bad))
        step = int(np.searchsorted(grads.offsets, row, side="right")) - 1
        raise NonFiniteStateError(step, traj.backend.scenario_of(row - grads.offsets[step]),
                                  row=row, what=f"control gradient of player {player}")
    squared = np.linalg.norm(own - box.project(own - g), axis=1) ** 2
    worst = 0.0
    for mean in traj.backend.expectations(squared):
        worst = max(worst, float(np.sqrt(mean)))
    # <g, v - u> is separable in v, so its minimum over the clipped box
    # takes each coordinate at the better of its two ends
    lo, hi = np.maximum(box.lower, -_INNER_RADIUS), np.minimum(box.upper, _INNER_RADIUS)
    inner = np.minimum(g * (lo - own), g * (hi - own)).sum(axis=1)
    return grads, worst, float(inner.min())


def vi_residual(
    problem: GameProblem,
    traj: StateTrajectory,
    adj_1: AdjointTrajectory,
    adj_2: AdjointTrajectory,
    u: ControlProcess,
) -> ViResidualReport:
    grad1, rho1, inner_min_1 = _stationarity(problem, traj, adj_1, u, 1)
    grad2, rho2, inner_min_2 = _stationarity(problem, traj, adj_2, u, 2)
    return ViResidualReport(grad1, grad2, rho1, rho2, inner_min_1, inner_min_2)


@dataclass(frozen=True)
class PointwiseMinReport:
    """Grid search for controls that beat the candidate pointwise."""

    passed: bool
    violation: float
    step: int
    scenario: int
    best_alternative: Array | None
    tol: float
    grid_points: int
    per_step_violation: StepArray = field(repr=False)


def _control_grid(box: ControlBox, density: int, radius: float | None) -> Array:
    if not box.bounded and radius is None:
        raise ValueError("unbounded control box: a truncation radius is required")
    axes = []
    for lo, hi in zip(box.lower, box.upper):
        lo_eff = lo if radius is None else max(lo, -radius)
        hi_eff = hi if radius is None else min(hi, radius)
        if not np.isfinite(lo_eff) or not np.isfinite(hi_eff):
            raise ValueError("unbounded control box: a truncation radius is required")
        axes.append(np.linspace(lo_eff, hi_eff, density))
    # the product of the axes, the last varying fastest; an inert player's
    # one candidate is the empty control
    mesh = np.array(np.meshgrid(*axes, indexing="ij", copy=False))
    return mesh.reshape(len(axes), density ** len(axes)).T


def _tile_rows(a: Array, count: int) -> Array:
    """count copies of a stacked along the leading (scenario) axis."""
    return np.tile(a, (count,) + (1,) * (a.ndim - 1))


def check_pointwise_min(
    problem: GameProblem,
    traj: StateTrajectory,
    adj: AdjointTrajectory,
    u: ControlProcess,
    player: int,
    grid_density: int,
    radius: float | None,
    tol: float,
) -> PointwiseMinReport:
    """Compare H_i at the stored control against a grid over the control box.

    A positive violation means some grid point achieves a strictly lower
    Hamiltonian at the same (state, costate) slice.  The rows of all steps
    are walked in blocks of at most `_POINTWISE_ROWS` rows, each searched in
    calls of at most `_POINTWISE_ROWS` (candidate, row) pairs: a block that
    many rows long takes one candidate per call, broadcast over its rows,
    and a shorter one takes as many candidates as fill it, its rows tiled.
    """
    candidates = _control_grid(problem.box(player), grid_density, radius)
    C, width = candidates.shape
    (t, x, y, z, u1, u2), (p, q, k) = _all_rows(traj, adj, u)
    base = eval_hamiltonian(problem, player, t, x, y, z, u1, u2, p, q, k)
    other = u2 if player == 1 else u1
    rows = base.shape[0]
    row_best = np.full(rows, -np.inf)
    best = np.zeros(rows, dtype=int)
    offsets = u.u1.offsets
    span = min(rows, _POINTWISE_ROWS)
    block = min(C, _POINTWISE_ROWS // span)  # candidates per call
    for r0 in range(0, rows, span):
        sel = slice(r0, r0 + span)
        S = base[sel].shape[0]
        # (candidate c, row s) at index c * S + s; a call's rows are a prefix
        # of these, the block's own rows when a call takes one candidate
        tiled = [a[sel] if block == 1 else _tile_rows(a[sel], block)
                 for a in (t, x, y, z, other, p, q, k)]
        span_best, span_idx = row_best[sel], best[sel]
        for c0 in range(0, C, block):
            chunk = candidates[c0 : c0 + block]
            n = chunk.shape[0]
            tt, tx, ty, tz, t_other, tp, tq, tk = (a[: n * S] for a in tiled)
            # each candidate on S rows: stride 0 over the rows, a view when n == 1
            cu = np.broadcast_to(chunk[:, None], (n, S, width)).reshape(n * S, width)
            trial_u = (cu, t_other) if player == 1 else (t_other, cu)
            trial = eval_hamiltonian(problem, player, tt, tx, ty, tz, *trial_u, tp, tq, tk)
            gain = base[sel] - trial.reshape(n, S)
            idx = 0
            if n > 1:
                # each row's first maximum over the call, never a NaN gain
                gain[np.isnan(gain)] = -np.inf
                idx = np.argmax(gain, axis=0)
                gain = np.take_along_axis(gain, idx[None], axis=0)
            better = gain[0] > span_best  # strict: earlier candidates win ties, NaN never
            np.copyto(span_best, gain[0], where=better)
            np.copyto(span_idx, c0 + idx, where=better)
    # the first maximum, at the earliest step and scenario; row_best holds
    # no NaN, since a NaN gain never passes the strict comparison above
    r = int(np.argmax(row_best))
    worst = float(row_best[r])
    step = int(np.searchsorted(offsets, r, side="right")) - 1
    return PointwiseMinReport(
        passed=worst <= tol,
        violation=worst,
        step=step,
        scenario=r - offsets[step],
        best_alternative=candidates[best[r]].copy() if worst > -np.inf else None,
        tol=tol,
        grid_points=candidates.shape[0],
        per_step_violation=StepArray(row_best, offsets),
    )


@dataclass(frozen=True)
class ConvexityReport:
    """Midpoint-inequality sampling outcome; a pass means "not refuted"."""

    label: str
    passed: bool
    samples: int
    violation: float
    witness_a: Array | None
    witness_b: Array | None


def check_convexity(
    fn,
    lower: Array,
    upper: Array,
    samples: int,
    seed: int,
    tol: float,
    label: str = "",
) -> ConvexityReport:
    """Test f((a+b)/2) <= (f(a)+f(b))/2 + tol on random pairs from a box.

    fn maps a batch (S, dim) to values (S,).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rng = np.random.default_rng(seed)
    a = rng.uniform(lower, upper, size=(samples, lower.size))
    b = rng.uniform(lower, upper, size=(samples, lower.size))
    gap = np.asarray(fn(0.5 * (a + b))) - 0.5 * (np.asarray(fn(a)) + np.asarray(fn(b)))
    worst = int(np.argmax(gap))
    violation = float(gap[worst])
    passed = not violation > tol  # a NaN gap is not a witness
    return ConvexityReport(
        label=label,
        passed=passed,
        samples=samples,
        violation=violation,
        witness_a=None if passed else a[worst].copy(),
        witness_b=None if passed else b[worst].copy(),
    )


@dataclass(frozen=True)
class CertificateOptions:
    """Certificate probes: the pointwise-minimum grid (radius truncates an
    unbounded box), the convexity samples, and the anchor steps they use."""

    radius: float | None = None
    grid_density: int = 33
    pointwise_tol: float = 1e-8
    convexity_samples: int = 400
    convexity_tol: float = 1e-9
    anchors: int = 4
    sample_radius: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.radius is not None and not self.radius > 0.0:
            raise ValueError(f"radius must be None or positive, got {self.radius}")
        if self.grid_density < 3:
            raise ValueError(f"grid_density must be >= 3, got {self.grid_density}")
        for name in ("pointwise_tol", "convexity_tol", "sample_radius"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("convexity_samples", "anchors"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PlayerChecks:
    pointwise: PointwiseMinReport | None
    hamiltonian_convexity: tuple[ConvexityReport, ...]
    terminal_convexity: ConvexityReport
    initial_convexity: ConvexityReport


@dataclass(frozen=True)
class VerificationCertificate:
    """Aggregate of the sufficient-condition probes for both players.

    certified: every probe ran and passed.  refuted: a concrete witness was
    found (recorded in `witness`).  inconclusive: some probe could not run,
    typically an unbounded control box with no truncation radius.
    """

    verdict: str
    player1: PlayerChecks
    player2: PlayerChecks
    notes: tuple[str, ...]
    witness: str | None


def _hamiltonian_section(problem, traj, adj, u, player, options, rng) -> tuple[ConvexityReport, ...]:
    backend = traj.backend
    grid = backend.grid
    dims = problem.dims
    n, m, dz, ki = dims.n, dims.m, dims.dz, dims.control_dim(player)
    box = problem.box(player)
    steps = np.unique(np.linspace(0, grid.steps - 1, options.anchors).round().astype(int))
    reports = []
    for j in steps:
        s = int(rng.integers(0, backend.scenario_count(int(j))))
        t = float(grid.knots[j])
        anchor = np.concatenate(
            [traj.x[j][s], traj.y[j][s], traj.z[j][s].ravel(), u.player(player)[j][s]]
        )
        other = u.player(3 - player)[j][s]
        pj, qj, kj = adj.p[j][s], adj.q[j][s], adj.k[j][s]
        r = options.sample_radius
        lower = anchor - r
        upper = anchor + r
        lower[n + m + dz:] = np.maximum(lower[n + m + dz:], box.lower)
        upper[n + m + dz:] = np.minimum(upper[n + m + dz:], box.upper)

        def section(v: Array, t=t, other=other, pj=pj, qj=qj, kj=kj) -> Array:
            S = v.shape[0]
            x = v[:, :n]
            y = v[:, n:n + m]
            zf = v[:, n + m:n + m + dz].reshape(S, m, dims.d)
            ui = v[:, n + m + dz:]
            u1 = ui if player == 1 else np.broadcast_to(other, (S, other.size))
            u2 = ui if player == 2 else np.broadcast_to(other, (S, other.size))
            P = np.broadcast_to(pj, (S, pj.size))
            Q = np.broadcast_to(qj, (S,) + qj.shape)
            K = np.broadcast_to(kj, (S, kj.size))
            return eval_hamiltonian(problem, player, t, x, y, zf, u1, u2, P, Q, K)

        reports.append(
            check_convexity(
                section,
                lower,
                upper,
                samples=options.convexity_samples,
                seed=int(rng.integers(0, 2**31)),
                tol=options.convexity_tol,
                label=f"H_{player} joint convexity at step {int(j)}",
            )
        )
    return tuple(reports)


def _witness(player: int, rep: PointwiseMinReport | ConvexityReport) -> str:
    if isinstance(rep, PointwiseMinReport):
        return (f"player {player}: control {np.array2string(rep.best_alternative)} "
                f"lowers H at step {rep.step}, scenario {rep.scenario} by {rep.violation:.3e}")
    return f"{rep.label}: midpoint gap {rep.violation:.3e}"


def build_certificate(
    problem: GameProblem,
    traj: StateTrajectory,
    adjoints: tuple[AdjointTrajectory, AdjointTrajectory],
    u: ControlProcess,
    options: CertificateOptions = CertificateOptions(),
) -> VerificationCertificate:
    backend = traj.backend
    N = backend.grid.steps
    rng = np.random.default_rng(options.seed)
    r = options.sample_radius
    # the end costs are probed around E[x_N] and E[y_0]
    x_mean, y_mean = backend.expect(N, traj.x[N]), backend.expect(0, traj.y[0])
    notes = [CONVENTION_NOTE]
    witness: str | None = None
    players = []
    for player, adj in ((1, adjoints[0]), (2, adjoints[1])):
        pointwise = None
        if problem.box(player).bounded or options.radius is not None:
            pointwise = check_pointwise_min(
                problem, traj, adj, u, player,
                grid_density=options.grid_density,
                radius=options.radius,
                tol=options.pointwise_tol,
            )
        else:
            notes.append(
                f"player {player}: pointwise minimization skipped, unbounded box without radius"
            )
        ham = _hamiltonian_section(problem, traj, adj, u, player, options, rng)
        costs = problem.costs
        terminal, initial = (
            check_convexity(
                cost,
                center - r,
                center + r,
                samples=options.convexity_samples,
                seed=int(rng.integers(0, 2**31)),
                tol=options.convexity_tol,
                label=f"{name} cost {player} convexity",
            )
            for name, cost, center in (("terminal", costs.terminal(player), x_mean),
                                       ("initial", costs.initial(player), y_mean))
        )
        for rep in (pointwise, *ham, terminal, initial):
            if witness is None and rep is not None and not rep.passed:
                witness = _witness(player, rep)
        players.append(PlayerChecks(pointwise, ham, terminal, initial))
    if witness is not None:
        verdict = "refuted"
    elif any(checks.pointwise is None for checks in players):
        verdict = "inconclusive"
    else:
        verdict = "certified"
    return VerificationCertificate(
        verdict=verdict,
        player1=players[0],
        player2=players[1],
        notes=tuple(notes),
        witness=witness,
    )
