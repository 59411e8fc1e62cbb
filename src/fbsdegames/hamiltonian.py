"""Scalar Hamiltonians, stationarity residuals, and optimality certificates.

For player i with costates (p, q, k),

    H_i = <p, b> + <q, sigma> - <k, f> + l_i.

The module evaluates H_i with all five gradients, maps a solved trajectory
plus costates to variational-inequality residuals (zero exactly at
projected-gradient stationary points of box-constrained controls), and runs
the two sufficient-condition probes a verdict rests on: pointwise
minimization of H_i over a control grid and randomized midpoint convexity
sampling.  Convexity passes are reported as "not refuted", never proved.
The pointwise probe evaluates H_i over (candidate, scenario) pairs in a few
bounded blocks per step, keeping the first candidate among equal gains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointTrajectory, costate_combination
from .fbsde import ControlProcess, StateTrajectory
from .problem import ControlBox, GameProblem

Array = np.ndarray

CONVENTION_NOTE = "stationarity of player i checked with player i costates (p^i, q^i, k^i)"


def _value(problem: GameProblem, player: int, args, p: Array, q: Array, k: Array) -> Array:
    co = problem.coefficients
    out = np.einsum("so,so->s", p, co.b(*args))
    out += np.einsum("soc,soc->s", q, co.sigma(*args))
    out -= np.einsum("so,so->s", k, co.f(*args))
    out += problem.costs.running(player)(*args)
    return out


@dataclass(frozen=True)
class HamiltonianPoint:
    """H_i and its gradients at one time slice, batched over scenarios."""

    player: int
    t: float
    x: Array
    y: Array
    z: Array
    u1: Array
    u2: Array
    p: Array
    q: Array
    k: Array
    value: Array
    grad_x: Array
    grad_y: Array
    grad_z: Array
    grad_u1: Array
    grad_u2: Array


def eval_hamiltonian(
    problem: GameProblem,
    player: int,
    t: float,
    x: Array,
    y: Array,
    z: Array,
    u1: Array,
    u2: Array,
    p: Array,
    q: Array,
    k: Array,
) -> HamiltonianPoint:
    """Value plus all five gradients; grad_z is reshaped to (S, m, d)."""
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    args = (t, x, y, z, u1, u2)

    def grad(var: str) -> Array:
        return costate_combination(problem, player, var, *args, p, q, k)

    gz = grad("z")
    return HamiltonianPoint(
        player=player,
        t=t,
        x=x,
        y=y,
        z=z,
        u1=u1,
        u2=u2,
        p=p,
        q=q,
        k=k,
        value=_value(problem, player, args, p, q, k),
        grad_x=grad("x"),
        grad_y=grad("y"),
        grad_z=gz.reshape(gz.shape[0], problem.dims.m, problem.dims.d),
        grad_u1=grad("u1"),
        grad_u2=grad("u2"),
    )


def control_gradient(
    problem: GameProblem,
    traj: StateTrajectory,
    adj: AdjointTrajectory,
    u: ControlProcess,
    player: int,
) -> list[Array]:
    """Per-step gradient of H_i in player i's own control, shape (S_j, k_i)."""
    grid = traj.backend.grid
    out = []
    for j in range(grid.steps):
        args = (float(grid.knots[j]), traj.x[j], traj.y[j], traj.z[j], u.u1[j], u.u2[j])
        out.append(
            costate_combination(problem, player, f"u{player}", *args, adj.p[j], adj.q[j], adj.k[j])
        )
    return out


@dataclass(frozen=True)
class ViResidualReport:
    """Stationarity residuals of both players at one (state, costates, u).

    rho_i is the sup over steps of the root mean square of the per-point
    residual |u_i - Proj(u_i - grad)|.  grad_i holds player i's per-step
    control gradients, shape (S_j, k_i), from which the residuals were
    computed; the search steps along them.  inner_min_i is the sampled form
    of the first-order condition: the smallest <grad, v - u_i> over candidate
    v in the box (nonnegative at a stationary point, up to sampling).
    """

    grad1: tuple[Array, ...]
    grad2: tuple[Array, ...]
    rho1: float
    rho2: float
    inner_min_1: float
    inner_min_2: float
    convention: str = CONVENTION_NOTE


# The sampled first-order condition in vi_residual: this many candidates per
# player, drawn from the box clipped to [-_INNER_RADIUS, _INNER_RADIUS] by a
# generator seeded with _INNER_SEED, so the report is deterministic.
_INNER_SAMPLES = 32
_INNER_SEED = 0
_INNER_RADIUS = 10.0


def _sample_box(box: ControlBox, rng: np.random.Generator) -> Array:
    lo = np.maximum(box.lower, -_INNER_RADIUS)
    hi = np.minimum(box.upper, _INNER_RADIUS)
    return rng.uniform(lo, hi, size=(_INNER_SAMPLES, box.dim))


def vi_residual(
    problem: GameProblem,
    traj: StateTrajectory,
    adj_1: AdjointTrajectory,
    adj_2: AdjointTrajectory,
    u: ControlProcess,
) -> ViResidualReport:
    backend = traj.backend
    rng = np.random.default_rng(_INNER_SEED)
    gradients: dict[int, tuple[Array, ...]] = {}
    rhos: dict[int, float] = {}
    inner: dict[int, float] = {}
    for player, adj in ((1, adj_1), (2, adj_2)):
        grads = control_gradient(problem, traj, adj, u, player)
        box = problem.box(player)
        candidates = _sample_box(box, rng)
        worst = 0.0
        inner_min = np.inf
        for j, g in enumerate(grads):
            uj = u.player(player)[j]
            r = np.linalg.norm(uj - box.project(uj - g), axis=1)
            worst = max(worst, float(np.sqrt(backend.expect(j, r**2))))
            pairing = g @ candidates.T - np.einsum("sv,sv->s", g, uj)[:, None]
            inner_min = min(inner_min, float(pairing.min()))
        gradients[player] = tuple(grads)
        rhos[player] = worst
        inner[player] = inner_min
    return ViResidualReport(
        grad1=gradients[1],
        grad2=gradients[2],
        rho1=rhos[1],
        rho2=rhos[2],
        inner_min_1=inner[1],
        inner_min_2=inner[2],
    )


@dataclass(frozen=True)
class PointwiseMinReport:
    """Grid search for controls that beat the candidate pointwise."""

    player: int
    passed: bool
    violation: float
    step: int
    scenario: int
    best_alternative: Array | None
    tol: float
    grid_points: int
    per_step_violation: tuple[Array, ...] = field(repr=False)


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
    return np.array(list(itertools.product(*axes)))


# Rows per batched Hamiltonian call in check_pointwise_min: the (candidate,
# scenario) pairs of a step are evaluated in blocks of at most this many, so
# memory stays bounded when the control grid has density**k points.
_POINTWISE_ROWS = 1 << 16


def _tile_rows(a: Array, count: int) -> Array:
    """count copies of a stacked along the leading (scenario) axis."""
    return np.tile(a, (count,) + (1,) * (a.ndim - 1))


def check_pointwise_min(
    problem: GameProblem,
    traj: StateTrajectory,
    adj: AdjointTrajectory,
    u: ControlProcess,
    player: int,
    grid_density: int = 33,
    radius: float | None = None,
    tol: float = 1e-8,
) -> PointwiseMinReport:
    """Compare H_i at the stored control against a grid over the control box.

    A positive violation means some grid point achieves a strictly lower
    Hamiltonian at the same (state, costate) slice.
    """
    backend = traj.backend
    grid = backend.grid
    candidates = _control_grid(problem.box(player), grid_density, radius)
    C = candidates.shape[0]
    worst = -np.inf
    worst_loc = (0, 0)
    worst_alt: Array | None = None
    per_step = []
    for j in range(grid.steps):
        t = float(grid.knots[j])
        x, y, z = traj.x[j], traj.y[j], traj.z[j]
        u1, u2 = u.u1[j], u.u2[j]
        pj, qj, kj = adj.p[j], adj.q[j], adj.k[j]
        S = x.shape[0]
        base = _value(problem, player, (t, x, y, z, u1, u2), pj, qj, kj)
        # candidates in blocks of at most _POINTWISE_ROWS rows (candidate c,
        # scenario s) at index c * S + s; a block's tiled slice is a prefix
        # of the first block's
        block = min(C, max(1, _POINTWISE_ROWS // S))
        other = u2 if player == 1 else u1
        tiled = [_tile_rows(a, block) for a in (x, y, z, other, pj, qj, kj)]
        step_best = np.full(S, -np.inf)
        best = np.zeros(S, dtype=int)
        for c0 in range(0, C, block):
            chunk = candidates[c0 : c0 + block]
            tx, ty, tz, t_other, tp, tq, tk = (a[: chunk.shape[0] * S] for a in tiled)
            cu = np.repeat(chunk, S, axis=0)
            trial_u = (cu, t_other) if player == 1 else (t_other, cu)
            trial = _value(problem, player, (t, tx, ty, tz, *trial_u), tp, tq, tk)
            gain = base - trial.reshape(-1, S)
            idx = np.argmax(gain, axis=0)  # first maximum, as a candidate loop keeps
            chunk_best = gain[idx, np.arange(S)]
            better = chunk_best > step_best  # strict: earlier blocks win ties
            step_best = np.where(better, chunk_best, step_best)
            best = np.where(better, c0 + idx, best)
        per_step.append(step_best)
        s = int(np.argmax(step_best))
        if step_best[s] > worst:
            worst = float(step_best[s])
            worst_loc = (j, s)
            worst_alt = candidates[best[s]].copy()
    return PointwiseMinReport(
        player=player,
        passed=worst <= tol,
        violation=worst,
        step=worst_loc[0],
        scenario=worst_loc[1],
        best_alternative=worst_alt,
        tol=tol,
        grid_points=candidates.shape[0],
        per_step_violation=tuple(per_step),
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
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
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
    if violation > tol:
        return ConvexityReport(
            label=label,
            passed=False,
            samples=samples,
            violation=violation,
            witness_a=a[worst].copy(),
            witness_b=b[worst].copy(),
        )
    return ConvexityReport(
        label=label, passed=True, samples=samples, violation=violation,
        witness_a=None, witness_b=None,
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
            args = (t, x, y, zf, u1, u2)
            P = np.broadcast_to(pj, (S, pj.size))
            Q = np.broadcast_to(qj, (S,) + qj.shape)
            K = np.broadcast_to(kj, (S, kj.size))
            return _value(problem, player, args, P, Q, K)

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
    notes = [CONVENTION_NOTE]
    witness: str | None = None
    inconclusive = False
    players = {}
    for player, adj in ((1, adjoints[0]), (2, adjoints[1])):
        box = problem.box(player)
        if box.bounded or options.radius is not None:
            pointwise = check_pointwise_min(
                problem, traj, adj, u, player,
                grid_density=options.grid_density,
                radius=options.radius,
                tol=options.pointwise_tol,
            )
            if not pointwise.passed and witness is None:
                witness = (
                    f"player {player}: control {np.array2string(pointwise.best_alternative)} "
                    f"lowers H at step {pointwise.step}, scenario {pointwise.scenario} "
                    f"by {pointwise.violation:.3e}"
                )
        else:
            pointwise = None
            inconclusive = True
            notes.append(
                f"player {player}: pointwise minimization skipped, unbounded box without radius"
            )
        ham = _hamiltonian_section(problem, traj, adj, u, player, options, rng)
        for rep in ham:
            if not rep.passed and witness is None:
                witness = f"{rep.label}: midpoint gap {rep.violation:.3e}"
        r = options.sample_radius
        x_center = backend.expect(N, traj.x[N])
        y_center = backend.expect(0, traj.y[0])
        terminal = check_convexity(
            problem.costs.terminal(player),
            x_center - r,
            x_center + r,
            samples=options.convexity_samples,
            seed=int(rng.integers(0, 2**31)),
            tol=options.convexity_tol,
            label=f"terminal cost {player} convexity",
        )
        initial = check_convexity(
            problem.costs.initial(player),
            y_center - r,
            y_center + r,
            samples=options.convexity_samples,
            seed=int(rng.integers(0, 2**31)),
            tol=options.convexity_tol,
            label=f"initial cost {player} convexity",
        )
        for rep in (terminal, initial):
            if not rep.passed and witness is None:
                witness = f"{rep.label}: midpoint gap {rep.violation:.3e}"
        players[player] = PlayerChecks(
            pointwise=pointwise,
            hamiltonian_convexity=ham,
            terminal_convexity=terminal,
            initial_convexity=initial,
        )
    refuted = witness is not None
    if refuted:
        verdict = "refuted"
    elif inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "certified"
    return VerificationCertificate(
        verdict=verdict,
        player1=players[1],
        player2=players[2],
        notes=tuple(notes),
        witness=witness,
    )


def certificate_as_dict(cert: VerificationCertificate) -> dict:
    """JSON-ready view of a certificate (arrays become lists)."""

    def convexity(rep: ConvexityReport) -> dict:
        return {
            "label": rep.label,
            "passed": rep.passed,
            "samples": rep.samples,
            "violation": rep.violation,
            "witness_a": None if rep.witness_a is None else rep.witness_a.tolist(),
            "witness_b": None if rep.witness_b is None else rep.witness_b.tolist(),
        }

    def player(checks: PlayerChecks) -> dict:
        pw = checks.pointwise
        return {
            "pointwise": None if pw is None else {
                "passed": pw.passed,
                "violation": pw.violation,
                "step": pw.step,
                "scenario": pw.scenario,
                "best_alternative": None if pw.best_alternative is None
                else pw.best_alternative.tolist(),
                "tol": pw.tol,
                "grid_points": pw.grid_points,
            },
            "hamiltonian_convexity": [convexity(r) for r in checks.hamiltonian_convexity],
            "terminal_convexity": convexity(checks.terminal_convexity),
            "initial_convexity": convexity(checks.initial_convexity),
        }

    return {
        "verdict": cert.verdict,
        "player1": player(cert.player1),
        "player2": player(cert.player2),
        "notes": list(cert.notes),
        "witness": cert.witness,
    }
