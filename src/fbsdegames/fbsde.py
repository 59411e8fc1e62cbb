"""Discrete solver for the coupled forward-backward state system.

Forward half (explicit Euler, per scenario):

    x[j+1] = x[j] + b(t_j, x[j], y[j], z[j], u[j]) dt + sigma(...) dB[j]

Backward half (conditional-expectation recursion from y[N] = xi(B_T)):

    z[j] = E[y[j+1] dB[j]' | F_j] / dt
    y[j] = E[y[j+1] | F_j] + f(t_j, x[j], E[y[j+1] | F_j], z[j], u[j]) dt

Every conditional expectation is regressed on the state x.  Each process
is one ``drivers.StepArray`` over all (step, scenario) rows, and the two
sweeps, `_forward_sweep` and `_backward_sweep`, are the package's only
time-stepping loops: they write each step into its view of the process.
`forward_pass` and `backward_pass` run them on the state system, and the
``adjoint`` module runs them on the costate systems with its own
coefficients and driver.  ``damped_picard`` couples a forward
and a backward sweep by Picard iteration on the backward pair, with
type-II Anderson mixing of the last few passes (`_Mixing`), stops once a
pass's output is within `FbsdeConfig.tol` of its input, and finishes with
one forward sweep at the returned pair, so the forward recursion holds
there exactly; ``solve_fbsde`` is its state solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drivers import Backend, StepArray
from .problem import GameProblem

Array = np.ndarray


class NonFiniteStateError(RuntimeError):
    """Forward pass produced a non-finite state value.

    `scenario` counts within the value's own member on a member view, and
    `row` is the value's row on the backend that raised.
    """

    def __init__(self, step: int, scenario: int, row: int | None = None, what: str = "state"):
        super().__init__(f"non-finite {what} at step {step}, scenario {scenario}")
        self.step = step
        self.scenario = scenario
        self.row = scenario if row is None else row


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
    """Inner-solve controls for `damped_picard`.

    tol bounds the fixed-point residual of the returned pass: the sup over
    time of the scenario-mean squared difference between the pass's output
    (y, z) (or (p, q)) and its input.  damping is the mixing theta in
    (0, 1] of the Anderson step; the first pass, and a member whose
    Anderson fit is not finite, moves by the damped step
    x + theta (G(x) - x).  max_picard caps the passes.
    """

    max_picard: int = 50
    damping: float = 0.5
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")
        if self.max_picard < 1:
            raise ValueError(f"max_picard must be >= 1, got {self.max_picard}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    final_residual: float
    converged: bool
    residual_history: tuple[float, ...] = field(repr=False)
    ridge_fallbacks: int = 0
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ControlProcess:
    """Adapted controls on steps 0..N-1: u_i[j] is step j's (S_j, k_i) rows.

    Both players' rows live in one flat buffer, `flat`: u1's rows, then
    u2's, so the controls flattened player by player and step by step are a
    view.  The constructor copies per-step arrays (or StepArrays) into a new
    buffer; nothing writes into a ControlProcess's buffer afterwards.
    """

    u1: StepArray
    u2: StepArray

    def __post_init__(self) -> None:
        u1, u2 = StepArray.of(self.u1), StepArray.of(self.u2)
        joint = ControlProcess.from_rows(u1.rows, u2.rows, u1.offsets)
        for name in ("u1", "u2", "flat"):
            object.__setattr__(self, name, getattr(joint, name))

    @classmethod
    def from_flat(cls, flat: Array, offsets: tuple[int, ...], k1: int, k2: int) -> "ControlProcess":
        """The controls whose buffer is flat (taken over, not copied)."""
        rows = offsets[-1]
        out = cls.__new__(cls)
        object.__setattr__(out, "u1", StepArray(flat[: rows * k1].reshape(rows, k1), offsets))
        object.__setattr__(out, "u2", StepArray(flat[rows * k1:].reshape(rows, k2), offsets))
        object.__setattr__(out, "flat", flat)
        return out

    @classmethod
    def from_rows(cls, rows1: Array, rows2: Array, offsets: tuple[int, ...]) -> "ControlProcess":
        """The controls with each player's rows over all steps, copied in."""
        flat = np.concatenate([np.ravel(rows1), np.ravel(rows2)]).astype(float, copy=False)
        return cls.from_flat(flat, offsets, rows1.shape[1], rows2.shape[1])

    @classmethod
    def constant(cls, backend: Backend, value1, value2) -> "ControlProcess":
        v1 = np.atleast_1d(np.asarray(value1, dtype=float))
        v2 = np.atleast_1d(np.asarray(value2, dtype=float))
        offsets = backend.offsets[: backend.grid.steps + 1]
        rows = offsets[-1]
        return cls.from_rows(np.tile(v1, (rows, 1)), np.tile(v2, (rows, 1)), offsets)

    @classmethod
    def midpoint(cls, problem: GameProblem, backend: Backend) -> "ControlProcess":
        return cls.constant(backend, problem.u1_box.midpoint(), problem.u2_box.midpoint())

    def player(self, i: int) -> StepArray:
        return self.u1 if i == 1 else self.u2

    def replace_player(self, i: int, arrays) -> "ControlProcess":
        rows = StepArray.of(arrays).rows
        if i == 1:
            return ControlProcess.from_rows(rows, self.u2.rows, self.u1.offsets)
        return ControlProcess.from_rows(self.u1.rows, rows, self.u1.offsets)

    @property
    def steps(self) -> int:
        return len(self.u1)


@dataclass(frozen=True)
class StateTrajectory:
    """Solved (x, y, z) fields plus the backend that produced them.

    x and y live on steps 0..N, z on 0..N-1; per-step arrays given in
    place of StepArrays are copied into one.
    """

    x: StepArray
    y: StepArray
    z: StepArray
    backend: Backend

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, StepArray.of(getattr(self, name)))

    @property
    def steps(self) -> int:
        return len(self.x) - 1


def _state_rows(traj: StateTrajectory, u: ControlProcess) -> tuple:
    """The callback arguments (t, x, y, z, u1, u2) over the rows of steps
    0..N-1, t per row, so that one call evaluates every step."""
    N = traj.steps
    return (traj.backend.row_times, traj.x.leading(N), traj.y.leading(N), traj.z.rows,
            u.u1.rows, u.u2.rows)


def _start_pair(backend: Backend, a_shape: tuple, b_shape: tuple, initial=None):
    """A backward pair (a on steps 0..N with trailing shape a_shape, b on
    steps 0..N-1 with b_shape) as one flat float vector, a's rows then b's,
    plus the two shapes: the `start` of `damped_picard`.  The vector holds
    the warm start initial = (a, b), each a StepArray or per-step arrays,
    or zeros."""
    N, offsets = backend.grid.steps, backend.offsets
    flat = np.zeros(offsets[N + 1] * math.prod(a_shape) + offsets[N] * math.prod(b_shape))
    if initial is not None:
        for view, value in zip(_pair_views(backend, flat, a_shape, b_shape), initial):
            view.rows[...] = StepArray.of(value).rows
    return flat, a_shape, b_shape


def _pair_views(backend: Backend, flat: Array, a_shape: tuple, b_shape: tuple):
    """(a, b) as StepArray views of a flat pair laid out by `_start_pair`."""
    N, offsets = backend.grid.steps, backend.offsets
    split = offsets[N + 1] * math.prod(a_shape)
    a = StepArray(flat[:split].reshape((offsets[N + 1],) + a_shape), offsets)
    b = StepArray(flat[split:].reshape((offsets[N],) + b_shape), offsets[: N + 1])
    return a, b


def _check_finite(backend: Backend, step: int, values: Array) -> None:
    """Raise NonFiniteStateError at the first non-finite row of a step's
    values, naming its scenario within its own member."""
    if not np.isfinite(values).all():
        row = int(np.argwhere(~np.isfinite(values))[0][0])
        raise NonFiniteStateError(step=step, scenario=backend.scenario_of(row), row=row)


def _forward_sweep(backend: Backend, start: Array, coefficients) -> StepArray:
    """Explicit Euler from `start` on steps 0..N, where coefficients(j, v)
    gives step j's (drift, diffusion) at v.  Raises NonFiniteStateError."""
    vs = StepArray(np.empty((backend.offsets[-1],) + start.shape[1:]), backend.offsets)
    vs[0][...] = start
    for j in range(backend.grid.steps):
        backend.step_forward(j, vs[j], *coefficients(j, vs[j]), out=vs[j + 1])
        _check_finite(backend, j + 1, vs[j + 1])
    return vs


def _backward_sweep(backend: Backend, terminal: Array, xs, driver):
    """Conditional-expectation recursion from a[N] = terminal, every
    expectation regressed on the state x (ignored on the lattice):

        b[j] = E[a[j+1] dB' | F_j] / dt
        a[j] = E[a[j+1] | F_j] + driver(j, E[a[j+1] | F_j], b[j]) dt

    Returns (a, b) plus the number of fits that fell back to ridge, which
    only a Monte Carlo backend's regressions do.
    """
    N, dt, offsets = backend.grid.steps, backend.grid.dt, backend.offsets
    a = StepArray(np.empty((offsets[N + 1],) + terminal.shape[1:]), offsets)
    b = StepArray(np.empty((offsets[N],) + terminal.shape[1:] + (backend.d,)), offsets[: N + 1])
    a[N][...] = terminal
    ridge_events = 0
    for j in range(N - 1, -1, -1):
        increment, r1 = backend.cond_exp_increment(j, a[j + 1], xs[j])
        mean, r2 = backend.cond_exp(j, a[j + 1], xs[j])
        np.divide(increment, dt, out=b[j])
        np.add(mean, driver(j, mean, b[j]) * dt, out=a[j])
        ridge_events += r1 + r2
    return a, b, ridge_events


def _sweeps(backend: Backend, u: ControlProcess, callbacks, x, y, z):
    """Each callback's per-step evaluation from its sweep form (`lq`), given
    the state arguments a pass holds fixed, None for the swept ones; or None
    when some callback has no `sweep`."""
    if not all(hasattr(c, "sweep") for c in callbacks):
        return None
    N = backend.grid.steps
    rows = [None if a is None else StepArray.of(a).leading(N) for a in (x, y, z)]
    return [c.sweep(backend.offsets, *rows, u.u1.rows, u.u2.rows) for c in callbacks]


def forward_pass(problem: GameProblem, u: ControlProcess, ys, zs, backend: Backend) -> StepArray:
    """The state's forward sweep for x given the current backward guess,
    through b's and sigma's sweep forms when both offer one."""
    co, knots = problem.coefficients, backend.grid.knots
    sweeps = _sweeps(backend, u, (co.b, co.sigma), None, ys, zs)
    if sweeps is not None:
        def coefficients(j, x):
            return sweeps[0](j, x), sweeps[1](j, x)
    else:
        def coefficients(j, x):
            args = (float(knots[j]), x, ys[j], zs[j], u.u1[j], u.u2[j])
            return co.b(*args), co.sigma(*args)

    start = np.broadcast_to(problem.initial, (backend.scenario_count(0), problem.dims.n))
    return _forward_sweep(backend, start, coefficients)


def backward_pass(problem: GameProblem, u: ControlProcess, xs, backend: Backend):
    """The state's backward sweep for (y, z) given x, from y[N] = xi(B_T),
    through f's sweep form when it offers one."""
    co, knots = problem.coefficients, backend.grid.knots
    sweeps = _sweeps(backend, u, (co.f,), xs, None, None)
    if sweeps is not None:
        driver = sweeps[0]
    else:
        def driver(j, y, z):
            return co.f(float(knots[j]), xs[j], y, z, u.u1[j], u.u2[j])

    terminal = np.asarray(problem.xi(backend.brownian(backend.grid.steps)), dtype=float)
    return _backward_sweep(backend, terminal, xs, driver)


# Rows per block of `_update_metric`'s squared updates: the temporaries
# stay this small while the passes hold the pair's history.
_METRIC_ROWS = 1 << 14


def _update_metric(backend: Backend, ys_new, zs_new, ys_old, zs_old) -> Array:
    """Sup over time of the scenario-mean squared update of (y, z), one value
    per member (a plain backend is one member): the squared updates of all
    rows in a few bounded blocks, then one mean per step."""
    total = np.empty(ys_new.rows.shape[0])
    z_rows = zs_new.rows.shape[0]
    for start in range(0, total.shape[0], _METRIC_ROWS):
        block = slice(start, start + _METRIC_ROWS)
        dy = ys_new.rows[block] - ys_old.rows[block]
        total[block] = np.einsum("sk,sk->s", dy, dy)
        if start < z_rows:
            dz = zs_new.rows[block] - zs_old.rows[block]
            dz = dz.reshape(dz.shape[0], -1)
            total[start:start + dz.shape[0]] += np.einsum("sk,sk->s", dz, dz)
    worst = np.zeros(backend.members)
    for mean in backend.expectations(total):
        np.fmax(worst, mean, out=worst)  # a NaN mean leaves worst
    return worst


# Anderson memory of the inner Picard solves: how many of the latest
# differences each member's mixing step combines.
_ANDERSON_MEMORY = 2


def _runs(backend: Backend, a_shape: tuple, b_shape: tuple) -> list[tuple[slice, Array]]:
    """The two parts of a flat pair laid out by `_start_pair` (a's rows,
    then b's) as runs of equal length: per part, its slice of the flat
    vector and the member of each of its runs.

    A run is one row on the lattice, where several members interleave
    their nodes, so a member's runs hold its entries in the order its
    solve alone holds them.  On Monte Carlo, always one member, a run is one
    step's rows.
    """
    ids = np.arange(backend.members)
    N, offsets = backend.grid.steps, backend.offsets
    parts, start = [], 0
    for steps, shape in ((N + 1, a_shape), (N, b_shape)):
        size = offsets[steps] * math.prod(shape)
        if backend.kind == "montecarlo":
            owners = np.zeros(steps, dtype=np.intp)
        else:
            owners = np.concatenate([backend.member_rows(j, ids) for j in range(steps)])
        parts.append((slice(start, start + size), owners))
        start += size
    return parts


class _Mixing:
    """Type-II Anderson mixing (Walker & Ni 2011, SIAM J. Numer. Anal.
    49(4)) of a flat pair, one fit per member.

    It keeps the last `_ANDERSON_MEMORY` + 1 inputs x_i and their
    f_i = G(x_i) - x_i, and moves to

        x_k + sum_i alpha_i ((x_i - x_k) + theta f_i),

    where alpha minimises |sum_i alpha_i f_i| subject to sum_i alpha_i = 1
    (the Pulay form of type-II Anderson, the same step as the fit of f_k by
    the differences of f).  Each member fits alpha on its own entries: its
    Gram matrix adds one dot product per run (`_runs`) in run order, and
    all members' systems go through one batched solve, so a member gets, bit
    for bit, the step its solve alone gets.  With one input so far, or for a
    member whose fit is not finite, the step is the damped x_k + theta f_k.
    The new input is written over the input that leaves the memory, and
    that input's f serves as scratch.  The last input's f is not kept but
    computed again from its outputs, which the caller holds anyway as its
    best output, so between passes the history adds m + 1 inputs and m - 1
    f's, m = `_ANDERSON_MEMORY`, to what the caller holds.
    """

    def __init__(self, x: Array, a_shape: tuple, b_shape: tuple, backend: Backend, theta: float):
        self.theta = theta
        self.members = backend.members
        self.runs = _runs(backend, a_shape, b_shape)
        self.xs = [x]  # the latest inputs, oldest first; the last is the current one
        self.fs: list[Array] = []  # f at each input but the last two
        self.outputs: tuple | None = None  # G at the input before the current one
        self.gram = np.zeros((self.members, 0, 0))  # <f_i, f_j> per member

    @property
    def x(self) -> Array:
        return self.xs[-1]

    def _parts(self, flat: Array) -> list[Array]:
        """Both parts of flat as (runs, run length) views."""
        return [flat[part].reshape(owners.shape[0], -1) for part, owners in self.runs]

    def _dot(self, u: Array, v: Array) -> Array:
        """Per member, its sum of u * v: one sum per run, the runs in order."""
        total = np.zeros(self.members)
        for (_, owners), pu, pv in zip(self.runs, self._parts(u), self._parts(v)):
            total += np.bincount(owners, weights=np.einsum("rl,rl->r", pu, pv),
                                 minlength=self.members)
        return total

    def _alpha(self, running: Array) -> tuple[Array, Array]:
        """Each member's alpha, and whether its fit is finite (else alpha
        picks the current input alone: the damped step)."""
        size = self.gram.shape[1]
        alpha = np.zeros((self.members, size))
        alpha[:, -1] = 1.0
        if size == 1:
            return alpha, running
        # the bordered system [[B, 1], [1', 0]] (alpha, lambda) = (0, 1), B
        # scaled by its largest diagonal entry
        system = np.zeros((self.members, size + 1, size + 1))
        scale = self.gram[:, np.arange(size), np.arange(size)].max(axis=1)
        scale[~(running & (scale > 0.0))] = 1.0
        system[:, :size, :size] = self.gram / scale[:, None, None]
        system[:, :size, size] = system[:, size, :size] = 1.0
        system[~running] = np.eye(size + 1)
        rhs = np.zeros((self.members, size + 1, 1))
        rhs[:, size] = 1.0
        try:
            solved = np.linalg.solve(system, rhs)[:, :size, 0]
        except np.linalg.LinAlgError:  # singular or not finite: each member alone
            solved = np.full((self.members, size), np.nan)
            for b in np.flatnonzero(running):
                try:
                    solved[b] = np.linalg.solve(system[b:b + 1], rhs[b:b + 1])[0, :size, 0]
                except np.linalg.LinAlgError:
                    pass
        fitted = running & np.isfinite(solved).all(axis=1)
        alpha[fitted] = solved[fitted]
        return alpha, fitted

    def _scaled(self, flat: Array, coef: Array, out: Array) -> None:
        """out = flat times each entry's member's coefficient in coef (shape (B,))."""
        for (_, owners), pf, po in zip(self.runs, self._parts(flat), self._parts(out)):
            np.multiply(pf, coef[owners][:, None], out=po)

    @staticmethod
    def _f(outputs, x: Array) -> Array:
        """f = G(x) - x as a flat vector, given the output pair G(x)."""
        f = np.concatenate([out.rows.reshape(-1) for out in outputs], out=np.empty_like(x))
        f -= x
        return f

    def advance(self, outputs: tuple, running: Array) -> Array:
        """Move to the next input, given the output pair G(x) = (a, b) of
        the current one, which it keeps until the next call; members where
        `running` (shape (B,)) is False keep their entries.  Returns, per
        member, whether its entries moved."""
        if self.outputs is not None:  # the last input's f, bit for bit as before
            self.fs.append(self._f(self.outputs, self.xs[-2]))
            self.outputs = None
        x = self.x
        f = self._f(outputs, x)
        fs = self.fs + [f]
        row = np.stack([self._dot(old, f) for old in fs], axis=1)
        gram = np.empty((self.members, len(fs), len(fs)))
        gram[:, :-1, :-1] = self.gram
        gram[:, -1] = row
        gram[:, :, -1] = row
        self.gram = gram
        alpha, fitted = self._alpha(running)
        # once the memory is full the new input overwrites the oldest one,
        # whose f, read first, then serves as scratch
        full = len(self.xs) > _ANDERSON_MEMORY
        new = self.xs[0] if full else np.empty_like(x)
        scratch = fs[0] if full else np.empty_like(x)
        np.subtract(self.xs[0], x, out=new)
        self._scaled(new, alpha[:, 0], new)
        for i, f_i in enumerate(fs):
            # x_0 - x_k went into new above; the current input's own is zero
            if 0 < i < len(fs) - 1:
                np.subtract(self.xs[i], x, out=scratch)
                self._scaled(scratch, alpha[:, i], scratch)
                new += scratch
            self._scaled(f_i, self.theta * alpha[:, i], scratch)
            new += scratch
        new += x
        moved = np.zeros(self.members, dtype=bool)
        damped = running & ~fitted
        for (_, owners), pn, px, pf in zip(
                self.runs, self._parts(new), self._parts(x), self._parts(f)):
            rows = damped[owners]
            if rows.any():
                pn[rows] = px[rows] + self.theta * pf[rows]
            frozen = ~running[owners]
            pn[frozen] = px[frozen]
            moved |= np.bincount(owners, weights=np.count_nonzero(pn != px, axis=1),
                                 minlength=self.members) > 0
        if full:
            del self.xs[0], self.fs[0]
            self.gram = self.gram[:, 1:, 1:]
        self.xs.append(new)
        self.outputs = outputs
        return moved


def damped_picard(forward, backward, start, backend: Backend, config: FbsdeConfig, label: str):
    """Anderson-mixed Picard iteration on a backward pair (a, b) on steps
    0..N, 0..N-1.

    `start` is the pair as `_start_pair` gives it, (flat vector, a's and
    b's trailing shapes); the iteration takes the vector over, and each
    pass reads its input (a, b) as StepArray views of it.  Each pass maps
    its input (a, b) to the output G(a, b) = ``backward(forward(a, b))``: `forward`
    gives the forward sweep at (a, b), and `backward` the output pair from
    it plus its ridge-fallback count.  A pass's residual is `_update_metric`
    between its output and its input, the fixed-point residual, and the
    solve stops at the first output whose residual is at most tol.  The
    next input is `_Mixing`'s Anderson step with theta = damping.  An input
    that the step leaves unchanged in floating point would repeat the pass
    bit for bit, so the solve also stops there, converged, with a warning
    that gives the residual it stalled at.  Divergence (residual above 10x
    its first value) raises PicardDivergenceError.  An infinite first
    residual leaves the divergence check nothing to compare with, so that
    solve stops after its first pass, unconverged, with a warning.  Hitting
    max_picard keeps the output of lowest residual with converged = False.
    A last forward sweep at the returned pair makes the forward recursion
    hold there.  Returns (fwd, a, b, diagnostics), one SolveDiagnostics per
    member; warnings name `label`.

    On a lattice with several members every member runs this iteration on
    its own rows: its own residuals, warnings, best output, Anderson fit, stop
    and divergence check.  A member that has stopped keeps its input, so
    the passes the others still need repeat its last output and cannot
    change its result, and they add nothing to its counts.  A plain backend
    is the one-member case, and the only one whose fits fall back to ridge.
    """
    members = backend.members
    x, a_shape, b_shape = start
    mixing = _Mixing(x, a_shape, b_shape, backend, config.damping)
    histories: list[list[float]] = [[] for _ in range(members)]
    warnings: list[list[str]] = [[] for _ in range(members)]
    best = [np.inf] * members
    converged = [False] * members
    running = list(range(members))
    ridge_counts = [0] * members
    best_a = best_b = None

    def pick(chosen: list[int], new: StepArray, old: StepArray) -> StepArray:
        """The rows of the chosen members from new, the rest from old."""
        if len(chosen) == members:
            return new
        if not chosen:
            return old
        mask = np.zeros(members, dtype=bool)
        mask[chosen] = True
        rows = np.concatenate([backend.member_rows(j, mask) for j in range(len(new))])
        rows = rows.reshape((-1,) + (1,) * (new.rows.ndim - 1))
        return StepArray(np.where(rows, new.rows, old.rows), new.offsets)

    def diagnostics(b: int) -> SolveDiagnostics:
        return SolveDiagnostics(
            iterations=len(histories[b]),
            final_residual=histories[b][-1],
            converged=converged[b],
            residual_history=tuple(histories[b]),
            ridge_fallbacks=ridge_counts[b],
            warnings=tuple(warnings[b]),
        )

    for it in range(1, config.max_picard + 1):
        a_in, b_in = _pair_views(backend, mixing.x, a_shape, b_shape)
        a_out, b_out, ridge = backward(forward(a_in, b_in))
        for b in running:  # only the members still running count this pass
            ridge_counts[b] += int(ridge)
        residual = _update_metric(backend, a_out, b_out, a_in, b_in).tolist()
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
            elif it == 1 and r == math.inf:
                # no later residual exceeds 10x an infinite first one, so
                # the divergence check below could never stop this member
                warnings[b].append(f"{label} residual infinite at iteration 1")
            else:
                still.append(b)
        best_a = pick(improved, a_out, best_a)
        best_b = pick(improved, b_out, best_b)
        running = still
        for b in running:
            first = histories[b][0]
            if first > 0.0 and histories[b][-1] > 10.0 * first:
                raise PicardDivergenceError(diagnostics(b))
        if not running or it == config.max_picard:
            break
        mask = np.zeros(members, dtype=bool)
        mask[running] = True
        moved = mixing.advance((a_out, b_out), mask)
        # an input that did not move in floating point would repeat this
        # pass's output bit for bit: the solve is as converged as it can get
        for b in running:
            if not moved[b]:
                converged[b] = True
                warnings[b].append(
                    f"{label} iterate stalled at residual {histories[b][-1]:.3e} "
                    f"at iteration {it}")
        running = [b for b in running if moved[b]]
        if not running:
            break
    del mixing  # the last forward sweep runs without the history
    return forward(best_a, best_b), best_a, best_b, tuple(diagnostics(b) for b in range(members))


def solve_members(
    problem: GameProblem,
    u: ControlProcess,
    backend: Backend,
    config: FbsdeConfig = FbsdeConfig(),
    initial=None,
) -> tuple[StateTrajectory, tuple[SolveDiagnostics, ...]]:
    """`solve_fbsde` with one SolveDiagnostics per member of the backend.

    On a lattice with several members the returned trajectory stacks every
    member's own solve; a plain backend is one member.
    """
    m, d = problem.dims.m, problem.dims.d
    # the sweeps look forward_pass and backward_pass up at call time, so a
    # wrapper rebound over either module name sees every pass
    xs, ys, zs, diagnostics = damped_picard(
        lambda ys, zs: forward_pass(problem, u, ys, zs, backend),
        lambda xs: backward_pass(problem, u, xs, backend),
        _start_pair(backend, (m,), (m, d), initial),
        backend,
        config,
        "picard",
    )
    return StateTrajectory(x=xs, y=ys, z=zs, backend=backend), diagnostics


def solve_fbsde(
    problem: GameProblem,
    u: ControlProcess,
    backend: Backend,
    config: FbsdeConfig = FbsdeConfig(),
    initial=None,
) -> tuple[StateTrajectory, SolveDiagnostics]:
    """`damped_picard` on the state's (y, z) until a pass's output is
    within tol of its input.

    `initial` warm-starts the backward pair with (ys, zs) from an earlier
    solve.  Divergence and the iteration cap behave as in `damped_picard`.
    """
    traj, (diagnostics,) = solve_members(problem, u, backend, config, initial)
    return traj, diagnostics
