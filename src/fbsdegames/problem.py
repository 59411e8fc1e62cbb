"""Game instance definition: coefficients, costs, control boxes, derivative checks.

Every coefficient and cost callback is batched over scenarios.  The leading
axis S is the scenario axis.  Time t is a float, or an (S,) array with one
time per row: the solvers evaluate the work that is pointwise in (t,
scenario) in one call over the rows of all time steps, so a time-dependent
callback must broadcast t along the rows (t[:, None] against an (S, n)
array, say).  With forward dimension n, backward dimension m, Brownian
dimension d and control dimensions k1, k2:

    b(t, x, y, z, u1, u2)     -> (S, n)        x: (S, n)   y: (S, m)
    sigma(t, x, y, z, u1, u2) -> (S, n, d)     z: (S, m, d)
    f(t, x, y, z, u1, u2)     -> (S, m)        u_i: (S, k_i)
    l_i(t, x, y, z, u1, u2)   -> (S,)
    phi_i(x) -> (S,)    h_i(y) -> (S,)    xi(B_T) -> (S, m)

Derivatives are laid out value-shape times flattened-argument, except sigma
whose derivative keeps the Brownian column first:

    b_v     -> (S, n, dim_v)
    sigma_v -> (S, d, n, dim_v)     (d slices, one Jacobian per column)
    f_v     -> (S, m, dim_v)
    l_iv    -> (S, dim_v)

z enters all derivative layouts flattened C-order, so dim_z = m*d and the
entry (i, j) of z maps to index i*d + j.

Callbacks must act row by row: row s of a result depends on row s of the
arguments (and of t, when t is an array) only, bit for bit, whatever rows
come with it.  The grid oracle relies on this when it stacks many control
profiles along the scenario axis (`drivers.LatticeBackend.with_members`)
and expects each to be solved as if alone, and one call over all steps'
rows must give what one call per step gives.  The LQ family satisfies it
(``lq`` sums its matrix products in a fixed order rather than through
BLAS, whose rounding depends on the row count).  `validate_problem`
checks the time contract: each callback's rows at per-row times must
equal its rows at each time alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

Array = np.ndarray


class ShapeValidationError(ValueError):
    """A problem callback returned an array of the wrong shape."""


@dataclass(frozen=True)
class Dims:
    """Dimensions of one game instance; k1 or k2 may be zero (inert player)."""

    n: int
    m: int
    d: int
    k1: int
    k2: int

    def __post_init__(self) -> None:
        for name in ("n", "m", "d"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"dims.{name} must be >= 1")
        for name in ("k1", "k2"):
            if int(getattr(self, name)) < 0:
                raise ValueError(f"dims.{name} must be >= 0")

    @property
    def dz(self) -> int:
        return self.m * self.d

    def control_dim(self, player: int) -> int:
        if player not in (1, 2):
            raise ValueError("player must be 1 or 2")
        return self.k1 if player == 1 else self.k2


@dataclass(frozen=True)
class ControlBox:
    """Axis-aligned admissible set, coordinates may be infinite.  A config's
    box has lower <= upper; a clipped box or an oracle grid's may not."""

    lower: Array
    upper: Array

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def unbounded(cls, k: int) -> "ControlBox":
        return cls(np.full(k, -np.inf), np.full(k, np.inf))

    @classmethod
    def symmetric(cls, k: int, radius: float) -> "ControlBox":
        return cls(np.full(k, -float(radius)), np.full(k, float(radius)))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def project(self, u: Array) -> Array:
        return np.clip(u, self.lower, self.upper)

    def contains(self, u: Array, tol: float = 0.0) -> bool:
        return bool(np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol))

    def clipped(self, radius: float) -> "ControlBox":
        """The box cut to [-radius, radius] on every coordinate."""
        return ControlBox(np.maximum(self.lower, -radius), np.minimum(self.upper, radius))

    def grid(self, points: int) -> Array:
        """The product of `points` evenly spaced values per axis, one per row,
        the last axis fastest; with no axes, one row: the empty control."""
        axes = [np.linspace(lo, hi, points) for lo, hi in zip(self.lower, self.upper)]
        mesh = np.array(np.meshgrid(*axes, indexing="ij", copy=False))
        return mesh.reshape(self.dim, points**self.dim).T

    def sample(self, rng: np.random.Generator, size: int, radius: float) -> Array:
        """`size` points drawn uniformly from the box clipped to [-radius, radius]."""
        box = self.clipped(radius)
        return rng.uniform(box.lower, box.upper, size=(size, self.dim))

    def midpoint(self) -> Array:
        """Center of the box; 0 on coordinates with an infinite end."""
        mid = np.zeros(self.dim)
        finite = np.isfinite(self.lower) & np.isfinite(self.upper)
        mid[finite] = 0.5 * (self.lower[finite] + self.upper[finite])
        return mid


Coeff = Callable[..., Array]


@dataclass(frozen=True)
class CoefficientSet:
    """Forward drift b, forward diffusion sigma, backward driver f, with partials."""

    b: Coeff
    sigma: Coeff
    f: Coeff
    b_x: Coeff
    b_y: Coeff
    b_z: Coeff
    b_u1: Coeff
    b_u2: Coeff
    sigma_x: Coeff
    sigma_y: Coeff
    sigma_z: Coeff
    sigma_u1: Coeff
    sigma_u2: Coeff
    f_x: Coeff
    f_y: Coeff
    f_z: Coeff
    f_u1: Coeff
    f_u2: Coeff


@dataclass(frozen=True)
class CostSet:
    """Running costs l_i, terminal costs phi_i(x(T)), initial costs h_i(y(0))."""

    l1: Coeff
    l2: Coeff
    l1_x: Coeff
    l1_y: Coeff
    l1_z: Coeff
    l1_u1: Coeff
    l1_u2: Coeff
    l2_x: Coeff
    l2_y: Coeff
    l2_z: Coeff
    l2_u1: Coeff
    l2_u2: Coeff
    phi1: Coeff
    phi2: Coeff
    phi1_x: Coeff
    phi2_x: Coeff
    h1: Coeff
    h2: Coeff
    h1_y: Coeff
    h2_y: Coeff

    def running(self, player: int) -> Coeff:
        return self.l1 if player == 1 else self.l2

    def running_grad(self, player: int, var: str) -> Coeff:
        return getattr(self, f"l{player}_{var}")

    def terminal(self, player: int) -> Coeff:
        return self.phi1 if player == 1 else self.phi2

    def terminal_grad(self, player: int) -> Coeff:
        return self.phi1_x if player == 1 else self.phi2_x

    def initial(self, player: int) -> Coeff:
        return self.h1 if player == 1 else self.h2

    def initial_grad(self, player: int) -> Coeff:
        return self.h1_y if player == 1 else self.h2_y


@dataclass(frozen=True)
class GameProblem:
    """A two-player game over a fully coupled forward-backward system with
    terminal condition y(T) = xi(B(T))."""

    dims: Dims
    horizon: float
    initial: Array
    xi: Coeff
    coefficients: CoefficientSet
    costs: CostSet
    u1_box: ControlBox
    u2_box: ControlBox

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        a = np.atleast_1d(np.asarray(self.initial, dtype=float))
        if a.shape != (self.dims.n,):
            raise ValueError(f"initial state must have shape ({self.dims.n},)")
        a.setflags(write=False)
        object.__setattr__(self, "initial", a)
        if self.u1_box.dim != self.dims.k1 or self.u2_box.dim != self.dims.k2:
            raise ValueError("control box dimension does not match dims")

    def box(self, player: int) -> ControlBox:
        return self.u1_box if player == 1 else self.u2_box


# ---------------------------------------------------------------------------
# finite-difference derivative checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialCheck:
    """The worst scaled finite-difference error of one claimed partial."""

    function: str
    partial: str
    max_error: float
    passed: bool


def _central_difference(m: _Map, t: float, point: dict[str, Array], v: str, step: float) -> Array:
    base = point[v]
    flat = base.reshape(base.shape[0], -1)
    cols = []
    for c in range(flat.shape[1]):
        up = flat.copy()
        dn = flat.copy()
        up[:, c] += step
        dn[:, c] -= step
        plus = m.at(m.fn, t, dict(point, **{v: up.reshape(base.shape)}))
        minus = m.at(m.fn, t, dict(point, **{v: dn.reshape(base.shape)}))
        cols.append((plus - minus) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _scaled_error(claimed: Array, fd: Array) -> Array:
    """Per-sample error |claimed - fd| / max(1, |claimed|, |fd|).

    The unit floor keeps exactly-zero partials of large functions from
    drowning in finite-difference roundoff while still flagging wrong
    derivatives at order-one relative size.
    """
    S = claimed.shape[0]
    diff = np.abs(claimed - fd).reshape(S, -1).max(axis=1)
    mag = np.maximum(
        np.abs(claimed).reshape(S, -1).max(axis=1),
        np.abs(fd).reshape(S, -1).max(axis=1),
    )
    return diff / np.maximum(1.0, mag)


# Finite-difference check settings: central-difference step, the scaled
# error a partial may show, the sampling bound on every coordinate, and the
# number of time values the samples are spread over.
_FD_STEP = 1e-4
_FD_RTOL = 1e-5
_FD_BOUND = 10.0
_FD_ROUNDS = 4


# ---------------------------------------------------------------------------
# whole-problem validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[PartialCheck, ...]
    warnings: tuple[str, ...]
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[PartialCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


# the arguments after t of b, sigma, f and l_i, in call order
_ARGS = ("x", "y", "z", "u1", "u2")


class _Map(NamedTuple):
    """One map of a problem, every callback taking t first: the map, its
    arguments, its value shape per row, one partial per argument as (name,
    callback, stored shape per row), and the arguments the growth probe
    differentiates it in."""

    name: str
    fn: Coeff
    args: tuple[str, ...]
    shape: tuple[int, ...]
    partials: tuple[tuple[str, Coeff, tuple[int, ...]], ...]
    probed: tuple[str, ...]

    def callbacks(self) -> tuple[tuple[str, Coeff, tuple[int, ...]], ...]:
        return ((self.name, self.fn, self.shape),) + self.partials

    def at(self, fn: Coeff, t, point: dict[str, Array]) -> Array:
        return np.asarray(fn(t, *(point[v] for v in self.args)))


def _arg_shapes(dims: Dims) -> dict[str, tuple[int, ...]]:
    return {"x": (dims.n,), "y": (dims.m,), "z": (dims.m, dims.d),
            "u1": (dims.k1,), "u2": (dims.k2,)}


def _maps(problem: GameProblem) -> list[_Map]:
    """The problem's maps in check order b, sigma, f, l1, l2, phi1, h1, phi2,
    h2.  phi_i takes x alone and h_i y alone; here they ignore a leading t.
    A partial's stored shape is the value shape times the flattened
    argument, sigma's with the Brownian column first."""
    dims, co, cs = problem.dims, problem.coefficients, problem.costs
    width = {v: int(np.prod(shape)) for v, shape in _arg_shapes(dims).items()}
    state = ("x", "y", "z")
    table = [(co, "b", _ARGS, (dims.n,), state), (co, "sigma", _ARGS, (dims.n, dims.d), state),
             (co, "f", _ARGS, (dims.m,), state)]
    table += [(cs, f"l{i}", _ARGS, (), ("x", "y", f"u{i}")) for i in (1, 2)]
    for i in (1, 2):
        table += [(cs, f"phi{i}", ("x",), (), ()), (cs, f"h{i}", ("y",), (), ())]

    def call(fn: Coeff, timed: bool) -> Coeff:
        return fn if timed else (lambda t, arg: fn(arg))

    maps = []
    for group, name, args, shape, probed in table:
        timed = args == _ARGS
        lead = shape[::-1] if name == "sigma" else shape
        partials = tuple((f"{name}_{v}", call(getattr(group, f"{name}_{v}"), timed),
                          lead + (width[v],)) for v in args)
        maps.append(_Map(name, call(getattr(group, name), timed), args, shape, partials, probed))
    return maps


def _check_partials(
    m: _Map, shapes: dict[str, tuple[int, ...]], boxes: dict[str, ControlBox],
    samples: int, seed: int, horizon: float,
) -> list[PartialCheck]:
    """Compare the claimed partials of one map against central differences.

    Each argument is drawn uniformly with every coordinate in
    [-_FD_BOUND, _FD_BOUND], a control from its box clipped to that bound,
    at `_FD_ROUNDS` time values.  A partial in an empty control has no
    column to difference: it is shape-checked only (`_check_shapes`).
    """
    rng = np.random.default_rng(seed)
    per_round = max(1, int(np.ceil(samples / _FD_ROUNDS)))
    # per partial: the worst error, and whether a value was ever non-finite
    worst = {name: (0.0, False) for name, _, shape in m.partials if shape[-1] > 0}
    for _ in range(_FD_ROUNDS):
        t = float(rng.uniform(0.0, horizon))
        point = {v: boxes[v].sample(rng, per_round, _FD_BOUND) if v in boxes
                 else rng.uniform(-_FD_BOUND, _FD_BOUND, size=(per_round,) + shapes[v])
                 for v in m.args}
        for v, (name, fn, _) in zip(m.args, m.partials):
            if name not in worst:
                continue
            claimed = np.asarray(m.at(fn, t, point), dtype=float)
            if m.name == "sigma":
                # stored layout (S, d, n, dim_v), finite differences produce (S, n, d, dim_v)
                claimed = np.swapaxes(claimed, 1, 2)
            fd = _central_difference(m, t, point, v, _FD_STEP)
            if claimed.shape != fd.shape:
                raise ShapeValidationError(
                    f"{m.name}: partial {name} has shape {claimed.shape}, expected {fd.shape}"
                )
            bad = not (np.isfinite(claimed).all() and np.isfinite(fd).all())
            err = float(_scaled_error(claimed, fd).max())
            if bad or err > worst[name][0]:
                worst[name] = (err, bad or worst[name][1])
    return [PartialCheck(m.name, name, e, bool(e <= _FD_RTOL and not nonfinite))
            for name, (e, nonfinite) in worst.items()]


def _check_shapes(problem: GameProblem) -> None:
    """Raise ShapeValidationError naming the first callback whose result
    has the wrong shape, or whose rows at an (S,) array of per-row times
    differ from its rows at each of those times alone."""
    dims = problem.dims
    S = 3
    rng = np.random.default_rng(1)
    point = {v: rng.standard_normal((S,) + shape)
             for v, shape in _arg_shapes(dims).items() if v in ("x", "y", "z")}
    for i in (1, 2):
        box = problem.box(i)
        point[f"u{i}"] = np.broadcast_to(box.project(np.zeros(box.dim)), (S, box.dim))
    bt = rng.standard_normal((S, dims.d))
    t = 0.5 * problem.horizon
    times = problem.horizon * np.arange(1, S + 1) / (S + 1)

    def expect(name: str, got: Array, shape: tuple[int, ...]) -> None:
        if np.asarray(got).shape != shape:
            raise ShapeValidationError(
                f"{name}: expected shape {shape}, got {np.asarray(got).shape}"
            )

    for m in _maps(problem):
        for name, fn, shape in m.callbacks():
            expect(name, m.at(fn, t, point), (S,) + shape)
            if m.args != _ARGS:  # phi_i and h_i take no t
                continue
            alone = np.stack([m.at(fn, float(ts), point)[s] for s, ts in enumerate(times)])
            try:
                rows = m.at(fn, times, point)
            except (ValueError, TypeError, IndexError) as exc:
                raise ShapeValidationError(f"{name}: fails at per-row times t: {exc}") from None
            if rows.shape != (S,) + shape or not np.array_equal(rows, alone, equal_nan=True):
                raise ShapeValidationError(
                    f"{name}: rows at per-row times t differ from its rows at each time alone"
                )
    expect("xi", problem.xi(bt), (S, dims.m))


def _probe_growth(problem: GameProblem, radius: float, seed: int) -> tuple[str, ...]:
    """Spot-check derivative magnitudes at radius; flag superlinear-looking growth."""
    rng = np.random.default_rng(seed)
    S = 32
    point = {v: rng.uniform(-radius, radius, (S,) + shape)
             for v, shape in _arg_shapes(problem.dims).items()}
    for i in (1, 2):
        point[f"u{i}"] = problem.box(i).project(point[f"u{i}"])
    t = 0.5 * problem.horizon
    envelope = 10.0 * (1.0 + radius)
    warnings = []
    for m in _maps(problem):
        for v, (name, fn, _) in zip(m.args, m.partials):
            if v not in m.probed:
                continue
            mag = float(np.abs(m.at(fn, t, point)).max())
            if not np.isfinite(mag):
                warnings.append(f"{name}: non-finite value at |coordinate| <= {radius:g}")
            elif mag > envelope:
                warnings.append(
                    f"{name}: magnitude {mag:.3g} exceeds 10*(1+{radius:g}) at probe radius"
                )
    return tuple(warnings)


def validate_problem(
    problem: GameProblem,
    samples: int,
    probe_radius: float | None,
    seed: int = 0,
) -> ValidationReport:
    """Shape conformance plus finite-difference consistency of all partials.

    Shape mismatches raise ShapeValidationError immediately; derivative
    disagreements are collected in the report.  Deterministic given seed.
    """
    _check_shapes(problem)
    shapes = _arg_shapes(problem.dims)
    boxes = {"u1": problem.u1_box, "u2": problem.u2_box}
    checks = tuple(c for m in _maps(problem)
                   for c in _check_partials(m, shapes, boxes, samples, seed, problem.horizon))
    warnings: tuple[str, ...] = ()
    if probe_radius is not None:
        warnings = _probe_growth(problem, probe_radius, seed)
    return ValidationReport(checks=checks, warnings=warnings, samples=samples, seed=seed)
