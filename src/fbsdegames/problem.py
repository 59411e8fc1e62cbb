"""Game instance definition: coefficients, costs, control boxes, derivative checks.

Every coefficient and cost callback is batched over scenarios.  The leading
axis S is the scenario axis; time is a plain float.  With forward dimension
n, backward dimension m, Brownian dimension d and control dimensions k1, k2:

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
arguments only, bit for bit, whatever rows come with it.  The grid oracle
relies on this when it stacks many control profiles along the scenario axis
(``drivers.MemberLattice``) and expects each to be solved as if alone.  The
LQ family satisfies it (``lq`` sums its matrix products in a fixed order
rather than through BLAS, whose rounding depends on the row count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    """Axis-aligned admissible set, coordinates may be infinite."""

    lower: Array
    upper: Array

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("box has lower > upper")
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

    def partials(self, which: str):
        return tuple(getattr(self, f"{which}_{v}") for v in ("x", "y", "z", "u1", "u2"))


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
class TerminalData:
    """Terminal condition y(T) = xi(B(T)); batched (S, d) -> (S, m)."""

    xi: Callable[[Array], Array]
    description: str = "custom"

    @classmethod
    def constant(cls, value: Sequence[float]) -> "TerminalData":
        vec = np.atleast_1d(np.asarray(value, dtype=float))
        vec.setflags(write=False)

        def _xi(bt: Array) -> Array:
            return np.broadcast_to(vec, (bt.shape[0], vec.shape[0]))

        return cls(_xi, description=f"constant {vec.tolist()}")


@dataclass(frozen=True)
class GameProblem:
    """A two-player game over a fully coupled forward-backward system."""

    dims: Dims
    horizon: float
    initial: Array
    terminal: TerminalData
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
class PartialSpec:
    """One claimed partial derivative inside a FunctionBundle.

    The callable must return shape (S, *value_shape, dim_v) where dim_v is
    the flattened size of the differentiated argument.
    """

    name: str
    arg_index: int
    fn: Coeff


@dataclass(frozen=True)
class FunctionBundle:
    """A batched function together with its claimed partial derivatives.

    `value(t, *args)` takes arrays shaped (S, *arg_shapes[i]) and returns
    (S, *anything).  Samplers, when given, override the default uniform
    sampling of an argument (signature rng, size -> (size, *shape)).
    """

    name: str
    value: Coeff
    arg_shapes: tuple[tuple[int, ...], ...]
    partials: tuple[PartialSpec, ...]
    samplers: tuple[Callable | None, ...] = ()


@dataclass(frozen=True)
class PartialCheck:
    function: str
    partial: str
    max_error: float
    worst_time: float
    worst_sample: int
    passed: bool
    nonfinite: bool = False


@dataclass(frozen=True)
class DerivativeReport:
    checks: tuple[PartialCheck, ...]
    samples: int
    step: float
    rtol: float
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> PartialCheck:
        return max(self.checks, key=lambda c: c.max_error)


def _central_difference(value: Coeff, t: float, args: list[Array], idx: int, step: float) -> Array:
    base = args[idx]
    flat = base.reshape(base.shape[0], -1)
    cols = []
    for c in range(flat.shape[1]):
        up = flat.copy()
        dn = flat.copy()
        up[:, c] += step
        dn[:, c] -= step
        plus = list(args)
        minus = list(args)
        plus[idx] = up.reshape(base.shape)
        minus[idx] = dn.reshape(base.shape)
        cols.append((value(t, *plus) - value(t, *minus)) / (2.0 * step))
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


def check_derivatives(
    bundle: FunctionBundle,
    samples: int = 120,
    seed: int = 0,
    horizon: float = 1.0,
) -> DerivativeReport:
    """Compare claimed partials of a bundle against central differences.

    Points are sampled uniformly with every coordinate in
    [-_FD_BOUND, _FD_BOUND] (or by the bundle's samplers), spread over
    `_FD_ROUNDS` time values.
    """
    rng = np.random.default_rng(seed)
    per_round = max(1, int(np.ceil(samples / _FD_ROUNDS)))
    total = per_round * _FD_ROUNDS
    worst: dict[str, tuple[float, float, int, bool]] = {
        p.name: (0.0, 0.0, -1, False) for p in bundle.partials
    }
    samplers = bundle.samplers or (None,) * len(bundle.arg_shapes)
    for _ in range(_FD_ROUNDS):
        t = float(rng.uniform(0.0, horizon))
        args: list[Array] = []
        for shape, sampler in zip(bundle.arg_shapes, samplers):
            if sampler is not None:
                args.append(np.asarray(sampler(rng, per_round), dtype=float))
            else:
                args.append(rng.uniform(-_FD_BOUND, _FD_BOUND, size=(per_round,) + shape))
        for spec in bundle.partials:
            claimed = np.asarray(spec.fn(t, *args), dtype=float)
            fd = _central_difference(bundle.value, t, args, spec.arg_index, _FD_STEP)
            if claimed.shape != fd.shape:
                raise ShapeValidationError(
                    f"{bundle.name}: partial {spec.name} has shape {claimed.shape}, "
                    f"expected {fd.shape}"
                )
            bad = ~(np.isfinite(claimed).all() and np.isfinite(fd).all())
            err = _scaled_error(claimed, fd)
            s = int(np.argmax(err))
            prev = worst[spec.name]
            if bad or err[s] > prev[0]:
                worst[spec.name] = (float(err[s]), t, s, bool(bad or prev[3]))
    checks = tuple(
        PartialCheck(
            function=bundle.name,
            partial=name,
            max_error=e,
            worst_time=t,
            worst_sample=s,
            passed=bool(e <= _FD_RTOL and not nf),
            nonfinite=nf,
        )
        for name, (e, t, s, nf) in worst.items()
    )
    return DerivativeReport(checks=checks, samples=total, step=_FD_STEP, rtol=_FD_RTOL, seed=seed)


# ---------------------------------------------------------------------------
# whole-problem validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    derivative_reports: tuple[DerivativeReport, ...]
    warnings: tuple[str, ...]
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.derivative_reports)

    def failures(self) -> tuple[PartialCheck, ...]:
        return tuple(c for r in self.derivative_reports for c in r.checks if not c.passed)


def _box_sampler(box: ControlBox):
    lo = np.maximum(box.lower, -_FD_BOUND)
    hi = np.minimum(box.upper, _FD_BOUND)

    def sample(rng: np.random.Generator, size: int) -> Array:
        return rng.uniform(lo, hi, size=(size, box.dim))

    return sample


def _coefficient_bundles(problem: GameProblem) -> list[FunctionBundle]:
    dims = problem.dims
    co = problem.coefficients
    cs = problem.costs
    arg_shapes = ((dims.n,), (dims.m,), (dims.m, dims.d), (dims.k1,), (dims.k2,))
    samplers = (
        None,
        None,
        None,
        _box_sampler(problem.u1_box),
        _box_sampler(problem.u2_box),
    )
    names = ("x", "y", "z", "u1", "u2")

    def direct(which: str, fns) -> tuple[PartialSpec, ...]:
        return tuple(
            PartialSpec(name=f"{which}_{v}", arg_index=i, fn=fn)
            for i, (v, fn) in enumerate(zip(names, fns))
        )

    def sigma_adapter(fn):
        # stored layout (S, d, n, dim_v), finite differences produce (S, n, d, dim_v)
        def wrapped(t, *args):
            return np.swapaxes(np.asarray(fn(t, *args)), 1, 2)

        return wrapped

    bundles = [
        FunctionBundle("b", co.b, arg_shapes, direct("b", co.partials("b")), samplers),
        FunctionBundle(
            "sigma",
            co.sigma,
            arg_shapes,
            tuple(
                PartialSpec(name=f"sigma_{v}", arg_index=i, fn=sigma_adapter(fn))
                for i, (v, fn) in enumerate(zip(names, co.partials("sigma")))
            ),
            samplers,
        ),
        FunctionBundle("f", co.f, arg_shapes, direct("f", co.partials("f")), samplers),
    ]
    for player in (1, 2):
        lfns = tuple(cs.running_grad(player, v) for v in names)
        bundles.append(
            FunctionBundle(
                f"l{player}", cs.running(player), arg_shapes, direct(f"l{player}", lfns), samplers
            )
        )
    for player in (1, 2):
        phi = cs.terminal(player)
        bundles.append(
            FunctionBundle(
                f"phi{player}",
                lambda t, x, _phi=phi: _phi(x),
                ((dims.n,),),
                (
                    PartialSpec(
                        name=f"phi{player}_x",
                        arg_index=0,
                        fn=lambda t, x, _g=cs.terminal_grad(player): _g(x),
                    ),
                ),
            )
        )
        h = cs.initial(player)
        bundles.append(
            FunctionBundle(
                f"h{player}",
                lambda t, y, _h=h: _h(y),
                ((dims.m,),),
                (
                    PartialSpec(
                        name=f"h{player}_y",
                        arg_index=0,
                        fn=lambda t, y, _g=cs.initial_grad(player): _g(y),
                    ),
                ),
            )
        )
    return bundles


def _check_shapes(problem: GameProblem) -> None:
    dims = problem.dims
    S = 3
    rng = np.random.default_rng(1)
    x = rng.standard_normal((S, dims.n))
    y = rng.standard_normal((S, dims.m))
    z = rng.standard_normal((S, dims.m, dims.d))
    u1 = np.broadcast_to(problem.u1_box.project(np.zeros(dims.k1)), (S, dims.k1))
    u2 = np.broadcast_to(problem.u2_box.project(np.zeros(dims.k2)), (S, dims.k2))
    t = 0.5 * problem.horizon
    co, cs = problem.coefficients, problem.costs

    def expect(name: str, got: Array, shape: tuple[int, ...]) -> None:
        if np.asarray(got).shape != shape:
            raise ShapeValidationError(
                f"{name}: expected shape {shape}, got {np.asarray(got).shape}"
            )

    expect("b", co.b(t, x, y, z, u1, u2), (S, dims.n))
    expect("sigma", co.sigma(t, x, y, z, u1, u2), (S, dims.n, dims.d))
    expect("f", co.f(t, x, y, z, u1, u2), (S, dims.m))
    arg_dims = {"x": dims.n, "y": dims.m, "z": dims.dz, "u1": dims.k1, "u2": dims.k2}
    rows = {"b": dims.n, "f": dims.m}
    for which, r in rows.items():
        for v, dv in arg_dims.items():
            expect(
                f"{which}_{v}",
                getattr(co, f"{which}_{v}")(t, x, y, z, u1, u2),
                (S, r, dv),
            )
    for v, dv in arg_dims.items():
        expect(f"sigma_{v}", getattr(co, f"sigma_{v}")(t, x, y, z, u1, u2), (S, dims.d, dims.n, dv))
    for player in (1, 2):
        expect(f"l{player}", cs.running(player)(t, x, y, z, u1, u2), (S,))
        for v, dv in arg_dims.items():
            expect(f"l{player}_{v}", cs.running_grad(player, v)(t, x, y, z, u1, u2), (S, dv))
        expect(f"phi{player}", cs.terminal(player)(x), (S,))
        expect(f"phi{player}_x", cs.terminal_grad(player)(x), (S, dims.n))
        expect(f"h{player}", cs.initial(player)(y), (S,))
        expect(f"h{player}_y", cs.initial_grad(player)(y), (S, dims.m))
    bt = rng.standard_normal((S, dims.d))
    expect("xi", problem.terminal.xi(bt), (S, dims.m))


def _probe_growth(problem: GameProblem, radius: float, seed: int) -> tuple[str, ...]:
    """Spot-check derivative magnitudes at radius; flag superlinear-looking growth."""
    dims = problem.dims
    rng = np.random.default_rng(seed)
    S = 32
    x = rng.uniform(-radius, radius, (S, dims.n))
    y = rng.uniform(-radius, radius, (S, dims.m))
    z = rng.uniform(-radius, radius, (S, dims.m, dims.d))
    u1 = problem.u1_box.project(rng.uniform(-radius, radius, (S, dims.k1)))
    u2 = problem.u2_box.project(rng.uniform(-radius, radius, (S, dims.k2)))
    t = 0.5 * problem.horizon
    envelope = 10.0 * (1.0 + radius)
    warnings = []
    co, cs = problem.coefficients, problem.costs
    fns = {
        "b_x": co.b_x, "b_y": co.b_y, "b_z": co.b_z,
        "sigma_x": co.sigma_x, "sigma_y": co.sigma_y, "sigma_z": co.sigma_z,
        "f_x": co.f_x, "f_y": co.f_y, "f_z": co.f_z,
        "l1_x": cs.l1_x, "l1_y": cs.l1_y, "l1_u1": cs.l1_u1,
        "l2_x": cs.l2_x, "l2_y": cs.l2_y, "l2_u2": cs.l2_u2,
    }
    for name, fn in fns.items():
        mag = float(np.abs(np.asarray(fn(t, x, y, z, u1, u2))).max())
        if not np.isfinite(mag):
            warnings.append(f"{name}: non-finite value at |coordinate| <= {radius:g}")
        elif mag > envelope:
            warnings.append(
                f"{name}: magnitude {mag:.3g} exceeds 10*(1+{radius:g}) at probe radius"
            )
    return tuple(warnings)


def validate_problem(
    problem: GameProblem,
    samples: int = 120,
    seed: int = 0,
    probe_radius: float | None = None,
) -> ValidationReport:
    """Shape conformance plus finite-difference consistency of all partials.

    Shape mismatches raise ShapeValidationError immediately; derivative
    disagreements are collected in the report.  Deterministic given seed.
    """
    _check_shapes(problem)
    reports = tuple(
        check_derivatives(bundle, samples=samples, seed=seed, horizon=problem.horizon)
        for bundle in _coefficient_bundles(problem)
    )
    warnings: tuple[str, ...] = ()
    if probe_radius is not None:
        warnings = _probe_growth(problem, probe_radius, seed)
    return ValidationReport(
        derivative_reports=reports, warnings=warnings, samples=samples, seed=seed
    )
