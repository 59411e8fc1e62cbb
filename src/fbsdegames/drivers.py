"""Time grid, Brownian scenario generation and conditional-expectation backends.

Two interchangeable backends drive every solver:

* ``LatticeBackend``: recombining binomial lattice (d = 1).  Level j holds
  j + 1 nodes; node (j, l) carries B = (2l - j) sqrt(dt) and the up/down
  transition has probability 1/2.  Conditional expectations are exact node
  averages, which makes the backend suitable for brute-force oracles.
  ``MemberLattice`` stacks independent copies of one lattice problem, so
  the grid oracle solves many control profiles, and the costate solve both
  players' systems, in one pass.
* ``MonteCarloBackend``: a seeded path ensemble with least-squares
  regression onto a polynomial basis for conditional expectations.  Each
  step's design matrix is factored once and reused while its regressors
  stay the same (Gobet, Lemor & Warin 2005).  ``MemberPaths`` stacks
  independent problems on one ensemble; the costate solve runs both
  players' systems through it.

Scenario-indexed processes are stored per step as arrays with a leading
scenario axis: lattice step j has j + 1 rows, Monte Carlo always P rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

GENERATOR_NAME = "philox4x64"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        knots = np.linspace(0.0, self.horizon, self.steps + 1)
        knots.setflags(write=False)
        object.__setattr__(self, "_knots", knots)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def knots(self) -> Array:
        """Read-only t_0..t_N, built once per grid."""
        return self._knots


def _path_generator(seed: int, path: int) -> np.random.Generator:
    # stream keyed by (seed, path) only, immune to path count and scheduling
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(path)))


@dataclass(frozen=True)
class PathEnsemble:
    """Brownian increments, one substream per path."""

    grid: TimeGrid
    increments: Array  # (N, P, d), read-only
    seed: int

    @property
    def paths(self) -> int:
        return self.increments.shape[1]

    @property
    def d(self) -> int:
        return self.increments.shape[2]

    def cumulative(self) -> Array:
        """B values on the knots, shape (N + 1, P, d), B_0 = 0."""
        out = np.zeros((self.grid.steps + 1,) + self.increments.shape[1:])
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out


def sample_ensemble(grid: TimeGrid, paths: int, d: int, seed: int) -> PathEnsemble:
    """Draw N(0, dt) increments; path p depends on (seed, p) only."""
    if paths < 1 or d < 1:
        raise ValueError("paths and d must be >= 1")
    scale = np.sqrt(grid.dt)
    inc = np.empty((grid.steps, paths, d))
    for p in range(paths):
        inc[:, p, :] = scale * _path_generator(seed, p).standard_normal((grid.steps, d))
    inc.setflags(write=False)
    return PathEnsemble(grid=grid, increments=inc, seed=int(seed))


@dataclass(frozen=True)
class RegressionConfig:
    """Least-squares conditional expectation settings for Monte Carlo."""

    degree: int = 2
    include_y: bool = False
    ridge: float = 1e-8

    def __post_init__(self) -> None:
        if not 1 <= self.degree <= 4:
            raise ValueError(f"degree must be in 1..4, got {self.degree}")
        if not self.ridge > 0.0:
            raise ValueError(f"ridge must be positive, got {self.ridge}")


def polynomial_design(regressors: Array, degree: int) -> Array:
    """All monomials of total degree <= degree, constant column first."""
    S, r = regressors.shape
    cols = [np.ones(S)]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(r), deg):
            col = np.ones(S)
            for idx in combo:
                col = col * regressors[:, idx]
            cols.append(col)
    return np.stack(cols, axis=1)


@dataclass(frozen=True, eq=False)
class _Projection:
    """One step's least-squares projection, factored once by SVD.

    Full rank by lstsq's rule (singular values above eps * max(P, K) times
    the largest): basis is U, the left singular vectors, and the fitted
    values are U U' v.  Rank deficient: basis is the design D itself and the
    fit solves the ridge normal equations (D'D + ridge I) c = D'v.
    """

    regressors: Array  # a private copy: the projection is reused only for equal regressors
    basis: Array
    gram: Array | None  # D'D + ridge I on the ridge fallback

    @classmethod
    def factor(cls, regressors: Array, degree: int, ridge: float) -> "_Projection":
        design = polynomial_design(regressors, degree)
        u, s, _ = np.linalg.svd(design, full_matrices=False)
        cutoff = np.finfo(design.dtype).eps * max(design.shape) * s[0]
        if np.count_nonzero(s > cutoff) == design.shape[1]:
            return cls(np.array(regressors), u, None)
        gram = design.T @ design + ridge * np.eye(design.shape[1])
        return cls(np.array(regressors), design, gram)

    @property
    def used_ridge(self) -> bool:
        return self.gram is not None

    def fit(self, targets: Array) -> Array:
        coef = self.basis.T @ targets
        if self.gram is not None:
            coef = np.linalg.solve(self.gram, coef)
        return self.basis @ coef


class LatticeBackend:
    """Exact recombining-lattice backend; requires d = 1."""

    kind = "lattice"

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.d = 1
        self._root_dt = np.sqrt(grid.dt)
        # Binomial(1/2) node probabilities, level by level
        self._weights = [np.array([1.0])]
        for _ in range(grid.steps):
            w = self._weights[-1]
            nxt = np.zeros(w.shape[0] + 1)
            nxt[1:] += 0.5 * w
            nxt[:-1] += 0.5 * w
            self._weights.append(nxt)
        # conditional arrival probabilities of the up and down edges into level j + 1
        self._arrival = []
        for j in range(grid.steps):
            w_up = np.arange(j + 2, dtype=float) / (j + 1)
            self._arrival.append((w_up, 1.0 - w_up))

    def scenario_count(self, j: int) -> int:
        return j + 1

    def brownian(self, j: int) -> Array:
        """Node B values at level j, shape (j + 1, 1)."""
        l = np.arange(j + 1, dtype=float)
        return ((2.0 * l - j) * self._root_dt)[:, None]

    def expect(self, j: int, values: Array) -> Array:
        """Expectation over level-j nodes; works on any trailing shape."""
        v = np.asarray(values)
        return (self._weights[j] @ v.reshape(v.shape[0], -1)).reshape(v.shape[1:])

    def cond_exp(self, j: int, values_next: Array, regressors: Array | None = None):
        v = np.asarray(values_next)
        return 0.5 * (v[1:] + v[:-1]), False

    def cond_exp_increment(self, j: int, values_next: Array, regressors: Array | None = None):
        """E[V dB' | node], shape (j + 1, ..., 1)."""
        v = np.asarray(values_next)
        return (0.5 * self._root_dt * (v[1:] - v[:-1]))[..., None], False

    def step_forward(self, j: int, state: Array, drift: Array, diffusion: Array) -> Array:
        """Push a level-j node process one step with arrival-weighted recombination.

        Candidates x + drift dt +/- diffusion sqrt(dt) land on level j + 1;
        a node there averages its incoming edge values with the conditional
        arrival probabilities l'/(j+1) (up edge) and (j+1-l')/(j+1) (down).
        """
        base = state + drift * self.grid.dt
        up = base + diffusion[..., 0] * self._root_dt  # from node l to node l+1
        down = base - diffusion[..., 0] * self._root_dt  # from node l to node l
        out = np.zeros((j + 2,) + state.shape[1:])
        shape = (j + 2,) + (1,) * (state.ndim - 1)
        w_up, w_down = (w.reshape(shape) for w in self._arrival[j])
        out[1:] += w_up[1:] * up
        out[: j + 1] += w_down[: j + 1] * down
        return out


class _MemberView:
    """`members` independent problems stacked on one backend.

    A member's rows get, bit for bit, the values the base backend gives
    them alone, as long as the problem's callbacks act row by row.  `stack`
    and `unstack` convert one step between per-member arrays and rows,
    `member_rows` selects the rows of chosen members, `scenario_of` names a
    row's scenario within its member, and `expect` returns one value per
    member, shape (B, ...) for B = members.
    """

    def __init__(self, base, members: int):
        if members < 1:
            raise ValueError("members must be >= 1")
        self.base = base
        self.grid = base.grid
        self.d = base.d
        self.members = members

    def scenario_count(self, j: int) -> int:
        return self.base.scenario_count(j) * self.members


class MemberLattice(_MemberView):
    """Member view of a `LatticeBackend`, stacked node-major.

    Row l * B + b of level j is node l of member b, so level j holds
    (j + 1) * B rows.  Every operation views its rows as (j + 1, B, ...) and
    runs the lattice's own arithmetic on that trailing shape.
    """

    kind = "lattice"

    # explicit lengths, not -1: a control of an inert player has no columns
    def _nodes(self, rows: Array) -> Array:
        v = np.asarray(rows)
        return v.reshape((v.shape[0] // self.members, self.members) + v.shape[1:])

    @staticmethod
    def _rows(nodes: Array) -> Array:
        return nodes.reshape((nodes.shape[0] * nodes.shape[1],) + nodes.shape[2:])

    def stack(self, arrays) -> Array:
        """Rows of one level from each member's (j + 1, ...) array, in member order."""
        return self._rows(np.stack(arrays, axis=1))

    def unstack(self, rows: Array) -> tuple[Array, ...]:
        """Each member's own contiguous (j + 1, ...) array; inverse of `stack`."""
        nodes = self._nodes(rows)
        return tuple(np.ascontiguousarray(nodes[:, b]) for b in range(self.members))

    def member_rows(self, j: int, mask: Array) -> Array:
        """Level-j row mask selecting the members where mask (shape (B,)) holds."""
        return np.tile(mask, j + 1)

    def scenario_of(self, row: int) -> int:
        return row // self.members

    def brownian(self, j: int) -> Array:
        return np.repeat(self.base.brownian(j), self.members, axis=0)

    def expect(self, j: int, values: Array) -> Array:
        # member-major and contiguous, so each member's average is the same
        # matrix-vector product that LatticeBackend.expect makes on its rows
        v = np.ascontiguousarray(np.swapaxes(self._nodes(values), 0, 1))
        flat = v.reshape(self.members, j + 1, -1)
        return (self.base._weights[j] @ flat).reshape((self.members,) + v.shape[2:])

    def cond_exp(self, j: int, values_next: Array, regressors: Array | None = None):
        out, ridge = self.base.cond_exp(j, self._nodes(values_next))
        return self._rows(out), ridge

    def cond_exp_increment(self, j: int, values_next: Array, regressors: Array | None = None):
        out, ridge = self.base.cond_exp_increment(j, self._nodes(values_next))
        return self._rows(out), ridge

    def step_forward(self, j: int, state: Array, drift: Array, diffusion: Array) -> Array:
        nxt = self.base.step_forward(
            j, self._nodes(state), self._nodes(drift), self._nodes(diffusion)
        )
        return self._rows(nxt)


class MemberPaths(_MemberView):
    """Member view of a `MonteCarloBackend`, stacked member-major.

    Rows b * P to (b + 1) * P - 1 of a step are the P paths of member b, so
    each member's rows are one contiguous block, and every operation runs
    the backend's own on each block, a view, not a copy.  All members
    regress on the same regressors, each through the backend's `_fit`, so
    they share the step's cached projection; one multi-column fit would
    round differently.  A fit returns its ridge fallbacks as one count per
    member, shape (B,).
    """

    def stack(self, arrays) -> Array:
        """Rows of one step from each member's (P, ...) array, in member order."""
        return np.concatenate(arrays)

    def unstack(self, rows: Array) -> tuple[Array, ...]:
        """Each member's own (P, ...) block, a contiguous view; inverse of `stack`."""
        v = np.asarray(rows)
        return tuple(v.reshape((self.members, v.shape[0] // self.members) + v.shape[1:]))

    def member_rows(self, j: int, mask: Array) -> Array:
        """Row mask selecting the members where mask (shape (B,)) holds."""
        return np.repeat(mask, self.base.ensemble.paths)

    def scenario_of(self, row: int) -> int:
        return row % self.base.ensemble.paths

    def brownian(self, j: int) -> Array:
        return np.tile(self.base.brownian(j), (self.members, 1))

    def expect(self, j: int, values: Array) -> Array:
        return np.array([self.base.expect(j, v) for v in self.unstack(values)])

    def _each(self, op, j: int, values: Array, regressors: Array | None):
        fits = [op(j, v, regressors) for v in self.unstack(values)]
        return self.stack([fit for fit, _ in fits]), np.array([r for _, r in fits], dtype=int)

    def cond_exp(self, j: int, values_next: Array, regressors: Array | None = None):
        return self._each(self.base.cond_exp, j, values_next, regressors)

    def cond_exp_increment(self, j: int, values_next: Array, regressors: Array | None = None):
        return self._each(self.base.cond_exp_increment, j, values_next, regressors)

    def step_forward(self, j: int, state: Array, drift: Array, diffusion: Array) -> Array:
        blocks = zip(self.unstack(state), self.unstack(drift), self.unstack(diffusion))
        return self.stack([self.base.step_forward(j, *args) for args in blocks])


class MonteCarloBackend:
    """Path-ensemble backend with regression conditional expectations."""

    kind = "montecarlo"

    def __init__(self, ensemble: PathEnsemble, regression: RegressionConfig | None = None):
        self.grid = ensemble.grid
        self.ensemble = ensemble
        self.d = ensemble.d
        self.regression = regression or RegressionConfig()
        self._brownian = ensemble.cumulative()
        self._projections: dict[int, _Projection] = {}

    def scenario_count(self, j: int) -> int:
        return self.ensemble.paths

    def brownian(self, j: int) -> Array:
        return self._brownian[j]

    def expect(self, j: int, values: Array) -> Array:
        return np.asarray(values).mean(axis=0)

    def _fit(self, j: int, values: Array, regressors: Array) -> tuple[Array, bool]:
        """Project values onto step j's regression basis.

        The factored design is cached per step with a copy of its regressors
        and reused while equal regressors come back, so both fits of a
        backward step and every pass over a fixed trajectory share one SVD.
        Comparing contents costs one pass over the regressors, far less than
        a factorisation, and stays correct when a caller refills an array.
        """
        proj = self._projections.get(j)
        if proj is None or not np.array_equal(proj.regressors, regressors):
            proj = _Projection.factor(regressors, self.regression.degree, self.regression.ridge)
            self._projections[j] = proj
        v = np.asarray(values)
        fitted = proj.fit(v.reshape(v.shape[0], -1))
        return fitted.reshape(v.shape), proj.used_ridge

    def cond_exp(self, j: int, values_next: Array, regressors: Array | None = None):
        if regressors is None:
            raise ValueError("Monte Carlo conditional expectation needs regressors")
        return self._fit(j, values_next, regressors)

    def cond_exp_increment(self, j: int, values_next: Array, regressors: Array | None = None):
        if regressors is None:
            raise ValueError("Monte Carlo conditional expectation needs regressors")
        v = np.asarray(values_next)
        db = self.ensemble.increments[j]  # (P, d)
        prod = v[..., None] * db.reshape((v.shape[0],) + (1,) * (v.ndim - 1) + (self.d,))
        return self._fit(j, prod, regressors)

    def step_forward(self, j: int, state: Array, drift: Array, diffusion: Array) -> Array:
        db = self.ensemble.increments[j]
        return state + drift * self.grid.dt + np.einsum("s...d,sd->s...", diffusion, db)


def member_view(backend: "LatticeBackend | MonteCarloBackend", members: int) -> _MemberView:
    """The member view that stacks `members` independent problems on backend."""
    view = MemberLattice if backend.kind == "lattice" else MemberPaths
    return view(backend, members)


Backend = LatticeBackend | MonteCarloBackend | MemberLattice | MemberPaths
