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
  stay the same (Gobet, Lemor & Warin 2005).  Like the lattice, it is a
  one-member case of ``MemberLattice``'s member interface.

A scenario-indexed process is one `StepArray`: a single (rows, ...) array
over all (step, scenario) rows, step j at rows offsets[j]:offsets[j + 1]
of the backend's `offsets` (lattice step j has j + 1 rows, Monte Carlo
always P, a member lattice B times as many).  Work that does not depend on
earlier steps runs as one call over all rows, with `row_times` giving each
row's t; only the sweeps in time and the per-step expectations go step by
step.
"""

from __future__ import annotations

import functools
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


class StepArray(tuple):
    """One (rows, ...) array over the rows of steps 0..K-1, step j at rows
    offsets[j]:offsets[j + 1].

    It is the tuple of those per-step views, so `process[j]` reads and
    writes step j of `rows` in place and the process reads like a tuple of
    per-step arrays; `rows` serves the work that is the same for every row.
    """

    def __new__(cls, rows: Array, offsets: tuple[int, ...]):
        self = super().__new__(cls, [rows[a:b] for a, b in zip(offsets, offsets[1:])])
        self.rows = rows
        self.offsets = offsets
        return self

    @classmethod
    def of(cls, steps) -> "StepArray":
        """`steps` itself if it is a StepArray, else its per-step arrays
        copied into one."""
        if isinstance(steps, StepArray):
            return steps
        arrays = [np.asarray(a, dtype=float) for a in steps]
        offsets = tuple(itertools.accumulate((a.shape[0] for a in arrays), initial=0))
        return cls(np.concatenate(arrays), offsets)

    def leading(self, steps: int) -> Array:
        """The rows of steps 0..steps-1, a view."""
        return self.rows[: self.offsets[steps]]


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
        # an overflowing monomial is left to the SVD, which raises LinAlgError
        with np.errstate(over="ignore", invalid="ignore"):
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


class _Rows:
    """The row layout a backend shares with its processes: step j is rows
    offsets[j]:offsets[j + 1], for steps 0..N.

    A plain backend is the one-member case of `MemberLattice`'s member
    interface: `stack` and `unstack` pass the one member's rows through,
    `member_rows` selects all of a step's rows or none, and a row is its own
    scenario.
    """

    offsets: tuple[int, ...]
    grid: TimeGrid
    members = 1

    def stack(self, arrays) -> Array:
        (rows,) = arrays
        return np.asarray(rows)

    def unstack(self, rows: Array) -> tuple[Array, ...]:
        return (np.asarray(rows),)

    def member_rows(self, j: int, mask: Array) -> Array:
        return np.repeat(mask, self.scenario_count(j))

    def scenario_of(self, row: int) -> int:
        return row

    @functools.cached_property
    def row_times(self) -> Array:
        """Read-only t_j on every row of step j, for steps 0..N-1 (the rows
        of the controls), built once per backend."""
        N = self.grid.steps
        times = np.repeat(self.grid.knots[:N], np.diff(self.offsets[: N + 1]))
        times.setflags(write=False)
        return times


class LatticeBackend(_Rows):
    """Exact recombining-lattice backend; requires d = 1."""

    kind = "lattice"

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.d = 1
        self.offsets = tuple(itertools.accumulate(range(1, grid.steps + 2), initial=0))
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


class MemberLattice(_Rows):
    """`members` independent problems stacked node-major on one
    `LatticeBackend`.

    Row l * B + b of level j is node l of member b, so level j holds
    (j + 1) * B rows, B = members.  Every operation views its rows as
    (j + 1, B, ...) and runs the lattice's own arithmetic on that trailing
    shape, so a member's rows get, bit for bit, the values the lattice
    gives them alone, as long as the problem's callbacks act row by row.
    `stack` and `unstack` convert the rows of one or more consecutive
    levels between per-member arrays and the view's rows, `member_rows`
    selects the rows of chosen members, `scenario_of` names a row's node
    within its member, and `expect` returns one value per member, shape
    (B, ...).
    """

    kind = "lattice"

    def __init__(self, base: LatticeBackend, members: int):
        if members < 1:
            raise ValueError("members must be >= 1")
        self.base = base
        self.grid = base.grid
        self.d = base.d
        self.members = members
        self.offsets = tuple(offset * members for offset in base.offsets)

    def scenario_count(self, j: int) -> int:
        return self.base.scenario_count(j) * self.members

    # explicit lengths, not -1: a control of an inert player has no columns
    def _nodes(self, rows: Array) -> Array:
        v = np.asarray(rows)
        return v.reshape((v.shape[0] // self.members, self.members) + v.shape[1:])

    @staticmethod
    def _rows(nodes: Array) -> Array:
        return nodes.reshape((nodes.shape[0] * nodes.shape[1],) + nodes.shape[2:])

    def stack(self, arrays) -> Array:
        """Rows from each member's array of the same nodes, in member order."""
        return self._rows(np.stack(arrays, axis=1))

    def unstack(self, rows: Array) -> tuple[Array, ...]:
        """Each member's own contiguous array of its nodes; inverse of `stack`."""
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


class MonteCarloBackend(_Rows):
    """Path-ensemble backend with regression conditional expectations."""

    kind = "montecarlo"

    def __init__(self, ensemble: PathEnsemble, regression: RegressionConfig | None = None):
        self.grid = ensemble.grid
        self.ensemble = ensemble
        self.d = ensemble.d
        self.regression = regression or RegressionConfig()
        self.offsets = tuple(range(0, ensemble.paths * (ensemble.grid.steps + 2), ensemble.paths))
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


Backend = LatticeBackend | MonteCarloBackend | MemberLattice
