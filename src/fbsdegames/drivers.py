"""Time grid, Brownian scenario generation and conditional-expectation backends.

Two interchangeable backends drive every solver:

* ``LatticeBackend``: recombining binomial lattice (d = 1).  Level j holds
  j + 1 nodes; node (j, l) carries B = (2l - j) sqrt(dt) and the up/down
  transition has probability 1/2.  Conditional expectations are exact node
  averages, which makes the backend suitable for brute-force oracles.
  `LatticeBackend.with_members` stacks independent copies of one lattice
  problem node-major, so the grid oracle solves many control profiles, and
  the costate solve both players' systems, in one pass.
* ``MonteCarloBackend``: a seeded path ensemble with least-squares
  regression onto a polynomial basis for conditional expectations.  Each
  step's design matrix is factored once and reused while its regressors
  stay the same (Gobet, Lemor & Warin 2005).  Like a plain lattice, it is
  the one-member case of the member interface.

A scenario-indexed process is one `StepArray`: a single (rows, ...) array
over all (step, scenario) rows, step j at rows offsets[j]:offsets[j + 1]
of the backend's `offsets` (lattice step j has j + 1 rows per member,
Monte Carlo always P).  Work that does not depend on earlier steps runs
as one call over all rows, with `row_times` giving each row's t; only the
sweeps in time and the per-step expectations go step by step, the latter
through `expectations` and `integrate`.
"""

from __future__ import annotations

import copy
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


def _reseed(bits: np.random.Philox, seed: int, path: int) -> None:
    """Put `bits` at the start of the (seed, path) stream: the state of a
    fresh `Philox(key=(seed << 64) | path)`, whose two little-endian key
    words are (path, seed), at counter 0 with an empty buffer."""
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([path, seed], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


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
    """Draw N(0, dt) increments; path p depends on (seed, p) only.

    Path p is sqrt(dt) times the first (N, d) standard normals of
    `Generator(Philox(key=(seed << 64) | p))`, whatever the path count.
    Philox is counter-based, so one bit generator reset to each path's key
    draws the same numbers as a fresh generator per path.
    """
    if paths < 1 or d < 1:
        raise ValueError("paths and d must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    scale = np.sqrt(grid.dt)
    bits = np.random.Philox()
    draw = np.random.Generator(bits).standard_normal
    inc = np.empty((grid.steps, paths, d))
    for p in range(paths):
        _reseed(bits, seed, p)
        inc[:, p, :] = scale * draw((grid.steps, d))
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
        # contiguous: a broadcast (stride-0) target then rounds as its copy does
        coef = self.basis.T @ np.ascontiguousarray(targets)
        if self.gram is not None:
            coef = np.linalg.solve(self.gram, coef)
        return self.basis @ coef


class _Rows:
    """The row layout a backend shares with its processes: step j is rows
    offsets[j]:offsets[j + 1], for steps 0..N.

    The rows hold B = `members` independent problems node-major: row
    l * B + b of a step is scenario l of member b.  Monte Carlo and a plain
    lattice are the one-member case.  `stack` and `unstack` convert the
    rows of one or more consecutive steps between per-member arrays and
    the backend's rows (one member's array passes through), `member_rows`
    selects the rows of chosen members, and `scenario_of` names a row's
    scenario within its member.  `expectations` and `integrate` cut a
    process's rows by step for `expect`.
    """

    offsets: tuple[int, ...]
    grid: TimeGrid
    members = 1

    def scenario_count(self, j: int) -> int:
        """Rows of step j, all members'."""
        return self.offsets[j + 1] - self.offsets[j]

    def stack(self, arrays) -> Array:
        """Rows from each member's array of the same scenarios, in member order."""
        if self.members == 1:
            (rows,) = arrays
            return np.asarray(rows)
        nodes = np.stack(arrays, axis=1)
        # explicit lengths, not -1: a control of an inert player has no columns
        return nodes.reshape((nodes.shape[0] * nodes.shape[1],) + nodes.shape[2:])

    def unstack(self, rows: Array) -> tuple[Array, ...]:
        """Each member's own contiguous array of its scenarios; inverse of `stack`."""
        v = np.asarray(rows)
        if self.members == 1:
            return (v,)
        return tuple(np.ascontiguousarray(v[b::self.members]) for b in range(self.members))

    def member_rows(self, j: int, mask: Array) -> Array:
        """Step-j row mask selecting the members where mask (shape (B,)) holds."""
        return np.tile(mask, self.scenario_count(j) // self.members)

    def scenario_of(self, row: int) -> int:
        return row // self.members

    def expectations(self, rows: Array) -> list:
        """Each step's `expect` over `rows`, the rows of steps 0..K-1."""
        offsets = self.offsets[: self.offsets.index(rows.shape[0]) + 1]
        return [self.expect(j, rows[a:b]) for j, (a, b) in enumerate(zip(offsets, offsets[1:]))]

    def integrate(self, rows: Array):
        """dt * E_j over the rows of steps 0..K-1, summed step by step from step 0."""
        total = 0.0
        for mean in self.expectations(rows):
            total = total + self.grid.dt * mean
        return total

    @functools.cached_property
    def row_times(self) -> Array:
        """Read-only t_j on every row of step j, for steps 0..N-1 (the rows
        of the controls), built once per backend."""
        N = self.grid.steps
        times = np.repeat(self.grid.knots[:N], np.diff(self.offsets[: N + 1]))
        times.setflags(write=False)
        return times


class LatticeBackend(_Rows):
    """Exact recombining-lattice backend; requires d = 1.

    `with_members` gives the same lattice holding B problems: level j then
    has (j + 1) * B rows, and a node's next-level neighbours are B rows
    away, so every operation acts on all members' rows at once and gives
    each member, bit for bit, the values the lattice gives it alone, as
    long as the problem's callbacks act row by row.
    """

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
        self._lay_out(1)

    def _lay_out(self, members: int) -> None:
        """Rows for `members` members, with the arrival probabilities of
        the up and down edges into each row of level j, node l: l / j and
        1 - l / j (level 0 has no incoming edge)."""
        N = self.grid.steps
        self.members = members
        self.offsets = tuple(members * o for o in itertools.accumulate(range(1, N + 2), initial=0))
        counts = np.diff(self.offsets)
        level = np.repeat(np.arange(N + 1), counts)
        node = (np.arange(self.offsets[-1]) - np.repeat(self.offsets[:-1], counts)) // members
        up = node / np.maximum(level, 1)
        self._arrival = (StepArray(up, self.offsets), StepArray(1.0 - up, self.offsets))

    def with_members(self, members: int) -> "LatticeBackend":
        """This lattice holding `members` problems; it shares the binomial tables."""
        if members < 1:
            raise ValueError("members must be >= 1")
        other = copy.copy(self)
        other.__dict__.pop("row_times", None)
        other._lay_out(members)
        return other

    def brownian(self, j: int) -> Array:
        """Node B values at level j, shape ((j + 1) * B, 1)."""
        l = np.arange(self.scenario_count(j)) // self.members
        return ((2.0 * l - j) * self._root_dt)[:, None]

    def expect(self, j: int, values: Array) -> Array:
        """Expectation over level-j nodes, on any trailing shape: one value
        per member, shape (B, ...), when B > 1; no member axis for one."""
        v, B = np.asarray(values), self.members
        if B == 1:
            return (self._weights[j] @ v.reshape(v.shape[0], -1)).reshape(v.shape[1:])
        # member-major and contiguous, so each member's average is the same
        # matrix-vector product that one member's rows get
        nodes = np.ascontiguousarray(np.swapaxes(v.reshape((j + 1, B) + v.shape[1:]), 0, 1))
        flat = nodes.reshape(B, j + 1, -1)
        return (self._weights[j] @ flat).reshape((B,) + v.shape[1:])

    def cond_exp(self, j: int, values_next: Array, regressors: Array | None = None):
        v, B = np.asarray(values_next), self.members
        return 0.5 * (v[B:] + v[:-B]), False

    def cond_exp_increment(self, j: int, values_next: Array, regressors: Array | None = None):
        """E[V dB' | node], shape ((j + 1) * B, ..., 1)."""
        v, B = np.asarray(values_next), self.members
        return (0.5 * self._root_dt * (v[B:] - v[:-B]))[..., None], False

    def step_forward(self, j: int, state: Array, drift: Array, diffusion: Array, out: Array) -> Array:
        """Push a level-j node process one step with arrival-weighted recombination,
        into `out` (level j + 1's rows).

        Candidates x + drift dt +/- diffusion sqrt(dt) land on level j + 1;
        a node there averages its incoming edge values with the conditional
        arrival probabilities l'/(j+1) (up edge) and (j+1-l')/(j+1) (down).
        """
        B, rows = self.members, state.shape[0]
        base = state + drift * self.grid.dt
        shift = diffusion[..., 0] * self._root_dt
        up = base + shift  # from node l to node l+1
        down = base - shift  # from node l to node l
        out[...] = 0.0
        shape = (rows + B,) + (1,) * (state.ndim - 1)
        w_up, w_down = (w[j + 1].reshape(shape) for w in self._arrival)
        out[B:] += w_up[B:] * up
        out[:rows] += w_down[:rows] * down
        return out


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

    def step_forward(self, j: int, state: Array, drift: Array, diffusion: Array, out: Array) -> Array:
        """The Euler step x + drift dt + diffusion dB_j, into `out`."""
        db = self.ensemble.increments[j]
        np.add(state, drift * self.grid.dt, out=out)
        out += np.einsum("s...d,sd->s...", diffusion, db)
        return out


Backend = LatticeBackend | MonteCarloBackend
