"""Linear-quadratic game family with machine-checkable exact derivatives.

Drift, diffusion columns and driver are affine in (x, y, z_vec, u1, u2);
running costs are pure quadratic forms.  z_vec is z flattened C-order.

The value and gradient callbacks act row by row bit for bit (see
``problem``): every matrix product goes through `_sum_products`, whose sums
do not depend on how many rows are passed together.  The values of b,
sigma, f and l_i are C-contiguous whatever their inputs' strides, since
`einsum` rounds by stride; each also has a `split` for the certificate's
pointwise search (`AffineMap.split`, `hamiltonian.check_pointwise_min`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .problem import _ARGS, CoefficientSet, Coeff, ControlBox, CostSet, Dims, GameProblem

Array = np.ndarray


def _mat(value, shape: tuple[int, ...], name: str) -> Array:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _validated(value, zero, name: str):
    """`value` with every array field a read-only copy checked at its shape
    in the zero instance `zero`, and every float field a float."""
    return {f.name: float(getattr(value, f.name)) if isinstance(getattr(zero, f.name), float)
            else _mat(getattr(value, f.name), getattr(zero, f.name).shape, f"{name}.{f.name}")
            for f in fields(zero)}


def _sum_products(terms: Sequence[tuple[Array, Array]], const: Array | None = None) -> Array:
    """sum of v @ M.T over the (v, M) pairs, plus const: shape (rows, len(M)).

    Each product v[:, j] M[i, j] is added on its own, pair by pair and
    column by column in order.  BLAS kernels round a row's sum differently
    depending on how many rows come with it; elementwise products and sums
    do not.  The sum is built transposed, so every operation runs along
    the rows.
    """
    out = None
    for v, M in terms:
        for j in range(M.shape[1]):
            product = M[:, j:j + 1] * v[:, j]
            if out is None:
                out = product
            else:
                out += product
    if out is None:
        v, M = terms[0]
        out = np.zeros((M.shape[0], v.shape[0]))
    if const is not None:
        out += const[:, None]
    return np.ascontiguousarray(out.T)


@dataclass(frozen=True)
class AffineMap:
    """value = A x + B y + C z_vec + D1 u1 + D2 u2 + const, all shapes (rows, .)."""

    A: Array
    B: Array
    C: Array
    D1: Array
    D2: Array
    const: Array

    @classmethod
    def zeros(cls, rows: int, dims: Dims) -> "AffineMap":
        return cls(
            A=np.zeros((rows, dims.n)),
            B=np.zeros((rows, dims.m)),
            C=np.zeros((rows, dims.dz)),
            D1=np.zeros((rows, dims.k1)),
            D2=np.zeros((rows, dims.k2)),
            const=np.zeros(rows),
        )

    def validated(self, rows: int, dims: Dims, name: str) -> "AffineMap":
        return AffineMap(**_validated(self, AffineMap.zeros(rows, dims), name))

    @property
    def blocks(self) -> tuple[Array, ...]:
        """The map's partials, one block per argument in `problem._ARGS` order."""
        return (self.A, self.B, self.C, self.D1, self.D2)

    def __call__(self, x: Array, y: Array, zv: Array, u1: Array, u2: Array) -> Array:
        return _sum_products(
            [(x, self.A), (y, self.B), (zv, self.C), (u1, self.D1), (u2, self.D2)],
            self.const,
        )

    def split(self, player: int, x: Array, y: Array, zv: Array, other: Array):
        """The map on S rows with player `player`'s control free: a function
        of n candidates (n, k_i) giving the value on the rows tiled once per
        candidate, (n S, len(const)), as `__call__` sums it there.  The terms
        before the free one are summed here; those after it (u2's, when u1 is
        free) are multiplied out on each call, so that a block holds no more
        than its partial sums."""
        free = self.D1 if player == 1 else self.D2
        before = _sum_products([(x, self.A), (y, self.B), (zv, self.C)]
                               + ([(other, self.D1)] if player == 2 else [])).T
        after = [(self.D2[:, j:j + 1], other[:, j]) for j in range(self.D2.shape[1] if player == 1 else 0)]

        def value(chunk: Array) -> Array:
            # a candidate's products are the same on every row
            own = [(free[:, j:j + 1] * chunk[:, j])[:, :, None] for j in range(free.shape[1])]
            out = (before[:, None, :] + own[0] if own
                   else np.repeat(before[:, None, :], chunk.shape[0], axis=1))
            for product in own[1:]:
                out += product
            for M, v in after:
                out += (M * v)[:, None, :]
            out += self.const[:, None, None]
            return np.ascontiguousarray(out.reshape(self.const.shape[0], -1).T)

        return value


def _quad(v: Array, M: Array) -> Array:
    # the two-operand row contraction is row by row; the three-operand one is
    # not.  Its sum over a row's columns rounds by their stride, so v goes in
    # C-contiguous, a copy only when it is strided or broadcast
    v = np.ascontiguousarray(v)
    return 0.5 * np.einsum("sj,sj->s", _sum_products([(v, M)]), v)


def _form(M: Array) -> tuple[Coeff, Coeff]:
    """v'Mv / 2 per row and its gradient M v, for a symmetric M."""
    return (lambda v: _quad(v, M)), (lambda v: _sum_products([(v, M)]))


def _constant(block: Array) -> Coeff:
    """A partial equal to `block` on every row, as a read-only stride-0 view."""
    return lambda t, x, y, z, u1, u2: np.broadcast_to(block, (x.shape[0],) + block.shape)


def _linear(k: int, block: Array | None, width: int) -> Coeff:
    """The gradient block v of a quadratic form in argument k after t, z
    flattened; zeros of `width` columns when the block is None."""
    if block is None:
        return lambda t, *args: np.zeros((args[0].shape[0], width))
    if k == _ARGS.index("z"):
        return lambda t, *args: _sum_products([(args[k].reshape(args[k].shape[0], width), block)])
    return lambda t, *args: _sum_products([(args[k], block)])


@dataclass(frozen=True)
class QuadraticCost:
    """l = (x'Qx + y'Ry + S|z|^2 + u_own'N u_own + u_other'M u_other) / 2,
    phi = x'Gx / 2 at the terminal time, h = y'Hy / 2 at time zero.

    Matrices are symmetrized on use.  N positive definite gives a convex
    player problem.
    """

    Q: Array
    R: Array
    S: float
    N: Array
    M: Array
    G: Array
    H: Array

    @classmethod
    def zeros(cls, dims: Dims, own: int, other: int) -> "QuadraticCost":
        return cls(
            Q=np.zeros((dims.n, dims.n)),
            R=np.zeros((dims.m, dims.m)),
            S=0.0,
            N=np.zeros((own, own)),
            M=np.zeros((other, other)),
            G=np.zeros((dims.n, dims.n)),
            H=np.zeros((dims.m, dims.m)),
        )

    def validated(self, dims: Dims, own: int, other: int, name: str) -> "QuadraticCost":
        values = _validated(self, QuadraticCost.zeros(dims, own, other), name)
        # halve first: a + a.T can overflow
        return QuadraticCost(**{key: a if isinstance(a, float) else 0.5 * a + 0.5 * a.T
                                for key, a in values.items()})

    def callbacks(self, player: int, dz: int) -> dict[str, Coeff]:
        """Player `player`'s l, its partials in `problem._ARGS` order, phi,
        h and their gradients, named as `CostSet` fields."""
        S_block = self.S * np.eye(dz) if self.S != 0.0 else None
        blocks = (self.Q, self.R, S_block) + ((self.N, self.M) if player == 1 else (self.M, self.N))
        out = {f"l{player}": _RunningCost(self, player, dz)}
        out.update((f"l{player}_{v}", _linear(k, block, dz))
                   for k, (v, block) in enumerate(zip(_ARGS, blocks)))
        out[f"phi{player}"], out[f"phi{player}_x"] = _form(self.G)
        out[f"h{player}"], out[f"h{player}_y"] = _form(self.H)
        return out


class _RunningCost:
    """l_i of a `QuadraticCost`, summed in the order x, y, z, own control,
    other control; `split` leaves the own control free (`AffineMap.split`)."""

    def __init__(self, cost: QuadraticCost, player: int, dz: int) -> None:
        self.cost, self.player, self.dz = cost, player, dz

    def _fixed(self, x: Array, y: Array, z: Array) -> Array:
        zv = np.ascontiguousarray(z.reshape(z.shape[0], self.dz))  # as in `_quad`
        c = self.cost
        return _quad(x, c.Q) + _quad(y, c.R) + 0.5 * c.S * np.einsum("sk,sk->s", zv, zv)

    def __call__(self, t, x, y, z, u1, u2) -> Array:
        own, other = (u1, u2) if self.player == 1 else (u2, u1)
        return self._fixed(x, y, z) + _quad(own, self.cost.N) + _quad(other, self.cost.M)

    def split(self, player: int, t, x, y, z, other):
        # player is this cost's own: H_i pairs l_i with player i's search
        fixed, after = self._fixed(x, y, z), _quad(other, self.cost.M)
        # a candidate's own term is one value, the same on every row
        return lambda chunk: ((fixed + _quad(chunk, self.cost.N)[:, None]) + after).reshape(-1)


class _MapValue:
    """b or f from its map, or sigma from its columns' maps stacked last;
    `split` splits each map (`AffineMap.split`)."""

    def __init__(self, maps: Sequence[AffineMap], dz: int, stacked: bool) -> None:
        self.maps, self.dz, self.stacked = tuple(maps), dz, stacked

    def _join(self, values: list[Array]) -> Array:
        return np.stack(values, axis=-1) if self.stacked else values[0]

    def __call__(self, t, x, y, z, u1, u2) -> Array:
        zv = z.reshape(z.shape[0], self.dz)
        return self._join([m(x, y, zv, u1, u2) for m in self.maps])

    def split(self, player: int, t, x, y, z, other):
        zv = z.reshape(z.shape[0], self.dz)
        parts = [m.split(player, x, y, zv, other) for m in self.maps]
        return lambda chunk: self._join([part(chunk) for part in parts])


@dataclass(frozen=True)
class LQGameSpec:
    """Affine coefficients and quadratic costs.

    Terminal data is y(T) = xi + xi_linear B(T); leave xi_linear None for a
    constant target.
    """

    dims: Dims
    horizon: float
    initial: Array
    xi: Array
    drift: AffineMap
    diffusion: tuple[AffineMap, ...]
    driver: AffineMap
    cost1: QuadraticCost
    cost2: QuadraticCost
    u1_box: ControlBox
    u2_box: ControlBox
    xi_linear: Array | None = None

    def __post_init__(self) -> None:
        d = self.dims
        object.__setattr__(self, "initial", _mat(self.initial, (d.n,), "initial"))
        object.__setattr__(self, "xi", _mat(self.xi, (d.m,), "xi"))
        if self.xi_linear is not None:
            object.__setattr__(
                self, "xi_linear", _mat(self.xi_linear, (d.m, d.d), "xi_linear")
            )
        object.__setattr__(self, "drift", self.drift.validated(d.n, d, "drift"))
        if len(self.diffusion) != d.d:
            raise ValueError(f"diffusion: expected {d.d} columns, got {len(self.diffusion)}")
        object.__setattr__(
            self,
            "diffusion",
            tuple(c.validated(d.n, d, f"diffusion[{i}]") for i, c in enumerate(self.diffusion)),
        )
        object.__setattr__(self, "driver", self.driver.validated(d.m, d, "driver"))
        object.__setattr__(self, "cost1", self.cost1.validated(d, d.k1, d.k2, "cost1"))
        object.__setattr__(self, "cost2", self.cost2.validated(d, d.k2, d.k1, "cost2"))


def lq_to_problem(spec: LQGameSpec) -> GameProblem:
    """Assemble batched callbacks with exact constant derivatives: each
    partial of b, sigma and f is its map's block for that argument (sigma's
    the columns' blocks stacked first, (d, n, dim_v)), and each player's
    costs come from its `QuadraticCost`."""
    dz = spec.dims.dz
    drift, cols, driver = spec.drift, spec.diffusion, spec.driver
    sigma_blocks = [np.stack(blocks, axis=0) for blocks in zip(*(c.blocks for c in cols))]
    coefficients = {}
    for name, maps, blocks in (("b", [drift], drift.blocks), ("sigma", cols, sigma_blocks),
                               ("f", [driver], driver.blocks)):
        coefficients[name] = _MapValue(maps, dz, stacked=name == "sigma")
        coefficients.update((f"{name}_{v}", _constant(block)) for v, block in zip(_ARGS, blocks))

    c, L = spec.xi, spec.xi_linear
    if L is None:
        def xi(bt: Array) -> Array:
            return np.broadcast_to(c, (bt.shape[0], c.shape[0]))
    else:
        def xi(bt: Array) -> Array:
            return _sum_products([(bt, L)], c)

    return GameProblem(
        dims=spec.dims,
        horizon=spec.horizon,
        initial=spec.initial,
        xi=xi,
        coefficients=CoefficientSet(**coefficients),
        costs=CostSet(**spec.cost1.callbacks(1, dz), **spec.cost2.callbacks(2, dz)),
        u1_box=spec.u1_box,
        u2_box=spec.u2_box,
    )


def random_lq_spec(
    seed: int,
    dims: Dims,
    horizon: float = 1.0,
    scale: float = 0.3,
    box_radius: float = 2.0,
) -> LQGameSpec:
    """A reproducible bounded random instance with convex (PSD + ridge) costs."""
    rng = np.random.default_rng(seed)

    def mat(r, c):
        return scale * rng.uniform(-1.0, 1.0, (r, c))

    def psd(k, ridge=0.0):
        a = rng.uniform(-1.0, 1.0, (k, k))
        return a @ a.T / max(k, 1) + ridge * np.eye(k)

    def affine(rows):
        return AffineMap(
            A=mat(rows, dims.n),
            B=mat(rows, dims.m),
            C=mat(rows, dims.dz),
            D1=mat(rows, dims.k1),
            D2=mat(rows, dims.k2),
            const=scale * rng.uniform(-1.0, 1.0, rows),
        )

    def cost(own, other):
        return QuadraticCost(
            Q=psd(dims.n),
            R=psd(dims.m),
            S=float(rng.uniform(0.0, 0.5)),
            N=psd(own, ridge=1.0),
            M=psd(other),
            G=psd(dims.n),
            H=psd(dims.m),
        )

    return LQGameSpec(
        dims=dims,
        horizon=horizon,
        initial=rng.uniform(-1.0, 1.0, dims.n),
        xi=rng.uniform(-1.0, 1.0, dims.m),
        drift=affine(dims.n),
        diffusion=tuple(affine(dims.n) for _ in range(dims.d)),
        driver=affine(dims.m),
        cost1=cost(dims.k1, dims.k2),
        cost2=cost(dims.k2, dims.k1),
        u1_box=ControlBox.symmetric(dims.k1, box_radius),
        u2_box=ControlBox.symmetric(dims.k2, box_radius),
    )
