"""Linear-quadratic game family with machine-checkable exact derivatives.

Drift, diffusion columns and driver are affine in (x, y, z_vec, u1, u2);
running costs are pure quadratic forms.  z_vec is z flattened C-order.

The value and gradient callbacks act row by row bit for bit (see
``problem``): every matrix product goes through `_sum_products`, whose sums
do not depend on how many rows are passed together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problem import (
    CoefficientSet,
    ControlBox,
    CostSet,
    Dims,
    GameProblem,
    TerminalData,
)

Array = np.ndarray


def _mat(value, shape: tuple[int, ...], name: str) -> Array:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


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
        return AffineMap(
            A=_mat(self.A, (rows, dims.n), f"{name}.A"),
            B=_mat(self.B, (rows, dims.m), f"{name}.B"),
            C=_mat(self.C, (rows, dims.dz), f"{name}.C"),
            D1=_mat(self.D1, (rows, dims.k1), f"{name}.D1"),
            D2=_mat(self.D2, (rows, dims.k2), f"{name}.D2"),
            const=_mat(self.const, (rows,), f"{name}.const"),
        )

    def __call__(self, x: Array, y: Array, zv: Array, u1: Array, u2: Array) -> Array:
        return _sum_products(
            [(x, self.A), (y, self.B), (zv, self.C), (u1, self.D1), (u2, self.D2)],
            self.const,
        )


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
        sym = lambda a: 0.5 * a + 0.5 * a.T  # halve first: a + a.T can overflow
        return QuadraticCost(
            Q=sym(_mat(self.Q, (dims.n, dims.n), f"{name}.Q")),
            R=sym(_mat(self.R, (dims.m, dims.m), f"{name}.R")),
            S=float(self.S),
            N=sym(_mat(self.N, (own, own), f"{name}.N")),
            M=sym(_mat(self.M, (other, other), f"{name}.M")),
            G=sym(_mat(self.G, (dims.n, dims.n), f"{name}.G")),
            H=sym(_mat(self.H, (dims.m, dims.m), f"{name}.H")),
        )


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


def _quad(v: Array, M: Array) -> Array:
    # the two-operand row contraction is row by row; the three-operand one is not
    return 0.5 * np.einsum("sj,sj->s", _sum_products([(v, M)]), v)


def lq_to_problem(spec: LQGameSpec) -> GameProblem:
    """Assemble batched callbacks with exact constant derivatives."""
    dims = spec.dims
    dz = dims.dz
    drift = spec.drift
    cols = spec.diffusion
    driver = spec.driver

    def flat(z: Array) -> Array:
        return z.reshape(z.shape[0], dz)

    def b(t, x, y, z, u1, u2):
        return drift(x, y, flat(z), u1, u2)

    def sigma(t, x, y, z, u1, u2):
        zv = flat(z)
        return np.stack([c(x, y, zv, u1, u2) for c in cols], axis=-1)

    def f(t, x, y, z, u1, u2):
        return driver(x, y, flat(z), u1, u2)

    def const_jac(matrix: Array):
        def fn(t, x, y, z, u1, u2, _m=matrix):
            return np.broadcast_to(_m, (x.shape[0],) + _m.shape)

        return fn

    def sigma_jac(attr: str):
        stacked = np.stack([getattr(c, attr) for c in cols], axis=0)  # (d, n, dim)

        def fn(t, x, y, z, u1, u2, _m=stacked):
            return np.broadcast_to(_m, (x.shape[0],) + _m.shape)

        return fn

    coefficients = CoefficientSet(
        b=b,
        sigma=sigma,
        f=f,
        b_x=const_jac(drift.A),
        b_y=const_jac(drift.B),
        b_z=const_jac(drift.C),
        b_u1=const_jac(drift.D1),
        b_u2=const_jac(drift.D2),
        sigma_x=sigma_jac("A"),
        sigma_y=sigma_jac("B"),
        sigma_z=sigma_jac("C"),
        sigma_u1=sigma_jac("D1"),
        sigma_u2=sigma_jac("D2"),
        f_x=const_jac(driver.A),
        f_y=const_jac(driver.B),
        f_z=const_jac(driver.C),
        f_u1=const_jac(driver.D1),
        f_u2=const_jac(driver.D2),
    )

    def running(cost: QuadraticCost, own_first: bool):
        def l(t, x, y, z, u1, u2, _c=cost):
            own, other = (u1, u2) if own_first else (u2, u1)
            zv = flat(z)
            return (
                _quad(x, _c.Q)
                + _quad(y, _c.R)
                + 0.5 * _c.S * np.einsum("sk,sk->s", zv, zv)
                + _quad(own, _c.N)
                + _quad(other, _c.M)
            )

        return l

    def grad(matrix: Array, pick: str):
        # gradient of a symmetric quadratic form, or the S|z|^2 term for z
        def fn(t, x, y, z, u1, u2):
            v = {"x": x, "y": y, "z": flat(z), "u1": u1, "u2": u2}[pick]
            return _sum_products([(v, matrix)])

        return fn

    def zero_grad(dim: int):
        def fn(t, x, y, z, u1, u2):
            return np.zeros((x.shape[0], dim))

        return fn

    c1, c2 = spec.cost1, spec.cost2

    def l_grads(cost: QuadraticCost, own_first: bool):
        own_mat, other_mat = cost.N, cost.M
        g_u1 = grad(own_mat, "u1") if own_first else grad(other_mat, "u1")
        g_u2 = grad(other_mat, "u2") if own_first else grad(own_mat, "u2")
        return {
            "x": grad(cost.Q, "x"),
            "y": grad(cost.R, "y"),
            "z": grad(cost.S * np.eye(dz), "z") if cost.S != 0.0 else zero_grad(dz),
            "u1": g_u1,
            "u2": g_u2,
        }

    g1, g2 = l_grads(c1, True), l_grads(c2, False)

    def phi(G: Array):
        return lambda x, _G=G: _quad(x, _G)

    def phi_x(G: Array):
        return lambda x, _G=G: _sum_products([(x, _G)])

    def h(H: Array):
        return lambda y, _H=H: _quad(y, _H)

    def h_y(H: Array):
        return lambda y, _H=H: _sum_products([(y, _H)])

    costs = CostSet(
        l1=running(c1, True),
        l2=running(c2, False),
        l1_x=g1["x"], l1_y=g1["y"], l1_z=g1["z"], l1_u1=g1["u1"], l1_u2=g1["u2"],
        l2_x=g2["x"], l2_y=g2["y"], l2_z=g2["z"], l2_u1=g2["u1"], l2_u2=g2["u2"],
        phi1=phi(c1.G), phi2=phi(c2.G),
        phi1_x=phi_x(c1.G), phi2_x=phi_x(c2.G),
        h1=h(c1.H), h2=h(c2.H),
        h1_y=h_y(c1.H), h2_y=h_y(c2.H),
    )

    if spec.xi_linear is None:
        terminal = TerminalData.constant(spec.xi)
    else:
        L, c = spec.xi_linear, spec.xi

        def _xi(bt: Array, _L=L, _c=c) -> Array:
            return _sum_products([(bt, _L)], _c)

        terminal = TerminalData(xi=_xi)

    return GameProblem(
        dims=dims,
        horizon=spec.horizon,
        initial=spec.initial,
        terminal=terminal,
        coefficients=coefficients,
        costs=costs,
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
