"""Shared instance builders.

Each builder returns a GameProblem (plus spec where useful) for a family
the tests reuse: the all-zero instance with quadratic tails, a mildly
coupled LQ game, a pure-backward problem, a single-player problem with a
classical LQ structure, a two-step game small enough to enumerate, and the
coupled game with smooth nonlinear terms in the drift and the diffusion.
"""

import dataclasses

import numpy as np
import pytest

from fbsdegames import (
    AffineMap,
    ControlBox,
    ControlProcess,
    Dims,
    LatticeBackend,
    LQGameSpec,
    MonteCarloBackend,
    QuadraticCost,
    RegressionConfig,
    TimeGrid,
    lq_to_problem,
    random_lq_spec,
    sample_ensemble,
)

D1 = Dims(n=1, m=1, d=1, k1=1, k2=1)


def zero_spec(dims: Dims = D1) -> LQGameSpec:
    """Everything zero except x(0) = 1 and the quadratic tails phi, h."""
    tail = dataclasses.replace(
        QuadraticCost.zeros(dims, dims.k1, dims.k2), G=np.eye(dims.n), H=np.eye(dims.m)
    )
    tail2 = dataclasses.replace(
        QuadraticCost.zeros(dims, dims.k2, dims.k1), G=np.eye(dims.n), H=np.eye(dims.m)
    )
    return LQGameSpec(
        dims=dims,
        horizon=1.0,
        initial=np.ones(dims.n),
        xi=np.zeros(dims.m),
        drift=AffineMap.zeros(dims.n, dims),
        diffusion=tuple(AffineMap.zeros(dims.n, dims) for _ in range(dims.d)),
        driver=AffineMap.zeros(dims.m, dims),
        cost1=tail,
        cost2=tail2,
        u1_box=ControlBox.symmetric(dims.k1, 1.0),
        u2_box=ControlBox.symmetric(dims.k2, 1.0),
    )


def coupled_lq_spec(with_control_in_dynamics: bool = True) -> LQGameSpec:
    """Small fully coupled game: b sees y, f sees x and z, both see controls."""
    dims = D1
    drift = AffineMap(
        A=np.array([[-0.3]]),
        B=np.array([[0.2]]),
        C=np.array([[0.1]]),
        D1=np.array([[0.4]]) if with_control_in_dynamics else np.zeros((1, 1)),
        D2=np.array([[0.2]]) if with_control_in_dynamics else np.zeros((1, 1)),
        const=np.array([0.1]),
    )
    diffusion = AffineMap(
        A=np.array([[0.1]]),
        B=np.array([[0.05]]),
        C=np.zeros((1, 1)),
        D1=np.zeros((1, 1)),
        D2=np.zeros((1, 1)),
        const=np.array([0.3]),
    )
    driver = AffineMap(
        A=np.array([[0.25]]),
        B=np.array([[-0.2]]),
        C=np.array([[0.1]]),
        D1=np.array([[0.3]]),
        D2=np.array([[-0.2]]),
        const=np.array([0.05]),
    )
    cost = lambda own, other: QuadraticCost(
        Q=np.array([[1.0]]),
        R=np.array([[0.5]]),
        S=0.1,
        N=np.array([[1.0]]),
        M=np.zeros((1, 1)),
        G=np.array([[0.7]]),
        H=np.array([[0.4]]),
    )
    return LQGameSpec(
        dims=dims,
        horizon=1.0,
        initial=np.array([0.5]),
        xi=np.array([0.2]),
        drift=drift,
        diffusion=(diffusion,),
        driver=driver,
        cost1=cost(1, 2),
        cost2=cost(2, 1),
        u1_box=ControlBox.symmetric(1, 2.0),
        u2_box=ControlBox.symmetric(1, 2.0),
    )


def backward_only_spec(alpha: float = 0.5, xi: float = 1.0) -> LQGameSpec:
    """dy = -alpha*y dt + z dB with y(T) = xi; the forward state is inert."""
    dims = D1
    driver = dataclasses.replace(AffineMap.zeros(1, dims), B=np.array([[alpha]]))
    return dataclasses.replace(
        zero_spec(),
        xi=np.array([xi]),
        driver=driver,
        cost1=QuadraticCost.zeros(dims, 1, 1),
        cost2=QuadraticCost.zeros(dims, 1, 1),
    )


def martingale_spec() -> LQGameSpec:
    """y(T) = B(T) with zero driver: y must be the Brownian motion itself."""
    return dataclasses.replace(
        backward_only_spec(alpha=0.0, xi=0.0), xi_linear=np.array([[1.0]])
    )


def riccati_spec() -> LQGameSpec:
    """Player 2 inert, y decoupled and worthless: classical scalar LQR.

    Matches the frozen closed form in reference_values (A=0.3, B=1, Q=R=1,
    G=2, sigma=0.2 additive, x0=1).
    """
    dims = Dims(n=1, m=1, d=1, k1=1, k2=0)
    drift = dataclasses.replace(
        AffineMap.zeros(1, dims), A=np.array([[0.3]]), D1=np.array([[1.0]])
    )
    diffusion = dataclasses.replace(AffineMap.zeros(1, dims), const=np.array([0.2]))
    cost1 = QuadraticCost(
        Q=np.eye(1), R=np.zeros((1, 1)), S=0.0, N=np.eye(1), M=np.zeros((0, 0)),
        G=2.0 * np.eye(1), H=np.zeros((1, 1)),
    )
    return LQGameSpec(
        dims=dims,
        horizon=1.0,
        initial=np.array([1.0]),
        xi=np.zeros(1),
        drift=drift,
        diffusion=(diffusion,),
        driver=AffineMap.zeros(1, dims),
        cost1=cost1,
        cost2=QuadraticCost.zeros(dims, 0, 1),
        u1_box=ControlBox.unbounded(1),
        u2_box=ControlBox.unbounded(0),
    )


def mild_lqr_spec() -> LQGameSpec:
    """Like riccati_spec but with weak closed-loop mean reversion.

    Tree controls are functions of the current node, while the optimal
    path-adapted control depends on the whole increment history through
    exp(int (A - P) dt) weights.  Keeping |A - P| small makes that history
    dependence negligible, so the node-function solution can actually
    track the feedback law instead of stalling a few percent away.
    """
    spec = riccati_spec()
    return dataclasses.replace(
        spec,
        drift=dataclasses.replace(spec.drift, A=np.array([[0.2]])),
        cost1=dataclasses.replace(
            spec.cost1, Q=np.array([[0.1]]), G=np.array([[0.5]])
        ),
    )


def two_step_spec() -> LQGameSpec:
    """Tiny coupled game for exhaustive grid enumeration on a 2-step lattice."""
    spec = coupled_lq_spec()
    return dataclasses.replace(spec, horizon=0.5)


def nonlinear_problem():
    """The coupled LQ game plus bounded smooth terms in b and sigma that
    involve the controls: the Picard map is not affine, so Anderson mixing
    cannot solve it as a linear system."""
    problem = lq_to_problem(coupled_lq_spec())
    co = problem.coefficients

    def b(t, x, y, z, u1, u2):
        return co.b(t, x, y, z, u1, u2) + 0.5 * np.tanh(y + u1)

    def b_y(t, x, y, z, u1, u2):
        return co.b_y(t, x, y, z, u1, u2) + (0.5 / np.cosh(y + u1) ** 2)[:, :, None]

    def b_u1(t, x, y, z, u1, u2):
        return co.b_u1(t, x, y, z, u1, u2) + (0.5 / np.cosh(y + u1) ** 2)[:, :, None]

    def sigma(t, x, y, z, u1, u2):
        return co.sigma(t, x, y, z, u1, u2) + 0.1 * np.sin(x + u2)[:, :, None]

    def sigma_x(t, x, y, z, u1, u2):
        return co.sigma_x(t, x, y, z, u1, u2) + (0.1 * np.cos(x + u2))[:, None, :, None]

    def sigma_u2(t, x, y, z, u1, u2):
        return co.sigma_u2(t, x, y, z, u1, u2) + (0.1 * np.cos(x + u2))[:, None, :, None]

    return dataclasses.replace(problem, coefficients=dataclasses.replace(
        co, b=b, b_y=b_y, b_u1=b_u1, sigma=sigma, sigma_x=sigma_x, sigma_u2=sigma_u2))


@pytest.fixture
def zero_problem():
    return lq_to_problem(zero_spec())


@pytest.fixture
def coupled_problem():
    return lq_to_problem(coupled_lq_spec())


@pytest.fixture
def lattice16():
    return LatticeBackend(TimeGrid(1.0, 16))


@pytest.fixture
def lattice32():
    return LatticeBackend(TimeGrid(1.0, 32))


def lattice(steps: int, horizon: float = 1.0) -> LatticeBackend:
    return LatticeBackend(TimeGrid(horizon, steps))


def montecarlo(
    steps: int,
    paths: int = 4096,
    seed: int = 11,
    horizon: float = 1.0,
    d: int = 1,
    degree: int = 2,
) -> MonteCarloBackend:
    grid = TimeGrid(horizon, steps)
    ensemble = sample_ensemble(grid, paths, d, seed)
    return MonteCarloBackend(ensemble, RegressionConfig(degree=degree))


def member(view, rows, b: int):
    """Member b's rows of one level of a lattice with B members: row
    l * B + b is node l of member b."""
    return rows.reshape((rows.shape[0] // view.members, view.members) + rows.shape[1:])[:, b]


# Roundoff budget when a result is recomputed in another summation order
# (a stacked contraction against separate einsums, a batch of another size):
# the two agree to a few ulps of the largest term; 2**8 eps leaves ample room.
ROUNDOFF_TOL = 2.0**8 * np.finfo(float).eps


def reference_cases():
    """(spec, backend factory) pairs: the coupled game and a random
    multi-dimensional game on both backends (the lattice needs d = 1)."""
    return [
        pytest.param(coupled_lq_spec(), lambda: lattice(16), id="lattice-coupled"),
        pytest.param(coupled_lq_spec(), lambda: montecarlo(8, paths=512), id="montecarlo-coupled"),
        pytest.param(random_lq_spec(3, Dims(2, 2, 1, 2, 2)), lambda: lattice(16),
                     id="lattice-random"),
        pytest.param(random_lq_spec(3, Dims(2, 2, 2, 2, 2)),
                     lambda: montecarlo(8, paths=512, d=2), id="montecarlo-random"),
    ]


def plain_callbacks(problem):
    """problem with b, sigma, f, l1 and l2 wrapped in plain functions, which
    offer neither a `split` nor a sweep form: the certificate's search
    evaluates H_i whole, and the state sweeps call b, sigma and f once per
    step."""
    co, costs = problem.coefficients, problem.costs

    def plain(fn):
        return lambda *args: fn(*args)

    return dataclasses.replace(
        problem,
        coefficients=dataclasses.replace(co, **{n: plain(getattr(co, n)) for n in ("b", "sigma", "f")}),
        costs=dataclasses.replace(costs, l1=plain(costs.l1), l2=plain(costs.l2)),
    )


def random_controls(problem, backend, seed: int = 0) -> ControlProcess:
    """Per-scenario controls drawn uniformly from [-1, 1]."""
    rng = np.random.default_rng(seed)
    N = backend.grid.steps

    def draw(k):
        return tuple(rng.uniform(-1.0, 1.0, (backend.scenario_count(j), k)) for j in range(N))

    return ControlProcess(u1=draw(problem.dims.k1), u2=draw(problem.dims.k2))
