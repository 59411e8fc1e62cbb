"""Scenario backends: lattice identities are exact, Monte Carlo is statistical."""

import numpy as np
import pytest

from fbsdegames import (
    LatticeBackend,
    MonteCarloBackend,
    RegressionConfig,
    TimeGrid,
    sample_ensemble,
)
from fbsdegames.drivers import _reseed, polynomial_design
from fbsdegames.fbsde import _runs

from conftest import lattice, member, montecarlo


def test_time_grid_basics():
    grid = TimeGrid(2.0, 8)
    assert grid.dt == 0.25
    np.testing.assert_allclose(grid.knots[[0, -1]], [0.0, 2.0])
    assert grid.knots is grid.knots  # built once per grid
    assert not grid.knots.flags.writeable
    with pytest.raises(ValueError):
        TimeGrid(0.0, 8)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_substreams_do_not_depend_on_path_count():
    grid = TimeGrid(1.0, 6)
    small = sample_ensemble(grid, 5, 2, seed=42)
    large = sample_ensemble(grid, 9, 2, seed=42)
    np.testing.assert_array_equal(small.increments, large.increments[:, :5, :])


def _path_generator(seed, path):
    """The reference stream of path `path`: a fresh generator keyed by (seed, path)."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | path))


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("d", [1, 3])
def test_ensemble_is_the_per_path_reference_stream(seed, d):
    grid = TimeGrid(1.0, 5)
    ens = sample_ensemble(grid, 6, d, seed)
    for p in range(6):
        path = np.sqrt(grid.dt) * _path_generator(seed, p).standard_normal((5, d))
        assert ens.increments[:, p, :].tobytes() == path.tobytes()


def test_reseed_splits_the_key_into_path_and_seed_words():
    bits = np.random.Philox()
    np.random.Generator(bits).standard_normal(7)  # leave a counter and a buffer behind
    seed, path = 2**64 - 2, 2**40 + 3
    _reseed(bits, seed, path)
    fresh = np.random.Philox(key=(seed << 64) | path)
    assert bits.state["state"]["key"].tolist() == [path, seed]
    assert np.random.Generator(bits).standard_normal(9).tobytes() == (
        np.random.Generator(fresh).standard_normal(9).tobytes())


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_ensemble_seed_outside_64_bits_is_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        sample_ensemble(TimeGrid(1.0, 2), 2, 1, seed)


def test_ensemble_seed_determinism():
    grid = TimeGrid(1.0, 4)
    a = sample_ensemble(grid, 7, 1, seed=3)
    b = sample_ensemble(grid, 7, 1, seed=3)
    c = sample_ensemble(grid, 7, 1, seed=4)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def test_cumulative_starts_at_zero_and_sums():
    grid = TimeGrid(1.0, 5)
    ens = sample_ensemble(grid, 3, 1, seed=0)
    cum = ens.cumulative()
    np.testing.assert_array_equal(cum[0], 0.0)
    np.testing.assert_allclose(cum[-1], ens.increments.sum(axis=0))


def test_lattice_node_values():
    backend = LatticeBackend(TimeGrid(1.0, 4))
    b3 = backend.brownian(3)[:, 0]
    np.testing.assert_allclose(b3, np.array([-3.0, -1.0, 1.0, 3.0]) * 0.5)


def test_lattice_level_weights_are_binomial():
    backend = LatticeBackend(TimeGrid(1.0, 4))

    def weights(j):
        return backend.expect(j, np.eye(j + 1))

    np.testing.assert_allclose(weights(4), np.array([1, 4, 6, 4, 1]) / 16.0)
    for j in range(5):
        assert weights(j).sum() == pytest.approx(1.0)


def test_lattice_moments_are_exact():
    backend = lattice(16)
    for j in (1, 5, 16):
        b = backend.brownian(j)[:, 0]
        assert backend.expect(j, b) == pytest.approx(0.0, abs=1e-14)
        assert backend.expect(j, b**2) == pytest.approx(j * backend.grid.dt, rel=1e-12)


def test_lattice_conditional_expectation_is_martingale_average():
    backend = lattice(8)
    j = 5
    b_next = backend.brownian(j + 1)
    ce = backend.cond_exp(j, b_next)[0]
    np.testing.assert_allclose(ce, backend.brownian(j), atol=1e-14)


def test_lattice_increment_moment_recovers_unit_z():
    backend = lattice(8)
    j = 3
    b_next = backend.brownian(j + 1)[:, 0]
    ez, _ = backend.cond_exp_increment(j, b_next)
    np.testing.assert_allclose(ez / backend.grid.dt, 1.0, atol=1e-12)


def test_lattice_step_forward_tracks_brownian():
    backend = lattice(6)
    state = backend.brownian(0)
    for j in range(6):
        ones = np.ones((j + 1, 1, 1))
        state = backend.step_forward(j, state, np.zeros((j + 1, 1)), ones, np.empty((j + 2, 1)))
        np.testing.assert_allclose(state, backend.brownian(j + 1), atol=1e-13)


def test_lattice_step_forward_constant_drift():
    backend = lattice(4)
    state = np.full((1, 1), 2.0)
    for j in range(4):
        state = backend.step_forward(
            j, state, np.full((j + 1, 1), 3.0), np.zeros((j + 1, 1, 1)), np.empty((j + 2, 1))
        )
    np.testing.assert_allclose(state, 2.0 + 3.0 * 1.0, rtol=1e-13)


def test_polynomial_design_degree_two_bivariate():
    reg = np.array([[2.0, 3.0]])
    design = polynomial_design(reg, 2)
    np.testing.assert_allclose(design[0], [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])
    assert polynomial_design(np.zeros((5, 3)), 1).shape == (5, 4)


def test_mc_regression_exact_on_basis_functions():
    backend = montecarlo(steps=4, paths=512, seed=7, degree=1)
    j = 2
    x = backend.brownian(j + 1)[:, :1]
    target = 2.0 + 3.0 * x[:, 0]
    fitted, used_ridge = backend.cond_exp(j, target, regressors=x)
    # target already measurable w.r.t. the regressor: projection is identity
    np.testing.assert_allclose(fitted, target, rtol=1e-9)
    assert not used_ridge


def test_mc_regression_ridge_fallback_flag():
    backend = montecarlo(steps=4, paths=256, seed=7, degree=1)
    j = 1
    constant = np.ones((256, 1))  # design [1, 1] is rank deficient
    target = backend.brownian(j + 1)[:, 0]
    fitted, used_ridge = backend.cond_exp(j, target, regressors=constant)
    assert used_ridge
    assert np.all(np.isfinite(fitted))


def test_mc_requires_regressors():
    backend = montecarlo(steps=4, paths=64, seed=1)
    with pytest.raises(ValueError, match="regressors"):
        backend.cond_exp(0, np.zeros(64))


def test_mc_conditional_second_moment_within_band():
    # E[B_T^2 | B_t] = B_t^2 + (T - t); the target lies in the degree-2 span,
    # so the fit errs only by the projected noise, a few parts in sqrt(P)
    backend = montecarlo(steps=8, paths=8192, seed=5, degree=2)
    j = 4
    bt = backend.brownian(j)[:, :1]
    bT = backend.brownian(8)[:, 0]
    truth = bt[:, 0] ** 2 + (1.0 - j * backend.grid.dt)
    fitted, used_ridge = backend.cond_exp(j, bT**2, regressors=bt)
    assert not used_ridge
    rms_err = np.sqrt(np.mean((fitted - truth) ** 2))
    rms_ref = np.sqrt(np.mean(truth**2))
    assert rms_err < 0.05 * rms_ref


def test_mc_increment_regression_recovers_z():
    # y_{j+1} = B_{j+1} gives E[y dB | F_j] = dt exactly
    backend = montecarlo(steps=8, paths=8192, seed=9, degree=2)
    j = 3
    bt = backend.brownian(j)[:, :1]
    target = backend.brownian(j + 1)[:, 0]
    ez, _ = backend.cond_exp_increment(j, target, regressors=bt)
    z = ez[:, 0] / backend.grid.dt
    assert np.mean(z) == pytest.approx(1.0, abs=0.05)
    assert np.sqrt(np.mean((z - 1.0) ** 2)) < 0.1


def test_mc_step_forward_matches_euler():
    backend = montecarlo(steps=4, paths=16, seed=2)
    state = np.zeros((16, 1))
    drift = np.full((16, 1), 0.5)
    diffusion = np.ones((16, 1, 1))
    out = backend.step_forward(0, state, drift, diffusion, np.empty((16, 1)))
    expected = 0.5 * backend.grid.dt + backend.ensemble.increments[0]
    np.testing.assert_allclose(out, expected)


def test_regression_config_bounds():
    with pytest.raises(ValueError):
        RegressionConfig(degree=0)
    with pytest.raises(ValueError):
        RegressionConfig(degree=5)


def _lstsq_fitted(regressors, targets, degree):
    design = polynomial_design(regressors, degree)
    coef, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    return design @ coef, rank < design.shape[1]


def _regression_cases(paths):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(paths, 1))
    return {
        "full-rank": np.concatenate([x, rng.normal(size=(paths, 1))], axis=1),
        "shared-start": np.full((paths, 2), 0.5),  # step 0: every path at x(0)
        "collinear": np.concatenate([x, 2.0 * x], axis=1),
        "rank-one-column": np.concatenate([x, np.ones((paths, 1))], axis=1),
    }


@pytest.mark.parametrize("case", ["full-rank", "shared-start", "collinear", "rank-one-column"])
def test_mc_projection_matches_lstsq_and_its_rank_rule(case):
    paths = 512
    backend = montecarlo(steps=4, paths=paths, seed=7, degree=2)
    regressors = _regression_cases(paths)[case]
    targets = np.random.default_rng(5).normal(size=(paths, 3))
    fitted, used_ridge = backend.cond_exp(1, targets, regressors)
    reference, deficient = _lstsq_fitted(regressors, targets, degree=2)
    assert used_ridge == deficient
    assert used_ridge == (case != "full-rank")
    if not used_ridge:
        # both are backward-stable least-squares solves of a well-scaled design
        tol = np.finfo(float).eps * paths * (1.0 + np.abs(reference).max())
        np.testing.assert_allclose(fitted, reference, rtol=0.0, atol=tol)
    else:
        assert np.all(np.isfinite(fitted))


def test_mc_projection_is_independent_of_earlier_fits():
    paths = 256
    fresh = montecarlo(steps=4, paths=paths, seed=3, degree=2)
    used = montecarlo(steps=4, paths=paths, seed=3, degree=2)
    cases = _regression_cases(paths)
    regressors = cases["full-rank"]
    rng = np.random.default_rng(8)
    values = rng.normal(size=(paths, 2))
    # warm the used backend: this step with other regressors, other steps,
    # and the same regressors twice
    used.cond_exp(2, rng.normal(size=(paths, 2)), cases["collinear"])
    used.cond_exp(1, values, regressors)
    used.cond_exp_increment(2, values, cases["shared-start"])
    used.cond_exp(2, values, regressors.copy())
    for _ in range(2):  # the second round reuses the cached factorisation
        for method in ("cond_exp", "cond_exp_increment"):
            got, got_ridge = getattr(used, method)(2, values, regressors)
            ref, ref_ridge = getattr(fresh, method)(2, values, regressors.copy())
            assert got_ridge == ref_ridge
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", ["full-rank", "collinear"])
@pytest.mark.parametrize("width", [1, 2])
def test_mc_projection_fits_a_broadcast_target_as_its_copy(case, width):
    # a constant terminal is a read-only stride-0 broadcast; the fit must
    # not round it differently from the same values laid out contiguously
    paths = 4096
    regressors = _regression_cases(paths)[case]
    broadcast = np.broadcast_to(np.array([0.3, -1.7][:width]), (paths, width))
    for method in ("cond_exp", "cond_exp_increment"):
        backend = montecarlo(steps=4, paths=paths, seed=3, degree=2)
        got, got_ridge = getattr(backend, method)(1, broadcast, regressors)
        ref, ref_ridge = getattr(backend, method)(1, broadcast.copy(), regressors)
        assert got_ridge == ref_ridge == (case != "full-rank")
        assert got.tobytes() == ref.tobytes()


def test_mc_projection_follows_regressors_refilled_in_place():
    paths = 256
    backend = montecarlo(steps=4, paths=paths, seed=3, degree=2)
    cases = _regression_cases(paths)
    values = np.random.default_rng(9).normal(size=(paths, 2))
    buffer = cases["collinear"].copy()
    assert backend.cond_exp(1, values, buffer)[1]
    buffer[...] = cases["full-rank"]  # the same array, new contents
    got, got_ridge = backend.cond_exp(1, values, buffer)
    fresh = montecarlo(steps=4, paths=paths, seed=3, degree=2)
    ref, ref_ridge = fresh.cond_exp(1, values, cases["full-rank"])
    assert got_ridge == ref_ridge is False
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("steps", [6, 64])
@pytest.mark.parametrize("members", [1, 2, 7, 125])
@pytest.mark.parametrize("trailing", [(), (2,), (2, 3)])
def test_member_lattice_gives_each_member_its_lattice_values(steps, members, trailing):
    # from level 3 on the binomial weights are not powers of two and a
    # product over all members at once would round differently; at 64 steps,
    # the depth of the benchmark's lattice game, they are far from them
    base = lattice(steps)
    view = base.with_members(members)
    rng = np.random.default_rng(members)
    for j in range(steps + 1):
        assert view.scenario_count(j) == (j + 1) * members
        alone = [rng.standard_normal((j + 1,) + trailing) * 10.0 ** rng.uniform(-4, 4)
                 for _ in range(members)]
        rows = view.stack(alone)
        assert rows.shape == ((j + 1) * members,) + trailing
        expected = view.expect(j, rows)
        # one member's expectation has no member axis, as on the plain lattice
        assert expected.shape == ((members,) if members > 1 else ()) + trailing
        expected = expected.reshape((members,) + trailing)
        brownian = view.brownian(j)
        for b in range(members):
            np.testing.assert_array_equal(member(view, rows, b), alone[b])
            np.testing.assert_array_equal(expected[b], base.expect(j, alone[b]))
            np.testing.assert_array_equal(member(view, brownian, b), base.brownian(j))
        assert view.scenario_of(j * members + members - 1) == j
        mask = np.arange(members) % 2 == 0
        picked = view.member_rows(j, mask)
        np.testing.assert_array_equal(picked, np.repeat(mask[None], j + 1, axis=0).ravel())
        if j == steps:
            continue
        nxt = [rng.standard_normal((j + 2,) + trailing) for _ in range(members)]
        drift = [rng.standard_normal((j + 1,) + trailing) for _ in range(members)]
        diffusion = [rng.standard_normal((j + 1,) + trailing + (1,)) for _ in range(members)]
        cond, _ = view.cond_exp(j, view.stack(nxt))
        incr, _ = view.cond_exp_increment(j, view.stack(nxt))
        stepped = view.step_forward(j, rows, view.stack(drift), view.stack(diffusion),
                                    np.empty_like(view.stack(nxt)))
        for b in range(members):
            np.testing.assert_array_equal(member(view, cond, b), base.cond_exp(j, nxt[b])[0])
            np.testing.assert_array_equal(
                member(view, incr, b), base.cond_exp_increment(j, nxt[b])[0])
            np.testing.assert_array_equal(
                member(view, stepped, b),
                base.step_forward(j, alone[b], drift[b], diffusion[b], np.empty_like(nxt[b])))
        for b, own in enumerate(view.unstack(stepped)):
            np.testing.assert_array_equal(own, member(view, stepped, b))


def test_member_lattice_keeps_columnless_controls():
    view = lattice(2).with_members(3)
    rows = view.stack([np.zeros((2, 0))] * 3)
    assert rows.shape == (6, 0)
    assert member(view, rows, 1).shape == (2, 0)
    assert [own.shape for own in view.unstack(rows)] == [(2, 0)] * 3
    with pytest.raises(ValueError):
        lattice(2).with_members(0)


def test_member_lattice_shares_the_tables_and_keeps_its_own_rows():
    # a copy with members neither rebuilds the binomial weights nor changes
    # the lattice it came from
    base = lattice(4)
    times = base.row_times
    view = base.with_members(3)
    assert view._weights is base._weights
    assert base.members == 1 and base.offsets == lattice(4).offsets
    assert base.row_times is times
    np.testing.assert_array_equal(view.row_times, np.repeat(times, 3))


@pytest.mark.parametrize("make_backend", [
    lambda: lattice(6),
    lambda: montecarlo(steps=4, paths=64, seed=5, d=2),
], ids=["lattice", "montecarlo"])
@pytest.mark.parametrize("trailing", [(), (2,), (2, 3)])
def test_plain_backends_are_one_member_backends(make_backend, trailing):
    # every state solve and a lone player's costate solve run on the plain
    # backend through the member interface; on the lattice the one-member
    # copy that a one-profile oracle chunk solves on must read as the plain
    # lattice, expectations without a member axis included
    backend = make_backend()
    backends = [backend] + ([backend.with_members(1)] if backend.kind == "lattice" else [])
    rows = np.random.default_rng(len(trailing)).standard_normal(
        (backend.offsets[-1],) + trailing)
    for view in backends:
        assert view.members == 1
        assert view.offsets == backend.offsets
        assert view.stack([rows]) is rows
        (alone,) = view.unstack(rows)
        assert alone is rows
        for j in range(backend.grid.steps + 1):
            count = backend.scenario_count(j)
            assert view.scenario_count(j) == count
            for flag in (True, False):
                mask = np.array([flag])
                np.testing.assert_array_equal(view.member_rows(j, mask), np.full(count, flag))
            assert [view.scenario_of(row) for row in range(count)] == list(range(count))
            step = rows[backend.offsets[j]:backend.offsets[j + 1]]
            got, plain = view.expect(j, step), backend.expect(j, step)
            assert got.shape == plain.shape == trailing
            assert got.tobytes() == plain.tobytes()
            assert view.brownian(j).tobytes() == backend.brownian(j).tobytes()
            if j < backend.grid.steps and backend.kind == "lattice":
                nxt = rows[backend.offsets[j + 1]:backend.offsets[j + 2]]
                for op in ("cond_exp", "cond_exp_increment"):
                    got, _ = getattr(view, op)(j, nxt)
                    assert got.tobytes() == getattr(backend, op)(j, nxt)[0].tobytes()
    shapes = ((2,), (2, 1))
    for (part, owners), (want_part, want_owners) in zip(
            _runs(backend, *shapes), _runs(backends[-1], *shapes), strict=True):
        assert part == want_part
        np.testing.assert_array_equal(owners, want_owners)


@pytest.mark.parametrize("make_backend", [
    lambda: lattice(6),
    lambda: lattice(6).with_members(3),
    lambda: montecarlo(steps=4, paths=64, seed=5),
], ids=["lattice", "lattice-3-members", "montecarlo"])
@pytest.mark.parametrize("steps", ["all", "controls"])
def test_expectations_and_integrate_are_the_per_step_loop(make_backend, steps):
    # the one place a process's rows are cut by step: bit for bit the loop
    # over steps 0..K-1 that each caller wrote for itself
    backend = make_backend()
    N, dt, offsets = backend.grid.steps, backend.grid.dt, backend.offsets
    K = N + 1 if steps == "all" else N
    rows = np.random.default_rng(K).standard_normal(offsets[K])
    means = backend.expectations(rows)
    assert len(means) == K
    total = 0.0
    for j, mean in enumerate(means):
        want = backend.expect(j, rows[offsets[j]:offsets[j + 1]])
        assert np.shape(mean) == np.shape(want) == ((3,) if backend.members == 3 else ())
        assert np.asarray(mean).tobytes() == np.asarray(want).tobytes()
        total = total + dt * want
    assert np.asarray(backend.integrate(rows)).tobytes() == np.asarray(total).tobytes()
