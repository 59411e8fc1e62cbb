"""Coupled forward-backward solver on both backends."""

import dataclasses

import numpy as np
import pytest

from fbsdegames import (
    AffineMap,
    ControlProcess,
    Dims,
    FbsdeConfig,
    NonFiniteStateError,
    PicardDivergenceError,
    eval_cost,
    forward_pass,
    lq_to_problem,
    random_lq_spec,
    solve_adjoint,
    solve_adjoints,
    solve_fbsde,
)
from fbsdegames.fbsde import _pair_views, _start_pair, damped_picard, solve_members
from fbsdegames.problem import validate_problem

import reference_values as ref
from conftest import (
    backward_only_spec,
    coupled_lq_spec,
    lattice,
    martingale_spec,
    member,
    montecarlo,
    nonlinear_problem,
    random_controls,
    two_step_spec,
    zero_spec,
)


def _solve(spec, backend, **kw):
    problem = lq_to_problem(spec)
    u = ControlProcess.midpoint(problem, backend)
    traj, diag = solve_fbsde(problem, u, backend, FbsdeConfig(**kw))
    return problem, u, traj, diag


class TestZeroProblem:
    def test_single_iteration_and_exact_fields(self):
        problem, u, traj, diag = _solve(zero_spec(), lattice(16))
        assert diag.converged
        assert diag.iterations == 1
        for j in range(17):
            np.testing.assert_array_equal(traj.x[j], 1.0)
            np.testing.assert_array_equal(traj.y[j], 0.0)
        for zj in traj.z:
            np.testing.assert_array_equal(zj, 0.0)

    def test_cost_is_exactly_half(self):
        problem, u, traj, _ = _solve(zero_spec(), lattice(16))
        j1, stderr = eval_cost(problem, traj, u, 1)
        assert j1 == 0.5
        assert stderr == 0.0


def test_constant_drift_integrates_exactly():
    spec = zero_spec()
    drift = dataclasses.replace(spec.drift, const=np.array([0.75]))
    problem, u, traj, diag = _solve(dataclasses.replace(spec, drift=drift), lattice(10))
    assert diag.converged
    np.testing.assert_allclose(traj.x[10], 1.0 + 0.75, rtol=1e-13)


def test_geometric_mean_growth_monte_carlo():
    # dx = 0.2 x dt + 0.3 x dB from 1: E x(T) = e^{0.2}
    spec = zero_spec()
    spec = dataclasses.replace(
        spec,
        drift=dataclasses.replace(spec.drift, A=np.array([[0.2]])),
        diffusion=(dataclasses.replace(spec.diffusion[0], A=np.array([[0.3]])),),
    )
    backend = montecarlo(steps=64, paths=8192, seed=13)
    problem, u, traj, diag = _solve(spec, backend)
    assert diag.converged
    mean_T = traj.x[-1][:, 0].mean()
    assert mean_T == pytest.approx(np.exp(0.2), rel=0.02)


class TestBackwardOnly:
    def test_lattice_root_matches_compounded_recursion(self):
        backend = lattice(256)
        _, _, traj, diag = _solve(backward_only_spec(0.5, 1.0), backend, tol=1e-12)
        assert diag.converged
        y0 = traj.y[0][0, 0]
        assert y0 == pytest.approx(ref.Y0_LATTICE_256, rel=1e-12)
        assert y0 == pytest.approx(ref.EXP_HALF, rel=1e-3)

    def test_halving_dt_halves_the_error(self):
        e = {}
        for steps, frozen in ((256, ref.Y0_LATTICE_256), (512, ref.Y0_LATTICE_512)):
            _, _, traj, _ = _solve(backward_only_spec(0.5, 1.0), lattice(steps), tol=1e-12)
            assert traj.y[0][0, 0] == pytest.approx(frozen, rel=1e-12)
            e[steps] = abs(traj.y[0][0, 0] - ref.EXP_HALF)
        assert e[256] / e[512] >= 1.8

    def test_z_vanishes_for_deterministic_terminal(self):
        _, _, traj, _ = _solve(backward_only_spec(0.5, 1.0), lattice(32))
        for zj in traj.z:
            np.testing.assert_allclose(zj, 0.0, atol=1e-14)


class TestMartingaleRepresentation:
    def test_y_is_brownian_and_z_is_one(self):
        backend = lattice(32)
        _, _, traj, diag = _solve(martingale_spec(), backend)
        assert diag.converged
        for j in range(33):
            np.testing.assert_allclose(traj.y[j], backend.brownian(j), atol=1e-13)
        for zj in traj.z:
            np.testing.assert_allclose(zj, 1.0, atol=1e-12)


def test_decoupled_problem_needs_two_passes():
    # forward coefficients blind to (y, z): pass 1 is already exact.  At
    # damping 1 pass 2 starts there and confirms it; at damping 0.5 the
    # damped step goes halfway, the first Anderson step lands on it, and
    # pass 3 confirms it
    spec = coupled_lq_spec()
    spec = dataclasses.replace(
        spec,
        drift=dataclasses.replace(spec.drift, B=np.zeros((1, 1)), C=np.zeros((1, 1))),
        diffusion=(
            dataclasses.replace(spec.diffusion[0], B=np.zeros((1, 1)), C=np.zeros((1, 1))),
        ),
    )
    for damping, passes in ((1.0, 2), (0.5, 3)):
        _, _, _, diag = _solve(spec, lattice(16), damping=damping)
        assert diag.converged
        assert diag.iterations == passes
        assert diag.residual_history[-1] == 0.0


def test_coupled_problem_converges_and_reports_history():
    _, _, _, diag = _solve(coupled_lq_spec(), lattice(32), tol=1e-10)
    assert diag.converged
    assert diag.final_residual <= 1e-10
    assert len(diag.residual_history) == diag.iterations
    assert diag.residual_history[-1] == diag.final_residual


def test_warm_start_accepted_and_consistent():
    # the residual metric is squared, so tol 1e-16 pins iterates to ~1e-8
    problem = lq_to_problem(coupled_lq_spec())
    backend = lattice(16)
    u = ControlProcess.midpoint(problem, backend)
    traj, diag_cold = solve_fbsde(problem, u, backend, FbsdeConfig(tol=1e-16))
    warm = (traj.y, traj.z)
    traj2, diag_warm = solve_fbsde(problem, u, backend, FbsdeConfig(tol=1e-16), initial=warm)
    assert diag_warm.converged
    assert diag_warm.iterations <= diag_cold.iterations
    for a, b in zip(traj.y, traj2.y):
        np.testing.assert_allclose(a, b, atol=1e-6)


def test_strong_coupling_raises_divergence():
    spec = coupled_lq_spec()
    spec = dataclasses.replace(
        spec,
        drift=dataclasses.replace(spec.drift, B=np.array([[40.0]])),
        driver=dataclasses.replace(spec.driver, A=np.array([[40.0]])),
    )
    problem = lq_to_problem(spec)
    backend = lattice(8)
    u = ControlProcess.midpoint(problem, backend)
    with pytest.raises(PicardDivergenceError):
        solve_fbsde(problem, u, backend, FbsdeConfig(damping=1.0, max_picard=50))


def _opposed_coupling_problem(strength: float):
    # b sees +strength * y and f sees -strength * x: the Picard map overshoots
    spec = coupled_lq_spec()
    return lq_to_problem(dataclasses.replace(
        spec,
        drift=dataclasses.replace(spec.drift, B=np.array([[strength]])),
        driver=dataclasses.replace(spec.driver, A=np.array([[-strength]])),
    ))


def _capped_solve(solver, problem, u, backend, config):
    """(forward field, pair, diagnostics) of the state or player-1 costate solve."""
    if solver == "state":
        traj, diag = solve_fbsde(problem, u, backend, config)
        return traj.x, (traj.y, traj.z), diag
    traj, _ = solve_fbsde(problem, u, backend, FbsdeConfig(tol=1e-24, max_picard=500))
    adj, diag = solve_adjoint(problem, traj, u, 1, backend, config)
    return adj.k, (adj.p, adj.q), diag


@pytest.mark.parametrize("solver, prefix", [("state", "picard"), ("costate", "costate")])
@pytest.mark.parametrize(
    "strength, damping, best",
    [
        pytest.param(2.0, 0.8, 1, id="slowly-contracting"),  # ~200 passes to converge
        pytest.param(2.5, 1.0, 0, id="overshooting"),  # second residual up 2-3x, under 10x
    ],
)
def test_iteration_cap_returns_the_best_iterate(solver, prefix, strength, damping, best):
    problem = _opposed_coupling_problem(strength)
    backend = lattice(8)
    u = ControlProcess.midpoint(problem, backend)
    capped = FbsdeConfig(max_picard=2, damping=damping, tol=1e-30)
    fwd, pair, diag = _capped_solve(solver, problem, u, backend, capped)
    assert not diag.converged
    assert diag.iterations == len(diag.residual_history) == 2
    assert diag.final_residual == diag.residual_history[-1]
    assert int(np.argmin(diag.residual_history)) == best
    expected = (f"{prefix} residual non-monotone at iteration 2",) if best == 0 else ()
    assert diag.warnings == expected
    # the same passes, stopped by the tolerance right at the best output
    stop = FbsdeConfig(max_picard=2, damping=damping, tol=diag.residual_history[best])
    ref_fwd, ref_pair, ref_diag = _capped_solve(solver, problem, u, backend, stop)
    assert ref_diag.converged and ref_diag.iterations == best + 1
    for got, ref in zip((fwd, *pair), (ref_fwd, *ref_pair)):
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


def _member_batch(problem, backend, profiles):
    view = backend.with_members(len(profiles))
    steps = range(backend.grid.steps)
    u = ControlProcess(
        u1=tuple(view.stack([p.u1[j] for p in profiles]) for j in steps),
        u2=tuple(view.stack([p.u2[j] for p in profiles]) for j in steps),
    )
    return view, u


def _scaled_profiles(problem, backend):
    """Profiles whose solves start farther and farther from their fixed points."""
    out = []
    for seed, scale in enumerate((0.0, 1.0, 30.0, 1000.0)):
        u = random_controls(problem, backend, seed)
        out.append(ControlProcess(u1=tuple(scale * a for a in u.u1),
                                  u2=tuple(scale * a for a in u.u2)))
    return out


@pytest.mark.parametrize("spec", [coupled_lq_spec(), random_lq_spec(3, Dims(2, 2, 1, 2, 2))],
                         ids=["coupled", "random"])
@pytest.mark.parametrize("capped", [False, True], ids=["tolerance", "capped"])
def test_member_solve_is_each_solve_alone(spec, capped):
    problem = lq_to_problem(spec)
    backend = lattice(5)
    profiles = _scaled_profiles(problem, backend)
    config = FbsdeConfig(tol=1e-12, max_picard=200)
    alone = [solve_fbsde(problem, u, backend, config) for u in profiles]
    passes = [diag.iterations for _, diag in alone]
    assert len(set(passes)) > 1  # members stop at different passes
    if capped:
        # the last member to stop now hits the cap and keeps its best output,
        # while the passes it still needs run over members that have stopped
        config = FbsdeConfig(tol=1e-12, max_picard=max(passes) - 1)
        alone = [solve_fbsde(problem, u, backend, config) for u in profiles]
        assert not all(diag.converged for _, diag in alone)
    view, u = _member_batch(problem, backend, profiles)
    traj, diagnostics = solve_members(problem, u, view, config)
    assert traj.backend is view
    for b, (ref, ref_diag) in enumerate(alone):
        assert diagnostics[b] == ref_diag
        for field in ("x", "y", "z"):
            for got, want in zip(getattr(traj, field), getattr(ref, field)):
                np.testing.assert_array_equal(member(view, got, b), want)
        j_alone = eval_cost(problem, ref, profiles[b], 1)[0]
        assert eval_cost(problem, traj, u, 1)[0][b] == j_alone


class TestNonlinearProblem:
    def test_partials_are_consistent(self):
        assert validate_problem(nonlinear_problem(), samples=60, seed=3, probe_radius=None).passed

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_solve_matches_a_tight_solve_within_sqrt_tol(self, tol):
        problem = nonlinear_problem()
        backend = lattice(32)
        tight = FbsdeConfig(tol=1e-28, max_picard=200)
        for seed in range(3):
            u = random_controls(problem, backend, seed)
            traj, diag = solve_fbsde(problem, u, backend, FbsdeConfig(tol=tol))
            ref, ref_diag = solve_fbsde(problem, u, backend, tight)
            assert diag.converged and ref_diag.converged
            assert diag.iterations < ref_diag.iterations
            for field in ("y", "z"):
                for got, want in zip(getattr(traj, field), getattr(ref, field)):
                    assert np.abs(got - want).max() <= np.sqrt(tol)

    def test_member_solve_is_each_solve_alone(self):
        problem = nonlinear_problem()
        backend = lattice(8)
        profiles = _scaled_profiles(problem, backend)
        config = FbsdeConfig(tol=1e-12, max_picard=200)
        alone = [solve_fbsde(problem, u, backend, config) for u in profiles]
        assert len({diag.iterations for _, diag in alone}) > 1
        view, u = _member_batch(problem, backend, profiles)
        traj, diagnostics = solve_members(problem, u, view, config)
        for b, (ref, ref_diag) in enumerate(alone):
            assert diagnostics[b] == ref_diag
            for field in ("x", "y", "z"):
                for got, want in zip(getattr(traj, field), getattr(ref, field)):
                    np.testing.assert_array_equal(member(view, got, b), want)

    def test_paired_costate_solve_is_each_solve_alone(self):
        # the players' costates along one solved trajectory are paired on
        # the lattice (on Monte Carlo each is its solve alone)
        problem = nonlinear_problem()
        backend = lattice(16)
        config = FbsdeConfig(tol=1e-12)
        u = random_controls(problem, backend)
        traj, _ = solve_fbsde(problem, u, backend, config)
        adjoints, diagnostics = solve_adjoints(problem, traj, u, backend, config)
        for player, got, diag in zip((1, 2), adjoints, diagnostics):
            want, want_diag = solve_adjoint(problem, traj, u, player, backend, config)
            assert diag == want_diag
            for field in ("k", "p", "q"):
                for a, b in zip(getattr(got, field), getattr(want, field), strict=True):
                    np.testing.assert_array_equal(a, b)


def test_member_solve_raises_the_first_divergence():
    problem = _opposed_coupling_problem(8.0)
    backend = lattice(3, horizon=2.0)
    profiles = _scaled_profiles(problem, backend)
    config = FbsdeConfig()
    first = []
    for b, u in enumerate(profiles):
        with pytest.raises(PicardDivergenceError) as alone:
            solve_fbsde(problem, u, backend, config)
        first.append((alone.value.diagnostics.iterations, b, alone.value.diagnostics))
    view, u = _member_batch(problem, backend, profiles)
    with pytest.raises(PicardDivergenceError) as batched:
        solve_members(problem, u, view, config)
    assert batched.value.diagnostics == min(first, key=lambda item: item[:2])[2]


def _node_profiles(backend, values):
    """One ControlProcess per (u1, u2) pair of per-node control values."""
    offsets = backend.offsets[: backend.grid.steps + 1]
    return [ControlProcess.from_rows(np.array(v1, float)[:, None], np.array(v2, float)[:, None],
                                     offsets) for v1, v2 in values]


def test_every_way_a_member_stops_in_one_batch():
    # per member of one batch, how its solve alone stops: by the tolerance
    # at two different passes, by a stalled iterate (1e154 controls make
    # updates below an ulp of y), with an infinite first residual (a 1e308
    # control), and at max_picard
    problem, backend = lq_to_problem(two_step_spec()), lattice(2, horizon=0.5)
    huge = [1e154] * 3
    profiles = _node_profiles(backend, [
        ([0.0] * 3, [0.0] * 3),
        ([30.0, -30.0, 30.0], [0.0] * 3),
        ([1e154, -1e154, 1e154], huge),
        ([1e308, 0.0, 0.0], [0.0] * 3),
        (huge, huge),
    ])
    config = FbsdeConfig(tol=1e-12, max_picard=10)
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [solve_fbsde(problem, u, backend, config) for u in profiles]
        view, u = _member_batch(problem, backend, profiles)
        traj, diagnostics = solve_members(problem, u, view, config)
    endings = [(d.iterations, d.converged, d.warnings) for _, d in alone]
    assert endings[0][1:] == endings[1][1:] == (True, ()) and endings[0][0] != endings[1][0]
    assert endings[2][1] and endings[2][2][-1].startswith("picard iterate stalled")
    assert endings[3] == (1, False, ("picard residual infinite at iteration 1",))
    assert endings[4][:2] == (config.max_picard, False)
    for b, (ref_traj, ref_diag) in enumerate(alone):
        # every field: iterations, residual_history, final_residual,
        # converged, warnings and ridge_fallbacks
        assert diagnostics[b] == ref_diag
        for field in ("x", "y", "z"):
            for got, want in zip(getattr(traj, field), getattr(ref_traj, field), strict=True):
                np.testing.assert_array_equal(member(view, got, b), want)


def test_member_solve_raises_the_lower_member_of_one_pass():
    # both profiles diverge at the second pass, with different residuals:
    # the batch raises its lower-indexed member's divergence, in either order
    problem = _opposed_coupling_problem(8.0)
    backend = lattice(3, horizon=2.0)
    profiles = _scaled_profiles(problem, backend)[1:3]
    config = FbsdeConfig()
    alone = []
    for u in profiles:
        with pytest.raises(PicardDivergenceError) as err:
            solve_fbsde(problem, u, backend, config)
        alone.append(err.value.diagnostics)
    assert alone[0].iterations == alone[1].iterations and alone[0] != alone[1]
    for order in ([0, 1], [1, 0]):
        view, u = _member_batch(problem, backend, [profiles[b] for b in order])
        with pytest.raises(PicardDivergenceError) as batched:
            solve_members(problem, u, view, config)
        assert batched.value.diagnostics == alone[order[0]]


@pytest.mark.parametrize("outputs", [[1e200], [1.0, 1e200]], ids=["first", "second"])
def test_infinite_residual_stops_or_diverges(outputs):
    # an output 1e200 from its input squares to an infinite residual: as the
    # first residual it leaves the 10x divergence check nothing to compare
    # with, so the solve stops there, unconverged; after a finite first
    # residual it is a divergence
    backend = lattice(2)
    start = _start_pair(backend, (1,), (1, 1))
    values = iter(outputs)

    def backward(_):
        return (*_pair_views(backend, np.full_like(start[0], next(values)), (1,), (1, 1)), 0)

    config = FbsdeConfig()
    if len(outputs) > 1:
        with pytest.raises(PicardDivergenceError) as err:
            damped_picard(lambda a, b: a, backward, start, backend, config, "test")
        assert err.value.diagnostics.residual_history[-1] == np.inf
        return
    *_, (diag,) = damped_picard(lambda a, b: a, backward, start, backend, config, "test")
    assert (diag.iterations, diag.converged, diag.final_residual) == (1, False, np.inf)
    assert diag.warnings == ("test residual infinite at iteration 1",)


def test_forward_pass_names_nonfinite_step():
    problem = lq_to_problem(coupled_lq_spec())
    explosive = dataclasses.replace(
        problem.coefficients,
        b=lambda t, x, y, z, u1, u2: 1e200 * x,
    )
    bad = dataclasses.replace(problem, coefficients=explosive)
    backend = lattice(4)
    u = ControlProcess.midpoint(bad, backend)
    ys = [np.zeros((j + 1, 1)) for j in range(5)]
    zs = [np.zeros((j + 1, 1, 1)) for j in range(4)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError) as err:
            forward_pass(bad, u, ys, zs, backend)
    assert err.value.step >= 1


def test_control_process_helpers():
    backend = lattice(4)
    u = ControlProcess.constant(backend, 0.3, -0.2)
    assert u.steps == 4
    assert u.u1[2].shape == (3, 1)
    np.testing.assert_array_equal(u.u2[1], -0.2)
    swapped = u.replace_player(2, u.u1)
    np.testing.assert_array_equal(swapped.u2[3], 0.3)


def test_backends_agree_on_root_value():
    spec = coupled_lq_spec()
    _, _, traj_lat, _ = _solve(spec, lattice(64), tol=1e-10)
    _, _, traj_mc, _ = _solve(spec, montecarlo(steps=64, paths=8192, seed=21), tol=1e-8)
    y_lat = traj_lat.y[0][0, 0]
    y_mc = traj_mc.y[0][:, 0].mean()
    assert y_mc == pytest.approx(y_lat, rel=0.05)


def test_fbsde_config_validation():
    with pytest.raises(ValueError):
        FbsdeConfig(max_picard=0)
    with pytest.raises(ValueError):
        FbsdeConfig(damping=0.0)
    with pytest.raises(ValueError):
        FbsdeConfig(tol=-1.0)
