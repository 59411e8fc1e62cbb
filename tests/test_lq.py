"""The LQ family's callbacks are its spec's algebra, written out in NumPy.

The finite-difference check compares a value with its own partials, so a
block swapped in both (drift.B read where drift.A belongs, say) passes it;
here every callback is compared with the formula of the spec it came from.
"""

import dataclasses

import numpy as np
import pytest

from fbsdegames import Dims, lq_to_problem, random_lq_spec

DIMS = Dims(3, 2, 2, 3, 1)  # n, m, d, k1, k2: dz = 4


def _affine(m, x, y, zv, u1, u2):
    return x @ m.A.T + y @ m.B.T + zv @ m.C.T + u1 @ m.D1.T + u2 @ m.D2.T + m.const


def _form(v, M):
    return 0.5 * np.einsum("si,ij,sj->s", v, M, v)


@pytest.mark.parametrize("linear_terminal", [False, True])
def test_callbacks_are_the_spec_algebra(linear_terminal):
    rng = np.random.default_rng(3)
    spec = random_lq_spec(7, DIMS)
    # player 2 without the z term: its l_z is zeros
    spec = dataclasses.replace(spec, cost2=dataclasses.replace(spec.cost2, S=0.0))
    if linear_terminal:
        spec = dataclasses.replace(spec, xi_linear=rng.uniform(-1.0, 1.0, (DIMS.m, DIMS.d)))
    problem = lq_to_problem(spec)
    S = 6
    x, y = rng.standard_normal((S, DIMS.n)), rng.standard_normal((S, DIMS.m))
    z = rng.standard_normal((S, DIMS.m, DIMS.d))
    u1, u2 = rng.standard_normal((S, DIMS.k1)), rng.standard_normal((S, DIMS.k2))
    bt = rng.standard_normal((S, DIMS.d))
    zv = z.reshape(S, DIMS.dz)
    args = {"x": x, "y": y, "z": zv, "u1": u1, "u2": u2}

    def rows(block):
        return np.broadcast_to(block, (S,) + block.shape)

    maps = {"b": spec.drift, "f": spec.driver}
    want = {name: _affine(m, x, y, zv, u1, u2) for name, m in maps.items()}
    want["sigma"] = np.stack([_affine(c, x, y, zv, u1, u2) for c in spec.diffusion], axis=-1)
    for v, attr in zip(args, ("A", "B", "C", "D1", "D2")):
        for name, m in maps.items():
            want[f"{name}_{v}"] = rows(getattr(m, attr))
        want[f"sigma_{v}"] = rows(np.stack([getattr(c, attr) for c in spec.diffusion]))
    for i, c, own, other in ((1, spec.cost1, u1, u2), (2, spec.cost2, u2, u1)):
        want[f"l{i}"] = (_form(x, c.Q) + _form(y, c.R) + 0.5 * c.S * (zv**2).sum(axis=1)
                         + _form(own, c.N) + _form(other, c.M))
        want[f"l{i}_x"], want[f"l{i}_y"], want[f"l{i}_z"] = x @ c.Q, y @ c.R, c.S * zv
        want[f"l{i}_u{i}"], want[f"l{i}_u{3 - i}"] = own @ c.N, other @ c.M
        want[f"phi{i}"], want[f"phi{i}_x"] = _form(x, c.G), x @ c.G
        want[f"h{i}"], want[f"h{i}_y"] = _form(y, c.H), y @ c.H

    callbacks = {f.name: getattr(group, f.name)
                 for group in (problem.coefficients, problem.costs)
                 for f in dataclasses.fields(group)}
    assert sorted(want) == sorted(callbacks)
    for name, fn in callbacks.items():
        if name.startswith("phi"):
            got = fn(x)
        elif name.startswith("h"):
            got = fn(y)
        else:
            got = fn(0.4, x, y, z, u1, u2)
        np.testing.assert_allclose(got, want[name], rtol=1e-13, atol=1e-13, err_msg=name)
        if name.split("_")[0] in ("b", "sigma", "f") and "_" in name:
            assert got.strides[0] == 0, name  # one Jacobian shared by every row
    assert not problem.costs.l2_z(0.4, x, y, z, u1, u2).any()

    xi = problem.xi(bt)
    expected = spec.xi + (bt @ spec.xi_linear.T if linear_terminal else 0.0)
    np.testing.assert_allclose(xi, np.broadcast_to(expected, (S, DIMS.m)), rtol=1e-13, atol=1e-13)
    if not linear_terminal:
        assert xi.strides[0] == 0 and not xi.flags.writeable


@pytest.mark.parametrize("layout", ["strided", "stride-0"])
def test_values_are_c_contiguous_whatever_the_input_strides(layout):
    # einsum rounds a contraction differently on differently strided
    # operands, so H_i is the same bit for bit only if b, sigma, f and l_i
    # hand it the same C-contiguous arrays however their inputs are laid out
    rng = np.random.default_rng(5)
    problem = lq_to_problem(random_lq_spec(7, DIMS))
    S = 64  # enough rows that a last-bit difference shows in the sums
    shapes = [(DIMS.n,), (DIMS.m,), (DIMS.m, DIMS.d), (DIMS.k1,), (DIMS.k2,)]
    if layout == "strided":
        # every other row and every other entry of the last axis, so that
        # z flattened is a view with strided columns
        args = [rng.standard_normal((2 * S,) + s[:-1] + (2 * s[-1],))[::2, ..., ::2]
                for s in shapes]
    else:
        args = [np.broadcast_to(rng.standard_normal(s), (S,) + s) for s in shapes]
    assert not any(a.flags.c_contiguous for a in args)
    contiguous = [np.ascontiguousarray(a) for a in args]
    for name in ("b", "sigma", "f", "l1", "l2"):
        fn = getattr(problem.coefficients, name, None) or getattr(problem.costs, name)
        got = fn(0.4, *args)
        assert got.flags.c_contiguous, name
        assert np.array_equal(got, fn(0.4, *contiguous)), name
