"""Adam optimizer contract."""

import numpy as np
import pytest

import oracles

from voxscreen.errors import NonFiniteGradientError, ShapeMismatchError
from voxscreen.learners import Adam


class TestAdamStep:
    def test_first_step_moves_by_lr(self):
        """Bias correction makes the first update -lr * g / (|g| + eps)."""
        opt = Adam(lr=1e-3)
        out = opt.step({"w": np.array([0.0])}, {"w": np.array([1.0])})
        assert abs(out["w"][0] + 1e-3) <= 1e-9

    def test_zero_gradient_no_move(self):
        opt = Adam()
        theta = np.array([1.5, -2.0])
        out = opt.step({"w": theta}, {"w": np.zeros(2)})
        assert np.array_equal(out["w"], theta)

    def test_sign_following_first_step(self):
        opt = Adam(lr=1e-3)
        g = np.array([3.0, -0.25, 1e-4])
        out = opt.step({"w": np.zeros(3)}, {"w": g})
        assert np.allclose(out["w"], -1e-3 * np.sign(g), atol=1e-6)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            opt = Adam()
            theta = {"w": np.zeros(4)}
            for _ in range(50):
                theta = opt.step(theta, {"w": rng.normal(size=4)})
            return theta["w"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Adam().step({"w": np.zeros(3)}, {"w": np.zeros(4)})

    def test_non_finite_gradient(self):
        with pytest.raises(NonFiniteGradientError):
            Adam().step({"w": np.zeros(2)}, {"w": np.array([np.nan, 0.0])})

    def test_converges_on_quadratic(self):
        opt = Adam(lr=0.05)
        theta = {"w": np.array([5.0, -3.0])}
        for _ in range(500):
            theta = opt.step(theta, {"w": 2.0 * theta["w"]})
        assert np.max(np.abs(theta["w"])) < 1e-3


def edge_gradient(rng, shape, dtype):
    """Random normals led by +0.0, -0.0, the smallest subnormal, the smallest
    normal and a large value whose square stays finite, in both signs."""
    info = np.finfo(dtype)
    g = rng.normal(size=shape).astype(dtype)
    edges = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
             info.tiny, -info.tiny, np.sqrt(info.max) / 2, -np.sqrt(info.max) / 2]
    g.flat[:len(edges)] = rng.permutation(np.array(edges, dtype=dtype))
    return g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_moments_from_zero_match_explicit_zero_arrays(dtype):
    """Moments read as the scalar 0.0 on a name's first step give the bytes of
    zero arrays of the parameter's dtype (tests/oracles.py), over 3 steps. The
    gradients share the parameter's dtype, as every trainer's do."""
    rng = np.random.default_rng(21)
    params = {"w": rng.normal(size=(3, 5)).astype(dtype), "b": rng.normal(size=9).astype(dtype)}
    got, want = dict(params), dict(params)
    opt, oracle = Adam(lr=1e-2), oracles.AdamZeroMoments(lr=1e-2)
    for _ in range(3):
        grads = {name: edge_gradient(rng, theta.shape, dtype) for name, theta in params.items()}
        got, want = opt.step(got, grads), oracle.step(want, grads)
        for name in params:
            for a, b in ((got[name], want[name]), (opt.m[name], oracle.m[name]),
                         (opt.v[name], oracle.v[name])):
                assert a.dtype == b.dtype == dtype, name
                assert a.tobytes() == b.tobytes(), name
