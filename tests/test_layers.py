"""Finite-difference verification of every differentiable block, and
max-pool's, sigmoid's and the conv input gradient's byte equality with
their first-written forms."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import oracles
from gradcheck import gelu_grad, max_relative_error, numeric_grad, sigmoid_grad
import voxscreen
from voxscreen.learners.layers import (
    bce_from_logits,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    gelu,
    mae_loss,
    maxpool2_backward,
    maxpool2_forward,
    relu,
    relu_grad,
    sigmoid,
    softmax,
    softmax_cross_entropy,
)

TOL = 1e-4
RNG = np.random.default_rng(42)


def assert_grad(analytic, f, x, tol=TOL):
    err = max_relative_error(analytic, numeric_grad(f, x))
    assert err < tol, f"max relative error {err:.3e}"


class TestActivations:
    def test_sigmoid_grad(self):
        x = RNG.normal(size=11)
        assert_grad(sigmoid_grad(sigmoid(x)),
                    lambda v: sigmoid(v).sum(), x)

    def test_sigmoid_extremes_stable(self):
        y = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(y))
        assert y[1] == 0.5

    def test_sigmoid_bytes_match_masked_form(self):
        """Equal to the masked and the np.where forms (tests/oracles.py) on
        edges, wide normals, the LSTM's stacked [2, 32, 256] gate block and a
        0-d input; nan bytes equal the np.where form's."""
        edges = [0.0, np.inf, 5e-324, 1e-300, 710.0, 745.0]
        edges = np.array(edges + [-v for v in edges] + [-746.0])
        rng = np.random.default_rng(21)
        cases = [edges] + [rng.normal(0.0, s, 200_000) for s in (0.01, 1, 10, 100, 1000)]
        cases += [rng.normal(0.0, 3.0, (2, 32, 256)), np.asarray(-0.75), np.asarray(2.5)]
        for x in cases:
            got = sigmoid(x)
            for oracle in (oracles.sigmoid, oracles.sigmoid_where):
                want = oracle(x)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        nans = np.array([np.nan, -np.nan])
        assert np.isnan(sigmoid(nans)).all()
        assert sigmoid(nans).tobytes() == oracles.sigmoid_where(nans).tobytes()

    def test_relu_grad(self):
        x = RNG.normal(size=13) + 0.05  # keep away from the kink
        assert_grad(relu_grad(x), lambda v: relu(v).sum(), x)

    def test_gelu_grad(self):
        x = RNG.normal(size=13)
        assert_grad(gelu_grad(x), lambda v: gelu(v).sum(), x)

    def test_gelu_at_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_softmax_rows_sum_to_one(self):
        p = softmax(RNG.normal(size=(6, 4)))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestDense:
    def test_gradients(self):
        x = RNG.normal(size=(4, 5))
        w = RNG.normal(size=(5, 3))
        b = RNG.normal(size=3)
        grad_out = RNG.normal(size=(4, 3))

        def loss(x_, w_, b_):
            return np.sum(dense_forward(x_, w_, b_) * grad_out)

        gx, gw, gb = dense_backward(x, w, grad_out)
        assert_grad(gx, lambda v: loss(v, w, b), x)
        assert_grad(gw, lambda v: loss(x, v, b), w)
        assert_grad(gb, lambda v: loss(x, w, v), b)


class TestConv2d:
    def test_gradients(self):
        x = RNG.normal(size=(2, 6, 7, 3))
        w = RNG.normal(size=(3, 3, 3, 4))
        b = RNG.normal(size=4)
        grad_out = RNG.normal(size=(2, 4, 5, 4))

        def loss(x_, w_, b_):
            return np.sum(conv2d_forward(x_, w_, b_)[0] * grad_out)

        _, cols = conv2d_forward(x, w, b)
        gx, gw, gb = conv2d_backward(x.shape, w, cols, grad_out)
        assert_grad(gx, lambda v: loss(v, w, b), x)
        assert_grad(gw, lambda v: loss(x, v, b), w)
        assert_grad(gb, lambda v: loss(x, w, v), b)

    def test_known_value(self):
        """3x3 all-ones kernel over an index grid = local sum."""
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        w = np.ones((3, 3, 1, 1))
        out, _ = conv2d_forward(x, w, np.zeros(1))
        assert out[0, 0, 0, 0] == x[0, :3, :3, 0].sum()
        assert out[0, 1, 1, 0] == x[0, 1:4, 1:4, 0].sum()


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out, _ = maxpool2_forward(x)
        assert out[0, :, :, 0].tolist() == [[5, 7], [13, 15]]

    def test_odd_sizes_cropped(self):
        x = RNG.normal(size=(1, 5, 7, 2))
        out, _ = maxpool2_forward(x)
        assert out.shape == (1, 2, 3, 2)

    def test_backward_gradient(self):
        x = RNG.normal(size=(2, 6, 6, 3))  # continuous values: no ties
        grad_out = RNG.normal(size=(2, 3, 3, 3))

        def loss(x_):
            return np.sum(maxpool2_forward(x_)[0] * grad_out)

        _, cache = maxpool2_forward(x)
        gx = maxpool2_backward(cache, grad_out)
        assert_grad(gx, loss, x)


POOL_KINDS = ("normal", "integers", "signed_zeros", "neg_inf")
POOL_SHAPES = ((2, 6, 8, 3), (2, 7, 9, 3), (3, 20, 22, 16), (2, 33, 31, 32),
               (2, 1, 6, 3), (2, 6, 1, 3), (1, 1, 1, 1))


def pool_case(kind, dtype, shape):
    """An input and an upstream gradient for the max-pool equivalence checks.

    integers, signed_zeros and neg_inf make ties the common case; the
    gradient mixes +0, -0 and normal draws.
    """
    rng = np.random.default_rng(0)
    if kind == "normal":
        x = rng.normal(size=shape)
    elif kind == "integers":
        x = rng.integers(-2, 3, size=shape).astype(np.float64)
    elif kind == "signed_zeros":
        x = rng.choice(np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]), size=shape)
    else:
        x = rng.choice(np.array([-np.inf, -np.inf, -np.inf, 0.0, -0.0, 2.0]), size=shape)
        x[:, :2, :2] = -np.inf  # every channel of the first block
    out_shape = (shape[0], shape[1] // 2, shape[2] // 2, shape[3])
    grad = rng.choice(np.array([0.0, -0.0, 1.0]), size=out_shape) * rng.normal(size=out_shape)
    return x.astype(dtype), grad.astype(dtype)


def assert_pool_matches_oracle(x, grad_out):
    """Output, winning-quadrant index and input gradient equal the first
    written forms byte for byte."""
    out, cache = maxpool2_forward(x)
    want, want_cache = oracles.maxpool2_forward(x)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tobytes() == want.tobytes()
    assert cache[0] == want_cache[0]
    assert cache[1].shape == want_cache[1].shape
    assert np.array_equal(cache[1], want_cache[1])
    grad_x = maxpool2_backward(cache, grad_out)
    want_grad = oracles.maxpool2_backward(want_cache, grad_out)
    assert grad_x.dtype == want_grad.dtype and grad_x.shape == want_grad.shape
    assert grad_x.tobytes() == want_grad.tobytes()


def check_every_pool_case():
    for dtype in (np.float32, np.float64):
        for kind in POOL_KINDS:
            for shape in POOL_SHAPES:
                assert_pool_matches_oracle(*pool_case(kind, dtype, shape))


class TestMaxPoolMatchesOldForm:
    """maxpool2_forward/backward against the stack + argmax forward and the
    zeros + np.where backward they replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", POOL_KINDS)
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_bytes_equal(self, dtype, kind, shape):
        assert_pool_matches_oracle(*pool_case(kind, dtype, shape))

    def test_cases_hold_ties_and_signed_zeros(self):
        x, grad = pool_case("signed_zeros", np.float64, (2, 6, 8, 3))
        assert np.any(np.signbit(x) & (x == 0)) and np.any(~np.signbit(x) & (x == 0))
        assert np.any(np.signbit(grad) & (grad == 0))
        _, (_, idx) = oracles.maxpool2_forward(x)
        assert set(np.unique(idx).tolist()) == {0, 1, 2, 3}

    def test_nan_block_pools_to_nan(self):
        x = RNG.normal(size=(2, 4, 6, 3))
        x[0, 1, 0, 2] = np.nan
        x[1, 2, 5, 0] = np.nan
        out, _ = maxpool2_forward(x)
        want, _ = oracles.maxpool2_forward(x)
        assert np.isnan(out[0, 0, 0, 2]) and np.isnan(out[1, 1, 2, 0])
        assert np.isnan(out).sum() == 2
        assert np.array_equal(out, want, equal_nan=True)

    def test_reduced_cpu_dispatch(self):
        """numpy picks its SIMD loops at run time: rerun every case with the
        AVX-512 loops disabled."""
        run_check("import test_layers; test_layers.check_every_pool_case()", REDUCED_DISPATCH)


# (x shape, w shape): conv1 and conv2 of the 150x150x3 network, a
# non-square kernel, a one-pixel output
CONV_CASES = (((2, 150, 150, 3), (3, 3, 3, 16)), ((4, 74, 74, 16), (3, 3, 16, 32)),
              ((3, 9, 11, 5), (2, 3, 5, 7)), ((2, 3, 3, 4), (3, 3, 4, 6)))


def conv_case(dtype, x_shape, w_shape):
    """Weights and an upstream gradient that, like max-pool's, is mostly +0
    with some -0 entries."""
    rng = np.random.default_rng(3)
    out_shape = (x_shape[0], x_shape[1] - w_shape[0] + 1, x_shape[2] - w_shape[1] + 1,
                 w_shape[3])
    grad = rng.normal(size=out_shape) * rng.choice(np.array([0.0, 0.0, -0.0, 1.0]),
                                                   size=out_shape)
    return rng.normal(size=w_shape).astype(dtype), grad.astype(dtype)


def check_every_conv_case():
    """conv2d_backward's grad_x, with its tap-order columns, equals the
    (c_in, kh, kw) form byte for byte."""
    for dtype in (np.float32, np.float64):
        for x_shape, w_shape in CONV_CASES:
            w, grad = conv_case(dtype, x_shape, w_shape)
            x = np.zeros(x_shape, dtype)
            grad_x = conv2d_backward(x_shape, w, conv2d_forward(x, w, np.zeros(w_shape[3]))[1],
                                     grad)[0]
            want = oracles.conv2d_grad_x(x_shape, w, grad)
            assert grad_x.dtype == want.dtype == dtype
            assert grad_x.tobytes() == want.tobytes(), (dtype, x_shape, w_shape)


REDUCED_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}


def usable_cpus(monkeypatch, n):
    """Make cross_validate see n usable CPUs on any machine: one gives the
    serial fold loop, two the fold pool of a pooled model kind."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def run_check(statement, extra_env, timeout=None):
    """Runs statement in a fresh interpreter in the tests directory with
    extra_env set; skips if numpy will not start under it. A run still going
    after timeout seconds is killed and fails the test."""
    tests_dir = pathlib.Path(__file__).parent
    src_dir = pathlib.Path(voxscreen.__file__).parent.parent
    env = dict(os.environ, **extra_env,
               PYTHONPATH=os.pathsep.join([str(tests_dir), str(src_dir)]))
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy refuses {extra_env}: " + probe.stderr.strip().splitlines()[-1])
    run = subprocess.run([sys.executable, "-c", statement], env=env,
                         capture_output=True, text=True, cwd=tests_dir, timeout=timeout)
    assert run.returncode == 0, run.stderr


class TestConvGradXMatchesOldForm:
    """grad_x from (kh, kw, c_in)-ordered columns against the (c_in, kh, kw)
    form it replaced (tests/oracles.py)."""

    def test_bytes_equal(self):
        check_every_conv_case()

    @pytest.mark.parametrize("extra_env", [ONE_BLAS_THREAD, REDUCED_DISPATCH],
                             ids=["one_blas_thread", "reduced_dispatch"])
    def test_bytes_equal_in_subprocess(self, extra_env):
        run_check("import test_layers; test_layers.check_every_conv_case()", extra_env)


class TestDropout:
    def test_inference_is_identity(self):
        x = RNG.normal(size=(5, 5))
        out, mask = dropout_forward(x, 0.4, None, training=False)
        assert out is x and mask is None

    def test_expected_output_matches_input(self):
        """Inverted scaling keeps the mean within 1% over 1e4 draws."""
        rng = np.random.default_rng(7)
        x = np.ones((100, 100))  # 1e4 elements
        total = np.zeros_like(x)
        n_draws = 40
        for _ in range(n_draws):
            out, _ = dropout_forward(x, 0.25, rng, training=True)
            total += out
        assert abs(total.mean() / n_draws - 1.0) < 0.01

    def test_backward_uses_mask(self):
        rng = np.random.default_rng(8)
        x = RNG.normal(size=(4, 4))
        out, mask = dropout_forward(x, 0.5, rng, training=True)
        grad = dropout_backward(mask, np.ones_like(x))
        assert np.array_equal(grad, mask)


class TestLosses:
    def test_softmax_cross_entropy_grad(self):
        logits = RNG.normal(size=(5, 2))
        onehot = np.eye(2)[RNG.integers(0, 2, 5)]
        loss, grad = softmax_cross_entropy(logits, onehot)
        assert loss > 0
        assert_grad(grad, lambda v: softmax_cross_entropy(v, onehot)[0], logits)

    def test_mae_grad(self):
        pred = RNG.uniform(0.1, 0.9, size=7)
        target = RNG.integers(0, 2, size=7).astype(float)
        loss, grad = mae_loss(pred, target)
        assert_grad(grad, lambda v: mae_loss(v, target)[0], pred)

    def test_bce_grad(self):
        z = RNG.normal(size=9)
        y = RNG.integers(0, 2, size=9).astype(float)
        loss, grad = bce_from_logits(z, y)
        assert loss > 0
        assert_grad(grad, lambda v: bce_from_logits(v, y)[0], z)

    def test_bce_stable_for_large_logits(self):
        loss, grad = bce_from_logits(np.array([500.0, -500.0]),
                                     np.array([1.0, 0.0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
