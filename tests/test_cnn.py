"""CNN classifier: softmax contract, chunked scoring, reduced gradient
check, training."""

import tracemalloc

import numpy as np
import pytest

import oracles
from gradcheck import max_relative_error, numeric_grad
from test_layers import ONE_BLAS_THREAD, REDUCED_DISPATCH, run_check

from voxscreen.errors import FeatureKindMismatchError, NonFiniteLossError, SingleClassDataError
from voxscreen.learners import train_cnn
from voxscreen.learners.cnn import (SCORE_CHUNK, CnnConfig, CnnModel, cnn_backward, cnn_forward,
                                    init_cnn_params)
from voxscreen.learners.layers import softmax, softmax_cross_entropy


def bright_half_images(rng, n, size=20):
    """Class 1 = bright top half, class 0 = bright bottom half."""
    images = np.zeros((n, size, size, 3))
    labels = rng.integers(0, 2, n)
    for i, lab in enumerate(labels):
        sl = slice(0, size // 2) if lab == 1 else slice(size // 2, size)
        images[i, sl, :, :] = 0.8
        images[i] += rng.uniform(0, 0.2, size=(size, size, 3))
    return images, labels


class TestCnnForward:
    def test_softmax_outputs_sum_to_one(self):
        rng = np.random.default_rng(0)
        cfg = CnnConfig(filters1=4, filters2=6)
        params = init_cnn_params((24, 24, 3), cfg, rng)
        x = rng.uniform(0, 1, (5, 24, 24, 3))
        logits, _ = cnn_forward(params, x, cfg, training=False, rng=None)
        probs = softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_class_scores_complement(self):
        rng = np.random.default_rng(1)
        cfg = CnnConfig(filters1=4, filters2=6)
        params = init_cnn_params((16, 16, 3), cfg, rng)
        x = rng.uniform(0, 1, (3, 16, 16, 3))
        logits, _ = cnn_forward(params, x, cfg, training=False, rng=None)
        probs = softmax(logits)
        assert np.allclose(probs[:, 1], 1.0 - probs[:, 0], atol=1e-12)

    @pytest.mark.parametrize("training", [False, True])
    def test_cache_holds_each_stage(self, training):
        """x, then each stage's im2col matrix, pool cache, dropout mask and
        output, then the flat features the dense layer read."""
        rng = np.random.default_rng(7)
        cfg = CnnConfig(filters1=4, filters2=6)
        params = init_cnn_params((21, 19, 3), cfg, rng)
        x = rng.uniform(-1, 1, (3, 21, 19, 3))
        logits, cache = cnn_forward(params, x, cfg, training, np.random.default_rng(8))
        assert len(cache) == 10 and cache[0] is x
        assert cache[1].shape == (3, 19, 17, 27) and cache[8].shape == (3, 3, 3, 6)
        assert (cache[3] is None) != training and (cache[7] is None) != training
        assert cache[9].shape == (3, 54)
        assert logits.tobytes() == (cache[9] @ params["wd"] + params["bd"]).tobytes()


# (input shape, fold sizes): sizes on and off the chunk multiple; the
# 150x150x3 screening input once
SCORE_CASES = (((26, 30, 3), (1, 3, 4, 5, 13)), ((150, 150, 3), (5,)))


def check_every_score_case():
    """CnnModel.scores, conv stages in chunks, equals the whole-fold form
    byte for byte on float64 and float32 folds."""
    assert SCORE_CHUNK == 4
    for shape, sizes in SCORE_CASES:
        rng = np.random.default_rng(11)
        cfg = CnnConfig()
        model = CnnModel(init_cnn_params(shape, cfg, rng), cfg)
        for n in sizes:
            planes = rng.uniform(0, 1, (n, *shape[:2]))
            for images in (np.broadcast_to(planes[..., None], (n, *shape)),  # as cv scores
                           rng.normal(size=(n, *shape)).astype(np.float32)):
                got = model.scores(images)
                want = oracles.cnn_scores(model.params, images)
                assert got.shape == (n,) and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (shape, n, images.dtype)


def traced_peak(model, images):
    """tracemalloc's peak, in bytes, while model scores images."""
    tracemalloc.start()
    try:
        model.scores(images)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedScores:
    """CnnModel.scores against the whole-fold cnn_forward it replaced
    (tests/oracles.py)."""

    def test_bytes_equal(self):
        check_every_score_case()

    @pytest.mark.parametrize("extra_env", [ONE_BLAS_THREAD, REDUCED_DISPATCH],
                             ids=["one_blas_thread", "reduced_dispatch"])
    def test_bytes_equal_in_subprocess(self, extra_env):
        run_check("import test_cnn; test_cnn.check_every_score_case()", extra_env)

    def test_peak_memory_flat_in_fold_size(self):
        """Scoring 32 images peaks less than one chunk's working set (the
        peak of scoring 4 images) above scoring 8; the whole-fold form grew
        by about 8 MB an image."""
        cfg = CnnConfig()
        shape = (150, 150, 3)
        model = CnnModel(init_cnn_params(shape, cfg, np.random.default_rng(12)), cfg)
        planes = np.random.default_rng(13).uniform(0, 1, (32, *shape[:2]))
        images = np.broadcast_to(planes[..., None], (32, *shape))
        chunk = traced_peak(model, images[:4])
        growth = traced_peak(model, images) - traced_peak(model, images[:8])
        assert growth < chunk, (growth, chunk)


class TestCnnGradients:
    @pytest.mark.parametrize("shape,kernel", [((8, 8, 3), 2), ((12, 12, 3), 3)])
    def test_reduced_clone_gradcheck(self, shape, kernel):
        """Whole-net backward vs central differences, dropout off."""
        rng = np.random.default_rng(2)
        cfg = CnnConfig(filters1=3, filters2=4, kernel=kernel, dropout=0.0)
        x = rng.normal(size=(2, *shape))
        onehot = np.eye(2)[[0, 1]]
        params = init_cnn_params(shape, cfg, rng)

        def loss_of(p):
            logits, _ = cnn_forward(p, x, cfg, training=False, rng=None)
            return softmax_cross_entropy(logits, onehot)[0]

        logits, cache = cnn_forward(params, x, cfg, training=False, rng=None)
        _, dlogits = softmax_cross_entropy(logits, onehot)
        grads = cnn_backward(params, cache, dlogits)
        for name in params:
            num = numeric_grad(lambda v, n=name: loss_of({**params, n: v}),
                               params[name])
            assert max_relative_error(grads[name], num) < 1e-4, name


class TestTrainCnn:
    def test_nan_input_stops_before_backward(self):
        images, _ = bright_half_images(np.random.default_rng(3), 4, size=12)
        images[2] = np.nan
        with pytest.raises(NonFiniteLossError, match=r"loss diverged at step 0: .*nan"):
            train_cnn(images, np.array([0, 1, 0, 1]), seed=0,
                      config=CnnConfig(filters1=2, filters2=2, epochs=1, batch=4))

    def test_bright_half_images_learned(self):
        """64 images, class = bright top vs bottom half, 100 epochs."""
        rng = np.random.default_rng(3)
        images, labels = bright_half_images(rng, 64)
        model = train_cnn(images, labels, seed=0,
                          config=CnnConfig(filters1=4, filters2=6, epochs=100, batch=32))
        acc = np.mean((model.scores(images) >= 0.5).astype(int) == labels)
        assert acc >= 0.95

    def test_final_loss_not_above_initial(self):
        rng = np.random.default_rng(4)
        images, labels = bright_half_images(rng, 32)
        onehot = np.eye(2)[labels]
        cfg = CnnConfig(filters1=4, filters2=6, epochs=30, batch=32)
        params0 = init_cnn_params(images.shape[1:], cfg,
                                  np.random.default_rng(0))
        logits0, _ = cnn_forward(params0, images, cfg, training=False, rng=None)
        initial = softmax_cross_entropy(logits0, onehot)[0]
        model = train_cnn(images, labels, seed=0, config=cfg)
        logits1, _ = cnn_forward(model.params, images, cfg, training=False, rng=None)
        final = softmax_cross_entropy(logits1, onehot)[0]
        assert final <= initial

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        images, labels = bright_half_images(rng, 16, size=12)
        a = train_cnn(images, labels, seed=9,
                      config=CnnConfig(filters1=3, filters2=4, epochs=3))
        b = train_cnn(images, labels, seed=9,
                      config=CnnConfig(filters1=3, filters2=4, epochs=3))
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataError):
            train_cnn(np.zeros((4, 12, 12, 3)), np.ones(4), seed=0, config=CnnConfig(epochs=1))

    def test_non_image_input_is_a_kind_mismatch(self):
        with pytest.raises(FeatureKindMismatchError, match=r"got \(4, 12, 12\)"):
            train_cnn(np.zeros((4, 12, 12)), np.array([0, 1, 0, 1]), seed=0,
                      config=CnnConfig(epochs=1))

    def test_full_input_shape_consistent(self):
        """Layer shapes line up for the 150x150x3 screening input."""
        rng = np.random.default_rng(6)
        cfg = CnnConfig()  # 16/32 filters, 3x3 kernel
        params = init_cnn_params((150, 150, 3), cfg, rng)
        assert params["w1"].shape == (3, 3, 3, 16)
        assert params["w2"].shape == (3, 3, 16, 32)
        assert params["wd"].shape == (36 * 36 * 32, 2)
        x = rng.uniform(0, 1, (1, 150, 150, 3))
        logits, _ = cnn_forward(params, x, cfg, training=False, rng=None)
        assert logits.shape == (1, 2)
