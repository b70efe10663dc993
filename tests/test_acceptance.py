"""Acceptance gates for the whole toolkit.

Each test is one numbered criterion and prints a single PASS line when
it holds; tolerances are pinned here, not tuned elsewhere. Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

import oracles
from gradcheck import gelu_grad, max_relative_error, numeric_grad, sigmoid_grad

from voxscreen.audio_io import AudioClip, synth_clip
from voxscreen.datasets import (
    apply_cohort,
    generate_synthetic_corpus,
    parse_manifest,
)
from voxscreen.dsp import FrameParams, mfcc, mfcc_mean_vector, stft_power
from voxscreen.encoder import EncoderConfig, encoder_apply, encoder_output_length
from voxscreen.evaluation import cross_validate, roc_auc, stratified_folds
from voxscreen.learners import kkt_violations, smo_solve, train_logreg
from voxscreen.learners.cnn import CnnConfig, cnn_backward, cnn_forward, init_cnn_params
from voxscreen.learners.layers import (
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
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
from voxscreen.learners.lstm import (
    LstmConfig,
    init_lstm_params,
    lstm_backward,
    lstm_loss_grad,
)
from voxscreen.pipeline import extract_matrix, feature_from_matrix, load_clip
from voxscreen.render import fit_standardizer

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_mfcc_seed7.json"
GRAD_TOL = 1e-4


def report(criterion: int, text: str):
    print(f"[CRITERION {criterion}] PASS: {text}")


# --- gate corpus shared by criteria 7 and 9 ---

@pytest.fixture(scope="module")
def gate_data(tmp_path_factory):
    """200-clip synthetic corpus (100/100, seed 1) and its features."""
    t0 = time.time()
    root = tmp_path_factory.mktemp("gate")
    text = generate_synthetic_corpus(100, 100, seed=1, out_dir=root,
                                     duration_s=2.0)
    examples = parse_manifest(text)
    labels = np.array([ex.label for ex in examples])
    clips = [load_clip((root / ex.clip_path).read_bytes()) for ex in examples]
    vectors = [feature_from_matrix(extract_matrix(c, "mfcc_vector"), "mfcc_vector")
               for c in clips]
    images = [feature_from_matrix(extract_matrix(c, "melspec_image"), "melspec_image")
              for c in clips]
    return {"labels": labels, "vectors": vectors, "images": images,
            "prep_seconds": time.time() - t0}


def test_criterion_1_dsp_oracle_suite():
    """Fast STFT vs naive DFT on 100 random frames; Parseval; < 30 s."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    sizes = [64, 128, 256, 512, 1024, 2048, 4096]
    for _ in range(100):
        n = int(rng.choice(sizes))
        x = rng.uniform(-1.0, 1.0, n)
        p = FrameParams(frame_length=n, hop_length=n, centered=False)
        fast = stft_power(AudioClip(x, 16000), p)[0]
        naive = oracles.naive_dft_power(x * oracles.hann_periodic(n))
        assert np.max(np.abs(fast - naive)) <= 1e-6 * naive.max()

        wx = x * oracles.hann_periodic(n)
        lhs = np.sum(wx ** 2)
        rhs = np.sum(np.abs(np.fft.fft(wx)) ** 2) / n
        assert abs(lhs - rhs) <= 1e-6 * lhs
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(1, f"100 frames match the DFT oracle and Parseval in {elapsed:.1f}s")


def test_criterion_2_golden_mfcc():
    """Mean MFCC of the fixed clip matches the checked-in oracle vector."""
    golden = np.array(json.loads(GOLDEN.read_text())["mean_mfcc"])
    clip = synth_clip(0, 7, 1.0)
    vec = mfcc_mean_vector(mfcc(clip))
    worst = np.max(np.abs(vec - golden))
    assert vec.shape == (40,) and worst <= 1e-5
    # the oracle itself still reproduces its frozen output
    again = oracles.reference_mean_mfcc(clip.samples, clip.sample_rate)
    assert np.max(np.abs(again - golden)) <= 1e-9
    report(2, f"golden 40-dim vector matched, worst |diff| {worst:.2e}")


def test_criterion_3_gradient_checks():
    """Every layer and loss beats 1e-4 relative error; < 60 s total."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = {}

    def check(name, analytic, f, x):
        err = max_relative_error(analytic, numeric_grad(f, x))
        worst[name] = err
        assert err < GRAD_TOL, f"{name}: {err:.2e}"

    x = rng.normal(size=9)
    check("sigmoid", sigmoid_grad(sigmoid(x)), lambda v: sigmoid(v).sum(), x)
    x = rng.normal(size=9) + 0.05
    check("relu", relu_grad(x), lambda v: relu(v).sum(), x)
    x = rng.normal(size=9)
    check("gelu", gelu_grad(x), lambda v: gelu(v).sum(), x)

    x = rng.normal(size=(3, 4))
    r = rng.normal(size=(3, 4))
    p = softmax(x)
    analytic = p * (r - np.sum(p * r, axis=1, keepdims=True))
    check("softmax", analytic, lambda v: np.sum(softmax(v) * r), x)

    xd = rng.normal(size=(4, 5))
    wd = rng.normal(size=(5, 3))
    bd = rng.normal(size=3)
    gd = rng.normal(size=(4, 3))
    gx, gw, gb = dense_backward(xd, wd, gd)
    check("dense_x", gx, lambda v: np.sum(dense_forward(v, wd, bd) * gd), xd)
    check("dense_w", gw, lambda v: np.sum(dense_forward(xd, v, bd) * gd), wd)
    check("dense_b", gb, lambda v: np.sum(dense_forward(xd, wd, v) * gd), bd)

    xc = rng.normal(size=(2, 6, 6, 2))
    wc = rng.normal(size=(3, 3, 2, 3))
    bc = rng.normal(size=3)
    gc = rng.normal(size=(2, 4, 4, 3))
    _, cols = conv2d_forward(xc, wc, bc)
    cgx, cgw, cgb = conv2d_backward(xc.shape, wc, cols, gc)
    check("conv_x", cgx, lambda v: np.sum(conv2d_forward(v, wc, bc)[0] * gc), xc)
    check("conv_w", cgw, lambda v: np.sum(conv2d_forward(xc, v, bc)[0] * gc), wc)
    check("conv_b", cgb, lambda v: np.sum(conv2d_forward(xc, wc, v)[0] * gc), bc)

    xp = rng.normal(size=(2, 6, 6, 2))
    gp = rng.normal(size=(2, 3, 3, 2))
    _, cache = maxpool2_forward(xp)
    check("maxpool", maxpool2_backward(cache, gp),
          lambda v: np.sum(maxpool2_forward(v)[0] * gp), xp)

    xdrop = rng.normal(size=(4, 4))
    _, mask = dropout_forward(xdrop, 0.5, np.random.default_rng(0), True)
    rdrop = rng.normal(size=(4, 4))
    check("dropout", mask * rdrop, lambda v: np.sum(v * mask * rdrop), xdrop)

    logits = rng.normal(size=(5, 2))
    onehot = np.eye(2)[rng.integers(0, 2, 5)]
    check("cross_entropy", softmax_cross_entropy(logits, onehot)[1],
          lambda v: softmax_cross_entropy(v, onehot)[0], logits)
    pred = rng.uniform(0.1, 0.9, size=7)
    target = rng.integers(0, 2, 7).astype(float)
    check("mae", mae_loss(pred, target)[1],
          lambda v: mae_loss(v, target)[0], pred)

    # reduced whole-model clones
    cfg = CnnConfig(filters1=3, filters2=4, kernel=2, dropout=0.0)
    xi = rng.normal(size=(2, 8, 8, 3))
    oh = np.eye(2)[[0, 1]]
    params = init_cnn_params((8, 8, 3), cfg, rng)
    logits, cache = cnn_forward(params, xi, cfg, training=False, rng=None)
    _, dlog = softmax_cross_entropy(logits, oh)
    grads = cnn_backward(params, cache, dlog)
    for name in params:
        def f_cnn(v, n=name):
            lg, _ = cnn_forward({**params, n: v}, xi, cfg, False, None)
            return softmax_cross_entropy(lg, oh)[0]
        check(f"cnn.{name}", grads[name], f_cnn, params[name])

    lcfg = LstmConfig(hidden=3, dense=4, dropout=0.0)
    xs = rng.normal(size=(3, 5, 2))
    ys = np.array([0.0, 1.0, 1.0])
    lparams = init_lstm_params(2, lcfg, rng)
    _, lcache, dz2 = lstm_loss_grad(lparams, xs, ys, lcfg, True, None)
    lgrads = lstm_backward(lparams, lcache, dz2, lcfg)
    for name in lparams:
        def f_lstm(v, n=name):
            return lstm_loss_grad({**lparams, n: v}, xs, ys, lcfg, False, None)[0]
        check(f"lstm.{name}", lgrads[name], f_lstm, lparams[name])

    elapsed = time.time() - t0
    assert elapsed < 60.0
    peak = max(worst.values())
    report(3, f"{len(worst)} checks, worst rel err {peak:.2e}, {elapsed:.1f}s")


def test_criterion_4_auc_equivalence():
    """Trapezoidal AUC equals the pairwise estimate within 1e-12."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 201))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        if trial % 2:
            scores = rng.choice(np.linspace(0, 1, 5), size=n)  # tie-heavy
        else:
            scores = rng.uniform(size=n)
        fast = roc_auc(scores, labels).auc
        brute = oracles.pairwise_auc(scores, labels)
        worst = max(worst, abs(fast - brute))
        assert abs(fast - brute) <= 1e-12
    report(4, f"50 score sets, worst |trapezoid - pairwise| {worst:.1e}")


def test_criterion_5_stratification():
    """Per-fold class counts within 1 of balance on 1000 random triples."""
    rng = np.random.default_rng(404)
    for _ in range(1000):
        k = int(rng.integers(2, 12))
        n_pos = int(rng.integers(k, 120))
        n_neg = int(rng.integers(k, 120))
        labels = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        folds = stratified_folds(labels, k=k, seed=int(rng.integers(1 << 31)))
        for fold in range(k):
            test = folds == fold
            assert abs(int(np.sum(labels[test] == 1)) - n_pos / k) < 1.0
            assert abs(int(np.sum(labels[test] == 0)) - n_neg / k) < 1.0

    labels = np.array([1] * 308 + [0] * 585)
    folds = stratified_folds(labels, k=10, seed=0)
    pos_counts = sorted(int(np.sum(labels[folds == f] == 1))
                        for f in range(10))
    assert set(pos_counts) == {30, 31}
    report(5, "1000 random triples balanced; 308/585 folds hold {30,31} positives")


def test_criterion_6_encoder_geometry():
    """49 frames from one second, 20 ms framerate, shape oracle agrees."""
    assert encoder_output_length(16000) == 49
    cfg = EncoderConfig()
    assert math.prod(cfg.strides) == 320
    assert 320 / 16000 == 0.02  # seconds per output frame
    small = EncoderConfig(channels=8)
    rng = np.random.default_rng(505)
    for n in rng.integers(400, 8000, size=20):
        clip = AudioClip(rng.uniform(-1, 1, int(n)), 16000)
        feats = encoder_apply(clip, small)
        assert feats.shape[0] == oracles.conv_stack_length(
            int(n), small.kernels, small.strides)
        assert feats.shape[1] == small.channels
    report(6, "output length 49 at 16 kHz (20 ms frames); 20 shapes match oracle")


def test_criterion_7_end_to_end_gates(gate_data):
    """Four model gates on the 200-clip corpus, twice, within 10 minutes."""
    t0 = time.time()
    labels = gate_data["labels"]
    vectors = gate_data["vectors"]
    images = gate_data["images"]

    gates = [
        ("logreg", vectors, {"model": "logreg", "feature": "mfcc_vector"}, 0.95),
        ("svm", vectors, {"model": "svm", "feature": "mfcc_vector",
                          "hyper": {"gamma": 0.001}}, 0.90),
        ("lstm", vectors, {"model": "lstm", "feature": "mfcc_vector",
                           "hyper": {"epochs": 30}}, 0.85),
        ("cnn", images, {"model": "cnn", "feature": "melspec_image",
                         "hyper": {"epochs": 3}}, 0.90),
    ]
    aucs = {}
    for name, feats, recipe, floor in gates:
        first = cross_validate(feats, labels, recipe, k=10, seed=1)
        second = cross_validate(feats, labels, recipe, k=10, seed=1)
        assert first.to_json() == second.to_json(), f"{name} not deterministic"
        pooled = first.pooled_roc.auc
        # confirm the reported number against the brute-force estimate
        oracle_auc = oracles.pairwise_auc(first.pooled_scores, labels)
        assert abs(pooled - oracle_auc) <= 1e-12
        assert pooled >= floor, f"{name}: pooled AUC {pooled:.3f} < {floor}"
        aucs[name] = pooled

    elapsed = gate_data["prep_seconds"] + (time.time() - t0)
    assert elapsed < 600.0
    summary = ", ".join(f"{k} {v:.3f}" for k, v in aucs.items())
    report(7, f"pooled AUCs {summary}; twice each in {elapsed:.0f}s")


def test_criterion_8_leakage_canary():
    """Label-copy feature leaks (AUC >= 0.99); noise stays in [0.4, 0.6].

    n sized so the null AUC's sampling deviation (~0.02 here) sits far
    inside the +/-0.1 band for every seed.
    """
    n = 800
    base_labels = np.array([0, 1] * (n // 2))
    recipe = {"model": "logreg", "feature": "mfcc_vector",
              "hyper": {"epochs": 120}}
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        noise = rng.normal(size=(n, 4))
        leak = list(np.column_stack([noise, base_labels]))
        leak_report = cross_validate(leak, base_labels, recipe, k=10, seed=seed)
        assert leak_report.pooled_roc.auc >= 0.99
        blank = list(np.column_stack([noise, rng.normal(size=n)]))
        blank_report = cross_validate(blank, base_labels, recipe, k=10, seed=seed)
        assert 0.4 <= blank_report.pooled_roc.auc <= 0.6
    report(8, "label canary >= 0.99 and noise canary in [0.4, 0.6] for 10 seeds")


def test_criterion_9_svm_kkt_audit(gate_data):
    """Zero KKT violations at tol 1e-3 on the synthetic vectors."""
    labels = gate_data["labels"]
    rows = fit_standardizer(np.stack(gate_data["vectors"])).apply(
        np.stack(gate_data["vectors"]))
    y = np.where(labels == 1, 1.0, -1.0)
    alphas, bias, converged = smo_solve(rows, y, C=1.0, gamma=0.001,
                                        tol=1e-3, max_passes=200)
    assert converged
    bad = kkt_violations(rows, y, alphas, bias, C=1.0, gamma=0.001, tol=1e-3)
    drift = abs(float((alphas * y).sum()))
    assert bad == []
    assert drift <= 1e-9
    report(9, f"0 KKT violations on 200 rows; |sum alpha_i y_i| = {drift:.1e}")


def test_criterion_10_cohort_arithmetic():
    """Paper-shaped manifest: 141 positives survive the 14-day filter;
    the cold-symptom cohort holds 308 + 216 = 524 rows."""
    lines = ["path,label,symptoms,test_delay_days,hospitalized"]
    for i in range(308):
        delay = 3 if i < 141 else 21
        lines.append(f"p{i}.wav,1,fever,{delay},")
    for i in range(585):
        tag = "wet_cough" if i < 216 else "headache"
        lines.append(f"n{i}.wav,0,{tag},,")
    examples = parse_manifest("\n".join(lines) + "\n")
    assert len(examples) == 893

    recent = apply_cohort(examples, "positives_within_days:14")
    assert sum(e.label for e in recent) == 141
    assert sum(1 - e.label for e in recent) == 585

    cold = apply_cohort(examples, "covid_vs_cold_symptomatic")
    assert len(cold) == 524
    assert sum(e.label for e in cold) == 308
    report(10, "141 positives within 14 days; cold cohort = 308 + 216 = 524")
