"""SMO solver: examples, KKT audit, invariances, thread-count bytes and
the equivalence to Platt's solver (tests/oracles.py)."""

import hashlib

import numpy as np
import pytest

import oracles
from test_layers import ONE_BLAS_THREAD, run_check

from voxscreen.datasets import generate_synthetic_corpus, parse_manifest
from voxscreen.errors import SingleClassDataError
from voxscreen.evaluation import cross_validate, stratified_folds
from voxscreen.features_io import stored_form
from voxscreen.learners import kkt_violations, smo_solve, svm, train_svm_smo
from voxscreen.pipeline import extract_matrix, feature_from_matrix, load_clip
from voxscreen.render import fit_standardizer

GAMMAS = (1e-4, 1e-3, 1e-2)


def blob_pair(rng, n_per, spread=0.5, gap=2.0):
    a = rng.normal([-gap, 0.0], spread, size=(n_per, 2))
    b = rng.normal([gap, 0.0], spread, size=(n_per, 2))
    rows = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return rows, labels


class TestSmo:
    def test_two_point_symmetry(self):
        model = train_svm_smo(np.array([[-1.0], [1.0]]), np.array([0, 1]),
                              gamma=0.5)
        assert abs(model.decision_values(np.array([[0.0]]))[0]) <= 1e-6

    def test_dual_equality_constraint(self):
        rng = np.random.default_rng(3)
        rows, labels = blob_pair(rng, 15, spread=1.2, gap=1.0)  # overlapping
        model = train_svm_smo(rows, labels, gamma=0.5)
        assert abs(model.dual_coefs.sum()) <= 1e-9

    def test_separable_40_points_kkt_clean(self):
        """Full KKT audit after convergence on a separable set."""
        rng = np.random.default_rng(4)
        rows, labels = blob_pair(rng, 20)
        y = np.where(labels == 1, 1.0, -1.0)
        alphas, b, converged = smo_solve(rows, y, C=1.0, gamma=0.5,
                                         tol=1e-3, max_passes=200)
        assert converged
        assert kkt_violations(rows, y, alphas, b, C=1.0, gamma=0.5) == []
        assert abs((alphas * y).sum()) <= 1e-9
        model = train_svm_smo(rows, labels, gamma=0.5)
        pred = (model.decision_values(rows) >= 0).astype(int)
        assert np.array_equal(pred, labels)
        margins = y * model.decision_values(rows)
        assert np.all(margins >= 1.0 - 1e-3)

    def test_row_order_invariance(self):
        """Permuted training data yields the same decision function.

        Solved tightly: the unique dual optimum is order-free, while a
        loose stop (the default screening tol) is only tol-close to it.
        """
        rng = np.random.default_rng(5)
        rows, labels = blob_pair(rng, 12, spread=0.9, gap=1.2)
        model_a = train_svm_smo(rows, labels, gamma=0.3, tol=1e-8,
                                max_passes=2000)
        perm = rng.permutation(len(rows))
        model_b = train_svm_smo(rows[perm], labels[perm], gamma=0.3, tol=1e-8,
                                max_passes=2000)
        probe = rng.normal(size=(25, 2))
        assert np.max(np.abs(model_a.decision_values(probe)
                             - model_b.decision_values(probe))) <= 1e-6
        sv_a = set(map(tuple, np.round(model_a.support_vectors, 9)))
        sv_b = set(map(tuple, np.round(model_b.support_vectors, 9)))
        assert sv_a == sv_b

    def test_alphas_within_box(self):
        rng = np.random.default_rng(6)
        rows, labels = blob_pair(rng, 20, spread=1.5, gap=0.8)
        y = np.where(labels == 1, 1.0, -1.0)
        alphas, _, _ = smo_solve(rows, y, C=1.0, gamma=0.5, tol=1e-3,
                                 max_passes=200)
        assert np.all(alphas >= 0.0) and np.all(alphas <= 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataError):
            train_svm_smo(np.zeros((4, 2)), np.zeros(4))

    def test_gate_gamma_on_standardized_features(self):
        """The screening configuration: gamma 0.001, C 1, 40-dim rows."""
        rng = np.random.default_rng(7)
        pos = rng.normal(0.4, 1.0, size=(30, 40))
        neg = rng.normal(-0.4, 1.0, size=(30, 40))
        rows = np.vstack([neg, pos])
        labels = np.array([0] * 30 + [1] * 30)
        model = train_svm_smo(rows, labels)  # defaults: C=1, gamma=0.001
        assert model.converged
        acc = np.mean((model.decision_values(rows) >= 0).astype(int) == labels)
        assert acc >= 0.9


def shifted_problem(seed):
    """180 rows of 40 standard normal features; the second 90, labelled +1,
    shifted by 0.3. Returns (rows, y in {-1, +1})."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(180, 40))
    y = np.repeat([-1.0, 1.0], 90)
    rows[y > 0] += 0.3
    return rows, y


@pytest.fixture(scope="module")
def gate_corpus(tmp_path_factory):
    """The features `cv` reads for `synth 100 100 --seed 7`: mfcc_vector in
    its stored float32 form, with the labels."""
    root = tmp_path_factory.mktemp("gate7")
    examples = parse_manifest(generate_synthetic_corpus(100, 100, seed=7, out_dir=root))
    feats = np.stack([feature_from_matrix(stored_form(extract_matrix(
        load_clip((root / ex.clip_path).read_bytes()), "mfcc_vector")).astype(np.float64),
        "mfcc_vector") for ex in examples])
    return feats, np.array([ex.label for ex in examples])


def gate_folds(gate_corpus):
    """The standardized training rows and y of each of `cv`'s 10 folds at seed 1."""
    feats, labels = gate_corpus
    plan = stratified_folds(labels, k=10, seed=1)
    for fold in range(10):
        ids = plan.train_indices(fold)
        yield fit_standardizer(feats[ids]).apply(feats[ids]), np.where(labels[ids] == 1, 1.0, -1.0)


def problems(gate_corpus):
    """(rows, y, gamma): six shifted problems at every gamma, and the gate
    folds at gamma 1e-4, where Platt's solver stopped with violations."""
    for seed in range(6):
        for gamma in GAMMAS:
            yield (*shifted_problem(seed), gamma)
    for rows, y in gate_folds(gate_corpus):
        yield rows, y, 1e-4


def test_converged_means_no_kkt_violation(gate_corpus):
    for rows, y, gamma in problems(gate_corpus):
        alphas, bias, converged = smo_solve(rows, y, C=1.0, gamma=gamma, tol=1e-3,
                                            max_passes=200)
        assert converged, gamma
        assert kkt_violations(rows, y, alphas, bias, C=1.0, gamma=gamma, tol=1e-3) == [], gamma


def test_dual_objective_no_lower_than_platt(gate_corpus):
    for rows, y, gamma in problems(gate_corpus):
        alphas = smo_solve(rows, y, C=1.0, gamma=gamma, tol=1e-3, max_passes=200)[0]
        platt = oracles.platt_smo_solve(rows, y, C=1.0, gamma=gamma, tol=1e-3,
                                        max_passes=200)[0]
        kernel = svm.rbf_gram(rows, rows, gamma)
        assert oracles.svm_dual_objective(kernel, y, alphas) \
            >= oracles.svm_dual_objective(kernel, y, platt) - 1e-3, gamma


@pytest.mark.parametrize("gamma", GAMMAS)
def test_gate_pooled_auc_matches_platt(gate_corpus, gamma, monkeypatch):
    feats, labels = gate_corpus
    recipe = {"model": "svm", "feature": "mfcc_vector", "hyper": {"gamma": gamma}}
    auc = cross_validate(feats, labels, recipe, k=10, seed=1).pooled_roc.auc
    monkeypatch.setattr(svm, "smo_solve", oracles.platt_smo_solve)
    assert abs(auc - cross_validate(feats, labels, recipe, k=10, seed=1).pooled_roc.auc) <= 0.01


def svm_digests():
    """sha256 of smo_solve's alphas and bias, and of the fitted model's
    decision values, on the first shifted problem at gamma 1e-2."""
    rows, y = shifted_problem(0)
    alphas, bias, _ = smo_solve(rows, y, C=1.0, gamma=1e-2, tol=1e-3, max_passes=200)
    model = train_svm_smo(rows, (y > 0).astype(int), gamma=1e-2)
    probe = np.random.default_rng(1).normal(size=(300, 40))
    return [hashlib.sha256(data).hexdigest() for data in (
        alphas.tobytes() + np.float64(bias).tobytes(),
        model.decision_values(probe).tobytes())]


def check_svm_bytes(expected):
    rows = shifted_problem(0)[0]
    kernel = svm.rbf_gram(rows, rows, 1e-2)
    assert np.array_equal(kernel, kernel.T)
    assert np.all(np.diagonal(kernel) == 1.0)
    assert svm_digests() == expected


def test_svm_bytes_ignore_the_blas_thread_count():
    """A fold on one BLAS thread, as in a worker, fits and scores the bytes
    this process does."""
    expected = svm_digests()
    check_svm_bytes(expected)
    run_check(f"import test_svm; test_svm.check_svm_bytes({expected!r})", ONE_BLAS_THREAD)
