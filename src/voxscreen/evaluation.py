"""Stratified k-fold evaluation: folds, confusion metrics, ROC/AUC,
and report assembly with Table-style mean +/- std cells."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyEvaluationError,
    InsufficientClassCountError,
    LengthMismatchError,
    SingleClassDataError,
)
from .forkmap import fork_map
from .learners.models import MODELS

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "ppv", "npv")
DEFAULT_THRESHOLD = 0.5
DEFAULT_FOLDS = 10


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray  # example index -> fold index

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def stratified_folds(labels, k: int = DEFAULT_FOLDS, seed: int = 0) -> FoldPlan:
    """Shuffle within each class, deal round-robin into k folds.

    Keeps per-fold class counts within one of perfect balance, the
    stratification the screening protocol requires.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ConfigError(f"k={k}: cross-validation needs at least 2 folds")
    assignments = np.full(len(labels), -1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if len(members) < k:
            raise InsufficientClassCountError(
                f"class {cls} has {len(members)} examples, fewer than k={k}")
        shuffled = rng.permutation(members)
        assignments[shuffled] = np.arange(len(shuffled)) % k
    return FoldPlan(k=k, assignments=assignments)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_at_threshold(scores, labels) -> ConfusionCounts:
    """Predict positive iff score >= DEFAULT_THRESHOLD, then count outcomes."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(scores) != len(labels):
        raise LengthMismatchError(f"{len(scores)} scores vs {len(labels)} labels")
    pred = scores >= DEFAULT_THRESHOLD
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def metrics(c: ConfusionCounts) -> dict[str, float | None]:
    """The five screening metrics; undefined ratios come back as None."""
    if c.total == 0:
        raise EmptyEvaluationError("no examples evaluated")

    def ratio(num, den):
        return num / den if den else None

    return {
        "accuracy": (c.tp + c.tn) / c.total,
        "sensitivity": ratio(c.tp, c.tp + c.fn),
        "specificity": ratio(c.tn, c.tn + c.fp),
        "ppv": ratio(c.tp, c.tp + c.fp),
        "npv": ratio(c.tn, c.tn + c.fn),
    }


@dataclass(frozen=True)
class RocCurve:
    points: np.ndarray  # [(fpr, tpr)] from (0,0) to (1,1)
    thresholds: np.ndarray  # threshold producing each point; +inf first
    auc: float


def roc_auc(scores, labels) -> RocCurve:
    """Threshold sweep over the distinct scores, descending: one point per
    run of equal sorted scores (Fawcett 2006, Algorithm 2), named by the
    run's first score. A NaN equals nothing, so each one is its own run.

    The trapezoidal area equals the pairwise estimate
    P(score+ > score-) + 0.5 P(tie) exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(scores) != len(labels):
        raise LengthMismatchError(f"{len(scores)} scores vs {len(labels)} labels")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassDataError("ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.append(True, s[1:] != s[:-1]))
    ends = np.append(starts[1:], len(s))
    tp = np.cumsum(labels[order] == 1)[ends - 1]
    fp = ends - tp
    pts = np.vstack([(0.0, 0.0), np.column_stack([fp / n_neg, tp / n_pos])])
    auc = float(np.trapezoid(pts[:, 1], pts[:, 0]))
    return RocCurve(points=pts, thresholds=np.append(np.inf, s[starts]), auc=auc)


@dataclass
class EvaluationReport:
    """Per-fold metrics plus pooled ROC and aggregate cells."""

    k: int
    seed: int
    recipe: dict
    fold_metrics: list[dict[str, float | None]]
    fold_aucs: list[float]
    pooled_roc: RocCurve
    confusions: list[ConfusionCounts]
    fingerprint: str
    pooled_scores: np.ndarray  # out-of-fold, example order

    def aggregate(self) -> dict[str, tuple[float, float] | None]:
        """Mean and population std of each metric over defined folds."""
        out = {}
        for name in METRIC_NAMES:
            vals = [m[name] for m in self.fold_metrics if m[name] is not None]
            out[name] = (float(np.mean(vals)), float(np.std(vals))) if vals else None
        return out

    def cells(self) -> dict[str, str]:
        """Two-decimal "m±s" strings, the table format of the write-up."""
        return {name: "undefined" if agg is None else f"{agg[0]:.2f}±{agg[1]:.2f}"
                for name, agg in self.aggregate().items()}

    def document(self) -> dict:
        """The report as report.json holds it."""
        return {
            "fingerprint": self.fingerprint,
            "recipe": self.recipe,
            "k": self.k,
            "seed": self.seed,
            "folds": [{"metrics": m, "auc": auc,
                       "confusion": {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn}}
                      for m, auc, c in zip(self.fold_metrics, self.fold_aucs, self.confusions)],
            "aggregate": {k: (list(v) if v else None)
                          for k, v in self.aggregate().items()},
            "cells": self.cells(),
            "pooled_auc": self.pooled_roc.auc,
            "mean_fold_auc": float(np.mean(self.fold_aucs)),
        }

    def to_json(self) -> str:
        return json.dumps(self.document(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        return report_text(self.document())

    def roc_csv(self) -> str:
        rows = zip(self.pooled_roc.thresholds, self.pooled_roc.points)
        return "".join(["threshold,fpr,tpr\n", *(f"{t},{fpr},{tpr}\n" for t, (fpr, tpr) in rows)])


def report_text(doc: dict) -> str:
    """The text form of a report document: report.txt, and what cv and report print."""
    return "\n".join([f"fingerprint: {doc['fingerprint']}",
                      f"recipe: {json.dumps(doc['recipe'], sort_keys=True)}",
                      f"k={doc['k']} seed={doc['seed']}",
                      *(f"{name}: {doc['cells'][name]}" for name in METRIC_NAMES),
                      f"pooled AUC: {doc['pooled_auc']:.4f}",
                      f"mean fold AUC: {doc['mean_fold_auc']:.4f}"])


def config_fingerprint(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


def cross_validate(features, labels, recipe: dict, k: int = DEFAULT_FOLDS,
                   seed: int = 0, fit_fn=None) -> EvaluationReport:
    """Stratified k-fold protocol over pre-extracted features.

    features is one array with an example per row: [n, d] vectors or
    [n, h, w] gray planes. For each fold a fresh model (and scaler, where
    the recipe uses one) is fitted on the train rows only and scores the
    held-out rows; fitting never sees a test row. fit_fn(features, labels,
    seed) must return an object with score_batch(features) -> scores in
    [0, 1]; when omitted the recipe is resolved through the pipeline registry.

    When the recipe's model kind pools its folds (ModelSpec.pooled), the
    folds train in up to min(k, usable CPUs) forked worker processes, each
    with one BLAS thread (forkmap.fork_map). The report is built from their
    scores in fold order, so its bytes are those of the serial loop, which
    a process on one CPU or without fork runs.
    """
    features = np.asarray(features)
    labels = np.asarray(labels)
    if len(features) != len(labels):
        raise LengthMismatchError(f"{len(features)} features vs {len(labels)} labels")
    if fit_fn is None:
        from .pipeline import resolve_recipe
        fit_fn = resolve_recipe(recipe)

    plan = stratified_folds(labels, k=k, seed=seed)

    def fold_scores(fold: int) -> np.ndarray:
        """Fit on every row outside the fold, seeded seed + fold; score the fold's rows."""
        train_ids = plan.train_indices(fold)
        model = fit_fn(features[train_ids], labels[train_ids], seed + fold)
        return np.asarray(model.score_batch(features[plan.test_indices(fold)]))
    all_scores = fork_map(fold_scores, range(k), "fold",
                          getattr(MODELS.get(recipe.get("model")), "pooled", False))
    fold_metrics, fold_aucs, confusions = [], [], []
    pooled_scores = np.zeros(len(labels))
    for fold, scores in enumerate(all_scores):
        test_ids = plan.test_indices(fold)
        pooled_scores[test_ids] = scores
        conf = confusion_at_threshold(scores, labels[test_ids])
        confusions.append(conf)
        fold_metrics.append(metrics(conf))
        fold_aucs.append(roc_auc(scores, labels[test_ids]).auc)

    fingerprint = config_fingerprint(
        {"recipe": recipe, "k": k, "seed": seed, "n": len(labels),
         "labels_sha": hashlib.sha256(labels.tobytes()).hexdigest()[:8]})
    return EvaluationReport(
        k=k, seed=seed, recipe=recipe,
        fold_metrics=fold_metrics, fold_aucs=fold_aucs,
        pooled_roc=roc_auc(pooled_scores, labels),
        confusions=confusions, fingerprint=fingerprint,
        pooled_scores=pooled_scores,
    )
