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
)
from .forkmap import fork_map
from .learners.layers import binary_labels, training_labels
from .learners.models import MODELS

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "ppv", "npv")
DEFAULT_THRESHOLD = 0.5
DEFAULT_FOLDS = 10


def stratified_folds(labels, k: int = DEFAULT_FOLDS, seed: int = 0) -> np.ndarray:
    """Each example's fold in [0, k): shuffle within each class, deal round-robin.

    Keeps per-fold class counts within one of perfect balance, the
    stratification the screening protocol requires.
    """
    if k < 2:
        raise ConfigError(f"k={k}: cross-validation needs at least 2 folds")
    if seed < 0:
        raise ConfigError(f"seed={seed}: the fold shuffle needs a seed of 0 or more")
    labels = binary_labels(labels)
    folds = np.empty(len(labels), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if len(members) < k:
            raise InsufficientClassCountError(
                f"class {cls} has {len(members)} examples, fewer than k={k}")
        folds[rng.permutation(members)] = np.arange(len(members)) % k
    return folds


def confusion_at_threshold(scores, labels) -> dict[str, int]:
    """Predict positive iff score >= DEFAULT_THRESHOLD, then count outcomes."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = binary_labels(labels) == 1
    if len(scores) != len(pos):
        raise LengthMismatchError(f"{len(scores)} scores vs {len(pos)} labels")
    pred = scores >= DEFAULT_THRESHOLD
    return {"tp": int(np.sum(pred & pos)), "fp": int(np.sum(pred & ~pos)),
            "tn": int(np.sum(~pred & ~pos)), "fn": int(np.sum(~pred & pos))}


def metrics(c: dict[str, int]) -> dict[str, float | None]:
    """The five screening metrics of a confusion dict; undefined ratios come back as None."""
    tp, fp, tn, fn = c["tp"], c["fp"], c["tn"], c["fn"]
    total = tp + fp + tn + fn
    if total == 0:
        raise EmptyEvaluationError("no examples evaluated")

    def ratio(num, den):
        return num / den if den else None

    return {
        "accuracy": (tp + tn) / total,
        "sensitivity": ratio(tp, tp + fn),
        "specificity": ratio(tn, tn + fp),
        "ppv": ratio(tp, tp + fp),
        "npv": ratio(tn, tn + fn),
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
    labels = training_labels(labels, len(scores))
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))

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
    """The report document, as report.json holds it, plus the pooled ROC and
    out-of-fold scores it summarises."""

    document: dict  # fingerprint, recipe, k, seed, folds, aggregate, cells, AUCs
    pooled_roc: RocCurve
    pooled_scores: np.ndarray  # out-of-fold, example order

    def to_json(self) -> str:
        return json.dumps(self.document, indent=2, sort_keys=True)

    def to_table(self) -> str:
        return report_text(self.document)

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
    labels = training_labels(labels, len(features))  # int64, so the fingerprint ignores dtype
    if fit_fn is None:
        from .pipeline import resolve_recipe
        fit_fn = resolve_recipe(recipe)

    folds = stratified_folds(labels, k=k, seed=seed)

    def fold_scores(fold: int) -> np.ndarray:
        """Fit on every row outside the fold, seeded seed + fold; score the fold's rows."""
        train = folds != fold
        model = fit_fn(features[train], labels[train], seed + fold)
        return np.asarray(model.score_batch(features[folds == fold]))
    all_scores = fork_map(fold_scores, range(k), "fold",
                          getattr(MODELS.get(recipe.get("model")), "pooled", False))
    records, pooled_scores = [], np.zeros(len(labels))
    for fold, scores in enumerate(all_scores):
        test = folds == fold
        pooled_scores[test] = scores
        confusion = confusion_at_threshold(scores, labels[test])
        records.append({"metrics": metrics(confusion), "confusion": confusion,
                        "auc": roc_auc(scores, labels[test]).auc})
    aggregate = {}  # mean and population std of each metric over the folds defining it
    for name in METRIC_NAMES:
        vals = [f["metrics"][name] for f in records if f["metrics"][name] is not None]
        aggregate[name] = [float(np.mean(vals)), float(np.std(vals))] if vals else None
    pooled_roc = roc_auc(pooled_scores, labels)
    document = {
        "fingerprint": config_fingerprint(
            {"recipe": recipe, "k": k, "seed": seed, "n": len(labels),
             "labels_sha": hashlib.sha256(labels.tobytes()).hexdigest()[:8]}),
        "recipe": recipe, "k": k, "seed": seed, "folds": records, "aggregate": aggregate,
        "cells": {name: "undefined" if agg is None else f"{agg[0]:.2f}±{agg[1]:.2f}"
                  for name, agg in aggregate.items()},  # the write-up's table format
        "pooled_auc": pooled_roc.auc,
        "mean_fold_auc": float(np.mean([f["auc"] for f in records])),
    }
    return EvaluationReport(document=document, pooled_roc=pooled_roc,
                            pooled_scores=pooled_scores)
