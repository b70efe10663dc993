"""Batch command surface: extract, cv, synth, gamma-sweep, report.

Every command writes a fingerprint.json sufficient to re-run it exactly;
outputs are deterministic per (config, seed), so re-runs are comparable
byte for byte. VOXSCREEN_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import os
import sys
from pathlib import Path
from urllib.parse import quote

import numpy as np

from .datasets import apply_cohort, generate_synthetic_corpus, parse_manifest
from .audio_io import CANONICAL_RATE
from .dsp import FrameParams, MelParams, filter_bounds
from .encoder import EncoderConfig, seeded_weights
from .errors import ConfigError, CorruptFileError, InfeasibleBankError, VoxscreenError
from .evaluation import (DEFAULT_FOLDS, config_fingerprint, cross_validate, report_text,
                         stratified_folds)
from .features_io import FEATURE_KINDS, read_feature, stored_form, write_feature
from .forkmap import fork_map
from .learners.models import MODELS
from .pipeline import extract_matrix, feature_from_matrix, load_clip, validate_recipe


def _default_seed() -> int:
    seed = os.environ.get("VOXSCREEN_SEED", "0")
    try:
        return int(seed)
    except ValueError:
        raise ConfigError(f"VOXSCREEN_SEED={seed!r} is not an integer") from None


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:  # a manifest or an index.csv whose bytes do not decode
        raise CorruptFileError(f"{path}: not {exc.encoding} text (byte {exc.start})") from None


def _load_examples(manifest_path: str, cohort: str):
    return apply_cohort(parse_manifest(_read_text(Path(manifest_path))), cohort)


def _write_fingerprint(out_dir: Path, payload: dict) -> None:
    """Write fingerprint.json whole or not at all: through a temporary name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = out_dir / "fingerprint.json.tmp"
    partial.write_text(json.dumps({"fingerprint": config_fingerprint(payload),
                                   "config": payload}, indent=2, sort_keys=True, default=str))
    os.replace(partial, out_dir / "fingerprint.json")


def _feature_params(args) -> tuple[FrameParams, MelParams, str]:
    """Frame and mel parameters, and the params key index.csv records for them:
    what an extracted feature depends on besides the clip bytes. A mel kind's
    bank is built here, before any clip, as every clip is resampled to one rate."""
    try:
        frame = FrameParams(frame_length=args.frame_length, hop_length=args.hop_length)
        mel = MelParams(n_mels=args.n_mels, n_mfcc=args.n_mfcc)
        if args.feature != "encoder":
            filter_bounds(CANONICAL_RATE, frame, mel)
    except (ValueError, InfeasibleBankError) as exc:
        raise ConfigError(f"feature parameters: {exc}") from None
    return (frame, mel,
            f"{args.feature}:{args.frame_length}:{args.hop_length}:{args.n_mels}:{args.n_mfcc}")


_INDEX_HEADER = ["path", "sha256", "params", "feature_path"]


def _read_index(index_path: Path) -> dict[str, tuple[str, str, str]]:
    """index.csv of an extract output: clip path -> (sha256, params key, feature file)."""
    try:
        text = _read_text(index_path)
    except FileNotFoundError:
        raise ConfigError(f"{index_path.parent} has no index.csv, so none of its feature "
                          "files can be trusted; re-extract or point elsewhere") from None
    rows = list(csv.reader(text.splitlines()))
    if rows[:1] != [_INDEX_HEADER]:
        raise CorruptFileError(f"{index_path}: line 1 is not the header {','.join(_INDEX_HEADER)}")
    index = {}
    for n, cells in enumerate(rows[1:], start=2):
        if len(cells) != 4:
            raise CorruptFileError(f"{index_path}: line {n} does not have 4 cells")
        index[cells[0]] = tuple(cells[1:])
    return index


def _map_clips(args, clip_paths: list[str], keep, check=lambda clip_path: None):
    """The one per-clip body, in order, in the clip pool: check(clip path), one read
    of the clip beside the manifest, and keep(clip path, data, extract), where
    extract() decodes data into the run's feature matrix; a VoxscreenError or
    OSError is the clip's value. extract adds the owner check, the sha256, the
    up-to-date skip and the VXF1 write, in the worker; cv adds the VXF1 stored
    form and feature_from_matrix."""
    frame, mel, _ = _feature_params(args)
    if clip_paths and args.feature == "encoder":  # built once, before the fork, like the bank
        seeded_weights(EncoderConfig())

    def outcome(clip_path: str):
        try:
            check(clip_path)
            data = (Path(args.manifest).parent / clip_path).read_bytes()
            return keep(clip_path, data, lambda: extract_matrix(
                load_clip(data), args.feature, frame=frame, mel=mel))
        except (VoxscreenError, OSError) as exc:
            return exc
    return fork_map(outcome, clip_paths, "clip", True)


def _feature_name(clip_path: str) -> str:
    """The clip's feature file name: flat and injective, so same-named clips
    in different folders stay apart."""
    return quote(os.path.splitext(clip_path)[0], safe="") + ".vxf"


def cmd_extract(args) -> int:
    paths = [ex.clip_path for ex in _load_examples(args.manifest, args.cohort)]
    params_key = _feature_params(args)[2]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index_path = out_dir / "index.csv"
    previous = _read_index(index_path) if index_path.exists() else {}
    index_path.unlink(missing_ok=True)  # written last: an unfinished run leaves none
    owners = {_feature_name(p): p for p in reversed(paths)}  # feature file -> its first clip

    def check_owner(clip_path: str):
        if owners[name := _feature_name(clip_path)] != clip_path:
            raise ConfigError(f"its feature file {name} belongs to {owners[name]}")

    def keep(clip_path: str, data: bytes, extract):  # -> index row, up to date
        row = (clip_path, hashlib.sha256(data).hexdigest(), params_key, _feature_name(clip_path))
        fresh = previous.get(clip_path) == row[1:] and (out_dir / row[3]).exists()
        if not fresh:
            write_feature(str(out_dir / row[3]), extract(), args.feature)
        return row, fresh

    rows, failures, skipped = [], [], 0
    for path, outcome in zip(paths, _map_clips(args, paths, keep, check_owner)):
        if isinstance(outcome, Exception):
            failures.append((path, str(outcome)))
        else:
            rows.append(outcome[0])
            skipped += outcome[1]

    partial = out_dir / "index.csv.tmp"
    with open(partial, "w", newline="") as fh:  # csv, like the manifest: paths may hold commas
        csv.writer(fh, lineterminator="\n").writerows(
            [_INDEX_HEADER, *rows])
    os.replace(partial, index_path)
    _write_fingerprint(out_dir, {
        "command": "extract", "manifest": args.manifest, "cohort": args.cohort,
        "feature": args.feature, "params": params_key})
    print(f"extracted {len(rows) - skipped} features, {skipped} up to date, "
          f"{len(failures)} failures")
    for path, msg in failures:
        print(f"  FAILED {path}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _collect_features(args, examples) -> np.ndarray:
    """Features for cv/gamma-sweep, one row per example: [n, d] vectors or
    [n, 150, 150] gray planes. Read from the files index.csv lists for the
    run's clips and params; clips it does not list are extracted in memory and
    rounded to the stored form read_feature returns, so listing changes no byte."""
    params_key = _feature_params(args)[2]
    feature_dir = Path(args.features) if args.features else None
    index = _read_index(feature_dir / "index.csv") if feature_dir else {}
    unlisted = [ex.clip_path for ex in examples if ex.clip_path not in index]
    extracted = iter(_map_clips(args, unlisted, lambda clip_path, data, extract:
                                feature_from_matrix(stored_form(extract()).astype(np.float64),
                                                    args.feature)))
    features = []
    for ex in examples:
        listed = index.get(ex.clip_path)
        if listed:
            _, recorded_key, name = listed
            if recorded_key != params_key:
                raise ConfigError(
                    f"{feature_dir / 'index.csv'}: {ex.clip_path} was extracted with "
                    f"{recorded_key!r} but the run asks for {params_key!r}; re-extract "
                    "or point elsewhere")
            vxf = feature_dir / name
            matrix, kind = read_feature(str(vxf))
            if kind != args.feature:
                raise ConfigError(
                    f"{vxf} holds {kind!r} features but the run asks for "
                    f"{args.feature!r}; re-extract or point elsewhere")
            feature = feature_from_matrix(matrix, args.feature)
        else:
            feature = next(extracted)
            if isinstance(feature, Exception):  # a VoxscreenError gets the clip's name
                raise (feature if isinstance(feature, OSError)
                       else type(feature)(f"{ex.clip_path}: {feature}"))
        features.append(feature)
        if features[-1].shape != features[0].shape:
            raise CorruptFileError(
                f"{vxf if listed else ex.clip_path}: features of shape {features[-1].shape}, "
                f"but {examples[0].clip_path} gave {features[0].shape}")
    return np.array(features)  # stacked once; an empty run stays a typed fold error


_HYPER_FLAGS = {"epochs": int, "batch": int, "max_passes": int, "lr": float,
                "gamma": float, "C": float, "tol": float, "dropout": float}


def _hyper_from_args(args) -> dict:
    """The hyperparameter flags that were set, as argparse typed them."""
    return {name: getattr(args, name) for name in _HYPER_FLAGS
            if getattr(args, name, None) is not None}


def _run_cv(args, runs: list[tuple[str, dict]], **fingerprinted) -> list:
    """Cross-validate one recipe per (label, hyper) run on one collection of
    the run's features. Writes <label>.json, .txt and _roc.csv for each, then
    a fingerprint.json of every input the reports depend on. An older
    fingerprint goes first, so a run that stops partway leaves none."""
    examples = _load_examples(args.manifest, args.cohort)
    recipes = [(label, validate_recipe(
        {"model": args.model, "feature": args.feature, "hyper": hyper, "force": args.force}))
        for label, hyper in runs]
    labels = [ex.label for ex in examples]
    stratified_folds(labels, k=args.k, seed=args.seed)  # fail before any extraction
    features = _collect_features(args, examples)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "fingerprint.json").unlink(missing_ok=True)
    reports = []
    for label, recipe in recipes:
        report = cross_validate(features, labels, recipe, k=args.k, seed=args.seed)
        (out_dir / f"{label}.json").write_text(report.to_json())
        (out_dir / f"{label}.txt").write_text(report.to_table() + "\n")
        (out_dir / f"{label}_roc.csv").write_text(report.roc_csv())
        reports.append(report)
    _write_fingerprint(out_dir, {
        "command": args.command, "manifest": args.manifest, "cohort": args.cohort,
        "feature": args.feature, "params": _feature_params(args)[2], "model": args.model,
        "hyper": _hyper_from_args(args), "force": args.force, "k": args.k, "seed": args.seed,
        "features_sha256": hashlib.sha256(features).hexdigest(), **fingerprinted})
    return reports


def cmd_cv(args) -> int:
    [report] = _run_cv(args, [("report", _hyper_from_args(args))])
    if args.cohort != "all":
        print(f"cohort: {args.cohort}")
    print(report.to_table())
    return 0


def cmd_synth(args) -> int:
    if args.n_pos < 1 or args.n_neg < 1:
        print("synth: need at least one example per class", file=sys.stderr)
        return 2
    generate_synthetic_corpus(args.n_pos, args.n_neg, args.seed, args.out,
                              duration_s=args.duration)
    _write_fingerprint(Path(args.out), {
        "command": "synth", "n_pos": args.n_pos, "n_neg": args.n_neg,
        "seed": args.seed, "duration": args.duration})
    print(f"wrote {args.n_pos + args.n_neg} clips and manifest.csv to {args.out}")
    return 0


def cmd_gamma_sweep(args) -> int:
    try:
        gammas = [float(g) for g in args.gammas.split(",")]
    except ValueError:
        raise ConfigError(f"--gammas {args.gammas!r} is not a list of numbers") from None
    deduped = sorted(set(gammas))
    if len(deduped) != len(gammas):
        print("warning: duplicate gammas removed", file=sys.stderr)
    labels = {}
    for gamma in deduped:
        other = labels.setdefault(f"gamma_{gamma:g}", gamma)
        if other != gamma:
            raise ConfigError(f"gammas {other!r} and {gamma!r} would share gamma_{gamma:g}.json")
    hyper = _hyper_from_args(args)
    reports = _run_cv(args, [(label, dict(hyper, gamma=gamma))
                             for label, gamma in labels.items()], gammas=deduped)
    results = [(gamma, report.pooled_roc.auc) for gamma, report in zip(deduped, reports)]
    best = max(results, key=lambda r: r[1])
    print("gamma      pooled_auc")
    for gamma, auc in results:
        flag = "  <- best" if gamma == best[0] else ""
        print(f"{gamma:<10g} {auc:.4f}{flag}")
    return 0


def cmd_report(args) -> int:
    try:  # only the file's content can fail here: not JSON, a missing key, a wrong type
        print(report_text(json.loads(Path(args.report).read_text())))
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptFileError(f"{args.report}: not a voxscreen report ({exc!r})") from None
    return 0


def _add_common_feature_flags(p):
    p.add_argument("--manifest", required=True)
    p.add_argument("--cohort", default="all",
                   help="all | positives_within_days[:N] | covid_vs_cold_symptomatic")
    p.add_argument("--feature", required=True, choices=FEATURE_KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--frame-length", type=int, default=FrameParams().frame_length)
    p.add_argument("--hop-length", type=int, default=FrameParams().hop_length)
    p.add_argument("--n-mels", type=int, default=MelParams().n_mels)
    p.add_argument("--n-mfcc", type=int, default=MelParams().n_mfcc)


def _add_cv_flags(p):
    p.add_argument("--features", default=None,
                   help="directory of extracted .vxf files to reuse")
    p.add_argument("--k", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--force", action="store_true",
                   help="allow (model, feature) pairs outside the supported set")
    for name, cast in _HYPER_FLAGS.items():
        if name != "gamma":  # a cv flag; gamma-sweep takes --gammas
            p.add_argument(f"--{name.replace('_', '-')}", type=cast, default=None, dest=name)
    _add_common_feature_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxscreen",
        description="Vocal-biomarker screening experiments, batch style.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="decode clips and dump VXF1 features")
    _add_common_feature_flags(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("cv", help="stratified cross-validated evaluation")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--gamma", type=float, default=None)
    _add_cv_flags(p)
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("synth", help="generate a synthetic labelled corpus")
    p.add_argument("n_pos", type=int)
    p.add_argument("n_neg", type=int)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("gamma-sweep", help="cross-validate an svm over a gamma grid")
    p.add_argument("--gammas", required=True, help="comma-separated values")
    _add_cv_flags(p)
    p.set_defaults(fn=cmd_gamma_sweep, model="svm")

    p = sub.add_parser("report", help="pretty-print a report.json")
    p.add_argument("report")
    p.set_defaults(fn=cmd_report)
    return parser


def pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 32 and 64 MiB, where its own tuning
    ends. The tuning raises them as large blocks are freed, so which arrays reach the
    heap hangs on history: the peak memory of repeated cv runs drifted up to 35 MB."""
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if hasattr(libc, "gnu_get_libc_version"):  # glibc only
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    pin_malloc_thresholds()
    try:  # the parser reads VOXSCREEN_SEED, which may not be an integer
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (VoxscreenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
