"""voxscreen benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload vector_screen --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. One invocation is one workload in
one fresh process. It writes a seeded corpus, then repeats the workload's
CLI commands (`voxscreen.cli.main(argv)`, in-process) in passes until the
time budget is spent, with at least two passes so outputs can be compared
between repeats of the same seed. `--trace 1` alternates untraced and
traced passes and reports per-layer metrics instead. NOTES.md describes
the workloads, the metrics and the layers they map to.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Any failed check exits with status 1.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Command:
    label: str             # names the per-command metric "<label>_s"
    argv: tuple[str, ...]  # subcommand, then flags beyond the shared ones
    reports: tuple[str, ...]
    auc_floor: float       # pooled AUC every report must reach
    repeats: int = 1       # runs per pass; short commands repeat to steady their median


@dataclass(frozen=True)
class Workload:
    n_pos: int
    n_neg: int
    duration_s: float
    stereo_48k: bool
    feature: str
    extract_repeats: int
    commands: tuple[Command, ...]


# One pass takes about 8-10 s on two cores, so a 30 s run holds three.
# The synthetic classes are separable by construction; the AUC floors sit
# well under what every seed reaches and only catch a broken learner.
WORKLOADS = {
    "vector_screen": Workload(
        n_pos=100, n_neg=100, duration_s=2.0, stereo_48k=True,
        feature="mfcc_vector", extract_repeats=1,
        commands=(
            Command("cv_logreg", ("cv", "--model", "logreg", "--k", "10"),
                    ("report.json",), 0.95, repeats=5),
            Command("cv_svm", ("gamma-sweep", "--gammas", "1e-4,1e-3,1e-2", "--k", "10"),
                    ("gamma_0.0001.json", "gamma_0.001.json", "gamma_0.01.json"), 0.95,
                    repeats=2),
            Command("cv_lstm", ("cv", "--model", "lstm", "--epochs", "5", "--k", "4"),
                    ("report.json",), 0.6),
        )),
    # batch 4 gives each fold 18 Adam steps; at batch 32 a fold took two
    # and the pooled AUC wandered with the seed
    "cnn_image": Workload(
        n_pos=24, n_neg=24, duration_s=2.0, stereo_48k=False,
        feature="melspec_image", extract_repeats=6,
        commands=(
            Command("cv_cnn", ("cv", "--model", "cnn", "--epochs", "2", "--batch", "4",
                               "--k", "4"),
                    ("report.json",), 0.5),
        )),
    "encoder_head": Workload(
        n_pos=5, n_neg=5, duration_s=2.0, stereo_48k=False,
        feature="encoder", extract_repeats=1,
        commands=(
            Command("cv_logreg", ("cv", "--model", "logreg", "--k", "3"),
                    ("report.json",), 0.95, repeats=20),
        )),
}

CV_LABELS = ("cv_logreg", "cv_svm", "cv_lstm", "cv_cnn")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_cli(cli_main, span, argv: list[str]) -> tuple[float, int, str]:
    """One in-process CLI command: (seconds, exit code, captured output)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            code = 1
    return time.perf_counter() - t0, code, out.getvalue()


def run_pass(cli_main, span, wl: Workload, corpus_dir: Path, work: Path, seed: int,
             tally: Tally) -> dict:
    """Fresh extracts, then every cv command on the last one's features."""
    manifest = str(corpus_dir / "manifest.csv")
    feats = work / "features"
    n_clips = wl.n_pos + wl.n_neg
    samples, digests, aucs = defaultdict(list), defaultdict(list), {}

    t_first = time.perf_counter()
    for _ in range(wl.extract_repeats):
        shutil.rmtree(work, ignore_errors=True)
        seconds, code, text = run_cli(cli_main, span, [
            "extract", "--manifest", manifest, "--feature", wl.feature, "--out", str(feats)])
        samples["extract"].append(seconds)
        tally.check(code == 0, f"extract exited {code}: {text.strip()[-300:]}")
        index = feats / "index.csv"
        rows = index.read_text().splitlines()[1:] if index.exists() else []
        written = sorted(row.split(",")[3] for row in rows)
        # one operation per clip: it fails unless its features were written
        for i in range(n_clips):
            name = f"clip_{i:04d}.vxf"
            tally.check(name in written and (feats / name).exists(),
                        f"extract: no features for clip_{i:04d}")
        digests["features"].append(sha256_bytes(b"".join(
            (feats / name).read_bytes() for name in written if (feats / name).exists())))

    for cmd in wl.commands:
        out = work / cmd.label
        argv = [cmd.argv[0], "--manifest", manifest, "--feature", wl.feature,
                "--features", str(feats), "--seed", str(seed), "--out", str(out),
                *cmd.argv[1:]]
        for _ in range(cmd.repeats):
            shutil.rmtree(out, ignore_errors=True)
            seconds, code, text = run_cli(cli_main, span, argv)
            samples[cmd.label].append(seconds)
            if not tally.check(code == 0, f"{cmd.label} exited {code}: "
                                          f"{text.strip()[-300:]}"):
                continue
            for report in cmd.reports:
                key = f"{cmd.label}/{report}"
                if not tally.check((out / report).is_file(), f"{key}: not written"):
                    continue
                data = (out / report).read_bytes()
                digests[key].append(sha256_bytes(data))
                aucs[key] = json.loads(data)["pooled_auc"]
                tally.check(aucs[key] >= cmd.auc_floor,
                            f"{key}: pooled AUC {aucs[key]:.4f} below floor {cmd.auc_floor}")
    return {"wall_s": time.perf_counter() - t_first, "samples": dict(samples),
            "digests": dict(digests), "aucs": aucs}


def blas_info() -> dict:
    """OpenBLAS build string and the thread count in effect, when found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"library": get_config().decode(), "threads": get_threads()}
    return {"library": "unknown", "threads": None}


def environment(workload: str, wl: Workload, seconds: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "workload": workload,
        "sizes": asdict(wl),
        "seconds": seconds,
    }


def command_seconds(passes: list[dict], label: str) -> float:
    """Mean time of one run of a command over every run in the passes.

    Short commands repeat in clusters, one per pass, and the machine's
    speed drifts over seconds; the mean weighs every cluster, where a
    median would settle on one of them.
    """
    runs = [s for p in passes for s in p["samples"].get(label, [])]
    return statistics.fmean(runs) if runs else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "voxscreen" / "cli.py").is_file():
        print(f"error: no voxscreen sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    from voxscreen import cli

    import corpus
    import tracing
    import_s = time.perf_counter() - T_PROCESS

    wl = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    results_dir = ROOT / ".perfbench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args.workload, wl, args.seconds)
    tally = Tally()
    tracer = tracing.Tracer(args.workload)
    no_span = lambda name: contextlib.nullcontext()  # noqa: E731
    try:
        # set-up: write the corpus several times; its bytes must not change
        gen_times, corpus_digests = [], []
        corpus_dir = scratch / "corpus"
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(corpus_dir, ignore_errors=True)
            t0 = time.perf_counter()
            corpus_digests.append(corpus.write_corpus(
                corpus_dir, args.seed, wl.n_pos, wl.n_neg, wl.duration_s, wl.stereo_48k))
            gen_times.append(time.perf_counter() - t0)
        tally.check(all(d == corpus_digests[0] for d in corpus_digests),
                    "corpus bytes differ between generations of one seed")
        setup_s = import_s + median(gen_times)

        passes = []
        t_run = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer.start_pass(f"pass{len(passes)}")
            with tracer.installed() if traced else contextlib.nullcontext():
                result = run_pass(cli.main, tracer.span if traced else no_span, wl,
                                  corpus_dir, scratch / "run", args.seed, tally)
            result["traced"] = traced
            if traced:
                result["layers"] = tracer.pass_table()
            passes.append(result)
            elapsed = time.perf_counter() - t_run
            if len(passes) >= 2 and elapsed + median(p["wall_s"] for p in passes) > args.seconds:
                break

        # every repeat of one seed must give identical features and reports
        for key in passes[0]["digests"]:
            values = {d for p in passes for d in p["digests"].get(key, [])}
            tally.check(len(values) == 1,
                        f"{key}: sha256 differs between repeats of seed {args.seed}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    failed = len(tally.failures)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(p["wall_s"] for p in plain), "s"),
        "extract_clips_per_s": ((wl.n_pos + wl.n_neg) / command_seconds(plain, "extract"),
                                "clips/s"),
        "cv_s": (sum(command_seconds(plain, c.label) for c in wl.commands), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pooled_auc_min": (min((a for p in passes for a in p["aucs"].values()), default=0.0),
                           "1"),
    }
    per_command = {f"{label}_s": (command_seconds(plain, label), "s") for label in CV_LABELS}
    per_command["failed_share"] = (failed / tally.attempted, "1")

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"passes: {len(plain)} untraced, {len(passes) - len(plain)} traced; "
          f"corpus generations (s): {[round(t, 4) for t in gen_times]}")
    print("corpus sha256 " + sha256_bytes(json.dumps(corpus_digests[0], sort_keys=True).encode()))
    for key, values in sorted(passes[0]["digests"].items()):
        print(f"digest {args.workload} seed={args.seed} {key} sha256={values[0]}")
    for name, (value, unit) in {**end_to_end, **per_command}.items():
        print(f"metric {name} {value:.6g} {unit}")
    for reason in tally.failures:
        print(f"FAILED {reason}")

    metrics = end_to_end
    if args.trace:
        metrics = {**tracing.layer_metrics([p for p in passes if p["traced"]], plain),
                   **per_command}
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
    suffix = "trace" if args.trace else "plain"
    (results_dir / f"{args.workload}_seed{args.seed}_{suffix}.json").write_text(json.dumps({
        "env": env, "seed": args.seed, "setup_s": setup_s, "corpus_sha256": corpus_digests[0],
        "passes": passes, "failures": tally.failures, "spans": tracer.dump(),
    }, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
