"""Span recorder that wraps voxscreen's public layer functions from outside.

Nothing in the package is edited. `Tracer.installed()` replaces each listed
function, in every loaded voxscreen module that binds it (a module that did
`from .dsp import mfcc` holds its own name for it), with a wrapper that
records a span, and puts the originals back on exit. Private helpers such as
`_conv1d`, `_run_direction` and `_SmoState` stay unwrapped, so their time is
self time of the public function that calls them.

Spans are kept in memory as (name, start, end, parent, workload id) and
written out by the caller at the end of the run. Counters are exact: they
come from argument and result shapes, never from timings.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _count_decoded(counts, args, kwargs, out):
    counts["audio_io.bytes_decoded"] += len(args[0])


def _count_frames(counts, args, kwargs, out):
    counts["dsp.frames"] += out.shape[0]


def _count_written(counts, args, kwargs, out):
    counts["features_io.bytes_written"] += 13 + 4 * np.atleast_2d(args[1]).size


def _count_read(counts, args, kwargs, out):
    counts["features_io.bytes_read"] += 13 + 4 * out[0].size


def _count_encoder(counts, args, kwargs, out):
    from voxscreen.encoder import EncoderConfig

    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", EncoderConfig())
    n, in_ch, flops = len(args[0].samples), 1, 0
    for k, s in zip(cfg.kernels, cfg.strides):
        n = (n - k) // s + 1
        flops += 2 * n * in_ch * k * cfg.channels
        in_ch = cfg.channels
    counts["encoder.frames_out"] += out.shape[0]
    counts["encoder.gflop_computed"] += flops / 1e9


def _count_conv_forward(counts, args, kwargs, out):
    kh, kw, c_in, c_out = args[1].shape
    n, h_out, w_out, _ = out[0].shape
    counts["learners.layers.conv2d.gflop_computed"] += (
        2 * n * h_out * w_out * kh * kw * c_in * c_out / 1e9)


def _count_conv_backward(counts, args, kwargs, out):
    kh, kw, c_in, c_out = args[1].shape
    n, h_out, w_out, _ = args[3].shape
    matmuls = 2 if kwargs.get("need_grad_x", True) else 1  # grad_w, then grad_x
    counts["learners.layers.conv2d.gflop_computed"] += (
        matmuls * 2 * n * h_out * w_out * kh * kw * c_in * c_out / 1e9)


def _count_svm(counts, args, kwargs, out):
    counts["learners.svm.fits"] += 1
    counts["learners.svm.converged"] += bool(out.converged)
    counts["learners.svm.support_vectors"] += len(out.support_vectors)


# (module, attribute, span name, counter). A dotted attribute is a method,
# patched on its class. Every span also counts "<span name>.calls".
LAYERS = [
    ("voxscreen.pipeline", "load_clip", "pipeline.load_clip", None),
    ("voxscreen.audio_io", "load_wav", "audio_io.load_wav", _count_decoded),
    ("voxscreen.audio_io", "resample_linear", "audio_io.resample_linear", None),
    ("voxscreen.pipeline", "extract_matrix", "pipeline.extract_matrix", None),
    ("voxscreen.dsp", "stft_power", "dsp.stft_power", _count_frames),
    ("voxscreen.dsp", "mel_filterbank", "dsp.mel_filterbank", None),
    ("voxscreen.dsp", "mel_spectrogram", "dsp.mel_spectrogram", None),
    ("voxscreen.dsp", "mfcc", "dsp.mfcc", None),
    ("voxscreen.render", "render_image", "render.render_image", None),
    ("voxscreen.pipeline", "feature_from_matrix", "pipeline.feature_from_matrix", None),
    ("voxscreen.encoder", "encoder_apply", "encoder.encoder_apply", _count_encoder),
    ("voxscreen.learners.layers", "gelu", "learners.layers.gelu", None),
    ("voxscreen.features_io", "write_feature", "features_io.write_feature", _count_written),
    ("voxscreen.features_io", "read_feature", "features_io.read_feature", _count_read),
    ("voxscreen.evaluation", "cross_validate", "evaluation.cross_validate", None),
    ("voxscreen.learners.models", "TrainedModel.score_batch", "evaluation.score", None),
    ("voxscreen.learners.logreg", "train_logreg", "learners.logreg.train_logreg", None),
    ("voxscreen.learners.svm", "train_svm_smo", "learners.svm.train_svm_smo", _count_svm),
    ("voxscreen.learners.svm", "smo_solve", "learners.svm.smo_solve", None),
    ("voxscreen.learners.svm", "rbf_gram", "learners.svm.rbf_gram", None),
    ("voxscreen.learners.lstm", "lstm_forward", "learners.lstm.lstm_forward", None),
    ("voxscreen.learners.lstm", "lstm_backward", "learners.lstm.lstm_backward", None),
    ("voxscreen.learners.cnn", "cnn_forward", "learners.cnn.cnn_forward", None),
    ("voxscreen.learners.layers", "conv2d_forward", "learners.layers.conv2d_forward",
     _count_conv_forward),
    ("voxscreen.learners.layers", "conv2d_backward", "learners.layers.conv2d_backward",
     _count_conv_backward),
    ("voxscreen.learners.layers", "maxpool2_forward", "learners.layers.maxpool2_forward", None),
    ("voxscreen.learners.layers", "maxpool2_backward", "learners.layers.maxpool2_backward",
     None),
    ("voxscreen.learners.layers", "dropout_forward", "learners.layers.dropout_forward", None),
    ("voxscreen.learners.layers", "dense_forward", "learners.layers.dense_forward", None),
    ("voxscreen.learners.adam", "Adam.step", "learners.adam.step", None),
]

# reported per-layer metric -> (key in a traced pass's table, unit)
LAYER_METRICS = {
    **{f"{span}.self_s": (f"{span}.self_s", "s") for _, _, span, _ in LAYERS
       if span not in ("pipeline.extract_matrix", "evaluation.score",
                       "learners.svm.train_svm_smo")},
    "evaluation.fit_s": ("evaluation.fit.total_s", "s"),
    "evaluation.score_s": ("evaluation.score.total_s", "s"),
    "evaluation.folds": ("evaluation.fit.calls", "count"),
    "audio_io.bytes_decoded": ("audio_io.bytes_decoded", "bytes"),
    "dsp.mel_filterbank.calls": ("dsp.mel_filterbank.calls", "count"),
    "dsp.frames": ("dsp.frames", "count"),
    "encoder.frames_out": ("encoder.frames_out", "count"),
    "encoder.gflop_computed": ("encoder.gflop_computed", "GFLOP"),
    "features_io.bytes_written": ("features_io.bytes_written", "bytes"),
    "features_io.bytes_read": ("features_io.bytes_read", "bytes"),
    "learners.svm.support_vectors": ("learners.svm.support_vectors", "count"),
    "learners.lstm.batches": ("learners.lstm.lstm_backward.calls", "count"),
    "learners.layers.conv2d.gflop_computed": ("learners.layers.conv2d.gflop_computed",
                                              "GFLOP"),
    "learners.adam.steps": ("learners.adam.step.calls", "count"),
}


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.workload_id = f"{workload}/"
        self.spans: list[tuple | None] = []  # (name, start, end, parent index, workload id)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def start_pass(self, pass_id: str) -> None:
        self.workload_id = f"{self.workload}/{pass_id}"
        self.counts = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        self.counts[f"{name}.calls"] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.workload_id)

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of each LAYERS function; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("voxscreen") and m is not None]
        pipeline = sys.modules["voxscreen.pipeline"]
        resolve_recipe = pipeline.resolve_recipe

        # fit closures are built per recipe, so wrap the factory that makes them
        @functools.wraps(resolve_recipe)
        def traced_resolve_recipe(recipe):
            return self.wrap("evaluation.fit", resolve_recipe(recipe))

        undo = [(pipeline, "resolve_recipe", resolve_recipe)]
        pipeline.resolve_recipe = traced_resolve_recipe
        try:
            for mod_name, attr, span, counter in LAYERS:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    undo.append((cls, method, original))
                    setattr(cls, method, self.wrap(span, original, counter))
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(span, original, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapped)
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    def pass_table(self) -> dict[str, float]:
        """Counts of the current pass, plus per span name the summed self
        time (duration minus the time its child spans cover) and total."""
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == self.workload_id]
        child = defaultdict(float)
        for _, (name, start, end, parent, _) in mine:
            if parent is not None:
                child[parent] += end - start
        table = defaultdict(float, self.counts)
        for index, (name, start, end, _, _) in mine:
            table[f"{name}.self_s"] += end - start - child[index]
            table[f"{name}.total_s"] += end - start
        return dict(table)

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "workload": w}
                for n, s, e, p, w in self.spans]


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over traced passes; a layer that never ran reads 0."""
    def med(key):
        return statistics.median(p["layers"].get(key, 0.0) for p in traced)

    out = {name: (med(key), unit) for name, (key, unit) in LAYER_METRICS.items()}
    fits = med("learners.svm.fits")
    out["learners.svm.converged_share"] = (
        med("learners.svm.converged") / fits if fits else 0.0, "1")
    out["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain), "s")
    return out
