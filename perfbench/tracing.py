"""In-memory span tracer that wraps the library's public calls from outside.

Nothing under ``src/`` knows about it: ``install`` replaces the traced
functions in every ``cacxray`` module namespace that binds them, and the
``forward``/``backward`` methods of every layer class, and ``uninstall``
puts the originals back. Spans live in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name). The span name's first dotted part is the
# layer the per-layer table reports it under.
TRACED_FUNCTIONS = [
    ("cacxray.dicom", "parse_dicom", "dicom.parse"),
    ("cacxray.synthgen", "read_dataset", "synthgen.read_dataset"),
    ("cacxray.synthgen", "generate_samples", "synthgen.generate"),
    ("cacxray.synthgen", "generate_survival", "synthgen.generate_survival"),
    ("cacxray.synthgen", "write_dataset", "synthgen.write"),
    ("cacxray.preprocess", "preprocess_uncalibrated", "preprocess.uncalibrated"),
    ("cacxray.preprocess", "standardize", "preprocess.standardize"),
    ("cacxray.preprocess", "compute_dataset_stats", "preprocess.stats"),
    ("cacxray.preprocess", "stats_to_csv", "preprocess.stats_io"),
    ("cacxray.preprocess", "stats_from_csv", "preprocess.stats_io"),
    ("cacxray.labels", "fit_label_transform", "labels.fit"),
    ("cacxray.labels", "transform", "labels.transform"),
    ("cacxray.labels", "transform_threshold", "labels.transform"),
    ("cacxray.model.network", "init_model", "network.init"),
    ("cacxray.model.network", "forward", "network.forward"),
    ("cacxray.model.network", "backward", "network.backward"),
    ("cacxray.model.network", "prediction_feature_gradient", "network.feature_grad"),
    ("cacxray.model.training", "train", "training.train"),
    ("cacxray.model.training", "sgd_step", "training.sgd_step"),
    ("cacxray.model.training", "predict", "training.predict"),
    ("cacxray.model.serialize", "save_weights", "serialize.weights_write"),
    ("cacxray.model.serialize", "load_weights", "serialize.weights_read"),
    ("cacxray.model.serialize", "sidecar_to_json", "serialize.sidecar"),
    ("cacxray.model.serialize", "sidecar_from_json", "serialize.sidecar"),
    ("cacxray.metrics", "roc_auc", "metrics.roc_auc"),
    ("cacxray.metrics", "auc_confidence_interval", "metrics.bootstrap"),
    ("cacxray.metrics", "pr_curve", "metrics.pr_curve"),
    ("cacxray.metrics", "calibration_table", "metrics.calibration"),
    ("cacxray.metrics", "confusion_at_threshold", "metrics.confusion"),
    ("cacxray.metrics", "diagnostic_metrics", "metrics.confusion"),
    ("cacxray.explain", "gradcam", "explain.gradcam"),
    ("cacxray.explain", "export_saliency", "explain.export"),
    ("cacxray.survival", "cohort_from_csv", "survival.cohort_io"),
    ("cacxray.survival", "kaplan_meier", "survival.km"),
    ("cacxray.survival", "log_rank", "survival.log_rank"),
    ("cacxray.survival", "cox_fit", "survival.cox_fit"),
]

LAYER_CLASSES = ("Conv2d", "BatchNorm2d", "ReLU", "MaxPool2x2", "AvgPool2x2", "GlobalAvgPool", "Linear")
ENTRY_CLASSES = ("_DenseBlock", "_Transition")


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


def _call_attrs(span_name, args, kwargs, result):
    """Counts recorded at the boundary where the work happens."""
    if span_name == "dicom.parse":
        return {"bytes": len(args[0])}
    if span_name == "network.forward":
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
        cache = sum(_nbytes(v) for v in result.caches.values())
        return {"mode": mode, "cache_bytes": cache}
    if span_name == "survival.cox_fit":
        return {"iterations": result.iterations}
    return None


def _conv_attrs(layer, x):
    """Forward FLOPs and im2col bytes of one Conv2d call, from shapes alone."""
    n, c, h, w = x.shape
    k, s, p = layer.kernel, layer.stride, layer.pad
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    cols = n * ho * wo * c * k * k
    return {"flop": 2 * cols * layer.c_out, "im2col_bytes": 8 * cols}


def _entry_name(obj) -> str:
    # layers and dense blocks carry a name; a transition is named by its conv
    name = getattr(obj, "name", None)
    return name if name is not None else obj.conv.name.rsplit(".", 1)[0]


class Tracer:
    """Spans of one run: (id, parent id, name, key, start ns, end ns, attrs)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next = 1
        self._undo: list[tuple] = []
        self.enabled = True

    def _open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, key, t0, attrs):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, key, t0, t1, attrs))

    @contextlib.contextmanager
    def span(self, name: str, key: str = ""):
        """A span around the benchmark's own code, such as one iteration."""
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, key, t0, None)

    @contextlib.contextmanager
    def suspended(self):
        """Run traced calls without recording them (the benchmark's checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap_function(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = _call_attrs(name, args, kwargs, result) if result is not None else None
                tracer._close(sid, parent, name, "", t0, attrs)

        return traced

    def wrap_method(self, fn, name: str, conv: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(layer, x, *args):
            if not tracer.enabled:
                return fn(layer, x, *args)
            sid, parent = tracer._open()
            t0 = time.perf_counter_ns()
            try:
                return fn(layer, x, *args)
            finally:
                attrs = _conv_attrs(layer, x) if conv else None
                tracer._close(sid, parent, name, _entry_name(layer), t0, attrs)

        return traced

    def install(self) -> None:
        """Wrap every traced call in this process."""
        from cacxray.model import layers, network

        for mod_name, fn_name, span_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            traced = self.wrap_function(original, span_name)
            for name, mod in list(sys.modules.items()):
                if name != "cacxray" and not name.startswith("cacxray."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, traced)
        for cls_name in LAYER_CLASSES:
            cls = getattr(layers, cls_name)
            for direction in ("forward", "backward"):
                original = cls.__dict__[direction]
                tag = "fwd" if direction == "forward" else "bwd"
                conv = cls_name == "Conv2d" and direction == "forward"
                self._undo.append((cls, direction, original))
                setattr(cls, direction, self.wrap_method(original, f"layer.{cls_name}.{tag}", conv))
        for cls_name in ENTRY_CLASSES:
            cls = getattr(network, cls_name)
            for direction in ("forward", "backward"):
                original = cls.__dict__[direction]
                tag = "fwd" if direction == "forward" else "bwd"
                self._undo.append((cls, direction, original))
                setattr(cls, direction, self.wrap_method(original, f"entry.{tag}", False))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, fh) -> None:
        """One JSON object per span, in the order the spans ended."""
        for sid, parent, name, key, t0, t1, attrs in self.spans:
            record = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                      "key": key, "start_ns": t0, "end_ns": t1, "attrs": attrs}
            fh.write(json.dumps(record) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part its child spans cover (ns).

    One thread and properly nested spans, so children never overlap and the
    part they cover is the sum of their durations.
    """
    covered: dict[int, int] = defaultdict(int)
    for _, parent, _, _, t0, t1, _ in spans:
        covered[parent] += t1 - t0
    return {sid: (t1 - t0) - covered[sid] for sid, _, _, _, t0, t1, _ in spans}


DESK_CONVS = (
    ["stem.conv"]
    + [f"block{b}.layer{l}.conv{c}" for b in range(3) for l in range(2) for c in (1, 2)]
    + ["trans0.conv", "trans1.conv"]
)
ENTRIES = ("stem", "block0", "block1", "block2", "block3", "trans0", "trans1", "trans2")
TRAIN_STEP_SPANS = ("network.backward", "training.sgd_step")


def layer_table(spans, iterations: int, phase_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase, per iteration of the closed loop.

    Times are span durations (for leaf layers also their self time). Conv2d
    FLOPs and im2col bytes are computed from shapes: a backward pass costs
    twice its forward (weight and input gradients).
    """
    selfs = self_times(spans)
    info = {sid: (parent, name, attrs) for sid, parent, name, _, _, _, attrs in spans}
    total: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    keyed: dict[tuple[str, str], int] = defaultdict(int)
    keyed_calls: dict[tuple[str, str], int] = defaultdict(int)
    conv_flop: dict[str, int] = defaultdict(int)
    forward_mode: dict[str, int] = defaultdict(int)
    cache_bytes = []
    parse_bytes = im2col_bytes = cox_iterations = 0
    block_self = program_self = 0

    def under_train_step(sid) -> bool:
        parent = info[sid][0]
        while parent:
            p_parent, p_name, p_attrs = info[parent]
            if p_name in TRAIN_STEP_SPANS or (p_name == "network.forward" and p_attrs["mode"] == "train"):
                return True
            parent = p_parent
        return False

    conv_train_ns = 0
    for sid, _, name, key, t0, t1, attrs in spans:
        dur = t1 - t0
        total[name] += dur
        calls[name] += 1
        if key:
            keyed[(name, key)] += dur
            keyed_calls[(name, key)] += 1
        if not name.startswith("bench."):
            program_self += selfs[sid]
        if name.startswith("entry.") and key.startswith("block"):
            block_self += selfs[sid]
        if name.startswith("layer.Conv2d.") and under_train_step(sid):
            conv_train_ns += dur
        if attrs is None:
            continue
        if name == "dicom.parse":
            parse_bytes += attrs["bytes"]
        elif name == "network.forward":
            forward_mode[attrs["mode"]] += dur
            cache_bytes.append(attrs["cache_bytes"])
        elif name == "survival.cox_fit":
            cox_iterations += attrs["iterations"]
        elif name == "layer.Conv2d.fwd":
            conv_flop[key] += attrs["flop"]
            im2col_bytes += attrs["im2col_bytes"]

    # backward FLOPs: twice the key's mean forward FLOPs per backward call
    flop = sum(conv_flop.values()) + sum(
        2 * conv_flop[key] / keyed_calls[("layer.Conv2d.fwd", key)] * n
        for (name, key), n in keyed_calls.items()
        if name == "layer.Conv2d.bwd" and conv_flop[key]
    )
    conv_ns = total["layer.Conv2d.fwd"] + total["layer.Conv2d.bwd"]
    step_ns = forward_mode["train"] + total["network.backward"] + total["training.sgd_step"]

    def ms(ns):
        return (ns / 1e6 / iterations, "ms")

    def per_iter(count, unit="count"):
        return (count / iterations, unit)

    t = {
        "dicom.parse_ms": ms(total["dicom.parse"]),
        "dicom.parse_calls": per_iter(calls["dicom.parse"]),
        "dicom.mb_parsed": per_iter(parse_bytes / 1e6, "MB"),
        "preprocess.uncalibrated_ms": ms(total["preprocess.uncalibrated"]),
        "preprocess.calls": per_iter(calls["preprocess.uncalibrated"]),
        "preprocess.standardize_ms": ms(total["preprocess.standardize"]),
        "preprocess.stats_ms": ms(total["preprocess.stats"]),
        "network.forward_train_ms": ms(forward_mode["train"]),
        "network.forward_eval_ms": ms(forward_mode["eval"]),
        "network.backward_ms": ms(total["network.backward"]),
        "network.feature_grad_ms": ms(total["network.feature_grad"]),
        "network.block_self_ms": ms(block_self),
        "network.cache_mb_per_step": (
            float(np.mean(cache_bytes)) / 1e6 if cache_bytes else 0.0, "MB"),
    }
    for cls in LAYER_CLASSES:
        t[f"layers.{cls}.fwd_ms"] = ms(total[f"layer.{cls}.fwd"])
        t[f"layers.{cls}.bwd_ms"] = ms(total[f"layer.{cls}.bwd"])
    for conv in DESK_CONVS:
        t[f"layer.{conv}.fwd_ms"] = ms(keyed[("layer.Conv2d.fwd", conv)])
        t[f"layer.{conv}.bwd_ms"] = ms(keyed[("layer.Conv2d.bwd", conv)])
    for entry in ENTRIES:
        for tag in ("fwd", "bwd"):
            if entry == "stem":
                ns = keyed[(f"layer.Conv2d.{tag}", "stem.conv")] + keyed[(f"layer.MaxPool2x2.{tag}", "stem.pool")]
            else:
                ns = keyed[(f"entry.{tag}", entry)]
            t[f"entry.{entry}.{tag}_ms"] = ms(ns)
    t.update({
        "layers.Conv2d.gflop": per_iter(flop / 1e9, "GFLOP-computed"),
        "layers.Conv2d.im2col_mb": per_iter(im2col_bytes / 1e6, "MB-computed"),
        "layers.Conv2d.gflop_per_s": (flop / conv_ns if conv_ns else 0.0, "GFLOP/s-computed"),
        "training.sgd_step_ms": ms(total["training.sgd_step"]),
        "training.steps": per_iter(calls["training.sgd_step"]),
        "serialize.weights_write_ms": ms(total["serialize.weights_write"]),
        "serialize.weights_read_ms": ms(total["serialize.weights_read"]),
        "metrics.roc_auc_ms": ms(total["metrics.roc_auc"]),
        "metrics.bootstrap_ms": ms(total["metrics.bootstrap"]),
        "metrics.pr_curve_ms": ms(total["metrics.pr_curve"]),
        "metrics.calibration_ms": ms(total["metrics.calibration"]),
        "explain.gradcam_ms": ms(total["explain.gradcam"]),
        "explain.export_ms": ms(total["explain.export"]),
        "survival.km_ms": ms(total["survival.km"]),
        "survival.log_rank_ms": ms(total["survival.log_rank"]),
        "survival.cox_fit_ms": ms(total["survival.cox_fit"]),
        "survival.cox_iterations": per_iter(cox_iterations),
        "synthgen.generate_ms": ms(total["synthgen.generate"] + total["synthgen.generate_survival"]),
        "synthgen.write_ms": ms(total["synthgen.write"]),
        "trace.self_coverage": (program_self / phase_ns, "ratio"),
        "trace.conv_share_of_train_step": (conv_train_ns / step_ns if step_ns else 0.0, "ratio"),
    })
    return t
