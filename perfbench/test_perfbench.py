"""The benchmark's own tests: python3 -m pytest perfbench"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent

# The metrics each workload reports by name, besides the per-layer table.
REPORTED = {
    "train_desk": ["train_samples_per_s", "train_step_ms_p50", "train_step_ms_p95", "train_step_ms_tail",
                   "train_mae_final", "quality.heldout_auc"],
    "score_large": ["evaluate_images_per_s", "explain_ms_p50", "explain_ms_p95",
                    "explain_ms_tail", "known_defect.batch_vs_single_bit_mismatch"],
    "dense_full": ["train_samples_per_s", "train_step_ms_p50", "train_step_ms_p95", "train_step_ms_tail"],
}
LAYER_TABLE = [
    "dicom.parse_ms", "dicom.parse_calls", "dicom.mb_parsed", "preprocess.uncalibrated_ms",
    "preprocess.calls", "preprocess.standardize_ms", "preprocess.stats_ms",
    "network.forward_train_ms", "network.backward_ms", "network.forward_eval_ms",
    "network.feature_grad_ms", "network.block_self_ms", "network.cache_mb_per_step",
    "layers.Conv2d.fwd_ms", "layers.Conv2d.bwd_ms", "layers.Linear.bwd_ms",
    "layer.block2.layer1.conv2.bwd_ms", "entry.block3.bwd_ms", "entry.stem.fwd_ms",
    "layers.Conv2d.gflop", "layers.Conv2d.im2col_mb", "layers.Conv2d.gflop_per_s",
    "training.sgd_step_ms", "training.steps", "serialize.weights_write_ms",
    "serialize.weights_read_ms", "metrics.roc_auc_ms", "metrics.bootstrap_ms",
    "metrics.pr_curve_ms", "metrics.calibration_ms", "explain.gradcam_ms", "explain.export_ms",
    "survival.km_ms", "survival.log_rank_ms", "survival.cox_fit_ms", "survival.cox_iterations",
    "synthgen.generate_ms", "synthgen.write_ms", "trace.overhead_ratio", "trace.self_coverage",
]


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_run_emits_every_metric_with_its_unit(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", "1", "--toy")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == run.per_layer_names()
    assert all(m["unit"] for m in last["metrics"].values())

    result = json.loads((run.WORK_ROOT / "results" / f"{workload}-seed5-trace1.json").read_text())
    assert set(run.final_metrics(result, 0)) == set(run.END_TO_END)
    for name in REPORTED[workload]:
        value, unit = result["report"][name]
        assert np.isfinite(value) and unit, name
    for name in LAYER_TABLE:
        assert name in result["layers"], name
    for name in REPORTED[workload] + ["setup_s", "peak_rss_mb", "failed_ops_ratio"]:
        assert name in proc.stdout, name


def test_nan_prediction_counts_as_failed_operation(tmp_path, monkeypatch):
    wl = workloads.TrainDesk(work=tmp_path, seed=2, toy=True)
    wl.setup()
    wl.load()
    monkeypatch.setattr(workloads.model, "predict", lambda params, images, *a: np.full(len(images), np.nan))
    out = checks.Outcome()
    wl.iterate(out, contextlib.nullcontext, workloads.Probes(wl.probe_profiles))
    assert out.ratio > 0
    assert any("held-out prediction" in f for f in out.failures)


def test_checks_count_bad_outputs():
    out = checks.Outcome()
    out.add(3, checks.nonfinite([0.5, np.nan, 1.0], "prediction"))
    assert out.failed == 1 and out.ratio == pytest.approx(1 / 3)
    out.add(1, checks.saliency_ok(np.full((4, 4), 1.5), (4, 4), "map"))
    out.add(1, checks.saliency_ok(np.zeros((4, 5)), (4, 4), "map"))
    out.add(1, checks.auc_matches_pair_count([0.1, 0.9, 0.5], [False, True, False], 0.75))
    out.add(1, checks.hazard_ratio_above_one(0.9, "group"))
    out.add(1, checks.bitwise_equal([0.1, 0.1 + 1e-17, 0.1 + 2e-16], "mae"))
    out.add(1, checks.gradients_ok({"w": np.array([np.inf])}, {"w": np.zeros(1)}))
    assert out.failed == 7


def test_tail_keeps_ten_samples_beyond_it():
    assert workloads.tail(list(range(1000)))[0] == 95.0
    assert workloads.tail(list(range(100)))[0] == pytest.approx(90.0)
    assert workloads.tail(list(range(12))) == (50.0, 5.5)


def test_checks_accept_good_outputs():
    assert checks.auc_matches_pair_count([0.1, 0.9, 0.5, 0.5], [False, True, False, True], 0.875) == []
    assert checks.saliency_ok(np.linspace(0, 1, 16).reshape(4, 4), (4, 4), "map") == []
    assert checks.bitwise_equal([0.25, 0.25], "mae") == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    from tracing import layer_table
    units = {name: unit for name, (_, unit) in layer_table([], 1, 1).items()}
    units["trace.overhead_ratio"] = "ratio"
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "train_desk", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
