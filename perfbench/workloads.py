"""The benchmark's workloads, driven through the library's public API.

Each workload has a set-up (generate and write its inputs into a work
directory) and a closed loop of iterations with one caller: an iteration
starts when the previous one returns. Settings are the CLI's desk defaults,
and every random stream comes from the run's seed through the CLI's offsets
(split +1, init +2, shuffle +3, bootstrap +4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from cacxray import explain, labels, metrics, model, preprocess, survival, synthgen
from cacxray.model import training

PREPROCESS = preprocess.PreprocessConfig(resize_dim=78, crop_dim=64, eq_levels=256)
TRAIN_FRACTION = 0.8
LEARNING_RATE = 3e-4
WEIGHT_DECAY = 1e-4
TRUTH_THRESHOLD = 0.0
RAUC_GRID = (0.0, 100.0, 400.0)
CALIBRATION_EDGES = (0.0, 100.0, 400.0)
BOOTSTRAP_RESAMPLES = 2000
PREDICT_BATCH = 16
SINGLE_ITEM_CHECKS = 8


class SpeedProbe:
    """A fixed numpy workload that shares no code with the program, timed
    between the workload's operations.

    On a shared host the CPU speed this process gets drifts by tens of
    percent over minutes. The probe's ops (ReLU-like select, channel mean,
    normalisation, channel concat, a 3x3 im2col copy and a GEMM) slow down
    with the workloads when its arrays are sized like theirs, so each
    workload names a profile. The gated ``adj_*`` metrics scale a run to the
    host speed at which one probe takes the profile's reference time.
    ``tick`` runs the probe once per interval passed since the last one (at
    most ``MAX_PER_TICK`` times), so a workload with long operations gets as
    many samples per second as one with short ones; callers keep probe time
    out of every timing. With ``sampling`` off (the traced run) it never runs.
    """

    # profile: feature map, im2col matrix, conv weights, repetitions,
    # reference seconds, interval seconds. "image" works on 512-px planes, like
    # decode and preprocess. A dense121 probe sample jitters in ~8 ms steps
    # (the BLAS helper thread's wake-up), so it is sampled twice per 1-s step.
    PROFILES = {
        "desk": ((4, 16, 32, 32), (4, 1024, 144), (16, 144), 4, 0.012, 0.25),
        "dense121": ((2, 128, 32, 32), (2, 1024, 1152), (32, 1152), 2, 0.030, 0.5),
        "image": ((1, 2, 512, 512), (1, 4096, 9), (4, 9), 1, 0.028, 0.25),
    }
    MAX_PER_TICK = 4

    def __init__(self, profile: str, sampling: bool = True):
        x_shape, cols_shape, w_shape, self.reps, self.reference_s, interval = self.PROFILES[profile]
        self.interval_s = interval if sampling else float("inf")
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=x_shape)
        self.cols = rng.normal(size=cols_shape)
        self.w = rng.normal(size=w_shape)
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._ops()  # first call pays one-off costs; not a sample
        self._last = time.perf_counter()

    def _ops(self) -> None:
        for _ in range(self.reps):
            y = np.where(self.x > 0, self.x, 0.0)
            m = y.mean(axis=(0, 2, 3))
            z = (y - m[None, :, None, None]) * 1.5
            np.concatenate([z, y], axis=1)
            win = np.lib.stride_tricks.sliding_window_view(z, (3, 3), axis=(2, 3))
            np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
            self.cols @ self.w.T

    def run(self) -> None:
        t0 = time.perf_counter()
        self._ops()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_s += t1 - t0
        self._last = t1

    def tick(self) -> None:
        due = int((time.perf_counter() - self._last) / self.interval_s)
        for _ in range(min(due, self.MAX_PER_TICK)):
            self.run()

    def speed(self) -> float:
        """How many times faster than the reference this run's host was."""
        return self.reference_s / float(np.median(self.samples))


class Probes:
    """The speed probes of one run: one per profile, looked up by the role
    it adjusts ("throughput" or "latency")."""

    def __init__(self, roles: dict[str, str], sampling: bool = True):
        self.by_profile = {prof: SpeedProbe(prof, sampling) for prof in sorted(set(roles.values()))}
        self.roles = {role: self.by_profile[prof] for role, prof in roles.items()}

    def __getitem__(self, role: str) -> SpeedProbe:
        return self.roles[role]

    @property
    def spent_s(self) -> float:
        return sum(p.spent_s for p in self.by_profile.values())


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(values) -> tuple[float, float]:
    """The highest percentile up to p95 with at least ten samples beyond it
    (the median when there are fewer than 20 samples), and its value."""
    q = min(95.0, max(50.0, 100.0 * (1.0 - 10.0 / len(values))))
    return q, percentile(values, q)


def _tail_entries(name: str, values) -> dict:
    q, value = tail(values)
    return {f"{name}_tail": (value, "ms"), f"{name}_tail_percentile": (q, "percentile")}


def _synthesize(seed: int, n: int, image_dim: int, out: Path) -> list:
    cfg = synthgen.SynthConfig(n=n, image_dim=image_dim, seed=seed)
    samples = synthgen.generate_samples(cfg)
    synthgen.generate_survival(cfg, samples)
    synthgen.write_dataset(cfg, samples, out)
    return samples


def _load_crops(data: Path):
    ids, dicoms, records = synthgen.read_dataset(data)
    crops = [preprocess.preprocess_uncalibrated(d, PREPROCESS) for d in dicoms]
    cacs = np.asarray([r.covariates["cac"] for r in records])
    return ids, crops, cacs


class _StepClock:
    """Times each SGD step inside ``model.train`` and keeps each step's loss.

    While active it wraps ``sgd_step`` and ``loss_mae`` where the training
    loop looks them up. A step runs from the end of the previous step (or the
    start of the call) to the end of its ``sgd_step``; the speed probe may
    run in between and counts in no step.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.step_ms: list[float] = []
        self.losses: list[float] = []

    def __enter__(self):
        self._saved = (training.sgd_step, training.loss_mae)
        sgd, loss = self._saved
        clock = self

        def timed_sgd(*args, **kwargs):
            result = sgd(*args, **kwargs)
            clock.step_ms.append((time.perf_counter() - clock._last) * 1e3)
            clock.probe.tick()
            clock._last = time.perf_counter()
            return result

        def kept_loss(*args, **kwargs):
            value = loss(*args, **kwargs)
            clock.losses.append(value)
            return value

        training.sgd_step, training.loss_mae = timed_sgd, kept_loss
        self._last = time.perf_counter()
        return self

    def __exit__(self, *exc):
        training.sgd_step, training.loss_mae = self._saved
        return False


@dataclass
class TrainDesk:
    """The ``cacxray train`` path at the desk preset, then held-out predict."""

    work: Path
    seed: int
    toy: bool = False
    name = "train_desk"
    probe_profiles = {"throughput": "desk", "latency": "desk"}
    # report metrics behind the gated throughput, p50 and tail
    headline = ('train_samples_per_s', 'train_step_ms_p50', 'train_step_ms_tail')

    def __post_init__(self):
        self.n, self.epochs = (60, 1) if self.toy else (400, 3)
        self.data = self.work / "data"
        self.reset()

    def reset(self):
        self.step_ms: list[float] = []
        self.train_s = 0.0
        self.samples_trained = 0
        self.mae_final: list[float] = []
        self.heldout_auc: list[float] = []

    def setup(self):
        _synthesize(self.seed, self.n, 96, self.data)
        init = model.init_model(model.desk_config(), self.seed + 2)
        model.save_weights(self.work / "init.cacw", init)

    def load(self):
        self.init = model.load_weights(self.work / "init.cacw", model.desk_config())

    def warmup(self):
        rng = np.random.default_rng(self.seed)
        pairs = [(rng.normal(size=(64, 64)), 0.0) for _ in range(8)]
        model.train(pairs, model.TrainConfig(epochs=1, batch_size=4), self.init)

    def iterate(self, out: checks.Outcome, quiet, probes: Probes):
        ids, crops, cacs = _load_crops(self.data)
        n = len(ids)
        perm = np.random.default_rng(self.seed + 1).permutation(n)
        n_train = int(round(TRAIN_FRACTION * n))
        tr, te = perm[:n_train], perm[n_train:]
        stats = preprocess.compute_dataset_stats([crops[i] for i in tr])
        lt = labels.fit_label_transform(cacs[tr])
        xtr = [preprocess.standardize(crops[i], stats) for i in tr]
        ytr = labels.transform(cacs[tr], lt)
        tc = model.TrainConfig(
            epochs=self.epochs, batch_size=4, learning_rate=LEARNING_RATE,
            weight_decay=WEIGHT_DECAY, seed=self.seed + 3,
        )
        t0, probed = time.perf_counter(), probes.spent_s
        with _StepClock(probes["latency"]) as clock:
            fitted, history = model.train(list(zip(xtr, ytr)), tc, self.init)
        self.train_s += time.perf_counter() - t0 - (probes.spent_s - probed)
        self.samples_trained += self.epochs * n_train
        self.step_ms.extend(clock.step_ms)
        model.save_weights(self.work / "weights.cacw", fitted)
        (self.work / "sidecar.json").write_text(model.sidecar_to_json(fitted.cfg, lt) + "\n")
        (self.work / "stats.csv").write_text(preprocess.stats_to_csv(stats))
        xte = [preprocess.standardize(crops[i], stats) for i in te]
        scores = model.predict(fitted, xte)
        samples = [
            metrics.ScoredSample(score=float(scores[j]), truth_cac=float(cacs[i]), id=ids[i])
            for j, i in enumerate(te)
        ]
        auc = metrics.roc_auc(samples, TRUTH_THRESHOLD)
        self.mae_final.append(history[-1])
        self.heldout_auc.append(auc)
        with quiet():
            out.add(len(clock.losses), checks.nonfinite(clock.losses, "train loss"))
            out.add(len(scores), checks.nonfinite(scores, "held-out prediction"))
            out.add(1, checks.auc_matches_pair_count(scores, cacs[te] > TRUTH_THRESHOLD, auc))

    def finish(self, out: checks.Outcome):
        out.add(1, checks.bitwise_equal(self.mae_final, "train_mae_final"))

    def report(self) -> dict:
        return {
            "train_samples_per_s": (self.samples_trained / self.train_s, "samples/s"),
            "train_step_ms_p50": (percentile(self.step_ms, 50), "ms"),
            "train_step_ms_p95": (percentile(self.step_ms, 95), "ms"),
            **_tail_entries("train_step_ms", self.step_ms),
            "train_steps": (len(self.step_ms), "count"),
            "train_mae_final": (self.mae_final[-1], "MAE"),
            "quality.heldout_auc": (self.heldout_auc[-1], "AUC"),
        }


@dataclass
class ScoreLarge:
    """``evaluate`` then ``explain`` then ``survival`` on 512-px images with
    fixed desk weights read back from the weights file."""

    work: Path
    seed: int
    toy: bool = False
    name = "score_large"
    probe_profiles = {"throughput": "image", "latency": "desk"}
    # report metrics behind the gated throughput, p50 and tail
    headline = ('evaluate_images_per_s', 'explain_ms_p50', 'explain_ms_tail')

    def __post_init__(self):
        self.n, self.dim = (64, 96) if self.toy else (300, 512)
        self.data = self.work / "data"
        self.model_dir = self.work / "model"
        self.maps = self.work / "maps"
        self.reset()

    def reset(self):
        self.evaluate_s = 0.0
        self.evaluated = 0
        self.explain_ms: list[float] = []
        self.hazard_ratio = float("nan")
        self.single_checked = 0
        self.bit_mismatches = 0

    def setup(self):
        samples = _synthesize(self.seed, self.n, self.dim, self.data)
        cfg = model.desk_config()
        params = model.init_model(cfg, self.seed + 2)
        self.model_dir.mkdir(parents=True, exist_ok=True)
        model.save_weights(self.model_dir / "weights.cacw", params)
        lt = labels.fit_label_transform([s.cac for s in samples])
        crops = [
            preprocess.preprocess_uncalibrated(synthgen.sample_to_dicom(s), PREPROCESS)
            for s in samples[:32]
        ]
        stats = preprocess.compute_dataset_stats(crops)
        (self.model_dir / "sidecar.json").write_text(model.sidecar_to_json(cfg, lt) + "\n")
        (self.model_dir / "stats.csv").write_text(preprocess.stats_to_csv(stats))

    def load(self):
        pass

    def warmup(self):
        params = model.init_model(model.desk_config(), self.seed + 2)
        rng = np.random.default_rng(self.seed)
        images = [rng.normal(size=(64, 64)) for _ in range(PREDICT_BATCH)]
        model.predict(params, images, PREDICT_BATCH)
        explain.gradcam(params, images[0])

    def iterate(self, out: checks.Outcome, quiet, probes: Probes):
        # evaluate pass
        probes["throughput"].tick()
        t0 = time.perf_counter()
        net_cfg, lt = model.sidecar_from_json((self.model_dir / "sidecar.json").read_text())
        params = model.load_weights(self.model_dir / "weights.cacw", net_cfg)
        stats = preprocess.stats_from_csv((self.model_dir / "stats.csv").read_text())
        ids, crops, cacs = _load_crops(self.data)
        x = [preprocess.standardize(c, stats) for c in crops]
        scores = model.predict(params, x, PREDICT_BATCH)
        samples = [
            metrics.ScoredSample(score=float(s), truth_cac=float(c), id=i)
            for s, c, i in zip(scores, cacs, ids)
        ]
        auc = metrics.roc_auc(samples, TRUTH_THRESHOLD)
        ci = metrics.auc_confidence_interval(
            samples, TRUTH_THRESHOLD, level=0.95, n_resamples=BOOTSTRAP_RESAMPLES, seed=self.seed + 4
        )
        threshold = labels.transform_threshold(TRUTH_THRESHOLD, lt)
        metrics.diagnostic_metrics(metrics.confusion_at_threshold(samples, threshold, TRUTH_THRESHOLD))
        metrics.rauc(samples, RAUC_GRID)
        metrics.pr_curve(samples, TRUTH_THRESHOLD)
        metrics.calibration_table(samples, lt, CALIBRATION_EDGES)
        self.evaluate_s += time.perf_counter() - t0
        self.evaluated += len(x)
        probes["throughput"].tick()
        with quiet():
            out.add(len(scores), checks.nonfinite(scores, "prediction"))
            out.add(2, checks.nonfinite(ci, "AUC interval"))
            out.add(1, checks.auc_matches_pair_count(scores, cacs > TRUTH_THRESHOLD, auc))
            pick = np.random.default_rng(self.seed).choice(len(x), SINGLE_ITEM_CHECKS, replace=False)
            failures, bit_mismatches = checks.batch_matches_single(params, x, scores, pick)
            out.add(len(pick), failures)
        self.single_checked += len(pick)
        self.bit_mismatches += bit_mismatches

        # explain pass: the dataset is read and preprocessed again, as the CLI does
        ids, crops, _ = _load_crops(self.data)
        for sid, crop in zip(ids, crops):
            xi = preprocess.standardize(crop, stats)
            t0 = time.perf_counter()
            sal = explain.gradcam(params, xi)
            explain.export_saliency(sal, xi, self.maps, sid)
            self.explain_ms.append((time.perf_counter() - t0) * 1e3)
            out.add(1, checks.saliency_ok(sal, xi.shape, f"saliency {sid}"))
            probes["latency"].tick()

        # survival pass
        records = survival.cohort_from_csv((self.data / "cohort.csv").read_text())
        zero = [r for r in records if r.covariates["ai_cac_category"] <= 0]
        positive = [r for r in records if r.covariates["ai_cac_category"] > 0]
        survival.kaplan_meier(zero)
        survival.kaplan_meier(positive)
        survival.log_rank(zero, positive)
        cox = survival.cox_fit(records, ["ai_cac_category"])
        survival.cox_fit(records, ["ai_cac_category", "esc_class"])
        self.hazard_ratio = cox.covariates[0].hazard_ratio
        out.add(1, checks.hazard_ratio_above_one(self.hazard_ratio, "ai_cac_category"))

    def finish(self, out: checks.Outcome):
        pass

    def report(self) -> dict:
        return {
            "evaluate_images_per_s": (self.evaluated / self.evaluate_s, "images/s"),
            "explain_ms_p50": (percentile(self.explain_ms, 50), "ms"),
            "explain_ms_p95": (percentile(self.explain_ms, 95), "ms"),
            **_tail_entries("explain_ms", self.explain_ms),
            "explain_images": (len(self.explain_ms), "count"),
            "quality.cox_hazard_ratio": (self.hazard_ratio, "ratio"),
            "known_defect.batch_vs_single_bit_mismatch": (
                self.bit_mismatches / self.single_checked, "share of items"),
        }


@dataclass
class DenseFull:
    """Train steps of the paper's DenseNet-121 layout at input 128, batch 2."""

    work: Path
    seed: int
    toy: bool = False
    name = "dense_full"
    probe_profiles = {"throughput": "dense121", "latency": "dense121"}
    # report metrics behind the gated throughput, p50 and tail
    headline = ('train_samples_per_s', 'train_step_ms_p50', 'train_step_ms_tail')

    def __post_init__(self):
        if self.toy:
            self.cfg = model.DenseNetConfig(
                input_dim=32, init_channels=8, growth_rate=4, block_layers=(1, 1, 1, 1), head_hidden=8
            )
        else:
            self.cfg = model.DenseNetConfig(input_dim=128)
        self.batch = 2
        self.reset()

    def reset(self):
        self.step_ms: list[float] = []
        self.losses: list[float] = []

    def setup(self):
        params = model.init_model(self.cfg, self.seed + 2)
        model.save_weights(self.work / "init.cacw", params)
        rng = np.random.default_rng(self.seed)
        d = self.cfg.input_dim
        np.save(self.work / "images.npy", rng.normal(size=(self.batch, d, d)))
        np.save(self.work / "targets.npy", rng.normal(size=self.batch))

    def load(self):
        self.params = model.load_weights(self.work / "init.cacw", self.cfg)
        self.images = list(np.load(self.work / "images.npy"))
        self.targets = np.load(self.work / "targets.npy")

    def warmup(self):
        scratch = self.params.copy()
        trace = model.forward(scratch, self.images, "train")
        model.backward(scratch, trace, self.targets)

    def iterate(self, out: checks.Outcome, quiet, probes: Probes):
        t0 = time.perf_counter()
        trace = model.forward(self.params, self.images, "train")
        grads = model.backward(self.params, trace, self.targets)
        t1 = time.perf_counter()
        with quiet():
            loss = model.loss_mae(trace.predictions, self.targets)
            out.add(1, checks.nonfinite([loss], "train loss"))
            out.add(len(grads), checks.gradients_ok(grads, self.params.tensors))
        del trace
        t2 = time.perf_counter()
        model.sgd_step(self.params, grads, LEARNING_RATE, WEIGHT_DECAY)
        self.step_ms.append((t1 - t0 + time.perf_counter() - t2) * 1e3)
        self.losses.append(loss)
        probes["latency"].tick()

    def finish(self, out: checks.Outcome):
        pass

    def report(self) -> dict:
        return {
            "train_samples_per_s": (self.batch * len(self.step_ms) / (sum(self.step_ms) / 1e3), "samples/s"),
            "train_step_ms_p50": (percentile(self.step_ms, 50), "ms"),
            "train_step_ms_p95": (percentile(self.step_ms, 95), "ms"),
            **_tail_entries("train_step_ms", self.step_ms),
            "train_steps": (len(self.step_ms), "count"),
            "train_loss_final": (self.losses[-1], "MAE"),
        }


WORKLOADS = {w.name: w for w in (TrainDesk, ScoreLarge, DenseFull)}
