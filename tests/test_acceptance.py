"""Shipping checklist: one test per release criterion.

Each test prints a one-line summary with the measured quantity next to its
required bound, so a verbose run reads as a checklist. Criterion 1 trains the
desk-scale model once; criterion 10 reuses that model.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, getcontext

import numpy as np
import pytest

from cacxray import dicom
from cacxray import metrics as mx
from cacxray import synthgen as sg
from cacxray import survival as sv
from cacxray.errors import (
    MalformedFileError,
    MissingRequiredTagError,
    UnsupportedTransferSyntaxError,
)
from cacxray.explain import gradcam
from cacxray.labels import (
    fit_label_transform,
    inverse_transform,
    transform,
    transform_threshold,
)
from cacxray.model import (
    DenseNetConfig,
    TrainConfig,
    init_model,
    predict,
    train,
    weights_to_bytes,
)
from cacxray.preprocess import (
    PreprocessConfig,
    compute_dataset_stats,
    preprocess_uncalibrated,
    standardize,
    window,
)
from conftest import random_dicom, replace_element_payload
from oracles import equalize, gradient_check

DESK_PP = PreprocessConfig(resize_dim=78, crop_dim=64, eq_levels=256)
DESK_NET = DenseNetConfig(
    input_dim=64,
    init_channels=16,
    growth_rate=8,
    block_layers=(2, 2, 2),
    compression=0.5,
    head_hidden=64,
    use_batchnorm=True,
)
DESK_TRAIN = TrainConfig(
    epochs=30, batch_size=4, learning_rate=3e-4, weight_decay=1e-4, seed=7
)


@pytest.fixture(scope="module")
def desk_run():
    """Train the desk-scale regressor once on 400 synthetic samples."""
    t0 = time.perf_counter()
    samples = sg.generate_samples(sg.SynthConfig(n=400, seed=0))
    crops = [preprocess_uncalibrated(sg.sample_to_dicom(s), DESK_PP) for s in samples]
    cacs = np.array([s.cac for s in samples])
    perm = np.random.default_rng(1).permutation(400)
    tr, te = perm[:320], perm[320:]
    stats = compute_dataset_stats([crops[i] for i in tr])
    lt = fit_label_transform(cacs[tr])
    xtr = [standardize(crops[i], stats) for i in tr]
    ytr = transform(cacs[tr], lt)
    fitted, history = train(list(zip(xtr, ytr)), DESK_TRAIN, init_model(DESK_NET, 7))
    xte = [standardize(crops[i], stats) for i in te]
    scores = predict(fitted, xte)
    wall = time.perf_counter() - t0
    scored = [
        mx.ScoredSample(score=float(scores[j]), truth_cac=float(cacs[i]), id=samples[i].id)
        for j, i in enumerate(te)
    ]
    return {
        "samples": samples,
        "stats": stats,
        "params": fitted,
        "history": history,
        "test_idx": te,
        "test_inputs": xte,
        "scored": scored,
        "auc": mx.roc_auc(scored, 0.0),
        "wall": wall,
    }


def test_criterion_01_end_to_end_synthetic_training(desk_run):
    auc, wall = desk_run["auc"], desk_run["wall"]
    print(f"criterion 01: held-out AUC {auc:.4f} (need >= 0.95), wall {wall:.0f}s (need <= 600s)")
    assert wall <= 600.0
    assert auc >= 0.95


def test_criterion_02_gradients_match_finite_differences():
    configs = [
        ("batchnorm on", dict(use_batchnorm=True, block_layers=(1,), compression=1.0), "none", 10),
        ("batchnorm off", dict(use_batchnorm=False, block_layers=(2,), compression=0.5), "none", 11),
        ("frozen stem", dict(use_batchnorm=True, block_layers=(1, 1), compression=0.5), "last_block_and_head", 12),
    ]
    worst = {}
    for label, overrides, policy, seed in configs:
        cfg = DenseNetConfig(input_dim=8, init_channels=4, growth_rate=3, head_hidden=5, **overrides)
        params = init_model(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        batch = [rng.standard_normal((8, 8)) for _ in range(2)]
        targets = rng.standard_normal(2)
        worst[label] = gradient_check(params, batch, targets, step=1e-5, freeze_policy=policy)
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    print(f"criterion 02: max relative gradient error {detail} (need < 1e-4)")
    for label, err in worst.items():
        assert err < 1e-4, label


def _auc_brute_force(scores, labels):
    pos = scores[labels]
    neg = scores[~labels]
    u = 0.0
    for p in pos:
        for q in neg:
            u += 1.0 if p > q else (0.5 if p == q else 0.0)
    return u / (len(pos) * len(neg))


def test_criterion_03_auc_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    complement_exact = monotone_exact = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            labels[0], labels[-1] = True, False
        scores = rng.standard_normal(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties half the time
        scored = [
            mx.ScoredSample(float(s), 1.0 if l else 0.0, str(i))
            for i, (s, l) in enumerate(zip(scores, labels))
        ]
        a = mx.roc_auc(scored, 0.0)
        worst = max(worst, abs(a - _auc_brute_force(scores, labels)))
        flipped = [mx.ScoredSample(-s.score, s.truth_cac, s.id) for s in scored]
        complement_exact += (a + mx.roc_auc(flipped, 0.0)) == 1.0
        squashed = [
            mx.ScoredSample(float(np.exp(2.0 * s.score + 1.0)), s.truth_cac, s.id)
            for s in scored
        ]
        monotone_exact += mx.roc_auc(squashed, 0.0) == a
    print(
        f"criterion 03: brute-force gap {worst:.2e} (need <= 1e-12), "
        f"complement exact {complement_exact}/200, monotone exact {monotone_exact}/200"
    )
    assert worst <= 1e-12
    assert complement_exact == 200
    assert monotone_exact == 200


N6_RECORDS = [
    sv.SubjectRecord("s1", 1.0, True, {"x": 2.0}),
    sv.SubjectRecord("s2", 2.0, True, {"x": 0.0}),
    sv.SubjectRecord("s3", 3.0, True, {"x": 1.0}),
    sv.SubjectRecord("s4", 4.0, False, {"x": 1.0}),
    sv.SubjectRecord("s5", 5.0, True, {"x": 0.0}),
    sv.SubjectRecord("s6", 6.0, False, {"x": 1.0}),
]


def _breslow_grid_maximum(records, lo=-5.0, hi=5.0, step=1e-4):
    x = np.array([r.covariates["x"] for r in records])
    t = np.array([r.time_years for r in records])
    e = np.array([r.event for r in records], dtype=bool)
    best_beta, best_ll = None, -np.inf
    for b in np.arange(lo, hi + step / 2, step):
        w = np.exp(b * x)
        ll = 0.0
        for j in np.where(e)[0]:
            ll += b * x[j] - np.log(w[t >= t[j]].sum())
        if ll > best_ll:
            best_beta, best_ll = b, ll
    return best_beta


def test_criterion_04_survival_oracles():
    km = sv.kaplan_meier(
        [
            sv.SubjectRecord("a", 1.0, True, {}),
            sv.SubjectRecord("b", 2.0, True, {}),
            sv.SubjectRecord("c", 3.0, False, {}),
        ]
    )
    assert list(km.times) == [1.0, 2.0]
    assert km.survival[0] == 2.0 / 3.0
    assert km.survival[1] == (2.0 / 3.0) * 0.5

    group = [sv.SubjectRecord(f"g{i}", float(i + 1), i % 2 == 0, {}) for i in range(6)]
    twin = [sv.SubjectRecord(f"h{i}", r.time_years, r.event, {}) for i, r in enumerate(group)]
    lr = sv.log_rank(group, twin)
    assert lr.chi2 == 0.0
    assert lr.p_value == 1.0

    fit = sv.cox_fit(N6_RECORDS, ["x"])
    grid_beta = _breslow_grid_maximum(N6_RECORDS)
    gap = abs(fit.by_name("x").beta - grid_beta)

    shifted = [
        sv.SubjectRecord(r.id, r.time_years, r.event, {"x": r.covariates["x"] + 37.5})
        for r in N6_RECORDS
    ]
    shift_gap = abs(sv.cox_fit(shifted, ["x"]).by_name("x").beta - fit.by_name("x").beta)
    c = 4.0
    scaled = [
        sv.SubjectRecord(r.id, r.time_years, r.event, {"x": r.covariates["x"] * c})
        for r in N6_RECORDS
    ]
    scale_gap = abs(sv.cox_fit(scaled, ["x"]).by_name("x").beta - fit.by_name("x").beta / c)
    print(
        f"criterion 04: KM/log-rank exact; Cox grid gap {gap:.2e} (need <= 1e-3), "
        f"translation {shift_gap:.2e}, scaling {scale_gap:.2e} (need <= 1e-9)"
    )
    assert gap <= 1e-3
    assert shift_gap <= 1e-9
    assert scale_gap <= 1e-9


def test_criterion_05_cox_recovers_planted_hazard_ratio():
    ln_hr = math.log(2.5)
    hits = 0
    for seed in range(20):
        crng = np.random.default_rng(10_000 + seed)
        cats = crng.integers(0, 3, size=2000)
        cohort = [
            sg.SynthSample(
                id=f"s{i:05d}",
                image=np.zeros((1, 1)),
                cac=0.0,
                category=int(cat),
                record=sv.SubjectRecord(f"s{i:05d}", 1.0, False, {"cat": float(cat)}),
            )
            for i, cat in enumerate(cats)
        ]
        records = sg.generate_survival(
            sg.SynthConfig(n=2000, seed=seed, hazard_ratio=2.5), cohort
        )
        est = sv.cox_fit(records, ["cat"]).by_name("cat")
        hits += abs(est.beta - ln_hr) <= 3.0 * est.se
    print(f"criterion 05: beta within 3 se of ln 2.5 for {hits}/20 seeds (need >= 18)")
    assert hits >= 18


def test_criterion_06_label_transform_correctness():
    rng = np.random.default_rng(6)
    lt = fit_label_transform(rng.uniform(0.0, 2000.0, size=64))
    grid = np.concatenate([np.linspace(0.0, 2000.0, 4001), [0.0, 1.0, 99.0, 100.0, 400.0, 2000.0]])
    back = inverse_transform(transform(grid, lt), lt)
    round_trip_err = float(np.max(np.abs(back - grid) / np.maximum(1.0, np.abs(grid))))

    getcontext().prec = 60
    # the oracle repeats the definition in 60-digit decimal arithmetic
    oracle = (Decimal(1e-5).ln() - Decimal(lt.mu_log)) / Decimal(lt.sigma_log)
    th0 = transform_threshold(0.0, lt).transformed
    th0_gap = abs(th0 - float(oracle))

    clipped = transform(np.array([2000.0, 2500.0, 1e9]), lt)
    clip_ok = clipped[0] == clipped[1] == clipped[2]
    assert float(inverse_transform(np.array([50.0]), lt)[0]) == 2000.0
    print(
        f"criterion 06: round-trip rel err {round_trip_err:.2e} (need <= 1e-9), "
        f"zero-threshold oracle gap {th0_gap:.2e} (need <= 1e-12), clip at 2000 {clip_ok}"
    )
    assert round_trip_err <= 1e-9
    assert th0_gap <= 1e-12
    assert clip_ok


def test_criterion_07_preprocessing_determinism_and_shape():
    rng = np.random.default_rng(7)
    dicoms = [random_dicom(rng) for _ in range(6)]
    cfg = PreprocessConfig(resize_dim=40, crop_dim=32, eq_levels=256)
    sequential = [preprocess_uncalibrated(d, cfg) for d in dicoms]
    again = [preprocess_uncalibrated(d, cfg) for d in dicoms]
    pools = []
    for workers in (1, 3):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pools.append(list(pool.map(lambda d: preprocess_uncalibrated(d, cfg), dicoms)))
    deterministic = all(
        a.tobytes() == b.tobytes() == c.tobytes() == d.tobytes()
        for a, b, c, d in zip(sequential, again, *pools)
    )

    default_out = preprocess_uncalibrated(dicoms[0], PreprocessConfig())
    stats = compute_dataset_stats(sequential)
    pool_px = np.concatenate([standardize(x, stats).ravel() for x in sequential])
    mean_err, std_err = abs(float(pool_px.mean())), abs(float(pool_px.std()) - 1.0)

    mono_ok = 0
    for _ in range(100):
        img = rng.uniform(-500.0, 1500.0, size=(16, 16))
        c, w = rng.uniform(200.0, 800.0), rng.uniform(100.0, 1200.0)
        for out in (window(img, c, w), equalize(img)):
            order = np.argsort(img.ravel(), kind="stable")
            diffs = np.diff(out.ravel()[order])
            src = np.diff(img.ravel()[order])
            if np.all(diffs >= 0.0) and np.all(diffs[src == 0.0] == 0.0):
                mono_ok += 1
    print(
        f"criterion 07: bit-identical {deterministic}, default shape {default_out.shape}, "
        f"pool mean|std err {mean_err:.1e}|{std_err:.1e} (need <= 1e-9), "
        f"monotone {mono_ok}/200 transforms"
    )
    assert deterministic
    assert default_out.shape == (1024, 1024)
    assert mean_err <= 1e-9 and std_err <= 1e-9
    assert mono_ok == 200


def test_criterion_08_dicom_round_trip_and_rejection():
    rng = np.random.default_rng(8)
    exact = 0
    for _ in range(100):
        img = random_dicom(rng)
        data = dicom.write_test_dicom(img)
        exact += dicom.write_test_dicom(dicom.parse_dicom(data)) == data

    fixture = dicom.write_test_dicom(random_dicom(np.random.default_rng(88)))
    rejected = 0
    for cut in range(len(fixture)):
        try:
            dicom.parse_dicom(fixture[:cut])
        except (MalformedFileError, MissingRequiredTagError):
            rejected += 1
    spliced = replace_element_payload(fixture, (0x0002, 0x0010), b"1.2.840.10008.1.2.4.70")
    with pytest.raises(UnsupportedTransferSyntaxError):
        dicom.parse_dicom(spliced)
    print(
        f"criterion 08: bitwise round trips {exact}/100, truncations rejected "
        f"{rejected}/{len(fixture)}, compressed transfer syntax rejected"
    )
    assert exact == 100
    assert rejected == len(fixture)


def test_criterion_09_cross_validation_harness():
    for n, k in ((23, 5), (40, 5)):
        folds = mx.kfold_split(n, k, seed=9)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))

    rng = np.random.default_rng(90)
    images = [rng.standard_normal((8, 8)) for _ in range(18)]
    cacs = np.where(rng.random(18) < 0.5, 0.0, rng.uniform(1.0, 2000.0, 18))
    cacs[:2] = [0.0, 50.0]  # guarantee both classes exist
    net_cfg = DenseNetConfig(
        input_dim=8, init_channels=4, growth_rate=3, block_layers=(1,),
        compression=1.0, head_hidden=5, use_batchnorm=True,
    )
    tc = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, weight_decay=1e-4, seed=5)

    def recording_train_fn(sink):
        def fn(xtr, ytr):
            fitted, _ = train(list(zip(xtr, ytr)), tc, init_model(net_cfg, tc.seed))
            sink.append(weights_to_bytes(fitted))
            return lambda imgs: predict(fitted, imgs)

        return fn

    k, fold_seed = 3, 92
    folds = mx.kfold_split(len(images), k, seed=fold_seed)
    ref, perturbed_sink = [], []
    report = mx.cross_validate(images, cacs, recording_train_fn(ref), k=k, seed=fold_seed)
    header = mx.crossval_to_csv(report).splitlines()
    assert header[0] == "fold,accuracy,balanced_accuracy,sensitivity,specificity,rauc"
    assert [line.split(",")[0] for line in header[1:]] == ["1", "2", "3", "Mean"]

    tampered = cacs.copy()
    # reversing fold 0's labels swaps which samples are positive while keeping
    # the class counts, so every fold stays evaluable and the label change is
    # guaranteed to flip training residual signs in the folds that see it
    tampered[folds[0]] = cacs[folds[0]][::-1]
    mx.cross_validate(images, tampered, recording_train_fn(perturbed_sink), k=k, seed=fold_seed)
    unchanged = ref[0] == perturbed_sink[0]
    others_changed = any(a != b for a, b in zip(ref[1:], perturbed_sink[1:]))
    print(
        f"criterion 09: column set exact, partitions valid, held-out-fold weights "
        f"bitwise unchanged {unchanged}, training folds affected {others_changed}"
    )
    assert unchanged
    assert others_changed


def _box_to_crop(box, resize_dim=78, crop_dim=64, src_dim=96):
    """Map a source-image box through resize and center crop; None if it
    lands entirely outside the crop."""
    x, y, w, h = box
    scale = resize_dim / src_dim
    off = (resize_dim - crop_dim) // 2

    def to_crop(v):
        return (v + 0.5) * scale - 0.5 - off

    x0 = max(int(math.floor(to_crop(x))), 0)
    y0 = max(int(math.floor(to_crop(y))), 0)
    x1 = min(int(math.ceil(to_crop(x + w - 1))) + 1, crop_dim)
    y1 = min(int(math.ceil(to_crop(y + h - 1))) + 1, crop_dim)
    if x1 <= x0 or y1 <= y0:
        return None
    return x0, y0, x1, y1


def test_criterion_10_saliency_concentrates_on_planted_signal(desk_run):
    params = desk_run["params"]
    samples = desk_run["samples"]

    zeroed = init_model(DESK_NET, 7)
    zeroed.tensors["head.fc1.w"] = np.zeros_like(zeroed.tensors["head.fc1.w"])
    assert np.all(gradcam(zeroed, desk_run["test_inputs"][0]) == 0.0)

    concentrations = []
    for j, i in enumerate(desk_run["test_idx"]):
        if samples[i].cac <= 0.0:
            continue
        sal = gradcam(params, desk_run["test_inputs"][j])
        assert sal.shape == (64, 64)
        assert sal.min() >= 0.0 and sal.max() <= 1.0
        mask = np.zeros((64, 64), dtype=bool)
        for box in samples[i].blob_boxes:
            mapped = _box_to_crop(box)
            if mapped is not None:
                x0, y0, x1, y1 = mapped
                mask[y0:y1, x0:x1] = True
        total = float(sal.sum())
        if not mask.any() or total == 0.0:
            concentrations.append(0.0)
            continue
        inside = float(sal[mask].sum()) / total
        area = mask.sum() / mask.size
        concentrations.append(inside / area)
    conc = np.array(concentrations)
    frac = float((conc >= 3.0).mean())
    print(
        f"criterion 10: maps valid on {conc.size} held-out positives; concentration >= 3x "
        f"on {frac:.1%} (need >= 80%); median {np.median(conc):.2f}x, best {conc.max():.2f}x"
    )
    assert frac >= 0.80
