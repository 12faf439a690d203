"""Command-line front end.

Subcommands: synth, train, evaluate, crossval, survival, explain. Settings
come from an INI file (--config) merged over built-in desk-scale defaults.
Each section is a dataclass (_PRESETS): its fields are the keys, its desk
preset holds the defaults and each value is parsed by its field's type;
unknown sections or keys are rejected by name, and an integer must lie
strictly between -2**63 and 2**63. --seed and --folds are parsed the same
way, as the values of [run] seed and [crossval] folds. Each dataclass checks
its values when it is built, so every command rejects a bad value, named as
``[section] key``, before --out is created. A single master seed feeds
every random stream through fixed offsets: synth +0, train/test split +1,
weight init +2, batch shuffling +3, bootstrap +4, cross-validation folds +5.
Cross-validation initializes each fold's weights from the shuffling seed
(+3), not from +2.

main runs every command in one order: build and check the config, read
--model (evaluate, explain) and check its net against the crop, read and
check --data (train, evaluate, crossval, explain) or --cohort (survival),
create --out and write effective.cfg, call the cmd_* function, then write
manifest.json (command, seed, version, and the inputs and fields the
function returns). synth returns None: a dataset's manifest.json is the
dataset description that synthgen.write_dataset writes. Every file is read
and written through framing: text as UTF-8 (the --config file included),
outputs atomically (temp file + rename). effective.cfg holds every setting,
master seed included, so passing it back as --config repeats the run.

Exit codes come only from the category of the CacXrayError raised (see
errors.py; an OSError counts as unreadable input, any other exception is a
defect and ends in a traceback): 0 success, 2 configuration or schema error
(a bad cohort row or cell included), 3 training failure (fewer than two
training samples included), 4 unreadable input (a missing or damaged file, a
text file that is not UTF-8 or that CSV or JSON cannot frame), 5 degenerate
data (a negative cac, single class, no events, zero variance, non-convergence).

From a checkout, without installing: PYTHONPATH=src python -m cacxray.cli ...
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CacXrayError,
    EmptyCohortError,
    InvalidConfigError,
    MalformedFileError,
    UnreadableInputError,
)
from .explain import export_saliency, gradcam
from .framing import csv_text, json_text, json_value, read_text, write_text
from .labels import check_nonnegative, transform_threshold
from .metrics import (
    ScoredSample,
    auc_confidence_interval,
    calibration_table,
    confusion_at_threshold,
    cross_validate,
    crossval_to_csv,
    crossval_to_json,
    diagnostic_metrics,
    fit_transforms,
    pr_curve,
    rauc,
    roc_auc,
)
from .model import (
    TrainConfig,
    desk_config,
    init_model,
    load_weights,
    predict,
    save_weights,
    sidecar_from_json,
    sidecar_to_json,
    train,
)
from .preprocess import (
    PreprocessConfig,
    preprocess_uncalibrated,
    standardize,
    stats_from_csv,
    stats_to_csv,
)
from .survival import (
    cohort_from_csv,
    cox_fit,
    cox_to_json,
    kaplan_meier,
    km_event_estimate,
    km_to_csv,
    log_rank,
)
from .synthgen import SynthConfig, iter_samples, read_dataset, write_dataset

_SEED_OFFSETS = {"synth": 0, "split": 1, "init": 2, "shuffle": 3, "bootstrap": 4, "folds": 5}


@dataclass(frozen=True)
class _RunSection:
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class _TrainSection(TrainConfig):
    train_fraction: float = 0.8

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.train_fraction <= 1.0:
            raise InvalidConfigError(f"train_fraction must lie in (0, 1], got {self.train_fraction}")


@dataclass(frozen=True)
class _EvaluateSection:
    truth_threshold: float = 0.0
    rauc_grid: tuple[float, ...] = (0.0, 100.0, 400.0)
    calibration_edges: tuple[float, ...] = (0.0, 100.0, 400.0)
    bootstrap_resamples: int = 2000
    confidence_level: float = 0.95

    def __post_init__(self):
        if self.truth_threshold < 0:
            raise InvalidConfigError(f"truth_threshold must be nonnegative, got {self.truth_threshold}")
        if not self.rauc_grid or min(self.rauc_grid) < 0:
            raise InvalidConfigError(f"rauc_grid needs one or more nonnegative values, got {self.rauc_grid}")
        if not 0.0 < self.confidence_level < 1.0:
            raise InvalidConfigError(f"confidence_level must lie in (0, 1), got {self.confidence_level}")
        if self.bootstrap_resamples < 1:
            raise InvalidConfigError(f"bootstrap_resamples must be at least 1, got {self.bootstrap_resamples}")
        # 8 MB of resampled AUCs: more adds no precision, and 2**63 of them cannot be allocated
        if self.bootstrap_resamples > 1_000_000:
            raise InvalidConfigError(f"bootstrap_resamples must be at most 1000000, got {self.bootstrap_resamples}")
        # truth scores are nonnegative, so a first edge of at most 0 holds them all
        edges = self.calibration_edges
        if not edges or edges[0] > 0 or any(a >= b for a, b in zip(edges, edges[1:])):
            raise InvalidConfigError(f"calibration_edges must rise strictly from at most 0, got {edges}")


@dataclass(frozen=True)
class _CrossvalSection:
    folds: int = 5

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidConfigError(f"folds must be at least 2, got {self.folds}")


@dataclass(frozen=True)
class _SurvivalSection:
    group: str = "ai_cac_category"
    adjust: str = "esc_class"
    horizon_years: float = 5.0

    def __post_init__(self):
        if self.horizon_years <= 0:
            raise InvalidConfigError(f"horizon_years must be positive, got {self.horizon_years}")
        # a column adjusted for itself makes the bivariate Cox information
        # matrix singular, which would read as degenerate data
        if self.adjust == self.group:
            raise InvalidConfigError(f"adjust must name another column than group, got {self.adjust!r} for both")


# The INI schema: each section's keys are the fields of its desk preset.
_PRESETS = {
    "run": _RunSection(),
    "synth": SynthConfig(),
    "preprocess": PreprocessConfig(resize_dim=78, crop_dim=64, eq_levels=256),
    "model": desk_config(),
    "train": _TrainSection(epochs=30),
    "evaluate": _EvaluateSection(),
    "crossval": _CrossvalSection(),
    "survival": _SurvivalSection(),
}
# A seed in these sections is no key: it is the master seed plus the offset of
# the named stream.
_SEEDED = {"synth": "synth", "train": "shuffle"}
_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "text"}


def _keys(sect: str) -> list[str]:
    return [f.name for f in fields(_PRESETS[sect]) if not (f.name == "seed" and sect in _SEEDED)]


def _parse_value(hint, text: str, where: str):
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if args[-1] is not Ellipsis and len(parts) != len(args):
            raise InvalidConfigError(f"{where} needs {len(args)} comma-separated values, got {text!r}")
        return tuple(_parse_value(args[0], part, where) for part in parts)
    try:
        value = configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()] if hint is bool else hint(text)
    except (KeyError, ValueError):
        raise InvalidConfigError(f"{where} must be {_KINDS[hint]}, got {text!r}") from None
    # NaN passes every range check in the sections' validation, so it stops here
    if hint is float and not math.isfinite(value):
        raise InvalidConfigError(f"{where} must be a finite number, got {text!r}")
    # a huge integer would overflow numpy and float arithmetic downstream
    if hint is int and not abs(value) < 2**63:
        raise InvalidConfigError(f"{where} must lie strictly between -2**63 and 2**63")
    return value


def _load_config(args) -> dict:
    """Each section built from its preset with the --config values parsed
    over it, then --seed and --folds, when given, parsed as [run] seed and
    [crossval] folds, and the derived seeds filled in. A value its section rejects,
    a [model] input_dim other than [preprocess] crop_dim for a command that
    builds a net, or an explain --limit below 1, raises InvalidConfigError."""
    if getattr(args, "limit", 1) < 1:
        raise InvalidConfigError(f"--limit must be at least 1, got {args.limit}")
    values = {sect: {} for sect in _PRESETS}
    if args.config is not None:
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp.read_string(read_text(Path(args.config)), source=args.config)
        except configparser.Error as exc:
            raise InvalidConfigError(f"cannot parse config file: {exc}") from exc
        for sect in cp.sections():
            if sect not in _PRESETS:
                raise InvalidConfigError(f"unknown config section [{sect}]")
            hints = typing.get_type_hints(type(_PRESETS[sect]))
            for key, value in cp[sect].items():
                if key not in _keys(sect):
                    raise InvalidConfigError(f"unknown key {key!r} in section [{sect}]")
                values[sect][key] = _parse_value(hints[key], value, f"[{sect}] {key}")
    if args.seed is not None:
        values["run"]["seed"] = _parse_value(int, args.seed, "[run] seed")
    if getattr(args, "folds", None) is not None:
        values["crossval"]["folds"] = _parse_value(int, args.folds, "[crossval] folds")
    cfg = {}
    for sect, preset in _PRESETS.items():  # [run] first: the derived seeds read it
        if sect in _SEEDED:
            values[sect]["seed"] = _seed(cfg, _SEEDED[sect])
        try:
            cfg[sect] = replace(preset, **values[sect])
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"[{sect}] {exc}") from exc
    if args.command in ("train", "crossval"):  # they build a net from [model]
        _check_input_dim("[model]", cfg["model"].input_dim, cfg)
    return cfg


def _check_input_dim(source: str, input_dim: int, cfg) -> None:
    """A net's input is the crop: an input_dim other than [preprocess] crop_dim raises InvalidConfigError."""
    crop_dim = cfg["preprocess"].crop_dim
    if input_dim != crop_dim:
        raise InvalidConfigError(f"{source} input_dim {input_dim} must equal [preprocess] crop_dim {crop_dim}")


def _seed(cfg, stream: str) -> int:
    return cfg["run"].seed + _SEED_OFFSETS[stream]


def _format_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _echo_config(out: Path, cfg: dict) -> None:
    cp = configparser.ConfigParser(interpolation=None)
    for sect, section in cfg.items():
        cp[sect] = {key: _format_value(getattr(section, key)) for key in _keys(sect)}
    buf = io.StringIO()
    cp.write(buf)
    write_text(out / "effective.cfg", buf.getvalue())


def _write_json(path: Path, doc) -> None:
    write_text(path, json_text(doc) + "\n")


def _load_dataset(data_dir):
    """Ids, images and CAC scores of a dataset directory. Every id, every
    image file and every row's 'cac' column is checked here (a negative score
    raises NegativeScoreError). The images are read again on use, one file at
    a time: each command preprocesses only the images it uses and drops each
    one when its crop is made."""
    ids, dicoms, records = read_dataset(data_dir)
    cacs = []
    for r in records:
        if "cac" not in r.covariates:
            raise InvalidConfigError(f"cohort row {r.id} lacks a 'cac' column")
        cacs.append(float(r.covariates["cac"]))
    cacs = np.asarray(cacs)
    check_nonnegative(cacs)
    return ids, dicoms, cacs


def _load_cohort(cohort, sv):
    """Records of a cohort file, or of a dataset directory's cohort.csv, each
    checked to hold the [survival] group and adjust columns."""
    cohort_path = Path(cohort)
    if cohort_path.is_dir():
        cohort_path = cohort_path / "cohort.csv"
    records = cohort_from_csv(read_text(cohort_path))
    for r in records:
        for key, col in (("group", sv.group), ("adjust", sv.adjust)):
            if col not in r.covariates:
                raise InvalidConfigError(f"subject {r.id} lacks the [survival] {key} column {col!r}")
    return records


def _load_model_dir(model_dir):
    """Parameters, label transform and pixel statistics of a train output;
    a damaged file raises an UnreadableInputError."""
    model_dir = Path(model_dir)
    net_cfg, lt = sidecar_from_json(read_text(model_dir / "sidecar.json"))
    params = load_weights(model_dir / "weights.cacw", net_cfg)
    stats = stats_from_csv(read_text(model_dir / "stats.csv"))
    return params, lt, stats


def _read_test_ids(model_dir) -> list[str]:
    split_path = Path(model_dir) / "split.json"
    if not split_path.exists():
        raise InvalidConfigError("--split internal needs split.json in the model directory")
    doc = json_value(read_text(split_path), "split.json")
    ids = doc.get("test_ids") if type(doc) is dict else None
    if type(ids) is not list or not all(type(i) is str for i in ids):
        raise MalformedFileError("split.json holds no list of test ids")
    return ids


# --- commands -----------------------------------------------------------------


def cmd_synth(args, cfg, out: Path) -> dict | None:
    synth_cfg = cfg["synth"]
    # each image is written as it is made: synth holds no whole dataset
    records = write_dataset(synth_cfg, iter_samples(synth_cfg), out)
    n_pos = sum(1 for r in records if r.covariates["cac"] > 0)
    print(f"wrote {synth_cfg.n} samples ({n_pos} with cac > 0) to {out}")
    return None  # write_dataset wrote the dataset's own manifest.json


def cmd_train(args, cfg, out: Path) -> dict:
    tc = cfg["train"]
    frac = tc.train_fraction
    ids, dicoms, cacs = args.dataset
    n = len(ids)
    split_seed = _seed(cfg, "split")
    perm = np.random.default_rng(split_seed).permutation(n)
    n_train = int(round(frac * n))
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    crops = [preprocess_uncalibrated(dicoms[i], cfg["preprocess"]) for i in train_idx]
    stats, lt, xtr, ytr = fit_transforms(crops, cacs[train_idx])
    del crops  # training reads only the standardized copies
    params = init_model(cfg["model"], _seed(cfg, "init"))
    fitted, history = train(list(zip(xtr, ytr)), tc, params)

    save_weights(out / "weights.cacw", fitted)
    write_text(out / "sidecar.json", sidecar_to_json(cfg["model"], lt) + "\n")
    write_text(out / "stats.csv", stats_to_csv(stats))
    write_text(out / "history.csv", csv_text(("epoch", "train_mae"), enumerate(history, 1)))
    split = {"split_seed": split_seed, "train_fraction": frac,
             "train_ids": [ids[i] for i in train_idx], "test_ids": [ids[i] for i in test_idx]}
    _write_json(out / "split.json", split)
    print(f"trained {tc.epochs} epochs on {n_train} samples; final train MAE {history[-1]:.4f}")
    return {"inputs": {"data": str(args.data)}, "n": n, "n_train": int(n_train), "n_test": int(n - n_train),
            "final_train_mae": history[-1]}


def cmd_evaluate(args, cfg, out: Path) -> dict:
    ev = cfg["evaluate"]
    params, lt, stats = args.trained
    ids, dicoms, cacs = args.dataset

    if args.split == "internal":
        keep = set(_read_test_ids(args.model))
        sel = [i for i, sid in enumerate(ids) if sid in keep]
        missing = keep - {ids[i] for i in sel}
        if missing:
            raise InvalidConfigError(f"test ids missing from the dataset: {sorted(missing)[:5]}")
    else:
        sel = list(range(len(ids)))
    if not sel:
        raise EmptyCohortError("evaluation set is empty")

    x = [standardize(preprocess_uncalibrated(dicoms[i], cfg["preprocess"]), stats) for i in sel]
    scores = predict(params, x)
    samples = [
        ScoredSample(score=float(scores[j]), truth_cac=float(cacs[i]), id=ids[i])
        for j, i in enumerate(sel)
    ]
    truth_th = ev.truth_threshold
    threshold = transform_threshold(truth_th, lt)
    auc = roc_auc(samples, truth_th)
    ci_lo, ci_hi = auc_confidence_interval(
        samples,
        truth_th,
        level=ev.confidence_level,
        n_resamples=ev.bootstrap_resamples,
        seed=_seed(cfg, "bootstrap"),
    )
    counts = confusion_at_threshold(samples, threshold, truth_th)
    diag = diagnostic_metrics(counts)
    report = {
        "n": len(samples),
        "truth_threshold": truth_th,
        "decision_threshold_transformed": threshold.transformed,
        "auc": auc,
        "auc_ci_low": ci_lo,
        "auc_ci_high": ci_hi,
        "rauc": rauc(samples, ev.rauc_grid),
        "confusion": {"tp": counts.tp, "fp": counts.fp, "tn": counts.tn, "fn": counts.fn},
        **diag,
    }
    _write_json(out / "report.json", report)
    write_text(out / "pr_curve.csv", csv_text(("recall", "precision"), pr_curve(samples, truth_th)))
    header = ("stratum", "count", "mean_true_cac", "mean_predicted_cac")
    calibration = [[getattr(r, c) for c in header] for r in calibration_table(samples, lt, ev.calibration_edges)]
    write_text(out / "calibration.csv", csv_text(header, calibration))
    print(f"AUC {auc:.4f} (95% CI {ci_lo:.4f}-{ci_hi:.4f}) on {len(samples)} samples")
    return {"inputs": {"data": str(args.data), "model": str(args.model), "split": args.split}, "n": len(samples)}


def cmd_crossval(args, cfg, out: Path) -> dict:
    _, dicoms, cacs = args.dataset
    crops = [preprocess_uncalibrated(d, cfg["preprocess"]) for d in dicoms]
    k = cfg["crossval"].folds
    report = cross_validate(
        crops,
        cacs,
        cfg["model"],
        cfg["train"],
        k=k,
        seed=_seed(cfg, "folds"),
        truth_threshold=cfg["evaluate"].truth_threshold,
        rauc_grid=cfg["evaluate"].rauc_grid,
    )
    write_text(out / "crossval.csv", crossval_to_csv(report))
    write_text(out / "crossval.json", crossval_to_json(report) + "\n")
    mean = report.mean
    print(
        f"{k}-fold mean: accuracy {mean['accuracy']:.3f}, "
        f"balanced {mean['balanced_accuracy']:.3f}, rauc {mean['rauc']:.3f}"
    )
    return {"inputs": {"data": str(args.data), "folds": k}, "mean": mean}


def cmd_survival(args, cfg, out: Path) -> dict:
    records = args.records
    sv = cfg["survival"]
    group_cov, adjust_cov, horizon = sv.group, sv.adjust, sv.horizon_years
    zero = [r for r in records if r.covariates[group_cov] <= 0]
    positive = [r for r in records if r.covariates[group_cov] > 0]
    km_zero = kaplan_meier(zero)
    km_pos = kaplan_meier(positive)
    lr = log_rank(zero, positive)
    cox_uni = cox_fit(records, [group_cov])
    cox_bi = cox_fit(records, [group_cov, adjust_cov])
    hr = cox_uni.by_name(group_cov)
    write_text(out / "km_group0.csv", km_to_csv(km_zero))
    write_text(out / "km_group1.csv", km_to_csv(km_pos))
    write_text(out / "cox_univariate.json", cox_to_json(cox_uni) + "\n")
    write_text(out / "cox_bivariate.json", cox_to_json(cox_bi) + "\n")
    summary = {
        "group_covariate": group_cov,
        "adjust_covariate": adjust_cov,
        "n_group0": len(zero),
        "n_group1": len(positive),
        "horizon_years": horizon,
        "event_rate_group0": km_event_estimate(km_zero, horizon),
        "event_rate_group1": km_event_estimate(km_pos, horizon),
        "log_rank_chi2": lr.chi2,
        "log_rank_p": lr.p_value,
        "hazard_ratio": hr.hazard_ratio,
        "hazard_ratio_ci": [hr.ci_low, hr.ci_high],
        "adjusted_hazard_ratio": cox_bi.by_name(group_cov).hazard_ratio,
    }
    _write_json(out / "survival.json", summary)
    print(
        f"log-rank chi2 {lr.chi2:.3f} (p {lr.p_value:.4g}); "
        f"HR {summary['hazard_ratio']:.3f}, adjusted {summary['adjusted_hazard_ratio']:.3f}"
    )
    return {"inputs": {"cohort": str(args.cohort)}, "n": len(records)}


def cmd_explain(args, cfg, out: Path) -> dict:
    params, _, stats = args.trained
    ids, dicoms, _ = args.dataset
    if args.ids:
        wanted = [s.strip() for s in args.ids.split(",") if s.strip()]
        index = {sid: i for i, sid in enumerate(ids)}
        missing = [w for w in wanted if w not in index]
        if missing:
            raise InvalidConfigError(f"ids not in the dataset: {missing[:5]}")
        sel = [index[w] for w in wanted]
    else:
        sel = list(range(min(len(ids), args.limit)))
    written = []
    for i in sel:
        x = standardize(preprocess_uncalibrated(dicoms[i], cfg["preprocess"]), stats)
        sal = gradcam(params, x)
        map_path, overlay_path = export_saliency(sal, x, out, ids[i])
        written.append(map_path.name)
        written.append(overlay_path.name)
    print(f"wrote {len(written)} saliency files for {len(sel)} images to {out}")
    return {"inputs": {"data": str(args.data), "model": str(args.model)}, "files": written}


# --- wiring --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cacxray",
        description="Coronary calcium scoring from chest radiographs (synthetic-data workflow)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI settings file merged over the defaults")
        p.add_argument("--seed", help="master seed overriding [run] seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic DICOM dataset with a cohort file")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the regressor on a dataset directory")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory (images/ + cohort.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="diagnostic-accuracy report for a trained model")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="directory produced by train")
    p.add_argument("--split", choices=("internal", "all"), default="internal")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("crossval", help="k-fold cross-validation with per-fold refitting")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--folds")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("survival", help="Kaplan-Meier, log-rank and Cox analysis of a cohort")
    common(p)
    p.add_argument("--cohort", required=True, help="cohort.csv or a dataset directory")
    p.set_defaults(func=cmd_survival)

    p = sub.add_parser("explain", help="saliency maps for dataset images")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--ids", help="comma-separated image ids (default: first --limit)")
    p.add_argument("--limit", type=int, default=8, help="images to explain without --ids (at least 1)")
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if "model" in args:  # a net of the wrong size exits 2 before --out exists
            args.trained = _load_model_dir(args.model)
            _check_input_dim("--model", args.trained[0].cfg.input_dim, cfg)
        if "data" in args:  # so does a damaged dataset, with exit 4
            args.dataset = _load_dataset(args.data)
        if "cohort" in args:  # and a bad cohort, with exit 2 or 4
            args.records = _load_cohort(args.cohort, cfg["survival"])
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _echo_config(out, cfg)
        manifest = args.func(args, cfg, out)
        if manifest is not None:
            doc = {"command": args.command, "seed": cfg["run"].seed, "version": __version__, **manifest}
            _write_json(out / "manifest.json", doc)
        return 0
    except CacXrayError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{UnreadableInputError.label}: {exc}", file=sys.stderr)
        return UnreadableInputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
