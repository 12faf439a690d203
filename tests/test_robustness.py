"""Damaged input files and the exit-code contract.

Every file the command line reads back from a model directory (weights,
sidecar, statistics, split), a DICOM image and the cohort file is cut at
every byte and has every byte replaced in turn by 0x00, 0xff, '"' and ','.
Each mutation must load or raise an error that ``main`` maps to an exit
code; a KeyError, TypeError or IndexError would surface as a traceback. The
table at the end pins the exit code of every error class, and every float
range check of the library configs must reject NaN.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cacxray import cli, dicom, errors
from cacxray.errors import CacXrayError
from cacxray.labels import LabelTransform
from cacxray.model import (
    DenseNetConfig,
    TrainConfig,
    init_model,
    sidecar_to_json,
    weights_from_bytes,
    weights_to_bytes,
)
from cacxray.preprocess import DatasetStats, stats_to_csv
from cacxray.survival import SubjectRecord, cohort_from_csv, cohort_to_csv
from cacxray.synthgen import SynthConfig

_SUBSTITUTES = b'\x00\xff",'


def _mutations(data: bytes):
    for cut in range(len(data)):
        yield data[:cut]
    for pos, old in enumerate(data):
        for new in _SUBSTITUTES:
            if new != old:
                yield data[:pos] + bytes([new]) + data[pos + 1:]


_NET = DenseNetConfig(input_dim=8, init_channels=2, growth_rate=1, block_layers=(1,), head_hidden=2)


@pytest.fixture
def model_dir(tmp_path):
    """A small but complete train output."""
    lt = LabelTransform(mu_log=1.25, sigma_log=0.75)
    (tmp_path / "weights.cacw").write_bytes(weights_to_bytes(init_model(_NET, 0)))
    (tmp_path / "sidecar.json").write_text(sidecar_to_json(_NET, lt) + "\n")
    (tmp_path / "stats.csv").write_text(stats_to_csv(DatasetStats(mu=12.5, sigma=3.75)))
    split = {"split_seed": 1, "train_fraction": 0.5, "train_ids": ["s00000", "s00002"],
             "test_ids": ["s00001", "s00003"]}
    (tmp_path / "split.json").write_text(json.dumps(split, sort_keys=True, indent=2) + "\n")
    return tmp_path


def _assert_loads_or_exits_4(original: bytes, load):
    for data in _mutations(original):
        try:
            load(data)
        except CacXrayError as exc:
            assert exc.exit_code == 4, f"{type(exc).__name__} for {data!r}"


def _through_file(path, read):
    def load(data):
        path.write_bytes(data)
        read()
    return load


def test_every_weights_mutation_loads_or_exits_4(model_dir):
    # the command line reads the weights file as bytes and hands them over as is
    original = (model_dir / "weights.cacw").read_bytes()
    _assert_loads_or_exits_4(original, lambda data: weights_from_bytes(data, _NET))


@pytest.mark.parametrize("name", ["sidecar.json", "stats.csv"])
def test_every_text_model_file_mutation_loads_or_exits_4(model_dir, name):
    path = model_dir / name
    cli._load_model_dir(model_dir)
    load = _through_file(path, lambda: cli._load_model_dir(model_dir))
    _assert_loads_or_exits_4(path.read_bytes(), load)


def test_every_split_mutation_loads_or_exits_4(model_dir):
    path = model_dir / "split.json"
    assert cli._read_test_ids(model_dir) == ["s00001", "s00003"]
    _assert_loads_or_exits_4(path.read_bytes(), _through_file(path, lambda: cli._read_test_ids(model_dir)))


@pytest.mark.parametrize("ts", [dicom.EXPLICIT_VR_LE, dicom.IMPLICIT_VR_LE])
def test_every_dicom_mutation_loads_or_exits_4(ts):
    img = dicom.DicomImage(
        rows=2, cols=2, bits_allocated=16, bits_stored=12, pixel_representation=1,
        photometric="MONOCHROME1", window_center=40.0, window_width=80.0,
        pixels=np.array([[-2048, 0], [7, 2047]]), rescale_slope=2.0, rescale_intercept=-1024.0,
    )
    _assert_loads_or_exits_4(dicom.write_test_dicom(img, transfer_syntax=ts), dicom.parse_dicom)


def test_every_cohort_mutation_loads_or_raises_a_mapped_error():
    records = [
        SubjectRecord(id=f"s{i:05d}", time_years=1.5 + i, event=bool(i % 2),
                      covariates={"cac": 10.0 * i, "ai_cac_category": float(i % 3)})
        for i in range(3)
    ]
    data = cohort_to_csv(records).encode("utf-8")
    assert len(cohort_from_csv(data.decode("utf-8"))) == 3
    for mutated in _mutations(data):
        try:
            cohort_from_csv(mutated.decode("utf-8"))
        except (CacXrayError, OSError, ValueError):
            pass


# --- exit codes -----------------------------------------------------------------

EXIT_CODES = {
    errors.InvalidConfigError: 2,
    errors.TrainingFailedError: 3,
    errors.EmptyDatasetError: 3,
    errors.MalformedFileError: 4,
    errors.UnsupportedTransferSyntaxError: 4,
    errors.MissingRequiredTagError: 4,
    errors.UnsupportedPhotometricError: 4,
    errors.BadMagicError: 4,
    errors.TruncatedFileError: 4,
    errors.ShapeMismatchError: 4,
    errors.DegenerateDatasetError: 5,
    errors.DegenerateLabelsError: 5,
    errors.NegativeScoreError: 5,
    errors.OneClassOnlyError: 5,
    errors.NoPositivesError: 5,
    errors.NonFiniteScoreError: 5,
    errors.AllGridDegenerateError: 5,
    errors.TooFewSamplesError: 5,
    errors.EmptyCohortError: 5,
    errors.NoEventsError: 5,
    errors.ConstantCovariateError: 5,
    errors.DivergedError: 5,
    errors.NonPositiveWidthError: 5,
    errors.StaleTraceError: 5,
    errors.NegativeStatisticError: 5,
}
_CATEGORIES = {
    CacXrayError, errors.ConfigError, errors.TrainingError,
    errors.UnreadableInputError, errors.DegenerateDataError,
}


def test_exit_code_table_covers_every_error_class():
    defined = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, CacXrayError)}
    assert set(EXIT_CODES) == defined - _CATEGORIES
    assert len(EXIT_CODES) == 25


@pytest.mark.parametrize(
    "exc_type,code",
    [*EXIT_CODES.items(), (FileNotFoundError, 4), (ValueError, 2)],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, tmp_path, capsys, exc_type, code):
    def fail(args, cfg, out):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "cmd_synth", fail)
    assert cli.main(["synth", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.endswith(": boom\n")


_RANGED_FLOATS = [
    *((SynthConfig, f) for f in ("cac_max", "mass_scale", "blob_peak", "baseline_hazard",
                                 "hazard_ratio", "max_followup_years")),
    (TrainConfig, "learning_rate"),
    (TrainConfig, "weight_decay"),
]


@pytest.mark.parametrize("cls,name", _RANGED_FLOATS, ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_range_checks_reject_nan(cls, name):
    with pytest.raises(errors.InvalidConfigError):
        replace(cls(), **{name: math.nan})
