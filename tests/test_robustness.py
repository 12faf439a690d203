"""Damaged input files and the exit-code contract.

Every file the command line reads back from a model directory (weights,
sidecar, statistics, split), a DICOM image (alone and as the one image of a
dataset) and the cohort file is cut at every byte and has every byte
replaced in turn by 0x00, 0xff, '"' and ','.
Each mutation must load or raise an error that ``main`` maps to an exit
code; a KeyError, TypeError or IndexError would surface as a traceback.
Properties then feed any bytes to the weights and DICOM parsers, which must
parse or raise a CacXrayError, and write any bytes as each text file: a
text model file must load or exit 4, a cohort must load or exit 2 or 4. The
table at the end pins the exit code of every error class, and every float
range check of the library configs must reject NaN.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cacxray import cli, dicom, errors
from cacxray.errors import CacXrayError
from cacxray.framing import read_text
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
from cacxray.synthgen import SynthConfig, read_dataset

_SUBSTITUTES = b'\x00\xff",'


def _mutations(data: bytes):
    for cut in range(len(data)):
        yield data[:cut]
    for pos, old in enumerate(data):
        for new in _SUBSTITUTES:
            if new != old:
                yield data[:pos] + bytes([new]) + data[pos + 1:]


_NET = DenseNetConfig(input_dim=8, init_channels=2, growth_rate=1, block_layers=(1,), head_hidden=2)
_WEIGHTS = weights_to_bytes(init_model(_NET, 0))


_SPLIT = {"split_seed": 1, "train_fraction": 0.5, "train_ids": ["s00000", "s00002"],
          "test_ids": ["s00001", "s00003"]}
_MODEL_TEXT_FILES = {
    "sidecar.json": (sidecar_to_json(_NET, LabelTransform(mu_log=1.25, sigma_log=0.75)) + "\n").encode(),
    "stats.csv": stats_to_csv(DatasetStats(mu=12.5, sigma=3.75)).encode(),
    "split.json": (json.dumps(_SPLIT, sort_keys=True, indent=2) + "\n").encode(),
}


def _write_model_dir(path):
    """A small but complete train output."""
    (path / "weights.cacw").write_bytes(_WEIGHTS)
    for name, data in _MODEL_TEXT_FILES.items():
        (path / name).write_bytes(data)
    return path


@pytest.fixture
def model_dir(tmp_path):
    return _write_model_dir(tmp_path)


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


_IMAGE = dicom.DicomImage(
    rows=2, cols=2, bits_allocated=16, bits_stored=12, pixel_representation=1,
    photometric="MONOCHROME1", window_center=40.0, window_width=80.0,
    pixels=np.array([[-2048, 0], [7, 2047]]), rescale_slope=2.0, rescale_intercept=-1024.0,
)
_DICOMS = {ts: dicom.write_test_dicom(_IMAGE, transfer_syntax=ts) for ts in (dicom.EXPLICIT_VR_LE, dicom.IMPLICIT_VR_LE)}


@pytest.mark.parametrize("ts", list(_DICOMS))
def test_every_dicom_mutation_loads_or_exits_4(ts):
    _assert_loads_or_exits_4(_DICOMS[ts], dicom.parse_dicom)


@pytest.mark.parametrize("ts", list(_DICOMS))
def test_every_dicom_mutation_in_a_dataset_loads_or_exits_4(tmp_path, ts):
    # read_dataset keeps no pixel byte and reads the image again on use: both
    # reads must load or raise what main maps to exit 4
    (tmp_path / "images").mkdir()
    record = SubjectRecord(id="s00000", time_years=1.5, event=True, covariates={"cac": 10.0})
    (tmp_path / "cohort.csv").write_text(cohort_to_csv([record]))
    path = tmp_path / "images" / "s00000.dcm"

    def load():
        _, images, _ = read_dataset(tmp_path)
        images[0]

    for data in _mutations(_DICOMS[ts]):
        path.write_bytes(data)
        assert _exit_code(load) in (0, 4), data


_COHORT = cohort_to_csv([
    SubjectRecord(id=f"s{i:05d}", time_years=1.5 + i, event=bool(i % 2),
                  covariates={"cac": 10.0 * i, "ai_cac_category": float(i % 3)})
    for i in range(3)
]).encode("utf-8")


def test_every_cohort_mutation_loads_or_raises_a_mapped_error(tmp_path):
    # the command line reads a cohort through framing.read_text, as here
    path = tmp_path / "cohort.csv"
    path.write_bytes(_COHORT)
    assert len(cohort_from_csv(read_text(path))) == 3
    load = _through_file(path, lambda: cohort_from_csv(read_text(path)))
    for mutated in _mutations(_COHORT):
        try:
            load(mutated)
        except (CacXrayError, OSError):
            pass


# --- any bytes as a text file ----------------------------------------------------


def _exit_code(call) -> int:
    """The exit code ``main`` gives what ``call`` raises, 0 if it returns.
    Anything ``main`` does not map escapes and fails the test."""
    try:
        call()
    except CacXrayError as exc:
        return exc.exit_code
    except OSError:
        return 4
    return 0


def _bytes_near(original: bytes):
    """Any bytes, any UTF-8 text, text over the characters of ``original`` and
    the framing characters, and ``original`` with a span replaced."""
    alphabet = sorted(set(original.decode("utf-8")) | set('"\\,[]{}\r\n'))
    return st.one_of(
        st.binary(),
        st.text().map(lambda t: t.encode("utf-8")),
        st.text(st.sampled_from(alphabet)).map(lambda t: t.encode("utf-8")),
        _span_replaced(original),
    )


def _span_replaced(original: bytes):
    """``original`` with a span, maybe empty, replaced by up to 8 bytes."""
    n = len(original)
    return st.builds(lambda i, j, new: original[:min(i, j)] + new + original[max(i, j):],
                     st.integers(0, n), st.integers(0, n), st.binary(max_size=8))


@pytest.fixture(scope="module")
def shared_model_dir(tmp_path_factory):
    return _write_model_dir(tmp_path_factory.mktemp("model"))


_TEXT_MODEL_FILE_READERS = {"sidecar.json": cli._load_model_dir, "stats.csv": cli._load_model_dir,
                            "split.json": cli._read_test_ids}


@pytest.mark.parametrize("name", sorted(_TEXT_MODEL_FILE_READERS))
@settings(max_examples=200)
@given(data=st.data())
def test_any_bytes_as_a_text_model_file_load_or_exit_4(shared_model_dir, name, data):
    path = shared_model_dir / name
    path.write_bytes(data.draw(_bytes_near(_MODEL_TEXT_FILES[name])))
    try:
        assert _exit_code(lambda: _TEXT_MODEL_FILE_READERS[name](shared_model_dir)) in (0, 4)
    finally:
        path.write_bytes(_MODEL_TEXT_FILES[name])


# --- any bytes as a binary file --------------------------------------------------


@settings(max_examples=300)
@given(st.one_of(st.binary(), _span_replaced(_WEIGHTS)))
def test_any_bytes_as_weights_parse_or_raise_a_cacxray_error(data):
    try:
        weights_from_bytes(data, _NET)
    except CacXrayError:
        pass


@pytest.mark.parametrize("ts", list(_DICOMS))
@settings(max_examples=300)
@given(data=st.data())
def test_any_bytes_as_a_dicom_parse_or_raise_a_cacxray_error(ts, data):
    try:
        dicom.parse_dicom(data.draw(st.one_of(st.binary(), _span_replaced(_DICOMS[ts]))))
    except CacXrayError:
        pass


@pytest.fixture(scope="module")
def imageless_dataset(tmp_path_factory):
    # a cohort that parses and names an image exits 4 when the image is missing
    return tmp_path_factory.mktemp("dataset")


@settings(max_examples=300)
@given(_bytes_near(_COHORT))
def test_any_bytes_as_a_cohort_load_or_exit_2_or_4(imageless_dataset, data):
    (imageless_dataset / "cohort.csv").write_bytes(data)
    assert _exit_code(lambda: read_dataset(imageless_dataset)) in (0, 2, 4)


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
    [*EXIT_CODES.items(), (FileNotFoundError, 4)],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, tmp_path, capsys, exc_type, code):
    def fail(args, cfg, out):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "cmd_synth", fail)
    assert cli.main(["synth", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.endswith(": boom\n")


def test_main_lets_a_bare_value_error_propagate(monkeypatch, tmp_path):
    # a ValueError outside the taxonomy is a defect, not an exit code
    def fail(args, cfg, out):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_synth", fail)
    with pytest.raises(ValueError, match="boom"):
        cli.main(["synth", "--out", str(tmp_path)])


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
