"""Command-line workflow: the full synth/train/evaluate/crossval/survival/explain
chain on a small dataset, plus configuration and exit-code contracts."""

import configparser
import csv
import hashlib
import io
import json
import os
import pickle
import shutil
import struct
import subprocess
import sys
import tracemalloc
import typing
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import cacxray
from cacxray import cli, synthgen
from cacxray.cli import main
from cacxray.framing import csv_text

from conftest import replace_element_payload

SMALL_INI = """
[synth]
n = 32
baseline_hazard = 0.3

[preprocess]
resize_dim = 20
crop_dim = 16

[model]
input_dim = 16
init_channels = 4
growth_rate = 2
block_layers = 1,1
head_hidden = 8

[train]
epochs = 1
batch_size = 4
learning_rate = 0.001
"""


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """One full pipeline run shared by the assertions below."""
    root = tmp_path_factory.mktemp("cliflow")
    cfg = root / "cfg.ini"
    cfg.write_text(SMALL_INI)
    c = str(cfg)
    paths = {
        "root": root,
        "cfg": cfg,
        "data": root / "data",
        "model": root / "model",
        "eval": root / "eval",
        "cv": root / "cv",
        "surv": root / "surv",
        "xp": root / "xp",
    }
    assert main(["synth", "--config", c, "--out", str(paths["data"]), "--seed", "3"]) == 0
    assert main(["train", "--config", c, "--data", str(paths["data"]),
                 "--out", str(paths["model"]), "--seed", "3"]) == 0
    assert main(["evaluate", "--config", c, "--data", str(paths["data"]),
                 "--model", str(paths["model"]), "--out", str(paths["eval"]), "--seed", "3"]) == 0
    assert main(["crossval", "--config", c, "--data", str(paths["data"]),
                 "--out", str(paths["cv"]), "--seed", "3", "--folds", "3"]) == 0
    assert main(["survival", "--config", c, "--cohort", str(paths["data"]),
                 "--out", str(paths["surv"]), "--seed", "3"]) == 0
    assert main(["explain", "--config", c, "--data", str(paths["data"]),
                 "--model", str(paths["model"]), "--out", str(paths["xp"]),
                 "--ids", "s00000,s00003", "--seed", "3"]) == 0
    return paths


def test_synth_outputs(flow):
    d = flow["data"]
    assert (d / "cohort.csv").exists()
    assert (d / "blobs.csv").exists()
    assert (d / "manifest.json").exists()
    assert (d / "effective.cfg").exists()
    assert sorted(p.name for p in (d / "images").iterdir())[0] == "s00000.dcm"
    header = (d / "cohort.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["id", "time_years", "event"]


def test_effective_config_echoes_overrides(flow):
    text = (flow["data"] / "effective.cfg").read_text()
    assert "[synth]" in text and "n = 32" in text
    assert "resize_dim = 20" in text
    # untouched defaults are echoed too
    assert "[crossval]" in text and "folds = 5" in text


def test_effective_config_repeats_the_run(flow, tmp_path):
    # the echo records the master seed given by --seed, so no flag is needed
    echo = str(flow["model"] / "effective.cfg")
    assert "[run]\nseed = 3\n" in (flow["model"] / "effective.cfg").read_text()
    assert main(["synth", "--config", echo, "--out", str(tmp_path / "d")]) == 0
    assert main(["train", "--config", echo, "--data", str(tmp_path / "d"),
                 "--out", str(tmp_path / "m")]) == 0
    for rel in ["d/cohort.csv", "d/images/s00007.dcm", "m/weights.cacw", "m/split.json"]:
        original = flow["data" if rel[0] == "d" else "model"] / rel[2:]
        assert (tmp_path / rel).read_bytes() == original.read_bytes(), rel
    assert (tmp_path / "m" / "effective.cfg").read_bytes() == (flow["model"] / "effective.cfg").read_bytes()


def test_train_outputs(flow):
    m = flow["model"]
    for name in ["weights.cacw", "sidecar.json", "stats.csv", "history.csv",
                 "split.json", "manifest.json", "effective.cfg"]:
        assert (m / name).exists(), name
    split = json.loads((m / "split.json").read_text())
    assert len(split["train_ids"]) == 26 and len(split["test_ids"]) == 6
    assert not set(split["train_ids"]) & set(split["test_ids"])
    sidecar = json.loads((m / "sidecar.json").read_text())
    assert set(sidecar) == {"net", "label_transform"}
    history = (m / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_mae"
    assert len(history) == 2  # one epoch


def test_train_manifest(flow):
    man = json.loads((flow["model"] / "manifest.json").read_text())
    assert man["command"] == "train"
    assert man["seed"] == 3
    assert man["n"] == 32 and man["n_train"] == 26 and man["n_test"] == 6


@pytest.mark.parametrize("command,key", [("train", "model"), ("evaluate", "eval"), ("crossval", "cv"),
                                         ("survival", "surv"), ("explain", "xp")])
def test_every_command_writes_its_manifest(flow, command, key):
    man = json.loads((flow[key] / "manifest.json").read_text())
    assert man["command"] == command
    assert man["seed"] == 3
    assert {"inputs", "version"} <= set(man)


def test_dataset_manifest_describes_the_dataset(flow):
    man = json.loads((flow["data"] / "manifest.json").read_text())
    assert man["kind"] == "synthetic-cac-dataset"
    assert "command" not in man


def test_evaluate_outputs(flow):
    e = flow["eval"]
    report = json.loads((e / "report.json").read_text())
    for key in ["n", "auc", "auc_ci_low", "auc_ci_high", "rauc", "confusion",
                "sensitivity", "specificity", "accuracy"]:
        assert key in report, key
    assert report["n"] == 6
    assert 0.0 <= report["auc"] <= 1.0
    assert (e / "pr_curve.csv").read_text().splitlines()[0] == "recall,precision"
    cal = (e / "calibration.csv").read_text().splitlines()
    assert cal[0] == "stratum,count,mean_true_cac,mean_predicted_cac"


def test_crossval_outputs(flow):
    text = (flow["cv"] / "crossval.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["fold", "accuracy", "balanced_accuracy", "sensitivity",
                       "specificity", "rauc"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "Mean"]
    doc = json.loads((flow["cv"] / "crossval.json").read_text())
    assert len(doc["folds"]) == 3


def test_crossval_fold_trainer_and_its_predictor_pickle():
    # so a worker pool could send a fold and its result to another process
    trainer = pickle.loads(pickle.dumps(partial(cli._fit_fold, cli._PRESETS)))
    x = [np.full((64, 64), v) for v in (-1.0, 0.0, 1.0)]
    predictor = trainer(x, np.array([0.0, 0.5, 1.0]))
    assert pickle.loads(pickle.dumps(predictor))(x).tobytes() == predictor(x).tobytes()


def test_crossval_folds_flag_is_echoed_and_repeats_the_run(flow, tmp_path):
    echo = flow["cv"] / "effective.cfg"
    assert "[crossval]\nfolds = 3\n" in echo.read_text()
    assert main(["crossval", "--config", str(echo), "--data", str(flow["data"]),
                 "--out", str(tmp_path / "cv")]) == 0
    assert (tmp_path / "cv" / "crossval.csv").read_bytes() == (flow["cv"] / "crossval.csv").read_bytes()
    assert (tmp_path / "cv" / "effective.cfg").read_bytes() == echo.read_bytes()


def test_survival_outputs(flow):
    s = flow["surv"]
    for name in ["km_group0.csv", "km_group1.csv", "cox_univariate.json",
                 "cox_bivariate.json", "survival.json"]:
        assert (s / name).exists(), name
    summary = json.loads((s / "survival.json").read_text())
    assert summary["group_covariate"] == "ai_cac_category"
    assert summary["n_group0"] + summary["n_group1"] == 32
    assert summary["hazard_ratio"] > 0.0
    assert 0.0 <= summary["log_rank_p"] <= 1.0


@pytest.mark.parametrize("name,digest", [
    ("km_group0.csv", "731098f758922a549c5b9e226a192328d3f122f4d15781092cfe066cd37de2cc"),
    ("km_group1.csv", "a26e30aaf8e6eb0527f4adbbb42a630dd94208938a67a07785c478c42c0dad54"),
    ("cox_univariate.json", "294c84636b2d33d422fbbf41d4bb94facd615db05d8694d4fa3a3a39c13703a5"),
    ("cox_bivariate.json", "ca40c03fd8d42da8364cf162a46b20ddedea67b530f933871353a657b25c1c5f"),
    ("survival.json", "31cd79b3bcb9beb37fc8aa1691e1fd73436f0e7a8950b038fcafb7dc0329f2b6"),
])
def test_survival_output_bits_are_pinned(flow, name, digest):
    # taken before one risk-set count replaced the per-time rescans
    assert hashlib.sha256((flow["surv"] / name).read_bytes()).hexdigest() == digest


# SHA-256 of every file the seed-3 chain above writes, each run manifest
# without its inputs, which name temporary paths
_FLOW_DIGESTS = {
    "cfg.ini": "4ed4ca92eb132cf0cb9f12ef876f4141796bf79299b468b84e6173743afa6977",
    "cv/crossval.csv": "50ce0561b2768b5e65e8e3a3e4b40bbc303abbe302c5c8ec58b520609e659821",
    "cv/crossval.json": "415c3f4ee1f15b4b81e1aae57a8d83a7e038f4db63a1e5d075937cfa59b8cbe4",
    "cv/effective.cfg": "af9a01a04a0779a199108350892bf28c7134ce1c2b8213c64a2fb2e5474aa1a0",
    "cv/manifest.json": "2f79f2207ac3a06522bfe26ec768c9fb0b4bd5922ce4378737d9b14b1f41d6cd",
    "data/blobs.csv": "05a2de3d7c603a540bc7163863cfbdaf85d82dbcb00f98cee00e2ec4f5ab085e",
    "data/cohort.csv": "799f079875f1558015f5548dd98cbedc834f87f7833706dee084e54ac0cec44a",
    "data/effective.cfg": "481a8dc8c90ed15deb1a5b5543a33e3717bf2883326dc7608f652c0e1f912677",
    "data/images/s00000.dcm": "f61409420635b964c87406c52a22afd20973a9f4314c4827f63629d61c05dc0a",
    "data/images/s00001.dcm": "c8e561f8afaf86bbd2eb5a665288ac4c928bee015cfbcd9ec023d9f57fbc7f85",
    "data/images/s00002.dcm": "f126adb7240c3250bb90eec1fb883e46df140c621d55b3c7b77db812dd770033",
    "data/images/s00003.dcm": "21a7eab13fd11c356555fa143958513b6ab9a8f30e6e97ca5f403934d018088d",
    "data/images/s00004.dcm": "d04f8ff3e892d8377000bccd177132556cd5e51129555e74088f97c67722b115",
    "data/images/s00005.dcm": "8e45915ab18c0fbc5c12d19be18cd0ab37fb83d76ea475d58251f4d265af80ca",
    "data/images/s00006.dcm": "e67c4e5faf0a5e25ba2d98b56cb1354899bc1523e3386bf4be1e420786c03c77",
    "data/images/s00007.dcm": "74298eb6593eb4dcd25ca7cf24c388be09927a461dc8bcaaa629f3e2f4f6e4d3",
    "data/images/s00008.dcm": "160984257be6094c93e839f5ac6de977bc1e8588142dc86f9e8119e6a9be1fad",
    "data/images/s00009.dcm": "17aee93713ab8e6c9c275e89ff48151a9f8e421cf05340a3619c221d63859c8e",
    "data/images/s00010.dcm": "fa6c0470da52e744cfbe300e762928f4f7c7211a277c3d9fd098fb46b13ed73e",
    "data/images/s00011.dcm": "a8e0b2974905de586ce84d679cf57b97288f2884cb0327ca083221c68ff098d1",
    "data/images/s00012.dcm": "e0aa9a74445e2115482a5b6cc59ed90b62ff660c4e5dc3dc199c4243eab199b6",
    "data/images/s00013.dcm": "7267502b3ddd9d975d2a51e4c224d1009614249038980fdc714c850c9b0875a0",
    "data/images/s00014.dcm": "cc2c9ad526bca1972ac2ba9e38102ea2513523172e4b47fa247845b6c3b8ac4c",
    "data/images/s00015.dcm": "7c2b3bc15ea59f6bdc51567d09ca4be748f2251b1e99b819db7c98f27831f20b",
    "data/images/s00016.dcm": "563d566dc4115f14d32a7fd876e8900fedef435218b5d35ae24e2fb70e76d6e3",
    "data/images/s00017.dcm": "cc462cee2cc0ef4dc191347e247eac10654c5d07d9458462b5caf9babe2c5466",
    "data/images/s00018.dcm": "3155e83af37d0edc2f94a95c43a106606935236fadecf21e2a3dd99fd46e7924",
    "data/images/s00019.dcm": "4137052fe8f80d5887c2c52317ca0ae24e2accc564a478efb73f91cdf5ae4154",
    "data/images/s00020.dcm": "0b1a31077bdbe99e0799eed7881243c1c3f6fb2e53b85e4cdac3900424ca9904",
    "data/images/s00021.dcm": "e5e76b364eba36df088b4a0c52544e040ea30d02dec3c8c89dad0d47cd83d46b",
    "data/images/s00022.dcm": "5e480140f58c70404192ae2854142e6865a81458cf5492614eb60b86695e0c01",
    "data/images/s00023.dcm": "f9422f582c87b01f6471695352c1f1181aa7792ca6617f156212070750576405",
    "data/images/s00024.dcm": "8dcdc5c4145fe76145e8433990b4537a9d02e7b02829016da8a796ee60cd5185",
    "data/images/s00025.dcm": "773a43c3a23daa11fe20a01b90e75a88830f16a7b85ff59973c92c79c4e67b39",
    "data/images/s00026.dcm": "c97acaa13ad661426c4cded045f74b44854e081330dba4f8fea752a31b3cab9a",
    "data/images/s00027.dcm": "0dc587d877986542f3c024f0527c3d9f4e9ceaeb61f28024f5877977c12f4da1",
    "data/images/s00028.dcm": "cbd1c69a01e5c87b8daa48bc88f7604cbbd58139be0147d15f252245bf6c6490",
    "data/images/s00029.dcm": "133ebdcdbf819fefbabe16f347261e61f30647fe6c38f63a62fc328b48eca9a2",
    "data/images/s00030.dcm": "94136542a92f7e8f148ce1c4496e0809e4f87d8fc6bc64b752c8dffd677d56b2",
    "data/images/s00031.dcm": "ea4afbc956f28a4580a4dae9c9c915a8eeb1b6ba1df22f68806d741e4233def5",
    "data/manifest.json": "d387dbb0a09c061c6df2ed0eb8eabee55e7c149126eeaec4eec27057e768bafc",
    "eval/calibration.csv": "94cbba5f8c3c25c452934a707f67a5154e6306049701838f8d3387c0540dec34",
    "eval/effective.cfg": "481a8dc8c90ed15deb1a5b5543a33e3717bf2883326dc7608f652c0e1f912677",
    "eval/manifest.json": "6d9e85944758d11e9ffa303a51058fc7d08a345905ccffede98524517458c497",
    "eval/pr_curve.csv": "59c54ef4688f66809c97778a7a0e21b026cc56653a50ad1744249d7747c2ed99",
    "eval/report.json": "9437d8fe2edd85fc2504ace224f3ad495997808e4f50259aef7f11312b5d45c0",
    "model/effective.cfg": "481a8dc8c90ed15deb1a5b5543a33e3717bf2883326dc7608f652c0e1f912677",
    "model/history.csv": "6d92cd7524a9d2c9c20cded820c4e1a9701cda67deeb68aaf7b17a8231beabca",
    "model/manifest.json": "5d8fe7df34432a8c3854b175c6399172e7b2eeb1f7f78cc229d83b7c385fae57",
    "model/sidecar.json": "ddd440d0258953b33dbfc713699e58fd4b6a467c4c5cfcda41259d8970f52deb",
    "model/split.json": "bc46f2f6d050d9a01bd49cfd01d311d09d115d04f8c3cb61b81af04ea2b57190",
    "model/stats.csv": "e0950be1cff707a589e130af90da3444fd293808602852790fd0c6951920b23b",
    "model/weights.cacw": "a0b2eb7bbdb6609b76158165536b2eed60fe8f8b115b9fcebf5180ad3f4549db",
    "surv/cox_bivariate.json": "ca40c03fd8d42da8364cf162a46b20ddedea67b530f933871353a657b25c1c5f",
    "surv/cox_univariate.json": "294c84636b2d33d422fbbf41d4bb94facd615db05d8694d4fa3a3a39c13703a5",
    "surv/effective.cfg": "481a8dc8c90ed15deb1a5b5543a33e3717bf2883326dc7608f652c0e1f912677",
    "surv/km_group0.csv": "731098f758922a549c5b9e226a192328d3f122f4d15781092cfe066cd37de2cc",
    "surv/km_group1.csv": "a26e30aaf8e6eb0527f4adbbb42a630dd94208938a67a07785c478c42c0dad54",
    "surv/manifest.json": "00d67793f106e932fdc2d32d47f0b3f4c315de9c4c74caaf0bbf9dafdbe9aef7",
    "surv/survival.json": "31cd79b3bcb9beb37fc8aa1691e1fd73436f0e7a8950b038fcafb7dc0329f2b6",
    "xp/effective.cfg": "481a8dc8c90ed15deb1a5b5543a33e3717bf2883326dc7608f652c0e1f912677",
    "xp/manifest.json": "599f70112f49f10847e1ac297c5cd93853a978d4d6116034860da1ee7f53badb",
    "xp/s00000.map.pgm": "8252a6abb7837db525483580d1cac401c5a564a6772762ea620d0efe1ed51b22",
    "xp/s00000.overlay.pgm": "b3d76ca6971e1ff0b5e8dba17e580beefd098ea7c26de18c5405910c3c58b077",
    "xp/s00003.map.pgm": "cedae89c1b1fec2b486e0d45e9049d360edd05b6526bb6221e4a7bc475fb5d5c",
    "xp/s00003.overlay.pgm": "c36a05f17c0503ce5812cd411e81868f12aa0ff976ff0a75092aa77167b82a71",
}


def _digests(root: Path) -> dict:
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            if doc.pop("inputs", None) is not None:
                data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        out[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def test_every_output_of_the_seed_3_chain_is_pinned(flow):
    assert _digests(flow["root"]) == _FLOW_DIGESTS


def test_explain_outputs(flow):
    x = flow["xp"]
    for name in ["s00000.map.pgm", "s00000.overlay.pgm", "s00003.map.pgm",
                 "s00003.overlay.pgm"]:
        assert (x / name).exists(), name
    assert (x / "s00000.map.pgm").read_bytes()[:2] == b"P5"
    man = json.loads((x / "manifest.json").read_text())
    assert len(man["files"]) == 4


def test_synth_deterministic_across_runs(flow, tmp_path):
    c = str(flow["cfg"])
    assert main(["synth", "--config", c, "--out", str(tmp_path / "again"), "--seed", "3"]) == 0
    for rel in ["cohort.csv", "blobs.csv", "images/s00000.dcm", "images/s00031.dcm"]:
        assert (tmp_path / "again" / rel).read_bytes() == (flow["data"] / rel).read_bytes()


def test_seed_flag_matches_config_seed(flow, tmp_path):
    cfg = tmp_path / "seeded.ini"
    cfg.write_text(SMALL_INI + "\n[run]\nseed = 3\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "viacfg")]) == 0
    assert ((tmp_path / "viacfg" / "cohort.csv").read_bytes()
            == (flow["data"] / "cohort.csv").read_bytes())


def test_different_seed_changes_dataset(flow, tmp_path):
    c = str(flow["cfg"])
    assert main(["synth", "--config", c, "--out", str(tmp_path / "other"), "--seed", "4"]) == 0
    assert ((tmp_path / "other" / "cohort.csv").read_bytes()
            != (flow["data"] / "cohort.csv").read_bytes())


def test_evaluate_split_all_uses_whole_dataset(flow, tmp_path):
    rc = main(["evaluate", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--model", str(flow["model"]), "--out", str(tmp_path), "--seed", "3",
               "--split", "all"])
    assert rc == 0
    assert json.loads((tmp_path / "report.json").read_text())["n"] == 32


def _count_preprocessing(monkeypatch):
    calls = []
    real = cli.preprocess_uncalibrated

    def counted(img, cfg):
        calls.append(img)
        return real(img, cfg)

    monkeypatch.setattr(cli, "preprocess_uncalibrated", counted)
    return calls


def test_evaluate_preprocesses_only_the_held_out_images(flow, tmp_path, monkeypatch):
    calls = _count_preprocessing(monkeypatch)
    rc = main(["evaluate", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--model", str(flow["model"]), "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    n_test = json.loads((flow["model"] / "manifest.json").read_text())["n_test"]
    assert len(calls) == n_test
    for name in ("report.json", "pr_curve.csv", "calibration.csv"):
        assert (tmp_path / name).read_bytes() == (flow["eval"] / name).read_bytes(), name


def test_explain_preprocesses_only_the_images_it_explains(flow, tmp_path, monkeypatch):
    calls = _count_preprocessing(monkeypatch)
    rc = main(["explain", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--model", str(flow["model"]), "--out", str(tmp_path), "--limit", "1", "--seed", "3"])
    assert rc == 0
    assert len(calls) == 1
    for name in ("s00000.map.pgm", "s00000.overlay.pgm"):
        assert (tmp_path / name).read_bytes() == (flow["xp"] / name).read_bytes(), name


def test_freeze_policy_comes_from_config(flow, tmp_path):
    cfg = tmp_path / "frozen.ini"
    cfg.write_text(SMALL_INI + "freeze_policy = last_block_and_head\n")
    rc = main(["train", "--config", str(cfg), "--data", str(flow["data"]),
               "--out", str(tmp_path / "m"), "--seed", "3"])
    assert rc == 0
    assert "freeze_policy = last_block_and_head" in (tmp_path / "m" / "effective.cfg").read_text()


def test_no_freeze_command_line_flag(flow, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--freeze", "last_block_and_head", "--data", str(flow["data"]),
              "--out", str(tmp_path)])
    assert exc.value.code == 2


# --- exit codes -------------------------------------------------------------------


def test_unknown_config_key_exits_2(flow, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[synth]\nnn = 10\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_unknown_config_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[synthesis]\nn = 10\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config section" in capsys.readouterr().err


def test_malformed_ini_exits_2(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("not an ini file at all\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_non_numeric_value_exits_2(flow, tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[train]\nepochs = many\n")
    rc = main(["train", "--config", str(cfg), "--data", str(flow["data"]),
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("section,key,value", [
    ("synth", "cac_max", "nan"),
    ("synth", "baseline_hazard", "nan"),
    ("synth", "mass_scale", "inf"),
    ("synth", "mass_scale", "-inf"),
    ("train", "learning_rate", "nan"),
    ("survival", "horizon_years", "nan"),
    ("evaluate", "rauc_grid", "0,inf"),
])
def test_non_finite_float_exits_2_and_names_the_key(section, key, value, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"[{section}] {key} must be a finite number" in capsys.readouterr().err
    assert not (out / "cohort.csv").exists()


@pytest.mark.parametrize("resamples", ["0", "-1"])
def test_bootstrap_resamples_below_one_exits_2(flow, tmp_path, capsys, resamples):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SMALL_INI + f"\n[evaluate]\nbootstrap_resamples = {resamples}\n")
    rc = main(["evaluate", "--config", str(cfg), "--data", str(flow["data"]),
               "--model", str(flow["model"]), "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 2
    assert "[evaluate] bootstrap_resamples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("folds", ["1", "0"])
def test_crossval_folds_below_two_exits_2(flow, tmp_path, capsys, folds):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SMALL_INI + f"\n[crossval]\nfolds = {folds}\n")
    rc = main(["crossval", "--config", str(cfg), "--data", str(flow["data"]),
               "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 2
    assert "[crossval] folds must be at least 2" in capsys.readouterr().err


def test_crossval_folds_flag_below_two_exits_2(flow, tmp_path, capsys):
    rc = main(["crossval", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--out", str(tmp_path / "o"), "--seed", "3", "--folds", "1"])
    assert rc == 2
    assert "[crossval] folds must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_flag_below_zero_exits_2(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "[run] seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_flag_at_2_pow_63_exits_2(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "o"), "--seed", str(2**63)]) == 2
    assert "[run] seed must lie strictly between -2**63 and 2**63" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_flag_that_is_no_integer_exits_2(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "o"), "--seed", "abc"]) == 2
    assert "[run] seed must be an integer, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_crossval_folds_flag_takes_the_ini_bound(flow, tmp_path, capsys):
    # as [crossval] folds in the INI would, before --out exists
    rc = main(["crossval", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--out", str(tmp_path / "o"), "--seed", "3", "--folds", "99999999999999999999"])
    assert rc == 2
    assert "[crossval] folds must lie strictly between -2**63 and 2**63" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_crossval_more_folds_than_subjects_exits_5(flow, tmp_path, capsys):
    rc = main(["crossval", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--out", str(tmp_path / "o"), "--seed", "3", "--folds", "40"])
    assert rc == 5
    assert capsys.readouterr().err == "degenerate data: cannot split 32 samples into 40 folds\n"
    assert not (tmp_path / "o").exists()


def test_crossval_fold_with_one_truth_class_exits_5(flow, tmp_path, capsys):
    # 32 folds of one subject each: the first fold holds a single class
    rc = main(["crossval", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--out", str(tmp_path / "o"), "--seed", "3", "--folds", "32"])
    assert rc == 5
    assert "fold 1 holds a single truth class" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_4(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[synth]\nn = 2\n# \xff\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == "i/o error: bad.cfg is not UTF-8 text\n"
    assert not (tmp_path / "o").exists()


def test_seed_flag_below_2_pow_63_replays_through_its_echo(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[synth]\nn = 2\n")
    seed = str(2**63 - 1)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", seed]) == 0
    echo = tmp_path / "a" / "effective.cfg"
    assert f"[run]\nseed = {seed}\n" in echo.read_text()
    assert main(["synth", "--config", str(echo), "--out", str(tmp_path / "b")]) == 0
    for rel in ["cohort.csv", "images/s00001.dcm", "effective.cfg"]:
        assert (tmp_path / "b" / rel).read_bytes() == (tmp_path / "a" / rel).read_bytes(), rel


# The command that reads each section, given the shared dataset and model.
_SECTION_COMMANDS = {
    "run": ["synth"],
    "synth": ["synth"],
    "preprocess": ["train", "--data", "{data}"],
    "model": ["train", "--data", "{data}"],
    "train": ["train", "--data", "{data}"],
    "evaluate": ["evaluate", "--data", "{data}", "--model", "{model}"],
    "crossval": ["crossval", "--data", "{data}"],
    "survival": ["survival", "--cohort", "{data}"],
}
_HOSTILE_VALUES = {"nan": "nan", "inf": "inf", "-inf": "-inf", "0": "0", "-1": "-1",
                   "1e308": "1e308", "empty": "", "text": "text", "huge": "1" + "0" * 400}


def _reject_constant(name):
    raise AssertionError(f"non-finite {name} in a JSON output")


@pytest.mark.parametrize("value", list(_HOSTILE_VALUES.values()), ids=list(_HOSTILE_VALUES))
@pytest.mark.parametrize("section,key", [(s, k) for s in cli._PRESETS for k in cli._keys(s)])
def test_every_config_key_takes_hostile_values(flow, tmp_path, section, key, value):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(SMALL_INI)
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = value
    cfg = tmp_path / "hostile.ini"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    out = tmp_path / "o"
    argv = [a.format(data=flow["data"], model=flow["model"]) for a in _SECTION_COMMANDS[section]]
    rc = main(argv + ["--config", str(cfg), "--out", str(out)])
    assert rc in (0, 2, 3, 4, 5)
    # every value is checked when the config is read, and the cohort columns
    # that [survival] names when the cohort is, before --out is made
    if rc == 2:
        assert not out.exists()
    for path in out.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def _integer_keys():
    for sect, preset in cli._PRESETS.items():
        hints = typing.get_type_hints(type(preset))
        for key in cli._keys(sect):
            if int in (hints[key], *typing.get_args(hints[key])):
                yield sect, key, typing.get_origin(hints[key]) is tuple


@pytest.mark.parametrize("section,key,pair", list(_integer_keys()))
def test_huge_integer_exits_2_and_names_the_key(flow, tmp_path, capsys, section, key, pair):
    huge = "1" + "0" * 400
    cfg = tmp_path / "huge.ini"
    value = f"{huge},{huge}" if pair else huge
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    argv = [a.format(data=flow["data"], model=flow["model"]) for a in _SECTION_COMMANDS[section]]
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert f"[{section}] {key} must lie strictly between" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,key,value,named", [
    ("run", "seed", "-1", "[run] seed"),
    ("synth", "hazard_ratio", "1e308", "hazard_ratio"),
    ("synth", "image_dim", "65536", "[synth] image_dim"),
    ("synth", "image_dim", "1000000000000", "[synth] image_dim"),
    ("synth", "n", "100001", "[synth] n"),
    ("synth", "n", "9223372036854775807", "[synth] n"),
    ("synth", "baseline_hazard", "1e308", "[synth] baseline_hazard"),
    ("model", "block_layers", "1001", "[model] block_layers"),
    ("model", "block_layers", "2000000", "[model] block_layers"),
    ("model", "growth_rate", "1000000000", "[model] growth_rate"),
    ("model", "growth_rate", "1025", "[model] growth_rate"),
    ("model", "init_channels", "1025", "[model] init_channels"),
    ("model", "head_hidden", "4097", "[model] head_hidden"),
    ("model", "input_dim", "65536", "[model] input_dim"),
    ("model", "block_layers", "1000", "[model] block_layers and the widths list 147377937 parameters"),
    ("model", "growth_rate", "1024", "[model] block_layers and the widths list 267511313 parameters"),
    ("model", "compression", "0.01", "[model] compression 0.01 gives trans0.conv.w the shape (0, 32, 1, 1)"),
    ("preprocess", "resize_dim", "65536", "[preprocess] resize_dim must be at most 65535"),
    ("preprocess", "resize_dim", "10000000000", "[preprocess] resize_dim must be at most 65535"),
    ("preprocess", "resize_dim", "4611686018427387904", "[preprocess] resize_dim must be at most 65535"),
    ("preprocess", "crop_dim", "65536", "[preprocess] crop_dim must be at most 65535"),
    ("evaluate", "calibration_edges", "", "[evaluate] calibration_edges"),
    ("evaluate", "calibration_edges", "400,100", "[evaluate] calibration_edges"),
    ("evaluate", "calibration_edges", "100,400", "[evaluate] calibration_edges"),
    ("evaluate", "truth_threshold", "-1", "[evaluate] truth_threshold"),
    ("evaluate", "rauc_grid", "-5", "[evaluate] rauc_grid"),
    ("evaluate", "rauc_grid", "0,-1,400", "[evaluate] rauc_grid"),
    ("evaluate", "rauc_grid", "", "[evaluate] rauc_grid"),
    ("evaluate", "confidence_level", "1.5", "[evaluate] confidence_level"),
    ("evaluate", "confidence_level", "1", "[evaluate] confidence_level"),
    ("evaluate", "confidence_level", "0", "[evaluate] confidence_level"),
    ("evaluate", "bootstrap_resamples", "1000001", "[evaluate] bootstrap_resamples"),
    ("evaluate", "bootstrap_resamples", "9223372036854775807", "[evaluate] bootstrap_resamples"),
    ("survival", "horizon_years", "-1", "[survival] horizon_years"),
    ("survival", "horizon_years", "0", "[survival] horizon_years"),
])
def test_out_of_range_value_exits_2_and_names_the_key(flow, tmp_path, capsys, section, key, value, named):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    argv = [a.format(data=flow["data"], model=flow["model"]) for a in _SECTION_COMMANDS[section]]
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_survival_adjust_naming_the_group_column_exits_2(flow, tmp_path, capsys):
    # a covariate adjusted for itself leaves the bivariate Cox fit singular,
    # which would exit 5 as degenerate data
    cfg = tmp_path / "same.ini"
    cfg.write_text("[survival]\nadjust = ai_cac_category\n")
    rc = main(["survival", "--config", str(cfg), "--cohort", str(flow["data"]), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "[survival] adjust" in err and "group" in err and "'ai_cac_category'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "crossval"])
def test_input_dim_other_than_crop_dim_exits_2(flow, tmp_path, capsys, command):
    cfg = tmp_path / "dims.ini"
    cfg.write_text(SMALL_INI.replace("input_dim = 16", "input_dim = 32"))
    rc = main([command, "--config", str(cfg), "--data", str(flow["data"]), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "[model] input_dim 32" in err and "[preprocess] crop_dim 16" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_model_input_dim_other_than_crop_dim_exits_2(flow, tmp_path, capsys, command):
    # the 16 px model of the flow meets 12 px crops
    cfg = tmp_path / "dims.ini"
    cfg.write_text(SMALL_INI.replace("crop_dim = 16", "crop_dim = 12"))
    rc = main([command, "--config", str(cfg), "--data", str(flow["data"]), "--model", str(flow["model"]),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "input_dim 16" in err and "[preprocess] crop_dim 12" in err
    assert not (tmp_path / "o").exists()


def test_cohort_event_other_than_0_or_1_exits_2(flow, tmp_path):
    (tmp_path / "cohort.csv").write_text("id,time_years,event,ai_cac_category\na,1.0,1,0\nb,2.0,2,1\n")
    rc = main(["survival", "--config", str(flow["cfg"]), "--cohort", str(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_a_bad_cohort_exits_2_before_out_exists(flow, tmp_path, capsys):
    (tmp_path / "cohort.csv").write_text("id,time_years,event,ai_cac_category\ns1,1.0,maybe,0\ns2,2.0,0,1\n")
    out = tmp_path / "o"
    rc = main(["survival", "--config", str(flow["cfg"]), "--cohort", str(tmp_path), "--out", str(out)])
    assert rc == 2
    assert "subject s1: event must be 0 or 1, got 'maybe'" in capsys.readouterr().err
    assert not out.exists()


def test_cohort_missing_event_column_exits_2(flow, tmp_path):
    (tmp_path / "cohort.csv").write_text("id,time_years,cac\na,1.0,0\nb,2.0,5\n")
    rc = main(["survival", "--config", str(flow["cfg"]), "--cohort", str(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("key,column", [("group", "ai_cac_category"), ("adjust", "esc_class")],
                         ids=["group", "adjust"])
def test_cohort_missing_group_covariate_exits_2(flow, tmp_path, capsys, key, column):
    # the cohort holds every [survival] column but the one under test
    header = ",".join(c for c in ("ai_cac_category", "esc_class") if c != column)
    (tmp_path / "cohort.csv").write_text(f"id,time_years,event,{header}\na,1.0,1,0\nb,2.0,0,1\n")
    rc = main(["survival", "--config", str(flow["cfg"]), "--cohort", str(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"subject a lacks the [survival] {key} column {column!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cohort_non_finite_covariate_exits_2_and_names_it(flow, tmp_path, capsys, value):
    # a NaN group would put its subject in neither Kaplan-Meier group
    (tmp_path / "cohort.csv").write_text(
        f"id,time_years,event,ai_cac_category\na,1.0,1,0\nb,2.0,0,{value}\nc,3.0,1,1\n"
    )
    rc = main(["survival", "--config", str(flow["cfg"]), "--cohort", str(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "subject b: covariate 'ai_cac_category' must be finite" in capsys.readouterr().err


def test_cohort_that_is_not_utf8_exits_4(flow, tmp_path, capsys):
    (tmp_path / "cohort.csv").write_bytes(b"id,time_years,event,ai_cac_category\ns\xe900000,1.0,1,0\n")
    rc = main(["survival", "--config", str(flow["cfg"]), "--cohort", str(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert capsys.readouterr().err == "i/o error: cohort.csv is not UTF-8 text\n"


def test_cohort_is_read_as_utf8_in_an_ascii_locale(flow, tmp_path):
    cohort = (flow["data"] / "cohort.csv").read_bytes().replace(b"\ns00000,", "\ns\u00e900000,".encode(), 1)
    (tmp_path / "cohort.csv").write_bytes(cohort)
    src = str(Path(cacxray.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = subprocess.run([sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
                           env=env, capture_output=True, text=True, timeout=60)
    assert probe.stdout.strip() == "ANSI_X3.4-1968"
    proc = subprocess.run(
        [sys.executable, "-m", "cacxray.cli", "survival", "--config", str(flow["cfg"]), "--cohort", str(tmp_path),
         "--out", str(tmp_path / "o"), "--seed", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "survival.json").read_bytes() == (flow["surv"] / "survival.json").read_bytes()


@pytest.mark.parametrize("home,name,argv,same_as", [
    ("data", "cohort.csv", ["survival", "--cohort", "{copy}", "--config", "{cfg}"], "surv"),
    ("root", "cfg.ini", ["synth", "--config", "{copy}/cfg.ini"], "data"),
    ("model", "sidecar.json", ["evaluate", "--data", "{data}", "--model", "{copy}", "--config", "{cfg}"], "eval"),
], ids=["cohort.csv", "cfg.ini", "sidecar.json"])
def test_text_file_with_a_byte_order_mark_reads_as_without_it(flow, tmp_path, home, name, argv, same_as):
    # spreadsheet exports start a text file with the UTF-8 byte-order mark
    copy = tmp_path / "copy"
    shutil.copytree(flow[home], copy)
    (copy / name).write_bytes(b"\xef\xbb\xbf" + (copy / name).read_bytes())
    argv = [a.format(copy=copy, cfg=flow["cfg"], data=flow["data"]) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o"), "--seed", "3"]) == 0
    assert _digests(tmp_path / "o") == _digests(flow[same_as])


@pytest.mark.parametrize("command,flag", [("survival", "--cohort"), ("train", "--data")])
def test_cohort_cell_past_the_csv_field_limit_exits_4(flow, tmp_path, capsys, command, flag):
    (tmp_path / "cohort.csv").write_text(
        "id,time_years,event,cac,ai_cac_category\n" + "a" * 131073 + ",1.0,1,0,0\n"
    )
    rc = main([command, "--config", str(flow["cfg"]), flag, str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert capsys.readouterr().err == "i/o error: unreadable CSV: field larger than field limit (131072)\n"


def test_cohort_row_without_cac_exits_2(flow, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(flow["data"], data)
    header, *rows = list(csv.reader(io.StringIO((data / "cohort.csv").read_text())))
    rows[0][header.index("cac")] = ""
    (data / "cohort.csv").write_text(csv_text(header, rows))
    rc = main(["train", "--config", str(flow["cfg"]), "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "cohort row s00000 lacks a 'cac' column" in capsys.readouterr().err


@pytest.mark.parametrize("split,code,message", [
    (None, 2, "--split internal needs split.json in the model directory"),
    ({"test_ids": ["s00001", "nobody"]}, 2, "test ids missing from the dataset: ['nobody']"),
    ({"test_ids": []}, 5, "evaluation set is empty"),
], ids=["no_split_json", "unknown_test_id", "no_test_ids"])
def test_internal_split_that_names_no_usable_test_set_is_refused(flow, tmp_path, capsys, split, code, message):
    model = tmp_path / "model"
    shutil.copytree(flow["model"], model)
    (model / "split.json").unlink()
    if split is not None:
        (model / "split.json").write_text(json.dumps(split))
    rc = main(["evaluate", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--model", str(model), "--out", str(tmp_path / "o"), "--split", "internal"])
    assert rc == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_explain_unknown_id_exits_2(flow, tmp_path, capsys):
    rc = main(["explain", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--model", str(flow["model"]), "--out", str(tmp_path / "o"), "--ids", "s00000,nobody"])
    assert rc == 2
    assert "ids not in the dataset: ['nobody']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_crossval_fold_with_one_training_sample_exits_3(flow, tmp_path, capsys):
    # 3 subjects in 2 folds: the first fold trains on one subject
    cfg = tmp_path / "three.ini"
    cfg.write_text(SMALL_INI.replace("n = 32", "n = 3"))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d"), "--seed", "3"]) == 0
    rc = main(["crossval", "--config", str(cfg), "--data", str(tmp_path / "d"),
               "--out", str(tmp_path / "o"), "--seed", "3", "--folds", "2"])
    assert rc == 3
    assert capsys.readouterr().err == "training failed: training needs at least two samples, got 1\n"


def test_negative_cac_in_a_dataset_exits_5_before_any_output(flow, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(flow["data"], data)
    header, *rows = list(csv.reader(io.StringIO((data / "cohort.csv").read_text())))
    rows[0][header.index("cac")] = "-5"
    (data / "cohort.csv").write_text(csv_text(header, rows))
    rc = main(["evaluate", "--config", str(flow["cfg"]), "--data", str(data), "--model", str(flow["model"]),
               "--out", str(tmp_path / "o"), "--split", "all"])
    assert rc == 5
    assert capsys.readouterr().err == "degenerate data: negative calcium score: -5.0\n"
    assert not (tmp_path / "o").exists()


def test_tiny_training_split_exits_3(flow, tmp_path):
    cfg = tmp_path / "frac.ini"
    cfg.write_text(SMALL_INI + "train_fraction = 0.03\n")
    rc = main(["train", "--config", str(cfg), "--data", str(flow["data"]),
               "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 3


def test_missing_data_dir_exits_4(flow, tmp_path):
    rc = main(["train", "--config", str(flow["cfg"]), "--data", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 4


def test_missing_model_dir_exits_4(flow, tmp_path):
    rc = main(["evaluate", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--model", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert rc == 4


def _files_outside(root: Path, out: Path) -> set:
    return {p for p in root.rglob("*") if p.is_file() and out not in p.parents}


def _traversing_id(data: Path) -> None:
    # the id climbs two levels out of images/, where a matching image waits
    cohort = data / "cohort.csv"
    cohort.write_text(cohort.read_text().replace("\ns00000,", "\n../../evil,", 1))
    shutil.copy(data / "images" / "s00000.dcm", data.parent / "evil.dcm")


def _repeated_ids(data: Path) -> None:
    cohort = data / "cohort.csv"
    header, *rows = cohort.read_text().splitlines(keepends=True)
    cohort.write_text(header + "".join(rows + rows))


@pytest.mark.parametrize("command", ["train", "explain"])
@pytest.mark.parametrize("damage", [_traversing_id, _repeated_ids])
def test_unsafe_or_repeated_cohort_id_exits_4(flow, tmp_path, capsys, command, damage):
    data = tmp_path / "data"
    shutil.copytree(flow["data"], data)
    damage(data)
    out = tmp_path / "outroot" / "maps"
    argv = [command, "--config", str(flow["cfg"]), "--data", str(data), "--out", str(out), "--seed", "3"]
    if command == "explain":
        argv += ["--model", str(flow["model"])]
    before = _files_outside(tmp_path, out)
    assert main(argv) == 4
    assert "cohort id" in capsys.readouterr().err
    assert _files_outside(tmp_path, out) == before
    assert not list(out.glob("*.pgm")) and not (out / "weights.cacw").exists()


def test_explain_limit_takes_the_first_ids(flow, tmp_path):
    out = tmp_path / "o"
    assert main(["explain", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
                 "--model", str(flow["model"]), "--out", str(out), "--limit", "2"]) == 0
    assert json.loads((out / "manifest.json").read_text())["files"] == [
        "s00000.map.pgm", "s00000.overlay.pgm", "s00001.map.pgm", "s00001.overlay.pgm"]


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_explain_limit_below_one_exits_2_before_out_exists(flow, tmp_path, capsys, limit):
    out = tmp_path / "o"
    assert main(["explain", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
                 "--model", str(flow["model"]), "--out", str(out), "--limit", limit]) == 2
    assert "--limit must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tag, payload", [
    ((0x0028, 0x1050), b"nan   "),  # WindowCenter, written as 2048.0
    ((0x0028, 0x1051), b"inf   "),  # WindowWidth, written as 4096.0
    ((0x0028, 0x1053), b"inf "),  # RescaleSlope, written as 1.0
])
def test_dataset_image_with_a_non_finite_decimal_exits_4(flow, tmp_path, capsys, tag, payload):
    data = tmp_path / "data"
    shutil.copytree(flow["data"], data)
    image = data / "images" / "s00005.dcm"
    image.write_bytes(replace_element_payload(image.read_bytes(), tag, payload))
    rc = main(["evaluate", "--config", str(flow["cfg"]), "--data", str(data),
               "--model", str(flow["model"]), "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 4
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate", "crossval", "explain"])
def test_a_damaged_dataset_image_exits_4_naming_it_before_out_exists(flow, tmp_path, capsys, command):
    # the last stored pixel value becomes 0xff.. and leaves the 12-bit range
    data = tmp_path / "data"
    shutil.copytree(flow["data"], data)
    image = data / "images" / "s00003.dcm"
    image.write_bytes(image.read_bytes()[:-1] + b"\xff")
    out = tmp_path / "o"
    args = [command, "--config", str(flow["cfg"]), "--data", str(data), "--out", str(out)]
    if command in ("evaluate", "explain"):
        args += ["--model", str(flow["model"])]
    assert main(args) == 4
    assert capsys.readouterr().err.startswith("i/o error: s00003.dcm: stored pixel values [")
    assert not out.exists()


def test_synth_holds_an_image_per_worker_not_the_dataset(monkeypatch, tmp_path):
    # two workers each make an image and its noise draw while the writer
    # holds one sample and its file's bytes: about 11 MiB; holding all 20
    # images, as the list-based synth did, peaked at 51 MiB
    monkeypatch.setattr(synthgen, "_usable_cpus", lambda: 2)
    cfg = tmp_path / "big.ini"
    cfg.write_text("[synth]\nn = 20\nimage_dim = 512\n")
    tracemalloc.start()
    try:
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(list((tmp_path / "d" / "images").iterdir())) == 20
    assert peak < 8 * 512 * 512 * 8


def test_one_class_evaluation_exits_5(flow, tmp_path, capsys):
    cfg = tmp_path / "zeros.ini"
    cfg.write_text(SMALL_INI.replace("n = 32", "n = 12\nzero_fraction = 1.0"))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d"), "--seed", "3"]) == 0
    rc = main(["evaluate", "--config", str(flow["cfg"]), "--data", str(tmp_path / "d"),
               "--model", str(flow["model"]), "--out", str(tmp_path / "o"),
               "--seed", "3", "--split", "all"])
    assert rc == 5
    assert "degenerate data" in capsys.readouterr().err


def test_degenerate_labels_training_exits_5(flow, tmp_path):
    cfg = tmp_path / "zeros.ini"
    cfg.write_text(SMALL_INI.replace("n = 32", "n = 12\nzero_fraction = 1.0"))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d"), "--seed", "3"]) == 0
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "d"),
               "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 5


def test_crop_larger_than_resize_exits_2_before_reading_data(tmp_path, capsys):
    cfg = tmp_path / "crop.ini"
    cfg.write_text("[preprocess]\nresize_dim = 20\ncrop_dim = 30\n")
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "crop_dim" in capsys.readouterr().err


def test_no_temporary_files_left_behind(flow):
    assert not list(flow["root"].rglob("*.tmp"))


def _flip_first_weight_name_byte(data: bytes) -> bytes:
    # magic (4), version u16, count u32, then the first name's u16 length
    return data[:12] + b"\xff" + data[13:]


def _first_weight_dims_past_memory(data: bytes) -> bytes:
    # the first tensor's four dims follow its name length, name and rank; their
    # product is 0, so no values are read for them, yet numpy cannot make that shape
    dims = 12 + len(b"stem.conv.w") + 1
    return data[:dims] + struct.pack("<4I", 0, *[2**32 - 1] * 3) + data[dims + 16:]


def _sidecar_without(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def _sidecar_field(section, **values):
    def damage(text):
        doc = json.loads(text)
        doc[section].update(values)
        return json.dumps(doc)
    return damage


_DAMAGED_MODEL_FILES = {
    "sidecar_lacks_label_transform": ("sidecar.json", _sidecar_without("label_transform")),
    "sidecar_is_a_list": ("sidecar.json", lambda text: "[1,2]"),
    "sidecar_block_layers_not_a_list": ("sidecar.json", _sidecar_field("net", block_layers=5)),
    "sidecar_block_layers_too_deep": ("sidecar.json", _sidecar_field("net", block_layers=[1000000])),
    "sidecar_growth_rate_too_wide": ("sidecar.json", _sidecar_field("net", growth_rate=1000000000)),
    "sidecar_sigma_log_zero": ("sidecar.json", _sidecar_field("label_transform", sigma_log=0)),
    "sidecar_sigma_log_negative": ("sidecar.json", _sidecar_field("label_transform", sigma_log=-7.66)),
    "sidecar_epsilon_zero": ("sidecar.json", _sidecar_field("label_transform", epsilon=0)),
    "sidecar_clip_max_zero": ("sidecar.json", _sidecar_field("label_transform", clip_max=0)),
    "sidecar_layout_too_large": ("sidecar.json", _sidecar_field("net", block_layers=[1000], growth_rate=1024)),
    "sidecar_transition_zero_wide": ("sidecar.json", _sidecar_field("net", compression=0.01)),
    "sidecar_mu_log_too_large_for_a_float": ("sidecar.json", _sidecar_field("label_transform", mu_log=10**400)),
    "sidecar_nests_too_deep": ("sidecar.json", lambda text: "[" * 100000),
    "split_is_empty_object": ("split.json", lambda text: "{}"),
    "split_nests_too_deep": ("split.json", lambda text: "[" * 100000),
    "weights_name_not_utf8": ("weights.cacw", _flip_first_weight_name_byte),
    "weights_dims_past_memory": ("weights.cacw", _first_weight_dims_past_memory),
    "weights_value_nan": ("weights.cacw", lambda data: data[:-4] + b"\xff\xff\xff\xff"),
    "stats_row_lacks_sigma": ("stats.csv", lambda text: "mu,sigma\n1.0\n"),
    "stats_sigma_zero": ("stats.csv", lambda text: "mu,sigma\n1.0,0.0\n"),
    "stats_sigma_negative": ("stats.csv", lambda text: "mu,sigma\n1.0,-2.0\n"),
    "stats_not_finite": ("stats.csv", lambda text: "mu,sigma\nnan,1.0\n"),
}


@pytest.mark.parametrize("case", sorted(_DAMAGED_MODEL_FILES))
def test_damaged_model_directory_exits_4(flow, tmp_path, capsys, case):
    name, damage = _DAMAGED_MODEL_FILES[case]
    model = tmp_path / "model"
    shutil.copytree(flow["model"], model)
    path = model / name
    if name == "weights.cacw":
        path.write_bytes(damage(path.read_bytes()))
    else:
        path.write_text(damage(path.read_text()))
    rc = main(["evaluate", "--config", str(flow["cfg"]), "--data", str(flow["data"]),
               "--model", str(model), "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not (tmp_path / "o").exists()


def test_train_holds_one_crop_per_training_image_while_it_trains(tmp_path, monkeypatch):
    # 64 px crops of 96 px images, so the crops outweigh the run's own small
    # objects; a second copy of the crops or the files' bytes breaks the bound
    cfg = tmp_path / "crops.ini"
    cfg.write_text(SMALL_INI.replace("n = 32", "n = 16").replace("resize_dim = 20", "resize_dim = 72")
                   .replace("crop_dim = 16", "crop_dim = 64").replace("input_dim = 16", "input_dim = 64"))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data"), "--seed", "3"]) == 0
    at_entry = []

    def traced_train(samples, tc, params):
        at_entry.append((tracemalloc.get_traced_memory()[0], len(samples) * samples[0][0].nbytes))
        return train(samples, tc, params)

    train = cli.train
    monkeypatch.setattr(cli, "train", traced_train)
    tracemalloc.start()
    try:
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "m"), "--seed", "3"])
    finally:
        tracemalloc.stop()
    assert rc == 0
    [(held, crops)] = at_entry
    assert crops == 13 * 64 * 64 * 8
    assert held <= crops + 192 * 1024


def test_training_bits_do_not_depend_on_blas_thread_count(tmp_path):
    # the desk model and preprocessing presets; only the dataset and epochs shrink
    cfg = tmp_path / "desk.ini"
    cfg.write_text("[synth]\nn = 16\n\n[train]\nepochs = 2\n")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data), "--seed", "5"]) == 0
    src = str(Path(cacxray.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "cacxray.cli", "train", "--config", str(cfg), "--data", str(data),
             "--out", str(out), "--seed", "5"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(((out / "weights.cacw").read_bytes(), (out / "history.csv").read_bytes()))
    assert len(runs[0][1].splitlines()) == 3  # header and two epochs
    assert runs[0] == runs[1]


def test_module_entry_point_reports_version():
    src = str(Path(cacxray.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "cacxray.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "cacxray" in proc.stdout


def test_installed_entry_point_reports_version():
    proc = subprocess.run(["cacxray", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cacxray" in proc.stdout
