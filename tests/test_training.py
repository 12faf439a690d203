"""Optimizer step semantics and the training loop."""

from types import SimpleNamespace

import numpy as np
import pytest

from cacxray.errors import EmptyDatasetError, InvalidConfigError, ShapeMismatchError
from cacxray.model import network as nw
from cacxray.model import training
from cacxray.model.training import TrainConfig, predict, sgd_step, train


def test_default_train_config_values():
    tc = TrainConfig()
    assert tc.epochs == 80
    assert tc.learning_rate == 3e-4
    assert tc.weight_decay == 1e-4
    assert tc.batch_size == 4


def test_sgd_zero_lr_leaves_params_bitwise(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=1)
    before = {k: v.copy() for k, v in p.tensors.items()}
    grads = {k: np.ones_like(v) for k, v in p.tensors.items()}
    sgd_step(p, grads, learning_rate=0.0, weight_decay=0.5)
    for k in before:
        assert np.array_equal(before[k], p.tensors[k])


def test_sgd_scalar_arithmetic(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=1)
    name = "head.fc2.w"
    p.tensors[name][...] = 1.0
    sgd_step(p, {name: np.ones_like(p.tensors[name])}, learning_rate=0.1, weight_decay=0.0)
    assert np.allclose(p.tensors[name], 0.9, atol=1e-15)
    p.tensors[name][...] = 1.0
    sgd_step(p, {name: np.zeros_like(p.tensors[name])}, learning_rate=0.1, weight_decay=1e-4)
    assert np.allclose(p.tensors[name], 0.99999, atol=1e-15)


def test_weight_decay_skips_bias_and_batchnorm(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=2)
    zero_grads = {k: np.zeros_like(v) for k, v in p.tensors.items()}
    before = {k: v.copy() for k, v in p.tensors.items()}
    sgd_step(p, zero_grads, learning_rate=0.5, weight_decay=0.1)
    for k in before:
        decayed = not np.array_equal(before[k], p.tensors[k])
        assert decayed == k.endswith(".w"), k


def test_sgd_rejects_unknown_parameter(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=3)
    with pytest.raises(ShapeMismatchError):
        sgd_step(p, {"nonexistent.w": np.zeros(3)}, 0.1, 0.0)


def test_train_zero_lr_changes_only_running_moments(tiny_net_cfg, tiny_dataset):
    p = nw.init_model(tiny_net_cfg, seed=4)
    before = {k: v.copy() for k, v in p.tensors.items()}
    fitted, history = train(
        tiny_dataset,
        TrainConfig(epochs=1, batch_size=2, learning_rate=0.0, weight_decay=0.0, seed=9),
        p,
    )
    assert len(history) == 1
    for k in before:
        same = np.array_equal(before[k], fitted.tensors[k])
        if k.endswith((".running_mean", ".running_var")):
            assert not same, k
        else:
            assert same, k


def test_train_deterministic_bitwise(tiny_net_cfg, tiny_dataset):
    tc = TrainConfig(epochs=3, batch_size=2, learning_rate=0.01, weight_decay=1e-4, seed=9)
    fa, ha = train(tiny_dataset, tc, nw.init_model(tiny_net_cfg, seed=4))
    fb, hb = train(tiny_dataset, tc, nw.init_model(tiny_net_cfg, seed=4))
    assert ha == hb
    for k in fa.tensors:
        assert np.array_equal(fa.tensors[k], fb.tensors[k])


def test_train_history_length_and_shuffle_seed(tiny_net_cfg, tiny_dataset):
    tc1 = TrainConfig(epochs=4, batch_size=4, learning_rate=0.01, weight_decay=0.0, seed=9)
    tc2 = TrainConfig(epochs=4, batch_size=4, learning_rate=0.01, weight_decay=0.0, seed=10)
    f1, h1 = train(tiny_dataset, tc1, nw.init_model(tiny_net_cfg, seed=4))
    f2, h2 = train(tiny_dataset, tc2, nw.init_model(tiny_net_cfg, seed=4))
    assert len(h1) == len(h2) == 4
    # a different shuffle stream must actually change the visit order
    assert any(not np.array_equal(f1.tensors[k], f2.tensors[k]) for k in f1.tensors)


def test_train_keeps_last_incomplete_batch(tiny_net_cfg):
    rng = np.random.default_rng(6)
    ds = [(rng.standard_normal((8, 8)), float(rng.standard_normal())) for _ in range(5)]
    p = nw.init_model(tiny_net_cfg, seed=5)
    fitted, history = train(
        ds, TrainConfig(epochs=1, batch_size=4, learning_rate=0.01, weight_decay=0.0, seed=9), p
    )
    assert len(history) == 1  # the 5th sample trains in a batch of one


def test_train_frozen_parameters_stay_bitwise(tiny_net_cfg, tiny_dataset):
    p = nw.init_model(tiny_net_cfg, seed=6)
    before = {k: v.copy() for k, v in p.tensors.items()}
    tc = TrainConfig(
        epochs=3, batch_size=2, learning_rate=0.05, weight_decay=1e-4,
        seed=9, freeze_policy="last_block_and_head",
    )
    fitted, _ = train(tiny_dataset, tc, p)
    last = f"block{len(tiny_net_cfg.block_layers) - 1}."
    for k in before:
        frozen = not k.startswith((last, "head."))
        if frozen:
            assert np.array_equal(before[k], fitted.tensors[k]), k


def test_train_rejects_empty_dataset(tiny_net_cfg):
    with pytest.raises(EmptyDatasetError):
        train([], TrainConfig(epochs=1, seed=0), nw.init_model(tiny_net_cfg, seed=7))


def test_train_config_validation():
    with pytest.raises(InvalidConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidConfigError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(InvalidConfigError):
        TrainConfig(freeze_policy="everything")


def test_training_reduces_loss_on_learnable_signal(tiny_net_cfg):
    # targets depend linearly on the mean pixel, learnable by the head alone
    rng = np.random.default_rng(7)
    ds = []
    for _ in range(24):
        x = rng.standard_normal((8, 8)) + rng.uniform(-2, 2)
        ds.append((x, float(x.mean())))
    p = nw.init_model(tiny_net_cfg, seed=8)
    fitted, history = train(
        ds, TrainConfig(epochs=10, batch_size=4, learning_rate=0.01, weight_decay=1e-4, seed=9), p
    )
    assert history[-1] < history[0]


def test_predict_matches_eval_forward(tiny_net_cfg):
    # in eval mode an item's prediction may not depend on its batch, bit for bit
    rng = np.random.default_rng(8)
    for cfg in (tiny_net_cfg, nw.desk_config()):
        p = nw.init_model(cfg, seed=9)
        imgs = [rng.standard_normal((cfg.input_dim, cfg.input_dim)) for _ in range(5)]
        direct = nw.forward(p, imgs, mode="eval").predictions
        for batch_size in range(1, 6):
            assert np.array_equal(predict(p, imgs, batch_size=batch_size), direct), (cfg, batch_size)


@pytest.mark.parametrize(
    "cfg,chunk",
    [(nw.desk_config(), 16), (nw.DenseNetConfig(), 1), (nw.DenseNetConfig(input_dim=512), 1)],
    ids=["desk", "1024 px", "512 px"],
)
def test_predict_chunks_by_the_estimated_activation_bytes(monkeypatch, cfg, chunk):
    # the chunk comes from the widths alone: no net is run
    sizes = []

    def forward(params, images, mode):
        sizes.append(len(images))
        return SimpleNamespace(predictions=np.zeros(len(images)))

    monkeypatch.setattr(training, "forward", forward)
    assert len(predict(nw.ModelParams(cfg=cfg, tensors={}), [None] * 20, 16)) == 20
    assert sizes[0] == chunk and sum(sizes) == 20
