"""Whole-network contracts: channel arithmetic, forward semantics, gradients."""

import hashlib
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cacxray.errors import InvalidConfigError, ShapeMismatchError, StaleTraceError
from cacxray.model import network as nw
from cacxray.model import weights_to_bytes
from conftest import modules_calling
from oracles import gradient_check


def _batch(rng, n, dim):
    return [rng.standard_normal((dim, dim)) for _ in range(n)]


def _head_input_width(cfg):
    return dict(nw.build_net(cfg).param_shapes())["head.fc1.w"][1]


@contextmanager
def _first_block_outputs(cfg):
    """A list of what each forward of cfg's first dense block returns, while
    the context is open."""
    net = nw.build_net(cfg)
    block = net.entries[net.first_block_index]
    outputs = []

    def recorded(x, ctx, forward=block.forward):
        outputs.append(forward(x, ctx))
        return outputs[-1]

    block.forward = recorded
    try:
        yield outputs
    finally:
        del block.forward


# --- channel bookkeeping -----------------------------------------------------------

def test_feature_length_matches_hand_recurrence():
    cfg = nw.desk_config()
    c = cfg.init_channels
    for i, layers in enumerate(cfg.block_layers):
        c = c + layers * cfg.growth_rate
        if i < len(cfg.block_layers) - 1:
            c = int(np.floor(cfg.compression * c))
    assert _head_input_width(cfg) == c


def test_full_preset_yields_1024_features_at_32x32():
    cfg = nw.DenseNetConfig(
        input_dim=1024,
        init_channels=64,
        growth_rate=32,
        block_layers=(6, 12, 24, 16),
        compression=0.5,
        head_hidden=64,
        use_batchnorm=True,
    )
    assert _head_input_width(cfg) == 1024
    assert nw.feature_map_dim(cfg) == 32


def test_invalid_config_rejected():
    with pytest.raises(InvalidConfigError):
        nw.DenseNetConfig(
            input_dim=64, init_channels=16, growth_rate=8, block_layers=(),
            compression=0.5, head_hidden=64, use_batchnorm=True,
        )
    with pytest.raises(InvalidConfigError):
        nw.DenseNetConfig(
            input_dim=64, init_channels=16, growth_rate=8, block_layers=(2, 2),
            compression=1.5, head_hidden=64, use_batchnorm=True,
        )
    # 16 px halves to 8, 4, 2, 1 and then 0 through the stem and three transitions
    with pytest.raises(InvalidConfigError, match="input_dim 16 collapses below 1x1"):
        nw.DenseNetConfig(input_dim=16)


def test_dense_layers_are_bounded_in_total():
    # the bound sits far above DenseNet-264's 130 and below what exhausts memory
    assert nw.build_net(nw.DenseNetConfig(input_dim=64, init_channels=2, growth_rate=1, block_layers=(1000,)))
    for layout in ((1001,), (600, 401), (1000000,)):
        with pytest.raises(InvalidConfigError, match="at most 1000 dense layers"):
            nw.DenseNetConfig(block_layers=layout)


def test_parameter_count_is_bounded():
    # 1000 dense layers and each width pass their own bounds; their product does not
    with pytest.raises(InvalidConfigError, match="list 2157767361 parameters, more than 2\\*\\*27"):
        nw.DenseNetConfig(block_layers=(1000,))


def test_widths_are_bounded():
    # DenseNet-264 and DenseNet-161 widths at the paper's input size build
    for widths in (dict(growth_rate=32, block_layers=(6, 12, 64, 48)), dict(init_channels=96, growth_rate=48)):
        assert nw.DenseNetConfig(input_dim=1024, **widths)
    # every width at its bound builds in a one-layer layout; deeper, the parameter bound stops it
    widest = dict(input_dim=65535, init_channels=1024, growth_rate=1024, head_hidden=4096)
    assert nw.DenseNetConfig(block_layers=(1,), **widest)
    with pytest.raises(InvalidConfigError, match="more than 2\\*\\*27"):
        nw.DenseNetConfig(**widest)
    for key, value in (("input_dim", 65536), ("init_channels", 1025), ("growth_rate", 1025),
                       ("growth_rate", 1000000000), ("head_hidden", 4097)):
        with pytest.raises(InvalidConfigError, match=f"{key} must be at most"):
            nw.DenseNetConfig(**{key: value})


# --- init ----------------------------------------------------------------------

def test_init_deterministic_bitwise(tiny_net_cfg):
    a = nw.init_model(tiny_net_cfg, seed=12)
    b = nw.init_model(tiny_net_cfg, seed=12)
    assert list(a.tensors) == list(b.tensors)
    for k in a.tensors:
        assert np.array_equal(a.tensors[k], b.tensors[k])
    c = nw.init_model(tiny_net_cfg, seed=13)
    assert any(not np.array_equal(a.tensors[k], c.tensors[k]) for k in a.tensors)


def test_init_batchnorm_and_bias_values(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=1)
    for name, t in p.tensors.items():
        if name.endswith((".gamma", ".running_var")):
            assert np.all(t == 1.0)
        if name.endswith((".beta", ".running_mean", ".b")):
            assert np.all(t == 0.0)


def _desk_param_names():
    def bn(prefix):
        return [f"{prefix}.{t}" for t in ("gamma", "beta", "running_mean", "running_var")]

    names = ["stem.conv.w"]
    for b in range(3):
        for l in range(2):
            p = f"block{b}.layer{l}"
            names += bn(p + ".bn1") + [p + ".conv1.w"] + bn(p + ".bn2") + [p + ".conv2.w"]
        if b < 2:
            names.append(f"trans{b}.conv.w")
    return names + ["head.fc1.w", "head.fc1.b", "head.fc2.w", "head.fc2.b"]


def test_desk_parameter_order_and_init_bytes_are_pinned():
    # the listing order fixes the init draw order and the weights file
    # layout, so a refactor that reorders layers fails here
    names = [name for name, _ in nw.build_net(nw.desk_config()).param_shapes()]
    assert names == _desk_param_names()
    blob = weights_to_bytes(nw.init_model(nw.desk_config(), 0))
    assert hashlib.sha256(blob).hexdigest() == (
        "56685799ae0bbdf3241b11c002b89cf57ef3985228a3c758e25079a927900835"
    )


# --- forward -------------------------------------------------------------------

def test_zero_weights_predict_zero(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=2)
    for k in p.tensors:
        p.tensors[k][...] = 0.0
    preds = nw.forward(p, _batch(np.random.default_rng(0), 3, 8), mode="eval").predictions
    assert np.array_equal(preds, [0.0, 0.0, 0.0])


def test_eval_forward_deterministic_and_per_item(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=3)
    rng = np.random.default_rng(1)
    batch = _batch(rng, 2, 8)
    a = nw.forward(p, batch, mode="eval").predictions
    b = nw.forward(p, batch, mode="eval").predictions
    assert np.array_equal(a, b)
    # duplicating an item inside the batch must not change its prediction
    dup = nw.forward(p, [batch[0], batch[0], batch[1]], mode="eval").predictions
    assert dup[0] == dup[1] == a[0]
    assert dup[2] == a[1]


def test_forward_rejects_wrong_dims(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=4)
    with pytest.raises(ShapeMismatchError):
        nw.forward(p, [np.zeros((9, 9))], mode="eval")


# --- loss ----------------------------------------------------------------------

def test_loss_mae_examples():
    assert nw.loss_mae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert nw.loss_mae(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == 1.0


def test_loss_mae_matches_naive_loop():
    rng = np.random.default_rng(5)
    preds = rng.standard_normal(31)
    targets = rng.standard_normal(31)
    naive = sum(abs(p - t) for p, t in zip(preds, targets)) / 31
    assert nw.loss_mae(preds, targets) == pytest.approx(naive, abs=1e-12)


def test_loss_mae_rejects_bad_lengths():
    with pytest.raises(Exception):
        nw.loss_mae(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(Exception):
        nw.loss_mae(np.array([]), np.array([]))


# --- backward ------------------------------------------------------------------

def test_zero_residual_gives_zero_gradients(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=5)
    trace = nw.forward(p, _batch(np.random.default_rng(2), 2, 8), mode="train")
    grads = nw.backward(p, trace, trace.predictions.copy())
    assert all(np.all(g == 0.0) for g in grads.values())


def test_backward_requires_train_mode_trace(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=6)
    trace = nw.forward(p, _batch(np.random.default_rng(3), 2, 8), mode="eval")
    with pytest.raises(StaleTraceError):
        nw.backward(p, trace, np.zeros(2))


def test_feature_gradient_requires_eval_mode_trace(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=6)
    trace = nw.forward(p, _batch(np.random.default_rng(3), 2, 8), mode="train")
    with pytest.raises(StaleTraceError):
        nw.prediction_feature_gradient(p, trace)


@pytest.mark.parametrize("use_bn", [True, False])
def test_backward_spends_its_trace(tiny_net_cfg, use_bn):
    p = nw.init_model(replace(tiny_net_cfg, use_batchnorm=use_bn), seed=7)
    trace = nw.forward(p, _batch(np.random.default_rng(4), 2, 8), mode="train")
    with pytest.raises(ValueError, match="targets"):  # and leaves the trace unspent
        nw.backward(p, trace, np.zeros(3))
    nw.backward(p, trace, np.array([0.3, -0.1]))
    assert trace.spent and not trace.caches  # the walk dropped every cache it passed
    with pytest.raises(StaleTraceError, match="spent"):
        nw.backward(p, trace, np.array([0.3, -0.1]))
    with pytest.raises(StaleTraceError, match="spent"):  # the trace is checked before the targets
        nw.backward(p, trace, np.zeros(3))


def test_feature_gradient_spends_its_trace(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=7)
    trace = nw.forward(p, _batch(np.random.default_rng(4), 2, 8), mode="eval")
    nw.prediction_feature_gradient(p, trace)
    assert trace.spent and not trace.caches  # the walk dropped every cache it passed
    with pytest.raises(StaleTraceError, match="spent"):
        nw.prediction_feature_gradient(p, trace)


def test_eval_trace_keeps_state_only_where_its_walk_reaches(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=7)
    trace = nw.forward(p, _batch(np.random.default_rng(4), 2, 8), mode="eval")
    # the feature-gradient walk ends above the first block
    assert trace.caches
    assert not any(name.startswith(("stem.", "block0.")) for name in trace.caches)
    nw.prediction_feature_gradient(p, trace)
    assert not trace.caches


def test_eval_trace_keeps_no_activation(tiny_net_cfg):
    # the feature-gradient walk reads no layer input and no normalized input:
    # a float array it keeps holds at most one value per channel
    p = nw.init_model(tiny_net_cfg, seed=7)
    trace = nw.forward(p, _batch(np.random.default_rng(4), 2, 8), mode="eval")
    assert trace.caches
    for name, state in trace.caches.items():
        for a in state if isinstance(state, tuple) else (state,):
            if isinstance(a, np.ndarray) and a.dtype.kind == "f":
                assert a.size <= a.shape[1], (name, a.shape)


def test_only_an_eval_trace_keeps_the_first_block_output(tiny_net_cfg):
    # the eval walk's callers read the first block's output; the train walk
    # never does, so a train trace lets it go
    p = nw.init_model(tiny_net_cfg, seed=7)
    batch = _batch(np.random.default_rng(4), 2, 8)
    with _first_block_outputs(tiny_net_cfg) as outputs:
        trained = nw.forward(p, batch, mode="train")
        evaluated = nw.forward(p, batch, mode="eval")
    assert trained.features is None
    assert len(outputs) == 2 and np.array_equal(evaluated.features, outputs[1])


def test_stem_pool_caches_a_one_byte_argmax(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=7)
    trace = nw.forward(p, _batch(np.random.default_rng(4), 2, 8), mode="train")
    idx, _ = trace.caches["stem.pool"]
    assert idx.dtype == np.int8 and set(np.unique(idx)) <= {0, 1, 2, 3}


def test_paper_layout_train_step_peak_is_bounded():
    # tracemalloc peak of one DenseNetConfig(input_dim=128) batch-2 train
    # step over the memory traced before it: 97.81 MB when the train trace
    # kept the first block's output, every conv backward held its padded
    # input and padded output gradient to its end and max pooling kept an
    # int64 argmax; 87.27 MB without them
    cfg = nw.DenseNetConfig(input_dim=128)
    p = nw.init_model(cfg, seed=3)
    batch = _batch(np.random.default_rng(3), 2, 128)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nw.backward(p, nw.forward(p, batch, mode="train"), np.array([0.3, -0.1]))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 92.5e6, peak / 1e6


def _cached_bytes(caches, prefix):
    """Bytes of the arrays cached under names that start with prefix, each
    base array counted once."""
    bases = {}
    for name, state in caches.items():
        if name.startswith(prefix):
            for a in state if isinstance(state, tuple) else (state,):
                while isinstance(a, np.ndarray) and a.base is not None:
                    a = a.base
                if isinstance(a, np.ndarray):
                    bases[id(a)] = a.nbytes
    return sum(bases.values())


def test_train_trace_keeps_linear_state_per_bn_dense_block():
    # the walk rebuilds each relu mask and conv input from the bn before
    # them, so a block's state grows by the same bytes with each layer, not
    # by the layer's width
    grown = {}
    for n_layers in (6, 9, 12):
        cfg = nw.DenseNetConfig(input_dim=16, init_channels=4, growth_rate=3, block_layers=(n_layers,),
                                head_hidden=5)
        p = nw.init_model(cfg, seed=3)
        trace = nw.forward(p, _batch(np.random.default_rng(3), 2, 16), mode="train")
        block = [name for name in trace.caches if name.startswith("block0.")]
        assert block and not any(".relu" in name or ".conv" in name for name in block), block
        grown[n_layers] = _cached_bytes(trace.caches, "block0")
        nw.backward(p, trace, np.array([0.3, -0.1]))
        assert not trace.caches
        with pytest.raises(StaleTraceError):
            nw.backward(p, trace, np.array([0.3, -0.1]))
    assert grown[12] - grown[9] == grown[9] - grown[6] > 0


def test_only_layers_touches_a_layer_cache():
    # the cache layout is each layer's own: other modules pass the caches
    # dict through, and index, pop or delete none of its entries
    assert modules_calling("caches[", "caches.pop(", exempt="layers.py") == []


def test_trace_holds_its_params(tiny_net_cfg):
    # by reference: a freed ModelParams' address can be taken by a new one,
    # which must not pass for it
    p = nw.init_model(tiny_net_cfg, seed=7)
    ref = weakref.ref(p)
    trace = nw.forward(p, _batch(np.random.default_rng(4), 2, 8), mode="train")
    q = p.copy()
    del p
    assert ref() is not None
    with pytest.raises(StaleTraceError):
        nw.backward(q, trace, np.array([0.3, -0.1]))


def test_backward_rejects_stale_trace(tiny_net_cfg):
    from cacxray.model.training import sgd_step

    p = nw.init_model(tiny_net_cfg, seed=7)
    batch = _batch(np.random.default_rng(4), 2, 8)
    trace = nw.forward(p, batch, mode="train")
    grads = nw.backward(p, trace, np.array([0.3, -0.1]))
    sgd_step(p, grads, learning_rate=0.01, weight_decay=0.0)
    with pytest.raises(StaleTraceError):
        nw.backward(p, trace, np.array([0.3, -0.1]))


def test_freeze_policy_blanks_early_gradients(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=8)
    batch = _batch(np.random.default_rng(5), 2, 8)
    trace = nw.forward(p, batch, mode="train", freeze_policy="last_block_and_head")
    grads = nw.backward(p, trace, np.array([1.5, -2.0]))
    last = f"block{len(tiny_net_cfg.block_layers) - 1}."
    for name in grads:
        assert name.startswith((last, "head."))
    full = nw.backward(p, nw.forward(p, batch, mode="train"), np.array([1.5, -2.0]))
    assert set(grads) < set(full)


def test_frozen_prefix_keeps_no_backward_state():
    cfg = nw.desk_config()
    p = nw.init_model(cfg, seed=8)
    trace = nw.forward(p, _batch(np.random.default_rng(5), 4, cfg.input_dim), mode="train",
                       freeze_policy="last_block_and_head")
    last = f"block{len(cfg.block_layers) - 1}."
    assert trace.caches
    for name in trace.caches:
        assert name.startswith((last, "head.")) or name == "gap", name


def test_frozen_prefix_runs_as_eval():
    cfg = nw.desk_config()
    p = nw.init_model(cfg, seed=9)
    rng = np.random.default_rng(6)
    for name in p.tensors:
        if name.endswith((".running_mean", ".running_var")):
            p.tensors[name][...] = rng.uniform(0.5, 1.5, p.tensors[name].shape)
    before = {k: v.copy() for k, v in p.tensors.items()}
    batch = _batch(rng, 4, cfg.input_dim)
    # a train trace keeps no features, so the frozen prefix's output is read
    # where the first block returns it
    with _first_block_outputs(cfg) as outputs:
        nw.forward(p, batch, mode="train", freeze_policy="last_block_and_head")
    last = f"block{len(cfg.block_layers) - 1}."
    moments = [k for k in p.tensors if k.endswith((".running_mean", ".running_var"))]
    assert any(not k.startswith(last) for k in moments)
    for k in moments:
        if k.startswith(last):
            assert not np.array_equal(p.tensors[k], before[k]), k
        else:
            assert np.array_equal(p.tensors[k], before[k]), k
    assert np.array_equal(outputs[0], nw.forward(p, batch, mode="eval").features)


def test_freeze_policy_checked_in_eval_mode(tiny_net_cfg):
    p = nw.init_model(tiny_net_cfg, seed=10)
    with pytest.raises(InvalidConfigError):
        nw.forward(p, _batch(np.random.default_rng(7), 1, 8), mode="eval", freeze_policy="everything")


# --- batch independence in eval mode --------------------------------------------

@pytest.fixture(scope="module")
def eval_pool():
    """Desk init weights with random running moments, a fixed pool of 12
    images, and each image's prediction, features and feature-gradient bytes
    from a batch-1 eval forward."""
    cfg = nw.desk_config()
    p = nw.init_model(cfg, seed=13)
    rng = np.random.default_rng(13)
    for name, t in p.tensors.items():
        if name.endswith(".running_mean"):
            t[...] = rng.uniform(-0.5, 0.5, t.shape)
        elif name.endswith(".running_var"):
            t[...] = rng.uniform(0.5, 1.5, t.shape)
    pool = _batch(rng, 12, cfg.input_dim)
    alone = []
    for x in pool:
        trace = nw.forward(p, [x], mode="eval")
        grad = nw.prediction_feature_gradient(p, trace)
        alone.append((trace.predictions.tobytes(), trace.features.tobytes(), grad.tobytes()))
    return p, pool, alone


@settings(max_examples=50)
@given(picks=st.lists(st.integers(0, 11), min_size=1, max_size=16))
def test_eval_prediction_does_not_depend_on_its_batch(eval_pool, picks):
    # any batch of pool images, repeats allowed, in any order
    p, pool, alone = eval_pool
    trace = nw.forward(p, [pool[i] for i in picks], mode="eval")
    grad = nw.prediction_feature_gradient(p, trace)
    for j, i in enumerate(picks):
        item = (trace.predictions[j : j + 1], trace.features[j : j + 1], grad[j : j + 1])
        assert tuple(a.tobytes() for a in item) == alone[i], (j, i)


# --- gradient checks --------------------------------------------------------------

GRAD_CONFIGS = [
    ("bn_on", dict(use_batchnorm=True, block_layers=(1,), compression=1.0), "none", 10),
    ("bn_off", dict(use_batchnorm=False, block_layers=(2,), compression=0.5), "none", 11),
    ("frozen", dict(use_batchnorm=True, block_layers=(1, 1), compression=0.5), "last_block_and_head", 12),
    # three dense layers in one block: each layer's input gradient adds into
    # the gradient of the channels the earlier layers wrote
    ("bn_on_deep", dict(use_batchnorm=True, block_layers=(3,), compression=1.0), "none", 13),
]


@pytest.mark.parametrize("label,overrides,policy,seed", GRAD_CONFIGS)
def test_gradients_match_finite_differences(label, overrides, policy, seed):
    cfg = nw.DenseNetConfig(
        input_dim=8, init_channels=4, growth_rate=3,
        head_hidden=5, **overrides,
    )
    p = nw.init_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    batch = _batch(rng, 2, 8)
    targets = rng.standard_normal(2)
    err = gradient_check(p, batch, targets, step=1e-5, freeze_policy=policy)
    assert err < 1e-4, f"{label}: max relative error {err:.3e}"


# --- bits of a train step through deep dense blocks ---------------------------------

def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# taken before the dense blocks shared one feature buffer
DEEP_BLOCK_DIGESTS = {
    True: "548fe1c36da87d48689af7c55fd5fcfedc27bded84f11e25e2aefc66d27cdc01",
    False: "fed71c477f29b097f6f5eea7e1cc2de513331e494a2618ca587d5cec5bcb719e",
}


def _train_step_digest(cfg, seed):
    """Digest of one train-mode forward and backward on a batch of 3, then an
    eval forward and its feature gradient: gradients, predictions, running
    moments, features."""
    p = nw.init_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    batch = _batch(rng, 3, cfg.input_dim)
    trace = nw.forward(p, batch, mode="train")
    grads = nw.backward(p, trace, rng.standard_normal(3))
    moments = [t for name, t in p.tensors.items() if name.endswith((".running_mean", ".running_var"))]
    assert len(moments) == (4 * sum(cfg.block_layers) if cfg.use_batchnorm else 0)
    evaluated = nw.forward(p, batch, mode="eval")
    feature_grad = nw.prediction_feature_gradient(p, evaluated)
    parts = [grads[name] for name in sorted(grads)] + [trace.predictions] + moments
    parts += [evaluated.predictions, evaluated.features, feature_grad]
    return _digest(parts)


@pytest.mark.parametrize("use_bn", [True, False])
def test_deep_block_train_step_bits_are_pinned(use_bn):
    # several dense layers per block, so every layer reads a stack that
    # earlier layers grew, and its input gradient adds into theirs
    cfg = nw.DenseNetConfig(
        input_dim=16, init_channels=4, growth_rate=3, block_layers=(3, 4),
        compression=0.5, head_hidden=5, use_batchnorm=use_bn,
    )
    assert _train_step_digest(cfg, 31) == DEEP_BLOCK_DIGESTS[use_bn]


# numpy reduces a one-channel view in another order than the same channel of
# a wider view, so these layouts pin the moments of one-channel stacks and
# one-channel growth slices; taken before the dense blocks shared their
# train-mode normalization
ONE_CHANNEL_DIGESTS = {
    "growth 1": "4115ec8bce4476a64fc7d9f27c8dc2828f05235b8235c204ecf73e33d54f588c",
    "one input channel": "6bff1d8b1bbc996a4ca874897dfa475b96e858df01f8bf3e5f31a8c049681f16",
    "transition to one channel": "d4d19b31af5eac2faa27a6ec0dfa03327ed72c550be5bb273c4809ddf08706fe",
}


@pytest.mark.parametrize(
    "label,overrides",
    [
        ("growth 1", dict(init_channels=4, growth_rate=1, block_layers=(3, 4), compression=0.5)),
        ("one input channel", dict(init_channels=1, growth_rate=2, block_layers=(3, 2), compression=0.5)),
        # block 0 ends at 6 channels, and floor(0.2 * 6) = 1
        ("transition to one channel", dict(init_channels=3, growth_rate=1, block_layers=(3, 3), compression=0.2)),
    ],
)
def test_one_channel_train_step_bits_are_pinned(label, overrides):
    cfg = nw.DenseNetConfig(input_dim=16, head_hidden=5, **overrides)
    assert _train_step_digest(cfg, 33) == ONE_CHANNEL_DIGESTS[label]
