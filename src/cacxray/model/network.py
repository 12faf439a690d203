"""Dense-block regression network: configuration, assembly, forward, backward.

Architecture, in order: 7x7/2 convolution (pad 3, no bias), 2x2/2 max pool,
alternating dense blocks and transitions (1x1 convolution to
floor(compression * channels) followed by 2x2 average pooling), global average
pooling, a hidden fully connected layer with ReLU, and a single linear output.
Each dense layer is two (BN, ReLU, conv) units that its dense block runs:
[BN] -> ReLU -> 1x1 conv (4 * growth channels), then [BN] -> ReLU -> 3x3 conv
(growth channels). A block keeps one feature buffer as wide as its output:
each layer reads the channels before its own as a view and writes its growth
channels after them, so the concatenation copies nothing (Pleiss et al. 2017,
"Memory-Efficient Implementation of DenseNets", arXiv:1707.06990). The
entries' ``layers``, in order, give the parameter listing order.

A forward keeps backward state only for the entries that its trace's one
backward walk reaches (see ForwardTrace), and each layer's backward takes its
own state out of the trace as the walk passes it; only the layers read or
write an entry. In train mode a dense block with batchnorm keeps O(L)
state, not O(L^2): it runs its units' relus and convolutions in a throwaway
context and rebuilds their state in backward (see _DenseBlock). A train
trace keeps no ``features``: only an eval walk's callers read them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfigError, ShapeMismatchError, StaleTraceError
from .layers import (
    AvgPool2x2,
    BatchNorm2d,
    BlockNorm,
    Conv2d,
    GlobalAvgPool,
    Linear,
    MaxPool2x2,
    ReLU,
    RunCtx,
)

FREEZE_POLICIES = ("none", "last_block_and_head")
WIDTH_BOUNDS = {"input_dim": 65535, "init_channels": 1024, "growth_rate": 1024, "head_hidden": 4096}


@dataclass(frozen=True)
class DenseNetConfig:
    input_dim: int = 1024
    init_channels: int = 64
    growth_rate: int = 32
    block_layers: tuple[int, ...] = (6, 12, 24, 16)
    compression: float = 0.5
    head_hidden: int = 64
    use_batchnorm: bool = True

    def __post_init__(self):
        if self.input_dim < 1 or self.init_channels < 1 or self.growth_rate < 1:
            raise InvalidConfigError("input_dim, init_channels and growth_rate must be positive")
        if self.head_hidden < 1:
            raise InvalidConfigError("head_hidden must be positive")
        # DenseNet-264 starts at 64 channels and grows by 32, and 65535 is the
        # largest side a DICOM image has; widths far beyond these, from a
        # damaged sidecar say, would exhaust memory when the weights are drawn
        for key, bound in WIDTH_BOUNDS.items():
            if getattr(self, key) > bound:
                raise InvalidConfigError(f"{key} must be at most {bound}, got {getattr(self, key)}")
        if not self.block_layers or any(l < 1 for l in self.block_layers):
            raise InvalidConfigError("block_layers must be a nonempty tuple of positives")
        # DenseNet-264 has 130 dense layers; a layout far deeper, from a damaged
        # sidecar say, would exhaust memory while its net is built
        if sum(self.block_layers) > 1000:
            raise InvalidConfigError(
                f"block_layers must hold at most 1000 dense layers in total, got {sum(self.block_layers)}"
            )
        if not 0.0 < self.compression <= 1.0:
            raise InvalidConfigError("compression must lie in (0, 1]")
        if feature_map_dim(self) < 1:
            raise InvalidConfigError(
                f"input_dim {self.input_dim} collapses below 1x1 before global pooling"
            )
        # each bound above leaves the product of depth and widths unbounded.
        # DenseNet-264 lists 31.2M parameters; 2**27 float64 values are 1 GiB,
        # and a layout past that, from a damaged sidecar say, would exhaust
        # memory when its weights are drawn. Counting them allocates nothing.
        # A compression that floors a transition to 0 channels leaves a zero
        # dim, whose weights have no fan-in to scale their draw by.
        shapes = build_net(self).param_shapes()
        for name, shape in shapes:
            if 0 in shape:
                raise InvalidConfigError(
                    f"compression {self.compression} gives {name} the shape {shape}, which holds a zero dim"
                )
        n_params = sum(math.prod(shape) for _, shape in shapes)
        if n_params > 2**27:
            raise InvalidConfigError(
                f"block_layers and the widths list {n_params} parameters, more than 2**27"
            )


def desk_config() -> DenseNetConfig:
    """Small preset that trains in minutes on a laptop CPU."""
    return DenseNetConfig(
        input_dim=64, init_channels=16, growth_rate=8, block_layers=(2, 2, 2),
        compression=0.5, head_hidden=64, use_batchnorm=True,
    )


def feature_map_dim(cfg: DenseNetConfig) -> int:
    """Spatial side length entering global average pooling."""
    d = (cfg.input_dim - 1) // 2 + 1  # 7x7 stride-2 conv, pad 3
    d //= 2  # stem max pool
    for _ in range(len(cfg.block_layers) - 1):
        d //= 2  # transition average pool
    return d


def eval_item_bytes(cfg: DenseNetConfig) -> int:
    """Estimated peak float64 bytes of one item's eval forward, from the
    widths alone. The peak falls in one of two places: the stem convolution,
    which holds its im2col matrix, its GEMM output and that output's NCHW
    copy, or the first dense block's last layer, which holds the block's
    buffer, four arrays as wide as its input (the batchnorm's normalized
    input and output, the ReLU output, the convolution's padded copy) and
    two as wide as its first convolution's output (the GEMM's and its NCHW
    copy)."""
    net = build_net(cfg)
    stem, block = net.entries[0], net.entries[net.first_block_index]
    side = (cfg.input_dim - 1) // 2 + 1  # 7x7 stride-2 conv, pad 3
    stem_floats = side * side * (stem.kernel**2 * stem.c_in + 2 * stem.c_out)
    widest_input = block.c_out - block.growth
    block_floats = (side // 2) ** 2 * (block.c_out + 4 * widest_input + 2 * 4 * block.growth)
    return 8 * max(stem_floats, block_floats)


@dataclass(eq=False)
class ModelParams:
    """Named float64 tensors plus the config that shaped them.

    ``version`` increments on every in-place optimizer update so stale forward
    traces can be detected.
    """

    cfg: DenseNetConfig
    tensors: dict[str, np.ndarray]
    version: int = 0

    def copy(self) -> "ModelParams":
        return ModelParams(
            cfg=self.cfg,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            version=self.version,
        )


@dataclass(eq=False)
class ForwardTrace:
    """Everything backward needs to replay a forward pass.

    A trace serves one backward walk, which ends at entry ``walk_to``: the
    first trained entry in train mode, the one after the first dense block
    in eval mode. ``caches`` holds the backward state of the entries from
    ``walk_to`` on, each layer's only what its backward reads in the trace's
    mode: a train walk takes parameter gradients, an eval walk the input
    gradient alone. Each layer's backward takes its state out, so a finished
    walk leaves ``caches`` empty; a second walk, or one on other ``params``
    than the trace holds, raises StaleTraceError. ``features`` is the first
    dense block's output, which the eval walk's gradient is taken against;
    a train trace keeps None there, as its walk never reads it.
    """

    predictions: np.ndarray  # (N,)
    features: np.ndarray | None  # eval: first dense block output (N, C, h, w), the finest block grid
    mode: str
    walk_to: int  # index into the net's entries
    caches: dict
    params: ModelParams
    params_version: int
    spent: bool = False


class _DenseBlock:
    """Dense layers, each two units (bn, relu, conv), bn None without
    batchnorm, sharing one feature buffer: a layer reads the channels before
    its own and writes its growth channels after them. In train mode the
    layers' bn1 also share one normalized buffer beside it (see BlockNorm),
    so each channel is normalized once per forward.

    With batchnorm, a train-mode forward runs each unit's relu and conv in a
    throwaway eval-mode context, dropped with its caches when the conv
    returns (their outputs do not depend on the mode), so a block keeps O(L)
    backward state, not O(L^2). Just before the walk reaches a conv, the
    block caches both as a train-mode forward does, from the output of the
    bn before them, whose cache the walk has not yet taken."""

    def __init__(self, name: str, c_in: int, n_layers: int, growth: int, use_bn: bool):
        self.name = name
        self.c_in = c_in
        self.growth = growth
        self.use_bn = use_bn
        self.c_out = c_in + n_layers * growth
        inner = 4 * growth
        # (input width, two units) of each dense layer
        self.dense_layers = []
        for l in range(n_layers):
            prefix, c = f"{name}.layer{l}", c_in + l * growth
            bn1 = BatchNorm2d(prefix + ".bn1", c) if use_bn else None
            bn2 = BatchNorm2d(prefix + ".bn2", inner) if use_bn else None
            units = [
                (bn1, ReLU(prefix + ".relu1"), Conv2d(prefix + ".conv1", c, inner, 1)),
                (bn2, ReLU(prefix + ".relu2"), Conv2d(prefix + ".conv2", inner, growth, 3, pad=1)),
            ]
            self.dense_layers.append((c, units))
        self.layers = [layer for _, units in self.dense_layers for unit in units for layer in unit if layer]

    def forward(self, x, ctx):
        n, _, h, w = x.shape
        buf = np.empty((n, self.c_out, h, w))
        buf[:, : self.c_in] = x
        rebuilds = self.use_bn and ctx.mode == "train"
        # in train mode each dense layer's bn1 runs in a context that carries
        # the block's shared normalization
        first_ctx = RunCtx(ctx.tensors, ctx.mode, ctx.caches, BlockNorm.empty(buf.shape)) if rebuilds else ctx
        for c, units in self.dense_layers:
            new = buf[:, :c]
            for i, (bn, relu, conv) in enumerate(units):
                if bn is not None:
                    new = bn.forward(new, first_ctx if i == 0 else ctx)
                unit_ctx = RunCtx(ctx.tensors, "eval") if rebuilds else ctx
                new = conv.forward(relu.forward(new, unit_ctx), unit_ctx)
            buf[:, c : c + self.growth] = new
        return buf

    def backward(self, dy, ctx, grads):
        # dy is the walk's own gradient of the buffer: each layer's input
        # gradient adds into it in place
        rebuilds = self.use_bn and ctx.mode == "train"
        for c, units in reversed(self.dense_layers):
            d = dy[:, c : c + self.growth]
            for bn, relu, conv in reversed(units):
                if rebuilds:
                    conv.restore_input(relu.forward(bn.cached_output(ctx), ctx), ctx)
                d = relu.backward(conv.backward(d, ctx, grads), ctx, grads)
                if bn is not None:
                    d = bn.backward(d, ctx, grads)
            dy[:, :c] += d
        return dy[:, : self.c_in]


class _Transition:
    """1x1 convolution to the compressed channel count, then 2x2 average pool."""

    def __init__(self, name: str, c_in: int, c_out: int):
        self.conv = Conv2d(name + ".conv", c_in, c_out, 1)
        self.pool = AvgPool2x2(name + ".pool")
        self.layers = [self.conv, self.pool]

    def forward(self, x, ctx):
        return self.pool.forward(self.conv.forward(x, ctx), ctx)

    def backward(self, dy, ctx, grads):
        return self.conv.backward(self.pool.backward(dy, ctx, grads), ctx, grads)


class _Net:
    def __init__(self, cfg: DenseNetConfig):
        entries = [
            Conv2d("stem.conv", 1, cfg.init_channels, 7, stride=2, pad=3),
            MaxPool2x2("stem.pool"),
        ]
        c = cfg.init_channels
        n_blocks = len(cfg.block_layers)
        for b, n_layers in enumerate(cfg.block_layers):
            block = _DenseBlock(f"block{b}", c, n_layers, cfg.growth_rate, cfg.use_batchnorm)
            entries.append(block)
            if b == 0:
                self.first_block_index = len(entries) - 1
            if b == n_blocks - 1:
                self.last_block_index = len(entries) - 1
            c = block.c_out
            if b < n_blocks - 1:
                c_out = int(np.floor(cfg.compression * c))
                entries.append(_Transition(f"trans{b}", c, c_out))
                c = c_out
        entries.extend(
            [
                GlobalAvgPool("gap"),
                Linear("head.fc1", c, cfg.head_hidden),
                ReLU("head.relu"),
                Linear("head.fc2", cfg.head_hidden, 1),
            ]
        )
        self.entries = entries

    def param_layers(self):
        for entry in self.entries:
            yield from entry.layers

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return [shape for layer in self.param_layers() for shape in layer.param_shapes()]


@functools.lru_cache(maxsize=16)
def build_net(cfg: DenseNetConfig) -> _Net:
    # a DenseNetConfig checks itself when built, so cfg is valid here; the net
    # is shared between calls, as it holds only names and shapes, never run state
    return _Net(cfg)


def init_model(cfg: DenseNetConfig, seed: int) -> ModelParams:
    """He-initialized parameters; draw order is the parameter listing order,
    so a given (cfg, seed) is fully reproducible."""
    net = build_net(cfg)
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for layer in net.param_layers():
        layer.init_params(rng, tensors)
    return ModelParams(cfg=cfg, tensors=tensors)


def _first_trained(net: _Net, freeze_policy: str) -> int:
    """Index into ``net.entries`` of the first trained entry; the entries
    before it are frozen."""
    if freeze_policy == "none":
        return 0
    if freeze_policy == "last_block_and_head":
        return net.last_block_index
    raise InvalidConfigError(f"unknown freeze policy {freeze_policy!r}")


def _stack_batch(batch, input_dim: int) -> np.ndarray:
    arrs = [np.asarray(a, dtype=np.float64) for a in batch]
    if not arrs:
        raise ValueError("empty batch")
    for a in arrs:
        if a.shape != (input_dim, input_dim):
            raise ShapeMismatchError(
                f"input is {a.shape}, config wants ({input_dim}, {input_dim})"
            )
    return np.stack(arrs)[:, None, :, :]


def forward(params: ModelParams, batch, mode: str = "eval", freeze_policy: str = "none") -> ForwardTrace:
    """Run the network on a batch of square images.

    ``batch`` is a sequence of (input_dim, input_dim) arrays. Train mode uses
    batch statistics in BN layers and updates their running moments in place;
    eval mode reads running moments and mutates nothing. In train mode the
    entries that ``freeze_policy`` freezes run as in eval mode. The trace
    keeps no backward state for the entries below its ``walk_to``.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    net = build_net(params.cfg)
    first_trained = _first_trained(net, freeze_policy)  # checks the policy in either mode
    walk_to = first_trained if mode == "train" else net.first_block_index + 1
    x = _stack_batch(batch, params.cfg.input_dim)
    ctx = RunCtx(tensors=params.tensors, mode=mode)
    features = None
    h = x
    for i, entry in enumerate(net.entries):
        # an entry below the walk gets its own eval-mode context, dropped with
        # its caches as soon as the entry returns
        h = entry.forward(h, ctx if i >= walk_to else RunCtx(tensors=params.tensors, mode="eval"))
        if i == net.first_block_index and mode == "eval":
            features = h  # read only by the eval walk's callers (Grad-CAM)
    return ForwardTrace(
        predictions=h[:, 0],
        features=features,
        mode=mode,
        walk_to=walk_to,
        caches=ctx.caches,
        params=params,
        params_version=params.version,
    )


def _walk(params: ModelParams, trace: ForwardTrace, mode: str, seed, grads) -> np.ndarray:
    """Check and spend ``trace``, then walk back from the output to entry
    ``trace.walk_to``. ``seed(trace.predictions)`` is the (N, 1) gradient
    the walk starts from, taken once the trace has passed its checks."""
    if trace.params is not params or trace.params_version != params.version:
        raise StaleTraceError("trace was produced by different (or since-updated) parameters")
    if trace.spent:
        raise StaleTraceError("trace was spent by an earlier backward walk")
    if trace.mode != mode:
        raise StaleTraceError(f"this walk needs {mode} mode, but the trace is from {trace.mode} mode")
    dy = seed(trace.predictions)
    trace.spent = True
    ctx = RunCtx(tensors=params.tensors, mode=mode, caches=trace.caches)
    for entry in reversed(build_net(params.cfg).entries[trace.walk_to :]):
        dy = entry.backward(dy, ctx, grads)
    return dy


def loss_mae(predictions: np.ndarray, targets) -> float:
    """Mean absolute error."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs targets {t.shape}")
    if p.size == 0:
        raise ValueError("empty prediction vector")
    return float(np.mean(np.abs(p - t)))


def _loss_grad(predictions: np.ndarray, targets) -> np.ndarray:
    # subgradient of mean |p - t| as an (N, 1) column; 0 where p == t
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != predictions.shape:
        raise ValueError(f"targets {t.shape} do not match predictions {predictions.shape}")
    return (np.sign(predictions - t) / predictions.size)[:, None]


def backward(params: ModelParams, trace: ForwardTrace, targets) -> dict[str, np.ndarray]:
    """Gradients of the MAE objective for every unfrozen parameter.

    The trace must come from a train-mode forward on these exact params
    (no optimizer step in between) that no walk has spent, otherwise
    StaleTraceError.
    """
    grads: dict[str, np.ndarray] = {}
    _walk(params, trace, "train", lambda predictions: _loss_grad(predictions, targets), grads)
    return grads


def prediction_feature_gradient(params: ModelParams, trace: ForwardTrace) -> np.ndarray:
    """d(sum of raw predictions) / d(first dense block output).

    The first block has the finest spatial grid of any block (input_dim / 4).
    Samples are independent above it in eval mode (BN reads running moments),
    so each slice [i] is the gradient of prediction i alone. Shape matches
    trace.features. Parameter gradients are not computed. The trace must come
    from an eval-mode forward on these exact params that no walk has spent,
    otherwise StaleTraceError.
    """
    return _walk(params, trace, "eval", lambda predictions: np.ones((predictions.shape[0], 1)), None)
