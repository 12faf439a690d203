"""Plain SGD training loop for the regression network."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyDatasetError, InvalidConfigError, ShapeMismatchError, TrainingFailedError
from .network import FREEZE_POLICIES, ModelParams, backward, eval_item_bytes, forward, loss_mae

# predict's budget for one eval forward's estimated activations
# (eval_item_bytes). Measured with tracemalloc, a batch-1 eval forward of
# DenseNetConfig(input_dim=D) peaks at 11.9 / 47.6 / 190.3 MB at
# D = 128 / 256 / 512, where the estimate reads 11.5 / 46.1 / 184.5 MB, and
# one of the desk preset at 0.74 MB (estimate 0.66 MB); a second item doubles
# each peak. So the desk preset keeps chunks of 16, and 512 px and up score
# one item at a time. That is also faster there: on a 2-core VM, 4 items at
# 512 px took 10.2 s and 844 MB peak RSS in one chunk, 8.5 s and 323 MB one
# at a time.
PREDICT_CHUNK_BYTES = 256 * 2**20


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    batch_size: int = 4
    learning_rate: float = 3e-4
    weight_decay: float = 1e-4
    seed: int = 0
    freeze_policy: str = "none"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidConfigError("epochs and batch_size must be positive")
        if not self.learning_rate >= 0:
            raise InvalidConfigError("learning_rate must be nonnegative")
        if not self.weight_decay >= 0:
            raise InvalidConfigError("weight_decay must be nonnegative")
        if self.freeze_policy not in FREEZE_POLICIES:
            raise InvalidConfigError(f"freeze_policy must be one of {FREEZE_POLICIES}")


def sgd_step(params: ModelParams, grads: dict, learning_rate: float, weight_decay: float) -> ModelParams:
    """In-place p <- p - lr * (g + wd * p). Decay hits only ``.w`` tensors
    (convolution kernels, linear weight matrices); biases and batch-norm
    parameters decay-free. Bumps params.version."""
    for name, g in grads.items():
        p = params.tensors.get(name)
        if p is None:
            raise ShapeMismatchError(f"gradient for unknown parameter {name!r}")
        g = np.asarray(g)
        if g.shape != p.shape:
            raise ShapeMismatchError(f"{name}: gradient {g.shape} vs parameter {p.shape}")
        decay = weight_decay if name.endswith(".w") else 0.0
        p -= learning_rate * (g + decay * p)
    params.version += 1
    return params


def train(dataset, tc: TrainConfig, init: ModelParams) -> tuple[ModelParams, list[float]]:
    """Minimize MAE with shuffled mini-batch SGD.

    ``dataset`` is a sequence of (image, target) pairs; targets are already in
    transformed label space. Returns fresh parameters (``init`` untouched) and
    the per-epoch training loss history (sample-weighted mean of batch MAE,
    one entry per epoch). Fully deterministic given (tc.seed, init).
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDatasetError("training needs at least one sample")
    params = init.copy()
    images = [pair[0] for pair in dataset]
    targets = np.asarray([float(pair[1]) for pair in dataset])
    rng = np.random.default_rng(tc.seed)
    history: list[float] = []
    for _ in range(tc.epochs):
        order = rng.permutation(n)
        running = 0.0
        for start in range(0, n, tc.batch_size):
            idx = order[start : start + tc.batch_size]
            batch = [images[i] for i in idx]
            y = targets[idx]
            trace = forward(params, batch, "train", tc.freeze_policy)
            loss = loss_mae(trace.predictions, y)
            if not np.isfinite(loss):
                raise TrainingFailedError(f"loss became {loss}")
            grads = backward(params, trace, y)
            sgd_step(params, grads, tc.learning_rate, tc.weight_decay)
            running += loss * len(idx)
        history.append(running / n)
    return params, history


def predict(params: ModelParams, images, batch_size: int = 16) -> np.ndarray:
    """Eval-mode predictions in transformed label space, batched for memory.

    Each eval forward takes the most items whose estimated activations fit
    PREDICT_CHUNK_BYTES, at least 1 and at most ``batch_size``. An item's
    prediction does not depend on the chunk it comes in."""
    size = max(1, min(batch_size, PREDICT_CHUNK_BYTES // eval_item_bytes(params.cfg)))
    out = []
    for start in range(0, len(images), size):
        out.append(forward(params, images[start : start + size], "eval").predictions)
    return np.concatenate(out) if out else np.empty(0)
