"""Dense-block regression network with explicit forward/backward passes."""

from .network import (
    FREEZE_POLICIES,
    DenseNetConfig,
    ForwardTrace,
    ModelParams,
    backward,
    build_net,
    desk_config,
    feature_map_dim,
    forward,
    init_model,
    loss_mae,
    prediction_feature_gradient,
)
from .serialize import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    load_weights,
    save_weights,
    sidecar_from_json,
    sidecar_to_json,
    weights_from_bytes,
    weights_to_bytes,
)
from .training import TrainConfig, predict, sgd_step, train

__all__ = [
    "FREEZE_POLICIES",
    "DenseNetConfig",
    "ForwardTrace",
    "ModelParams",
    "TrainConfig",
    "WEIGHTS_MAGIC",
    "WEIGHTS_VERSION",
    "backward",
    "build_net",
    "desk_config",
    "feature_map_dim",
    "forward",
    "init_model",
    "load_weights",
    "loss_mae",
    "predict",
    "prediction_feature_gradient",
    "save_weights",
    "sgd_step",
    "sidecar_from_json",
    "sidecar_to_json",
    "train",
    "weights_from_bytes",
    "weights_to_bytes",
]
