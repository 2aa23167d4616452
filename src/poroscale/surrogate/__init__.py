"""Patch-to-tensor regression networks, hand-rolled on numpy."""

from .layers import Conv, Dense, Dropout, Flatten, MaxPool, ReLU
from .network import (
    Adam,
    Network,
    build_network,
    load_network,
    save_network,
)
from .training import (
    Metrics,
    TrainConfig,
    clamp_spd,
    compute_metrics,
    evaluate,
    predict_effective,
    train,
)

__all__ = [
    "Adam",
    "Conv",
    "Dense",
    "Dropout",
    "Flatten",
    "MaxPool",
    "Metrics",
    "Network",
    "ReLU",
    "TrainConfig",
    "build_network",
    "clamp_spd",
    "compute_metrics",
    "evaluate",
    "load_network",
    "predict_effective",
    "save_network",
    "train",
]
