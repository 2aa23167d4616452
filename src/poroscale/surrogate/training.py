"""Training loop, evaluation metrics, and tensor reconstruction.

Training minimizes the per-element mean squared error on scaled targets
with Adam. Reported metrics use summed error mass in de-scaled units:

    MSE  = sum |Y - Yhat|^2
    MAE  = 100 * sum |Y - Yhat| / sum |Y|
    RMSE = 100 * sqrt(sum |Y - Yhat|^2 / sum |Y|^2)

both per output component and aggregated over all components. Percentage
denominators that vanish yield NaN for that component.
"""

import logging
from dataclasses import dataclass

import numpy as np

from ..elasticity import from_upper_triangle
from ..errors import NumericError, ParameterError
from .network import DEFAULT_DROPOUT, Adam

logger = logging.getLogger(__name__)

SPD_FLOOR = 1e-10


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; batch_size 0 means one coarse-cell count.

    ``train`` needs a resolved batch size of at least 1; the pipeline
    resolves 0 through ``PipelineConfig.batch_size``. ``dropout`` and
    ``seed`` also set up the network in ``build_network``.
    """

    epochs: int = 100
    batch_size: int = 0
    learning_rate: float = 1e-3
    dropout: float = DEFAULT_DROPOUT
    seed: int = 1

    def __post_init__(self):
        if self.epochs < 0:
            raise ParameterError("epoch count must be nonnegative")
        if self.batch_size < 0:
            raise ParameterError("batch size must be nonnegative")
        if self.learning_rate <= 0:
            raise ParameterError("learning rate must be positive")


def _batched_input(dataset):
    # channel axis between batch and spatial axes
    return dataset.X[:, None, ...]


def train(network, train_set, val_set, config):
    """Run the optimization loop; returns history rows (epoch, train, val).

    One generator seeded by ``config.seed`` drives both the per-epoch
    shuffles and the dropout masks, so a rerun with identical inputs and
    configuration reproduces the weights bit for bit.
    """
    if config.batch_size < 1:
        raise ParameterError("training needs a batch size of at least 1")
    x_train = _batched_input(train_set)
    y_train = train_set.Y
    x_val = _batched_input(val_set)
    y_val = val_set.Y
    total = x_train.shape[0]
    rng = np.random.default_rng(config.seed)
    adam = Adam(network, config.learning_rate)
    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(total)
        squared_sum = 0.0
        for start in range(0, total, config.batch_size):
            idx = order[start : start + config.batch_size]
            diff = network.forward(x_train[idx], train=True, rng=rng) - y_train[idx]
            batch_squared = float(np.sum(diff**2))
            if not np.isfinite(batch_squared):
                raise NumericError(
                    f"loss is not finite at epoch {epoch}, "
                    f"batch offset {start} (batch size {idx.size})"
                )
            network.backward(2.0 * diff / diff.size, input_grad=False)
            adam.step()
            squared_sum += batch_squared
        train_mse = squared_sum / y_train.size
        val_diff = network.predict(x_val) - y_val
        history.append((epoch, train_mse, float(np.mean(val_diff**2))))
    return history


@dataclass
class Metrics:
    """Summed-error metrics, per component and aggregated."""

    mse: float
    mae_pct: float
    rmse_pct: float
    component_mse: np.ndarray
    component_mae_pct: np.ndarray
    component_rmse_pct: np.ndarray


def _percent_ratio(numerator, denominator):
    out = np.full(np.shape(numerator), np.nan)
    return 100.0 * np.divide(
        numerator, denominator, out=out, where=np.asarray(denominator) > 0
    )


def compute_metrics(predicted, reference):
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape or predicted.ndim != 2:
        raise ParameterError("metrics need matching (samples, components) arrays")
    diff = predicted - reference
    sq = (diff**2).sum(axis=0)
    ab = np.abs(diff).sum(axis=0)
    ref_sq = (reference**2).sum(axis=0)
    ref_ab = np.abs(reference).sum(axis=0)
    return Metrics(
        mse=float(sq.sum()),
        mae_pct=float(_percent_ratio(ab.sum(), ref_ab.sum())),
        rmse_pct=float(np.sqrt(_percent_ratio(sq.sum(), ref_sq.sum()) / 100.0) * 100.0),
        component_mse=sq,
        component_mae_pct=_percent_ratio(ab, ref_ab),
        component_rmse_pct=np.sqrt(_percent_ratio(sq, ref_sq) / 100.0) * 100.0,
    )


def evaluate(network, dataset):
    """Metrics of the network on a dataset, in de-scaled output units."""
    scaled = network.predict(_batched_input(dataset))
    predicted = dataset.scaler.unscale_output(scaled)
    reference = dataset.scaler.unscale_output(dataset.Y)
    return compute_metrics(predicted, reference)


def clamp_spd(matrices):
    """Raise the eigenvalues of symmetric matrices to at least ``SPD_FLOOR``.

    Returns the repaired stack and the number of matrices that needed it.
    """
    matrices = np.asarray(matrices, dtype=float)
    vals, vecs = np.linalg.eigh(matrices)
    needs = vals < SPD_FLOOR
    if not needs.any():
        return matrices.copy(), 0
    clamped = np.where(needs, SPD_FLOOR, vals)
    fixed = np.einsum("nab,nb,ncb->nac", vecs, clamped, vecs)
    fixed = 0.5 * (fixed + np.swapaxes(fixed, -1, -2))
    return fixed, int(needs.any(axis=-1).sum())


def predict_effective(network, x_scaled, scaler):
    """Decode network outputs into symmetric positive definite tensors.

    ``x_scaled`` is (n, N_l, ...) in scaled units. Each row of N_out outputs
    is the upper triangle of one m x m tensor, N_out = m(m+1)/2, so the
    width alone gives m: (n, d, d) permeability or (n, m, m) stiffness
    tensors. Returns the tensors, eigenvalue-clamped when a prediction
    drifts out of the SPD cone, and the number of them that were clamped.
    """
    x_scaled = np.asarray(x_scaled, dtype=float)
    rows = scaler.unscale_output(network.predict(x_scaled[:, None, ...]))
    mats = from_upper_triangle(rows)
    fixed, n_clamped = clamp_spd(mats)
    if n_clamped:
        logger.warning(
            "%d of %d predicted %d x %d tensors were clamped to the SPD cone",
            n_clamped,
            *mats.shape,
        )
    return fixed, n_clamped
