"""Layers, gradients, Adam, the training loop, and tensor prediction."""

import struct

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from poroscale.dataset import TARGET_PERMEABILITY, Dataset, Scaler
from poroscale.errors import FormatError, NumericError, ParameterError
from poroscale.surrogate import (
    Adam,
    AdamConfig,
    Conv,
    Dense,
    Dropout,
    Flatten,
    MaxPool,
    Network,
    ReLU,
    TrainConfig,
    build_network,
    clamp_spd,
    compute_metrics,
    evaluate,
    load_network,
    predict_effective,
    save_network,
    train,
)
from poroscale.surrogate.layers import he_uniform
from poroscale.surrogate.network import (
    FILTERS_2D,
    FILTERS_3D,
    HIDDEN_WIDTH,
    INFERENCE_CHUNK,
    MAGIC,
    VERSION,
    pooled_extent,
)
from poroscale.surrogate.training import SPD_FLOOR


def naive_conv(x, weight, bias):
    """Direct zero-padded cross-correlation, any spatial rank."""
    k = weight.shape[2]
    p = k // 2
    spatial = x.shape[2:]
    d = len(spatial)
    pad = np.pad(x, [(0, 0), (0, 0)] + [(p, p)] * d)
    out = np.zeros((x.shape[0], weight.shape[0]) + spatial)
    for b in range(x.shape[0]):
        for o in range(weight.shape[0]):
            for pos in np.ndindex(*spatial):
                win = pad[(b, slice(None)) + tuple(slice(i, i + k) for i in pos)]
                out[(b, o) + pos] = np.sum(win * weight[o]) + bias[o]
    return out


def tensordot_correlate(x, kernels):
    """Zero-padded correlation by tensordot over the window view."""
    d = x.ndim - 2
    k = kernels.shape[-1]
    p = k // 2
    padded = np.pad(x, [(0, 0), (0, 0)] + [(p, p)] * d)
    spatial_axes = tuple(range(2, 2 + d))
    win = sliding_window_view(padded, (k,) * d, spatial_axes)
    win_axes = (1,) + tuple(range(2 + d, 2 + 2 * d))
    out = np.tensordot(win, kernels, axes=(win_axes, tuple(range(1, 2 + d))))
    return np.moveaxis(out, -1, 1), win


def tensordot_conv(x, weight, bias, grad_out):
    """Reference Conv by tensordot: output, dW, db and input gradient.

    The weight gradient contracts the input windows with the output
    gradient; the input gradient correlates the output gradient with the
    flipped, channel-swapped kernel.
    """
    d = x.ndim - 2
    out, win = tensordot_correlate(x, weight)
    out = out + bias.reshape((1, -1) + (1,) * d)
    batch_spatial = (0,) + tuple(range(2, 2 + d))
    d_weight = np.tensordot(grad_out, win, axes=(batch_spatial, batch_spatial))
    d_bias = grad_out.sum(axis=batch_spatial)
    flipped = np.flip(weight, axis=tuple(range(2, 2 + d)))
    grad_in, _ = tensordot_correlate(grad_out, np.swapaxes(flipped, 0, 1))
    return out, d_weight, d_bias, grad_in


def naive_pool(x):
    """Stride-2 max over (up to) 2^d blocks, short edge blocks kept."""
    spatial = x.shape[2:]
    out_shape = tuple(-(-n // 2) for n in spatial)
    out = np.zeros(x.shape[:2] + out_shape)
    for pos in np.ndindex(*out_shape):
        block = x[
            (slice(None), slice(None))
            + tuple(slice(2 * i, min(2 * i + 2, n)) for i, n in zip(pos, spatial))
        ]
        out[(slice(None), slice(None)) + pos] = block.max(
            axis=tuple(range(2, block.ndim))
        )
    return out


def fd_worst_error(network, x, probes_per_array=4, seed=0, eps=1e-6):
    """Central-difference check of every parameter array and the input."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=network.forward(x).shape)

    def loss():
        return float(np.sum(network.forward(x) * w))

    loss()
    grad_x = network.backward(w)
    analytic = [g.copy() for g in network.grads] + [grad_x]
    arrays = list(network.params) + [x]
    worst = 0.0
    for arr, grad in zip(arrays, analytic):
        flat = arr.reshape(-1)
        idx = rng.choice(flat.size, size=min(probes_per_array, flat.size), replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + eps
            up = loss()
            flat[i] = keep - eps
            down = loss()
            flat[i] = keep
            fd = (up - down) / (2.0 * eps)
            a = grad.reshape(-1)[i]
            worst = max(worst, abs(fd - a) / max(abs(a), abs(fd), 1e-8))
    return worst


@pytest.mark.parametrize("dim,spatial", [(2, (5, 6)), (3, (4, 3, 5))])
def test_conv_matches_naive(dim, spatial):
    rng = np.random.default_rng(11)
    layer = Conv(dim, 2, 3, kernel=3, rng=rng)
    layer.bias[...] = rng.normal(size=3)
    x = rng.normal(size=(2, 2) + spatial)
    got = layer.forward(x)
    assert got.shape == (2, 3) + spatial
    np.testing.assert_allclose(got, naive_conv(x, layer.weight, layer.bias), atol=1e-13)


@pytest.mark.parametrize(
    "dim,in_ch,out_ch,spatial",
    [
        (2, 1, 8, (9, 7)),
        (2, 8, 16, (6, 6)),
        (3, 1, 16, (5, 4, 6)),
        (3, 16, 32, (3, 3, 3)),
    ],
)
def test_conv_matches_tensordot_reference(dim, in_ch, out_ch, spatial):
    rng = np.random.default_rng(35)
    layer = Conv(dim, in_ch, out_ch, rng=rng)
    layer.bias[...] = rng.normal(size=out_ch)
    x = rng.normal(size=(3, in_ch) + spatial)
    grad_out = rng.normal(size=(3, out_ch) + spatial)
    out, d_weight, d_bias, grad_in = tensordot_conv(
        x, layer.weight, layer.bias, grad_out
    )
    np.testing.assert_array_equal(layer.forward(x), out)
    got_in = layer.backward(grad_out)
    for got, want in zip(layer.grads + [got_in], (d_weight, d_bias, grad_in)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_backward_without_input_gradient():
    net = build_network(3, 4, 6, dropout=0.0, seed=36)
    rng = np.random.default_rng(37)
    x = rng.normal(size=(3, 1, 4, 4, 4))
    g = rng.normal(size=net.forward(x).shape)
    assert net.backward(g).shape == x.shape
    full = [grad.copy() for grad in net.grads]
    for grad in net.grads:
        grad[...] = np.nan
    assert net.backward(g, input_grad=False) is None
    for want, got in zip(full, net.grads):
        assert want.tobytes() == got.tobytes()
    # a parameterless first layer has nothing left to compute
    head = Network([Flatten(), Dense(64, 2, rng=rng)])
    head.forward(x)
    assert head.backward(np.ones((3, 2)), input_grad=False) is None


def test_predict_chunks_match_one_pass():
    net = build_network(2, 8, 3, seed=38)
    # two full chunks and a one-sample tail
    x = np.random.default_rng(39).random(size=(2 * INFERENCE_CHUNK + 1, 1, 8, 8))
    one_pass = net.forward(x)
    chunked = net.predict(x)
    assert chunked.shape == one_pass.shape
    assert np.abs(chunked - one_pass).max() <= 1e-12 * np.abs(one_pass).max()


def test_conv_identity_kernel():
    layer = Conv(2, 1, 1, kernel=3, rng=np.random.default_rng(0))
    layer.weight[...] = 0.0
    layer.weight[0, 0, 1, 1] = 1.0
    x = np.random.default_rng(1).normal(size=(3, 1, 6, 6))
    np.testing.assert_allclose(layer.forward(x), x, atol=1e-15)


def test_conv_linearity():
    rng = np.random.default_rng(2)
    layer = Conv(2, 2, 3, rng=rng)
    layer.bias[...] = 0.0
    x1 = rng.normal(size=(2, 2, 5, 5))
    x2 = rng.normal(size=(2, 2, 5, 5))
    combined = layer.forward(1.7 * x1 - 0.4 * x2)
    parts = 1.7 * layer.forward(x1) - 0.4 * layer.forward(x2)
    np.testing.assert_allclose(combined, parts, atol=1e-12)


def test_conv_rejects_bad_setup():
    with pytest.raises(ParameterError):
        Conv(1, 1, 1)
    with pytest.raises(ParameterError):
        Conv(2, 1, 1, kernel=4)


@pytest.mark.parametrize(
    "layers,shape",
    [
        ([Conv(2, 1, 2, rng=np.random.default_rng(3))], (2, 1, 5, 5)),
        ([Conv(3, 1, 2, rng=np.random.default_rng(4))], (2, 1, 4, 4, 4)),
        ([Dense(7, 4, rng=np.random.default_rng(5))], (3, 7)),
        (
            [Conv(2, 1, 2, rng=np.random.default_rng(6)), ReLU(), MaxPool(2)],
            (2, 1, 5, 5),
        ),
        (
            [Flatten(), Dense(12, 5, rng=np.random.default_rng(7)), ReLU()],
            (2, 3, 2, 2),
        ),
    ],
)
def test_layer_gradients_match_finite_differences(layers, shape):
    net = Network(layers)
    x = np.random.default_rng(8).normal(size=shape)
    assert fd_worst_error(net, x) < 1e-6


@pytest.mark.parametrize("dim,patch", [(2, 8), (3, 4)])
def test_full_network_gradient(dim, patch):
    net = build_network(dim, patch, 3, dropout=0.0, seed=9)
    x = np.random.default_rng(10).normal(size=(2, 1) + (patch,) * dim)
    assert fd_worst_error(net, x, probes_per_array=3) < 1e-6


def test_dense_analytic_gradient():
    rng = np.random.default_rng(12)
    layer = Dense(4, 3, rng=rng)
    x = rng.normal(size=(5, 4))
    g = rng.normal(size=(5, 3))
    layer.forward(x)
    grad_in = layer.backward(g)
    np.testing.assert_allclose(layer.grads[0], x.T @ g, atol=1e-14)
    np.testing.assert_allclose(layer.grads[1], g.sum(axis=0), atol=1e-14)
    np.testing.assert_allclose(grad_in, g @ layer.weight.T, atol=1e-14)


@pytest.mark.parametrize("dim,spatial", [(2, (5, 5)), (2, (6, 5)), (3, (5, 4, 3))])
def test_pool_matches_naive(dim, spatial):
    x = np.random.default_rng(13).normal(size=(2, 3) + spatial)
    layer = MaxPool(dim)
    got = layer.forward(x)
    want = naive_pool(x)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, atol=0.0)


def test_pool_gradient_routes_to_window_max():
    x = np.random.default_rng(14).normal(size=(2, 2, 5, 6))
    layer = MaxPool(2)
    out = layer.forward(x)
    grad_in = layer.backward(np.ones_like(out))
    # each input entry receives 1 iff it is its window's maximum
    expected = np.zeros_like(x)
    for b, c in np.ndindex(2, 2):
        for pos in np.ndindex(3, 3):
            rows = slice(2 * pos[0], min(2 * pos[0] + 2, 5))
            cols = slice(2 * pos[1], min(2 * pos[1] + 2, 6))
            block = x[b, c, rows, cols]
            r, s = np.unravel_index(block.argmax(), block.shape)
            expected[b, c, 2 * pos[0] + r, 2 * pos[1] + s] = 1.0
    np.testing.assert_allclose(grad_in, expected, atol=0.0)


def test_pool_tie_goes_to_first_position():
    x = np.zeros((1, 1, 2, 2))
    layer = MaxPool(2)
    layer.forward(x)
    grad = layer.backward(np.ones((1, 1, 1, 1)))
    np.testing.assert_allclose(grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])
    # tie between off-diagonal entries picks the earlier window slot
    x[0, 0] = [[0.0, 5.0], [5.0, 0.0]]
    layer.forward(x)
    grad = layer.backward(np.ones((1, 1, 1, 1)))
    np.testing.assert_allclose(grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])


def test_pool_rejects_bad_dim():
    with pytest.raises(ParameterError):
        MaxPool(4)


def test_relu_forward_backward():
    x = np.array([[-2.0, 0.0, 3.0]])
    layer = ReLU()
    np.testing.assert_allclose(layer.forward(x), [[0.0, 0.0, 3.0]])
    np.testing.assert_allclose(layer.backward(np.ones_like(x)), [[0.0, 0.0, 1.0]])


def test_dropout_eval_mode_is_identity():
    x = np.random.default_rng(15).normal(size=(4, 7))
    layer = Dropout(0.4)
    assert layer.forward(x) is x
    np.testing.assert_allclose(layer.backward(x), x)


def test_dropout_needs_generator_in_training():
    with pytest.raises(ParameterError):
        Dropout(0.4).forward(np.ones((2, 2)), train=True)
    with pytest.raises(ParameterError):
        Dropout(1.0)


def test_dropout_preserves_expectation():
    # inverted scaling keeps the mean within 2% over 1e4 passes
    layer = Dropout(0.3)
    rng = np.random.default_rng(16)
    x = np.ones((10, 10))
    total = 0.0
    for _ in range(10_000):
        total += layer.forward(x, train=True, rng=rng).mean()
    assert abs(total / 10_000 - 1.0) < 0.02


def test_dropout_gradient_uses_same_mask():
    rng = np.random.default_rng(17)
    layer = Dropout(0.5)
    x = rng.normal(size=(6, 6)) + 3.0
    out = layer.forward(x, train=True, rng=rng)
    grad = layer.backward(np.ones_like(x))
    np.testing.assert_allclose(grad, out / x, atol=1e-14)


@pytest.mark.parametrize(
    "extent,blocks,want", [(32, 4, 2), (12, 2, 3), (17, 1, 9), (12, 1, 6), (3, 2, 1)]
)
def test_pooled_extent(extent, blocks, want):
    assert pooled_extent(extent, blocks) == want


def test_he_uniform_bounds():
    rng = np.random.default_rng(18)
    sample = he_uniform(rng, (200, 50), fan_in=50)
    bound = np.sqrt(6.0 / 50)
    assert np.abs(sample).max() <= bound
    assert np.abs(sample).max() > 0.9 * bound
    assert abs(sample.mean()) < 0.05 * bound


@pytest.mark.parametrize(
    "dim,patch,filters,flat",
    [(2, 32, FILTERS_2D, 64 * 2 * 2), (3, 12, FILTERS_3D, 32 * 3 * 3 * 3)],
)
def test_architecture_shapes(dim, patch, filters, flat):
    net = build_network(dim, patch, 6, seed=0)
    convs = [layer for layer in net.layers if isinstance(layer, Conv)]
    assert tuple(c.weight.shape[0] for c in convs) == filters
    dense = [layer for layer in net.layers if isinstance(layer, Dense)]
    assert dense[0].weight.shape == (flat, HIDDEN_WIDTH)
    assert dense[1].weight.shape == (HIDDEN_WIDTH, 6)
    # head stays linear and activations flow end to end
    assert isinstance(net.layers[-1], Dense)
    out = net.forward(np.zeros((2, 1) + (patch,) * dim))
    assert out.shape == (2, 6)


def test_network_parameter_count():
    net = build_network(2, 8, 3, seed=1)
    by_hand = 0
    widths = (1,) + FILTERS_2D
    for a, b in zip(widths[:-1], widths[1:]):
        by_hand += b * a * 9 + b
    flat = FILTERS_2D[-1] * pooled_extent(8, 4) ** 2
    by_hand += flat * HIDDEN_WIDTH + HIDDEN_WIDTH + HIDDEN_WIDTH * 3 + 3
    assert net.n_parameters() == by_hand
    assert sum(p.size for p in net.params) == by_hand
    assert len(net.params) == len(net.grads)


def test_build_network_rejects_bad_setup():
    with pytest.raises(ParameterError):
        build_network(4, 8, 3)
    with pytest.raises(ParameterError):
        build_network(2, 0, 3)


def test_adam_first_step_is_normalized_gradient():
    cfg = AdamConfig(learning_rate=0.01)
    layer = Dense(3, 2, rng=np.random.default_rng(19))
    net = Network([layer])
    before = [p.copy() for p in net.params]
    g_w = np.array([[1.0, -2.0], [0.5, 0.0], [-3.0, 4.0]])
    g_b = np.array([2.0, -1.0])
    layer.grads[0][...] = g_w
    layer.grads[1][...] = g_b
    adam = Adam(net, cfg)
    adam.step()
    # zero moments make the first step lr * g / (|g| + eps)
    for p0, p1, g in zip(before, net.params, (g_w, g_b)):
        want = cfg.learning_rate * g / (np.abs(g) + cfg.epsilon)
        np.testing.assert_allclose(p0 - p1, want, atol=1e-15)


def test_adam_minimizes_quadratic():
    layer = Dense(2, 2, rng=np.random.default_rng(20))
    net = Network([layer])
    target = np.array([[1.0, -2.0], [0.5, 3.0]])
    adam = Adam(net, AdamConfig(learning_rate=0.05))
    start = float(np.sum((layer.weight - target) ** 2))
    for _ in range(500):
        layer.grads[0][...] = 2.0 * (layer.weight - target)
        layer.grads[1][...] = 0.0
        adam.step()
    assert float(np.sum((layer.weight - target) ** 2)) < 1e-6 * start


def test_adam_config_validation():
    with pytest.raises(ParameterError):
        AdamConfig(learning_rate=0.0)
    with pytest.raises(ParameterError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ParameterError):
        AdamConfig(beta2=-0.1)


def synthetic_dataset(n=80, patch=8, seed=21):
    rng = np.random.default_rng(seed)
    X = rng.random(size=(n, patch, patch))
    halves = np.split(X, 2, axis=2)
    Y = np.stack(
        [X.mean(axis=(1, 2)), halves[0].mean(axis=(1, 2)), halves[1].mean(axis=(1, 2))],
        axis=1,
    )
    return Dataset(
        dimension=2,
        patch_size=patch,
        target=TARGET_PERMEABILITY,
        X=X,
        Y=Y,
        realization=np.zeros(n, dtype=np.int64),
        cell=np.arange(n, dtype=np.int64),
        scaler=Scaler(
            input_min=0.0,
            input_max=1.0,
            output_min=np.zeros(3),
            output_max=np.ones(3),
        ),
    )


def test_training_reduces_loss():
    ds = synthetic_dataset()
    train_set = ds.subset(np.arange(64))
    val_set = ds.subset(np.arange(64, 80))
    net = build_network(2, 8, 3, seed=22)
    history = train(net, train_set, val_set, TrainConfig(epochs=30, batch_size=16, seed=22))
    assert len(history) == 30
    assert [row[0] for row in history] == list(range(1, 31))
    assert history[-1][1] < 0.5 * history[0][1]
    assert history[-1][2] < 0.5 * history[0][2]


def test_training_is_deterministic():
    ds = synthetic_dataset(n=24)
    train_set = ds.subset(np.arange(16))
    val_set = ds.subset(np.arange(16, 24))
    runs = []
    for _ in range(2):
        net = build_network(2, 8, 3, seed=23)
        hist = train(net, train_set, val_set, TrainConfig(epochs=3, batch_size=8, seed=23))
        runs.append((hist, [p.tobytes() for p in net.params]))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    other = build_network(2, 8, 3, seed=23)
    train(other, train_set, val_set, TrainConfig(epochs=3, batch_size=8, seed=24))
    assert [p.tobytes() for p in other.params] != runs[0][1]


def test_zero_epochs_leaves_weights_alone():
    ds = synthetic_dataset(n=12)
    net = build_network(2, 8, 3, seed=25)
    before = [p.copy() for p in net.params]
    history = train(net, ds.subset(np.arange(8)), ds.subset(np.arange(8, 12)),
                    TrainConfig(epochs=0))
    assert history == []
    for p0, p1 in zip(before, net.params):
        np.testing.assert_array_equal(p0, p1)


def test_divergence_raises():
    ds = synthetic_dataset(n=12)
    net = build_network(2, 8, 3, seed=26)
    # the update magnitude is capped near lr, so it must dwarf float range
    cfg = TrainConfig(epochs=5, batch_size=4, adam=AdamConfig(learning_rate=1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            train(net, ds.subset(np.arange(8)), ds.subset(np.arange(8, 12)), cfg)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(epochs=-1)
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)


def test_metric_anchor_values():
    m = compute_metrics(np.array([[1.0, 1.0]]), np.array([[2.0, 0.0]]))
    assert abs(m.mse - 2.0) < 1e-12
    assert abs(m.mae_pct - 100.0) < 1e-12
    assert abs(m.rmse_pct - 100.0 * np.sqrt(0.5)) < 1e-12
    np.testing.assert_allclose(m.component_mse, [1.0, 1.0])
    # zero reference mass in the second component yields NaN there
    assert abs(m.component_mae_pct[0] - 50.0) < 1e-12
    assert np.isnan(m.component_mae_pct[1])
    assert np.isnan(m.component_rmse_pct[1])


def test_metrics_reject_bad_shapes():
    with pytest.raises(ParameterError):
        compute_metrics(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ParameterError):
        compute_metrics(np.ones(4), np.ones(4))


def test_evaluate_reports_descaled_units():
    ds = synthetic_dataset(n=10)
    # stretch the scaler so scaled and raw units differ
    ds = Dataset(
        dimension=ds.dimension,
        patch_size=ds.patch_size,
        target=ds.target,
        X=ds.X,
        Y=ds.Y,
        realization=ds.realization,
        cell=ds.cell,
        scaler=Scaler(
            input_min=0.0,
            input_max=1.0,
            output_min=np.array([1.0, 2.0, 3.0]),
            output_max=np.array([3.0, 6.0, 4.0]),
        ),
    )
    net = build_network(2, 8, 3, seed=27)
    got = evaluate(net, ds)
    predicted = ds.scaler.unscale_output(net.forward(ds.X[:, None, :, :]))
    reference = ds.scaler.unscale_output(ds.Y)
    want = compute_metrics(predicted, reference)
    assert got.mse == want.mse
    assert got.rmse_pct == want.rmse_pct


def test_clamp_spd_repairs_indefinite_matrices():
    good = np.array([[2.0, 0.3], [0.3, 1.0]])
    bad = np.array([[-1.0, 0.0], [0.0, 0.5]])
    fixed, count = clamp_spd(np.stack([good, bad]))
    assert count == 1
    np.testing.assert_allclose(fixed[0], good, atol=1e-14)
    np.testing.assert_allclose(fixed[1], fixed[1].T, atol=1e-14)
    vals = np.linalg.eigvalsh(fixed[1])
    assert vals.min() >= SPD_FLOOR * (1 - 1e-9)
    assert abs(vals.min() - SPD_FLOOR) < 1e-12
    # untouched path still returns a copy
    fixed, count = clamp_spd(good[None])
    assert count == 0
    fixed[0, 0, 0] = 99.0
    assert good[0, 0] == 2.0


def test_clamp_spd_respects_floor_argument():
    mats = np.diag([0.2, 3.0])[None]
    fixed, count = clamp_spd(mats, floor=0.5)
    assert count == 1
    np.testing.assert_allclose(np.linalg.eigvalsh(fixed[0]), [0.5, 3.0], atol=1e-12)


def constant_output_network(rows):
    """Zeroed head so every sample predicts exactly ``rows`` after descaling."""
    net = build_network(2, 4, len(rows), seed=28)
    net.layers[-1].weight[...] = 0.0
    net.layers[-1].bias[...] = 0.0
    scaler = Scaler(
        input_min=0.0,
        input_max=1.0,
        output_min=np.asarray(rows, dtype=float),
        output_max=np.asarray(rows, dtype=float) + 1.0,
    )
    return net, scaler


def test_predict_effective_decodes_symmetric_tensors():
    net, scaler = constant_output_network([2.0, 0.5, 3.0])
    x = np.random.default_rng(29).random(size=(5, 4, 4))
    tensors = predict_effective(net, x, scaler, TARGET_PERMEABILITY, 2)
    assert tensors.shape == (5, 2, 2)
    np.testing.assert_allclose(tensors, [[[2.0, 0.5], [0.5, 3.0]]] * 5, atol=1e-12)


def test_predict_effective_clamps_and_logs(caplog):
    net, scaler = constant_output_network([-1.0, 0.0, 0.5])
    x = np.random.default_rng(30).random(size=(3, 4, 4))
    with caplog.at_level("WARNING"):
        tensors = predict_effective(net, x, scaler, TARGET_PERMEABILITY, 2)
    assert "clamped" in caplog.text
    vals = np.linalg.eigvalsh(tensors)
    assert vals.min() >= SPD_FLOOR * (1 - 1e-9)
    np.testing.assert_allclose(tensors, np.swapaxes(tensors, 1, 2), atol=1e-14)


def test_weights_round_trip(tmp_path):
    net = build_network(2, 8, 3, seed=31)
    path = tmp_path / "weights.nhnn"
    save_network(net, path)
    clone = load_network(path)
    assert len(clone.layers) == len(net.layers)
    for p0, p1 in zip(net.params, clone.params):
        assert p0.tobytes() == p1.tobytes()
    x = np.random.default_rng(32).normal(size=(2, 1, 8, 8))
    np.testing.assert_array_equal(net.forward(x), clone.forward(x))


def test_weights_golden_bytes(tmp_path):
    layer = Dense(2, 2, rng=np.random.default_rng(33))
    layer.weight[...] = [[1.0, 2.0], [3.0, 4.0]]
    layer.bias[...] = [0.5, -0.5]
    path = tmp_path / "dense.nhnn"
    save_network(Network([layer]), path)
    expected = MAGIC
    expected += struct.pack("<I", VERSION)
    expected += struct.pack("<I", 1)
    expected += struct.pack("<BB", 4, 2)  # dense record, two shape fields
    expected += struct.pack("<2Q", 2, 2)
    expected += struct.pack("<B", 0)
    expected += layer.weight.tobytes() + layer.bias.tobytes()
    assert path.read_bytes() == expected


def test_weights_format_errors(tmp_path):
    net = Network([Dense(2, 2, rng=np.random.default_rng(34))])
    path = tmp_path / "w.nhnn"
    save_network(net, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.nhnn"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match="magic"):
        load_network(bad_magic)

    bad_version = tmp_path / "version.nhnn"
    bad_version.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
    with pytest.raises(FormatError, match="version"):
        load_network(bad_version)

    short = tmp_path / "short.nhnn"
    short.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_network(short)

    long = tmp_path / "long.nhnn"
    long.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_network(long)

    unknown = tmp_path / "kind.nhnn"
    unknown.write_bytes(
        MAGIC + struct.pack("<I", VERSION) + struct.pack("<I", 1)
        + struct.pack("<BB", 9, 0) + struct.pack("<B", 0)
    )
    with pytest.raises(FormatError, match="kind"):
        load_network(unknown)


def test_save_rejects_unknown_layer(tmp_path):
    class Mystery:
        params = ()
        grads = ()

    with pytest.raises(ParameterError):
        save_network(Network([Mystery()]), tmp_path / "m.nhnn")
