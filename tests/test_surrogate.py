"""Layers, gradients, Adam, the training loop, and tensor prediction."""

import tracemalloc
from functools import reduce
from math import prod

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from poroscale.arrayio import read_array, write_array
from poroscale.dataset import (
    TARGET_ELASTICITY,
    TARGET_PERMEABILITY,
    TARGETS,
    Dataset,
    Scaler,
    target_components,
)
from poroscale.elasticity import from_upper_triangle
from poroscale.errors import FormatError, NumericError, ParameterError
from poroscale.surrogate.layers import (
    Conv,
    Dense,
    Dropout,
    Flatten,
    MaxPool,
    ReLU,
    he_uniform,
)
from poroscale.surrogate.network import (
    ADAM_BETA1,
    ADAM_BLOCK,
    ADAM_BETA2,
    ADAM_EPSILON,
    FILTERS_2D,
    FILTERS_3D,
    HIDDEN_WIDTH,
    INFERENCE_CHUNK,
    Adam,
    Network,
    build_network,
    load_network,
    pooled_extent,
    save_network,
)
from poroscale.surrogate.training import (
    SPD_FLOOR,
    TrainConfig,
    clamp_spd,
    compute_metrics,
    evaluate,
    predict_effective,
    train,
)


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


def reference_conv_backward(weight, x, grad_out):
    """Conv's dW, db and input gradient, col2im window by window.

    Works on a C-ordered copy of ``grad_out`` and adds the column gradient
    back into a channels-first padded buffer, one window offset at a time.
    """
    d = x.ndim - 2
    out_ch, in_ch, k = weight.shape[0], weight.shape[1], weight.shape[2]
    p = k // 2
    grad_out = np.ascontiguousarray(grad_out)
    batch, spatial = grad_out.shape[0], grad_out.shape[2:]
    padded_x = np.pad(np.moveaxis(x, 1, -1), [(0, 0)] + [(p, p)] * d + [(0, 0)])
    win = sliding_window_view(padded_x, (k,) * d, tuple(range(1, 1 + d)))
    cols = win.reshape(batch * prod(spatial), -1)
    d_bias = grad_out.sum(axis=(0,) + tuple(range(2, 2 + d)))
    g = np.moveaxis(grad_out, 1, 0).reshape(out_ch, -1)
    d_weight = (g @ cols).reshape(weight.shape)
    col_grad = (weight.reshape(out_ch, -1).T @ g).reshape(
        (in_ch,) + (k,) * d + (batch,) + spatial
    )
    padded = np.zeros((in_ch, batch) + tuple(n + k - 1 for n in spatial))
    for u in np.ndindex(*(k,) * d):
        window = tuple(slice(o, o + n) for o, n in zip(u, spatial))
        padded[(slice(None), slice(None)) + window] += col_grad[(slice(None),) + u]
    inner = tuple(slice(p, p + n) for n in spatial)
    grad_in = np.swapaxes(padded[(slice(None), slice(None)) + inner], 0, 1)
    return d_weight, d_bias, grad_in


def reference_pool_backward(x, grad_out):
    """MaxPool's input gradient from an index array of first maximal slots.

    The gradient is built C-ordered from channels-first strided views.
    """
    spatial = x.shape[2:]
    if any(n % 2 for n in spatial):
        pad = [(0, 0), (0, 0)] + [(0, n % 2) for n in spatial]
        x = np.pad(x, pad, constant_values=-np.inf)
    offsets = list(np.ndindex(*(2,) * len(spatial)))
    views = [(Ellipsis,) + tuple(slice(i, None, 2) for i in o) for o in offsets]
    slots = [x[v] for v in views]
    out = reduce(np.maximum, slots)
    first = np.zeros(out.shape, dtype=np.int8)
    for s in reversed(range(len(slots))):
        np.putmask(first, slots[s] == out, s)
    grad = np.empty(x.shape)
    for s, view in enumerate(views):
        np.multiply(grad_out, first == s, out=grad[view])
    return grad[(Ellipsis,) + tuple(slice(0, n) for n in spatial)]


def reference_adam_step(params, grads, first, second, step_count, lr):
    """One unblocked Adam update with full-size temporaries."""
    correct1 = 1.0 - ADAM_BETA1**step_count
    correct2 = 1.0 - ADAM_BETA2**step_count
    for p, g, m, v in zip(params, grads, first, second):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPSILON)


def channels_last(a):
    """``a`` with the same shape and values, channel axis innermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 1, -1)), -1, 1)


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
    layer = Conv(dim, 2, 3, rng=rng)
    layer.bias[...] = rng.normal(size=3)
    x = rng.normal(size=(2, 2) + spatial)
    got = layer.forward(x)
    assert got.shape == (2, 3) + spatial
    np.testing.assert_allclose(got, naive_conv(x, layer.weight, layer.bias), atol=1e-13)


@pytest.mark.parametrize("shape", [(3, 2, 6, 5), (2, 2, 3, 5, 4)])
def test_relu_after_pool_equals_relu_before_pool(shape):
    # integral values give ties, zeros and all-negative windows
    x = np.round(np.random.default_rng(41).normal(size=shape))
    d = len(shape) - 2
    before = Network([ReLU(), MaxPool(d)])
    after = Network([MaxPool(d), ReLU()])
    out = before.forward(x)
    assert after.forward(x).tobytes() == out.tobytes()
    g = np.random.default_rng(42).normal(size=out.shape)
    np.testing.assert_array_equal(after.backward(g), before.backward(g))


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


@pytest.mark.parametrize("layout", ["c-order", "channels-last"])
@pytest.mark.parametrize(
    "dim,in_ch,out_ch,spatial,batch",
    [
        (2, 1, 8, (8, 8), 16),
        (2, 8, 16, (8, 8), 16),
        (2, 32, 64, (1, 1), 16),
        (2, 3, 4, (5, 7), 3),
        (3, 1, 16, (6, 6, 6), 2),
        (3, 16, 32, (6, 6, 6), 5),
        (3, 16, 32, (3, 3, 3), 13),
        (3, 2, 3, (3, 5, 4), 2),
    ],
)
def test_conv_backward_matches_window_by_window(
    dim, in_ch, out_ch, spatial, batch, layout
):
    rng = np.random.default_rng(38)
    layer = Conv(dim, in_ch, out_ch, rng=rng)
    x = rng.normal(size=(batch, in_ch) + spatial)
    grad_out = rng.normal(size=layer.forward(x).shape)
    if layout == "channels-last":
        grad_out = channels_last(grad_out)
    d_weight, d_bias, grad_in = reference_conv_backward(layer.weight, x, grad_out)
    got_in = layer.backward(grad_out)
    np.testing.assert_array_equal(layer.grads[0], d_weight)
    np.testing.assert_array_equal(layer.grads[1], d_bias)
    np.testing.assert_array_equal(got_in, grad_in)


@pytest.mark.parametrize("grad_layout", ["c-order", "channels-last"])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
@pytest.mark.parametrize(
    "spatial",
    [(8, 6), (5, 7), (4, 6, 2), (3, 5, 4)],
    ids=["8x6", "5x7", "4x6x2", "3x5x4"],
)
def test_pool_backward_matches_first_slot_index(spatial, ties, grad_layout):
    rng = np.random.default_rng(39)
    # a Conv output: channels-last in memory
    x = channels_last(rng.normal(size=(3, 4) + spatial))
    if ties:
        x = np.round(x)
    layer = MaxPool(len(spatial))
    out = layer.forward(x)
    np.testing.assert_array_equal(out, naive_pool(x))
    grad_out = rng.normal(size=out.shape)
    if grad_layout == "channels-last":
        grad_out = channels_last(grad_out)
    np.testing.assert_array_equal(
        layer.backward(grad_out), reference_pool_backward(x, grad_out)
    )


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


def test_plans_follow_batch_shape_changes():
    # one network through batch 16, a tail batch of 7, batch 16 and a
    # predict chunk; each call must equal a fresh network's first call
    def fresh():
        return build_network(2, 8, 3, dropout=0.0, seed=42)

    net = fresh()
    rng = np.random.default_rng(43)
    for batch in (16, 7, 16):
        x = rng.normal(size=(batch, 1, 8, 8))
        g = rng.normal(size=(batch, 3))
        want = fresh()
        want_out = want.forward(x)
        want_in = want.backward(g)
        assert net.forward(x).tobytes() == want_out.tobytes()
        assert net.backward(g).tobytes() == want_in.tobytes()
        assert net.flat_grads.tobytes() == want.flat_grads.tobytes()
    x = rng.normal(size=(INFERENCE_CHUNK, 1, 8, 8))
    assert net.predict(x).tobytes() == fresh().predict(x).tobytes()
    # and each Conv keeps one plan per batch shape it ran
    convs = [layer for layer in net.layers if isinstance(layer, Conv)]
    batches = sorted({16, 7, INFERENCE_CHUNK})
    for layer in convs:
        assert sorted(shape[0] for shape in layer._plans) == batches


@pytest.mark.parametrize("dim,patch", [(2, 7), (3, 5)])
def test_input_gradients_do_not_share_buffers(dim, patch):
    net = build_network(dim, patch, 3, dropout=0.0, seed=44)
    rng = np.random.default_rng(45)
    x = rng.normal(size=(4, 1) + (patch,) * dim)
    net.forward(x)
    first = net.backward(rng.normal(size=(4, 3)))
    kept = first.copy()
    second = net.backward(rng.normal(size=(4, 3)))
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    # and layer by layer, through odd extents that pad the pools
    shapes = []
    out = x
    for layer in net.layers:
        out = layer.forward(out)
        shapes.append(out.shape)
    for layer, shape in zip(net.layers, shapes):
        g = rng.normal(size=shape)
        a = layer.backward(g)
        a_kept = a.copy()
        b = layer.backward(g + 1.0)
        assert not np.shares_memory(a, b), layer
        assert a.tobytes() == a_kept.tobytes(), layer


def test_layers_hold_views_of_the_flat_vectors():
    net = build_network(3, 4, 6, seed=46)
    assert net.flat_params.dtype == net.flat_grads.dtype == np.float64
    assert net.flat_params.size == sum(p.size for p in net.params)
    for layer in net.layers:
        for p, g in zip(layer.params, layer.grads, strict=True):
            assert np.shares_memory(p, net.flat_params)
            assert np.shares_memory(g, net.flat_grads)
    conv = net.layers[0]
    assert conv.weight is conv.params[0] and conv.bias is conv.params[1]
    # the flat vector is the parameters in layer order
    joined = np.concatenate([p.ravel() for p in net.params])
    assert joined.tobytes() == net.flat_params.tobytes()
    for i in (0, 3, len(net.params) - 1):
        net.params[i].reshape(-1)[-1] = 123.5
        start = sum(p.size for p in net.params[: i + 1]) - 1
        assert net.flat_params[start] == 123.5


def test_conv_plans_keep_no_array():
    # after inference on one chunk of 12^3 samples and training steps at
    # batch 8 and 5, each Conv keeps one plan per input shape, holding no array
    net = build_network(3, 12, 6, seed=47)
    rng = np.random.default_rng(48)
    convs = [layer for layer in net.layers if isinstance(layer, Conv)]

    def passes():
        net.predict(rng.random(size=(INFERENCE_CHUNK, 1, 12, 12, 12)))
        for batch in (8, 5, 8):
            x = rng.random(size=(batch, 1, 12, 12, 12))
            out = net.forward(x, train=True, rng=rng)
            net.backward(np.ones_like(out), input_grad=False)

    passes()
    batches = {INFERENCE_CHUNK, 8, 5}
    kept = [dict(layer._plans) for layer in convs]
    for layer, plans in zip(convs, kept):
        assert len(plans) == len(batches), layer
        assert {shape[0] for shape in plans} == batches, layer
        for plan in plans.values():
            assert not any(isinstance(v, np.ndarray) for v in vars(plan).values())
    # the same shapes again build no plan
    passes()
    for layer, plans in zip(convs, kept):
        assert layer._plans.keys() == plans.keys()
        assert all(layer._plans[shape] is plan for shape, plan in plans.items())


def test_conv_holds_one_column_matrix():
    # the second pass frees the first pass's column matrix before it makes
    # its own, so the two never live at once
    layer = Conv(2, 4, 1, rng=np.random.default_rng(49))
    x = np.random.default_rng(50).normal(size=(64, 4, 16, 16))
    tracemalloc.start()
    try:
        layer.forward(x)
        cols = layer._cols.nbytes
        tracemalloc.reset_peak()
        layer.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cols


def test_conv_identity_kernel():
    layer = Conv(2, 1, 1, rng=np.random.default_rng(0))
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


@pytest.mark.parametrize(
    "shape, ties",
    [((2, 2, 5, 6), False), ((2, 2, 3, 5, 4), True)],
    ids=["2d-odd", "3d-odd-ties"],
)
def test_pool_gradient_routes_to_window_max(shape, ties):
    x = np.random.default_rng(14).normal(size=shape)
    if ties:
        # integral values: many windows hold their maximum more than once
        x = np.round(x)
    layer = MaxPool(len(shape) - 2)
    out = layer.forward(x)
    grad_in = layer.backward(np.ones_like(out))
    # each input entry receives 1 iff it is its window's first maximum
    expected = np.zeros_like(x)
    for b, c in np.ndindex(*shape[:2]):
        for pos in np.ndindex(*out.shape[2:]):
            block = x[(b, c) + tuple(slice(2 * q, 2 * q + 2) for q in pos)]
            first = np.unravel_index(block.argmax(), block.shape)
            expected[(b, c) + tuple(2 * q + r for q, r in zip(pos, first))] = 1.0
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
    assert sum(p.size for p in net.params) == by_hand
    assert len(net.params) == len(net.grads)


def test_build_network_rejects_bad_setup():
    with pytest.raises(ParameterError):
        build_network(4, 8, 3)
    with pytest.raises(ParameterError):
        build_network(2, 0, 3)


def test_adam_first_step_is_normalized_gradient():
    lr = 0.01
    layer = Dense(3, 2, rng=np.random.default_rng(19))
    net = Network([layer])
    before = [p.copy() for p in net.params]
    g_w = np.array([[1.0, -2.0], [0.5, 0.0], [-3.0, 4.0]])
    g_b = np.array([2.0, -1.0])
    layer.grads[0][...] = g_w
    layer.grads[1][...] = g_b
    adam = Adam(net, lr)
    adam.step()
    # zero moments make the first step lr * g / (|g| + eps)
    for p0, p1, g in zip(before, net.params, (g_w, g_b)):
        want = lr * g / (np.abs(g) + ADAM_EPSILON)
        np.testing.assert_allclose(p0 - p1, want, atol=1e-15)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_network(2, 16, 6, seed=40),
        lambda: build_network(3, 12, 6, seed=40),
        # fewer parameters than one block
        lambda: Network([Dense(7, 3), ReLU(), Dense(3, 2)]),
    ],
    ids=["2-16", "3-12", "dense-32"],
)
def test_blocked_adam_matches_unblocked_update(make):
    net = make()
    # the last block is a partial one
    assert net.flat_params.size % ADAM_BLOCK
    params = [p.copy() for p in net.params]
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    adam = Adam(net, 1e-3)
    rng = np.random.default_rng(41)
    for step in range(1, 4):
        for g in net.grads:
            g[...] = rng.normal(size=g.shape)
        adam.step()
        reference_adam_step(params, net.grads, first, second, step, 1e-3)
        for got, want in zip(net.params, params):
            np.testing.assert_array_equal(got, want)


def test_adam_step_allocates_no_full_size_temporaries():
    # the 3D network's dense layer alone holds 442k parameters (3.5 MB)
    net = build_network(3, 12, 6)
    adam = Adam(net, 1e-3)
    for g in net.grads:
        g[...] = 1.0
    tracemalloc.start()
    try:
        adam.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_adam_minimizes_quadratic():
    layer = Dense(2, 2, rng=np.random.default_rng(20))
    net = Network([layer])
    target = np.array([[1.0, -2.0], [0.5, 3.0]])
    adam = Adam(net, 0.05)
    start = float(np.sum((layer.weight - target) ** 2))
    for _ in range(500):
        layer.grads[0][...] = 2.0 * (layer.weight - target)
        layer.grads[1][...] = 0.0
        adam.step()
    assert float(np.sum((layer.weight - target) ** 2)) < 1e-6 * start


def test_adam_config_validation():
    net = Network([Dense(2, 2, rng=np.random.default_rng(21))])
    for lr in (0.0, -0.1, np.nan):
        with pytest.raises(ParameterError, match="learning rate"):
            Adam(net, lr)
    # the moment decay rates and epsilon are fixed, not options
    assert 0 <= ADAM_BETA1 < 1 and 0 <= ADAM_BETA2 < 1
    assert ADAM_EPSILON > 0


def synthetic_dataset(n=80, patch=8, seed=21):
    rng = np.random.default_rng(seed)
    X = rng.random(size=(n, patch, patch))
    halves = np.split(X, 2, axis=2)
    Y = np.stack(
        [X.mean(axis=(1, 2)), halves[0].mean(axis=(1, 2)), halves[1].mean(axis=(1, 2))],
        axis=1,
    )
    return Dataset(
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
                    TrainConfig(epochs=0, batch_size=64))
    assert history == []
    for p0, p1 in zip(before, net.params):
        np.testing.assert_array_equal(p0, p1)


def test_divergence_raises():
    ds = synthetic_dataset(n=12)
    net = build_network(2, 8, 3, seed=26)
    # the update magnitude is capped near lr, so it must dwarf float range
    cfg = TrainConfig(epochs=5, batch_size=4, learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            train(net, ds.subset(np.arange(8)), ds.subset(np.arange(8, 12)), cfg)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(epochs=-1)
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=-1)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.0)
    ds = synthetic_dataset(n=12)
    net = build_network(2, 8, 3, seed=27)
    # 0 (one coarse-cell count) must be resolved before training
    with pytest.raises(ParameterError, match="batch size"):
        train(net, ds.subset(np.arange(8)), ds.subset(np.arange(8, 12)),
              TrainConfig(batch_size=0))


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


# output widths 3 and 6 in 2D, 6 and 21 in 3D
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("target", [TARGET_PERMEABILITY, TARGET_ELASTICITY])
def test_predict_effective_decodes_symmetric_tensors(target, d):
    m = TARGETS[target].size(d)
    assert target_components(target, d) == m * (m + 1) // 2
    # diagonally dominant, so no clamp changes it
    want = 0.1 * np.add.outer(np.arange(m), np.arange(m)) + m * np.eye(m)
    net, scaler = constant_output_network(want[np.triu_indices(m)])
    x = np.random.default_rng(29).random(size=(5, 4, 4))
    tensors, clamped = predict_effective(net, x, scaler)
    assert tensors.shape == (5, m, m) and clamped == 0
    np.testing.assert_allclose(tensors, [want] * 5, atol=1e-12)


def test_from_upper_triangle_rejects_a_width_of_no_triangle():
    with pytest.raises(ParameterError):
        from_upper_triangle(np.ones((5, 4)))


def test_predict_effective_clamps_and_logs(caplog):
    net, scaler = constant_output_network([-1.0, 0.0, 0.5])
    x = np.random.default_rng(30).random(size=(3, 4, 4))
    with caplog.at_level("WARNING"):
        tensors, clamped = predict_effective(net, x, scaler)
    assert "clamped" in caplog.text and clamped == 3
    vals = np.linalg.eigvalsh(tensors)
    assert vals.min() >= SPD_FLOOR * (1 - 1e-9)
    np.testing.assert_allclose(tensors, np.swapaxes(tensors, 1, 2), atol=1e-14)


def test_weights_round_trip(tmp_path):
    for dim, patch, n_out in ((2, 8, 3), (3, 6, 6)):
        net = build_network(dim, patch, n_out, dropout=0.25, seed=31)
        path = tmp_path / f"model{dim}"
        save_network(net, path)
        clone = load_network(path)
        assert clone.architecture == (dim, patch, n_out, 0.25)
        assert repr(clone) == repr(net)
        for p0, p1 in zip(net.params, clone.params, strict=True):
            assert p0.tobytes() == p1.tobytes()
        assert clone.flat_params.tobytes() == net.flat_params.tobytes()
        assert read_array(path / "weights.nhar").tobytes() == net.flat_params.tobytes()
        x = np.random.default_rng(32).normal(size=(2, 1) + (patch,) * dim)
        assert net.forward(x).tobytes() == clone.forward(x).tobytes()


def test_load_draws_no_weights(tmp_path, monkeypatch):
    nets = {dim: build_network(dim, 6, 3, seed=33) for dim in (2, 3)}
    for dim, net in nets.items():
        save_network(net, tmp_path / f"model{dim}")

    def no_draws(*args):
        raise AssertionError("load_network drew initial weights")

    monkeypatch.setattr("poroscale.surrogate.layers.he_uniform", no_draws)
    for dim, net in nets.items():
        clone = load_network(tmp_path / f"model{dim}")
        assert clone.flat_params.tobytes() == net.flat_params.tobytes()


def test_layers_without_a_generator_start_at_zero():
    for layer in (Conv(2, 2, 3), Conv(3, 1, 2), Dense(4, 5)):
        assert not any(p.any() for p in layer.params)
    # a seeded network draws its first layer first, as it always has
    seeded = build_network(2, 8, 3, seed=5)
    want = he_uniform(np.random.default_rng(5), (FILTERS_2D[0], 1, 3, 3), 9)
    assert seeded.params[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("member", ["architecture", "weights"])
def test_load_rejects_missing_model_member(tmp_path, member):
    save_network(build_network(2, 4, 3), tmp_path / "model")
    (tmp_path / "model" / f"{member}.nhar").unlink()
    with pytest.raises(FormatError, match=f"{member}.nhar is missing"):
        load_network(tmp_path / "model")


def test_weights_format_errors(tmp_path):
    path = tmp_path / "model"
    save_network(build_network(2, 4, 3), path)
    weights = read_array(path / "weights.nhar")

    write_array(path / "weights.nhar", weights[:-1])
    with pytest.raises(FormatError, match="weights.nhar has shape"):
        load_network(path)
    write_array(path / "weights.nhar", weights)

    for arch, match in (
        ([2.0, 4.0, 3.0], "shape"),
        ([[2.0, 4.0, 3.0, 0.1]], "shape"),
        ([2.0, 4.5, 3.0, 0.1], "integral"),
        ([2.0, 4.0, np.inf, 0.1], "integral"),
        ([4.0, 4.0, 3.0, 0.1], "2 or 3 dimensions"),
        ([2.0, 4.0, 0.0, 0.1], "output count"),
        ([2.0, 4.0, 3.0, 1.5], "dropout"),
    ):
        write_array(path / "architecture.nhar", arch)
        with pytest.raises(FormatError, match=match):
            load_network(path)


def test_save_rejects_network_not_built(tmp_path):
    with pytest.raises(ParameterError, match="build_network"):
        save_network(Network([Dense(2, 2)]), tmp_path / "model")
    assert not (tmp_path / "model").exists()
