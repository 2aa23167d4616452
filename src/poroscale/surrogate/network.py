"""Network assembly, Adam updates, and the weights file format.

Architectures are feed-forward stacks built from the layers module. The
patch regressors pair convolution/pool blocks with a dense head:

    2D: 4 blocks with 8, 16, 32, 64 filters
    3D: 2 blocks with 16, 32 filters

each block being Conv(3^d, same) -> ReLU -> MaxPool(2^d, stride 2), then
Flatten -> Dense(512) -> Dropout -> Dense(n_out).

File format "NHNN" (little-endian): magic, u32 version, u32 layer count,
one record per layer (u8 kind, u8 int-field count, u64 fields, u8
float-field count, f64 fields), then every parameter array as raw float64
in layer order. Optimizer state is not stored.
"""

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, ParameterError
from .layers import Conv, Dense, Dropout, Flatten, MaxPool, ReLU

MAGIC = b"NHNN"
VERSION = 1

HIDDEN_WIDTH = 512
FILTERS_2D = (8, 16, 32, 64)
FILTERS_3D = (16, 32)
DEFAULT_DROPOUT = 0.1
# samples per forward pass of Network.predict
INFERENCE_CHUNK = 64

_KIND_CONV = 0
_KIND_RELU = 1
_KIND_POOL = 2
_KIND_FLATTEN = 3
_KIND_DENSE = 4
_KIND_DROPOUT = 5


class Network:
    """Ordered layer stack with shared forward/backward plumbing."""

    def __init__(self, layers):
        self.layers = list(layers)

    @property
    def params(self):
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self):
        return [g for layer in self.layers for g in layer.grads]

    def forward(self, x, train=False, rng=None):
        out = np.asarray(x, dtype=float)
        for layer in self.layers:
            out = layer.forward(out, train=train, rng=rng)
        return out

    def backward(self, grad_out, input_grad=True):
        """Fill every layer's ``grads``; return the input gradient.

        With ``input_grad=False`` the first layer computes only its own
        parameter gradients and ``None`` is returned: training never needs
        the gradient with respect to the data.
        """
        grad = grad_out
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        first = self.layers[0]
        if input_grad:
            return first.backward(grad)
        if first.params:
            first.backward(grad, input_grad=False)
        return None

    def predict(self, x):
        """Inference forward pass in chunks of ``INFERENCE_CHUNK`` samples.

        Activations and the column matrices the Conv layers keep stay
        bounded by the chunk, whatever the number of samples. Rows equal
        those of one pass over ``x`` up to round-off: BLAS may sum a
        matrix product in another order when the row count changes.
        """
        x = np.asarray(x, dtype=float)
        chunk = INFERENCE_CHUNK
        return np.concatenate(
            [self.forward(x[s : s + chunk]) for s in range(0, len(x), chunk)]
        )

    def __repr__(self):
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Network([{inner}])"


def pooled_extent(extent, n_blocks):
    """Spatial extent after n ceil-mode stride-2 pools."""
    for _ in range(n_blocks):
        extent = -(-extent // 2)
    return extent


def build_network(dim, patch, n_out, dropout=DEFAULT_DROPOUT, seed=0):
    """Patch regressor for d-dimensional inputs of extent ``patch``."""
    if dim == 2:
        filters = FILTERS_2D
    elif dim == 3:
        filters = FILTERS_3D
    else:
        raise ParameterError("architecture is defined for 2 or 3 dimensions")
    if patch < 1:
        raise ParameterError("patch extent must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    in_ch = 1
    for out_ch in filters:
        layers += [Conv(dim, in_ch, out_ch, rng=rng), ReLU(), MaxPool(dim)]
        in_ch = out_ch
    flat = filters[-1] * pooled_extent(patch, len(filters)) ** dim
    layers += [
        Flatten(),
        Dense(flat, HIDDEN_WIDTH, rng=rng),
        Dropout(dropout),
        Dense(HIDDEN_WIDTH, n_out, rng=rng),
    ]
    return Network(layers)


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ParameterError("learning rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ParameterError("moment decay rates must lie in [0, 1)")


class Adam:
    """Bias-corrected first/second-moment updates applied in place."""

    def __init__(self, network, config=AdamConfig()):
        self.network = network
        self.config = config
        self.first = [np.zeros_like(p) for p in network.params]
        self.second = [np.zeros_like(p) for p in network.params]
        self.step_count = 0

    def step(self):
        cfg = self.config
        self.step_count += 1
        correct1 = 1.0 - cfg.beta1**self.step_count
        correct2 = 1.0 - cfg.beta2**self.step_count
        for p, g, m, v in zip(
            self.network.params, self.network.grads, self.first, self.second
        ):
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            p -= cfg.learning_rate * (m / correct1) / (
                np.sqrt(v / correct2) + cfg.epsilon
            )


def _layer_record(layer):
    if isinstance(layer, Conv):
        out_ch, in_ch = layer.weight.shape[:2]
        return _KIND_CONV, (layer.dim, in_ch, out_ch, layer.kernel), ()
    if isinstance(layer, ReLU):
        return _KIND_RELU, (), ()
    if isinstance(layer, MaxPool):
        return _KIND_POOL, (layer.dim,), ()
    if isinstance(layer, Flatten):
        return _KIND_FLATTEN, (), ()
    if isinstance(layer, Dense):
        return _KIND_DENSE, layer.weight.shape, ()
    if isinstance(layer, Dropout):
        return _KIND_DROPOUT, (), (layer.rate,)
    raise ParameterError(f"cannot serialize layer {layer!r}")


def _layer_from_record(kind, ints, floats):
    if kind == _KIND_CONV:
        dim, in_ch, out_ch, kernel = ints
        return Conv(dim, in_ch, out_ch, kernel, rng=np.random.default_rng(0))
    if kind == _KIND_RELU:
        return ReLU()
    if kind == _KIND_POOL:
        return MaxPool(ints[0])
    if kind == _KIND_FLATTEN:
        return Flatten()
    if kind == _KIND_DENSE:
        return Dense(ints[0], ints[1], rng=np.random.default_rng(0))
    if kind == _KIND_DROPOUT:
        return Dropout(floats[0])
    raise FormatError(f"unknown layer kind {kind}")


def save_network(network, path):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(network.layers)))
        for layer in network.layers:
            kind, ints, floats = _layer_record(layer)
            fh.write(struct.pack("<BB", kind, len(ints)))
            fh.write(struct.pack(f"<{len(ints)}Q", *ints))
            fh.write(struct.pack("<B", len(floats)))
            fh.write(struct.pack(f"<{len(floats)}d", *floats))
        for param in network.params:
            fh.write(np.asarray(param, dtype="<f8", order="C").tobytes())


def _read_exact(fh, n, path):
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"{path}: truncated weights file")
    return data


def load_network(path):
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path) != MAGIC:
            raise FormatError(f"{path}: bad magic, not a weights file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        (n_layers,) = struct.unpack("<I", _read_exact(fh, 4, path))
        layers = []
        for _ in range(n_layers):
            kind, n_ints = struct.unpack("<BB", _read_exact(fh, 2, path))
            ints = struct.unpack(f"<{n_ints}Q", _read_exact(fh, 8 * n_ints, path))
            (n_floats,) = struct.unpack("<B", _read_exact(fh, 1, path))
            floats = struct.unpack(
                f"<{n_floats}d", _read_exact(fh, 8 * n_floats, path)
            )
            layers.append(_layer_from_record(kind, ints, floats))
        network = Network(layers)
        for param in network.params:
            raw = _read_exact(fh, 8 * param.size, path)
            param[...] = np.frombuffer(raw, "<f8").reshape(param.shape)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after parameters")
    return network
