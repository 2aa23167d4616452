"""Network layers with hand-derived reverse-mode gradients.

Every layer exposes ``forward(x, train=False, rng=None)`` and
``backward(grad_out) -> grad_in``; trainable layers also carry ``params``
and ``grads`` lists (same order, same shapes). Arrays are float64
throughout, activations are ``(batch, channels, *spatial)``.

Backward calls consume the cache left by the most recent forward call.
Trainable layers take ``backward(grad_out, input_grad=True)``: with
``input_grad=False`` they fill ``grads`` and return ``None`` without
computing the input gradient, which a network's first layer never needs
when its input is data.

``Conv`` keeps the column matrix of its forward pass, ``(batch * spatial,
in_ch * k^d)`` float64 values, until the next forward call, because the
weight gradient reuses it. On 12^3 patches the two Conv layers of the 3D
network hold 27 * 12^3 * 8 B = 0.37 MB and 432 * 6^3 * 8 B = 0.75 MB per
sample, so every forward pass, inference included, runs on a bounded
batch (``Network.predict``).
"""

from math import prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ParameterError


def he_uniform(rng, shape, fan_in):
    """Uniform init on [-b, b] with b = sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv:
    """Cross-correlation with odd kernels, stride 1, zero same-padding.

    Weights are (out_ch, in_ch, *kernel); input (batch, in_ch, *spatial)
    keeps its spatial extents.
    """

    def __init__(self, dim, in_channels, out_channels, kernel=3, rng=None):
        if dim not in (2, 3):
            raise ParameterError("convolution supports 2 or 3 spatial axes")
        if kernel % 2 != 1:
            raise ParameterError("kernel extent must be odd")
        if rng is None:
            rng = np.random.default_rng()
        self.dim = dim
        self.kernel = kernel
        fan_in = in_channels * kernel**dim
        self.weight = he_uniform(
            rng, (out_channels, in_channels) + (kernel,) * dim, fan_in
        )
        self.bias = np.zeros(out_channels)
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._cols = None

    def _columns(self, x):
        """(batch * spatial, in_ch * k^d) windows of the zero-padded input."""
        d, p = self.dim, self.kernel // 2
        padded = np.pad(x, [(0, 0), (0, 0)] + [(p, p)] * d)
        spatial_axes = tuple(range(2, 2 + d))
        win = sliding_window_view(padded, (self.kernel,) * d, spatial_axes)
        # (batch, ch, *spatial, *kernel) -> (batch, *spatial, ch, *kernel)
        order = (0,) + spatial_axes + (1,) + tuple(range(2 + d, 2 + 2 * d))
        return win.transpose(order).reshape(x.shape[0] * prod(x.shape[2:]), -1)

    def forward(self, x, train=False, rng=None):
        self._cols = self._columns(x)
        kernels = self.weight.reshape(self.weight.shape[0], -1)
        out = (self._cols @ kernels.T).reshape(x.shape[:1] + x.shape[2:] + (-1,))
        # (batch, *spatial, out_ch) -> (batch, out_ch, *spatial)
        return np.moveaxis(out, -1, 1) + self.bias.reshape((1, -1) + (1,) * self.dim)

    def backward(self, grad_out, input_grad=True):
        d, k = self.dim, self.kernel
        out_ch, in_ch = self.weight.shape[:2]
        self.grads[1][...] = grad_out.sum(axis=(0,) + tuple(range(2, 2 + d)))
        # (out_ch, batch * spatial), columns in the column matrix's row order
        g = np.moveaxis(grad_out, 1, 0).reshape(out_ch, -1)
        # dW[o, c, u] = sum_{b, s} grad[b, o, s] * x_pad[b, c, s + u]
        self.grads[0][...] = (g @ self._cols).reshape(self.weight.shape)
        if not input_grad:
            return None
        # column gradient (in_ch, *kernel, batch, *spatial); window offset u
        # of every column adds back onto the padded input at s + u (col2im)
        batch, spatial = grad_out.shape[0], grad_out.shape[2:]
        col_grad = (self.weight.reshape(out_ch, -1).T @ g).reshape(
            (in_ch,) + (k,) * d + (batch,) + spatial
        )
        padded = np.zeros((in_ch, batch) + tuple(n + k - 1 for n in spatial))
        for u in np.ndindex(*(k,) * d):
            window = tuple(slice(o, o + n) for o, n in zip(u, spatial))
            padded[(slice(None), slice(None)) + window] += col_grad[(slice(None),) + u]
        p = k // 2
        inner = tuple(slice(p, p + n) for n in spatial)
        return np.swapaxes(padded[(slice(None), slice(None)) + inner], 0, 1)

    def __repr__(self):
        out_ch, in_ch = self.weight.shape[:2]
        return f"Conv({self.dim}d, {in_ch}->{out_ch}, k={self.kernel})"


class ReLU:
    params = ()
    grads = ()

    def __init__(self):
        self._mask = None

    def forward(self, x, train=False, rng=None):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out):
        return np.where(self._mask, grad_out, 0.0)

    def __repr__(self):
        return "ReLU()"


class MaxPool:
    """2^d max pooling with stride 2; odd extents round up (ceil mode).

    Ragged edges are padded with -inf so the padding never wins. Ties
    route the gradient to the first maximal position only.
    """

    params = ()
    grads = ()

    def __init__(self, dim):
        if dim not in (2, 3):
            raise ParameterError("pooling supports 2 or 3 spatial axes")
        self.dim = dim
        self._cache = None

    def _window_split(self, x):
        spatial = x.shape[2:]
        out = tuple(-(-n // 2) for n in spatial)
        pad = [(0, 0), (0, 0)] + [(0, 2 * o - n) for o, n in zip(out, spatial)]
        xp = np.pad(x, pad, constant_values=-np.inf)
        # (b, c, o1, 2, o2, 2, ...) -> (b, c, o1, o2, ..., 2^d)
        split = xp.reshape(
            x.shape[:2] + tuple(v for o in out for v in (o, 2))
        )
        order = (0, 1) + tuple(2 + 2 * i for i in range(self.dim)) + tuple(
            3 + 2 * i for i in range(self.dim)
        )
        windows = split.transpose(order).reshape(
            x.shape[:2] + out + (2**self.dim,)
        )
        return windows, out, spatial

    def forward(self, x, train=False, rng=None):
        windows, out, spatial = self._window_split(x)
        idx = windows.argmax(axis=-1)
        self._cache = (idx, out, spatial, x.shape[:2])
        return np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def backward(self, grad_out):
        idx, out, spatial, lead = self._cache
        windows = np.zeros(lead + out + (2**self.dim,))
        np.put_along_axis(windows, idx[..., None], grad_out[..., None], axis=-1)
        order = (0, 1) + tuple(2 + 2 * i for i in range(self.dim)) + tuple(
            3 + 2 * i for i in range(self.dim)
        )
        padded = (
            windows.reshape(lead + out + (2,) * self.dim)
            .transpose(np.argsort(order))
            .reshape(lead + tuple(2 * o for o in out))
        )
        return padded[(slice(None), slice(None)) + tuple(slice(0, n) for n in spatial)]

    def __repr__(self):
        return f"MaxPool({self.dim}d)"


class Flatten:
    params = ()
    grads = ()

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._shape)

    def __repr__(self):
        return "Flatten()"


class Dense:
    """Affine map on (batch, n_in) activations."""

    def __init__(self, n_in, n_out, rng=None):
        if rng is None:
            rng = np.random.default_rng()
        self.weight = he_uniform(rng, (n_in, n_out), n_in)
        self.bias = np.zeros(n_out)
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._x = None

    def forward(self, x, train=False, rng=None):
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out, input_grad=True):
        self.grads[0][...] = self._x.T @ grad_out
        self.grads[1][...] = grad_out.sum(axis=0)
        return grad_out @ self.weight.T if input_grad else None

    def __repr__(self):
        return f"Dense({self.weight.shape[0]}->{self.weight.shape[1]})"


class Dropout:
    """Inverted dropout: active only when train=True, identity otherwise."""

    params = ()
    grads = ()

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ParameterError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self._mask = None

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ParameterError("training-mode dropout needs a generator")
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out):
        if self._mask is None:
            return grad_out
        return grad_out * self._mask

    def __repr__(self):
        return f"Dropout({self.rate})"
