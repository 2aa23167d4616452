"""Network layers with hand-derived reverse-mode gradients.

Every layer exposes ``forward(x, train=False, rng=None)`` and
``backward(grad_out) -> grad_in``; trainable layers also carry ``params``
and ``grads`` lists (same order, same shapes). Arrays are float64
throughout, activations are ``(batch, channels, *spatial)``. ``Conv``
writes its output channels-last and returns that shape as a view, which
the layers after it read by shape alone. Gradients flow back in that
memory order too: ``MaxPool.backward`` and the col2im of ``Conv.backward``
run channels-last.

Backward calls consume the cache left by the most recent forward call.
Trainable layers take ``backward(grad_out, input_grad=True)``: with
``input_grad=False`` they fill ``grads`` and return ``None`` without
computing the input gradient, which a network's first layer never needs
when its input is data.

``Conv`` keeps the column matrix of its forward pass, ``(batch * spatial,
in_ch * k^d)`` float64 values, until the next forward call, because the
weight gradient reuses it. On 12^3 patches the two Conv layers of the 3D
network hold 27 * 12^3 * 8 B = 0.37 MB and 432 * 6^3 * 8 B = 0.75 MB per
sample, and each ``MaxPool`` keeps its input, the Conv output before it
(16 * 12^3 * 8 B = 0.22 MB per sample for the first), for its backward.
So every forward pass, inference included, runs on a bounded batch
(``Network.predict``).
"""

from functools import reduce
from math import prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ParameterError

# kernel extent of every Conv axis
KERNEL = 3


def he_uniform(rng, shape, fan_in):
    """Uniform init on [-b, b] with b = sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv:
    """Cross-correlation with fixed 3^d kernels, stride 1, zero same-padding.

    Weights are (out_ch, in_ch, 3, ..., 3); input (batch, in_ch, *spatial)
    keeps its spatial extents.
    """

    def __init__(self, dim, in_channels, out_channels, rng=None):
        if dim not in (2, 3):
            raise ParameterError("convolution supports 2 or 3 spatial axes")
        if rng is None:
            rng = np.random.default_rng()
        self.dim = dim
        fan_in = in_channels * KERNEL**dim
        self.weight = he_uniform(
            rng, (out_channels, in_channels) + (KERNEL,) * dim, fan_in
        )
        self.bias = np.zeros(out_channels)
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._cols = None

    def _columns(self, x):
        """(batch * spatial, in_ch * k^d) windows of the zero-padded input.

        The input is padded channels-last, so its window view already runs
        (batch, *spatial, ch, *kernel) and one reshape copies it.
        """
        d, p = self.dim, KERNEL // 2
        padded = np.pad(np.moveaxis(x, 1, -1), [(0, 0)] + [(p, p)] * d + [(0, 0)])
        win = sliding_window_view(padded, (KERNEL,) * d, tuple(range(1, 1 + d)))
        return win.reshape(x.shape[0] * prod(x.shape[2:]), -1)

    def forward(self, x, train=False, rng=None):
        self._cols = self._columns(x)
        kernels = self.weight.reshape(self.weight.shape[0], -1)
        out = self._cols @ kernels.T
        out += self.bias
        # (batch, *spatial, out_ch) in memory, seen as (batch, out_ch, *spatial)
        return np.moveaxis(out.reshape(x.shape[:1] + x.shape[2:] + (-1,)), -1, 1)

    def backward(self, grad_out, input_grad=True):
        d, k = self.dim, KERNEL
        out_ch, in_ch = self.weight.shape[:2]
        batch, spatial = grad_out.shape[0], grad_out.shape[2:]
        # (out_ch, batch * spatial) in the column matrix's row order, copied C
        # order so the round-off does not depend on grad_out's memory order
        g = np.ascontiguousarray(np.moveaxis(grad_out, 1, 0)).reshape(out_ch, -1)
        # bias: sums over space per sample, then a running sum over the batch
        per_sample = np.add.reduce(g.reshape(out_ch, batch, -1), axis=2).T.copy()
        np.add.reduce(per_sample, axis=0, out=self.grads[1])
        # dW[o, c, u] = sum_{b, s} grad[b, o, s] * x_pad[b, c, s + u]
        np.matmul(g, self._cols, out=self.grads[0].reshape(out_ch, -1))
        if not input_grad:
            return None
        # column gradient (in_ch, k^d, batch, *spatial): offset u's columns add
        # back, channels-last, onto the padded input at s + u (col2im)
        col_grad = (self.weight.reshape(out_ch, -1).T @ g).reshape(
            (in_ch, -1, batch) + spatial
        )
        padded = np.zeros((batch,) + tuple(n + k - 1 for n in spatial) + (in_ch,))
        for u, cols in zip(np.ndindex(*(k,) * d), np.moveaxis(col_grad, 0, -1)):
            window = tuple(slice(o, o + n) for o, n in zip(u, spatial))
            padded[(slice(None),) + window] += cols
        p = k // 2
        inner = tuple(slice(p, p + n) for n in spatial)
        return np.moveaxis(padded[(slice(None),) + inner], -1, 1)

    def __repr__(self):
        out_ch, in_ch = self.weight.shape[:2]
        return f"Conv({self.dim}d, {in_ch}->{out_ch}, k={KERNEL})"


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

    Odd extents are padded with -inf so the padding never wins. Ties
    route the gradient to the first maximal position only; ``backward``
    finds those positions, so an inference pass does not.
    """

    params = ()
    grads = ()

    def __init__(self, dim):
        if dim not in (2, 3):
            raise ParameterError("pooling supports 2 or 3 spatial axes")
        self.dim = dim
        self._cache = None

    def _slots(self, x):
        """The 2^d strided views ``x[:, i0::2, i1::2(, i2::2)]``, C order."""
        return [
            x[(slice(None),) + tuple(slice(i, None, 2) for i in offset)]
            for offset in np.ndindex(*(2,) * self.dim)
        ]

    def forward(self, x, train=False, rng=None):
        spatial = x.shape[2:]
        x = np.moveaxis(x, 1, -1)  # channels-last, as a Conv output is in memory
        if any(n % 2 for n in spatial):
            pad = [(0, 0)] + [(0, n % 2) for n in spatial] + [(0, 0)]
            x = np.pad(x, pad, constant_values=-np.inf)
        out = reduce(np.maximum, self._slots(x))
        self._cache = (x, out, spatial)
        return np.moveaxis(out, -1, 1)

    def backward(self, grad_out):
        x, out, spatial = self._cache
        grad_out = np.moveaxis(grad_out, 1, -1)
        grad = np.empty(x.shape)
        # the first maximal slot in C order takes the gradient; `free` marks
        # the outputs that no earlier slot took
        free = np.ones(out.shape, dtype=bool)
        for slot, view in zip(self._slots(x), self._slots(grad)):
            hit = (slot == out) & free
            free ^= hit
            np.multiply(grad_out, hit, out=view)
        return np.moveaxis(grad[tuple(map(slice, grad.shape[:1] + spatial))], -1, 1)

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
        np.matmul(self._x.T, grad_out, out=self.grads[0])
        np.sum(grad_out, axis=0, out=self.grads[1])
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
