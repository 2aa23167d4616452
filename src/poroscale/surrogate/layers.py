"""Network layers with hand-derived reverse-mode gradients.

Every layer exposes ``forward(x, train=False, rng=None)`` and
``backward(grad_out) -> grad_in``; trainable layers also carry ``params``
and ``grads`` lists (same order, same shapes), which a ``Network`` replaces
by views of its flat vectors. Arrays are float64 throughout, activations
are ``(batch, channels, *spatial)``. ``Conv`` writes its output
channels-last and returns that shape as a view, which the layers after it
read by shape alone. Gradients flow back in that memory order too:
``MaxPool.backward`` and the col2im of ``Conv.backward`` run channels-last.

Backward calls consume the cache left by the most recent forward call.
Trainable layers take ``backward(grad_out, input_grad=True)``: with
``input_grad=False`` they fill ``grads`` and return ``None`` without
computing the input gradient, which a network's first layer never needs
when its input is data.

``Conv`` keeps the column matrix of its forward pass, ``(batch * spatial,
in_ch * k^d)`` float64 values, because the weight gradient reuses it;
the next forward call frees it before making its own. On 12^3 patches
the two Conv layers of the 3D network hold 27 * 12^3 * 8 B = 0.37 MB and
432 * 6^3 * 8 B = 0.75 MB per sample, and each ``MaxPool`` keeps its
input, the Conv output before it (16 * 12^3 * 8 B = 0.22 MB per sample
for the first), for its backward. So every forward pass, inference
included, runs on a bounded batch (``Network.predict``).

``Conv`` also keeps a plan of each input shape it has seen: the shapes
and index tuples a pass would otherwise rebuild, and no array (0 B). The
zero-bordered input it describes, 14^3 * 8 B = 22 kB and 16 * 8^3 * 8 B =
66 kB per sample for the two 3D layers, lives only during a forward pass,
since a kept one would add to the high-water mark of every later stage.
So does the index of one sample's window positions that gathers the column
matrix from it, as large as one sample's columns (0.37 MB and 0.75 MB).
"""

from functools import reduce
from math import prod
from types import SimpleNamespace

import numpy as np

from ..errors import ParameterError

# kernel extent of every Conv axis
KERNEL = 3
# per spatial rank d: the axis orders that move the channel axis last and
# back, and that move it last in Conv's (in_ch, k^d, batch, *spatial) column
# gradient
CHANNELS_LAST = {d: (0, *range(2, 2 + d), 1) for d in (2, 3)}
CHANNELS_FIRST = {d: (0, 1 + d, *range(1, 1 + d)) for d in (2, 3)}
COLUMNS_LAST = {d: (*range(1, 3 + d), 0) for d in (2, 3)}
# and the 2^d strided slots [:, i0::2, i1::2(, i2::2)] of a pool, C order
POOL_SLOTS = {
    d: [(slice(None), *(slice(i, None, 2) for i in o)) for o in np.ndindex(*(2,) * d)]
    for d in (2, 3)
}


def he_uniform(rng, shape, fan_in):
    """Uniform init on [-b, b] with b = sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv:
    """Cross-correlation with fixed 3^d kernels, stride 1, zero same-padding.

    Weights are (out_ch, in_ch, 3, ..., 3); input (batch, in_ch, *spatial)
    keeps its spatial extents. They are He-uniform draws from ``rng``, or
    zeros without one, for a loader to fill.
    """

    def __init__(self, dim, in_channels, out_channels, rng=None):
        if dim not in (2, 3):
            raise ParameterError("convolution supports 2 or 3 spatial axes")
        self.dim = dim
        fan_in = in_channels * KERNEL**dim
        shape = (out_channels, in_channels) + (KERNEL,) * dim
        weight = np.zeros(shape) if rng is None else he_uniform(rng, shape, fan_in)
        self.params = [weight, np.zeros(out_channels)]
        self.grads = [np.zeros_like(p) for p in self.params]
        self._cols = None
        self._plans = {}  # input shape -> plan

    weight = property(lambda self: self.params[0])
    bias = property(lambda self: self.params[1])

    def _plan_for(self, shape):
        """The plan of input shape ``shape``, built on its first use.

        ``padded`` is the zero-bordered channels-last input's shape, and
        ``col2im`` pairs each window offset u with the input positions its
        columns reach, s + u - 1 clipped to the input.
        """
        if shape in self._plans:
            return self._plans[shape]
        d, p, spatial = self.dim, KERNEL // 2, shape[2:]
        padded = shape[:1] + tuple(n + 2 * p for n in spatial) + shape[1:2]
        col2im = []
        for u, offset in enumerate(np.ndindex(*(KERNEL,) * d)):
            shifts = [o - p for o in offset]
            to = [slice(max(t, 0), n + min(t, 0)) for t, n in zip(shifts, spatial)]
            at = [slice(max(-t, 0), n - max(t, 0)) for t, n in zip(shifts, spatial)]
            col2im.append(((slice(None), *to), (u, slice(None), *at)))
        plan = self._plans[shape] = SimpleNamespace(
            shape=shape,
            padded=padded,
            inner=(slice(None),) + tuple(slice(p, p + n) for n in spatial),
            windows=spatial + shape[1:2] + (KERNEL,) * d,
            col2im=col2im,
        )
        return plan

    def _columns(self, x, plan):
        """(batch * spatial, in_ch * k^d) windows of the zero-bordered input.

        The input is bordered channels-last, so the window view of one
        sample's flat positions already runs (*spatial, ch, *kernel). One
        gather by those positions copies every sample's windows; a copy
        through the window view itself would run in strided steps of k.
        """
        padded = np.zeros(plan.padded)
        padded[plan.inner] = x.transpose(CHANNELS_LAST[self.dim])
        positions = np.arange(prod(plan.padded[1:])).reshape(plan.padded[1:])
        # a window offset steps like the spatial axis it runs along
        strides = positions.strides + positions.strides[: self.dim]
        windows = np.ndarray(
            plan.windows, dtype=positions.dtype, buffer=positions, strides=strides
        )
        index = windows.reshape(prod(plan.shape[2:]), -1)
        cols = np.take(padded.reshape(len(x), -1), index, axis=1)
        return cols.reshape(-1, index.shape[1])

    def forward(self, x, train=False, rng=None):
        self._cols = None  # dead now: free it before the next one is made
        self._cols = self._columns(x, self._plan_for(x.shape))
        out = self._cols @ self.weight.reshape(self.bias.size, -1).T
        # the bias tiled over one sample adds in runs of spatial * out_ch, not
        # of out_ch (a view: out is a fresh C-order product)
        per_sample = out.reshape(len(x), -1)
        per_sample += np.tile(self.bias, prod(x.shape[2:]))
        # (batch, *spatial, out_ch) in memory, seen as (batch, out_ch, *spatial)
        out = out.reshape(x.shape[:1] + x.shape[2:] + (-1,))
        return out.transpose(CHANNELS_FIRST[self.dim])

    def backward(self, grad_out, input_grad=True):
        out_ch, in_ch = self.weight.shape[:2]
        batch, spatial = grad_out.shape[0], grad_out.shape[2:]
        # (out_ch, batch * spatial) in the column matrix's row order, copied C
        # order so the round-off does not depend on grad_out's memory order
        g = np.ascontiguousarray(grad_out.swapaxes(0, 1)).reshape(out_ch, -1)
        # bias: sums over space per sample, then a running sum over the batch
        per_sample = np.add.reduce(g.reshape(out_ch, batch, -1), axis=2).T.copy()
        np.add.reduce(per_sample, axis=0, out=self.grads[1])
        # dW[o, c, u] = sum_{b, s} grad[b, o, s] * x_pad[b, c, s + u]
        np.matmul(g, self._cols, out=self.grads[0].reshape(out_ch, -1))
        if not input_grad:
            return None
        # column gradient (k^d, batch, *spatial, in_ch): offset u's columns add
        # back, channels-last, onto the input at s + u - 1 (col2im)
        col_grad = (self.weight.reshape(out_ch, -1).T @ g).reshape(
            (in_ch, -1, batch) + spatial
        ).transpose(COLUMNS_LAST[self.dim])
        grad = np.zeros((batch,) + spatial + (in_ch,))
        for to, at in self._plans[(batch, in_ch) + spatial].col2im:
            grad[to] += col_grad[at]
        return grad.transpose(CHANNELS_FIRST[self.dim])

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

    def forward(self, x, train=False, rng=None):
        spatial = x.shape[2:]
        x = x.transpose(CHANNELS_LAST[self.dim])  # as a Conv output is in memory
        if any(n % 2 for n in spatial):
            pad = [(0, 0)] + [(0, n % 2) for n in spatial] + [(0, 0)]
            x = np.pad(x, pad, constant_values=-np.inf)
        out = reduce(np.maximum, [x[slot] for slot in POOL_SLOTS[self.dim]])
        self._cache = (x, out, spatial)
        return out.transpose(CHANNELS_FIRST[self.dim])

    def backward(self, grad_out):
        x, out, spatial = self._cache
        grad_out = grad_out.transpose(CHANNELS_LAST[self.dim])
        grad = np.empty(x.shape)
        # the first maximal slot in C order takes the gradient; `free` marks
        # the outputs that no earlier slot took
        free = np.ones(out.shape, dtype=bool)
        for slot in POOL_SLOTS[self.dim]:
            hit = (x[slot] == out) & free
            free ^= hit
            np.multiply(grad_out, hit, out=grad[slot])
        inner = tuple(map(slice, grad.shape[:1] + spatial))
        return grad[inner].transpose(CHANNELS_FIRST[self.dim])

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
    """Affine map on (batch, n_in) activations; weights as in :class:`Conv`."""

    def __init__(self, n_in, n_out, rng=None):
        shape = (n_in, n_out)
        weight = np.zeros(shape) if rng is None else he_uniform(rng, shape, n_in)
        self.params = [weight, np.zeros(n_out)]
        self.grads = [np.zeros_like(p) for p in self.params]
        self._x = None

    weight = property(lambda self: self.params[0])
    bias = property(lambda self: self.params[1])

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
