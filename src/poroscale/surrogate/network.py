"""Network assembly, Adam updates, and the model directory.

Architectures are feed-forward stacks built from the layers module. The
patch regressors pair convolution/pool blocks with a dense head:

    2D: 4 blocks with 8, 16, 32, 64 filters
    3D: 2 blocks with 16, 32 filters

each block being Conv(3^d, same) -> MaxPool(2^d, stride 2) -> ReLU, then
Flatten -> Dense(512) -> Dropout -> Dense(n_out). ReLU after the pool
gives the values and gradients of ReLU before it, since max commutes
with a monotone map, and touches 2^-d of the entries.

A ``Network`` holds every parameter in one flat float64 vector,
``flat_params``, and every gradient in another, ``flat_grads``, both in
layer order; each layer's ``params`` and ``grads`` are views of them. Adam
keeps its two moments as flat vectors of the same length and updates all
four in ``ADAM_BLOCK`` slices.

A saved model is a directory of NHAR array files
(:mod:`poroscale.arrayio`): the arguments of :func:`build_network` and
the weights it holds.

    architecture.nhar  (4,)  dim, patch, n_out, dropout
    weights.nhar       (P,)  ``flat_params``

Loading rebuilds the network from ``architecture.nhar`` with zero
weights, drawing none, and fills its ``flat_params``, so only networks
that ``build_network`` made can be saved. Optimizer state and the
initialization seed are not stored.
"""

import numpy as np

from ..arrayio import read_member, write_members
from ..errors import FormatError, ParameterError
from .layers import Conv, Dense, Dropout, Flatten, MaxPool, ReLU

HIDDEN_WIDTH = 512
FILTERS_2D = (8, 16, 32, 64)
FILTERS_3D = (16, 32)
DEFAULT_DROPOUT = 0.1
# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
ADAM_BLOCK = 16384  # elements per in-place update block, 128 kB of float64
# samples per forward pass of Network.predict
INFERENCE_CHUNK = 64


class Network:
    """Ordered layer stack with shared forward/backward plumbing.

    ``architecture`` holds the ``(dim, patch, n_out, dropout)`` arguments
    of :func:`build_network` for the networks it made, else ``None``.
    """

    def __init__(self, layers, architecture=None):
        self.layers = list(layers)
        self.architecture = architecture
        ends = np.cumsum([0] + [p.size for p in self.params])
        # zeros made first take fresh pages, which stay out of the resident
        # set until a backward pass writes them; made after the copy, they
        # would reuse memory it freed
        self.flat_grads = np.zeros(ends[-1])
        self.flat_params = np.concatenate(
            [np.empty(0)] + [p.ravel() for p in self.params]
        )
        spans = iter(zip(ends[:-1], ends[1:]))
        for layer in self.layers:
            parts = [(slice(*next(spans)), p.shape) for p in layer.params]
            if parts:
                layer.params = [self.flat_params[s].reshape(n) for s, n in parts]
                layer.grads = [self.flat_grads[s].reshape(n) for s, n in parts]

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
    """Patch regressor for d-dimensional inputs of extent ``patch``.

    Weights are He-uniform draws seeded by ``seed``; ``seed=None`` leaves
    them zero, for :func:`load_network` to fill.
    """
    if dim == 2:
        filters = FILTERS_2D
    elif dim == 3:
        filters = FILTERS_3D
    else:
        raise ParameterError("architecture is defined for 2 or 3 dimensions")
    if patch < 1:
        raise ParameterError("patch extent must be positive")
    if n_out < 1:
        raise ParameterError("output count must be positive")
    rng = None if seed is None else np.random.default_rng(seed)
    layers = []
    in_ch = 1
    for out_ch in filters:
        layers += [Conv(dim, in_ch, out_ch, rng=rng), MaxPool(dim), ReLU()]
        in_ch = out_ch
    flat = filters[-1] * pooled_extent(patch, len(filters)) ** dim
    layers += [
        Flatten(),
        Dense(flat, HIDDEN_WIDTH, rng=rng),
        Dropout(dropout),
        Dense(HIDDEN_WIDTH, n_out, rng=rng),
    ]
    return Network(layers, architecture=(dim, patch, n_out, dropout))


class Adam:
    """Bias-corrected first/second-moment updates applied in place.

    The moments are flat vectors beside the network's ``flat_params`` and
    ``flat_grads``. A step runs over ``ADAM_BLOCK`` slices of all four
    through two scratch blocks, in the unblocked update's order of
    operations, with no full-size temporaries.
    """

    def __init__(self, network, learning_rate):
        if not learning_rate > 0:
            raise ParameterError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.first = np.zeros_like(network.flat_params)
        self.second = np.zeros_like(network.flat_params)
        self.step_count = 0
        flat = (network.flat_params, network.flat_grads, self.first, self.second)
        scratch = np.empty((2, ADAM_BLOCK))
        self._blocks = []  # views (param, grad, m, v, scratch, scratch)
        for s in range(0, self.first.size, ADAM_BLOCK):
            block = [a[s : s + ADAM_BLOCK] for a in flat]
            self._blocks.append(block + list(scratch[:, : block[0].size]))

    def step(self):
        self.step_count += 1
        correct1 = 1.0 - ADAM_BETA1**self.step_count
        correct2 = 1.0 - ADAM_BETA2**self.step_count
        for p, g, m, v, t, u in self._blocks:
            m *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, g, t)
            m += t
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, t)
            t *= g
            v += t
            np.divide(v, correct2, t)
            np.sqrt(t, t)
            t += ADAM_EPSILON
            np.divide(m, correct1, u)
            u *= self.learning_rate
            u /= t
            p -= u


def save_network(network, path):
    """Write ``architecture.nhar`` and ``weights.nhar`` into the directory ``path``."""
    if network.architecture is None:
        raise ParameterError(
            f"cannot save {network!r}: only networks made by build_network are stored"
        )
    members = {
        "architecture": network.architecture,
        "weights": network.flat_params,
    }
    write_members(path, members)


def load_network(path):
    """Rebuild the network stored in the directory ``path``."""
    arch = read_member(path, "architecture")
    weights = read_member(path, "weights")
    if arch.shape != (4,) or not np.isfinite(arch).all() or (arch[:3] % 1).any():
        raise FormatError(
            f"{path}: model member architecture.nhar must hold integral dim, "
            f"patch and n_out, then dropout, as shape (4,); got shape {arch.shape}"
            f" and values {arch.ravel()[:4].tolist()}"
        )
    dim, patch, n_out = (int(v) for v in arch[:3])
    try:
        network = build_network(dim, patch, n_out, dropout=float(arch[3]), seed=None)
    except ParameterError as exc:
        raise FormatError(f"{path}: model member architecture.nhar: {exc}") from None
    if weights.shape != network.flat_params.shape:
        raise FormatError(
            f"{path}: model member weights.nhar has shape {weights.shape}, "
            f"expected {network.flat_params.shape} for the architecture {arch.tolist()}"
        )
    if not np.isfinite(weights).all():
        raise FormatError(f"{path}: model member weights.nhar is not finite")
    network.flat_params[...] = weights
    return network
