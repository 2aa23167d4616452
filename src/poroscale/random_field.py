"""Truncated Karhunen-Loeve sampling of Gaussian fields on grid nodes.

The covariance is separable squared-exponential,

    cov(x, y) = sigma2 * prod_i exp(-(x_i - y_i)^2 / (2 * l2_i)),

so its node covariance matrix is a Kronecker product of small per-axis
matrices. Eigenpairs of the full matrix are products of per-axis eigenpairs,
which keeps the decomposition exact and cheap: only one dense symmetric
eigensolve per axis is needed. The series is truncated at a prescribed
fraction of the total variance (energy), with a hard cap on the number of
retained terms.

Fields are sampled as Y = sum_k sqrt(lambda_k) * nu_k * phi_k with iid
standard normal nu drawn from a seeded generator, so realizations are
reproducible bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# relative eigenvalue floor: product eigenvalues below this times the largest
# one are numerical noise from the per-axis eigensolves and are discarded
EIGENVALUE_FLOOR = 1e-12

DEFAULT_ENERGY_FRACTION = 0.95
DEFAULT_MAX_TERMS = 512


@dataclass(frozen=True)
class CovarianceSpec:
    """Separable squared-exponential covariance on the unit cube.

    ``length_sq`` holds the squared correlation length per axis.
    """

    sigma2: float
    length_sq: tuple
    energy_fraction: float = DEFAULT_ENERGY_FRACTION
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        object.__setattr__(self, "length_sq", tuple(float(l) for l in self.length_sq))
        if self.sigma2 <= 0.0:
            raise ParameterError(f"variance must be positive, got {self.sigma2}")
        if not self.length_sq or any(l <= 0.0 for l in self.length_sq):
            raise ParameterError("squared correlation lengths must be positive")
        if not 0.0 < self.energy_fraction <= 1.0:
            raise ParameterError("energy fraction must lie in (0, 1]")
        if self.max_terms < 1:
            raise ParameterError("at least one term must be retained")


def axis_covariance_eig(coords, length_sq):
    """Eigenpairs of the unit-variance 1D squared-exponential covariance.

    Returns ``(values, vectors)`` sorted by descending eigenvalue, with
    orthonormal columns in ``vectors``. :func:`build_kl_basis` applies the
    variance to the product eigenvalues.
    """
    coords = np.asarray(coords, dtype=float)
    diff = coords[:, None] - coords[None, :]
    cov = np.exp(-(diff**2) / (2.0 * length_sq))
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


@dataclass
class KLBasis:
    """Truncated eigenbasis of the node covariance matrix.

    ``modes`` rows are Euclidean-orthonormal node vectors; ``eigenvalues``
    is descending. ``total_energy`` is the trace of the untruncated
    covariance matrix, so ``eigenvalues.sum() / total_energy`` is the
    captured variance fraction.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    total_energy: float

    @property
    def n_terms(self):
        return self.eigenvalues.shape[0]

    @property
    def captured_fraction(self):
        return float(self.eigenvalues.sum() / self.total_energy)


def build_kl_basis(grid, spec):
    """Truncated KL basis for node values of a field on ``grid``."""
    d = grid.dimension
    if len(spec.length_sq) != d:
        raise ParameterError(
            f"covariance has {len(spec.length_sq)} axes, grid has {d}"
        )
    shape = grid.node_shape
    axis_vals = []
    axis_vecs = []
    for i in range(d):
        coords = np.arange(shape[i]) * grid.spacing[i]
        vals, vecs = axis_covariance_eig(coords, spec.length_sq[i])
        # tiny negative values are eigensolver noise on a PSD matrix
        axis_vals.append(np.maximum(vals, 0.0))
        axis_vecs.append(vecs)

    # product eigenvalues over all index combinations, variance folded in once
    lam = spec.sigma2 * np.ones(1)
    for vals in axis_vals:
        lam = np.multiply.outer(lam, vals)
    lam = lam.reshape(-1)
    total = float(spec.sigma2 * np.prod([v.sum() for v in axis_vals]))

    order = np.argsort(lam)[::-1]
    lam = lam[order]
    keep = lam >= EIGENVALUE_FLOOR * lam[0]
    lam, order = lam[keep], order[keep]

    cumulative = np.cumsum(lam)
    n = int(np.searchsorted(cumulative, spec.energy_fraction * total) + 1)
    n = min(n, lam.size, spec.max_terms)
    lam, order = lam[:n], order[:n]

    # mode k is the outer product of one eigenvector per axis, left to right
    modes = np.ones((n, 1))
    for vecs, index in zip(axis_vecs, np.unravel_index(order, tuple(shape))):
        modes = (modes[:, :, None] * vecs[:, index].T[:, None, :]).reshape(n, -1)
    return KLBasis(
        eigenvalues=lam,
        modes=modes,
        total_energy=total,
    )


def sample_field(basis, seed):
    """One Gaussian realization on the nodes, (n_nodes,).

    ``seed`` may be an int or a sequence of ints; equal seeds give equal
    fields bit for bit.
    """
    rng = np.random.default_rng(seed)
    nu = rng.standard_normal(basis.n_terms)
    return (np.sqrt(basis.eigenvalues) * nu) @ basis.modes


@dataclass(frozen=True)
class PropertyParams:
    """Maps a Gaussian field to material properties.

    Permeability is lognormal, k = exp(Y). Young's modulus is a shifted
    copy, E = mean_young + young_slope * Y, clamped below at a small
    positive floor so the stiffness stays physical; Poisson's ratio is
    uniform.
    """

    mean_young: float = 10.0
    young_slope: float = 1.0
    eta: float = 0.3
    floor_ratio: float = 1e-3

    def __post_init__(self):
        if self.mean_young <= 0.0:
            raise ParameterError("mean Young's modulus must be positive")
        if not 0.0 < self.eta < 0.5:
            raise ParameterError("Poisson ratio must lie in (0, 0.5)")


@dataclass
class PropertyFields:
    """Nodal material properties derived from one realization."""

    perm: np.ndarray
    young: np.ndarray
    eta: float


def field_to_properties(values, params=PropertyParams()):
    values = np.asarray(values, dtype=float)
    perm = np.exp(values)
    young = params.mean_young + params.young_slope * values
    young = np.maximum(young, params.floor_ratio * params.mean_young)
    return PropertyFields(perm=perm, young=young, eta=params.eta)
