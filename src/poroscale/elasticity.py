"""Isotropic elasticity and the symmetric matrix form of stiffness tensors.

Stiffness tensors are stored as symmetric matrices over the strain
components ordered (11, 22, 12) in 2D and (11, 22, 33, 12, 23, 31) in 3D.
The shear rows/columns carry a factor sqrt(2) relative to raw 4th-order
tensor components (Mandel weighting), which keeps the matrix symmetric,
makes its eigenvalues those of the underlying tensor, and puts 2*mu on the
shear diagonal of an isotropic medium:

    2D:  [[lam+2mu, lam,     0   ],
          [lam,     lam+2mu, 0   ],
          [0,       0,       2*mu]]

The strain-energy density then reads ``e_m . C e_m`` with the Mandel strain
vector ``e_m = (e11, e22, sqrt(2) e12)`` (tensorial shear, e12 = (du1/dx2 +
du2/dx1)/2), and assembly uses the same weighting throughout.
"""

import numpy as np

from .errors import ParameterError

SQRT2 = float(np.sqrt(2.0))


def n_strain_components(d):
    return d * (d + 1) // 2


def strain_component_pairs(d):
    """Index pairs of the strain components in storage order."""
    if d == 2:
        return ((0, 0), (1, 1), (0, 1))
    return ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0))


def mandel_weights(d):
    w = np.ones(n_strain_components(d))
    w[d:] = SQRT2
    return w


def lame_parameters(E, eta):
    """Lamé (mu, lam) from Young's modulus and Poisson's ratio."""
    if not 0.0 < eta < 0.5:
        raise ParameterError(f"Poisson ratio must lie in (0, 0.5), got {eta}")
    E = np.asarray(E, dtype=float)
    if not np.all(np.isfinite(E) & (E > 0.0)):
        raise ParameterError("Young's modulus must be finite and positive everywhere")
    mu = E / (2.0 * (1.0 + eta))
    lam = E * eta / ((1.0 + eta) * (1.0 - 2.0 * eta))
    return mu, lam


def isotropic_stiffness(E, eta, d):
    """Stiffness matrix (Mandel form) of an isotropic medium of modulus ``E``.

    The matrix is linear in ``E``: a varying modulus scales the one of 1.
    """
    mu, lam = lame_parameters(float(E), eta)
    C = np.diag(np.full(n_strain_components(d), 2.0 * mu))
    C[:d, :d] += lam
    return C


def unit_strain_tensor(pair, d):
    """Symmetrized unit strain Lambda for one component pair (r, s)."""
    r, s = pair
    lam = np.zeros((d, d))
    lam[r, s] += 0.5
    lam[s, r] += 0.5
    return lam


def upper_triangle(matrix):
    """Row-major upper triangle of a symmetric matrix, flattened."""
    matrix = np.asarray(matrix, dtype=float)
    m = matrix.shape[-1]
    iu = np.triu_indices(m)
    return matrix[..., iu[0], iu[1]]


def from_upper_triangle(values, m):
    """Inverse of :func:`upper_triangle`."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape[:-1] + (m, m))
    iu = np.triu_indices(m)
    out[..., iu[0], iu[1]] = values
    out[..., iu[1], iu[0]] = values
    return out
