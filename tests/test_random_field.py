"""Truncated eigenexpansion of the node covariance and property mapping."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from poroscale.errors import ParameterError
from poroscale.grid import StructuredGrid
from poroscale.random_field import (
    CovarianceSpec,
    PropertyParams,
    axis_covariance_eig,
    build_kl_basis,
    field_to_properties,
    sample_field,
)


def dense_covariance(grid, spec):
    coords = grid.node_coords
    cov = np.full((grid.n_nodes, grid.n_nodes), float(spec.sigma2))
    for i, l2 in enumerate(spec.length_sq):
        diff = coords[:, i][:, None] - coords[:, i][None, :]
        cov *= np.exp(-(diff**2) / (2.0 * l2))
    return cov


def reference_modes(grid, spec, n):
    """The first ``n`` KL modes by the earlier per-dimension einsum forms."""
    shape = grid.node_shape
    vals, vecs = zip(
        *(
            axis_covariance_eig(np.arange(k) * h, l2)
            for k, h, l2 in zip(shape, grid.spacing, spec.length_sq)
        )
    )
    lam = spec.sigma2 * np.ones(1)
    for v in vals:
        lam = np.multiply.outer(lam, np.maximum(v, 0.0))
    order = np.argsort(lam.reshape(-1))[::-1][:n]
    multi = np.unravel_index(order, shape)
    if grid.dimension == 2:
        modes = np.einsum("ak,bk->kab", vecs[0][:, multi[0]], vecs[1][:, multi[1]])
    else:
        modes = np.einsum(
            "ak,bk,ck->kabc",
            vecs[0][:, multi[0]],
            vecs[1][:, multi[1]],
            vecs[2][:, multi[2]],
        )
    return modes.reshape(n, -1)


@pytest.mark.parametrize(
    "cells,length_sq",
    [
        ((9, 9), (0.1, 0.2)),
        ((17, 33), (0.05, 0.3)),
        ((5, 6, 7), (0.1, 0.2, 0.3)),
        ((13, 13, 13), (0.1, 0.1, 0.1)),
    ],
)
def test_modes_equal_the_per_dimension_einsum_bit_for_bit(cells, length_sq):
    grid = StructuredGrid(cells)
    spec = CovarianceSpec(sigma2=1.5, length_sq=length_sq, energy_fraction=0.99)
    basis = build_kl_basis(grid, spec)
    assert basis.n_terms > 1
    assert_array_equal(basis.modes, reference_modes(grid, spec, basis.n_terms))


def test_axis_two_node_limits():
    coords = np.array([0.0, 1.0])
    vals, _ = axis_covariance_eig(coords, 1e12)
    assert np.allclose(vals, [2.0, 0.0], atol=1e-6)
    vals, _ = axis_covariance_eig(coords, 1e-12)
    assert np.allclose(vals, [1.0, 1.0], atol=1e-12)


def test_axis_eigendecomposition_consistency():
    coords = np.linspace(0.0, 1.0, 9)
    vals, vecs = axis_covariance_eig(coords, 0.3)
    diff = coords[:, None] - coords[None, :]
    cov = np.exp(-(diff**2) / 0.6)
    assert np.allclose(cov @ vecs, vecs * vals, atol=1e-10)
    assert np.allclose(vecs.T @ vecs, np.eye(9), atol=1e-10)
    assert np.all(np.diff(vals) <= 1e-12)


@pytest.mark.parametrize("cells", [(8, 8), (4, 6)])
def test_separable_matches_dense_eigensolve(cells):
    grid = StructuredGrid(cells)
    spec = CovarianceSpec(sigma2=2.0, length_sq=(0.2, 0.2), energy_fraction=1.0)
    basis = build_kl_basis(grid, spec)
    dense_vals = np.linalg.eigvalsh(dense_covariance(grid, spec))[::-1]
    n = basis.n_terms
    assert np.allclose(basis.eigenvalues, dense_vals[:n], atol=1e-8)
    # retained modes are eigenvectors of the dense matrix
    cov = dense_covariance(grid, spec)
    for k in range(min(n, 20)):
        phi = basis.modes[k]
        assert np.allclose(cov @ phi, basis.eigenvalues[k] * phi, atol=1e-8)


def test_full_basis_reconstructs_covariance():
    grid = StructuredGrid((5, 5))
    spec = CovarianceSpec(sigma2=1.5, length_sq=(0.3, 0.1), energy_fraction=1.0)
    basis = build_kl_basis(grid, spec)
    recon = (basis.modes.T * basis.eigenvalues) @ basis.modes
    # eigenvalue floor drops only mass below 1e-12 * lambda_1
    assert np.allclose(recon, dense_covariance(grid, spec), atol=1e-9)


def test_mode_orthonormality_and_ordering():
    grid = StructuredGrid((8, 8))
    basis = build_kl_basis(grid, CovarianceSpec(2.0, (0.2, 0.2)))
    gram = basis.modes @ basis.modes.T
    assert np.allclose(gram, np.eye(basis.n_terms), atol=1e-10)
    assert np.all(np.diff(basis.eigenvalues) <= 1e-12)
    assert np.all(basis.eigenvalues >= 0.0)


def test_truncation_energy_fraction():
    grid = StructuredGrid((10, 10))
    for ef in (0.5, 0.9, 0.99):
        basis = build_kl_basis(grid, CovarianceSpec(2.0, (0.2, 0.2), ef))
        assert basis.captured_fraction >= ef
        # one mode fewer would fall short
        below = basis.eigenvalues[:-1].sum() / basis.total_energy
        assert below < ef


def test_max_terms_cap():
    grid = StructuredGrid((12, 12))
    spec = CovarianceSpec(1.0, (0.01, 0.01), energy_fraction=1.0, max_terms=7)
    basis = build_kl_basis(grid, spec)
    assert basis.n_terms == 7


def test_sampling_determinism():
    grid = StructuredGrid((6, 6))
    basis = build_kl_basis(grid, CovarianceSpec(2.0, (0.2, 0.2)))
    a = sample_field(basis, (2026, 4))
    b = sample_field(basis, (2026, 4))
    c = sample_field(basis, (2026, 5))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_statistics_match_truncated_covariance():
    grid = StructuredGrid((6, 6))
    basis = build_kl_basis(grid, CovarianceSpec(2.0, (0.2, 0.2), 0.95))
    n_samples = 3000
    fields = np.stack([sample_field(basis, (7, i)) for i in range(n_samples)])
    target_var = np.einsum("k,kn->n", basis.eigenvalues, basis.modes**2)
    sample_var = fields.var(axis=0)
    assert np.abs(fields.mean()) < 0.05
    assert np.all(np.abs(sample_var - target_var) <= 0.10 * target_var)


def test_three_dimensional_basis():
    grid = StructuredGrid((4, 4, 4))
    spec = CovarianceSpec(2.0, (0.2, 0.2, 0.2), energy_fraction=1.0)
    basis = build_kl_basis(grid, spec)
    dense_vals = np.linalg.eigvalsh(dense_covariance(grid, spec))[::-1]
    assert np.allclose(basis.eigenvalues, dense_vals[: basis.n_terms], atol=1e-8)


def test_property_mapping():
    rng = np.random.default_rng(13)
    y = rng.normal(scale=3.0, size=200)
    fields = field_to_properties(y, PropertyParams())
    assert np.allclose(fields.perm, np.exp(y))
    assert np.all(fields.perm > 0.0)
    assert np.all(fields.young >= 1e-3 * 10.0)
    untouched = 10.0 + y >= 1e-2
    assert np.allclose(fields.young[untouched], (10.0 + y)[untouched])
    assert fields.eta == 0.3


def test_parameter_validation():
    with pytest.raises(ParameterError):
        CovarianceSpec(-1.0, (0.2, 0.2))
    with pytest.raises(ParameterError):
        CovarianceSpec(1.0, (0.2, -0.2))
    with pytest.raises(ParameterError):
        CovarianceSpec(1.0, (0.2, 0.2), energy_fraction=0.0)
    with pytest.raises(ParameterError):
        PropertyParams(eta=0.5)
    grid = StructuredGrid((4, 4))
    with pytest.raises(ParameterError):
        build_kl_basis(grid, CovarianceSpec(1.0, (0.2, 0.2, 0.2)))
