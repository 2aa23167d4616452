"""Effective tensors from local cell problems: anchors, bounds, structure."""

import numpy as np
import pytest

from poroscale.elasticity import (
    isotropic_stiffness,
    mandel_weights,
    n_strain_components,
    strain_component_pairs,
    unit_strain_tensor,
)
from poroscale.errors import ParameterError
from poroscale.fem import LUSolver, P1Space, constrain_system
from poroscale.grid import StructuredGrid
from poroscale.homogenize import (
    SOLVE_TOL,
    EffectiveTensors,
    PatchEngine,
    effective_elasticity,
    effective_permeability,
    extract_patches,
    homogenize_domain,
    patch_ratio,
)
from poroscale.random_field import PropertyFields


def test_constant_permeability_is_exact():
    space = P1Space(StructuredGrid((8, 8)))
    for c in (1.0, 3.7):
        kstar = effective_permeability(space, np.full(space.grid.n_nodes, c))
        assert np.allclose(kstar, c * np.eye(2), atol=1e-10)


def test_constant_permeability_is_exact_3d():
    space = P1Space(StructuredGrid((4, 4, 4)))
    kstar = effective_permeability(space, np.full(space.grid.n_nodes, 2.0))
    assert np.allclose(kstar, 2.0 * np.eye(3), atol=1e-10)


def test_constant_elasticity_matches_isotropic_matrix():
    space = P1Space(StructuredGrid((8, 8)))
    young = np.ones(space.grid.n_nodes)
    cstar = effective_elasticity(space, young, 0.25)
    # lam = 0.4, mu = 0.4: diag (1.2, 1.2, 2*mu), off-diagonal 0.4
    expected = isotropic_stiffness(1.0, 0.25, 2)
    assert expected[0, 0] == pytest.approx(1.2)
    assert expected[0, 1] == pytest.approx(0.4)
    assert expected[2, 2] == pytest.approx(0.8)
    assert np.allclose(cstar, expected, atol=1e-8)


def test_constant_elasticity_matches_isotropic_matrix_3d():
    space = P1Space(StructuredGrid((4, 4, 4)))
    young = np.ones(space.grid.n_nodes)
    cstar = effective_elasticity(space, young, 0.25)
    assert np.allclose(cstar, isotropic_stiffness(1.0, 0.25, 3), atol=1e-8)


def laminate_elements(grid, axis, values):
    """Per-element coefficient of equal-thickness layers along one axis."""
    centers = grid.node_coords[grid.elements].mean(axis=1)
    layer = np.minimum(
        (centers[:, axis] * len(values)).astype(int), len(values) - 1
    )
    return np.asarray(values, dtype=float)[layer]


def test_laminate_series_parallel_means():
    # thin alternating layers stacked along x2; the fixed boundary data
    # perturbs only a layer-thickness neighbourhood, so the series/parallel
    # means emerge as the layers refine
    def diag(n_layers):
        grid = StructuredGrid((128, 128))
        space = P1Space(grid)
        k_e = laminate_elements(grid, 1, [1.0, 4.0] * (n_layers // 2))
        kstar = effective_permeability(space, k_e, where="element")
        assert kstar[0, 0] == pytest.approx(2.5, rel=1e-10)  # parallel: exact
        assert abs(kstar[0, 1]) < 1e-12
        return kstar[1, 1]

    k22_coarse = diag(16)
    k22_fine = diag(64)
    assert abs(k22_fine - 1.6) < 0.01 * 1.6
    # boundary effect shrinks with layer thickness
    assert abs(k22_fine - 1.6) < abs(k22_coarse - 1.6)


def test_laminate_elasticity_between_averages():
    grid = StructuredGrid((32, 32))
    space = P1Space(grid)
    young_e = laminate_elements(grid, 0, [1.0, 5.0, 1.0, 5.0])
    cstar = effective_elasticity(space, young_e, 0.3, where="element")
    reuss = np.linalg.inv(
        0.5 * np.linalg.inv(isotropic_stiffness(1.0, 0.3, 2))
        + 0.5 * np.linalg.inv(isotropic_stiffness(5.0, 0.3, 2))
    )
    voigt = 0.5 * isotropic_stiffness(1.0, 0.3, 2) + 0.5 * isotropic_stiffness(
        5.0, 0.3, 2
    )
    eigs = np.linalg.eigvalsh(cstar)
    lo = np.linalg.eigvalsh(reuss).min()
    hi = np.linalg.eigvalsh(voigt).max()
    assert np.all(eigs >= lo * (1.0 - 1e-8))
    assert np.all(eigs <= hi * (1.0 + 1e-8))


@pytest.mark.parametrize("trial", range(8))
def test_lognormal_patch_bounds(trial):
    rng = np.random.default_rng(100 + trial)
    grid = StructuredGrid((8, 8))
    space = P1Space(grid)
    k = np.exp(rng.normal(0.0, np.sqrt(2.0), size=grid.n_nodes))
    kstar, asym = effective_permeability(space, k, with_asymmetry=True)
    assert asym <= 1e-8 * np.abs(kstar).max()
    k_e = space.element_values(k)
    harmonic = 1.0 / np.mean(1.0 / k_e)
    arithmetic = np.mean(k_e)
    eigs = np.linalg.eigvalsh(kstar)
    assert eigs.min() >= harmonic * (1.0 - 1e-6)
    assert eigs.max() <= arithmetic * (1.0 + 1e-6)


@pytest.mark.parametrize("trial", range(4))
def test_lognormal_patch_bounds_3d(trial):
    rng = np.random.default_rng(200 + trial)
    grid = StructuredGrid((4, 4, 4))
    space = P1Space(grid)
    k = np.exp(rng.normal(0.0, 1.0, size=grid.n_nodes))
    kstar = effective_permeability(space, k)
    k_e = space.element_values(k)
    eigs = np.linalg.eigvalsh(kstar)
    assert eigs.min() >= (1.0 / np.mean(1.0 / k_e)) * (1.0 - 1e-6)
    assert eigs.max() <= np.mean(k_e) * (1.0 + 1e-6)


def test_elasticity_symmetry_and_spd():
    rng = np.random.default_rng(7)
    grid = StructuredGrid((6, 6))
    space = P1Space(grid)
    young = np.exp(rng.normal(0.0, 0.8, size=grid.n_nodes)) + 0.5
    cstar, asym = effective_elasticity(space, young, 0.3, with_asymmetry=True)
    assert asym <= 1e-8 * np.abs(cstar).max()
    assert np.allclose(cstar, cstar.T, atol=1e-12)
    assert np.linalg.eigvalsh(cstar).min() > 0.0


def test_permeability_linearity():
    rng = np.random.default_rng(9)
    grid = StructuredGrid((6, 6))
    space = P1Space(grid)
    k = np.exp(rng.normal(size=grid.n_nodes))
    a = effective_permeability(space, k)
    b = effective_permeability(space, 3.0 * k)
    assert np.allclose(b, 3.0 * a, atol=1e-10)


def test_patch_ratio_validation():
    fine = StructuredGrid((16, 16))
    assert patch_ratio(fine, (4, 4)) == 4
    with pytest.raises(ParameterError):
        patch_ratio(fine, (5, 5))
    with pytest.raises(ParameterError):
        patch_ratio(fine, (4, 2))
    with pytest.raises(ParameterError):
        patch_ratio(StructuredGrid((16, 8)), (4, 4))
    with pytest.raises(ParameterError):
        patch_ratio(fine, (4, 4, 4))


def test_extract_patches_windows():
    fine = StructuredGrid((8, 8))
    rng = np.random.default_rng(21)
    perm = rng.uniform(0.5, 2.0, size=fine.n_nodes)
    young = rng.uniform(5.0, 15.0, size=fine.n_nodes)
    fields = PropertyFields(perm=perm, young=young, eta=0.3)
    patch_grid, patches = extract_patches(fine, (2, 2), fields)
    assert patch_grid.cells_per_axis == (4, 4)
    assert len(patches) == 4
    assert [p.cell_index for p in patches] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    grid_vals = perm.reshape(9, 9)
    assert np.allclose(patches[1].perm, grid_vals[0:5, 4:9].ravel())
    assert np.allclose(patches[2].perm, grid_vals[4:9, 0:5].ravel())
    assert patches[0].eta == 0.3


def test_homogenize_domain_thread_invariance():
    fine = StructuredGrid((16, 16))
    rng = np.random.default_rng(33)
    fields = PropertyFields(
        perm=np.exp(rng.normal(size=fine.n_nodes)),
        young=rng.uniform(5.0, 15.0, size=fine.n_nodes),
        eta=0.3,
    )
    serial = homogenize_domain(fine, (4, 4), fields, threads=1)
    pooled = homogenize_domain(fine, (4, 4), fields, threads=4)
    assert serial.n_cells == 16
    assert np.array_equal(serial.perm, pooled.perm)
    assert np.array_equal(serial.stiffness, pooled.stiffness)


def test_homogenize_domain_reuses_engine():
    fine = StructuredGrid((8, 8))
    rng = np.random.default_rng(35)
    fields = PropertyFields(
        perm=np.exp(rng.normal(size=fine.n_nodes)),
        young=rng.uniform(5.0, 15.0, size=fine.n_nodes),
        eta=0.3,
    )
    engine = PatchEngine(StructuredGrid((4, 4)))
    fresh = homogenize_domain(fine, (2, 2), fields)
    shared = homogenize_domain(fine, (2, 2), fields, engine=engine)
    assert np.array_equal(fresh.perm, shared.perm)
    assert np.array_equal(fresh.stiffness, shared.stiffness)
    assert engine.diffusion.factor_fill > 0
    assert engine.elasticity(0.3).factor_fill > 0
    with pytest.raises(ParameterError):
        homogenize_domain(fine, (4, 4), fields, engine=engine)


def test_homogenized_constant_field_all_cells_equal():
    fine = StructuredGrid((12, 12))
    fields = PropertyFields(
        perm=np.full(fine.n_nodes, 2.0),
        young=np.full(fine.n_nodes, 1.0),
        eta=0.25,
    )
    eff = homogenize_domain(fine, (3, 3), fields)
    for i in range(eff.n_cells):
        assert np.allclose(eff.perm[i], 2.0 * np.eye(2), atol=1e-10)
        assert np.allclose(
            eff.stiffness[i], isotropic_stiffness(1.0, 0.25, 2), atol=1e-8
        )


def reference_permeability(space, k, where):
    """Flux-averaged k* from full assembly and row/column elimination."""
    grid = space.grid
    A = space.assemble_diffusion(k, where=where)
    bnodes = grid.all_boundary_nodes()
    psi = np.empty((grid.n_nodes, grid.dimension))
    for j in range(grid.dimension):
        reduced, fold = constrain_system(A, bnodes, grid.node_coords[bnodes, j])
        psi[:, j] = LUSolver(reduced, SOLVE_TOL).solve(fold(np.zeros(grid.n_nodes)))
    grads = space.class_gradients[grid.element_class]
    gpsi = np.einsum("eia,eil->eal", grads, psi[grid.elements])
    k_e = space.element_values(k, where=where)
    raw = np.einsum("e,ejl->lj", k_e, gpsi) / grid.elements.shape[0]
    return 0.5 * (raw + raw.T)


def reference_elasticity(space, young, eta, where):
    """Energy Gram matrix C* from full assembly and row/column elimination."""
    grid = space.grid
    d = grid.dimension
    C_e = isotropic_stiffness(space.element_values(young, where=where), eta, d)
    A = space.assemble_elasticity(C_e)
    bnodes = grid.all_boundary_nodes()
    vdofs = (bnodes[:, None] * d + np.arange(d)).reshape(-1)
    pairs = strain_component_pairs(d)
    phi = np.empty((grid.n_nodes * d, len(pairs)))
    for I, pair in enumerate(pairs):
        values = (grid.node_coords[bnodes] @ unit_strain_tensor(pair, d).T).ravel()
        reduced, fold = constrain_system(A, vdofs, values)
        phi[:, I] = LUSolver(reduced, SOLVE_TOL).solve(fold(np.zeros(A.shape[0])))
    w = mandel_weights(d)
    raw = np.outer(w, w) * (phi.T @ (A @ phi))  # the unit cube has volume 1
    return 0.5 * (raw + raw.T)


@pytest.mark.parametrize("where", ["node", "element"])
@pytest.mark.parametrize("kind", ["lognormal", "affine"])
@pytest.mark.parametrize("cells", [(8, 8), (4, 4, 4)])
def test_engine_matches_full_assembly_reference(cells, kind, where):
    grid = StructuredGrid(cells)
    space = P1Space(grid)
    rng = np.random.default_rng(47)
    n = grid.n_nodes if where == "node" else grid.elements.shape[0]
    z = rng.normal(size=n)
    coeff = np.exp(1.4 * z) if kind == "lognormal" else 10.0 + 2.0 * np.clip(z, -4, 4)
    engine = PatchEngine(grid)
    for got, ref in (
        (
            effective_permeability(engine, coeff, where=where),
            reference_permeability(space, coeff, where),
        ),
        (
            effective_elasticity(engine, coeff, 0.3, where=where),
            reference_elasticity(space, coeff, 0.3, where),
        ),
    ):
        assert np.abs(got - ref).max() <= 10.0 * SOLVE_TOL * np.abs(ref).max()


@pytest.mark.parametrize("cells", [(6, 6), (3, 3, 3)])
def test_engine_reuse_is_bit_identical(cells):
    grid = StructuredGrid(cells)
    rng = np.random.default_rng(53)
    perms = np.exp(rng.normal(size=(4, grid.n_nodes)))
    youngs = rng.uniform(5.0, 15.0, size=(4, grid.n_nodes))

    def tensors(engine, i):
        return (
            effective_permeability(engine, perms[i]),
            effective_elasticity(engine, youngs[i], 0.3),
        )

    shared = PatchEngine(grid)
    for i in range(3):
        tensors(shared, i)
    for after, alone in zip(tensors(shared, 3), tensors(PatchEngine(grid), 3)):
        assert np.array_equal(after, alone)
