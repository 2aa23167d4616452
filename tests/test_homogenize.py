"""Effective tensors from local cell problems: anchors, bounds, structure."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from poroscale.elasticity import (
    isotropic_stiffness,
    mandel_weights,
    n_strain_components,
    strain_component_pairs,
    unit_strain_tensor,
)
from poroscale.errors import NumericError, ParameterError
from poroscale.fem import SOLVE_TOL, DirichletSystem, LUSolver, P1Space
from poroscale.grid import StructuredGrid
from poroscale.homogenize import (
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
    engine = PatchEngine(StructuredGrid((8, 8)), 0.3)
    for c in (1.0, 3.7):
        kstar = effective_permeability(engine, np.full(engine.grid.n_nodes, c))
        assert np.allclose(kstar, c * np.eye(2), atol=1e-10)


def test_constant_permeability_is_exact_3d():
    engine = PatchEngine(StructuredGrid((4, 4, 4)), 0.3)
    kstar = effective_permeability(engine, np.full(engine.grid.n_nodes, 2.0))
    assert np.allclose(kstar, 2.0 * np.eye(3), atol=1e-10)


def test_constant_elasticity_matches_isotropic_matrix():
    engine = PatchEngine(StructuredGrid((8, 8)), 0.25)
    young = np.ones(engine.grid.n_nodes)
    cstar = effective_elasticity(engine, young)
    # lam = 0.4, mu = 0.4: diag (1.2, 1.2, 2*mu), off-diagonal 0.4
    expected = isotropic_stiffness(1.0, 0.25, 2)
    assert expected[0, 0] == pytest.approx(1.2)
    assert expected[0, 1] == pytest.approx(0.4)
    assert expected[2, 2] == pytest.approx(0.8)
    assert np.allclose(cstar, expected, atol=1e-8)


def test_constant_elasticity_matches_isotropic_matrix_3d():
    engine = PatchEngine(StructuredGrid((4, 4, 4)), 0.25)
    young = np.ones(engine.grid.n_nodes)
    cstar = effective_elasticity(engine, young)
    assert np.allclose(cstar, isotropic_stiffness(1.0, 0.25, 3), atol=1e-8)


def laminate_elements(grid, axis, values):
    """Per-element coefficient of equal-thickness layers along one axis."""
    centers = grid.node_coords[grid.elements].mean(axis=1)
    layer = np.minimum(
        (centers[:, axis] * len(values)).astype(int), len(values) - 1
    )
    return np.asarray(values, dtype=float)[layer]


def symmetrized(raw):
    return 0.5 * (raw + raw.T)


def test_laminate_series_parallel_means():
    # thin alternating layers stacked along x2; the fixed boundary data
    # perturbs only a layer-thickness neighbourhood, so the series/parallel
    # means emerge as the layers refine
    def diag(n_layers):
        grid = StructuredGrid((128, 128))
        k_e = laminate_elements(grid, 1, [1.0, 4.0] * (n_layers // 2))
        kstar = symmetrized(PatchEngine(grid, 0.3).permeability(k_e))
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
    young_e = laminate_elements(grid, 0, [1.0, 5.0, 1.0, 5.0])
    cstar = symmetrized(PatchEngine(grid, 0.3).stiffness(young_e))
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
    engine = PatchEngine(grid, 0.3)
    k = np.exp(rng.normal(0.0, np.sqrt(2.0), size=grid.n_nodes))
    k_e = engine.element_values(k)
    raw = engine.permeability(k_e)
    kstar = symmetrized(raw)
    assert np.abs(raw - raw.T).max() <= 1e-8 * np.abs(kstar).max()
    harmonic = 1.0 / np.mean(1.0 / k_e)
    arithmetic = np.mean(k_e)
    eigs = np.linalg.eigvalsh(kstar)
    assert eigs.min() >= harmonic * (1.0 - 1e-6)
    assert eigs.max() <= arithmetic * (1.0 + 1e-6)


@pytest.mark.parametrize("trial", range(4))
def test_lognormal_patch_bounds_3d(trial):
    rng = np.random.default_rng(200 + trial)
    grid = StructuredGrid((4, 4, 4))
    engine = PatchEngine(grid, 0.3)
    k = np.exp(rng.normal(0.0, 1.0, size=grid.n_nodes))
    kstar = effective_permeability(engine, k)
    k_e = engine.element_values(k)
    eigs = np.linalg.eigvalsh(kstar)
    assert eigs.min() >= (1.0 / np.mean(1.0 / k_e)) * (1.0 - 1e-6)
    assert eigs.max() <= np.mean(k_e) * (1.0 + 1e-6)


def test_elasticity_symmetry_and_spd():
    rng = np.random.default_rng(7)
    grid = StructuredGrid((6, 6))
    engine = PatchEngine(grid, 0.3)
    young = np.exp(rng.normal(0.0, 0.8, size=grid.n_nodes)) + 0.5
    raw = engine.stiffness(engine.element_values(young))
    cstar = symmetrized(raw)
    assert np.abs(raw - raw.T).max() <= 1e-8 * np.abs(cstar).max()
    assert np.allclose(cstar, cstar.T, atol=1e-12)
    assert np.linalg.eigvalsh(cstar).min() > 0.0


def test_permeability_linearity():
    rng = np.random.default_rng(9)
    grid = StructuredGrid((6, 6))
    engine = PatchEngine(grid, 0.3)
    k = np.exp(rng.normal(size=grid.n_nodes))
    a = effective_permeability(engine, k)
    b = effective_permeability(engine, 3.0 * k)
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
    grid_vals = perm.reshape(9, 9)
    young_vals = young.reshape(9, 9)
    # row-major cell order: cell (i, j) holds nodes [4i, 4i+4] x [4j, 4j+4]
    assert np.array_equal(patches[0].perm, grid_vals[0:5, 0:5].ravel())
    assert np.allclose(patches[1].perm, grid_vals[0:5, 4:9].ravel())
    assert np.allclose(patches[2].perm, grid_vals[4:9, 0:5].ravel())
    assert np.array_equal(patches[3].perm, grid_vals[4:9, 4:9].ravel())
    assert np.array_equal(patches[0].young, young_vals[0:5, 0:5].ravel())
    assert np.array_equal(patches[3].young, young_vals[4:9, 4:9].ravel())
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
    engine = PatchEngine(StructuredGrid((4, 4)), 0.3)
    fresh = homogenize_domain(fine, (2, 2), fields)
    shared = homogenize_domain(fine, (2, 2), fields, engine=engine)
    assert np.array_equal(fresh.perm, shared.perm)
    assert np.array_equal(fresh.stiffness, shared.stiffness)
    assert engine.diffusion.factor_fill > 0
    assert engine.elasticity.factor_fill > 0
    with pytest.raises(ParameterError, match="patch grid or Poisson ratio"):
        homogenize_domain(fine, (4, 4), fields, engine=engine)
    other_ratio = PatchEngine(StructuredGrid((4, 4)), 0.25)
    with pytest.raises(ParameterError, match="patch grid or Poisson ratio"):
        homogenize_domain(fine, (2, 2), fields, engine=other_ratio)


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


def reference_permeability(space, k_e):
    """Flux-averaged k* of per-element values ``k_e`` from full assembly and
    row/column elimination."""
    grid = space.grid
    A = space.assemble_diffusion(k_e[:, None, None] * np.eye(grid.dimension))
    bnodes = grid.all_boundary_nodes()
    system = DirichletSystem(A, bnodes, np.arange(grid.n_nodes))
    values = grid.node_coords[bnodes]  # column j holds psi_j = x_j
    rhs = system.fold_rhs(np.zeros((grid.n_nodes, grid.dimension)), values)
    psi = system.expand(LUSolver(system.matrix).solve(rhs), values)
    n_cells = grid.elements.shape[0] // grid.n_classes
    grads = np.tile(space.class_gradients, (n_cells, 1, 1))
    gpsi = np.einsum("eia,eil->eal", grads, psi[grid.elements])
    raw = np.einsum("e,ejl->lj", k_e, gpsi) / grid.elements.shape[0]
    return 0.5 * (raw + raw.T)


def reference_elasticity(space, young_e, eta):
    """Energy Gram matrix C* of per-element Young's moduli ``young_e`` from
    full assembly and row/column elimination."""
    grid = space.grid
    d = grid.dimension
    C_e = young_e[:, None, None] * isotropic_stiffness(1.0, eta, d)
    A = space.assemble_elasticity(C_e)
    bnodes = grid.all_boundary_nodes()
    vdofs = (bnodes[:, None] * d + np.arange(d)).reshape(-1)
    pairs = strain_component_pairs(d)
    values = np.stack(
        [
            (grid.node_coords[bnodes] @ unit_strain_tensor(pair, d).T).ravel()
            for pair in pairs
        ],
        axis=-1,
    )
    system = DirichletSystem(A, vdofs, np.arange(A.shape[0]))
    rhs = system.fold_rhs(np.zeros((A.shape[0], len(pairs))), values)
    phi = system.expand(LUSolver(system.matrix).solve(rhs), values)
    w = mandel_weights(d)
    raw = np.outer(w, w) * (phi.T @ (A @ phi))  # the unit cube has volume 1
    return 0.5 * (raw + raw.T)


@pytest.mark.parametrize("where", ["node", "element"])
@pytest.mark.parametrize("kind", ["lognormal", "affine"])
# the last two are the patch grids of the test1/test2 and test3 presets
@pytest.mark.parametrize("cells", [(8, 8), (4, 4, 4), (32, 32), (12, 12, 12)])
def test_engine_matches_full_assembly_reference(cells, kind, where):
    grid = StructuredGrid(cells)
    space = P1Space(grid)
    rng = np.random.default_rng(47)
    n = grid.n_nodes if where == "node" else grid.elements.shape[0]
    z = rng.normal(size=n)
    coeff = np.exp(1.4 * z) if kind == "lognormal" else 10.0 + 2.0 * np.clip(z, -4, 4)
    engine = PatchEngine(grid, 0.3)
    if where == "node":
        perm = effective_permeability(engine, coeff)
        stiff = effective_elasticity(engine, coeff)
        coeff = space.element_values(coeff)
    else:
        perm = symmetrized(engine.permeability(coeff))
        stiff = symmetrized(engine.stiffness(coeff))
    for got, ref in (
        (perm, reference_permeability(space, coeff)),
        (stiff, reference_elasticity(space, coeff, 0.3)),
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
            effective_elasticity(engine, youngs[i]),
        )

    shared = PatchEngine(grid, 0.3)
    for i in range(3):
        tensors(shared, i)
    for after, alone in zip(tensors(shared, 3), tensors(PatchEngine(grid, 0.3), 3)):
        assert np.array_equal(after, alone)


@pytest.mark.parametrize("cells", [(4, 4), (3, 3, 3)])
@pytest.mark.parametrize("sign", ["indefinite", "singular"])
def test_band_solve_rejects_matrix_without_cholesky(cells, sign):
    engine = PatchEngine(StructuredGrid(cells), 0.3)
    n_elem = engine.grid.elements.shape[0]
    coeff = np.ones(n_elem)
    if sign == "indefinite":
        coeff[: n_elem // 2] = -1.0
    else:
        coeff[:] = 0.0
    for op in (engine.diffusion, engine.elasticity):
        with pytest.raises(NumericError):
            op.solve(coeff)


def test_band_solve_rejects_non_finite_residual():
    engine = PatchEngine(StructuredGrid((4, 4)), 0.3)
    op = engine.diffusion
    op.data = np.full_like(op.data, np.nan)
    with pytest.raises(NumericError):
        op.solve(np.ones(engine.grid.elements.shape[0]))


@pytest.mark.parametrize("cells", [(1, 1), (4, 4), (2, 3, 2)])
def test_band_layout(cells):
    grid = StructuredGrid(cells)
    op = PatchEngine(grid, 0.3).diffusion
    # at a constant coefficient the solutions are the affine boundary data
    x, _ = op.solve(np.ones(grid.elements.shape[0]))
    assert np.allclose(x, grid.node_coords, atol=1e-12)
    # interior nodes run along lattice axis 0 ascending, axes 1..d-1 descending
    idx = np.indices(grid.node_shape).reshape(grid.dimension, -1)
    order = np.lexsort(tuple(-idx[:0:-1]) + (idx[0],))
    inside = np.all((idx > 0) & (idx < np.array(cells)[:, None]), axis=0)
    assert np.array_equal(op.interior, order[inside[order]])
    # number the slots of the pattern 1, 2, ...; the band must hold the
    # slot of every lower entry of A_II at its banded position
    indptr, indices, _ = grid.node_pattern
    n, n_i = grid.n_nodes, op.interior.size
    slots = sparse.csr_matrix(
        (np.arange(1.0, indices.size + 1), indices, indptr), shape=(n, n)
    )
    A_ii = slots[op.interior][:, op.interior].toarray()
    ab = np.zeros((op.kd + 1, n_i), order="F")
    ab.ravel("F")[op.band[1]] = op.band[0] + 1.0
    banded = np.zeros((n_i, n_i))
    for j in range(n_i):
        for i in range(j, min(j + op.kd + 1, n_i)):
            banded[i, j] = ab[i - j, j]
    assert np.array_equal(banded, np.tril(A_ii))
    # the pattern is symmetric, so the lower band carries all of A_II
    assert np.array_equal(np.triu(A_ii) != 0.0, np.tril(A_ii).T != 0.0)
    assert op.factor_fill == (op.kd + 1) * op.interior.size


@pytest.mark.parametrize("cells", [(16, 16), (12, 12, 12)])
def test_bandwidth_follows_the_reversed_axes(cells):
    # the longest stencil step runs along lattice axis 0, m^(d-1) interior
    # nodes, so kd = R m^(d-1) + R - 1 for R dofs per node
    engine = PatchEngine(StructuredGrid(cells), 0.3)
    d, m = len(cells), cells[0] - 1
    for op, R in ((engine.diffusion, 1), (engine.elasticity, d)):
        assert op.kd == R * m ** (d - 1) + R - 1


def test_patch_engine_memory():
    # a 12^3 engine with both operators built holds at most 4 MiB
    tracemalloc.start()
    try:
        engine = PatchEngine(StructuredGrid((12, 12, 12)), 0.3)
        engine.diffusion, engine.elasticity
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 4 * 2**20


@pytest.mark.parametrize("cells", [(5, 5), (3, 3, 3)])
def test_solve_returns_matrix_times_solution(cells):
    # the second value of solve is A(c) x, with A(c) the assembled operator
    grid = StructuredGrid(cells)
    eta = 0.3
    engine = PatchEngine(grid, eta)
    coeff = np.exp(np.random.default_rng(47).normal(size=grid.elements.shape[0]))
    cases = [
        (
            engine.diffusion,
            engine.assemble_diffusion(coeff[:, None, None] * np.eye(grid.dimension)),
        ),
        (
            engine.elasticity,
            engine.assemble_elasticity(
                coeff[:, None, None] * isotropic_stiffness(1.0, eta, grid.dimension)
            ),
        ),
    ]
    for op, A in cases:
        x, Ax = op.solve(coeff)
        assert Ax.shape == x.shape == (A.shape[0], op.data.shape[1])
        scale = abs(A).max() * np.abs(x).max()
        assert np.allclose(Ax, A @ x, rtol=0.0, atol=1e-13 * scale)
