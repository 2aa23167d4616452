"""Element assembly against hand quadrature, boundary elimination, solvers."""

import numpy as np
import pytest
from scipy import sparse

from poroscale.elasticity import isotropic_stiffness, n_strain_components
from poroscale.errors import NumericError, ParameterError
from poroscale.fem import DirichletSystem, LUSolver, P1Space, constrain_system
from poroscale.grid import StructuredGrid


def naive_gradients(coords):
    d = coords.shape[1]
    vand = np.hstack([np.ones((d + 1, 1)), coords])
    return np.linalg.inv(vand)[1:, :].T  # row i = grad of basis i


def naive_diffusion(grid, k_nodal):
    n = grid.n_nodes
    A = np.zeros((n, n))
    vol = grid.element_volume
    for el in grid.elements:
        g = naive_gradients(grid.node_coords[el])
        ke = k_nodal[el].mean()
        A[np.ix_(el, el)] += vol * ke * (g @ g.T)
    return A


def naive_mass(grid, c_nodal):
    n = grid.n_nodes
    d = grid.dimension
    A = np.zeros((n, n))
    base = grid.element_volume / ((d + 1) * (d + 2)) * (np.eye(d + 1) + 1.0)
    for el in grid.elements:
        A[np.ix_(el, el)] += c_nodal[el].mean() * base
    return A


@pytest.mark.parametrize("cells", [(4, 4), (2, 3, 2)])
def test_diffusion_matches_hand_quadrature(cells):
    grid = StructuredGrid(cells)
    rng = np.random.default_rng(hash(cells) % 2**31)
    k = rng.uniform(0.5, 3.0, size=grid.n_nodes)
    assembled = P1Space(grid).assemble_diffusion(k).toarray()
    assert np.allclose(assembled, naive_diffusion(grid, k), atol=1e-12)


@pytest.mark.parametrize("cells", [(4, 4), (2, 2, 3)])
def test_mass_matches_hand_quadrature(cells):
    grid = StructuredGrid(cells)
    rng = np.random.default_rng(3)
    c = rng.uniform(0.1, 2.0, size=grid.n_nodes)
    assembled = P1Space(grid).assemble_mass(c).toarray()
    assert np.allclose(assembled, naive_mass(grid, c), atol=1e-13)
    # constant mass integrates to the domain volume
    ones = np.ones(grid.n_nodes)
    M1 = P1Space(grid).assemble_mass(1.0)
    assert ones @ (M1 @ ones) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cells", [(3, 3), (2, 2, 2)])
def test_elasticity_energy_of_linear_displacement(cells):
    # u(x) = Lambda x has constant strain, so the energy is strain:C:strain
    grid = StructuredGrid(cells)
    d = grid.dimension
    space = P1Space(grid)
    C = isotropic_stiffness(2.0, 0.3, d)
    A = space.assemble_elasticity(C)
    rng = np.random.default_rng(17)
    for _ in range(5):
        lam = rng.normal(size=(d, d))
        lam = 0.5 * (lam + lam.T)
        u = (grid.node_coords @ lam.T).reshape(-1)
        # stored convention: energy = eps_vec . C . eps_vec with sqrt(2) shears
        from poroscale.elasticity import mandel_weights, strain_component_pairs

        w = mandel_weights(d)
        eps = np.array(
            [lam[r, s] for (r, s) in strain_component_pairs(d)]
        ) * w
        expected = eps @ (C @ eps)
        assert u @ (A @ u) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("cells", [(4, 3), (2, 3, 2)])
def test_symmetry_and_positive_semidefiniteness(cells):
    grid = StructuredGrid(cells)
    space = P1Space(grid)
    rng = np.random.default_rng(23)
    k = rng.uniform(0.2, 2.0, size=grid.n_nodes)
    mats = [
        space.assemble_mass(k),
        space.assemble_diffusion(k),
        space.assemble_elasticity(isotropic_stiffness(1.5, 0.25, grid.dimension)),
    ]
    for A in mats:
        dense = A.toarray()
        assert np.allclose(dense, dense.T, atol=1e-12)
        for _ in range(20):
            v = rng.normal(size=A.shape[0])
            assert v @ (A @ v) >= -1e-10 * (v @ v)


@pytest.mark.parametrize("cells", [(4, 4), (2, 2, 2)])
def test_coupling_adjointness_on_clamped_data(cells):
    # with u = 0 on the whole boundary, integral(q div u) = -integral(grad q . u)
    grid = StructuredGrid(cells)
    d = grid.dimension
    space = P1Space(grid)
    D, G = space.assemble_coupling(1.0)
    rng = np.random.default_rng(29)
    interior = np.setdiff1d(np.arange(grid.n_nodes), grid.all_boundary_nodes())
    for _ in range(10):
        u = np.zeros(grid.n_nodes * d)
        for c in range(d):
            u[interior * d + c] = rng.normal(size=interior.size)
        q = rng.normal(size=grid.n_nodes)
        assert q @ (D @ u) == pytest.approx(-(u @ (G @ q)), abs=1e-12)


def test_assembly_linear_in_coefficient():
    grid = StructuredGrid((5, 4))
    space = P1Space(grid)
    rng = np.random.default_rng(31)
    k1 = rng.uniform(0.5, 1.5, size=grid.n_nodes)
    k2 = rng.uniform(0.5, 1.5, size=grid.n_nodes)
    combined = space.assemble_diffusion(k1 + k2)
    summed = space.assemble_diffusion(k1) + space.assemble_diffusion(k2)
    assert np.allclose(combined.toarray(), summed.toarray(), atol=1e-12)


def test_element_coefficient_paths_agree_for_constants():
    grid = StructuredGrid((3, 3))
    space = P1Space(grid)
    n_elem = grid.elements.shape[0]
    A_node = space.assemble_diffusion(2.5)
    A_elem = space.assemble_diffusion(np.full(n_elem, 2.5), where="element")
    assert np.allclose(A_node.toarray(), A_elem.toarray(), atol=1e-13)
    with pytest.raises(ParameterError):
        space.assemble_diffusion(np.ones(3), where="element")
    with pytest.raises(ParameterError):
        space.element_values(np.ones(3), where="nowhere")
    with pytest.raises(ParameterError):
        space.assemble_diffusion(-1.0)


def test_tensor_coefficient_reduces_to_scalar():
    grid = StructuredGrid((4, 4))
    space = P1Space(grid)
    n_elem = grid.elements.shape[0]
    iso = np.broadcast_to(1.7 * np.eye(2), (n_elem, 2, 2))
    A_t = space.assemble_diffusion(np.ascontiguousarray(iso))
    A_s = space.assemble_diffusion(1.7)
    assert np.allclose(A_t.toarray(), A_s.toarray(), atol=1e-13)


def laplace_error(n):
    grid = StructuredGrid((n, n))
    space = P1Space(grid)
    x, y = grid.node_coords.T
    exact = np.sin(np.pi * x) * np.sin(np.pi * y)
    f = 2.0 * np.pi**2 * exact
    A = space.assemble_diffusion(1.0)
    M = space.assemble_mass(1.0)
    reduced, fold = constrain_system(A, grid.all_boundary_nodes(), 0.0)
    u = LUSolver(reduced).solve(fold(M @ f))
    err = u - exact
    return float(np.sqrt(err @ (M @ err)))


def test_laplace_second_order_convergence():
    errors = [laplace_error(n) for n in (8, 16, 32)]
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for rate in rates:
        assert 1.8 <= rate <= 2.2


def test_lusolver_singular_matrix_raises():
    A = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    for spd in (False, True):
        with pytest.raises(NumericError):
            LUSolver(A, spd=spd).solve(np.array([1.0, 0.0]))


def test_lusolver_reuse():
    rng = np.random.default_rng(41)
    n = 30
    Q = rng.normal(size=(n, n))
    A = sparse.csr_matrix(Q @ Q.T + n * np.eye(n))
    for spd in (False, True):
        solver = LUSolver(A, spd=spd)
        for _ in range(4):
            b = rng.normal(size=n)
            x = solver.solve(b)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_dirichlet_elimination_exactness():
    # pinned dofs take their values; free dofs solve the reduced equations
    grid = StructuredGrid((6, 6))
    space = P1Space(grid)
    A = space.assemble_diffusion(1.0)
    x, y = grid.node_coords.T
    exact = 2.0 * x - 0.5 * y + 0.25  # harmonic, so zero interior residual
    bnodes = grid.all_boundary_nodes()
    reduced, fold = constrain_system(A, bnodes, exact[bnodes])
    u = LUSolver(reduced).solve(fold(np.zeros(grid.n_nodes)))
    assert np.allclose(u, exact, atol=1e-9)


def test_dirichlet_system_multi_rhs():
    grid = StructuredGrid((4, 4))
    A = P1Space(grid).assemble_diffusion(1.0)
    bnodes = grid.all_boundary_nodes()
    system = DirichletSystem(A, bnodes)
    rng = np.random.default_rng(43)
    vals = rng.normal(size=(bnodes.size, 2))
    rhs = system.fold_rhs(np.zeros((grid.n_nodes, 2)), vals)
    sol = LUSolver(system.matrix).solve(rhs)
    assert np.allclose(sol[bnodes], vals, atol=1e-12)
    one = system.fold_rhs(np.zeros(grid.n_nodes), vals[:, 0])
    assert np.allclose(one, rhs[:, 0], atol=1e-14)


def test_conflicting_constraints_last_wins(caplog):
    A = sparse.eye(3, format="csr")
    with caplog.at_level("WARNING"):
        reduced, fold = constrain_system(A, [0, 0], [1.0, 5.0])
    assert "conflicting" in caplog.text
    x = LUSolver(reduced).solve(fold(np.zeros(3)))
    assert x[0] == pytest.approx(5.0)
    caplog.clear()
    with caplog.at_level("WARNING"):
        reduced, fold = constrain_system(A, [2, 0, 2, 0, 2], [1.0, 3.0, 4.0, 3.0, 6.0])
    assert "2 conflicting" in caplog.text
    x = LUSolver(reduced).solve(fold(np.zeros(3)))
    assert x[[0, 2]] == pytest.approx([3.0, 6.0])


def test_constraint_index_validation():
    A = sparse.eye(3, format="csr")
    with pytest.raises(ParameterError):
        constrain_system(A, [3], [0.0])
    with pytest.raises(ParameterError):
        DirichletSystem(A, [-1])
