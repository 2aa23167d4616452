"""Element assembly against hand quadrature, boundary elimination, solvers."""

import functools
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import poroscale.fem as fem
from poroscale.elasticity import (
    SQRT2,
    isotropic_stiffness,
    n_strain_components,
    strain_component_pairs,
)
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


def naive_strain(g):
    """Weighted strain operator (m, (d+1)*d) of one element's gradients."""
    d = g.shape[1]
    B = np.zeros((n_strain_components(d), (d + 1) * d))
    for I, (r, s) in enumerate(strain_component_pairs(d)):
        for j in range(d + 1):
            if r == s:
                B[I, j * d + r] = g[j, r]
            else:
                B[I, j * d + r] = g[j, s] / SQRT2
                B[I, j * d + s] = g[j, r] / SQRT2
    return B


def dense_assembly(grid, rows, cols, local):
    """Dense matrix and entry pattern summed by a loop over elements.

    ``rows``/``cols`` are the dofs per node of rows and columns, and
    ``local(e, g)`` the element matrix of element e with gradients g.
    """
    n = grid.n_nodes
    A = np.zeros((rows * n, cols * n))
    touched = np.zeros(A.shape, dtype=bool)
    for e, el in enumerate(grid.elements):
        g = naive_gradients(grid.node_coords[el])
        r = (el[:, None] * rows + np.arange(rows)).ravel()
        c = (el[:, None] * cols + np.arange(cols)).ravel()
        A[np.ix_(r, c)] += local(e, g)
        touched[np.ix_(r, c)] = True
    return A, touched


def assembly_cases(grid):
    """(name, assembled matrix, dense reference, reference pattern) for every
    assemble_* and every input form."""
    d, n_elem = grid.dimension, grid.elements.shape[0]
    vol = grid.element_volume
    rng = np.random.default_rng(59)
    nodal = rng.uniform(0.5, 2.0, grid.n_nodes)
    ce = nodal[grid.elements].mean(axis=1)
    per_elem = rng.uniform(0.5, 2.0, n_elem)
    m = n_strain_components(d)
    C1 = isotropic_stiffness(1.0, 0.3, d)
    Q = rng.normal(size=(n_elem, m, m))
    C_e = Q @ Q.transpose(0, 2, 1) + m * np.eye(m)
    Q = rng.normal(size=(n_elem, d, d))
    k_e = Q @ Q.transpose(0, 2, 1) + d * np.eye(d)
    base = vol / ((d + 1) * (d + 2)) * (np.eye(d + 1) + 1.0)
    space = P1Space(grid)
    div, grad = space.assemble_coupling(nodal)
    unit_div, unit_grad = space.assemble_coupling(1.5)

    def div_local(c):
        return lambda e, g: np.tile(c[e] * vol / (d + 1) * g.reshape(1, -1), (d + 1, 1))

    def grad_local(c):
        return lambda e, g: np.tile(c[e] * vol / (d + 1) * g.T, (d + 1, 1))

    def stiff(e, g, C):
        B = naive_strain(g)
        return vol * B.T @ C @ B

    const = np.full(n_elem, 1.5)
    return [
        ("mass scalar", space.assemble_mass(1.5),
         dense_assembly(grid, 1, 1, lambda e, g: 1.5 * base)),
        ("mass nodal", space.assemble_mass(nodal),
         dense_assembly(grid, 1, 1, lambda e, g: ce[e] * base)),
        ("diffusion nodal", space.assemble_diffusion(nodal),
         dense_assembly(grid, 1, 1, lambda e, g: vol * ce[e] * g @ g.T)),
        ("diffusion per-element scalar",
         space.assemble_diffusion(per_elem[:, None, None] * np.eye(d)),
         dense_assembly(grid, 1, 1, lambda e, g: vol * per_elem[e] * g @ g.T)),
        ("diffusion per-element tensor", space.assemble_diffusion(k_e),
         dense_assembly(grid, 1, 1, lambda e, g: vol * g @ k_e[e] @ g.T)),
        ("elasticity per-element scalar",
         space.assemble_elasticity(per_elem[:, None, None] * C1),
         dense_assembly(grid, d, d, lambda e, g: per_elem[e] * stiff(e, g, C1))),
        ("elasticity per-element tensor", space.assemble_elasticity(C_e),
         dense_assembly(grid, d, d, lambda e, g: stiff(e, g, C_e[e]))),
        ("elasticity unit C x nodal", space.assemble_elasticity(C1, nodal),
         dense_assembly(grid, d, d, lambda e, g: ce[e] * stiff(e, g, C1))),
        ("elasticity unit C x scalar", space.assemble_elasticity(C1, 1.5),
         dense_assembly(grid, d, d, lambda e, g: 1.5 * stiff(e, g, C1))),
        ("div nodal", div, dense_assembly(grid, 1, d, div_local(ce))),
        ("grad nodal", grad, dense_assembly(grid, d, 1, grad_local(ce))),
        ("div scalar", unit_div, dense_assembly(grid, 1, d, div_local(const))),
        ("grad scalar", unit_grad, dense_assembly(grid, d, 1, grad_local(const))),
    ]


# a block size of 5 splits every class into several scatter blocks
@pytest.mark.parametrize("block", [fem._BLOCK, 5])
@pytest.mark.parametrize("cells", [(4, 3), (2, 3, 2)])
def test_assembly_matches_dense_element_loop(cells, block, monkeypatch):
    monkeypatch.setattr(fem, "_BLOCK", block)
    for name, A, (dense, touched) in assembly_cases(StructuredGrid(cells)):
        assert isinstance(A, sparse.csr_matrix), name
        assert A.has_canonical_format, name
        pattern = np.zeros(A.shape, dtype=bool)
        pattern[A.tocoo().coords] = True
        assert np.array_equal(pattern, touched), name
        err = np.abs(A.toarray() - dense).max()
        assert err <= 1e-13 * np.abs(dense).max(), name


def test_assembly_builds_the_pattern_once_per_grid(monkeypatch):
    prop = StructuredGrid.__dict__["node_pattern"]
    builds = []

    @functools.wraps(prop.func)
    def counted(grid):
        builds.append(grid)
        return counted.__wrapped__(grid)

    monkeypatch.setattr(prop, "func", counted)
    grid = StructuredGrid((5, 4))
    C = isotropic_stiffness(1.0, 0.3, 2)
    first = P1Space(grid).assemble_elasticity(C, 2.0)
    space = P1Space(grid)
    second = space.assemble_elasticity(C, 2.0)
    space.assemble_mass(1.0)
    space.assemble_diffusion(1.0)
    space.assemble_coupling(1.0)
    assert builds == [grid]
    assert (first != second).nnz == 0
    P1Space(StructuredGrid((5, 4))).assemble_mass(1.0)
    assert len(builds) == 2


def test_assembly_memory_stays_bounded():
    # the first assembly on a fresh 128^2 grid, pattern build included, must
    # peak below three times the matrix it returns
    grid = StructuredGrid((128, 128))
    young = np.random.default_rng(61).uniform(5.0, 15.0, grid.n_nodes)
    C = isotropic_stiffness(1.0, 0.3, 2)
    tracemalloc.start()
    try:
        A = P1Space(grid).assemble_elasticity(C, young)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


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
    A = space.assemble_elasticity(np.broadcast_to(C, grid.elements.shape[:1] + C.shape))
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
    C = isotropic_stiffness(1.5, 0.25, grid.dimension)
    C_e = np.broadcast_to(C, grid.elements.shape[:1] + C.shape)
    mats = [
        space.assemble_mass(k),
        space.assemble_diffusion(k),
        space.assemble_elasticity(C_e),
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
    A_elem = space.assemble_diffusion(np.full(n_elem, 2.5)[:, None, None] * np.eye(2))
    assert np.allclose(A_node.toarray(), A_elem.toarray(), atol=1e-13)
    with pytest.raises(ParameterError):
        space.assemble_diffusion(np.ones(3))
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
    bnodes, natural = grid.all_boundary_nodes(), np.arange(grid.n_nodes)
    reduced, fold, expand = constrain_system(A, bnodes, 0.0, natural)
    u = expand(LUSolver(reduced).solve(fold(M @ f)))
    err = u - exact
    return float(np.sqrt(err @ (M @ err)))


def test_laplace_second_order_convergence():
    errors = [laplace_error(n) for n in (8, 16, 32)]
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for rate in rates:
        assert 1.8 <= rate <= 2.2


def test_lusolver_singular_matrix_raises():
    A = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NumericError):
        LUSolver(A).solve(np.array([1.0, 0.0]))


def test_lusolver_pivots_off_a_zero_diagonal():
    # the natural order meets a zero pivot at once; the factor must pivot
    # off the diagonal rather than fail, and still reject a singular matrix
    dense = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    x = LUSolver(sparse.csr_matrix(dense)).solve(b)
    assert np.allclose(x, np.linalg.solve(dense, b), rtol=0.0, atol=1e-14)
    singular = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(NumericError):
        LUSolver(sparse.csr_matrix(singular)).solve(b)


def test_lusolver_rejects_non_finite_residual():
    solver = LUSolver(sparse.diags([2.0, 1.0]))
    with pytest.raises(NumericError):
        solver.solve(np.array([np.nan, 1.0]))


def test_lusolver_reuse():
    rng = np.random.default_rng(41)
    n = 30
    Q = rng.normal(size=(n, n))
    A = sparse.csr_matrix(Q @ Q.T + n * np.eye(n))
    solver = LUSolver(A)
    for _ in range(4):
        b = rng.normal(size=n)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_dirichlet_elimination_exactness():
    # fixed dofs take their values; free dofs solve the reduced equations
    grid = StructuredGrid((6, 6))
    space = P1Space(grid)
    A = space.assemble_diffusion(1.0)
    x, y = grid.node_coords.T
    exact = 2.0 * x - 0.5 * y + 0.25  # harmonic, so zero interior residual
    bnodes = grid.all_boundary_nodes()
    natural = np.arange(grid.n_nodes)
    reduced, fold, expand = constrain_system(A, bnodes, exact[bnodes], natural)
    u = expand(LUSolver(reduced).solve(fold(np.zeros(grid.n_nodes))))
    assert np.allclose(u, exact, atol=1e-9)


def test_dirichlet_system_multi_rhs():
    grid = StructuredGrid((4, 4))
    A = P1Space(grid).assemble_diffusion(1.0)
    bnodes = grid.all_boundary_nodes()
    system = DirichletSystem(A, bnodes, np.arange(grid.n_nodes))
    rng = np.random.default_rng(43)
    vals = rng.normal(size=(bnodes.size, 2))
    rhs = system.fold_rhs(np.zeros((grid.n_nodes, 2)), vals)
    sol = system.expand(LUSolver(system.matrix).solve(rhs), vals)
    assert np.allclose(sol[bnodes], vals, atol=1e-12)
    # zero source: each column is the discrete harmonic extension of its data
    interior = np.setdiff1d(np.arange(grid.n_nodes), bnodes)
    assert np.allclose((A @ sol)[interior], 0.0, atol=1e-12)
    one = system.fold_rhs(np.zeros(grid.n_nodes), vals[:, 0])
    assert np.allclose(one, rhs[:, 0], atol=1e-14)


def test_repeated_constraints_raise():
    A = sparse.eye(3, format="csr")
    with pytest.raises(ParameterError):
        constrain_system(A, [0, 0], [1.0, 1.0], np.arange(3))
    with pytest.raises(ParameterError):
        DirichletSystem(A, [2, 0, 2], np.arange(3))


def test_unsorted_constraints_keep_their_values():
    A = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(3, 3), format="csr")
    reduced, fold, expand = constrain_system(A, [2, 0], [6.0, 3.0], np.arange(3))
    x = expand(LUSolver(reduced).solve(fold(np.zeros(3))))
    assert x[[0, 2]] == pytest.approx([3.0, 6.0])
    assert x[1] == pytest.approx(4.5)


def test_constraint_index_validation():
    A = sparse.eye(3, format="csr")
    with pytest.raises(ParameterError):
        constrain_system(A, [3], [0.0], np.arange(3))
    with pytest.raises(ParameterError):
        DirichletSystem(A, [-1], np.arange(3))


def test_index_elimination_keeps_the_free_block_in_order():
    # the free dofs keep the order they take in ``order``; the fixed ones
    # leave the system, and their values return through fold and expand
    rng = np.random.default_rng(45)
    n = 7
    Q = rng.normal(size=(n, n))
    A = sparse.csr_matrix(Q @ Q.T + n * np.eye(n))
    dofs = np.array([5, 1])
    values = np.array([2.0, -3.0])
    order = np.array([6, 1, 3, 0, 5, 2, 4])
    free = np.array([6, 3, 0, 2, 4])
    reduced, fold, expand = constrain_system(A, dofs, values, order)
    dense = A.toarray()
    assert reduced.shape == (n - dofs.size, n - dofs.size)
    assert np.array_equal(reduced.toarray(), dense[free][:, free])
    b = rng.normal(size=n)
    assert np.allclose(
        fold(b), b[free] - dense[free][:, dofs] @ values, rtol=0.0, atol=1e-13
    )
    x = rng.normal(size=free.size)
    full = expand(x)
    assert np.array_equal(full[dofs], values)
    assert np.array_equal(full[free], x)
    # the reduced solve is the constrained solution of the full system
    sol = expand(LUSolver(reduced).solve(fold(b)))
    assert np.allclose((dense @ sol - b)[free], 0.0, atol=1e-12)
    with pytest.raises(ParameterError):
        constrain_system(A, [1, 1], [0.0, 0.0], order)
    with pytest.raises(ParameterError):
        constrain_system(A, [n], [0.0], order)
