"""Coupled pressure-displacement solver: limits, convergence, error norms."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu, spsolve

import poroscale.poro as poro
from poroscale.elasticity import isotropic_stiffness
from poroscale.errors import ParameterError
from poroscale.fem import SOLVE_TOL, LUSolver, P1Space, constrain_system
from poroscale.grid import StructuredGrid
from poroscale.homogenize import EffectiveTensors, homogenize_domain
from poroscale.poro import (
    ErrorReport,
    PoroConstants,
    PoroState,
    TimeSteppingConfig,
    error_norms,
    solve_coarse,
    solve_poroelasticity,
)
from poroscale.random_field import PropertyFields


def uniform_fields(grid, perm=1.0, young=10.0, eta=0.3):
    return PropertyFields(
        perm=np.full(grid.n_nodes, perm),
        young=np.full(grid.n_nodes, young),
        eta=eta,
    )


def lognormal_fields(grid, sigma, seed):
    rng = np.random.default_rng(seed)
    return PropertyFields(
        perm=np.exp(rng.normal(0.0, sigma, size=grid.n_nodes)),
        young=np.exp(rng.normal(2.0, sigma, size=grid.n_nodes)),
        eta=0.3,
    )


@pytest.fixture
def captured(monkeypatch):
    """LU solvers that the marcher builds, and each block system it
    constrains, eliminated again in the natural order of its dofs."""
    seen = {"systems": [], "solvers": []}

    def spy_constrain(matrix, dofs, values, order):
        natural = np.arange(matrix.shape[0])
        seen["systems"].append(constrain_system(matrix, dofs, values, natural))
        return constrain_system(matrix, dofs, values, order)

    class SpySolver(LUSolver):
        def __init__(self, matrix):
            super().__init__(matrix)
            seen["solvers"].append(self)

    monkeypatch.setattr(poro, "constrain_system", spy_constrain)
    monkeypatch.setattr(poro, "LUSolver", SpySolver)
    return seen


def test_zero_data_stays_zero():
    grid = StructuredGrid((6, 6))
    ts = TimeSteppingConfig(t_max=0.01, n_steps=5, p0=0.0, p1=0.0)
    states = solve_poroelasticity(grid, uniform_fields(grid), ts=ts)
    assert len(states) == 6
    for s in states:
        assert np.allclose(s.p, 0.0, atol=1e-12)
        assert np.allclose(s.u, 0.0, atol=1e-12)


def test_long_time_pressure_equilibrates():
    grid = StructuredGrid((8, 8))
    ts = TimeSteppingConfig(t_max=50.0, n_steps=60, p1=1.0)
    states = solve_poroelasticity(grid, uniform_fields(grid), ts=ts)
    assert np.allclose(states[-1].p, 1.0, atol=1e-4)


def test_pressure_bounds_with_weak_coupling():
    # alpha -> 0 decouples the flow, which then obeys the parabolic maximum
    # principle: the pressure stays inside [p0, p1]
    grid = StructuredGrid((16, 16))
    rng = np.random.default_rng(51)
    fields = PropertyFields(
        perm=np.exp(rng.normal(0.0, 1.0, size=grid.n_nodes)),
        young=np.full(grid.n_nodes, 10.0),
        eta=0.3,
    )
    constants = PoroConstants(alpha_biot=1e-8)
    ts = TimeSteppingConfig(t_max=0.05, n_steps=10, p1=1.0)
    states = solve_poroelasticity(grid, fields, constants=constants, ts=ts)
    for s in states:
        assert s.p.min() >= -1e-8
        assert s.p.max() <= 1.0 + 1e-8


def test_monotone_loading_without_source():
    grid = StructuredGrid((8, 8))
    states = solve_poroelasticity(
        grid,
        uniform_fields(grid),
        ts=TimeSteppingConfig(t_max=0.1, n_steps=8, p1=1.0),
    )
    top = grid.boundary_nodes("top")
    for s in states[1:]:
        assert np.allclose(s.p[top], 1.0, atol=1e-10)
    means = [s.p.mean() for s in states]
    assert np.all(np.diff(means) > -1e-12)


def test_first_order_in_time():
    grid = StructuredGrid((12, 12))
    fields = uniform_fields(grid)
    t_max = 0.02

    def final_p(n_steps):
        ts = TimeSteppingConfig(t_max=t_max, n_steps=n_steps, p1=1.0)
        return solve_poroelasticity(grid, fields, ts=ts)[-1].p

    ref = final_p(640)
    errors = [np.linalg.norm(final_p(n) - ref) for n in (10, 20, 40)]
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for rate in rates:
        assert 0.8 <= rate <= 1.2


def test_fluid_viscosity_is_a_time_rescaling():
    # dividing the mobility by nu_f equals stretching the horizon by nu_f
    grid = StructuredGrid((8, 8))
    fields = uniform_fields(grid)
    a = solve_poroelasticity(
        grid,
        fields,
        constants=PoroConstants(nu_f=0.05),
        ts=TimeSteppingConfig(t_max=0.001, n_steps=10),
    )
    b = solve_poroelasticity(
        grid,
        fields,
        constants=PoroConstants(nu_f=1.0),
        ts=TimeSteppingConfig(t_max=0.001 / 0.05, n_steps=10),
    )
    assert np.allclose(a[-1].p, b[-1].p, atol=1e-10)
    assert np.allclose(a[-1].u, b[-1].u, atol=1e-10)


def test_coarse_solver_matches_fine_for_uniform_medium():
    # a constant medium homogenizes exactly, and nested grids share nodes
    fine = StructuredGrid((16, 16))
    fields = uniform_fields(fine, perm=2.0, young=1.0, eta=0.25)
    eff = homogenize_domain(fine, (8, 8), fields)
    ts = TimeSteppingConfig(t_max=0.02, n_steps=5, p1=1.0)
    constants = PoroConstants(nu_f=1.0)
    fine_states = solve_poroelasticity(fine, fields, constants=constants, ts=ts)
    coarse_grid = StructuredGrid((8, 8))
    coarse_states = solve_coarse((8, 8), eff, constants=constants, ts=ts)
    (report,) = error_norms(
        fine_states[-1], [coarse_states[-1]], fine, coarse_grid, fields
    )
    # only discretization separates the two solves here
    assert report.e_p_l2 < 2.0
    assert report.e_u_l2 < 2.0


def test_error_norms_scaling_anchor():
    # coarse state = 1.1 * fine state on the same grid -> all errors 10%
    grid = StructuredGrid((6, 6))
    fields = uniform_fields(grid)
    ts = TimeSteppingConfig(t_max=0.05, n_steps=4, p1=1.0)
    states = solve_poroelasticity(grid, fields, ts=ts)
    fine_state = states[-1]
    scaled = PoroState(
        p=1.1 * fine_state.p, u=1.1 * fine_state.u, time=fine_state.time
    )
    report, same = error_norms(fine_state, [scaled, fine_state], grid, grid, fields)
    for value in report.as_tuple():
        assert value == pytest.approx(10.0, abs=1e-6)
    for value in same.as_tuple():
        assert value == pytest.approx(0.0, abs=1e-8)
    assert all(isinstance(v, float) for v in report.as_tuple())


def test_coarse_refinement_reduces_error():
    fine = StructuredGrid((80, 80))
    rng = np.random.default_rng(77)
    fields = PropertyFields(
        perm=np.exp(rng.normal(0.0, 0.8, size=fine.n_nodes)),
        young=10.0 + rng.normal(0.0, 0.8, size=fine.n_nodes),
        eta=0.3,
    )
    constants = PoroConstants(nu_f=0.05)
    ts = TimeSteppingConfig(t_max=0.001, n_steps=10, p1=1.0)
    fine_state = solve_poroelasticity(fine, fields, constants=constants, ts=ts)[-1]

    def coarse_error(n):
        eff = homogenize_domain(fine, (n, n), fields, threads=4)
        state = solve_coarse((n, n), eff, constants=constants, ts=ts)[-1]
        (report,) = error_norms(
            fine_state, [state], fine, StructuredGrid((n, n)), fields
        )
        return report

    e5 = coarse_error(5)
    e10 = coarse_error(10)
    assert e10.e_p_l2 < e5.e_p_l2
    assert e10.e_u_l2 < e5.e_u_l2


@pytest.mark.parametrize("cells", [(6, 6), (3, 3, 3)], ids=["2d", "3d"])
def test_boundary_setup(cells):
    # rollers: u_i = 0 on the face x_i = 0; inlet: p = p1 on the top face
    fine = StructuredGrid(cells)
    d = fine.dimension
    fields = uniform_fields(fine, young=1.0, eta=0.25)
    coarse = tuple(n // 3 for n in cells)
    eff = homogenize_domain(fine, coarse, fields)
    ts = TimeSteppingConfig(t_max=0.01, n_steps=3, p0=0.5, p1=2.0)
    for grid, states in (
        (fine, solve_poroelasticity(fine, fields, ts=ts)),
        (StructuredGrid(coarse), solve_coarse(coarse, eff, ts=ts)),
    ):
        assert len(states) == 4
        # the initial state is p0 everywhere and at rest
        assert np.all(states[0].p == 0.5) and not states[0].u.any()
        top = grid.boundary_nodes("top")
        for s in states:
            u = s.u.reshape(-1, d)
            for i, face in enumerate(("left", "bottom", "back")[:d]):
                assert np.abs(u[grid.boundary_nodes(face), i]).max() <= 1e-12
            if s.time > 0.0:
                assert np.allclose(s.p[top], 2.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p0", [1.0, -2.5])
@pytest.mark.parametrize("cells", [(16, 16), (6, 6, 6)], ids=["2d", "3d"])
def test_initial_displacement_is_zero(cells, p0):
    # A uniform p0 has no gradient, so the elasticity solve A u = -G p0 with
    # the rollers eliminated returns zero up to round-off; the marcher skips
    # it and starts from u = 0
    grid = StructuredGrid(cells)
    d = grid.dimension
    rng = np.random.default_rng(67)
    fields = PropertyFields(
        perm=np.exp(rng.normal(0.0, 1.0, size=grid.n_nodes)),
        young=np.exp(rng.normal(2.0, 0.5, size=grid.n_nodes)),
        eta=0.3,
    )
    space = P1Space(grid)
    A = space.assemble_elasticity(
        isotropic_stiffness(1.0, fields.eta, d), fields.young
    )
    _, G = space.assemble_coupling(PoroConstants().alpha_biot)
    rollers = np.concatenate(
        [
            grid.boundary_nodes(face) * d + i
            for i, face in enumerate(("left", "bottom", "back")[:d])
        ]
    )
    reduced, fold, expand = constrain_system(A, rollers, 0.0, np.arange(A.shape[0]))
    u = expand(LUSolver(reduced).solve(fold(-(G @ np.full(grid.n_nodes, p0)))))
    assert np.abs(u).max() <= 1e-12 * abs(p0)
    ts = TimeSteppingConfig(t_max=0.01, n_steps=2, p0=p0)
    assert not solve_poroelasticity(grid, fields, ts=ts)[0].u.any()


def test_solver_rejects_bad_inputs():
    grid = StructuredGrid((4, 4))
    fields = uniform_fields(grid)
    fields.perm[3] = -1.0
    with pytest.raises(ParameterError):
        solve_poroelasticity(grid, fields)
    with pytest.raises(ParameterError):
        PoroConstants(nu_f=0.0)
    with pytest.raises(ParameterError):
        PoroConstants(alpha_biot=1.5)
    with pytest.raises(ParameterError):
        TimeSteppingConfig(t_max=-1.0)


@pytest.mark.parametrize(
    "field, name", [("perm", "permeability"), ("young", "Young's modulus")]
)
def test_fine_solver_rejects_nan_field(field, name):
    # NaN <= 0 is False, so a sign check alone let NaN through to the factor
    grid = StructuredGrid((4, 4))
    fields = uniform_fields(grid)
    getattr(fields, field)[7] = np.nan
    with pytest.raises(ParameterError, match=name):
        solve_poroelasticity(grid, fields)


def test_coarse_solver_rejects_nan_cell_permeability():
    eff = EffectiveTensors(
        perm=np.broadcast_to(np.eye(2), (4, 2, 2)).copy(),
        stiffness=np.broadcast_to(isotropic_stiffness(1.0, 0.25, 2), (4, 3, 3)).copy(),
    )
    eff.perm[1, 0, 1] = eff.perm[1, 1, 0] = np.nan
    with pytest.raises(ParameterError, match="permeability in cell 1"):
        solve_coarse((2, 2), eff)


def test_coarse_solver_validates_tensors():
    eff = EffectiveTensors(
        perm=np.broadcast_to(np.eye(2), (4, 2, 2)).copy(),
        stiffness=np.broadcast_to(isotropic_stiffness(1.0, 0.25, 2), (4, 3, 3)).copy(),
    )
    bad = EffectiveTensors(
        perm=eff.perm.copy(),
        stiffness=eff.stiffness.copy(),
    )
    bad.perm[2] = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
    with pytest.raises(ParameterError, match="cell 2"):
        solve_coarse((2, 2), bad)
    with pytest.raises(ParameterError):
        solve_coarse((3, 3), eff)
    # the valid tensors do solve
    states = solve_coarse((2, 2), eff, ts=TimeSteppingConfig(t_max=0.01, n_steps=2))
    assert len(states) == 3


@pytest.mark.parametrize(
    "cells, coarse", [((16, 16), (4, 4)), ((4, 4, 4), (2, 2, 2))], ids=["2d", "3d"]
)
def test_states_match_unpermuted_reference(captured, cells, coarse):
    # march the free block in the natural order of its dofs with spsolve
    fine = StructuredGrid(cells)
    fields = lognormal_fields(fine, 3.0, 71)
    eff = homogenize_domain(fine, coarse, fields)
    constants = PoroConstants(nu_f=0.05)
    ts = TimeSteppingConfig(t_max=0.001, n_steps=4, p0=0.3, p1=1.0)
    runs = [
        (fine, solve_poroelasticity(fine, fields, constants, ts)),
        (StructuredGrid(coarse), solve_coarse(coarse, eff, constants, ts)),
    ]
    assert len(captured["systems"]) == 2
    for (grid, states), (system, fold, expand) in zip(runs, captured["systems"]):
        space = P1Space(grid)
        mass = space.assemble_mass(1.0 / constants.m_biot)
        div, _ = space.assemble_coupling(constants.alpha_biot)
        p, u = states[0].p, states[0].u
        for state in states[1:]:
            rhs = np.concatenate([(mass @ p + div @ u) / ts.tau, np.zeros(u.size)])
            x = expand(spsolve(system.tocsc(), fold(rhs)))
            p, u = x[: grid.n_nodes], x[grid.n_nodes :]
            for got, ref in ((state.p, p), (state.u, u)):
                err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                assert err <= 10 * SOLVE_TOL


def test_dissection_order_cuts_fill(captured):
    grid = StructuredGrid((48, 48))
    ts = TimeSteppingConfig(n_steps=1)
    solve_poroelasticity(grid, lognormal_fields(grid, 1.0, 73), ts=ts)
    ((system, _, _),) = captured["systems"]
    (solver,) = captured["solvers"]
    colamd = splu(system.tocsc())
    fill = solver._lu.L.nnz + solver._lu.U.nnz
    # 0.88M against 1.30M; a COLAMD factor of the reordered system lands
    # within 1 % of the unordered one, so the margin checks the order is used
    assert fill < 0.8 * (colamd.L.nnz + colamd.U.nnz)
