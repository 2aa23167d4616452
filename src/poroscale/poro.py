"""Implicit time stepping of the coupled pressure-displacement system.

Each step solves the monolithic block system

    [ Mm/tau + B   D/tau ] [p]   [F + (Mm p_n + D u_n)/tau]
    [ G            A     ] [u] = [0]

where Mm is the storage mass matrix (1/M_biot), B the mobility stiffness
(k/nu_f), A the elastic stiffness, and D, G the coupling blocks scaled by
the Biot coefficient. Global unknown layout: pressure nodes first, then
displacements node-major.

The factor uses another order. The grid's nested-dissection node order
(:attr:`poroscale.grid.StructuredGrid.dissection_order`) is expanded to
blocks of d+1 unknowns, each node's pressure followed by its d
displacement components. The fixed dofs are eliminated by index
(:func:`poroscale.fem.constrain_system`): the free block, taken in that
order, is factored once; each step folds the prescribed values into its
right-hand side and expands the solution back to the global layout.

Every solve uses one boundary setup: displacement component i is fixed at
0 on the face x_i = 0 (rollers on left, bottom and, in 3D, back), the
pressure is p1 on the top face x_2 = 1, and every other face is natural
(zero flux, zero traction). The state at t = 0 is p = p0 and u = 0: the
displacement data are zero and p0 is uniform, so the elasticity equation
A u = -G p0 has the solution u = 0 (G maps a constant pressure to zero up
to round-off). Each solve therefore constrains and factors one matrix,
the block system, and reuses the factorization for every step.

The same marcher serves the fine grid (isotropic stiffness from nodal
properties) and the coarse grid (general per-cell effective tensors);
relative L2 and energy error norms compare the two at matching times.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .elasticity import isotropic_stiffness, n_strain_components
from .errors import ParameterError
from .fem import LUSolver, P1Space, constrain_system
from .grid import StructuredGrid


@dataclass(frozen=True)
class PoroConstants:
    """Physical constants of the coupled system; source is spatially uniform."""

    m_biot: float = 1.0
    alpha_biot: float = 1.0
    nu_f: float = 1.0
    source: float = 0.0

    def __post_init__(self):
        if self.m_biot <= 0.0:
            raise ParameterError("storage modulus must be positive")
        if self.nu_f <= 0.0:
            raise ParameterError("fluid viscosity must be positive")
        if not 0.0 < self.alpha_biot <= 1.0:
            raise ParameterError("coupling coefficient must lie in (0, 1]")


@dataclass(frozen=True)
class TimeSteppingConfig:
    t_max: float = 0.001
    n_steps: int = 20
    p0: float = 0.0
    p1: float = 1.0

    def __post_init__(self):
        if self.t_max <= 0.0 or self.n_steps < 1:
            raise ParameterError("time horizon and step count must be positive")

    @property
    def tau(self):
        return self.t_max / self.n_steps


@dataclass
class PoroState:
    """Solution snapshot: nodal pressure and node-major displacement."""

    p: np.ndarray
    u: np.ndarray
    time: float


@dataclass
class ErrorReport:
    """Relative errors in percent at matching solution times."""

    e_p_l2: float
    e_p_energy: float
    e_u_l2: float
    e_u_energy: float

    def as_tuple(self):
        return (
            float(self.e_p_l2),
            float(self.e_p_energy),
            float(self.e_u_l2),
            float(self.e_u_energy),
        )


def _fixed_dofs(grid, p1):
    """Constrained dofs and values of the one boundary setup.

    Displacement component i is 0 on the face x_i = 0 (left, bottom, back);
    the pressure is ``p1`` on the top face.
    """
    d, n_p = grid.dimension, grid.n_nodes
    rollers = [
        n_p + grid.boundary_nodes(face) * d + i
        for i, face in enumerate(("left", "bottom", "back")[:d])
    ]
    inlet = grid.boundary_nodes("top")
    dofs = np.concatenate([*rollers, inlet])
    values = np.zeros(dofs.size)
    values[-inlet.size:] = p1
    return dofs, values


def _march(grid, space, mobility_B, stiffness_A, constants, ts):
    """Shared implicit stepping loop; returns states at t=0, tau, ..., t_max."""
    n_p = grid.n_nodes
    d = grid.dimension
    tau = ts.tau
    Mm = space.assemble_mass(1.0 / constants.m_biot)
    D_pu, G_up = space.assemble_coupling(constants.alpha_biot)

    # each node in dissection order gives its pressure, then its d components
    nodes = grid.dissection_order[:, None]
    order = np.hstack([nodes, n_p + nodes * d + np.arange(d)]).ravel()
    # the block system is built inline, so nothing holds it past elimination
    reduced, fold, expand = constrain_system(
        sparse.bmat([[Mm / tau + mobility_B, D_pu / tau], [G_up, stiffness_A]]),
        *_fixed_dofs(grid, ts.p1),
        order,
    )
    solver = LUSolver(reduced)

    if constants.source != 0.0:
        F = constants.source * (space.assemble_mass(1.0) @ np.ones(n_p))
    else:
        F = np.zeros(n_p)

    p = np.full(n_p, float(ts.p0))
    # zero displacement data and a uniform p0 give A u = -G p0 = 0 at t = 0
    u = np.zeros(n_p * d)

    states = [PoroState(p=p.copy(), u=u.copy(), time=0.0)]
    rhs = np.zeros(n_p + n_p * d)
    for n in range(1, ts.n_steps + 1):
        rhs[:n_p] = F + (Mm @ p) / tau + (D_pu @ u) / tau
        sol = expand(solver.solve(fold(rhs)))
        p = sol[:n_p]
        u = sol[n_p:]
        states.append(PoroState(p=p.copy(), u=u.copy(), time=n * tau))
    return states


def solve_poroelasticity(
    grid, fields, constants=PoroConstants(), ts=TimeSteppingConfig()
):
    """Fine-grid solve with nodal isotropic properties.

    ``fields`` carries nodal permeability and Young's modulus plus the
    Poisson ratio (see :mod:`poroscale.random_field`).
    """
    space = P1Space(grid)
    perm = np.asarray(fields.perm, dtype=float)
    if np.any(perm <= 0.0):
        raise ParameterError("permeability must be positive everywhere")
    mobility_B = space.assemble_diffusion(perm / constants.nu_f)
    young_e = space.element_values(fields.young)
    stiffness_A = space.assemble_elasticity(
        isotropic_stiffness(young_e, fields.eta, grid.dimension)
    )
    return _march(grid, space, mobility_B, stiffness_A, constants, ts)


def solve_coarse(
    coarse_cells, effective, constants=PoroConstants(), ts=TimeSteppingConfig()
):
    """Coarse-grid solve with piecewise-constant effective tensors per cell.

    ``effective`` is an :class:`poroscale.homogenize.EffectiveTensors`; its
    row-major cell order matches the grid built from ``coarse_cells``.
    """
    coarse_cells = tuple(int(n) for n in coarse_cells)
    grid = StructuredGrid(coarse_cells)
    d = grid.dimension
    m = n_strain_components(d)
    n_cells = int(np.prod(coarse_cells))
    if effective.perm.shape != (n_cells, d, d) or effective.stiffness.shape != (
        n_cells,
        m,
        m,
    ):
        raise ParameterError("effective tensor arrays do not match the coarse grid")
    perm_bad = np.linalg.eigvalsh(effective.perm).min(axis=1) <= 0.0
    stiff_bad = np.linalg.eigvalsh(effective.stiffness).min(axis=1) <= 0.0
    bad = np.flatnonzero(perm_bad | stiff_bad)
    if bad.size:
        i = bad[0]
        name = "permeability" if perm_bad[i] else "stiffness"
        raise ParameterError(f"effective {name} not positive definite in cell {i}")

    space = P1Space(grid)
    # element order is cell-major, orientation classes fastest
    per_cell = 2 if d == 2 else 6
    cell_of_element = np.repeat(np.arange(n_cells), per_cell)
    k_e = effective.perm[cell_of_element] / constants.nu_f
    C_e = effective.stiffness[cell_of_element]
    mobility_B = space.assemble_diffusion(k_e)
    stiffness_A = space.assemble_elasticity(C_e)
    return _march(grid, space, mobility_B, stiffness_A, constants, ts)


def _interpolate_state(coarse_grid, state, fine_grid):
    """Coarse solution sampled at fine nodes, same layout as a fine state."""
    d = coarse_grid.dimension
    points = fine_grid.node_coords
    p = coarse_grid.interpolate(state.p, points)
    u = coarse_grid.interpolate(state.u.reshape(-1, d), points).reshape(-1)
    return PoroState(p=p, u=u, time=state.time)


def error_norms(fine_state, coarse_states, fine_grid, coarse_grid, fields):
    """Relative L2 and energy errors of each coarse state, in percent.

    Each coarse solution is first interpolated onto the fine nodes. Energy
    norms weight pressure by the fine permeability and displacement by the
    fine stiffness; these forms are assembled once for all
    ``coarse_states``. Returns one :class:`ErrorReport` per coarse state.
    """
    d = fine_grid.dimension
    space = P1Space(fine_grid)
    mass = space.assemble_mass(1.0)
    diffusion = space.assemble_diffusion(np.asarray(fields.perm, dtype=float))
    young_e = space.element_values(fields.young)
    stiffness = space.assemble_elasticity(isotropic_stiffness(young_e, fields.eta, d))

    def ratio(err, ref, quad):
        num = float(err @ (quad @ err))
        den = float(ref @ (quad @ ref))
        if den <= 0.0:
            raise ParameterError("reference solution norm is zero")
        return 100.0 * float(np.sqrt(num / den))

    uf2 = fine_state.u.reshape(-1, d)
    l2_den = sum(float(uf2[:, c] @ (mass @ uf2[:, c])) for c in range(d))
    if l2_den <= 0.0:
        raise ParameterError("reference solution norm is zero")

    def report(coarse_state):
        interp = _interpolate_state(coarse_grid, coarse_state, fine_grid)
        dp = fine_state.p - interp.p
        du = fine_state.u - interp.u
        du2 = du.reshape(-1, d)
        l2_num = sum(float(du2[:, c] @ (mass @ du2[:, c])) for c in range(d))
        return ErrorReport(
            e_p_l2=ratio(dp, fine_state.p, mass),
            e_p_energy=ratio(dp, fine_state.p, diffusion),
            e_u_l2=100.0 * float(np.sqrt(l2_num / l2_den)),
            e_u_energy=ratio(du, fine_state.u, stiffness),
        )

    return [report(state) for state in coarse_states]
