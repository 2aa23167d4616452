"""Implicit time stepping of the coupled pressure-displacement system.

Each step solves the monolithic block system

    [ Mm/tau + B   D/tau ] [p]   [F + (Mm p_n + D u_n)/tau]
    [ G            A     ] [u] = [0]

where Mm is the storage mass matrix (1/M_biot), B the mobility stiffness
(k/nu_f), A the elastic stiffness, and D, G the coupling blocks scaled by
the Biot coefficient. Global unknown layout: pressure nodes first, then
displacements node-major.

The same marcher serves the fine grid (isotropic stiffness from nodal
properties) and the coarse grid (general per-cell effective tensors);
relative L2 and energy error norms compare the two at matching times.
"""

from dataclasses import dataclass

import numpy as np

from .elasticity import isotropic_stiffness, n_strain_components
from .errors import ParameterError
from .fem import SOLVE_TOL, LUSolver, P1Space, constrain_system
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


@dataclass(frozen=True)
class BoundaryCondition:
    """Fixed pressure on a face, or one fixed displacement component.

    ``kind`` is 'pressure' or 'displacement'; ``component`` names the fixed
    displacement axis and must be None for pressure. Unlisted faces are
    natural (zero flux / zero traction).
    """

    kind: str
    face: str
    value: float
    component: int = None


def standard_bcs(d, p1=1.0):
    """Rollers on the coordinate planes, inlet pressure on the top face.

    Displacement is fixed normal to x1=0, x2=0 (and x3=0 in 3D); pressure
    is prescribed at ``p1`` on the x2=1 face; everything else is natural.
    """
    bcs = [
        BoundaryCondition("displacement", "left", 0.0, component=0),
        BoundaryCondition("displacement", "bottom", 0.0, component=1),
    ]
    if d == 3:
        bcs.append(BoundaryCondition("displacement", "back", 0.0, component=2))
    bcs.append(BoundaryCondition("pressure", "top", p1))
    return bcs


def _bc_dofs(grid, bcs):
    """Global constrained dofs and values in listing order (last wins)."""
    d = grid.dimension
    n_p = grid.n_nodes
    dofs, values = [], []
    for bc in bcs:
        nodes = grid.boundary_nodes(bc.face)
        if bc.kind == "pressure":
            if bc.component is not None:
                raise ParameterError("pressure conditions take no component")
            dofs.append(nodes)
        elif bc.kind == "displacement":
            if bc.component is None or not 0 <= bc.component < d:
                raise ParameterError(
                    f"displacement condition needs a component in 0..{d - 1}"
                )
            dofs.append(n_p + nodes * d + bc.component)
        else:
            raise ParameterError(f"unknown boundary condition kind {bc.kind!r}")
        values.append(np.full(nodes.shape[0], float(bc.value)))
    if not dofs:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate(dofs), np.concatenate(values)


def _march(grid, space, mobility_B, stiffness_A, constants, ts, bcs, tol):
    """Shared implicit stepping loop; returns states at t=0, tau, ..., t_max."""
    from scipy import sparse

    n_p = grid.n_nodes
    d = grid.dimension
    tau = ts.tau
    Mm = space.assemble_mass(1.0 / constants.m_biot)
    D_pu, G_up = space.assemble_coupling(constants.alpha_biot)

    system = sparse.bmat(
        [[Mm / tau + mobility_B, D_pu / tau], [G_up, stiffness_A]], format="csr"
    )
    dofs, values = _bc_dofs(grid, bcs)
    reduced, fold = constrain_system(system, dofs, values)
    solver = LUSolver(reduced, tol)

    if constants.source != 0.0:
        F = constants.source * (space.assemble_mass(1.0) @ np.ones(n_p))
    else:
        F = np.zeros(n_p)

    p = np.full(n_p, float(ts.p0))
    # displacement consistent with the initial pressure (zero for zero data)
    u_dofs = dofs[dofs >= n_p] - n_p
    u_vals = values[dofs >= n_p]
    a_reduced, a_fold = constrain_system(stiffness_A, u_dofs, u_vals)
    u = LUSolver(a_reduced, tol).solve(a_fold(-(G_up @ p)))

    states = [PoroState(p=p.copy(), u=u.copy(), time=0.0)]
    rhs = np.empty(n_p + n_p * d)
    for n in range(1, ts.n_steps + 1):
        rhs[:n_p] = F + (Mm @ p) / tau + (D_pu @ u) / tau
        rhs[n_p:] = 0.0
        sol = solver.solve(fold(rhs))
        p = sol[:n_p]
        u = sol[n_p:]
        states.append(PoroState(p=p.copy(), u=u.copy(), time=n * tau))
    return states


def solve_poroelasticity(
    grid, fields, constants=PoroConstants(), ts=TimeSteppingConfig(), bcs=None,
    tol=SOLVE_TOL,
):
    """Fine-grid solve with nodal isotropic properties.

    ``fields`` carries nodal permeability and Young's modulus plus the
    Poisson ratio (see :mod:`poroscale.random_field`).
    """
    space = P1Space(grid)
    if bcs is None:
        bcs = standard_bcs(grid.dimension, ts.p1)
    perm = np.asarray(fields.perm, dtype=float)
    if np.any(perm <= 0.0):
        raise ParameterError("permeability must be positive everywhere")
    mobility_B = space.assemble_diffusion(perm / constants.nu_f)
    young_e = space.element_values(fields.young)
    stiffness_A = space.assemble_elasticity(
        isotropic_stiffness(young_e, fields.eta, grid.dimension)
    )
    return _march(grid, space, mobility_B, stiffness_A, constants, ts, bcs, tol)


def solve_coarse(
    coarse_cells, effective, constants=PoroConstants(), ts=TimeSteppingConfig(),
    bcs=None, tol=SOLVE_TOL,
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
    for i in range(n_cells):
        if np.linalg.eigvalsh(effective.perm[i]).min() <= 0.0:
            raise ParameterError(
                f"effective permeability not positive definite in cell {i}"
            )
        if np.linalg.eigvalsh(effective.stiffness[i]).min() <= 0.0:
            raise ParameterError(
                f"effective stiffness not positive definite in cell {i}"
            )

    space = P1Space(grid)
    if bcs is None:
        bcs = standard_bcs(d, ts.p1)
    # element order is cell-major, orientation classes fastest
    per_cell = 2 if d == 2 else 6
    cell_of_element = np.repeat(np.arange(n_cells), per_cell)
    k_e = effective.perm[cell_of_element] / constants.nu_f
    C_e = effective.stiffness[cell_of_element]
    mobility_B = space.assemble_diffusion(k_e)
    stiffness_A = space.assemble_elasticity(C_e)
    return _march(grid, space, mobility_B, stiffness_A, constants, ts, bcs, tol)


def _interpolate_state(coarse_grid, state, fine_grid):
    """Coarse solution sampled at fine nodes, same layout as a fine state."""
    d = coarse_grid.dimension
    points = fine_grid.node_coords
    p = coarse_grid.interpolate(state.p, points)
    u = coarse_grid.interpolate(state.u.reshape(-1, d), points).reshape(-1)
    return PoroState(p=p, u=u, time=state.time)


def error_norms(fine_state, coarse_state, fine_grid, coarse_grid, fields):
    """Relative L2 and energy errors of a coarse state, in percent.

    The coarse solution is first interpolated onto the fine nodes. Energy
    norms weight pressure by the fine permeability and displacement by the
    fine stiffness.
    """
    d = fine_grid.dimension
    space = P1Space(fine_grid)
    interp = _interpolate_state(coarse_grid, coarse_state, fine_grid)

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

    dp = fine_state.p - interp.p
    du = fine_state.u - interp.u
    du2 = du.reshape(-1, d)
    uf2 = fine_state.u.reshape(-1, d)
    l2_num = sum(float(du2[:, c] @ (mass @ du2[:, c])) for c in range(d))
    l2_den = sum(float(uf2[:, c] @ (mass @ uf2[:, c])) for c in range(d))
    if l2_den <= 0.0:
        raise ParameterError("reference solution norm is zero")

    return ErrorReport(
        e_p_l2=ratio(dp, fine_state.p, mass),
        e_p_energy=ratio(dp, fine_state.p, diffusion),
        e_u_l2=100.0 * float(np.sqrt(l2_num / l2_den)),
        e_u_energy=ratio(du, fine_state.u, stiffness),
    )
