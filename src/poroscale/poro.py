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
properties) and the coarse grid (general per-cell effective tensors). A
solve returns two arrays whose rows are the states at t = 0, tau, ...,
t_max: the nodal pressure P, shape (n_steps + 1, n_nodes), and the
node-major displacement U, shape (n_steps + 1, d * n_nodes). Relative L2
and energy error norms compare a fine and a coarse (p, u) row pair at one
time, the coarse pair prolongated onto the fine nodes by one sparse matrix.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .elasticity import isotropic_stiffness, lame_parameters, n_strain_components
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


def _march(grid, mobility, stiffness, modulus, constants, ts):
    """Shared implicit stepping loop; returns (P, U), rows t=0, tau, ..., t_max."""
    space = P1Space(grid)
    n_p = grid.n_nodes
    d = grid.dimension
    tau = ts.tau
    Mm = space.assemble_mass(1.0 / constants.m_biot)
    D_pu, G_up = space.assemble_coupling(constants.alpha_biot)

    # each node in dissection order gives its pressure, then its d components
    nodes = grid.dissection_order[:, None]
    order = np.hstack([nodes, n_p + nodes * d + np.arange(d)]).ravel()
    # B, A (stiffness times modulus), G and the block system are released
    # before the factorization, so it runs beside none of them
    B = space.assemble_diffusion(mobility)
    A = space.assemble_elasticity(stiffness, modulus)
    reduced, fold, expand = constrain_system(
        sparse.bmat([[Mm / tau + B, D_pu / tau], [G_up, A]]),
        *_fixed_dofs(grid, ts.p1),
        order,
    )
    del B, A, G_up
    solver = LUSolver(reduced)

    if constants.source != 0.0:
        F = constants.source * (space.assemble_mass(1.0) @ np.ones(n_p))
    else:
        F = np.zeros(n_p)

    P = np.empty((ts.n_steps + 1, n_p))
    P[0] = ts.p0
    # zero displacement data and a uniform p0 give A u = -G p0 = 0 at t = 0
    U = np.zeros((ts.n_steps + 1, n_p * d))
    rhs = np.zeros(n_p + n_p * d)
    for n in range(1, ts.n_steps + 1):
        rhs[:n_p] = F + (Mm @ P[n - 1]) / tau + (D_pu @ U[n - 1]) / tau
        sol = expand(solver.solve(fold(rhs)))
        P[n] = sol[:n_p]
        U[n] = sol[n_p:]
    return P, U


def solve_poroelasticity(
    grid, fields, constants=PoroConstants(), ts=TimeSteppingConfig()
):
    """Fine-grid solve with nodal isotropic properties.

    ``fields`` carries nodal permeability and Young's modulus plus the
    Poisson ratio (see :mod:`poroscale.random_field`).
    """
    perm = np.asarray(fields.perm, dtype=float)
    if not np.all(np.isfinite(perm) & (perm > 0.0)):
        raise ParameterError("permeability must be finite and positive everywhere")
    lame_parameters(fields.young, fields.eta)  # validates E and the Poisson ratio
    C = isotropic_stiffness(1.0, fields.eta, grid.dimension)
    return _march(grid, perm / constants.nu_f, C, fields.young, constants, ts)


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
    n_cells = int(np.prod(coarse_cells))
    m = n_strain_components(d)
    checks = ("permeability", effective.perm, d), ("stiffness", effective.stiffness, m)
    for name, T, r in checks:
        if T.shape != (n_cells, r, r):
            raise ParameterError(f"effective {name} does not match the coarse grid")
        finite = np.isfinite(T).all(axis=(1, 2))
        # eigvalsh can return positive eigenvalues for NaN entries
        eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], T, 0.0))
        bad = np.flatnonzero(~finite | (eigs.min(axis=1) <= 0.0))
        if bad.size:
            raise ParameterError(
                f"effective {name} in cell {bad[0]} is not finite and positive definite"
            )

    # element order is cell-major, orientation classes fastest
    cell_of_element = np.repeat(np.arange(n_cells), grid.n_classes)
    k_e = effective.perm[cell_of_element] / constants.nu_f
    C_e = effective.stiffness[cell_of_element]
    return _march(grid, k_e, C_e, 1.0, constants, ts)


def error_norms(fine, coarse_states, fine_grid, coarse_grid, fields):
    """Relative L2 and energy errors of each coarse state, in percent.

    ``fine`` and each of ``coarse_states`` is a ``(p, u)`` pair: one row of
    the P and U arrays of a solve on its grid, at the same time. The coarse
    pair is prolongated onto the fine nodes; each error is
    100 sqrt(e.Q e / r.Q r), r the fine state and Q the mass and the fine
    permeability's diffusion matrix for p, the node-major vector mass and
    the fine stiffness matrix for u. The prolongation and the four forms
    are built once per call. Returns one row
    ``(e_p L2, e_p energy, e_u L2, e_u energy)`` of floats per coarse state.
    """
    d = fine_grid.dimension
    space = P1Space(fine_grid)
    mass = space.assemble_mass(1.0)
    forms = (
        mass,
        space.assemble_diffusion(np.asarray(fields.perm, dtype=float)),
        sparse.kron(mass, sparse.identity(d), format="csr"),
        space.assemble_elasticity(
            isotropic_stiffness(1.0, fields.eta, d), fields.young
        ),
    )
    prolong = coarse_grid.prolongation(fine_grid.node_coords)

    def norms(p, u):
        return np.array([v @ (Q @ v) for v, Q in zip((p, p, u, u), forms)])

    p_f, u_f = fine
    reference = norms(p_f, u_f)
    if np.any(reference <= 0.0):
        raise ParameterError("reference solution norm is zero")

    def row(p_c, u_c):
        dp = p_f - prolong @ p_c
        du = u_f - (prolong @ u_c.reshape(-1, d)).ravel()
        return tuple((100.0 * np.sqrt(norms(dp, du) / reference)).tolist())

    return [row(p_c, u_c) for p_c, u_c in coarse_states]
