"""Effective tensors per coarse cell from local Dirichlet problems.

For each coarse cell the fine-grid property values are restricted to the
cell and rescaled to the unit cube. Permeability solves d scalar problems
with affine boundary data psi_j = x_j; their averaged flux,

    k*_lj = (1/|K|) integral_K k(x) d(psi_l)/dx_j dx,

discretely equals their energy inner product, which is what is formed, so
the raw matrix is symmetric up to solver tolerance. Elasticity solves one
vector problem per strain component with boundary data u = Lambda^(rs) x
(Lambda the symmetrized unit strain) and forms the energy Gram matrix of
the solutions; weighting its shear rows/columns by sqrt(2) yields the
stored stiffness matrix convention of :mod:`poroscale.elasticity`.
:meth:`PatchEngine.permeability` and :meth:`PatchEngine.stiffness` map
per-element values to these raw tensors; :func:`effective_permeability`
and :func:`effective_elasticity` map nodal values, by vertex means, to
the symmetrized tensors that :func:`homogenize_domain` stores.

Every cell's nodal values come from one strided view of the fine field,
:func:`cell_windows`, which also gives the network inputs of
:mod:`poroscale.dataset`. All cells share one patch grid and one Poisson
ratio; a :class:`PatchEngine` is built for one of each, and
:func:`homogenize_domain` refuses an engine of another grid or ratio. The
engine builds the stencil matrix of each operator once, for the stencil
product of :mod:`poroscale.fem` (at fixed Poisson ratio the isotropic
stiffness is linear in Young's modulus). The boundary dofs are eliminated
by index, the one Dirichlet policy of the package, on one matrix A(c) per
solve: with x0 the boundary data, zero inside, each problem solves
A_II x_I = -(A x0)_I with residual (A x)_I. Numbered along lattice axes
1..d-1 reversed, the interior dofs make A_II an SPD band matrix of
half-bandwidth kd = R m^(d-1) + R - 1, for R dofs per node and m interior
nodes per axis (121 for diffusion, 365 for elasticity on a 12^3 patch),
which LAPACK's band Cholesky factors in one zeroed buffer per solve
(``overwrite_ab``), at a cost of order n_I kd^2.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import solveh_banded

from .elasticity import (
    isotropic_stiffness,
    lame_parameters,
    mandel_weights,
    strain_component_pairs,
    unit_strain_tensor,
)
from .errors import NumericError, ParameterError
from .fem import P1Space, check_residual
from .grid import StructuredGrid
from .random_field import PropertyFields


def patch_ratio(fine_grid, coarse_cells):
    """Fine cells per coarse cell and axis; validates grid compatibility."""
    coarse_cells = tuple(int(n) for n in coarse_cells)
    fine = fine_grid.cells_per_axis
    if len(coarse_cells) != len(fine):
        raise ParameterError("coarse grid dimension does not match the fine grid")
    if any(n < 1 for n in coarse_cells):
        raise ParameterError("coarse cell counts must be positive")
    if len(set(fine)) != 1 or len(set(coarse_cells)) != 1:
        raise ParameterError("cell problems need cubic cells: equal counts per axis")
    if fine[0] % coarse_cells[0]:
        raise ParameterError(
            f"fine cells {fine[0]} not divisible by coarse cells {coarse_cells[0]}"
        )
    return fine[0] // coarse_cells[0]


def patch_grid(fine_grid, coarse_cells):
    """Grid of the cell problems: one coarse cell rescaled to the unit cube."""
    return StructuredGrid((patch_ratio(fine_grid, coarse_cells),) * fine_grid.dimension)


def cell_windows(fine_grid, coarse_cells, values):
    """Nodal values of one field on every coarse cell, as one strided view.

    Shape (c_1, ..., c_d, r+1, ..., r+1): windows of r+1 nodes at step r,
    so each cell shares its boundary slices with its neighbours (node
    overlap). It is a read-only view of the field.
    """
    r = patch_ratio(fine_grid, coarse_cells)
    shaped = np.asarray(values, dtype=float).reshape(fine_grid.node_shape)
    windows = sliding_window_view(shaped, (r + 1,) * fine_grid.dimension)
    return windows[(slice(None, None, r),) * fine_grid.dimension]


def extract_patches(fine_grid, coarse_cells, fields):
    """Restrict nodal fields to coarse cells, row-major cell order.

    Returns ``(patch_grid, patches)`` with the patch grid on the unit cube;
    each patch is a :class:`PropertyFields` of nodal values on it, flattened
    in C order.
    """
    grid = patch_grid(fine_grid, coarse_cells)
    perm, young = (
        cell_windows(fine_grid, coarse_cells, v).reshape(-1, grid.n_nodes)
        for v in (fields.perm, fields.young)
    )
    return grid, [PropertyFields(k, e, fields.eta) for k, e in zip(perm, young)]


class CellOperator:
    """Dirichlet cell problems ``A(c) x = 0`` with ``x = g`` on the boundary.

    ``A(c) = sum_e c_e K[class(e)]`` is linear in the element coefficient
    ``c``, and ``dofs`` is its dof count per node. Its stencil matrix is
    built once; each solve forms A(c) as a BSR matrix on the grid's node
    pattern (:meth:`P1Space.block_matrix`). ``interior`` runs along lattice
    axes 1..d-1 reversed, which narrows the half-bandwidth ``kd``. ``band``
    pairs the index in ``A.data`` of each lower entry of the interior block
    A_II with its flat index in the Fortran-ordered (kd+1, n_I) band array.
    Column j of ``data`` holds problem j's values g.
    """

    def __init__(self, space, dofs, reference, boundary, data):
        grid = space.grid
        self.space, self.stencil = space, space.stencil_matrix(reference[..., None])
        indptr, indices, _ = grid.node_pattern
        lattice = np.arange(grid.n_nodes).reshape(grid.node_shape)
        nodes = np.flip(lattice, axis=tuple(range(1, grid.dimension))).reshape(-1, 1)
        order = (nodes * dofs + np.arange(dofs)).ravel()
        self.interior = order[~np.isin(order, boundary)]
        self.boundary, self.data = boundary, data
        # interior number of every dof, -1 on the boundary
        number = np.full(order.size, -1)
        number[self.interior] = np.arange(self.interior.size)
        # interior row and column of every value, entry (p, q) of node block (a, b)
        ends = np.stack([np.repeat(np.arange(grid.n_nodes), np.diff(indptr)), indices])
        local = np.indices((dofs, dofs))[:, None]
        rows, cols = number[dofs * ends[:, :, None, None] + local].reshape(2, -1)
        lower = (cols >= 0) & (rows >= cols)
        self.kd = int((rows - cols)[lower].max(initial=0))
        # a[i, j] with i >= j sits at ab[i - j, j], in column-major order; in
        # lower storage LAPACK's column updates run on contiguous memory
        flat = (rows + self.kd * cols)[lower].astype(np.int32)
        self.band = (np.flatnonzero(lower), flat)
        self.factor_fill = (self.kd + 1) * self.interior.size

    def solve(self, coeff):
        """Solutions of all problems, (n, n_problems), and A(c) times them."""
        A = self.space.block_matrix(self.stencil, coeff[:, None])
        x = np.zeros((A.shape[0], self.data.shape[1]))
        x[self.boundary] = self.data
        rhs = -(A @ x)[self.interior]
        # in Fortran order LAPACK factors ab in place, without a copy
        ab = np.zeros((self.kd + 1, self.interior.size), order="F")
        ab.ravel("F")[self.band[1]] = A.data.ravel()[self.band[0]]
        try:
            x[self.interior] = solveh_banded(
                ab, rhs, overwrite_ab=True, lower=True, check_finite=False
            )
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"band Cholesky of A_II failed: {exc}") from exc
        Ax = A @ x
        check_residual(Ax[self.interior], rhs)
        return x, Ax


class PatchEngine(P1Space):
    """Cell-problem operators of one patch grid and one Poisson ratio
    ``eta``, shared by all its patches.

    The operators are built on first use; build them before sharing the
    engine between threads.
    """

    def __init__(self, grid, eta):
        super().__init__(grid)
        self.eta = eta
        self.bnodes = grid.all_boundary_nodes()

    @cached_property
    def diffusion(self):
        """Scalar problems with boundary data psi_j = x_j."""
        grads = self.class_gradients
        reference = self.grid.element_volume * np.einsum("tia,tja->tij", grads, grads)
        coords = self.grid.node_coords[self.bnodes]
        return CellOperator(self, 1, reference, self.bnodes, coords)

    @cached_property
    def elasticity(self):
        """Vector problems at unit Young's modulus.

        One problem per strain component, with boundary data u = Lambda x.
        """
        B, d = self.class_strain, self.d
        C = isotropic_stiffness(1.0, self.eta, d)
        reference = self.grid.element_volume * np.einsum("tia,ij,tjb->tab", B, C, B)
        coords = self.grid.node_coords[self.bnodes]
        pairs = strain_component_pairs(d)
        data = np.stack([coords @ unit_strain_tensor(p, d) for p in pairs], -1)
        # node-major vector dofs
        dofs = (self.bnodes[:, None] * d + np.arange(d)).ravel()
        return CellOperator(self, d, reference, dofs, data.reshape(-1, len(pairs)))

    def permeability(self, k_e):
        """Raw permeability (d, d) of per-element values: the energy Gram
        matrix of the solutions on the unit cube, their averaged flux."""
        if np.any(k_e <= 0.0):
            raise ParameterError("diffusion coefficient must be positive")
        psi, A_psi = self.diffusion.solve(k_e)
        return psi.T @ A_psi

    def stiffness(self, young_e):
        """Raw energy stiffness (m, m), sqrt(2) convention, of per-element
        Young's moduli at the engine's Poisson ratio, on the unit cube."""
        lame_parameters(young_e, self.eta)  # validates E > 0 and the Poisson ratio
        phi, A_phi = self.elasticity.solve(young_e)
        w = mandel_weights(self.d)
        return np.outer(w, w) * (phi.T @ A_phi)


def effective_permeability(engine, perm):
    """Symmetrized effective permeability of one patch of nodal values, (d, d)."""
    raw = engine.permeability(engine.element_values(perm))
    return 0.5 * (raw + raw.T)


def effective_elasticity(engine, young):
    """Symmetrized effective stiffness of one patch of nodal moduli, (m, m)."""
    raw = engine.stiffness(engine.element_values(young))
    return 0.5 * (raw + raw.T)


@dataclass
class EffectiveTensors:
    """Per-coarse-cell effective tensors, row-major cell order."""

    perm: np.ndarray  # (n_cells, d, d)
    stiffness: np.ndarray  # (n_cells, m, m)

    @property
    def n_cells(self):
        return self.perm.shape[0]


def homogenize_domain(fine_grid, coarse_cells, fields, threads=1, engine=None):
    """Effective tensors of every coarse cell.

    ``threads`` > 1 distributes patches over a thread pool; results are
    ordered row-major by coarse cell regardless. ``engine`` reuses a
    :class:`PatchEngine` of the patch grid and of ``fields.eta`` across
    domains; by default one is built for this call.
    """
    grid, patches = extract_patches(fine_grid, coarse_cells, fields)
    if engine is None:
        engine = PatchEngine(grid, fields.eta)
    elif engine.grid != grid or engine.eta != fields.eta:
        raise ParameterError("engine was built for another patch grid or Poisson ratio")
    # build the shared operators before the pool touches them
    engine.diffusion, engine.elasticity

    def solve(patch):
        return (
            effective_permeability(engine, patch.perm),
            effective_elasticity(engine, patch.young),
        )

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(solve, patches))
    else:
        results = [solve(p) for p in patches]

    perm = np.stack([r[0] for r in results])
    stiffness = np.stack([r[1] for r in results])
    return EffectiveTensors(perm=perm, stiffness=stiffness)
