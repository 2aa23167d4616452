"""Effective tensors per coarse cell from local Dirichlet problems.

For each coarse cell the fine-grid property values are restricted to the
cell and rescaled to the unit cube. Permeability solves d scalar problems
with affine boundary data psi_j = x_j and averages the flux,

    k*_lj = (1/|K|) integral_K k(x) d(psi_l)/dx_j dx,

which discretely equals the energy inner product of the solutions, so the
raw matrix is symmetric up to solver tolerance. Elasticity solves one
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
:mod:`poroscale.dataset`. All cells share one patch grid, so a
:class:`PatchEngine` builds the element blocks of each operator once, for
the scatter of :mod:`poroscale.fem`; a patch's matrix is then summed from
reference element matrices weighted by the element coefficient (at fixed
Poisson ratio the isotropic stiffness is linear in Young's modulus). The
boundary dofs are eliminated by index, the one Dirichlet policy of the
package, on one matrix A(c) per solve: with x0 the boundary data, zero
inside, each problem solves A_II x_I = -(A x0)_I with residual (A x)_I. In
the natural order of the interior dofs A_II is an SPD band matrix of
half-bandwidth kd (133 for diffusion, 401 for elasticity on a 12^3 patch),
which LAPACK's band Cholesky factors in one zeroed buffer per solve
(``overwrite_ab``), at a cost of order n_I kd^2.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
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
    ``c``, and ``dofs`` is its dof count per node. Its element blocks, of
    the scatter of :class:`~poroscale.fem.P1Space`, are built once; each
    solve sums the values of A(c) through them into the node blocks of the
    grid's ``pattern``. ``band`` pairs the slot of each lower entry of the
    interior block A_II with its flat index in the Fortran-ordered
    (kd+1, n_I) band array. Column j of ``data`` holds problem j's values g.
    """

    def __init__(self, space, dofs, reference, boundary, data):
        self.dofs, self.reference = dofs, reference
        indptr, indices, _ = space.grid.node_pattern
        self.pattern = (indices, indptr)
        self.blocks = list(space._blocks((dofs, dofs)))
        n = dofs * (indptr.size - 1)
        self.interior = np.setdiff1d(np.arange(n), boundary)
        self.boundary, self.data = boundary, data
        # interior number of every dof, -1 on the boundary
        number = np.full(n, -1)
        number[self.interior] = np.arange(self.interior.size)
        # dof row and column of every value, entry (p, q) of node block (a, b)
        block_row = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        shape, local = (indices.size, dofs, dofs), np.arange(dofs)
        rows = np.broadcast_to(dofs * block_row[:, None, None] + local[:, None], shape)
        cols = np.broadcast_to(dofs * indices[:, None, None] + local, shape)
        rows, cols = number[rows.ravel()], number[cols.ravel()]
        lower = (cols >= 0) & (rows >= cols)
        self.kd = int((rows - cols)[lower].max(initial=0))
        # a[i, j] with i >= j sits at ab[i - j, j], in column-major order; in
        # lower storage LAPACK's column updates run on contiguous memory
        flat = (rows + self.kd * cols)[lower].astype(np.int32)
        self.band = (np.flatnonzero(lower), flat)
        self.factor_fill = (self.kd + 1) * self.interior.size

    def solve(self, coeff):
        """Solutions of all problems, (n, n_problems), and A(c) times them."""
        R, n = self.dofs, self.interior.size + self.boundary.size
        scaled = P1Space._scaled(self.reference, coeff)
        values = P1Space._scatter(self.blocks, scaled, R * R * self.pattern[0].size)
        A = sparse.bsr_matrix((values.reshape(-1, R, R), *self.pattern), shape=(n, n))
        x = np.zeros((n, self.data.shape[1]))
        x[self.boundary] = self.data
        rhs = -(A @ x)[self.interior]
        # in Fortran order LAPACK factors ab in place, without a copy
        ab = np.zeros((self.kd + 1, self.interior.size), order="F")
        ab.ravel("F")[self.band[1]] = values[self.band[0]]
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
    """Cell-problem operators of one patch grid, shared by all its patches.

    The operators are built on first use; build them before sharing the
    engine between threads.
    """

    def __init__(self, grid):
        super().__init__(grid)
        self.bnodes = grid.all_boundary_nodes()
        self._elasticity = {}

    @cached_property
    def diffusion(self):
        """Scalar problems with boundary data psi_j = x_j."""
        grads = self.class_gradients
        reference = self.grid.element_volume * np.einsum("tia,tja->tij", grads, grads)
        coords = self.grid.node_coords[self.bnodes]
        return CellOperator(self, 1, reference, self.bnodes, coords)

    def elasticity(self, eta):
        """Vector problems at unit Young's modulus, built once per ``eta``.

        One problem per strain component, with boundary data u = Lambda x.
        """
        if eta not in self._elasticity:
            B, d = self.class_strain, self.d
            C = isotropic_stiffness(1.0, eta, d)
            reference = self.grid.element_volume * np.einsum("tia,ij,tjb->tab", B, C, B)
            coords = self.grid.node_coords[self.bnodes]
            pairs = strain_component_pairs(d)
            data = np.stack([coords @ unit_strain_tensor(p, d) for p in pairs], -1)
            self._elasticity[eta] = CellOperator(
                self,
                d,
                reference,
                (self.bnodes[:, None] * d + np.arange(d)).ravel(),
                data.reshape(-1, len(pairs)),  # node-major vector dofs
            )
        return self._elasticity[eta]

    def permeability(self, k_e):
        """Raw flux-averaged permeability (d, d) of per-element values."""
        if np.any(k_e <= 0.0):
            raise ParameterError("diffusion coefficient must be positive")
        grid = self.grid
        psi, _ = self.diffusion.solve(k_e)
        grads = self.class_gradients[grid.element_class]
        # per-element gradient of each solution: (n_elem, d components, d problems)
        gpsi = np.einsum("eia,eil->eal", grads, psi[grid.elements])
        volume = grid.element_volume * grid.elements.shape[0]
        return grid.element_volume / volume * np.einsum("e,ejl->lj", k_e, gpsi)

    def stiffness(self, young_e, eta):
        """Raw energy stiffness (m, m), sqrt(2) convention, of per-element
        Young's moduli at Poisson ratio ``eta``."""
        lame_parameters(young_e, eta)  # validates E > 0 and the Poisson ratio
        phi, A_phi = self.elasticity(eta).solve(young_e)
        volume = self.grid.element_volume * self.grid.elements.shape[0]
        w = mandel_weights(self.d)
        return np.outer(w, w) * (phi.T @ A_phi / volume)


def _engine(space):
    return space if isinstance(space, PatchEngine) else PatchEngine(space.grid)


def effective_permeability(space, perm):
    """Symmetrized effective permeability of one patch of nodal values, (d, d).

    ``space`` may be a :class:`PatchEngine` to reuse.
    """
    engine = _engine(space)
    raw = engine.permeability(engine.element_values(perm))
    return 0.5 * (raw + raw.T)


def effective_elasticity(space, young, eta):
    """Symmetrized effective stiffness of one patch of nodal moduli, (m, m).

    ``space`` may be a :class:`PatchEngine` to reuse.
    """
    engine = _engine(space)
    raw = engine.stiffness(engine.element_values(young), eta)
    return 0.5 * (raw + raw.T)


@dataclass
class EffectiveTensors:
    """Per-coarse-cell effective tensors, row-major cell order."""

    coarse_cells: tuple
    perm: np.ndarray  # (n_cells, d, d)
    stiffness: np.ndarray  # (n_cells, m, m)

    @property
    def n_cells(self):
        return self.perm.shape[0]


def homogenize_domain(fine_grid, coarse_cells, fields, threads=1, engine=None):
    """Effective tensors of every coarse cell.

    ``threads`` > 1 distributes patches over a thread pool; results are
    ordered row-major by coarse cell regardless. ``engine`` reuses a
    :class:`PatchEngine` of the patch grid across domains; by default one
    is built for this call.
    """
    coarse_cells = tuple(int(n) for n in coarse_cells)
    grid, patches = extract_patches(fine_grid, coarse_cells, fields)
    if engine is None:
        engine = PatchEngine(grid)
    elif engine.grid != grid:
        raise ParameterError("engine was built for another patch grid")
    # build the shared operators before the pool touches them
    engine.diffusion, engine.elasticity(fields.eta)

    def solve(patch):
        return (
            effective_permeability(engine, patch.perm),
            effective_elasticity(engine, patch.young, patch.eta),
        )

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(solve, patches))
    else:
        results = [solve(p) for p in patches]

    perm = np.stack([r[0] for r in results])
    stiffness = np.stack([r[1] for r in results])
    return EffectiveTensors(
        coarse_cells=coarse_cells, perm=perm, stiffness=stiffness
    )
