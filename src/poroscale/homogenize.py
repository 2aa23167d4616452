"""Effective tensors per coarse cell from local Dirichlet problems.

For each coarse cell the fine-grid property values are restricted to the
cell and rescaled to the unit cube. Permeability solves d scalar problems
with affine boundary data psi_j = x_j and averages the flux,

    k*_lj = (1/|K|) integral_K k(x) d(psi_l)/dx_j dx,

which discretely equals the energy inner product of the solutions, so the
raw matrix is symmetric up to solver tolerance and is symmetrized on
return. Elasticity solves one vector problem per strain component with
boundary data u = Lambda^(rs) x (Lambda the symmetrized unit strain) and
forms the energy Gram matrix of the solutions; weighting its shear
rows/columns by sqrt(2) yields the stored stiffness matrix convention of
:mod:`poroscale.elasticity`.

All cells share one patch grid, so a :class:`PatchEngine` builds the
sparsity pattern of each operator once; a patch's matrix is then a sum of
reference element matrices weighted by the element coefficient (at fixed
Poisson ratio the isotropic stiffness is linear in Young's modulus). The
boundary dofs are eliminated by index: each problem solves
A_II x_I = -A_IB g, with A_II factored by SuperLU in symmetric mode.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .elasticity import (
    isotropic_stiffness,
    lame_parameters,
    mandel_weights,
    strain_component_pairs,
    unit_strain_tensor,
)
from .errors import ParameterError
from .fem import LUSolver, P1Space
from .grid import StructuredGrid

SOLVE_TOL = 1e-8


@dataclass
class CellPatch:
    """Material data of one coarse cell on the rescaled unit cube.

    ``perm`` and ``young`` are nodal values on the shared patch grid,
    flattened in C order.
    """

    cell_index: tuple
    perm: np.ndarray
    young: np.ndarray
    eta: float


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


def extract_patches(fine_grid, coarse_cells, fields):
    """Restrict nodal fields to coarse cells, row-major cell order.

    Returns ``(patch_grid, patches)`` with the patch grid on the unit cube.
    Patches share boundary slices with their neighbours (node overlap).
    """
    grid = patch_grid(fine_grid, coarse_cells)
    r = grid.cells_per_axis[0]
    perm = np.asarray(fields.perm, dtype=float).reshape(fine_grid.node_shape)
    young = np.asarray(fields.young, dtype=float).reshape(fine_grid.node_shape)
    patches = []
    for index in np.ndindex(*tuple(coarse_cells)):
        window = tuple(slice(i * r, i * r + r + 1) for i in index)
        patches.append(
            CellPatch(
                cell_index=index,
                perm=perm[window].reshape(-1).copy(),
                young=young[window].reshape(-1).copy(),
                eta=fields.eta,
            )
        )
    return grid, patches


class CellOperator:
    """Dirichlet cell problems ``A(c) x = 0`` with ``x = g`` on the boundary.

    ``A(c) = sum_e c_e K[class(e)]`` is linear in the element coefficient
    ``c``. Its CSC pattern is built once, with an int32 slot for every entry
    of every element matrix; the blocks A_II and A_IB index into it. Each
    column of ``data`` holds the boundary values g of one problem.
    """

    def __init__(self, grid, edofs, local, boundary, data):
        n = int(edofs.max()) + 1
        elems = [np.flatnonzero(grid.element_class == t) for t in range(len(local))]
        # column-major keys of the element-matrix entries sort into CSC order;
        # a plain sort finds the distinct ones (np.unique hashes, ~10x slower)
        entry_keys = [edofs[e][:, None, :] * n + edofs[e][:, :, None] for e in elems]
        keys = np.concatenate(entry_keys, axis=None)
        keys.sort()
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
        vol = grid.element_volume
        self.classes = [
            (e, np.searchsorted(keys, k).astype(np.int32).ravel(), vol * K)
            for e, k, K in zip(elems, entry_keys, local)
        ]
        self.pattern = (keys % n, np.searchsorted(keys, np.arange(n + 1) * n))
        self.interior = np.setdiff1d(np.arange(n), boundary)
        self.boundary, self.data, self.factor_fill = boundary, data, 0
        positions = sparse.csc_matrix(
            (np.arange(1.0, keys.size + 1), *self.pattern), shape=(n, n)
        )[self.interior]
        self.blocks = [
            (b.data.astype(np.int64) - 1, b.indices, b.indptr, b.shape)
            for b in (positions[:, cols] for cols in (self.interior, boundary))
        ]

    def solve(self, coeff, tol):
        """Solutions of all problems, (n, n_problems), and the full matrix."""
        values = np.zeros(self.pattern[0].size)
        for elems, slots, k in self.classes:
            weights = (coeff[elems, None, None] * k).ravel()
            values += np.bincount(slots, weights, values.size)
        A_ii, A_ib = (
            sparse.csc_matrix((values[pos], indices, indptr), shape)
            for pos, indices, indptr, shape in self.blocks
        )
        solver = LUSolver(A_ii, tol, spd=True)
        # with diagonal pivots every solve has the same factor pattern
        self.factor_fill = self.factor_fill or solver.fill
        n = self.pattern[1].size - 1
        x = np.empty((n, self.data.shape[1]))
        x[self.boundary] = self.data
        x[self.interior] = solver.solve(-(A_ib @ self.data))
        return x, sparse.csc_matrix((values, *self.pattern), shape=(n, n))


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
        local = np.einsum("tia,tja->tij", grads, grads)
        coords = self.grid.node_coords[self.bnodes]
        return CellOperator(self.grid, self.grid.elements, local, self.bnodes, coords)

    def elasticity(self, eta):
        """Vector problems at unit Young's modulus, built once per ``eta``.

        One problem per strain component, with boundary data u = Lambda x.
        """
        if eta not in self._elasticity:
            B, d = self.class_strain, self.d
            C = isotropic_stiffness(1.0, eta, d)
            local = np.einsum("tia,ij,tjb->tab", B, C, B)
            coords = self.grid.node_coords[self.bnodes]
            pairs = strain_component_pairs(d)
            data = np.stack([coords @ unit_strain_tensor(p, d) for p in pairs], -1)
            self._elasticity[eta] = CellOperator(
                self.grid,
                self._vector_dofs(slice(None)),
                local,
                (self.bnodes[:, None] * d + np.arange(d)).ravel(),
                data.reshape(-1, len(pairs)),  # node-major vector dofs
            )
        return self._elasticity[eta]


def _engine(space):
    return space if isinstance(space, PatchEngine) else PatchEngine(space.grid)


def effective_permeability(
    space, perm, tol=SOLVE_TOL, with_asymmetry=False, where="node"
):
    """Symmetrized effective permeability of one patch, (d, d).

    ``space`` may be a :class:`PatchEngine` to reuse. ``where='element'``
    takes per-element coefficients, which keeps sharp material interfaces
    aligned with element rows exact.
    """
    engine = _engine(space)
    grid = engine.grid
    k_e = engine.element_values(perm, where=where)
    if np.any(k_e <= 0.0):
        raise ParameterError("diffusion coefficient must be positive")
    psi, _ = engine.diffusion.solve(k_e, tol)

    grads = engine.class_gradients[grid.element_class]
    # per-element gradient of each solution: (n_elem, d components, d problems)
    gpsi = np.einsum("eia,eil->eal", grads, psi[grid.elements])
    volume = grid.element_volume * grid.elements.shape[0]
    raw = grid.element_volume / volume * np.einsum("e,ejl->lj", k_e, gpsi)
    kstar = 0.5 * (raw + raw.T)
    if with_asymmetry:
        return kstar, float(np.abs(raw - raw.T).max())
    return kstar


def effective_elasticity(
    space, young, eta, tol=SOLVE_TOL, with_asymmetry=False, where="node"
):
    """Effective stiffness matrix of one patch, (m, m), sqrt(2) convention.

    ``space`` may be a :class:`PatchEngine` to reuse.
    """
    engine = _engine(space)
    grid = engine.grid
    young_e = engine.element_values(young, where=where)
    lame_parameters(young_e, eta)  # validates E > 0 and the Poisson ratio
    phi, stiffness = engine.elasticity(eta).solve(young_e, tol)

    volume = grid.element_volume * grid.elements.shape[0]
    energy = phi.T @ (stiffness @ phi) / volume
    w = mandel_weights(engine.d)
    raw = np.outer(w, w) * energy
    cstar = 0.5 * (raw + raw.T)
    if with_asymmetry:
        return cstar, float(np.abs(raw - raw.T).max())
    return cstar


@dataclass
class EffectiveTensors:
    """Per-coarse-cell effective tensors, row-major cell order."""

    coarse_cells: tuple
    perm: np.ndarray  # (n_cells, d, d)
    stiffness: np.ndarray  # (n_cells, m, m)

    @property
    def n_cells(self):
        return self.perm.shape[0]


def homogenize_domain(
    fine_grid, coarse_cells, fields, threads=1, tol=SOLVE_TOL, engine=None
):
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
            effective_permeability(engine, patch.perm, tol),
            effective_elasticity(engine, patch.young, patch.eta, tol),
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
