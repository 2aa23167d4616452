"""P1 finite element assembly and linear solvers on structured simplicial grids.

All elements of one orientation class are translates of a representative
simplex, so nodal basis gradients are computed once per class and reused
across the mesh. Bilinear forms use exact integration of piecewise-linear
data (coefficients are taken elementwise constant, nodal inputs reduced to
vertex means).

Degree-of-freedom layout:
  scalar fields   dof = node id
  vector fields   dof = node_id * d + component   (node-major)

Stiffness tensor input uses the symmetric matrix convention of
:mod:`poroscale.elasticity` (sqrt(2)-weighted shear components); the strain
operator built here carries the matching weights, so assembled energies
equal the physical ones.
"""

import logging
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .elasticity import SQRT2, n_strain_components, strain_component_pairs
from .errors import NumericError, ParameterError

logger = logging.getLogger(__name__)

# elements per COO accumulation block; keeps peak assembly memory flat
_CHUNK = 1 << 18


class P1Space:
    """Assembler for piecewise-linear elements on a :class:`StructuredGrid`."""

    def __init__(self, grid):
        self.grid = grid

    @property
    def d(self):
        return self.grid.dimension

    @cached_property
    def class_gradients(self):
        """Nodal basis gradients per orientation class, (n_class, d+1, d).

        Row i holds grad(phi_i) of the basis function attached to local
        vertex i of the representative element.
        """
        grid = self.grid
        d = self.d
        n_class = 2 if d == 2 else 6
        grads = np.empty((n_class, d + 1, d))
        for t in range(n_class):
            # interleaved element order puts one element of each class first
            verts = grid.elements[t]
            coords = grid.node_coords[verts]
            vand = np.hstack([np.ones((d + 1, 1)), coords])
            grads[t] = np.linalg.inv(vand)[1:, :].T
        return grads

    @cached_property
    def class_strain(self):
        """Weighted strain operators per class, (n_class, m, (d+1)*d).

        Maps local vector dofs (vertex-major) to the strain vector of
        :func:`poroscale.elasticity.strain_component_pairs`, with shear rows
        scaled by sqrt(2) to match the stored stiffness matrices.
        """
        d = self.d
        m = n_strain_components(d)
        grads = self.class_gradients
        n_class = grads.shape[0]
        B = np.zeros((n_class, m, (d + 1) * d))
        for I, (r, s) in enumerate(strain_component_pairs(d)):
            for j in range(d + 1):
                if r == s:
                    B[:, I, j * d + r] += grads[:, j, r]
                else:
                    B[:, I, j * d + r] += grads[:, j, s] / SQRT2
                    B[:, I, j * d + s] += grads[:, j, r] / SQRT2
        return B

    # ------------------------------------------------------------------
    # coefficient handling

    def element_values(self, values, where="node"):
        """Reduce a scalar coefficient to one value per element.

        ``where='node'`` expects nodal values and takes vertex means;
        ``where='element'`` passes per-element values through. Scalars
        broadcast either way.
        """
        values = np.asarray(values, dtype=float)
        n_elem = self.grid.elements.shape[0]
        if values.ndim == 0:
            return np.full(n_elem, float(values))
        if values.ndim != 1:
            raise ParameterError("scalar coefficient must be 0- or 1-dimensional")
        if where == "node":
            if values.shape[0] != self.grid.n_nodes:
                raise ParameterError(
                    f"expected {self.grid.n_nodes} nodal values, got {values.shape[0]}"
                )
            return values[self.grid.elements].mean(axis=1)
        if where == "element":
            if values.shape[0] != n_elem:
                raise ParameterError(
                    f"expected {n_elem} element values, got {values.shape[0]}"
                )
            return values
        raise ParameterError(f"unknown coefficient location {where!r}")

    # ------------------------------------------------------------------
    # assembly

    def assemble_mass(self, coeff=1.0, where="node"):
        """Mass matrix of the form integral(c * p * q), exact for P1."""
        ce = self.element_values(coeff, where)
        d = self.d
        vol = self.grid.element_volume
        base = vol / ((d + 1) * (d + 2)) * (np.eye(d + 1) + 1.0)

        def blocks(sl):
            conn = self.grid.elements[sl]
            local = ce[sl, None, None] * base
            return conn[:, :, None], conn[:, None, :], local

        return self._accumulate(blocks, (self.grid.n_nodes, self.grid.n_nodes))

    def assemble_diffusion(self, k, where="node"):
        """Stiffness matrix of the form integral(grad q . k grad p).

        ``k`` is a positive scalar field (nodal or per element) or an array
        of per-element d x d tensors with shape (n_elem, d, d).
        """
        d = self.d
        vol = self.grid.element_volume
        grads = self.class_gradients
        cls = self.grid.element_class
        k = np.asarray(k, dtype=float)
        tensor = k.ndim == 3
        if tensor:
            if k.shape != (self.grid.elements.shape[0], d, d):
                raise ParameterError(
                    f"tensor coefficient must have shape (n_elem, {d}, {d})"
                )
        else:
            k = self.element_values(k, where)
            if np.any(k <= 0.0):
                raise ParameterError("diffusion coefficient must be positive")
        gram = np.einsum("tia,tja->tij", grads, grads)

        def blocks(sl):
            conn = self.grid.elements[sl]
            if tensor:
                g = grads[cls[sl]]
                local = vol * np.einsum("eia,eab,ejb->eij", g, k[sl], g)
            else:
                local = vol * k[sl, None, None] * gram[cls[sl]]
            return conn[:, :, None], conn[:, None, :], local

        return self._accumulate(blocks, (self.grid.n_nodes, self.grid.n_nodes))

    def assemble_elasticity(self, C):
        """Vector stiffness matrix from stored stiffness matrices.

        ``C`` has shape (m, m) for a homogeneous medium or (n_elem, m, m)
        per element, in the sqrt(2)-weighted convention.
        """
        d = self.d
        m = n_strain_components(d)
        n_elem = self.grid.elements.shape[0]
        C = np.asarray(C, dtype=float)
        if C.shape == (m, m):
            C = np.broadcast_to(C, (n_elem, m, m))
        elif C.shape != (n_elem, m, m):
            raise ParameterError(f"stiffness must have shape ({m}, {m}) per element")
        vol = self.grid.element_volume
        strain = self.class_strain
        cls = self.grid.element_class
        nd = self.grid.n_nodes * d

        def blocks(sl):
            edof = self._vector_dofs(sl)
            B = strain[cls[sl]]
            local = vol * np.einsum("eia,eij,ejb->eab", B, C[sl], B)
            return edof[:, :, None], edof[:, None, :], local

        return self._accumulate(blocks, (nd, nd))

    def assemble_coupling(self, coeff=1.0):
        """Pressure-displacement coupling blocks.

        Returns ``(div_mat, grad_mat)`` where ``div_mat[q, u]`` assembles
        integral(c * div(u) * q) with shape (n_nodes, n_nodes*d), and
        ``grad_mat[v, p]`` assembles integral(c * v . grad(p)) with shape
        (n_nodes*d, n_nodes). Off the mesh boundary the two are negative
        adjoints of each other.
        """
        d = self.d
        vol = self.grid.element_volume
        grads = self.class_gradients
        cls = self.grid.element_class
        n_nodes = self.grid.n_nodes
        # integral over one element of phi_i * d(phi_j)/dx_c = vol/(d+1) * G[j,c]
        gflat = coeff * vol / (d + 1) * grads.reshape(grads.shape[0], -1)

        def div_blocks(sl):
            conn = self.grid.elements[sl]
            edof = self._vector_dofs(sl)
            vals = np.broadcast_to(
                gflat[cls[sl]][:, None, :], (conn.shape[0], d + 1, (d + 1) * d)
            )
            return (
                np.broadcast_to(conn[:, :, None], vals.shape),
                np.broadcast_to(edof[:, None, :], vals.shape),
                vals,
            )

        grad_rep = np.tile(grads.transpose(0, 2, 1), (1, d + 1, 1)) * (
            coeff * vol / (d + 1)
        )

        def grad_blocks(sl):
            conn = self.grid.elements[sl]
            edof = self._vector_dofs(sl)
            vals = grad_rep[cls[sl]]
            return (
                np.broadcast_to(edof[:, :, None], vals.shape),
                np.broadcast_to(conn[:, None, :], vals.shape),
                vals,
            )

        div_mat = self._accumulate(div_blocks, (n_nodes, n_nodes * d))
        grad_mat = self._accumulate(grad_blocks, (n_nodes * d, n_nodes))
        return div_mat, grad_mat

    def _vector_dofs(self, sl):
        conn = self.grid.elements[sl]
        return (conn[:, :, None] * self.d + np.arange(self.d)).reshape(
            conn.shape[0], -1
        )

    def _accumulate(self, block_fn, shape):
        n_elem = self.grid.elements.shape[0]
        total = None
        for start in range(0, n_elem, _CHUNK):
            rows, cols, vals = block_fn(slice(start, min(start + _CHUNK, n_elem)))
            rows = np.broadcast_to(rows, vals.shape)
            cols = np.broadcast_to(cols, vals.shape)
            part = sparse.coo_matrix(
                (vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape
            ).tocsr()
            total = part if total is None else total + part
        total.sum_duplicates()
        return total


# ----------------------------------------------------------------------
# boundary conditions


class DirichletSystem:
    """Symmetric elimination of a fixed set of constrained dofs.

    Constrained rows and columns of the matrix are zeroed and replaced by
    identity rows once; any combination of right-hand side and prescribed
    values can then be folded into a matching reduced rhs, so one
    factorization serves many boundary data.
    """

    def __init__(self, matrix, dofs):
        n = matrix.shape[0]
        dofs = np.unique(np.atleast_1d(np.asarray(dofs, dtype=np.int64)))
        if dofs.size and (dofs[0] < 0 or dofs[-1] >= n):
            raise ParameterError("constrained dof index out of range")
        self.dofs = dofs
        self.mask = np.ones(n)
        self.mask[dofs] = 0.0
        keep = sparse.diags(self.mask)
        pin = sparse.coo_matrix(
            (np.ones(dofs.size), (dofs, dofs)), shape=(n, n)
        ).tocsr()
        self.matrix = (keep @ matrix @ keep + pin).tocsr()
        self._cols = matrix.tocsc()[:, dofs]

    def fold_rhs(self, b, values):
        """Reduced rhs for full-size ``b`` and prescribed ``values``.

        Both may carry a trailing axis of several right-hand sides.
        """
        b = np.asarray(b, dtype=float)
        values = np.asarray(values, dtype=float)
        correction = self._cols @ values
        out = (b - correction) * (
            self.mask if b.ndim == 1 else self.mask[:, None]
        )
        out[self.dofs] = values
        return out


def constrain_system(matrix, dofs, values):
    """Eliminate Dirichlet dofs with fixed prescribed values.

    Repeated dofs are allowed; on conflicting values the last entry wins and
    a warning is logged. Returns ``(reduced_matrix, fold_rhs)`` where
    ``fold_rhs(b)`` folds the values into any right-hand side.
    """
    n = matrix.shape[0]
    dofs = np.atleast_1d(np.asarray(dofs, dtype=np.int64))
    values = np.broadcast_to(np.asarray(values, dtype=float), dofs.shape)
    if dofs.size and (dofs.min() < 0 or dofs.max() >= n):
        raise ParameterError("constrained dof index out of range")

    # a stable sort keeps the listing order among repeats of one dof
    order = np.argsort(dofs, kind="stable")
    dofs, values = dofs[order], values[order]
    repeat = dofs[1:] == dofs[:-1]
    conflicts = int(np.count_nonzero(repeat & (values[1:] != values[:-1])))
    if conflicts:
        logger.warning(
            "%d conflicting boundary values; keeping the last one given", conflicts
        )
    last = np.append(~repeat, True)
    system = DirichletSystem(matrix, dofs[last])
    values = values[last]

    def fold_rhs(b):
        return system.fold_rhs(b, values)

    return system.matrix, fold_rhs


# ----------------------------------------------------------------------
# solvers


def _residuals(matrix, x, b):
    res = matrix @ x - b
    if b.ndim == 1:
        scale = np.linalg.norm(b)
        return np.array([np.linalg.norm(res) / (scale if scale > 0 else 1.0)])
    scale = np.linalg.norm(b, axis=0)
    scale[scale == 0.0] = 1.0
    return np.linalg.norm(res, axis=0) / scale


class LUSolver:
    """Reusable sparse LU factorization with a residual check on each solve.

    ``spd=True`` factors in SuperLU's symmetric mode: a minimum-degree
    ordering of A^T + A and diagonal pivots, which is stable only for
    symmetric positive definite matrices.
    """

    def __init__(self, matrix, tol=1e-8, spd=False):
        self.matrix = matrix.tocsc()
        self.tol = tol
        options = {}
        if spd:
            options = dict(
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        try:
            self._lu = splu(self.matrix, **options)
        except RuntimeError as exc:
            raise NumericError(f"sparse factorization failed: {exc}") from exc

    @property
    def fill(self):
        """Stored nonzeros of L and U, as SuperLU counts them.

        Read without copying the factors; dense supernode blocks count in
        full, so this can exceed nnz(L) + nnz(U) of the extracted factors.
        """
        return int(self._lu.nnz)

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        x = self._lu.solve(rhs)
        worst = float(_residuals(self.matrix, x, rhs).max())
        if worst > self.tol:
            raise NumericError(
                f"linear solve residual {worst:.3e} exceeds tolerance "
                f"{self.tol:.1e}",
                residual=worst,
            )
        return x
