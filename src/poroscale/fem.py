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

Every linear solve, by :class:`LUSolver` or by the band Cholesky of
:mod:`poroscale.homogenize`, passes its residual to :func:`check_residual`.
:class:`LUSolver` factors in the order it is given, with diagonal pivots;
its caller orders the unknowns for low fill. Dirichlet data are eliminated
by index, by :class:`DirichletSystem` here and in the cell problems of
:mod:`poroscale.homogenize`: only the free block is solved.
"""

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .elasticity import SQRT2, n_strain_components, strain_component_pairs
from .errors import NumericError, ParameterError

# elements per COO accumulation block; keeps peak assembly memory flat
_CHUNK = 1 << 18
# relative residual every linear solve must reach
SOLVE_TOL = 1e-8


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
        n_class = grid.n_classes
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

    def assemble_mass(self, coeff=1.0):
        """Mass matrix of integral(c * p * q), exact for P1; c scalar or nodal."""
        ce = self.element_values(coeff)
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
    """Index elimination of a fixed set of distinct constrained dofs.

    Keeps the free block A_FF, its dofs in the order they take in the
    permutation ``order``, and the coupling A_FC. Any rhs and prescribed
    values (listed in the order of ``dofs``) fold into a free-block rhs, so
    one factorization serves many boundary data.
    """

    def __init__(self, matrix, dofs, order):
        n = matrix.shape[0]
        dofs = np.atleast_1d(np.asarray(dofs, dtype=np.int64))
        if dofs.size and (dofs.min() < 0 or dofs.max() >= n):
            raise ParameterError("constrained dof index out of range")
        if np.unique(dofs).size != dofs.size:
            raise ParameterError("constrained dofs must be distinct")
        self.dofs = dofs
        self.free = np.asarray(order)[~np.isin(order, dofs)]
        rows = matrix.tocsr()[self.free]
        self.matrix = rows[:, self.free].tocsc()
        self._cols = rows[:, dofs]

    def fold_rhs(self, b, values):
        """Free-block rhs ``b_F - A_FC values`` for full-size ``b``.

        Both may carry a trailing axis of several right-hand sides.
        """
        b = np.asarray(b, dtype=float)
        return b[self.free] - self._cols @ np.asarray(values, dtype=float)

    def expand(self, x, values):
        """Full-size solution from free-block ``x`` and prescribed ``values``."""
        out = np.empty((self.free.size + self.dofs.size,) + x.shape[1:])
        out[self.free] = x
        out[self.dofs] = values
        return out


def constrain_system(matrix, dofs, values, order):
    """Eliminate distinct Dirichlet dofs with fixed prescribed values.

    ``values`` pairs with ``dofs`` in the given order, or is one scalar.
    Returns ``(reduced, fold, expand)``: the free block in ``order``,
    ``fold(b)`` its rhs for a full-size ``b``, and ``expand(x)`` the
    full-size solution of a free-block ``x``.
    """
    system = DirichletSystem(matrix, dofs, order)
    values = np.broadcast_to(np.asarray(values, dtype=float), system.dofs.shape)

    def fold(b):
        return system.fold_rhs(b, values)

    def expand(x):
        return system.expand(x, values)

    return system.matrix, fold, expand


# ----------------------------------------------------------------------
# solvers


def check_residual(residual, b):
    """Raise :class:`NumericError` unless every column of ``residual`` is at
    most ``SOLVE_TOL`` relative to the matching column of the right-hand
    side ``b``; a non-finite residual fails."""
    scale = np.linalg.norm(b, axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    worst = float(np.max(np.linalg.norm(residual, axis=0) / scale))
    if not worst <= SOLVE_TOL:
        raise NumericError(
            f"linear solve residual {worst:.3e} exceeds tolerance {SOLVE_TOL:.1e}",
            residual=worst,
        )


class LUSolver:
    """Reusable sparse LU factorization with a residual check on each solve.

    The matrix is factored in the order it is given: the caller orders the
    unknowns for low fill. Pivots come from the diagonal; a zero diagonal
    entry pivots off the diagonal instead. A singular matrix raises
    :class:`NumericError`.
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsc()
        try:
            self._lu = splu(
                self.matrix,
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise NumericError(f"sparse factorization failed: {exc}") from exc

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        x = self._lu.solve(rhs)
        check_residual(self.matrix @ x - rhs, rhs)
        return x
