"""P1 finite element assembly and linear solvers on structured simplicial grids.

All elements of one orientation class are translates of a representative
simplex, so nodal basis gradients are computed once per class and reused
across the mesh. Bilinear forms use exact integration of piecewise-linear
data (coefficients are taken elementwise constant, nodal inputs reduced to
vertex means).

Assembly is one stencil product. The elements of a class are translates,
so the node blocks of a matrix are ``Z @ M``: ``Z`` holds each element's
coefficient at each of its vertices and ``M`` the reference blocks of
each class by neighbour offset (7 offsets in 2D, 15 in 3D); per-element
tensors enter ``Z`` as d^2 or m^2 components. The blocks at offsets inside
the grid are the values of a BSR matrix on the grid's node pattern. An
isotropic stiffness is its unit-modulus matrix times Young's modulus.

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
        coords = self.grid.class_offsets * self.grid.spacing
        vand = np.concatenate([np.ones(coords.shape[:2] + (1,)), coords], axis=2)
        return np.linalg.inv(vand)[:, 1:, :].transpose(0, 2, 1)

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

    def element_values(self, values):
        """Vertex means of a nodal scalar coefficient, one value per element.

        A scalar broadcasts to every element.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim == 0:
            return np.full(self.grid.elements.shape[0], float(values))
        if values.shape != (self.grid.n_nodes,):
            raise ParameterError(
                f"expected {self.grid.n_nodes} nodal values, got shape {values.shape}"
            )
        return values[self.grid.elements].mean(axis=1)

    # ------------------------------------------------------------------
    # assembly

    def assemble_mass(self, coeff=1.0):
        """Mass matrix of integral(c * p * q), exact for P1; c scalar or nodal."""
        d = self.d
        base = self.grid.element_volume / ((d + 1) * (d + 2)) * (np.eye(d + 1) + 1.0)
        reference = np.broadcast_to(base, (self.grid.n_classes,) + base.shape)
        return self._assemble(reference[..., None], self.element_values(coeff)[:, None])

    def assemble_diffusion(self, k):
        """Stiffness matrix of the form integral(grad q . k grad p).

        ``k`` is a positive scalar or nodal field, reduced to vertex means,
        or an array of per-element d x d tensors with shape (n_elem, d, d).
        """
        d = self.d
        k = np.asarray(k, dtype=float)
        if k.ndim == 3:
            if k.shape != (self.grid.elements.shape[0], d, d):
                raise ParameterError(
                    f"tensor coefficient must have shape (n_elem, {d}, {d})"
                )
            return self._form(self.class_gradients, k, self.element_values(1.0))
        k = self.element_values(k)
        if not np.all(k > 0.0):
            raise ParameterError("diffusion coefficient must be positive")
        return self._form(self.class_gradients, np.eye(d), k)

    def assemble_elasticity(self, C, coeff=1.0):
        """Vector stiffness matrix of integral(c * eps(v) . C eps(u)).

        ``C`` is one stiffness matrix, shape (m, m), or one per element,
        shape (n_elem, m, m), in the sqrt(2)-weighted convention; ``coeff``
        is a scalar or nodal factor, reduced to vertex means. An isotropic
        medium passes its unit-modulus matrix and its nodal Young's moduli:
        at a fixed Poisson ratio its stiffness is linear in the modulus.
        """
        m = n_strain_components(self.d)
        C = np.asarray(C, dtype=float)
        if C.shape not in ((m, m), (self.grid.elements.shape[0], m, m)):
            raise ParameterError(
                f"stiffness must have shape ({m}, {m}) or (n_elem, {m}, {m})"
            )
        strain = self.class_strain.transpose(0, 2, 1)
        return self._form(strain, C, self.element_values(coeff))

    def assemble_coupling(self, coeff=1.0):
        """Pressure-displacement coupling blocks.

        Returns ``(div_mat, grad_mat)`` where ``div_mat[q, u]`` assembles
        integral(c * div(u) * q) with shape (n_nodes, n_nodes*d), and
        ``grad_mat[v, p]`` assembles integral(c * v . grad(p)) with shape
        (n_nodes*d, n_nodes). Off the mesh boundary the two are negative
        adjoints of each other.
        """
        d = self.d
        ce = self.element_values(coeff)[:, None]
        # integral over one element of phi_i * d(phi_j)/dx_c = vol/(d+1) * G[j,c]
        G = self.grid.element_volume / (d + 1) * self.class_gradients
        div_ref = np.repeat(G.reshape(G.shape[0], 1, -1), d + 1, axis=1)
        grad_ref = np.tile(G.transpose(0, 2, 1), (1, d + 1, 1))
        return (
            self._assemble(div_ref[..., None], ce),
            self._assemble(grad_ref[..., None], ce),
        )

    def _form(self, G, T, ce):
        """Matrix of the element matrices vol * ce[e] * G T G^T, with ``G``
        (n_class, n_local, r) and ``T`` one (r, r) tensor or one per element."""
        vol = self.grid.element_volume
        if T.ndim == 2:
            reference = vol * np.einsum("tia,ab,tjb->tij", G, T, G)
            return self._assemble(reference[..., None], ce[:, None])
        reference = vol * np.einsum("tia,tjb->tijab", G, G)
        coeff = ce[:, None] * T.reshape(T.shape[0], -1)
        return self._assemble(reference.reshape(reference.shape[:3] + (-1,)), coeff)

    # ------------------------------------------------------------------
    # the stencil product

    def stencil_matrix(self, reference):
        """Reference blocks by neighbour offset, (k (d+1) n_c, n_off, R, C).

        ``reference[t, (i, p), (j, q), c]`` is entry (p, q) of node block
        (i, j) of the element matrix of class t, per unit of coefficient
        component c. Row (t, i, c) holds block (i, j) at the grid stencil
        offset from vertex i to vertex j (the vertices of one element have
        distinct offsets); the product with :meth:`_shifted` sums the rows.
        """
        grid, n = self.grid, self.d + 1
        k, R, C = grid.n_classes, reference.shape[1] // n, reference.shape[2] // n
        offsets, strides = grid.stencil, grid.node_strides
        steps = grid.class_offsets @ strides
        # column of block (i, j) of class t: the offset from vertex i to j
        at = np.searchsorted(offsets @ strides, steps[:, None] - steps[..., None])
        blocks = reference.reshape(k, n, R, n, C, -1)
        M = np.zeros((k, n, blocks.shape[-1], offsets.shape[0], R, C))
        t, i = np.indices((k, n))
        M[t[..., None], i[..., None], :, at] = blocks.transpose(0, 1, 3, 5, 2, 4)
        return M.reshape((-1,) + M.shape[3:])

    def _shifted(self, coeff):
        """Element coefficients at their vertices, (n_nodes, k (d+1) n_c).

        Entry (a, (t, i, c)) is component c of ``coeff`` (n_elem, n_c) on
        the element of class t whose vertex i is node a, or 0 where that
        element would lie off the grid.
        """
        grid, cells = self.grid, self.grid.cells_per_axis
        coeff = coeff.reshape(cells + (grid.n_classes, -1))
        padded = np.zeros(tuple(n + 2 for n in cells) + coeff.shape[-2:])
        padded[tuple(slice(1, n + 1) for n in cells)] = coeff
        # node a is vertex i of the element of class t in cell a - v, v its offset
        Z = [
            padded[tuple(slice(1 - o, 2 - o + n) for o, n in zip(v, cells))][..., t, :]
            for t, vertices in enumerate(grid.class_offsets)
            for v in vertices
        ]
        return np.stack(Z, axis=-2).reshape(grid.n_nodes, -1)

    def node_blocks(self, stencil, coeff):
        """Node blocks (nnz, R, C) of the matrix with element coefficients
        ``coeff``, in the order of the grid's node pattern: the stencil
        product ``_shifted(coeff) @ stencil`` at the offsets inside the grid."""
        values = self._shifted(coeff) @ stencil.reshape(stencil.shape[0], -1)
        values = values.reshape((-1,) + stencil.shape[2:])
        return np.take(values, self.grid.node_pattern[2], axis=0)

    def _assemble(self, reference, coeff):
        blocks = self.node_blocks(self.stencil_matrix(reference), coeff)
        shape = tuple(n * self.grid.n_nodes for n in blocks.shape[1:])
        indptr, indices, _ = self.grid.node_pattern
        return sparse.bsr_matrix((blocks, indices, indptr), shape=shape).tocsr()


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
