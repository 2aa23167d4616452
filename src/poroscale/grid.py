"""Structured simplicial grids on the unit square / cube.

A grid is a uniform lattice over [0,1]^d with ``n_i`` cells along axis ``i``.
Every cell is split into d! simplices by the Kuhn subdivision (H. W. Kuhn,
IBM J. Res. Dev. 4, 1960): each permutation p of the axes gives the simplex
whose vertices walk from the low corner to the high corner along
e_p0, e_p1, ..., so every simplex holds the cell's main diagonal. The split
is the same in every cell, so meshes of different resolutions are nested,
all simplices of one permutation are translates, and runs are deterministic.

Nodes are indexed in C order over the lattice shape ``(n_1+1, ..., n_d+1)``,
so a flat nodal array reshapes to that shape with axis ``i`` following
coordinate ``x_i``.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import factorial

import numpy as np
from scipy import sparse

from .errors import ParameterError

# face 2i is x_i = 0 and face 2i+1 is x_i = 1
FACE_NAMES = ("left", "right", "bottom", "top", "back", "front")


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


@dataclass(frozen=True)
class StructuredGrid:
    """Uniform simplicial grid over the unit hypercube."""

    cells_per_axis: tuple

    def __post_init__(self):
        cells = tuple(int(n) for n in self.cells_per_axis)
        if len(cells) not in (2, 3):
            raise ParameterError(f"grid dimension must be 2 or 3, got {len(cells)}")
        if any(n < 1 for n in cells):
            raise ParameterError(f"cells per axis must be positive, got {cells}")
        object.__setattr__(self, "cells_per_axis", cells)

    @property
    def dimension(self):
        return len(self.cells_per_axis)

    @property
    def node_shape(self):
        return tuple(n + 1 for n in self.cells_per_axis)

    @property
    def n_nodes(self):
        return int(np.prod(self.node_shape))

    @property
    def spacing(self):
        return tuple(1.0 / n for n in self.cells_per_axis)

    @cached_property
    def node_coords(self):
        """(n_nodes, d) array of node positions in [0,1]^d."""
        axes = [np.linspace(0.0, 1.0, n + 1) for n in self.cells_per_axis]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @property
    def n_classes(self):
        """Simplices per cell, d!: one orientation class per permutation."""
        return factorial(self.dimension)

    @property
    def node_strides(self):
        """Flat node id step along each axis, (d,) int64."""
        return np.cumprod((1,) + self.node_shape[:0:-1], dtype=np.int64)[::-1]

    @cached_property
    def class_offsets(self):
        """Lattice offsets of the vertices of each class, (n_classes, d+1, d).

        Permutation p gives the offsets 0, e_p0, e_p0 + e_p1, ...,
        (1, ..., 1); the last two are swapped when p is odd, so every
        simplex has positive volume.
        """
        d = self.dimension
        offsets = np.zeros((self.n_classes, d + 1, d), dtype=np.int64)
        for t, perm in enumerate(permutations(range(d))):
            offsets[t, 1:] = np.cumsum(np.eye(d, dtype=np.int64)[list(perm)], axis=0)
            if _perm_sign(perm) < 0:
                offsets[t, [-2, -1]] = offsets[t, [-1, -2]]
        return offsets

    @cached_property
    def elements(self):
        """(n_elements, d+1) connectivity, cell-major with the class cycling fastest."""
        cells = np.indices(self.cells_per_axis).reshape(self.dimension, -1).T
        base = cells @ self.node_strides
        steps = self.class_offsets @ self.node_strides
        return (base[:, None, None] + steps).reshape(-1, self.dimension + 1)

    @property
    def element_volume(self):
        return float(np.prod(self.spacing)) / self.n_classes

    @cached_property
    def stencil(self):
        """The distinct lattice offsets between two vertices of one element,
        (n_off, d): 7 in 2D, 15 in 3D, in increasing order of node id step."""
        vertices = self.class_offsets
        steps = (vertices[:, None] - vertices[:, :, None]).reshape(-1, self.dimension)
        offsets = np.unique(steps, axis=0)
        return offsets[np.argsort(offsets @ self.node_strides)]

    @cached_property
    def node_pattern(self):
        """Scalar CSR pattern of the node graph, ``(indptr, indices, entries)``.

        Row a lists, in increasing order, the nodes a + s of the
        :attr:`stencil` offsets s that stay on the grid, at flat positions
        ``entries`` a * n_off + s. Such a pair shares an element: the nonzero
        entries of s share one sign, so one cell holds both nodes on a
        monotone path of the Kuhn subdivision.
        """
        lattice = np.indices(self.node_shape).reshape(self.dimension, -1).T
        ends = lattice[:, None, :] + self.stencil
        entries = np.flatnonzero(np.all((ends >= 0) & (ends < self.node_shape), axis=2))
        row, s = np.divmod(entries, self.stencil.shape[0])
        indptr = np.cumsum(np.bincount(row + 1, minlength=self.n_nodes + 1))
        indices = row + (self.stencil @ self.node_strides)[s]
        return indptr.astype(np.int32), indices.astype(np.int32), entries

    @cached_property
    def dissection_order(self):
        """Node ids in geometric nested-dissection order.

        The node box is bisected across its longest axis by one lattice
        plane. Every element lies inside one cell, so no element joins the
        two halves and the plane separates them. Each half is ordered
        recursively, then the plane; boxes of side at most 3 are leaves in
        C order. Eliminating in this order keeps the fill of a factor near
        optimal for a regular grid (George, SIAM J. Numer. Anal. 10, 1973).
        """
        parts = []

        def order(box):
            axis = int(np.argmax(box.shape))
            side = box.shape[axis]
            if side <= 3:
                parts.append(box.ravel())
                return
            low, plane, high = np.split(box, [side // 2, side // 2 + 1], axis=axis)
            order(low)
            order(high)
            parts.append(plane.ravel())

        order(np.arange(self.n_nodes).reshape(self.node_shape))
        return np.concatenate(parts)

    def face_names(self):
        return FACE_NAMES[: 2 * self.dimension]

    def boundary_nodes(self, face):
        """Flat node ids on one face of the hypercube."""
        if face not in self.face_names():
            raise ParameterError(f"unknown face {face!r} for dimension {self.dimension}")
        axis, end = divmod(self.face_names().index(face), 2)
        idx = [np.arange(n) for n in self.node_shape]
        idx[axis] = np.array([end * self.cells_per_axis[axis]])
        mesh = np.meshgrid(*idx, indexing="ij")
        return np.ravel_multi_index(mesh, self.node_shape).ravel()

    def all_boundary_nodes(self):
        ids = np.concatenate([self.boundary_nodes(f) for f in self.face_names()])
        return np.unique(ids)

    def prolongation(self, points):
        """P1 interpolation matrix from the nodes to ``points``, CSR
        (n_points, n_nodes).

        Row r holds the weights of point r, consistent with the simplicial
        splitting used by ``elements``: a point with local coordinates
        sorted as s_0 >= ... >= s_{d-1} lies in the simplex of that
        permutation, on the path 0, e_p0, e_p0 + e_p1, ..., with weights
        1 - s_0, s_0 - s_1, ..., s_{d-1}. Ties take the lower axis first;
        points outside the unit hypercube are clipped onto it.
        """
        points = np.asarray(points, dtype=float)
        cells = np.array(self.cells_per_axis)
        scaled = np.clip(points * cells, 0.0, cells - 1e-12)
        cell_idx = np.minimum(scaled.astype(np.int64), cells - 1)
        xi = scaled - cell_idx
        order = np.argsort(-xi, axis=1, kind="stable")
        s = np.take_along_axis(xi, order, axis=1)
        n, k = len(points), self.dimension + 1
        path = np.hstack([np.ones((n, 1)), s, np.zeros((n, 1))])
        weights = path[:, :-1] - path[:, 1:]
        # the path's corners, in increasing node order
        strides = self.node_strides
        corners = np.cumsum(np.column_stack([cell_idx @ strides, strides[order]]), 1)
        indptr = np.arange(0, n * k + 1, k)
        return sparse.csr_matrix(
            (weights.ravel(), corners.ravel(), indptr), shape=(n, self.n_nodes)
        )
