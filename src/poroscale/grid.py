"""Structured simplicial grids on the unit square / cube.

A grid is a uniform lattice over [0,1]^d with ``n_i`` cells along axis ``i``.
Every quad is split into 2 triangles (2D) and every hex into 6 tetrahedra
(3D, Kuhn subdivision), always with the same diagonal orientation so that
meshes of different resolutions are nested and runs are deterministic.

Nodes are indexed in C order over the lattice shape ``(n_1+1, ..., n_d+1)``,
so a flat nodal array reshapes to that shape with axis ``i`` following
coordinate ``x_i``.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import ParameterError

FACE_NAMES_2D = ("left", "right", "bottom", "top")
FACE_NAMES_3D = FACE_NAMES_2D + ("back", "front")

# face name -> (axis, lattice index is 0 or last)
_FACE_AXIS = {
    "left": (0, 0),
    "right": (0, -1),
    "bottom": (1, 0),
    "top": (1, -1),
    "back": (2, 0),
    "front": (2, -1),
}


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

    @cached_property
    def elements(self):
        """(n_elements, d+1) connectivity with positive-volume ordering."""
        if self.dimension == 2:
            return self._triangles()
        return self._tetrahedra()

    @cached_property
    def element_class(self):
        """Orientation class of each element (2 classes in 2D, 6 in 3D).

        All elements of a class are translates of each other, so geometric
        factors (basis gradients, volume) are shared per class.
        """
        n_cells = int(np.prod(self.cells_per_axis))
        k = 2 if self.dimension == 2 else 6
        return np.tile(np.arange(k), n_cells)

    @property
    def element_volume(self):
        vol = float(np.prod(self.spacing))
        return vol / (2.0 if self.dimension == 2 else 6.0)

    def _cell_corner_ids(self):
        """Flat node id of the low corner of every cell, C order over cells."""
        idx = np.meshgrid(
            *[np.arange(n) for n in self.cells_per_axis], indexing="ij"
        )
        return np.ravel_multi_index(idx, self.node_shape).ravel()

    def _triangles(self):
        n1p, n2p = self.node_shape
        base = self._cell_corner_ids()
        a = base
        b = base + n2p        # +x1
        c = base + 1          # +x2
        d = base + n2p + 1    # +x1 +x2
        # split along the a-d diagonal
        lower = np.stack([a, b, d], axis=1)
        upper = np.stack([a, d, c], axis=1)
        tris = np.empty((2 * base.size, 3), dtype=np.int64)
        tris[0::2] = lower
        tris[1::2] = upper
        return tris

    def _tetrahedra(self):
        shape = self.node_shape
        strides = np.array(
            [shape[1] * shape[2], shape[2], 1], dtype=np.int64
        )
        base = self._cell_corner_ids()
        tets = np.empty((6 * base.size, 4), dtype=np.int64)
        unit = np.eye(3, dtype=np.int64)
        for t, perm in enumerate(permutations(range(3))):
            v0 = np.zeros(3, dtype=np.int64)
            v1 = v0 + unit[perm[0]]
            v2 = v1 + unit[perm[1]]
            v3 = np.ones(3, dtype=np.int64)
            verts = [v0, v1, v2, v3]
            if _perm_sign(perm) < 0:
                verts[2], verts[3] = verts[3], verts[2]
            offs = np.array([int(v @ strides) for v in verts], dtype=np.int64)
            tets[t::6] = base[:, None] + offs[None, :]
        return tets

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
        return FACE_NAMES_2D if self.dimension == 2 else FACE_NAMES_3D

    def boundary_nodes(self, face):
        """Flat node ids on one face of the hypercube."""
        if face not in self.face_names():
            raise ParameterError(f"unknown face {face!r} for dimension {self.dimension}")
        axis, end = _FACE_AXIS[face]
        idx = [np.arange(n) for n in self.node_shape]
        idx[axis] = np.array([0 if end == 0 else self.node_shape[axis] - 1])
        mesh = np.meshgrid(*idx, indexing="ij")
        return np.ravel_multi_index(mesh, self.node_shape).ravel()

    def all_boundary_nodes(self):
        ids = np.concatenate([self.boundary_nodes(f) for f in self.face_names()])
        return np.unique(ids)

    def interpolate(self, values, points):
        """Evaluate the P1 interpolant of nodal ``values`` at ``points``.

        ``values`` has shape (n_nodes,) or (n_nodes, m); interpolation is
        consistent with the simplicial splitting used by ``elements``.
        """
        values = np.asarray(values, dtype=float)
        points = np.asarray(points, dtype=float)
        if values.shape[0] != self.n_nodes:
            raise ParameterError("nodal array does not match grid")
        cells = np.array(self.cells_per_axis)
        scaled = np.clip(points * cells, 0.0, cells - 1e-12)
        cell_idx = np.minimum(scaled.astype(np.int64), cells - 1)
        xi = scaled - cell_idx
        if self.dimension == 2:
            weights, corners = self._tri_weights(cell_idx, xi)
        else:
            weights, corners = self._tet_weights(cell_idx, xi)
        out = np.einsum("pk,pk...->p...", weights, values[corners])
        return out

    def _tri_weights(self, cell_idx, xi):
        n2p = self.node_shape[1]
        base = cell_idx[:, 0] * n2p + cell_idx[:, 1]
        a, b = base, base + n2p
        c, d = base + 1, base + n2p + 1
        x, y = xi[:, 0], xi[:, 1]
        lower = x >= y
        corners = np.where(lower[:, None], np.stack([a, b, d], 1), np.stack([a, d, c], 1))
        w_lower = np.stack([1.0 - x, x - y, y], axis=1)
        w_upper = np.stack([1.0 - y, x, y - x], axis=1)
        return np.where(lower[:, None], w_lower, w_upper), corners

    def _tet_weights(self, cell_idx, xi):
        shape = self.node_shape
        strides = np.array([shape[1] * shape[2], shape[2], 1], dtype=np.int64)
        base = cell_idx @ strides
        order = np.argsort(-xi, axis=1, kind="stable")
        s = np.take_along_axis(xi, order, axis=1)
        # Kuhn path vertices 0, e_{p0}, e_{p0}+e_{p1}, (1,1,1)
        w0 = 1.0 - s[:, 0]
        w1 = s[:, 0] - s[:, 1]
        w2 = s[:, 1] - s[:, 2]
        w3 = s[:, 2]
        weights = np.stack([w0, w1, w2, w3], axis=1)
        o1 = strides[order[:, 0]]
        o2 = o1 + strides[order[:, 1]]
        o3 = int(strides.sum())
        corners = np.stack([base, base + o1, base + o2, base + o3], axis=1)
        return weights, corners
