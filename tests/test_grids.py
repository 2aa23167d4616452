"""Structured simplicial grid geometry and the P1 prolongation matrix."""

from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from poroscale.errors import ParameterError
from poroscale.grid import StructuredGrid


def signed_volume(coords):
    # coords: (d+1, d) vertex positions of one simplex
    d = coords.shape[1]
    edges = coords[1:] - coords[0]
    return np.linalg.det(edges) / np.prod(np.arange(1, d + 1))


# Reference copies of the earlier per-dimension mesh code: triangles and
# tetrahedra built separately, and one weight formula per dimension.


def reference_cell_corners(grid):
    idx = np.meshgrid(*[np.arange(n) for n in grid.cells_per_axis], indexing="ij")
    return np.ravel_multi_index(idx, grid.node_shape).ravel()


def reference_triangles(grid):
    n2p = grid.node_shape[1]
    base = reference_cell_corners(grid)
    a, b, c, d = base, base + n2p, base + 1, base + n2p + 1
    tris = np.empty((2 * base.size, 3), dtype=np.int64)
    tris[0::2] = np.stack([a, b, d], axis=1)
    tris[1::2] = np.stack([a, d, c], axis=1)
    return tris


def reference_tetrahedra(grid):
    shape = grid.node_shape
    strides = np.array([shape[1] * shape[2], shape[2], 1], dtype=np.int64)
    base = reference_cell_corners(grid)
    tets = np.empty((6 * base.size, 4), dtype=np.int64)
    unit = np.eye(3, dtype=np.int64)
    odd = {(0, 2, 1), (1, 0, 2), (2, 1, 0)}
    for t, perm in enumerate(permutations(range(3))):
        v1 = unit[perm[0]]
        verts = [np.zeros(3, np.int64), v1, v1 + unit[perm[1]], np.ones(3, np.int64)]
        if perm in odd:
            verts[2], verts[3] = verts[3], verts[2]
        offs = np.array([int(v @ strides) for v in verts], dtype=np.int64)
        tets[t::6] = base[:, None] + offs[None, :]
    return tets


def reference_tri_weights(grid, cell_idx, xi):
    n2p = grid.node_shape[1]
    base = cell_idx[:, 0] * n2p + cell_idx[:, 1]
    a, b = base, base + n2p
    c, d = base + 1, base + n2p + 1
    x, y = xi[:, 0], xi[:, 1]
    lower = x >= y
    corners = np.where(lower[:, None], np.stack([a, b, d], 1), np.stack([a, d, c], 1))
    w_lower = np.stack([1.0 - x, x - y, y], axis=1)
    w_upper = np.stack([1.0 - y, x, y - x], axis=1)
    return np.where(lower[:, None], w_lower, w_upper), corners


def reference_tet_weights(grid, cell_idx, xi):
    shape = grid.node_shape
    strides = np.array([shape[1] * shape[2], shape[2], 1], dtype=np.int64)
    base = cell_idx @ strides
    order = np.argsort(-xi, axis=1, kind="stable")
    s = np.take_along_axis(xi, order, axis=1)
    weights = np.stack(
        [1.0 - s[:, 0], s[:, 0] - s[:, 1], s[:, 1] - s[:, 2], s[:, 2]], axis=1
    )
    o1 = strides[order[:, 0]]
    o2 = o1 + strides[order[:, 1]]
    o3 = int(strides.sum())
    corners = np.stack([base, base + o1, base + o2, base + o3], axis=1)
    return weights, corners


def reference_prolongation(grid, points):
    """Dense (n_points, n_nodes) matrix of the per-dimension weights."""
    cells = np.array(grid.cells_per_axis)
    scaled = np.clip(points * cells, 0.0, cells - 1e-12)
    cell_idx = np.minimum(scaled.astype(np.int64), cells - 1)
    xi = scaled - cell_idx
    if grid.dimension == 2:
        weights, corners = reference_tri_weights(grid, cell_idx, xi)
    else:
        weights, corners = reference_tet_weights(grid, cell_idx, xi)
    dense = np.zeros((len(points), grid.n_nodes))
    np.put_along_axis(dense, corners, weights, axis=1)
    return dense


def interpolation_points(grid, rng):
    """Random points, every node, and points on the cell diagonals."""
    d = grid.dimension
    random = rng.uniform(-0.01, 1.01, size=(400, d))
    # x_0 = x_1 (= x_2): ties in every cell's sort
    diagonal = np.repeat(rng.uniform(0.0, 1.0, size=(100, 1)), d, axis=1)
    cells = np.array(grid.cells_per_axis)
    low = rng.integers(0, cells, size=(100, d))
    tie = rng.uniform(0.0, 1.0, size=(100, d))
    tie[:, 1] = tie[:, 0]
    on_cell_diagonals = (low + tie) / cells
    return np.vstack([random, grid.node_coords, diagonal, on_cell_diagonals])


@pytest.mark.parametrize(
    "cells", [(1, 1), (3, 2), (4, 7), (8, 8), (2, 3, 4), (5, 5, 5), (3, 1, 2)]
)
def test_elements_match_the_per_dimension_construction(cells):
    g = StructuredGrid(cells)
    reference = reference_triangles if g.dimension == 2 else reference_tetrahedra
    assert_array_equal(g.elements, reference(g))


@pytest.mark.parametrize("cells", [(3, 2), (2, 3, 4)])
def test_faces_match_the_per_dimension_tables(cells):
    g = StructuredGrid(cells)
    names = ("left", "right", "bottom", "top", "back", "front")[: 2 * g.dimension]
    assert g.face_names() == names
    axes = {"left": 0, "right": 0, "bottom": 1, "top": 1, "back": 2, "front": 2}
    lattice = np.arange(g.n_nodes).reshape(g.node_shape)
    for face in names:
        end = 0 if face in ("left", "bottom", "back") else -1
        expected = np.take(lattice, [end], axis=axes[face]).ravel()
        assert_array_equal(g.boundary_nodes(face), expected)


@pytest.mark.parametrize("cells", [(2, 3, 4), (5, 5, 5), (3, 1, 2)])
def test_3d_interpolation_is_bit_equal_to_the_tetrahedron_formula(cells):
    g = StructuredGrid(cells)
    pts = interpolation_points(g, np.random.default_rng(17))
    P = g.prolongation(pts)
    assert P.shape == (len(pts), g.n_nodes)
    assert_array_equal(P.toarray(), reference_prolongation(g, pts))


@pytest.mark.parametrize("cells", [(1, 1), (3, 2), (4, 7), (8, 8)])
def test_2d_interpolation_matches_the_triangle_formula(cells):
    g = StructuredGrid(cells)
    pts = interpolation_points(g, np.random.default_rng(19))
    P = g.prolongation(pts)
    assert P.shape == (len(pts), g.n_nodes)
    assert_array_equal(P.toarray(), reference_prolongation(g, pts))


def test_node_counts():
    g = StructuredGrid((3, 2))
    assert g.node_shape == (4, 3)
    assert g.n_nodes == 12
    assert g.spacing == (1.0 / 3.0, 0.5)
    g3 = StructuredGrid((2, 3, 4))
    assert g3.node_shape == (3, 4, 5)
    assert g3.n_nodes == 60
    assert g3.dimension == 3


def test_node_coords_lattice():
    g = StructuredGrid((2, 2))
    # C order over the lattice: x2 varies fastest
    expected_first = [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 0.0)]
    assert np.allclose(g.node_coords[:4], expected_first)
    assert np.ravel_multi_index((1, 2), g.node_shape) == 5


@pytest.mark.parametrize("cells", [(1, 1), (3, 2), (4, 4), (2, 2, 2), (3, 2, 4)])
def test_element_counts_and_volume(cells):
    g = StructuredGrid(cells)
    per_cell = 2 if g.dimension == 2 else 6
    assert g.n_classes == per_cell
    n_cells = int(np.prod(cells))
    assert g.elements.shape == (per_cell * n_cells, g.dimension + 1)
    assert g.element_volume * g.elements.shape[0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("cells", [(3, 2), (2, 2, 3)])
def test_positive_orientation(cells):
    g = StructuredGrid(cells)
    for el in g.elements:
        vol = signed_volume(g.node_coords[el])
        assert vol > 0.0
        assert vol == pytest.approx(g.element_volume, rel=1e-12)


@pytest.mark.parametrize("cells", [(4, 3), (2, 3, 2)])
def test_elements_stay_inside_their_cell(cells):
    # element order is cell-major with the orientation class cycling fastest
    g = StructuredGrid(cells)
    per_cell = 2 if g.dimension == 2 else 6
    spacing = np.array(g.spacing)
    for e, el in enumerate(g.elements):
        cell = np.array(np.unravel_index(e // per_cell, cells))
        lo = cell * spacing
        hi = (cell + 1) * spacing
        coords = g.node_coords[el]
        assert np.all(coords >= lo - 1e-12) and np.all(coords <= hi + 1e-12)


@pytest.mark.parametrize("cells", [(5, 5), (3, 3, 3)])
def test_classes_are_translates(cells):
    g = StructuredGrid(cells)
    per_cell = 2 if g.dimension == 2 else 6
    assert g.class_offsets.shape == (per_cell, g.dimension + 1, g.dimension)
    # the class cycles fastest in element order
    for t in range(per_cell):
        members = g.elements[t::per_cell]
        shapes = g.node_coords[members] - g.node_coords[members][:, :1]
        assert np.allclose(shapes, shapes[0], atol=1e-14)
        assert np.allclose(shapes[0], g.class_offsets[t] * g.spacing, atol=1e-14)


@pytest.mark.parametrize("cells", [(2, 2, 2), (2, 3)])
def test_kuhn_main_diagonal(cells):
    # every simplex of a cell contains the low and high cell corners (a-d in 2D)
    g = StructuredGrid(cells)
    diag = np.ravel_multi_index((1,) * g.dimension, g.node_shape)
    for el in g.elements:
        assert el[0] + diag in el[1:]


@pytest.mark.parametrize(
    "cells,face,coord,value",
    [
        ((3, 4), "left", 0, 0.0),
        ((3, 4), "right", 0, 1.0),
        ((3, 4), "bottom", 1, 0.0),
        ((3, 4), "top", 1, 1.0),
        ((2, 3, 4), "back", 2, 0.0),
        ((2, 3, 4), "front", 2, 1.0),
    ],
)
def test_boundary_faces(cells, face, coord, value):
    g = StructuredGrid(cells)
    ids = g.boundary_nodes(face)
    expected = g.n_nodes // g.node_shape[coord]
    assert ids.size == expected
    assert np.allclose(g.node_coords[ids, coord], value)


def test_all_boundary_nodes():
    g = StructuredGrid((4, 4))
    ids = g.all_boundary_nodes()
    assert ids.size == 16  # 5^2 - 3^2
    on_edge = np.any(
        (g.node_coords[ids] == 0.0) | (g.node_coords[ids] == 1.0), axis=1
    )
    assert np.all(on_edge)
    assert np.array_equal(ids, np.unique(ids))


def test_face_validation():
    g = StructuredGrid((2, 2))
    with pytest.raises(ParameterError):
        g.boundary_nodes("front")
    with pytest.raises(ParameterError):
        g.boundary_nodes("nope")


@pytest.mark.parametrize("cells", [(4, 3), (3, 2, 4)])
def test_interpolate_affine_exact(cells):
    g = StructuredGrid(cells)
    rng = np.random.default_rng(5)
    coeff = rng.normal(size=g.dimension)
    values = g.node_coords @ coeff + 0.7
    pts = rng.uniform(0.0, 1.0, size=(200, g.dimension))
    exact = pts @ coeff + 0.7
    assert np.allclose(g.prolongation(pts) @ values, exact, atol=1e-12)


@pytest.mark.parametrize("cells", [(3, 3), (2, 3, 2)])
def test_interpolate_at_nodes_and_vector_values(cells):
    g = StructuredGrid(cells)
    rng = np.random.default_rng(11)
    values = rng.normal(size=(g.n_nodes, 2))
    out = g.prolongation(g.node_coords) @ values
    assert np.allclose(out, values, atol=1e-12)


@pytest.mark.parametrize("cells", [(2, 2), (2, 2, 2)])
def test_interpolate_clips_to_domain(cells):
    g = StructuredGrid(cells)
    values = g.node_coords[:, 0]
    rest = [0.5] * (g.dimension - 1)
    out = g.prolongation(np.array([[1.0 + 1e-9] + rest, [-1e-9] + rest])) @ values
    assert np.allclose(out, [1.0, 0.0], atol=1e-8)


@pytest.mark.parametrize(
    "cells",
    [(1, 1), (5, 2), (1, 7), (16, 16), (1, 1, 1), (3, 1, 4), (6, 6, 6)],
)
def test_dissection_order_is_a_permutation(cells):
    g = StructuredGrid(cells)
    order = g.dissection_order
    assert order.dtype.kind == "i"
    assert np.array_equal(np.sort(order), np.arange(g.n_nodes))


def test_dissection_order_ends_with_the_middle_plane():
    # the first bisection of 9x5 nodes cuts the longest axis at node 4
    g = StructuredGrid((8, 4))
    order = g.dissection_order
    lattice = np.arange(g.n_nodes).reshape(g.node_shape)
    assert np.array_equal(order[-5:], lattice[4])
    halves = order[:-5] // g.node_shape[1]
    assert set(halves[:20]) == {0, 1, 2, 3}


def test_invalid_grids():
    with pytest.raises(ParameterError):
        StructuredGrid((4,))
    with pytest.raises(ParameterError):
        StructuredGrid((2, 2, 2, 2))
    with pytest.raises(ParameterError):
        StructuredGrid((0, 3))
