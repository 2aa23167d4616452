"""Structured simplicial grid geometry and interpolation."""

import numpy as np
import pytest

from poroscale.errors import ParameterError
from poroscale.grid import StructuredGrid


def signed_volume(coords):
    # coords: (d+1, d) vertex positions of one simplex
    d = coords.shape[1]
    edges = coords[1:] - coords[0]
    return np.linalg.det(edges) / np.prod(np.arange(1, d + 1))


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
    assert np.array_equal(
        g.element_class, np.tile(np.arange(per_cell), int(np.prod(cells)))
    )
    for t in range(per_cell):
        members = g.elements[g.element_class == t]
        shapes = g.node_coords[members] - g.node_coords[members][:, :1]
        assert np.allclose(shapes, shapes[0], atol=1e-14)


def test_kuhn_main_diagonal():
    # every tetrahedron of a cell contains the low and high cell corners
    g = StructuredGrid((2, 2, 2))
    shape = g.node_shape
    diag = shape[1] * shape[2] + shape[2] + 1
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
    assert np.allclose(g.interpolate(values, pts), exact, atol=1e-12)


def test_interpolate_at_nodes_and_vector_values():
    g = StructuredGrid((3, 3))
    rng = np.random.default_rng(11)
    values = rng.normal(size=(g.n_nodes, 2))
    out = g.interpolate(values, g.node_coords)
    assert np.allclose(out, values, atol=1e-12)


def test_interpolate_clips_to_domain():
    g = StructuredGrid((2, 2))
    values = g.node_coords[:, 0]
    out = g.interpolate(values, np.array([[1.0 + 1e-9, 0.5], [-1e-9, 0.5]]))
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
    g = StructuredGrid((2, 2))
    with pytest.raises(ParameterError):
        g.interpolate(np.zeros(5), np.zeros((1, 2)))
