"""Dataset assembly, scaling, splitting, and the on-disk format."""

import numpy as np
import pytest

from poroscale.arrayio import read_array, write_array
from poroscale.dataset import (
    TARGET_ELASTICITY,
    TARGET_PERMEABILITY,
    Dataset,
    Scaler,
    SplitSpec,
    build_dataset,
    load_dataset,
    load_scaler,
    patch_input_array,
    save_dataset,
    split,
    target_components,
)
from poroscale.errors import FormatError, ParameterError
from poroscale.grid import StructuredGrid
from poroscale.homogenize import extract_patches, homogenize_domain
from poroscale.random_field import PropertyFields


def small_dataset(n=10, n_l=4, d=2, n_out=3, seed=0):
    rng = np.random.default_rng(seed)
    scaler = Scaler(
        input_min=0.0,
        input_max=1.0,
        output_min=np.zeros(n_out),
        output_max=np.ones(n_out),
    )
    return Dataset(
        X=rng.random(size=(n,) + (n_l,) * d),
        Y=rng.random(size=(n, n_out)),
        realization=np.arange(n) // 4,
        cell=np.arange(n) % 4,
        scaler=scaler,
    )


def test_target_components():
    assert target_components(TARGET_PERMEABILITY, 2) == 3
    assert target_components(TARGET_PERMEABILITY, 3) == 6
    assert target_components(TARGET_ELASTICITY, 2) == 6
    assert target_components(TARGET_ELASTICITY, 3) == 21
    with pytest.raises(ParameterError):
        target_components("stress", 2)


def test_split_size_anchors():
    assert SplitSpec().sizes(1280) == (409, 103, 768)
    assert SplitSpec().sizes(10000) == (3200, 800, 6000)
    n_train, n_val, n_test = SplitSpec().sizes(7)
    assert n_train + n_val + n_test == 7


def test_scaler_round_trip():
    rng = np.random.default_rng(2)
    scaler = Scaler(
        input_min=-1.5,
        input_max=4.0,
        output_min=np.array([0.1, -2.0, 5.0]),
        output_max=np.array([0.9, 3.0, 5.0]),  # last component degenerate
    )
    x = rng.uniform(-1.5, 4.0, size=(6, 4, 4))
    scaled = scaler.scale_input(x)
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0
    y = rng.uniform(-2.0, 3.0, size=(6, 3))
    y[:, 2] = 5.0
    sy = scaler.scale_output(y)
    assert np.allclose(sy[:, 2], 0.0)
    back = scaler.unscale_output(sy)
    assert np.allclose(back, y, atol=1e-12)


def test_degenerate_input_range():
    scaler = Scaler(2.0, 2.0, np.zeros(1), np.ones(1))
    assert scaler.input_degenerate
    assert np.allclose(scaler.scale_input(np.full(5, 2.0)), 0.0)


@pytest.mark.parametrize(
    "d, fine, coarse",
    [(2, 32, 4), (2, 16, 1), (3, 24, 2), (3, 12, 3)],
    ids=["32x32-4x4", "16x16-1x1", "24^3-2^3", "12^3-3^3"],
)
def test_patch_input_array_equals_patch_windows(d, fine, coarse):
    grid = StructuredGrid((fine,) * d)
    rng = np.random.default_rng(fine)
    fields = PropertyFields(
        perm=rng.normal(size=grid.n_nodes), young=rng.normal(size=grid.n_nodes), eta=0.3
    )
    patch_grid, patches = extract_patches(grid, (coarse,) * d, fields)
    n_l = fine // coarse
    inputs = patch_input_array(grid, (coarse,) * d, fields.perm)
    assert inputs.shape == (coarse**d,) + (n_l,) * d
    # each overlapping (N_l+1)^d window without its far-edge slice
    windows = np.stack(
        [p.perm.reshape(patch_grid.node_shape)[(slice(0, n_l),) * d] for p in patches]
    )
    assert np.array_equal(inputs, windows)


def test_split_deterministic_disjoint_exhaustive():
    ds = small_dataset(n=50)
    parts = split(ds, SplitSpec(seed=3))
    again = split(ds, SplitSpec(seed=3))
    other = split(ds, SplitSpec(seed=4))
    sizes = {k: len(v) for k, v in parts.items()}
    assert sizes == {"train": 16, "val": 4, "test": 30}
    assert np.array_equal(parts["train"].X, again["train"].X)
    assert not np.array_equal(parts["train"].X, other["train"].X)
    ids = np.concatenate(
        [p.realization * 4 + p.cell for p in parts.values()]
    )
    assert np.array_equal(np.sort(ids), np.sort(ds.realization * 4 + ds.cell))


def test_build_dataset_order_and_scaling():
    fine = StructuredGrid((8, 8))
    rng = np.random.default_rng(5)
    realizations = [
        PropertyFields(
            perm=np.exp(rng.normal(size=fine.n_nodes)),
            young=10.0 + rng.normal(size=fine.n_nodes),
            eta=0.3,
        )
        for _ in range(3)
    ]
    tensors = [homogenize_domain(fine, (2, 2), f) for f in realizations]
    ds = build_dataset(fine, (2, 2), realizations, tensors, TARGET_PERMEABILITY)
    assert len(ds) == 12
    assert ds.patch_size == 4
    assert ds.n_out == 3
    # realization-major, cells row-major: flat index l * N_c + i
    assert np.array_equal(ds.realization, np.repeat(np.arange(3), 4))
    assert np.array_equal(ds.cell, np.tile(np.arange(4), 3))
    assert ds.X.min() == pytest.approx(0.0, abs=1e-15)
    assert ds.X.max() == pytest.approx(1.0, abs=1e-15)
    # global input bounds come from the raw permeability over all samples
    raw_min = min(
        f.perm.reshape(9, 9)[:8, :8].min() for f in realizations
    )
    assert ds.scaler.input_min == pytest.approx(raw_min)
    # scaled targets de-scale to the stored upper triangles
    back = ds.scaler.unscale_output(ds.Y)
    k0 = tensors[1].perm[2]
    expected = np.array([k0[0, 0], k0[0, 1], k0[1, 1]])  # row-major upper triangle
    assert np.allclose(back[6], expected, atol=1e-12)


def test_build_dataset_input_validation():
    fine = StructuredGrid((8, 8))
    with pytest.raises(ParameterError):
        build_dataset(fine, (2, 2), [], [], TARGET_PERMEABILITY)


def test_save_load_round_trip(tmp_path):
    for d, n_out in ((2, 3), (3, 21)):
        ds = small_dataset(n=17, d=d, n_out=n_out, seed=11)
        ds.scaler.output_min = np.linspace(-1.0, 0.5, n_out)
        path = tmp_path / f"set{d}"
        save_dataset(ds, path)
        members = sorted(p.name for p in path.iterdir())
        assert members == ["ids.nhar", "inputs.nhar", "outputs.nhar", "scaler.nhar"]
        assert read_array(path / "inputs.nhar").shape == (17,) + (4,) * d
        assert read_array(path / "scaler.nhar").shape == (2, 1 + n_out)
        back = load_dataset(path)
        assert back.dimension == ds.dimension
        assert back.patch_size == ds.patch_size
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.Y, ds.Y)
        assert np.array_equal(back.realization, ds.realization)
        assert np.array_equal(back.cell, ds.cell)
        assert back.realization.dtype == back.cell.dtype == np.int64
        assert back.scaler.input_min == ds.scaler.input_min
        assert back.scaler.input_max == ds.scaler.input_max
        assert np.array_equal(back.scaler.output_min, ds.scaler.output_min)
        assert np.array_equal(back.scaler.output_max, ds.scaler.output_max)


def test_load_scaler_equals_dataset_scaler(tmp_path):
    ds = small_dataset(n=5, seed=2)
    ds.scaler.input_min, ds.scaler.input_max = -0.25, 3.5
    save_dataset(ds, tmp_path / "set")
    alone = load_scaler(tmp_path / "set")
    full = load_dataset(tmp_path / "set").scaler
    assert (alone.input_min, alone.input_max) == (full.input_min, full.input_max)
    assert np.array_equal(alone.output_min, full.output_min)
    assert np.array_equal(alone.output_max, full.output_max)


@pytest.mark.parametrize("member", ["inputs", "outputs", "ids", "scaler"])
def test_load_rejects_missing_member(tmp_path, member):
    save_dataset(small_dataset(n=3), tmp_path / "set")
    (tmp_path / "set" / f"{member}.nhar").unlink()
    with pytest.raises(FormatError, match=f"{member}.nhar"):
        load_dataset(tmp_path / "set")


@pytest.mark.parametrize(
    "member, shape",
    [
        ("inputs", (4, 4, 4)),
        ("outputs", (4, 3)),
        ("outputs", (3, 2)),
        ("ids", (2, 2)),
        ("scaler", (2, 5)),
        ("scaler", (3,)),
        ("inputs", (3, 4, 5)),
        ("inputs", (3, 4)),
    ],
)
def test_load_rejects_mismatched_members(tmp_path, member, shape):
    save_dataset(small_dataset(n=3), tmp_path / "set")
    write_array(tmp_path / "set" / f"{member}.nhar", np.zeros(shape))
    with pytest.raises(FormatError, match=f"{member}.nhar"):
        load_dataset(tmp_path / "set")


def test_load_rejects_output_count_of_no_target(tmp_path):
    # members agree on N_out = 5, but 2D targets have 3 or 6 components
    save_dataset(small_dataset(n=3, n_out=5), tmp_path / "set")
    with pytest.raises(FormatError, match="no target has 5 components in 2D"):
        load_dataset(tmp_path / "set")


@pytest.mark.parametrize("n, empty", [(1, "train, test"), (2, "train")])
def test_split_rejects_empty_parts(n, empty):
    with pytest.raises(ParameterError, match=f"empty {empty} split") as info:
        split(small_dataset(n=n))
    assert str(SplitSpec().sizes(n)) in str(info.value)


def test_split_spec_validation():
    with pytest.raises(ParameterError):
        SplitSpec(test_fraction=1.0)
    with pytest.raises(ParameterError):
        SplitSpec(train_ratio=0.0)
