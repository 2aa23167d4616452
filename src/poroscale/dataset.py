"""Patch-to-tensor learning datasets: construction, scaling, splitting, files.

A sample pairs one coarse cell's patch of a property field with the m(m+1)/2
upper-triangle entries of that cell's effective m x m tensor. ``TARGETS`` is
the one table of each target's :class:`PropertyFields` field, its
:class:`EffectiveTensors` tensor, the kind of its tensor files
(``real_<l>_<kind>.nhar``), its :class:`PatchEngine` operator and m in d
dimensions; no other module branches on a target:

    target        field  tensor     kind   operator    m
    permeability  perm   perm       perm   diffusion   d
    elasticity    young  stiffness  stiff  elasticity  d(d+1)/2

Patches drop the duplicated far-edge node slice, so inputs are N_l^d arrays
where N_l is the fine-per-coarse cell ratio.

Inputs are min-max scaled with one global (dataset-wide) range; each output
component is min-max scaled separately. Scaling happens before splitting.

A dataset is stored as a directory of NHAR array files
(:mod:`poroscale.arrayio`), whose shapes carry L, d, N_l and N_out:

    inputs.nhar   (L, N_l, ..., N_l)  scaled inputs, d patch axes
    outputs.nhar  (L, N_out)          scaled outputs
    ids.nhar      (L, 2)              realization id, cell id
    scaler.nhar   (2, 1 + N_out)      minima, then maxima: input, outputs

A :class:`Scaler` is the ``scaler.nhar`` table itself, and that member
alone is enough to scale new inputs (:func:`load_scaler`).
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .arrayio import read_member, write_members
from .elasticity import n_strain_components, upper_triangle
from .errors import FormatError, ParameterError
from .homogenize import cell_windows

TARGET_PERMEABILITY = "permeability"
TARGET_ELASTICITY = "elasticity"


Target = namedtuple("Target", "field tensor kind operator size")
TARGETS = {
    TARGET_PERMEABILITY: Target("perm", "perm", "perm", "diffusion", lambda d: d),
    TARGET_ELASTICITY: Target(
        "young", "stiffness", "stiff", "elasticity", n_strain_components
    ),
}


def target_components(target, d):
    """Flattened output length N_out for a prediction target."""
    if target not in TARGETS:
        raise ParameterError(f"unknown target {target!r}")
    m = TARGETS[target].size(d)
    return m * (m + 1) // 2


@dataclass
class Scaler:
    """Min-max ranges of the raw dataset as the stored (2, 1 + N_out) table:
    minima, then maxima; column 0 the input, then one per output component.
    Degenerate (empty) ranges scale to 0 and un-scale to their constant value.
    """

    table: np.ndarray

    @property
    def degenerate(self):
        return self.table[1] <= self.table[0]

    def _scale(self, values, columns):
        (lo, hi), empty = self.table[:, columns], self.degenerate[columns]
        scaled = (np.asarray(values, dtype=float) - lo) / np.where(empty, 1.0, hi - lo)
        return np.where(empty, 0.0, scaled)

    def scale_input(self, values):
        return self._scale(values, 0)

    def scale_output(self, values):
        return self._scale(values, slice(1, None))

    def unscale_output(self, values):
        lo, hi = self.table[:, 1:]
        values = np.asarray(values, dtype=float)
        return np.where(self.degenerate[1:], lo, lo + values * (hi - lo))


@dataclass(frozen=True)
class SplitSpec:
    """Holdout split: test fraction first, then train:val on the remainder."""

    test_fraction: float = 0.6
    train_ratio: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ParameterError("test fraction must lie in (0, 1)")
        if not 0.0 < self.train_ratio < 1.0:
            raise ParameterError("train ratio must lie in (0, 1)")

    def sizes(self, total):
        """(n_train, n_val, n_test): floors, remainder goes to validation."""
        n_test = int(np.floor(self.test_fraction * total))
        held_in = total - n_test
        n_train = int(np.floor(self.train_ratio * held_in))
        return n_train, held_in - n_train, n_test


@dataclass
class Dataset:
    """Scaled samples plus ids and the scaler that produced them.

    ``X`` is (L, N_l, ...) with d spatial axes; ``Y`` is (L, N_out).
    """

    X: np.ndarray
    Y: np.ndarray
    realization: np.ndarray
    cell: np.ndarray
    scaler: Scaler

    def __len__(self):
        return self.X.shape[0]

    @property
    def dimension(self):
        return self.X.ndim - 1

    @property
    def patch_size(self):
        return self.X.shape[1]

    @property
    def n_out(self):
        return self.Y.shape[1]

    def subset(self, indices):
        picked = (a[indices] for a in (self.X, self.Y, self.realization, self.cell))
        return Dataset(*picked, self.scaler)


def patch_input_array(fine_grid, coarse_cells, values):
    """Network inputs of every coarse cell of one nodal field, row-major.

    Each cell's window of (N_l+1)^d nodes (:func:`cell_windows`) without
    its far-edge slice, so the inputs have shape (N_c, N_l, ..., N_l).
    """
    d = fine_grid.dimension
    windows = cell_windows(fine_grid, coarse_cells, values)
    n_l = windows.shape[-1] - 1
    return windows[(Ellipsis,) + (slice(0, -1),) * d].reshape((-1,) + (n_l,) * d)


def build_dataset(fine_grid, coarse_cells, realizations, tensors, target):
    """Assemble and scale the full dataset.

    ``realizations`` is a sequence of property fields and ``tensors`` the
    matching per-realization effective tensors (same order). Sample order
    is realization-major, cells row-major within each realization, so the
    flat index is l * N_c + i.
    """
    if len(realizations) < 1:
        raise ParameterError("at least one realization is required")
    if len(realizations) != len(tensors):
        raise ParameterError("realization and tensor counts differ")
    target_components(target, fine_grid.dimension)  # rejects an unknown target
    n_cells = int(np.prod(coarse_cells))
    if any(eff.n_cells != n_cells for eff in tensors):
        raise ParameterError(f"every realization needs {n_cells} cell tensors")

    spec = TARGETS[target]
    values = [getattr(f, spec.field) for f in realizations]
    X = np.concatenate([patch_input_array(fine_grid, coarse_cells, v) for v in values])
    Y = upper_triangle(np.concatenate([getattr(eff, spec.tensor) for eff in tensors]))
    scaler = Scaler(np.array([np.r_[X.min(), Y.min(0)], np.r_[X.max(), Y.max(0)]]))
    n_real = len(realizations)
    return Dataset(
        X=scaler.scale_input(X),
        Y=scaler.scale_output(Y),
        realization=np.repeat(np.arange(n_real, dtype=np.int64), n_cells),
        cell=np.tile(np.arange(n_cells, dtype=np.int64), n_real),
        scaler=scaler,
    )


def split(dataset, spec=SplitSpec()):
    """Seeded shuffle, then partition into train/val/test subsets."""
    total = len(dataset)
    sizes = spec.sizes(total)
    empty = [name for name, n in zip(("train", "val", "test"), sizes) if n == 0]
    if empty:
        raise ParameterError(
            f"{total} samples give train/val/test sizes {sizes}: "
            f"empty {', '.join(empty)} split; more samples are needed"
        )
    n_train, n_val, _ = sizes
    order = np.random.default_rng(spec.seed).permutation(total)
    return {
        "train": dataset.subset(order[:n_train]),
        "val": dataset.subset(order[n_train : n_train + n_val]),
        "test": dataset.subset(order[n_train + n_val :]),
    }


def save_dataset(dataset, path):
    """Write the dataset's member arrays into the directory ``path``."""
    members = {
        "inputs": dataset.X,
        "outputs": dataset.Y,
        "ids": np.stack([dataset.realization, dataset.cell], axis=1),
        "scaler": dataset.scaler.table,
    }
    write_members(path, members)


def _bad_member(path, name, shape, expected):
    return FormatError(
        f"{path}: dataset member {name}.nhar has shape {shape}, expected {expected}"
    )


def load_scaler(path):
    """The scaler of the dataset stored in ``path``, read on its own; its
    table must be finite, with no maximum below its minimum."""
    table = read_member(path, "scaler")
    if table.ndim != 2 or table.shape[0] != 2 or table.shape[1] < 2:
        raise _bad_member(path, "scaler", table.shape, "(2, 1 + N_out)")
    if not np.isfinite(table).all() or (table[1] < table[0]).any():
        raise FormatError(
            f"{path}: dataset member scaler.nhar must be finite, with no "
            f"maximum below its minimum; got {table.tolist()}"
        )
    return Scaler(table)


def load_dataset(path):
    """Read a dataset directory; members must agree in L, d, N_l and N_out."""
    scaler = load_scaler(path)
    X = read_member(path, "inputs")
    Y = read_member(path, "outputs")
    ids = read_member(path, "ids")
    total, d, n_out = len(X), X.ndim - 1, scaler.table.shape[1] - 1
    if d not in (2, 3) or len(set(X.shape[1:])) != 1:
        raise _bad_member(path, "inputs", X.shape, "(L, N_l, ..., N_l), d = 2 or 3")
    for name, values, shape, source in (
        ("outputs", Y, (total, n_out), "L of inputs.nhar, N_out of scaler.nhar"),
        ("ids", ids, (total, 2), "L of inputs.nhar"),
    ):
        if values.shape != shape:
            raise _bad_member(path, name, values.shape, f"{shape} ({source})")
    if n_out not in [target_components(t, d) for t in TARGETS]:
        raise FormatError(f"{path}: no target has {n_out} components in {d}D")
    realization, cell = ids.T.astype(np.int64, order="C")
    return Dataset(X, Y, realization, cell, scaler)
