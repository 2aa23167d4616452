"""Acceptance suite: one test per shipped claim, one verdict line each.

The desk-scale fixtures run the real pipeline stages into session
temporary directories, so every number below is produced by the same
code paths the command line drives. The whole module carries the
``slow`` marker: ``python -m pytest -m "not slow"`` runs the rest of the
suite in under a minute.
"""

import dataclasses
import time

import numpy as np
import pytest

from poroscale.cli import main
from poroscale.config import load_preset
from poroscale.dataset import (
    TARGET_ELASTICITY,
    TARGET_PERMEABILITY,
    load_dataset,
    load_scaler,
    split,
)
from poroscale.elasticity import isotropic_stiffness
from poroscale.fem import P1Space
from poroscale.grid import StructuredGrid
from poroscale.homogenize import (
    PatchEngine,
    effective_elasticity,
    effective_permeability,
    homogenize_domain,
)
from poroscale.arrayio import read_array
from poroscale.pipeline import (
    DIRECT,
    PREDICTED,
    RunLayout,
    build_dataset_stage,
    evaluate_stage,
    generate_fields_stage,
    homogenize_stage,
    predict_stage,
    predict_tensors,
    report_stage,
    solve_coarse_stage,
    solve_fine_stage,
    held_out_indices,
    train_stage,
)
from poroscale.random_field import (
    CovarianceSpec,
    build_kl_basis,
    field_to_properties,
    sample_field,
)
from poroscale.surrogate.network import build_network, load_network
from poroscale.surrogate.training import compute_metrics

pytestmark = pytest.mark.slow

TARGETS = (TARGET_PERMEABILITY, TARGET_ELASTICITY)


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Fields and direct tensors for the 2D desk preset (20 + 3 domains)."""
    config = dataclasses.replace(
        load_preset("desk-test1"),
        workdir=str(tmp_path_factory.mktemp("desk16")),
    )
    layout = RunLayout(config.workdir)
    t0 = time.perf_counter()
    generate_fields_stage(config, layout)
    homogenize_stage(config, layout)
    return config, layout, time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk_run_trained(desk_run):
    """Datasets, trained networks, and split metrics on top of desk_run."""
    config, layout, base_elapsed = desk_run
    t0 = time.perf_counter()
    build_dataset_stage(config, layout)
    train_stage(config, layout)
    metrics = evaluate_stage(config, layout)
    elapsed = base_elapsed + time.perf_counter() - t0
    return config, layout, metrics, elapsed


@pytest.fixture(scope="session")
def surrogate_run(tmp_path_factory):
    """Full surrogate-in-the-loop preset: train, predict, both coarse solves."""
    config = dataclasses.replace(
        load_preset("desk-surrogate"),
        workdir=str(tmp_path_factory.mktemp("surrogate")),
    )
    layout = RunLayout(config.workdir)
    t0 = time.perf_counter()
    generate_fields_stage(config, layout)
    homogenize_stage(config, layout)
    build_dataset_stage(config, layout)
    train_stage(config, layout)
    predict_stage(config, layout)
    solve_coarse_stage(config, layout, DIRECT)
    solve_coarse_stage(config, layout, PREDICTED)
    return config, layout, time.perf_counter() - t0


def test_criterion_01_constant_coefficients(criterion):
    grid = StructuredGrid((8, 8))
    t0 = time.perf_counter()
    engine = PatchEngine(grid, 0.25)
    kstar = effective_permeability(engine, np.full(grid.n_nodes, 3.7))
    cstar = effective_elasticity(engine, np.ones(grid.n_nodes))
    elapsed = time.perf_counter() - t0
    k_offset = np.abs(kstar - 3.7 * np.eye(2)).max()
    c_offset = np.abs(cstar - isotropic_stiffness(1.0, 0.25, 2)).max()
    ok = criterion(
        1,
        k_offset <= 1e-10 and c_offset <= 1e-8 and elapsed < 1.0,
        f"constant patches exact: k* offset {k_offset:.2e} (tol 1e-10), "
        f"C* offset {c_offset:.2e} (tol 1e-8), {elapsed:.2f}s (< 1s)",
    )
    assert ok


def test_criterion_02_laminate_oracle(criterion):
    grid = StructuredGrid((256, 256))
    centers = grid.node_coords[grid.elements].mean(axis=1)
    layer = np.minimum((centers[:, 1] * 128).astype(int), 127)
    k_e = np.where(layer % 2 == 0, 1.0, 4.0)
    t0 = time.perf_counter()
    raw = PatchEngine(grid, 0.3).permeability(k_e)
    kstar = 0.5 * (raw + raw.T)
    elapsed = time.perf_counter() - t0
    err11 = abs(kstar[0, 0] - 2.5) / 2.5
    err22 = abs(kstar[1, 1] - 1.6) / 1.6
    off = abs(kstar[0, 1])
    ok = criterion(
        2,
        err11 <= 0.01 and err22 <= 0.01 and off < 1e-3 and elapsed < 5.0,
        f"laminate k* diag ({kstar[0, 0]:.4f}, {kstar[1, 1]:.4f}) vs (2.5, 1.6) "
        f"within 1%, |k12| {off:.1e} < 1e-3, {elapsed:.2f}s (< 5s)",
    )
    assert ok


def test_criterion_03_bounds_property_suite(criterion):
    grid = StructuredGrid((16, 16))
    basis = build_kl_basis(grid, CovarianceSpec(sigma2=2.0, length_sq=(0.2, 0.2)))
    t0 = time.perf_counter()
    engine = PatchEngine(grid, 0.3)
    satisfied = 0
    for trial in range(200):
        k = np.exp(sample_field(basis, (555, trial)))
        k_e = engine.element_values(k)
        raw = engine.permeability(k_e)
        kstar = 0.5 * (raw + raw.T)
        harmonic = 1.0 / np.mean(1.0 / k_e)
        arithmetic = np.mean(k_e)
        eigs = np.linalg.eigvalsh(kstar)
        symmetric = np.abs(raw - raw.T).max() <= 1e-8 * np.abs(kstar).max()
        spd = eigs.min() > 0.0
        bounded = (
            eigs.min() >= harmonic * (1.0 - 1e-6)
            and eigs.max() <= arithmetic * (1.0 + 1e-6)
        )
        satisfied += int(symmetric and spd and bounded)
    elapsed = time.perf_counter() - t0
    ok = criterion(
        3,
        satisfied == 200 and elapsed < 120.0,
        f"lognormal patches (sigma2=2): {satisfied}/200 satisfy symmetry, SPD, "
        f"harmonic/arithmetic bounds, {elapsed:.1f}s (< 2min)",
    )
    assert ok


def test_criterion_04_homogenization_error(criterion, desk_run):
    config, layout, base_elapsed = desk_run
    t0 = time.perf_counter()
    solve_fine_stage(config, layout)
    solve_coarse_stage(config, layout, DIRECT)
    report_stage(config, layout)
    elapsed = base_elapsed + time.perf_counter() - t0
    rows = layout.errors_csv.read_text(encoding="utf-8").splitlines()[1:]
    direct = np.array(
        [
            [float(v) for v in line.split(",")[3:]]
            for line in rows
            if line.split(",")[1] == DIRECT
        ]
    )
    mean = direct.mean(axis=0)
    bounds = np.array([10.0, 25.0, 15.0, 25.0])
    ok = criterion(
        4,
        direct.shape[0] == 3 and np.all(mean <= bounds) and elapsed < 600.0,
        f"coarse-vs-fine errors over 3 domains: e_p L2 {mean[0]:.2f}% (<=10), "
        f"e_p en {mean[1]:.2f}% (<=25), e_u L2 {mean[2]:.2f}% (<=15), "
        f"e_u en {mean[3]:.2f}% (<=25), {elapsed:.0f}s (< 10min)",
    )
    assert ok


def fd_probe_error(network, x, n_probes, seed, eps=1e-6):
    """Worst relative error of backprop against central differences."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=network.forward(x).shape)

    def loss():
        return float(np.sum(network.forward(x) * w))

    loss()
    network.backward(w)
    grads = [g.copy() for g in network.grads]
    sizes = np.array([p.size for p in network.params])
    offsets = np.cumsum(sizes)
    worst = 0.0
    for flat in rng.choice(int(offsets[-1]), size=n_probes, replace=False):
        which = int(np.searchsorted(offsets, flat, side="right"))
        inner = int(flat - (offsets[which - 1] if which else 0))
        param = network.params[which].reshape(-1)
        keep = param[inner]
        param[inner] = keep + eps
        up = loss()
        param[inner] = keep - eps
        down = loss()
        param[inner] = keep
        fd = (up - down) / (2.0 * eps)
        a = grads[which].reshape(-1)[inner]
        worst = max(worst, abs(fd - a) / max(abs(a), abs(fd), 1e-8))
    return worst


def test_criterion_05_gradient_correctness(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    net2 = build_network(2, 16, 3, dropout=0.0, seed=42)
    err2 = fd_probe_error(net2, rng.normal(size=(2, 1, 16, 16)), 50, seed=43)
    net3 = build_network(3, 12, 6, dropout=0.0, seed=44)
    err3 = fd_probe_error(net3, rng.normal(size=(2, 1, 12, 12, 12)), 50, seed=45)
    elapsed = time.perf_counter() - t0
    ok = criterion(
        5,
        err2 < 1e-4 and err3 < 1e-4 and elapsed < 120.0,
        f"finite-difference gradients, 50 parameters each: 2D worst {err2:.2e}, "
        f"3D worst {err3:.2e} (tol 1e-4), {elapsed:.1f}s (< 2min)",
    )
    assert ok


def test_criterion_06_learning_desk_scale(criterion, desk_run_trained):
    config, layout, metrics, elapsed = desk_run_trained
    ds = load_dataset(layout.dataset_path(TARGET_PERMEABILITY))
    parts = split(ds, config.split)
    sizes = (len(parts["train"]), len(parts["val"]), len(parts["test"]))
    rmse_perm = metrics[TARGET_PERMEABILITY]["test_rmse_pct"]
    rmse_elast = metrics[TARGET_ELASTICITY]["test_rmse_pct"]
    ok = criterion(
        6,
        len(ds) == 1280
        and sizes == (409, 103, 768)
        and rmse_perm <= 8.0
        and rmse_elast <= 5.0
        and elapsed < 1800.0,
        f"20 domains, split {sizes[0]}/{sizes[1]}/{sizes[2]}: test RMSE "
        f"permeability {rmse_perm:.2f}% (<=8), elasticity {rmse_elast:.2f}% "
        f"(<=5), {elapsed:.0f}s (< 30min)",
    )
    assert ok


def test_criterion_07_surrogate_in_loop(criterion, surrogate_run):
    config, layout, elapsed = surrogate_run
    coarse = StructuredGrid(config.coarse_cells)
    mass = P1Space(coarse).assemble_mass(1.0)
    dps, dus = [], []
    for index in held_out_indices(config):
        p_ref = read_array(layout.state_path("coarse_direct", index, "p"))[-1]
        p_sur = read_array(layout.state_path("coarse_predicted", index, "p"))[-1]
        dp = p_ref - p_sur
        dps.append(
            100.0
            * np.sqrt(float(dp @ (mass @ dp)) / float(p_ref @ (mass @ p_ref)))
        )
        u_ref = read_array(layout.state_path("coarse_direct", index, "u"))[-1]
        u_sur = read_array(layout.state_path("coarse_predicted", index, "u"))[-1]
        du = (u_ref - u_sur).reshape(-1, 2)
        uu = u_ref.reshape(-1, 2)
        num = sum(float(du[:, c] @ (mass @ du[:, c])) for c in range(2))
        den = sum(float(uu[:, c] @ (mass @ uu[:, c])) for c in range(2))
        dus.append(100.0 * np.sqrt(num / den))
    worst_p, worst_u = max(dps), max(dus)
    ok = criterion(
        7,
        len(dps) == 10 and worst_p <= 5.0 and worst_u <= 5.0 and elapsed < 900.0,
        f"predicted vs direct coarse solves, 10 fresh domains: worst dp "
        f"{worst_p:.2f}%, worst du {worst_u:.2f}% (<=5 each), "
        f"{elapsed:.0f}s (< 15min)",
    )
    assert ok


def test_criterion_08_speedup(criterion, desk_run_trained):
    config, layout, _, _ = desk_run_trained
    networks = {t: load_network(layout.model_path(t)) for t in TARGETS}
    scalers = {t: load_scaler(layout.dataset_path(t)) for t in TARGETS}

    def best_of_3(route):
        # one warm-up call, then the fastest of three timed calls
        route()
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            route()
            best = min(best, time.perf_counter() - t0)
        return best

    speedups = []
    for j, (fine_cells, coarse_cells) in enumerate(
        [((64, 64), (4, 4)), ((128, 128), (8, 8)), ((256, 256), (16, 16))]
    ):
        grid = StructuredGrid(fine_cells)
        basis = build_kl_basis(grid, config.field)
        fields = field_to_properties(sample_field(basis, (4096, j)), config.props)
        direct_s = best_of_3(
            lambda: homogenize_domain(grid, coarse_cells, fields, threads=1)
        )
        online_s = best_of_3(
            lambda: predict_tensors(networks, scalers, grid, coarse_cells, fields)
        )
        speedups.append(direct_s / online_s)
    ok = criterion(
        8,
        speedups[1] >= 5.0
        and all(s > 1.0 for s in speedups)
        and speedups[0] < speedups[1] < speedups[2],
        f"prediction vs direct local solves: x{speedups[0]:.1f}/x{speedups[1]:.1f}/"
        f"x{speedups[2]:.1f} at 16/64/256 patches, desk >=5 and monotone "
        f"(full-scale anchors x76 to x289 not expected on desk hardware)",
    )
    assert ok


def test_criterion_09_determinism(criterion, tmp_path):
    stages = [
        ["generate-fields"],
        ["homogenize"],
        ["build-dataset"],
        ["train"],
        ["evaluate"],
        ["predict"],
        ["solve-fine"],
        ["solve-coarse", "--tensors", "direct"],
        ["solve-coarse", "--tensors", "predicted"],
        ["report"],
    ]
    roots = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        for stage in stages:
            argv = stage + ["--preset", "desk-mini", "--workdir", str(workdir)]
            assert main(argv) == 0, stage
        roots.append(workdir)
    compared = 0
    identical = True
    patterns = (
        "fields/*.nhar",
        "tensors/*.nhar",
        "predicted/*.nhar",
        "states/*.nhar",
        "datasets/*/*.nhar",
        "models/*/*.nhar",
        "models/*.csv",
        "metrics/*.csv",
        "report/errors.csv",
    )
    for pattern in patterns:
        first = sorted(roots[0].glob(pattern))
        second = sorted(roots[1].glob(pattern))
        assert [p.name for p in first] == [p.name for p in second]
        assert first, pattern
        for a, b in zip(first, second):
            compared += 1
            if a.read_bytes() != b.read_bytes():
                identical = False
    ok = criterion(
        9,
        identical and compared >= 20,
        f"two identically seeded end-to-end runs: {compared} artifacts "
        f"(datasets, weights, states, CSVs) byte-identical",
    )
    assert ok


def test_criterion_10_metric_formulas(criterion):
    metrics = compute_metrics(np.array([[1.0, 1.0]]), np.array([[2.0, 0.0]]))
    mse_err = abs(metrics[0, 0] - 2.0)
    mae_err = abs(metrics[0, 1] - 100.0)
    rmse_err = abs(metrics[0, 2] - 100.0 * np.sqrt(0.5))
    ok = criterion(
        10,
        mse_err <= 1e-12 and mae_err <= 1e-12 and rmse_err <= 1e-12,
        f"metric anchors Y=(2,0) vs (1,1): MSE 2, MAE 100%, RMSE 70.71% "
        f"(offsets {mse_err:.1e}/{mae_err:.1e}/{rmse_err:.1e}, tol 1e-12)",
    )
    assert ok
