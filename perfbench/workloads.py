"""Benchmark workloads: fixed geometries, seeded inputs, stage lists.

Each workload is a closed-loop batch job: one pipeline run at a time, at a
fixed input size, with nothing arriving from outside. The geometry of each
workload is fixed because it decides which layer does the work; the seed
only changes the sampled fields, the weight initialisation and the split.
"""

import dataclasses

# Stage calls in command-line order: metric name -> (function name in
# poroscale.pipeline, extra positional arguments after (config, layout)).
STAGES = {
    "generate-fields": ("generate_fields_stage", ()),
    "homogenize": ("homogenize_stage", ()),
    "build-dataset": ("build_dataset_stage", ()),
    "train": ("train_stage", ()),
    "evaluate": ("evaluate_stage", ()),
    "predict": ("predict_stage", ()),
    "solve-fine": ("solve_fine_stage", ()),
    "solve-coarse-direct": ("solve_coarse_stage", ("direct",)),
    "solve-coarse-predicted": ("solve_coarse_stage", ("predicted",)),
    "report": ("report_stage", ()),
}

# The surrogate route the paper sells: prediction plus the coarse solve.
ONLINE_STAGES = ("predict", "solve-coarse-predicted")

FULL_ROUTE = tuple(STAGES)
PRODUCTION_ROUTE = tuple(s for s in STAGES if s not in ("solve-fine", "report"))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    fine_cells: tuple
    coarse_cells: tuple
    n_realizations: int
    n_test_realizations: int
    epochs: int
    stages: tuple
    # has acceptance criterion 4's geometry, so its direct coarse errors
    # are compared with that criterion's bounds
    criterion4: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="validate-2d",
            why=(
                "128x128 fine grid, 16x16 cell problems, all ten stage calls: "
                "the fine Biot LU dominates time and memory"
            ),
            preset="desk-test1",
            fine_cells=(128, 128),
            coarse_cells=(8, 8),
            n_realizations=2,
            n_test_realizations=1,
            epochs=16,
            stages=FULL_ROUTE,
            criterion4=True,
        ),
        Workload(
            name="upscale-3d",
            why=(
                "24^3 fine grid, 12^3 cell problems, production route without "
                "fine solves: 3D cell problems and 3D conv training dominate"
            ),
            preset="desk-test3",
            fine_cells=(24, 24, 24),
            coarse_cells=(2, 2, 2),
            n_realizations=1,
            n_test_realizations=1,
            epochs=15,
            stages=PRODUCTION_ROUTE,
        ),
        Workload(
            name="many-small-2d",
            why=(
                "32x32 fine grid, 8x8 cell problems, many realizations: bound "
                "by per-call and per-file cost; largest online route"
            ),
            preset="desk-mini",
            fine_cells=(32, 32),
            coarse_cells=(4, 4),
            n_realizations=24,
            n_test_realizations=12,
            epochs=12,
            stages=FULL_ROUTE,
        ),
    )
}


def seed_values(seed):
    """Non-negative seeds for the fields, the weights and the split."""
    base = int(seed) % (1 << 31)
    return base, base, base


def make_config(workload, seed, workdir):
    """The generated pipeline configuration for one seeded run.

    Imported lazily so that the orchestrator can start without the package.
    """
    from poroscale.config import load_preset

    config = load_preset(workload.preset)
    field_seed, train_seed, split_seed = seed_values(seed)
    return dataclasses.replace(
        config,
        name=f"bench-{workload.name}",
        workdir=str(workdir),
        n_realizations=workload.n_realizations,
        n_test_realizations=workload.n_test_realizations,
        threads=1,
        fine_cells=workload.fine_cells,
        coarse_cells=workload.coarse_cells,
        seed_base=field_seed,
        train=dataclasses.replace(
            config.train, epochs=workload.epochs, seed=train_seed
        ),
        split=dataclasses.replace(config.split, seed=split_seed),
    )
