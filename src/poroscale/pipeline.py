"""Pipeline stages over a run directory.

Each stage reads the artifacts of earlier stages from the run directory
and writes its own in documented formats. Realizations 0 .. M-1 form the
training corpus; the next ``n_test_realizations`` indices are held-out
domains used for the solve and report stages. All stages are
deterministic given the configuration, so reruns reproduce every artifact
byte for byte (timing files excluded).

Every stage keeps one record, a flat JSON object: ``stage`` (the stage
name), ``total_s`` (its wall time), one ``<span>_s`` entry per timed span
(a number, or one number per realization index or target) and its counts,
such as ``kl_terms``, ``sizes`` or ``optimizer_steps``. A stage that
finishes writes the record to ``timing/<stage>.json`` and returns it, and
the CLI prints it; a stage that fails writes none.

Layout inside the run directory:

    fields/real_<l>_{perm,young}.nhar     nodal property arrays
    tensors/real_<l>_{perm,stiff}.nhar    effective tensors (direct)
    predicted/real_<l>_{perm,stiff}.nhar  effective tensors (surrogate)
    datasets/<target>/<member>.nhar       inputs, outputs, ids, scaler
    models/<target>/<member>.nhar         architecture, weights
    models/loss_<target>.csv              training loss history
    metrics/<target>.csv
    states/{fine,coarse_direct,coarse_predicted}_<l>_{p,u}.nhar
    timing/<stage>.json
    report/errors.csv, report/summary.txt
"""

import contextlib
import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from .arrayio import read_array, write_array
from .dataset import (
    TARGET_ELASTICITY,
    TARGET_PERMEABILITY,
    build_dataset,
    load_dataset,
    load_scaler,
    patch_input_array,
    save_dataset,
    split,
)
from .elasticity import n_strain_components
from .errors import ParameterError, PipelineError
from .grid import StructuredGrid
from .homogenize import (
    EffectiveTensors,
    PatchEngine,
    homogenize_domain,
    patch_grid,
)
from .poro import PoroState, error_norms, solve_coarse, solve_poroelasticity
from .random_field import PropertyFields, build_kl_basis, field_to_properties, sample_field
from .surrogate import (
    build_network,
    evaluate,
    load_network,
    predict_effective,
    save_network,
    train,
)

TARGETS = (TARGET_PERMEABILITY, TARGET_ELASTICITY)

DIRECT = "direct"
PREDICTED = "predicted"

REFERENCE_SPEEDUP_NOTE = (
    "full-scale reference range: x76 to x289 (not expected at desk scale)"
)


class RunLayout:
    """Path bookkeeping for one run directory."""

    def __init__(self, root):
        self.root = Path(root)

    def dir(self, name):
        path = self.root / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def field_path(self, index, prop):
        return self.root / "fields" / f"real_{index:04d}_{prop}.nhar"

    def tensor_path(self, index, kind, source=DIRECT):
        sub = "tensors" if source == DIRECT else "predicted"
        return self.root / sub / f"real_{index:04d}_{kind}.nhar"

    def dataset_path(self, target):
        return self.root / "datasets" / target

    def model_path(self, target):
        return self.root / "models" / target

    def loss_path(self, target):
        return self.root / "models" / f"loss_{target}.csv"

    def metrics_path(self, target):
        return self.root / "metrics" / f"{target}.csv"

    def state_path(self, kind, index, part):
        return self.root / "states" / f"{kind}_{index:04d}_{part}.nhar"

    def timing_path(self, stage):
        return self.root / "timing" / f"{stage}.json"

    @property
    def errors_csv(self):
        return self.root / "report" / "errors.csv"

    @property
    def summary_txt(self):
        return self.root / "report" / "summary.txt"


def train_indices(config):
    return range(config.n_realizations)


def held_out_indices(config):
    start = config.n_realizations
    return range(start, start + config.n_test_realizations)


def all_indices(config):
    return range(config.n_realizations + config.n_test_realizations)


def _require(path, command):
    if not Path(path).exists():
        raise PipelineError(f"missing {path}; run `poroscale {command}` first")


class StageRecord(dict):
    """One stage's record: counts as plain items, spans as ``<name>_s``."""

    def put(self, name, key, value):
        """Set ``self[name][str(key)]``, one entry per index or target."""
        self.setdefault(name, {})[str(key)] = value

    @contextlib.contextmanager
    def span(self, name, key=None):
        """Time the block as ``<name>_s``, or as its entry ``key``."""
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0
        if key is None:
            self[f"{name}_s"] = seconds
        else:
            self.put(f"{name}_s", key, seconds)


@contextlib.contextmanager
def _stage(layout, name):
    """Yield the stage's record; on normal exit time it and write it."""
    record = StageRecord()
    t0 = time.perf_counter()
    yield record
    record["stage"] = name
    record["total_s"] = time.perf_counter() - t0
    layout.dir("timing")
    with open(layout.timing_path(name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_timing(layout, stage):
    path = layout.timing_path(stage)
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_stored(path, shape, command):
    """Read an upstream array that must exist and have ``shape``."""
    _require(path, command)
    array = read_array(path)
    if array.shape != shape:
        raise PipelineError(
            f"{path} has shape {array.shape}, the configured grid needs {shape}; "
            f"run `poroscale {command}` again"
        )
    return array


def load_fields(layout, config, index):
    shape = (StructuredGrid(config.fine_cells).n_nodes,)
    perm, young = (
        _read_stored(layout.field_path(index, prop), shape, "generate-fields")
        for prop in ("perm", "young")
    )
    return PropertyFields(perm=perm, young=young, eta=config.props.eta)


def load_tensors(layout, config, index, source=DIRECT):
    command = "homogenize" if source == DIRECT else "predict"
    n_cells = int(np.prod(config.coarse_cells))
    d = len(config.coarse_cells)
    perm, stiffness = (
        _read_stored(layout.tensor_path(index, kind, source), (n_cells, k, k), command)
        for kind, k in (("perm", d), ("stiff", n_strain_components(d)))
    )
    return EffectiveTensors(
        coarse_cells=config.coarse_cells, perm=perm, stiffness=stiffness
    )


def generate_fields_stage(config, layout):
    """Sample every realization's property fields and store them."""
    with _stage(layout, "generate-fields") as record:
        grid = StructuredGrid(config.fine_cells)
        basis = build_kl_basis(grid, config.field)
        layout.dir("fields")
        for index in all_indices(config):
            values = sample_field(basis, config.realization_seed(index))
            fields = field_to_properties(values, config.props)
            write_array(layout.field_path(index, "perm"), fields.perm)
            write_array(layout.field_path(index, "young"), fields.young)
        record["n_realizations"] = len(all_indices(config))
        record["kl_terms"] = basis.n_terms
        record["captured_energy"] = basis.captured_fraction
    return record


def homogenize_stage(config, layout):
    """Direct local solves: effective tensors for every realization.

    One :class:`PatchEngine` serves every realization; the record holds
    its setup time and each target's bandwidth and summed fill.
    """
    with _stage(layout, "homogenize") as record:
        grid = StructuredGrid(config.fine_cells)
        layout.dir("tensors")
        with record.span("engine_setup"):
            engine = PatchEngine(patch_grid(grid, config.coarse_cells))
            operators = {
                TARGET_PERMEABILITY: engine.diffusion,
                TARGET_ELASTICITY: engine.elasticity(config.props.eta),
            }
        n_solves = len(all_indices(config)) * int(np.prod(config.coarse_cells))
        for target, operator in operators.items():
            # stored band entries, summed over all cell problems
            record.put("factor_fill", target, operator.factor_fill * n_solves)
            record.put("bandwidth", target, operator.kd)
        for index in all_indices(config):
            fields = load_fields(layout, config, index)
            with record.span("per_realization", index):
                eff = homogenize_domain(
                    grid, config.coarse_cells, fields, config.threads, engine=engine
                )
            write_array(layout.tensor_path(index, "perm"), eff.perm)
            write_array(layout.tensor_path(index, "stiff"), eff.stiffness)
    return record


def build_dataset_stage(config, layout):
    """Assemble, scale, and store both training datasets."""
    with _stage(layout, "build-dataset") as record:
        grid = StructuredGrid(config.fine_cells)
        realizations = [load_fields(layout, config, i) for i in train_indices(config)]
        tensors = [load_tensors(layout, config, i) for i in train_indices(config)]
        layout.dir("datasets")
        for target in TARGETS:
            ds = build_dataset(grid, config.coarse_cells, realizations, tensors, target)
            save_dataset(ds, layout.dataset_path(target))
            record.put("sizes", target, len(ds))
    return record


def _loss_csv(history, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_mse,val_mse\n")
        for epoch, train_mse, val_mse in history:
            fh.write(f"{epoch},{train_mse!r},{val_mse!r}\n")


def train_stage(config, layout):
    """Train one network per target; store weights and loss history."""
    with _stage(layout, "train") as record:
        layout.dir("models")
        for target in TARGETS:
            _require(layout.dataset_path(target), "build-dataset")
            ds = load_dataset(layout.dataset_path(target))
            parts = split(ds, config.split)
            network = build_network(
                ds.dimension,
                ds.patch_size,
                ds.n_out,
                dropout=config.train.dropout,
                seed=config.train.seed,
            )
            settings = dataclasses.replace(config.train, batch_size=config.batch_size())
            with record.span("offline_train", target):
                history = train(network, parts["train"], parts["val"], settings)
            save_network(network, layout.model_path(target))
            _loss_csv(history, layout.loss_path(target))
            steps = settings.epochs * -(-len(parts["train"]) // settings.batch_size)
            record.put("optimizer_steps", target, steps)
            # mean seconds per optimizer step, the per-epoch validation passes included
            seconds = record["offline_train_s"][target]
            record.put("mean_step_s", target, seconds / steps if steps else None)
    return record


def _metrics_rows(metrics):
    rows = [("all", metrics.mse, metrics.mae_pct, metrics.rmse_pct)]
    for j in range(metrics.component_mse.size):
        rows.append(
            (
                str(j),
                float(metrics.component_mse[j]),
                float(metrics.component_mae_pct[j]),
                float(metrics.component_rmse_pct[j]),
            )
        )
    return rows


def evaluate_stage(config, layout):
    """Per-split metrics of the trained networks as CSV; test metrics per target."""
    with _stage(layout, "evaluate") as record:
        layout.dir("metrics")
        for target in TARGETS:
            with record.span("per_target", target):
                _require(layout.dataset_path(target), "build-dataset")
                _require(layout.model_path(target), "train")
                ds = load_dataset(layout.dataset_path(target))
                parts = split(ds, config.split)
                network = load_network(layout.model_path(target))
                with open(
                    layout.metrics_path(target), "w", encoding="utf-8", newline="\n"
                ) as fh:
                    fh.write("split,component,mse,mae_pct,rmse_pct\n")
                    for name in ("train", "val", "test"):
                        metrics = evaluate(network, parts[name])
                        for component, mse, mae, rmse in _metrics_rows(metrics):
                            fh.write(f"{name},{component},{mse!r},{mae!r},{rmse!r}\n")
                        if name == "test":
                            record[target] = {
                                "test_mse": metrics.mse,
                                "test_mae_pct": metrics.mae_pct,
                                "test_rmse_pct": metrics.rmse_pct,
                            }
    return record


def predict_tensors(networks, scalers, grid, coarse_cells, fields):
    """Surrogate effective tensors for every coarse cell of one realization.

    ``networks`` and ``scalers`` map each target to its trained network and
    the scaler of its training data. Returns target -> (n_cells, m, m)
    SPD tensors, cells in row-major order.
    """
    outputs = {}
    for target, network in networks.items():
        values = fields.perm if target == TARGET_PERMEABILITY else fields.young
        scaled = scalers[target].scale_input(
            patch_input_array(grid, coarse_cells, values)
        )
        outputs[target] = predict_effective(
            network, scaled, scalers[target], target, grid.dimension
        )
    return outputs


def predict_stage(config, layout):
    """Replace local solves by network prediction on held-out domains."""
    with _stage(layout, "predict") as record:
        grid = StructuredGrid(config.fine_cells)
        layout.dir("predicted")
        networks, scalers = {}, {}
        with record.span("online_load"):
            for target in TARGETS:
                _require(layout.model_path(target), "train")
                _require(layout.dataset_path(target), "build-dataset")
                networks[target] = load_network(layout.model_path(target))
                scalers[target] = load_scaler(layout.dataset_path(target))
        for index in held_out_indices(config):
            fields = load_fields(layout, config, index)
            with record.span("per_realization", index):
                outputs = predict_tensors(
                    networks, scalers, grid, config.coarse_cells, fields
                )
            write_array(
                layout.tensor_path(index, "perm", PREDICTED),
                outputs[TARGET_PERMEABILITY],
            )
            write_array(
                layout.tensor_path(index, "stiff", PREDICTED),
                outputs[TARGET_ELASTICITY],
            )
    return record


def _write_states(layout, kind, index, states):
    write_array(
        layout.state_path(kind, index, "p"), np.stack([s.p for s in states])
    )
    write_array(
        layout.state_path(kind, index, "u"), np.stack([s.u for s in states])
    )


def solve_fine_stage(config, layout):
    """Reference fine-grid solves on the held-out realizations."""
    with _stage(layout, "solve-fine") as record:
        grid = StructuredGrid(config.fine_cells)
        layout.dir("states")
        for index in held_out_indices(config):
            fields = load_fields(layout, config, index)
            with record.span("per_realization", index):
                states = solve_poroelasticity(
                    grid, fields, config.constants, config.stepping
                )
            _write_states(layout, "fine", index, states)
    return record


def solve_coarse_stage(config, layout, source=DIRECT):
    """Coarse solves from direct or predicted effective tensors."""
    if source not in (DIRECT, PREDICTED):
        raise ParameterError(f"unknown tensor source {source!r}")
    with _stage(layout, f"solve-coarse-{source}") as record:
        layout.dir("states")
        for index in held_out_indices(config):
            eff = load_tensors(layout, config, index, source)
            with record.span("per_realization", index):
                states = solve_coarse(
                    config.coarse_cells, eff, config.constants, config.stepping
                )
            _write_states(layout, f"coarse_{source}", index, states)
    return record


def _final_state(layout, kind, index, command):
    p_path = layout.state_path(kind, index, "p")
    u_path = layout.state_path(kind, index, "u")
    _require(p_path, command)
    _require(u_path, command)
    p = read_array(p_path)
    u = read_array(u_path)
    return PoroState(p=p[-1], u=u[-1], time=0.0)


def _speedup_block(layout):
    """Measured per-domain times for both routes, from stage timings."""
    homog = _read_timing(layout, "homogenize")
    predict = _read_timing(layout, "predict")
    train_t = _read_timing(layout, "train")
    lines = []
    if train_t and train_t.get("offline_train_s"):
        for target, seconds in sorted(train_t["offline_train_s"].items()):
            lines.append(f"offline training ({target}): {seconds:.3f} s")
    if predict and predict.get("online_load_s") is not None:
        lines.append(f"online model load: {predict['online_load_s']:.3f} s")
    speedups = {}
    if homog and predict:
        direct_times = homog.get("per_realization_s", {})
        predict_times = predict.get("per_realization_s", {})
        for index in sorted(set(direct_times) & set(predict_times), key=int):
            direct_s = direct_times[index]
            online_s = predict_times[index]
            if online_s > 0:
                speedups[index] = direct_s / online_s
            speedup = f"x{speedups[index]:.1f}" if index in speedups else "n/a"
            lines.append(
                f"realization {index}: direct local solves {direct_s:.3f} s, "
                f"prediction {online_s:.3f} s, speedup {speedup}"
            )
    lines.append(REFERENCE_SPEEDUP_NOTE)
    return lines, speedups


def report_stage(config, layout):
    """Aggregate error norms and timings into errors.csv and summary.txt."""
    with _stage(layout, "report") as record:
        fine_grid = StructuredGrid(config.fine_cells)
        coarse_grid = StructuredGrid(config.coarse_cells)
        layout.dir("report")

        sources = [DIRECT]
        if all(
            layout.state_path(f"coarse_{PREDICTED}", i, part).exists()
            for i in held_out_indices(config)
            for part in ("p", "u")
        ):
            sources.append(PREDICTED)

        # one load and one assembly of the fine norms per realization
        reports = {}
        for index in held_out_indices(config):
            fields = load_fields(layout, config, index)
            fine_state = _final_state(layout, "fine", index, "solve-fine")
            coarse_states = [
                _final_state(
                    layout,
                    f"coarse_{source}",
                    index,
                    f"solve-coarse --tensors {source}",
                )
                for source in sources
            ]
            for source, report in zip(
                sources,
                error_norms(fine_state, coarse_states, fine_grid, coarse_grid, fields),
            ):
                reports[source, index] = report
        rows = [
            (config.name, source, index) + reports[source, index].as_tuple()
            for source in sources
            for index in held_out_indices(config)
        ]

        with open(layout.errors_csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("test,case,realization,e_p_L2,e_p_en,e_u_L2,e_u_en\n")
            for row in rows:
                test, case, index = row[:3]
                values = ",".join(repr(v) for v in row[3:])
                fh.write(f"{test},{case},{index},{values}\n")

        lines = [
            f"run {config.name}: {config.dimension}D, "
            f"fine {'x'.join(str(c) for c in config.fine_cells)}, "
            f"coarse {'x'.join(str(c) for c in config.coarse_cells)}, "
            f"{config.n_realizations} training / "
            f"{config.n_test_realizations} held-out realizations",
            "",
            "relative errors of the coarse solution at final time (percent):",
            "case        realization   e_p_L2   e_p_en   e_u_L2   e_u_en",
        ]
        for row in rows:
            lines.append(
                f"{row[1]:<12}{row[2]:>10}   {row[3]:>7.3f} {row[4]:>8.3f} "
                f"{row[5]:>8.3f} {row[6]:>8.3f}"
            )
        for source in sources:
            block = np.array([row[3:] for row in rows if row[1] == source])
            mean = block.mean(axis=0)
            lines.append(
                f"{source + ' mean':<22}   {mean[0]:>7.3f} {mean[1]:>8.3f} "
                f"{mean[2]:>8.3f} {mean[3]:>8.3f}"
            )
        lines.append("")
        lines.append("timing:")
        timing_lines, speedups = _speedup_block(layout)
        lines.extend("  " + line for line in timing_lines)
        with open(layout.summary_txt, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        record.update(rows=len(rows), sources=sources, speedups=speedups)
        record["errors_csv"] = str(layout.errors_csv)
        record["summary_txt"] = str(layout.summary_txt)
    return record
