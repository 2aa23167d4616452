"""Pipeline stages over a run directory.

Each stage reads the artifacts of earlier stages from the run directory
and writes its own in documented formats, every file through
``arrayio.write_array`` (directly or via ``write_members``) or
``arrayio.write_text``, which also create its directory. Realizations
0 .. M-1 form the training corpus; the next ``n_test_realizations``
indices are held-out domains used for the solve and report stages. All
stages are deterministic given the configuration, so reruns reproduce
every artifact byte for byte (timing files excluded).

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

from .arrayio import read_array, write_array, write_text
from .dataset import (
    TARGETS,
    build_dataset,
    load_dataset,
    load_scaler,
    patch_input_array,
    save_dataset,
    split,
    target_components,
)
from .errors import ParameterError, PipelineError
from .grid import StructuredGrid
from .homogenize import (
    EffectiveTensors,
    PatchEngine,
    homogenize_domain,
    patch_grid,
    patch_ratio,
)
from .poro import error_norms, solve_coarse, solve_poroelasticity
from .random_field import PropertyFields, build_kl_basis, field_to_properties, sample_field
from .surrogate.network import build_network, load_network, save_network
from .surrogate.training import evaluate, predict_effective, train

DIRECT = "direct"
PREDICTED = "predicted"

REFERENCE_SPEEDUP_NOTE = (
    "full-scale reference range: x76 to x289 (not expected at desk scale)"
)


class RunLayout:
    """Path bookkeeping for one run directory."""

    def __init__(self, root):
        self.root = Path(root)

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
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    write_text(layout.timing_path(name), text)


def _read_timing(layout, stage):
    path = layout.timing_path(stage)
    return json.loads(path.read_text("utf-8")) if path.exists() else None


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
    tensors = {}
    for spec in TARGETS.values():
        m = spec.size(config.dimension)
        path = layout.tensor_path(index, spec.kind, source)
        tensors[spec.tensor] = _read_stored(path, (config.n_cells, m, m), command)
    return EffectiveTensors(**tensors)


def generate_fields_stage(config, layout):
    """Sample every realization's property fields and store them."""
    with _stage(layout, "generate-fields") as record:
        grid = StructuredGrid(config.fine_cells)
        basis = build_kl_basis(grid, config.field)
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
        with record.span("engine_setup"):
            patches = patch_grid(grid, config.coarse_cells)
            engine = PatchEngine(patches, config.props.eta)
            operators = {t: getattr(engine, s.operator) for t, s in TARGETS.items()}
        n_solves = len(all_indices(config)) * config.n_cells
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
            for spec in TARGETS.values():
                path = layout.tensor_path(index, spec.kind)
                write_array(path, getattr(eff, spec.tensor))
    return record


def build_dataset_stage(config, layout):
    """Assemble, scale, and store both training datasets."""
    with _stage(layout, "build-dataset") as record:
        grid = StructuredGrid(config.fine_cells)
        realizations = [load_fields(layout, config, i) for i in train_indices(config)]
        tensors = [load_tensors(layout, config, i) for i in train_indices(config)]
        for target in TARGETS:
            ds = build_dataset(grid, config.coarse_cells, realizations, tensors, target)
            save_dataset(ds, layout.dataset_path(target))
            record.put("sizes", target, len(ds))
            # the input range and each output component that scale to 0
            record.put("degenerate_components", target, int(ds.scaler.degenerate.sum()))
    return record


def train_stage(config, layout):
    """Train one network per target; store weights and loss history."""
    with _stage(layout, "train") as record:
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
            rows = [f"{epoch},{t!r},{v!r}\n" for epoch, t, v in history]
            csv = "epoch,train_mse,val_mse\n" + "".join(rows)
            write_text(layout.loss_path(target), csv)
            steps = settings.epochs * -(-len(parts["train"]) // settings.batch_size)
            record.put("optimizer_steps", target, steps)
            # mean seconds per optimizer step, the per-epoch validation passes included
            seconds = record["offline_train_s"][target]
            record.put("mean_step_s", target, seconds / steps if steps else None)
    return record


def load_models(layout, config):
    """Each target's trained network and the scaler of its training data.

    A network whose (dimension, patch size, output count) is not what the
    configured grids and its target need is an error, and so is a scaler
    of another output count.
    """
    d = config.dimension
    n_l = patch_ratio(StructuredGrid(config.fine_cells), config.coarse_cells)
    networks, scalers = {}, {}
    for target in TARGETS:
        path = layout.model_path(target)
        _require(path, "train")
        _require(layout.dataset_path(target), "build-dataset")
        network = networks[target] = load_network(path)
        expected = (d, n_l, target_components(target, d))
        if network.architecture[:3] != expected:
            raise PipelineError(
                f"{path} was trained on (dimension, patch size, outputs) "
                f"{network.architecture[:3]}, the configured grids and target "
                f"need {expected}; run `poroscale build-dataset`, then "
                "`poroscale train` again"
            )
        scaler = scalers[target] = load_scaler(layout.dataset_path(target))
        if scaler.table.shape[1] - 1 != expected[2]:
            raise PipelineError(
                f"{layout.dataset_path(target)} holds a scaler of "
                f"{scaler.table.shape[1] - 1} outputs, the {target} target needs "
                f"{expected[2]}; run `poroscale build-dataset`, then "
                "`poroscale train` again"
            )
    return networks, scalers


def evaluate_stage(config, layout):
    """Per-split metrics of the trained networks as CSV; test metrics per target."""
    with _stage(layout, "evaluate") as record:
        networks, _ = load_models(layout, config)
        for target, network in networks.items():
            with record.span("per_target", target):
                ds = load_dataset(layout.dataset_path(target))
                parts = split(ds, config.split)
                lines = ["split,component,mse,mae_pct,rmse_pct\n"]
                for name in ("train", "val", "test"):
                    # Python floats: their repr is the CSV text
                    table = evaluate(network, parts[name]).tolist()
                    labels = ["all", *map(str, range(len(table) - 1))]
                    for label, row in zip(labels, table):
                        values = ",".join(map(repr, row))
                        lines.append(f"{name},{label},{values}\n")
                write_text(layout.metrics_path(target), "".join(lines))
                # the loop ends on the test split
                keys = ("test_mse", "test_mae_pct", "test_rmse_pct")
                record[target] = dict(zip(keys, table[0]))
    return record


def predict_tensors(networks, scalers, grid, coarse_cells, fields):
    """Surrogate effective tensors for every coarse cell of one realization.

    ``networks`` and ``scalers`` map each target to its trained network and
    the scaler of its training data. Returns target -> (n_cells, m, m)
    SPD tensors, cells in row-major order, and target -> the number of
    them clamped to the SPD cone.
    """
    outputs, clamped = {}, {}
    for target, network in networks.items():
        values = getattr(fields, TARGETS[target].field)
        scaler = scalers[target]
        scaled = scaler.scale_input(patch_input_array(grid, coarse_cells, values))
        outputs[target], clamped[target] = predict_effective(network, scaled, scaler)
    return outputs, clamped


def predict_stage(config, layout):
    """Replace local solves by network prediction on held-out domains."""
    with _stage(layout, "predict") as record:
        grid = StructuredGrid(config.fine_cells)
        with record.span("online_load"):
            networks, scalers = load_models(layout, config)
        record["spd_clamped"] = dict.fromkeys(TARGETS, 0)
        for index in held_out_indices(config):
            fields = load_fields(layout, config, index)
            with record.span("per_realization", index):
                outputs, clamped = predict_tensors(
                    networks, scalers, grid, config.coarse_cells, fields
                )
            for target, count in clamped.items():
                record["spd_clamped"][target] += count
            for target, spec in TARGETS.items():
                path = layout.tensor_path(index, spec.kind, PREDICTED)
                write_array(path, outputs[target])
    return record


def _write_states(layout, kind, index, states):
    for part, values in zip(("p", "u"), states):
        write_array(layout.state_path(kind, index, part), values)


def solve_fine_stage(config, layout):
    """Reference fine-grid solves on the held-out realizations."""
    with _stage(layout, "solve-fine") as record:
        grid = StructuredGrid(config.fine_cells)
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
        for index in held_out_indices(config):
            eff = load_tensors(layout, config, index, source)
            with record.span("per_realization", index):
                states = solve_coarse(
                    config.coarse_cells, eff, config.constants, config.stepping
                )
            _write_states(layout, f"coarse_{source}", index, states)
    return record


def _final_state(layout, config, grid, kind, index, command):
    """Final ``(p, u)`` of one stored solve on ``grid``, all time steps present."""
    rows = config.stepping.n_steps + 1
    p, u = (
        _read_stored(
            layout.state_path(kind, index, part), (rows, k * grid.n_nodes), command
        )
        for part, k in (("p", 1), ("u", grid.dimension))
    )
    return p[-1], u[-1]


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
        held_out = held_out_indices(config)

        # any predicted state asks for all of them, so a partial set fails
        sources = [DIRECT]
        if any(
            layout.state_path(f"coarse_{PREDICTED}", i, part).exists()
            for i in held_out
            for part in ("p", "u")
        ):
            sources.append(PREDICTED)

        # one load and one assembly of the fine norms per realization;
        # errors[s, k] holds source s on the k-th held-out domain
        solves = [(fine_grid, "fine", "solve-fine")] + [
            (coarse_grid, f"coarse_{s}", f"solve-coarse --tensors {s}") for s in sources
        ]
        errors = np.empty((len(sources), len(held_out), 4))
        for k, index in enumerate(held_out):
            fields = load_fields(layout, config, index)
            fine, *coarse = (
                _final_state(layout, config, grid, kind, index, command)
                for grid, kind, command in solves
            )
            errors[:, k] = error_norms(fine, coarse, fine_grid, coarse_grid, fields)

        csv = ["test,case,realization,e_p_L2,e_p_en,e_u_L2,e_u_en\n"]
        cells = "{:>7.3f} {:>8.3f} {:>8.3f} {:>8.3f}".format
        table, means = [], []
        for source, block in zip(sources, errors):
            for index, row in zip(held_out, block.tolist()):
                values = ",".join(map(repr, row))
                csv.append(f"{config.name},{source},{index},{values}\n")
                table.append(f"{source:<12}{index:>10}   " + cells(*row))
            mean = block.mean(axis=0)
            means.append(f"{source + ' mean':<22}   " + cells(*mean))
        write_text(layout.errors_csv, "".join(csv))

        lines = [
            f"run {config.name}: {config.dimension}D, "
            f"fine {'x'.join(str(c) for c in config.fine_cells)}, "
            f"coarse {'x'.join(str(c) for c in config.coarse_cells)}, "
            f"{config.n_realizations} training / "
            f"{config.n_test_realizations} held-out realizations",
            "",
            "relative errors of the coarse solution at final time (percent):",
            "case        realization   e_p_L2   e_p_en   e_u_L2   e_u_en",
            *table,
            *means,
            "",
            "events, per target:",
        ]
        for stage, key in (
            ("build-dataset", "degenerate_components"),
            ("predict", "spd_clamped"),
        ):
            counts = sorted((_read_timing(layout, stage) or {}).get(key, {}).items())
            lines.append(f"  {key}: " + ", ".join(f"{t} {n}" for t, n in counts))
        lines.append("")
        lines.append("timing:")
        timing_lines, speedups = _speedup_block(layout)
        lines.extend("  " + line for line in timing_lines)
        write_text(layout.summary_txt, "\n".join(lines) + "\n")
        record.update(rows=len(table), sources=sources, speedups=speedups)
        record["errors_csv"] = str(layout.errors_csv)
        record["summary_txt"] = str(layout.summary_txt)
    return record
