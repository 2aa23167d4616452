"""Configuration files, presets, and the stage-per-subcommand interface."""

import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from poroscale.arrayio import read_array, write_array
from poroscale.cli import build_parser, main, resolve_config
from poroscale.config import (
    PRESET_NAMES,
    SCHEMA,
    PipelineConfig,
    config_from_text,
    config_to_text,
    load_config,
    load_preset,
)
from poroscale.dataset import SplitSpec, load_dataset, load_scaler, split
from poroscale.errors import ParameterError
from poroscale.grid import StructuredGrid
from poroscale.pipeline import (
    RunLayout,
    _speedup_block,
    held_out_indices,
    load_fields,
)
from poroscale.poro import PoroConstants, TimeSteppingConfig, error_norms
from poroscale.random_field import CovarianceSpec, PropertyParams
from poroscale.surrogate.network import load_network, save_network
from poroscale.surrogate.training import TrainConfig, evaluate


def save_config(config, path):
    path.write_text(config_to_text(config), encoding="utf-8")


def test_round_trip_is_a_fixed_point(tmp_path):
    config = load_preset("desk-mini")
    text = config_to_text(config)
    assert config_from_text(text) == config
    path = tmp_path / "run.cfg"
    save_config(config, path)
    assert load_config(path) == config
    save_config(load_config(path), path)
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_shipped_presets_are_canonical(name):
    # the stored file is exactly the serializer's output for its config
    raw = (
        resources.files("poroscale.presets")
        .joinpath(f"{name}.cfg")
        .read_text(encoding="utf-8")
    )
    assert config_to_text(load_preset(name)) == raw


def test_preset_anchor_values():
    desk = load_preset("desk-test1")
    assert desk.fine_cells == (128, 128)
    assert desk.coarse_cells == (8, 8)
    assert desk.n_realizations == 20
    assert desk.train.epochs == 100
    assert desk.constants.nu_f == 0.05
    assert desk.batch_size() == 64
    full = load_preset("test1")
    assert full.fine_cells == (320, 320)
    assert full.coarse_cells == (10, 10)
    assert full.n_realizations == 100
    cube = load_preset("desk-test3")
    assert cube.dimension == 3
    assert cube.fine_cells == (24, 24, 24)
    surrogate = load_preset("desk-surrogate")
    assert surrogate.coarse_cells == (4, 4)
    assert surrogate.n_realizations == 60
    assert surrogate.n_test_realizations == 10
    assert surrogate.train.epochs == 200
    assert surrogate.train.batch_size == 64


def test_unknown_preset():
    with pytest.raises(ParameterError, match="desk-mini"):
        load_preset("bogus")


def test_realization_seed_and_batch_fallback():
    config = load_preset("desk-mini")
    assert config.realization_seed(5) == (7, 5)
    assert config.n_cells == 16
    assert config.batch_size() == 16
    resized = dataclasses.replace(
        config, train=dataclasses.replace(config.train, batch_size=8)
    )
    assert resized.batch_size() == 8


def test_list_value_spellings():
    base = config_to_text(load_preset("desk-mini"))
    for spelling in ("[32, 32]", "32 32", "32,32"):
        text = base.replace("[32, 32]", spelling)
        assert config_from_text(text).fine_cells == (32, 32)


def test_malformed_text_and_missing_pieces():
    with pytest.raises(ParameterError, match="malformed"):
        config_from_text("[run\nname = x")
    with pytest.raises(ParameterError, match="section"):
        config_from_text("[run]\nname = x\n")
    base = config_to_text(load_preset("desk-mini"))
    with pytest.raises(ParameterError, match="run.name"):
        config_from_text(base.replace("name = desk-mini\n", ""))
    with pytest.raises(ParameterError, match="invalid configuration value"):
        config_from_text(base.replace("epochs = 2", "epochs = soon"))
    with pytest.raises(ParameterError, match="empty list"):
        config_from_text(base.replace("[32, 32]", "[]"))


def test_unknown_sections_and_keys_are_named():
    base = config_to_text(load_preset("desk-mini"))
    with pytest.raises(ParameterError, match=r"train\.epoch\b"):
        config_from_text(base.replace("epochs = 2", "epoch = 5"))
    text = base.replace("[poro]", "[poro]\nnu = 1.0") + "\n[trian]\nepochs = 5\n"
    with pytest.raises(ParameterError) as info:
        config_from_text(text)
    assert "poro.nu" in str(info.value) and "[trian]" in str(info.value)


def test_percent_values_are_literal(tmp_path):
    config = dataclasses.replace(
        load_preset("desk-mini"), name="100% %(workdir)s", workdir="runs/100%"
    )
    text = config_to_text(config)
    assert "name = 100% %(workdir)s\n" in text
    assert config_from_text(text) == config
    path = tmp_path / "run.cfg"
    save_config(config, path)
    assert resolve_config(parse(["report", "--config", str(path)])) == config


REQUIRED_KEYS = [
    ("run", "name"),
    ("run", "workdir"),
    ("run", "n_realizations"),
    ("run", "n_test_realizations"),
    ("domain", "fine_cells"),
    ("domain", "coarse_cells"),
    ("field", "sigma2"),
    ("field", "l2"),
    ("field", "seed_base"),
]


def _leaf_fields(cls, prefix=""):
    for field in dataclasses.fields(cls):
        if dataclasses.is_dataclass(field.type):
            yield from _leaf_fields(field.type, f"{prefix}{field.name}.")
        else:
            yield prefix + field.name, field


def test_schema_covers_every_field_once():
    leaves = dict(_leaf_fields(PipelineConfig))
    assert sorted(path for _, _, path, _ in SCHEMA) == sorted(leaves)
    assert len({(section, key) for section, key, _, _ in SCHEMA}) == len(SCHEMA)
    required = [
        (section, key)
        for section, key, path, _ in SCHEMA
        if leaves[path].default is dataclasses.MISSING
    ]
    assert required == REQUIRED_KEYS


def test_required_keys_alone_load_to_defaults():
    text = (
        "[run]\nname = x\nworkdir = w\nn_realizations = 2\nn_test_realizations = 1\n"
        "[domain]\nfine_cells = [32, 32]\ncoarse_cells = [4, 4]\n"
        "[field]\nsigma2 = 2.0\nl2 = [0.2, 0.2]\nseed_base = 7\n"
        "[poro]\n[train]\n"
    )
    assert config_from_text(text) == PipelineConfig(
        name="x",
        workdir="w",
        n_realizations=2,
        n_test_realizations=1,
        fine_cells=(32, 32),
        coarse_cells=(4, 4),
        field=CovarianceSpec(sigma2=2.0, length_sq=(0.2, 0.2)),
        seed_base=7,
        props=PropertyParams(),
        constants=PoroConstants(),
        stepping=TimeSteppingConfig(),
        train=TrainConfig(),
        split=SplitSpec(),
    )


@pytest.mark.parametrize("section,key", REQUIRED_KEYS)
def test_each_required_key_is_named_when_missing(section, key):
    base = config_to_text(load_preset("desk-mini"))
    text = base.replace(f"\n{key} = ", f"\n# {key} = ", 1)
    assert text != base
    with pytest.raises(ParameterError, match=rf"misses {section}\.{key}\b"):
        config_from_text(text)


def test_config_validation():
    config = load_preset("desk-mini")
    with pytest.raises(ParameterError, match="realization"):
        dataclasses.replace(config, n_realizations=0)
    with pytest.raises(ParameterError, match="thread"):
        dataclasses.replace(config, threads=0)
    with pytest.raises(ParameterError, match="dimension"):
        dataclasses.replace(config, coarse_cells=(4, 4, 4))
    with pytest.raises(ParameterError, match="length"):
        dataclasses.replace(config, fine_cells=(32,), coarse_cells=(4,))
    with pytest.raises(ParameterError):
        TrainConfig(epochs=-1)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.0)


def parse(argv):
    return build_parser().parse_args(argv)


def test_config_xor_preset(capsys, tmp_path):
    assert main(["generate-fields"]) == 1
    assert "exactly one of" in capsys.readouterr().err
    config_path = tmp_path / "c.cfg"
    save_config(load_preset("desk-mini"), config_path)
    both = ["generate-fields", "--config", str(config_path), "--preset", "desk-mini"]
    assert main(both) == 1
    assert "exactly one of" in capsys.readouterr().err


def test_threads_precedence():
    args = parse(["homogenize", "--preset", "desk-mini"])
    assert resolve_config(args).threads == 1
    args = parse(["homogenize", "--preset", "desk-mini", "--threads", "2"])
    assert resolve_config(args).threads == 2


def test_workdir_override(tmp_path):
    args = parse(
        ["generate-fields", "--preset", "desk-mini", "--workdir", str(tmp_path)]
    )
    assert resolve_config(args).workdir == str(tmp_path)


def test_missing_upstream_artifacts(capsys, tmp_path):
    argv = ["--preset", "desk-mini", "--workdir", str(tmp_path)]
    assert main(["homogenize"] + argv) == 1
    err = capsys.readouterr().err
    assert "generate-fields" in err and "error" in err
    assert main(["train"] + argv) == 1
    assert "build-dataset" in capsys.readouterr().err
    assert main(["predict"] + argv) == 1
    assert "train" in capsys.readouterr().err
    # a stage record is written only when the stage finishes
    layout = RunLayout(tmp_path)
    for stage in ("homogenize", "train", "predict"):
        assert not layout.timing_path(stage).exists()


def test_fields_of_another_grid_are_an_error(capsys, tmp_path):
    workdir = ["--workdir", str(tmp_path)]
    assert main(["generate-fields", "--preset", "desk-mini"] + workdir) == 0
    capsys.readouterr()
    # desk-test1's 128^2 grid needs 129^2 node values, desk-mini wrote 33^2
    assert main(["homogenize", "--preset", "desk-test1"] + workdir) == 1
    err = capsys.readouterr().err
    assert "poroscale homogenize: error:" in err
    assert "(1089,)" in err and "(16641,)" in err
    assert "`poroscale generate-fields`" in err


def test_tensors_of_another_grid_are_an_error(capsys, tmp_path):
    layout = RunLayout(tmp_path)
    # desk-mini has 4x4 coarse cells: (16, 2, 2) and (16, 3, 3) tensors
    write_array(layout.tensor_path(2, "perm"), np.tile(np.eye(2), (9, 1, 1)))
    write_array(layout.tensor_path(2, "stiff"), np.tile(np.eye(3), (16, 1, 1)))
    argv = ["--preset", "desk-mini", "--workdir", str(tmp_path)]
    assert main(["solve-coarse", "--tensors", "direct"] + argv) == 1
    err = capsys.readouterr().err
    assert "poroscale solve-coarse: error:" in err
    assert "(9, 2, 2)" in err and "(16, 2, 2)" in err
    assert "`poroscale homogenize`" in err


def fine_64_config(tmp_path):
    """CLI arguments of desk-mini on a 64^2 fine grid: 16^2 patches, not 8^2."""
    config = dataclasses.replace(
        load_preset("desk-mini"), fine_cells=(64, 64), workdir=str(tmp_path)
    )
    save_config(config, tmp_path / "fine64.cfg")
    return ["--config", str(tmp_path / "fine64.cfg")]


def test_states_of_another_grid_are_an_error(capsys, tmp_path):
    argv = fine_64_config(tmp_path)
    assert main(["generate-fields"] + argv) == 0
    # desk-mini's fine solve stores 21 states of 33^2 nodes, not 65^2; the
    # coarse states of its 4^2 grid still fit
    layout = RunLayout(tmp_path)
    for kind, nodes in (("fine", 33 * 33), ("coarse_direct", 5 * 5)):
        for part, k in (("p", 1), ("u", 2)):
            write_array(layout.state_path(kind, 2, part), np.ones((21, k * nodes)))
    capsys.readouterr()
    assert main(["report"] + argv) == 1
    err = capsys.readouterr().err
    assert "poroscale report: error:" in err
    assert "(21, 1089)" in err and "(21, 4225)" in err
    assert "`poroscale solve-fine`" in err


def train_desk_mini(tmp_path):
    argv = ["--preset", "desk-mini", "--workdir", str(tmp_path)]
    for stage in (["generate-fields"], ["homogenize"], ["build-dataset"], ["train"]):
        assert main(stage + argv) == 0, stage
    return argv


def assert_models_refused(capsys, argv, layout, found, needed):
    """``evaluate`` and ``predict`` both fail and write nothing."""
    capsys.readouterr()
    for stage in ("evaluate", "predict"):
        assert main([stage] + argv) == 1, stage
        err = capsys.readouterr().err
        assert f"poroscale {stage}: error:" in err
        assert found in err and needed in err
        assert "`poroscale build-dataset`, then `poroscale train`" in err
    assert not (layout.root / "metrics").exists()
    assert not layout.tensor_path(2, "perm", "predicted").exists()


def test_models_of_another_patch_size_are_an_error(capsys, tmp_path):
    train_desk_mini(tmp_path)
    argv = fine_64_config(tmp_path)
    layout = RunLayout(tmp_path)
    assert main(["generate-fields"] + argv) == 0
    assert_models_refused(capsys, argv, layout, "(2, 8, 3)", "(2, 16, 3)")
    # a 16^2 dataset does not make the 8^2 models fit
    for stage in (["homogenize"], ["build-dataset"]):
        assert main(stage + argv) == 0, stage
    assert_models_refused(capsys, argv, layout, "(2, 8, 3)", "(2, 16, 3)")


def test_models_of_another_target_are_an_error(capsys, tmp_path):
    argv = train_desk_mini(tmp_path)
    layout = RunLayout(tmp_path)
    perm, elast = layout.model_path("permeability"), layout.model_path("elasticity")
    perm.rename(tmp_path / "swap")
    elast.rename(perm)
    (tmp_path / "swap").rename(elast)
    # the permeability directory now holds a model of 6 outputs, not 3
    assert_models_refused(capsys, argv, layout, "(2, 8, 6)", "(2, 8, 3)")


def test_datasets_of_another_target_are_an_error(capsys, tmp_path):
    argv = train_desk_mini(tmp_path)
    layout = RunLayout(tmp_path)
    perm, elast = layout.dataset_path("permeability"), layout.dataset_path("elasticity")
    perm.rename(tmp_path / "swap")
    elast.rename(perm)
    (tmp_path / "swap").rename(elast)
    # the permeability dataset now holds a scaler of 6 outputs, not 3
    assert_models_refused(
        capsys, argv, layout, "scaler of 6 outputs", "permeability target needs 3"
    )


def nan_first(values):
    values.flat[0] = np.nan


def invert_first_output(table):
    table[1, 1] = table[0, 1] - 1.0


@pytest.mark.parametrize(
    "member, corrupt, message",
    [
        ("datasets/permeability/scaler", nan_first, "scaler.nhar must be finite"),
        ("datasets/permeability/scaler", invert_first_output, "no maximum below"),
        ("models/permeability/weights", nan_first, "weights.nhar is not finite"),
    ],
    ids=["scaler-nan", "scaler-inverted", "weights-nan"],
)
def test_corrupt_surrogate_members_stop_predict(
    capsys, tmp_path, member, corrupt, message
):
    argv = train_desk_mini(tmp_path)
    path = tmp_path / f"{member}.nhar"
    values = read_array(path)
    corrupt(values)
    write_array(path, values)
    capsys.readouterr()
    assert main(["predict"] + argv) == 1
    err = capsys.readouterr().err
    assert f"{path.parent}: " in err and message in err
    assert not RunLayout(tmp_path).tensor_path(2, "perm", "predicted").exists()


def assert_summary_rounds_the_errors(layout, sources):
    """The error table of summary.txt is errors.csv to 3 decimals, one line
    per row, then one line per source with the mean of its rows."""
    lines = layout.errors_csv.read_text(encoding="utf-8").splitlines()[1:]
    rows = [line.split(",")[1:] for line in lines]
    rows = [[case, index, *map(float, values)] for case, index, *values in rows]
    means = [
        [source, "mean", *np.mean([r[2:] for r in rows if r[0] == source], axis=0)]
        for source in sources
    ]
    summary = layout.summary_txt.read_text(encoding="utf-8").splitlines()
    header = "case        realization   e_p_L2   e_p_en   e_u_L2   e_u_en"
    start = summary.index(header) + 1
    table = [line.split() for line in summary[start : summary.index("", start)]]
    assert table == [row[:2] + [f"{v:.3f}" for v in row[2:]] for row in rows + means]


def test_mini_pipeline_end_to_end(capsys, tmp_path):
    argv = ["--preset", "desk-mini", "--workdir", str(tmp_path)]
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
    layout = RunLayout(tmp_path)
    config = load_preset("desk-mini")
    for stage in stages:
        assert main(stage + argv) == 0, stage
        out = capsys.readouterr().out
        _, printed = out.split(f"poroscale {stage[0]}: ok\n")
        # the CLI prints exactly the stage record it wrote
        name = "-".join(stage[0:1] + stage[2:])
        text = layout.timing_path(name).read_bytes().decode("utf-8")
        assert text.endswith("\n") and "\r" not in text
        record = json.loads(text)
        assert record["stage"] == name and record["total_s"] > 0.0
        assert json.loads(printed) == record

    for index in (0, 1, 2):
        assert layout.field_path(index, "perm").exists()
        assert layout.field_path(index, "young").exists()
    perm = read_array(layout.tensor_path(0, "perm"))
    assert perm.shape == (16, 2, 2)
    stiff = read_array(layout.tensor_path(0, "stiff"))
    assert stiff.shape == (16, 3, 3)
    predicted = read_array(layout.tensor_path(2, "perm", "predicted"))
    assert predicted.shape == (16, 2, 2)
    assert np.linalg.eigvalsh(predicted).min() > 0

    for target in ("permeability", "elasticity"):
        assert layout.dataset_path(target).exists()
        assert layout.model_path(target).exists()
        loss = layout.loss_path(target).read_text(encoding="utf-8").splitlines()
        assert loss[0] == "epoch,train_mse,val_mse"
        assert len(loss) == 3  # header + one row per epoch
        metrics = layout.metrics_path(target).read_text(encoding="utf-8").splitlines()
        assert metrics[0] == "split,component,mse,mae_pct,rmse_pct"
        # per split, the table of evaluate: all components, then each one
        network = load_network(layout.model_path(target))
        ds = load_dataset(layout.dataset_path(target))
        parts = split(ds, config.split)
        labels = ["all"] + [str(j) for j in range(ds.n_out)]
        rows = [line.split(",") for line in metrics[1:]]
        expected = []
        for name in ("train", "val", "test"):
            table = evaluate(network, parts[name])
            assert table.shape == (len(labels), 3)
            expected += [[name, label, *row] for label, row in zip(labels, table)]
        assert [row[:2] for row in rows] == [row[:2] for row in expected]
        np.testing.assert_array_equal(
            [list(map(float, row[2:])) for row in rows],
            [row[2:] for row in expected],
        )

    for kind in ("fine", "coarse_direct", "coarse_predicted"):
        for part in ("p", "u"):
            states = read_array(layout.state_path(kind, 2, part))
            assert states.ndim == 2
            assert states.shape[0] == 21  # initial state plus 20 steps

    errors = layout.errors_csv.read_text(encoding="utf-8").splitlines()
    assert errors[0] == "test,case,realization,e_p_L2,e_p_en,e_u_L2,e_u_en"
    # each row is error_norms over the last rows of the stored state files,
    # sources outer and held-out realizations inner
    fine_grid = StructuredGrid(config.fine_cells)
    coarse_grid = StructuredGrid(config.coarse_cells)

    def final(kind, index):
        return tuple(
            read_array(layout.state_path(kind, index, part))[-1] for part in "pu"
        )

    expected = [
        (config.name, source, str(index))
        + error_norms(
            final("fine", index),
            [final(f"coarse_{source}", index)],
            fine_grid,
            coarse_grid,
            load_fields(layout, config, index),
        )[0]
        for source in ("direct", "predicted")
        for index in held_out_indices(config)
    ]
    rows = [line.split(",") for line in errors[1:]]
    assert [(*row[:3], *map(float, row[3:])) for row in rows] == expected

    summary = layout.summary_txt.read_text(encoding="utf-8")
    assert "speedup" in summary
    assert "x76 to x289" in summary
    assert_summary_rounds_the_errors(layout, ["direct", "predicted"])
    homogenize = json.loads(layout.timing_path("homogenize").read_text("utf-8"))
    assert homogenize["engine_setup_s"] > 0.0
    for key in ("factor_fill", "bandwidth"):
        assert set(homogenize[key]) == {"permeability", "elasticity"}
        assert min(homogenize[key].values()) > 0
    assert layout.timing_path("build-dataset").exists()
    trained = json.loads(layout.timing_path("train").read_text("utf-8"))
    for target, steps in trained["optimizer_steps"].items():
        assert steps > 0
        seconds = trained["offline_train_s"][target]
        assert trained["mean_step_s"][target] == pytest.approx(seconds / steps)
    evaluated = json.loads(layout.timing_path("evaluate").read_text("utf-8"))
    assert set(evaluated["per_target_s"]) == {"permeability", "elasticity"}
    assert evaluated["total_s"] >= sum(evaluated["per_target_s"].values()) > 0.0
    report = json.loads(layout.timing_path("report").read_text("utf-8"))
    assert report["stage"] == "report" and report["total_s"] > 0.0


def test_clamps_and_degenerate_ranges_reach_the_summary(capsys, tmp_path):
    argv = ["--preset", "desk-mini", "--workdir", str(tmp_path)]
    for stage in (["generate-fields"], ["homogenize"], ["build-dataset"], ["train"]):
        assert main(stage + argv) == 0, stage
    layout = RunLayout(tmp_path)
    # a permeability head far below its scaled range decodes every cell
    # into a negative definite tensor
    model = layout.model_path("permeability")
    network = load_network(model)
    network.layers[-1].weight[...] = 0.0
    network.layers[-1].bias[...] = -1e3
    save_network(network, model)
    for stage in (
        ["predict"],
        ["solve-fine"],
        ["solve-coarse", "--tensors", "direct"],
        ["report"],
    ):
        assert main(stage + argv) == 0, stage
    capsys.readouterr()

    predict = json.loads(layout.timing_path("predict").read_text("utf-8"))
    clamped = predict["spd_clamped"]
    assert clamped["permeability"] == 16  # every cell of the held-out domain
    assert set(clamped) == {"permeability", "elasticity"}
    built = json.loads(layout.timing_path("build-dataset").read_text("utf-8"))
    degenerate = built["degenerate_components"]
    for target in ("permeability", "elasticity"):
        scaler = load_scaler(layout.dataset_path(target))
        assert degenerate[target] == scaler.degenerate.sum()
    assert_summary_rounds_the_errors(layout, ["direct"])
    summary = layout.summary_txt.read_text(encoding="utf-8").splitlines()
    events = (("spd_clamped", clamped), ("degenerate_components", degenerate))
    for key, counts in events:
        line = f"  {key}: elasticity {counts['elasticity']}, permeability "
        assert line + str(counts["permeability"]) in summary


def test_incomplete_predicted_states_are_an_error(capsys, tmp_path):
    argv = ["--preset", "desk-mini", "--workdir", str(tmp_path)]
    for stage in (
        ["generate-fields"],
        ["homogenize"],
        ["build-dataset"],
        ["train"],
        ["predict"],
        ["solve-fine"],
        ["solve-coarse", "--tensors", "direct"],
        ["solve-coarse", "--tensors", "predicted"],
    ):
        assert main(stage + argv) == 0, stage
    capsys.readouterr()
    RunLayout(tmp_path).state_path("coarse_predicted", 2, "u").unlink()
    assert main(["report"] + argv) == 1
    err = capsys.readouterr().err
    assert "poroscale report: error:" in err and "coarse_predicted_0002_u" in err
    assert "`poroscale solve-coarse --tensors predicted`" in err


def test_speedup_lines_survive_zero_prediction_time(tmp_path):
    layout = RunLayout(tmp_path)
    (tmp_path / "timing").mkdir()
    timings = {
        "homogenize": {"per_realization_s": {"2": 0.5, "3": 0.8}},
        "predict": {"per_realization_s": {"2": 0.0, "3": 0.1}},
    }
    for stage, payload in timings.items():
        layout.timing_path(stage).write_text(json.dumps(payload), "utf-8")
    lines, speedups = _speedup_block(layout)
    assert speedups == {"3": pytest.approx(8.0)}
    assert lines[:2] == [
        "realization 2: direct local solves 0.500 s, prediction 0.000 s, speedup n/a",
        "realization 3: direct local solves 0.800 s, prediction 0.100 s, speedup x8.0",
    ]


def test_stage_summary_is_json(capsys, tmp_path):
    argv = ["generate-fields", "--preset", "desk-mini", "--workdir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert '"kl_terms"' in out
    assert '"n_realizations": 3' in out


def test_rejects_unknown_tensor_source(tmp_path):
    with pytest.raises(SystemExit):
        parse(
            ["solve-coarse", "--tensors", "guessed", "--preset", "desk-mini"]
        )
