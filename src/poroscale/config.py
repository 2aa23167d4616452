"""Pipeline configuration: sectioned key-value files and shipped presets.

A configuration file is INI-style text with [run], [domain], [field],
[poro], and [train] sections. ``load_config`` and ``save_config`` are
inverse up to formatting, and saving a loaded file reproduces it byte for
byte (round-trip fixed point), which keeps reruns comparable.

Presets live in the package ``presets`` directory; ``load_preset`` finds
them by bare name (``test1``, ``desk-test1``, ...).
"""

import configparser
import io
from dataclasses import dataclass
from importlib import resources

from .dataset import SplitSpec
from .errors import ParameterError
from .poro import PoroConstants, TimeSteppingConfig
from .random_field import CovarianceSpec, PropertyParams

PRESET_NAMES = (
    "test1",
    "test2",
    "test3",
    "desk-test1",
    "desk-test3",
    "desk-surrogate",
    "desk-mini",
)


@dataclass(frozen=True)
class TrainSettings:
    """Optimization settings; batch_size 0 means one coarse-cell count."""

    epochs: int = 100
    batch_size: int = 0
    learning_rate: float = 1e-3
    dropout: float = 0.1
    seed: int = 1

    def __post_init__(self):
        if self.epochs < 0:
            raise ParameterError("epoch count must be nonnegative")
        if self.batch_size < 0:
            raise ParameterError("batch size must be nonnegative")
        if self.learning_rate <= 0:
            raise ParameterError("learning rate must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    name: str
    workdir: str
    n_realizations: int
    n_test_realizations: int
    threads: int
    fine_cells: tuple
    coarse_cells: tuple
    field: CovarianceSpec
    seed_base: int
    props: PropertyParams
    constants: PoroConstants
    stepping: TimeSteppingConfig
    train: TrainSettings
    split: SplitSpec

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ParameterError("need at least one training realization")
        if self.n_test_realizations < 1:
            raise ParameterError("need at least one held-out realization")
        if self.threads < 1:
            raise ParameterError("thread count must be positive")
        if len(self.fine_cells) != len(self.coarse_cells):
            raise ParameterError("fine and coarse grids must share dimension")
        if len(self.fine_cells) != len(self.field.length_sq):
            raise ParameterError("covariance length count must match dimension")

    @property
    def dimension(self):
        return len(self.fine_cells)

    @property
    def n_cells(self):
        n = 1
        for c in self.coarse_cells:
            n *= c
        return n

    def batch_size(self):
        return self.train.batch_size if self.train.batch_size else self.n_cells

    def realization_seed(self, index):
        return (self.seed_base, index)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)


def _parse_list(text, item):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ParameterError("empty list value in configuration")
    return tuple(item(p) for p in parts)


def config_to_text(config):
    """Serialize in canonical section and key order."""
    out = io.StringIO()
    sections = [
        (
            "run",
            [
                ("name", config.name),
                ("workdir", config.workdir),
                ("n_realizations", config.n_realizations),
                ("n_test_realizations", config.n_test_realizations),
                ("threads", config.threads),
            ],
        ),
        (
            "domain",
            [
                ("fine_cells", config.fine_cells),
                ("coarse_cells", config.coarse_cells),
            ],
        ),
        (
            "field",
            [
                ("sigma2", config.field.sigma2),
                ("l2", config.field.length_sq),
                ("energy_fraction", config.field.energy_fraction),
                ("max_terms", config.field.max_terms),
                ("seed_base", config.seed_base),
                ("mean_young", config.props.mean_young),
                ("young_slope", config.props.young_slope),
                ("eta", config.props.eta),
                ("floor_ratio", config.props.floor_ratio),
            ],
        ),
        (
            "poro",
            [
                ("m_biot", config.constants.m_biot),
                ("alpha_biot", config.constants.alpha_biot),
                ("nu_f", config.constants.nu_f),
                ("source", config.constants.source),
                ("t_max", config.stepping.t_max),
                ("n_steps", config.stepping.n_steps),
                ("p0", config.stepping.p0),
                ("p1", config.stepping.p1),
            ],
        ),
        (
            "train",
            [
                ("epochs", config.train.epochs),
                ("batch_size", config.train.batch_size),
                ("learning_rate", config.train.learning_rate),
                ("dropout", config.train.dropout),
                ("seed", config.train.seed),
                ("split_seed", config.split.seed),
                ("test_fraction", config.split.test_fraction),
                ("train_ratio", config.split.train_ratio),
            ],
        ),
    ]
    for i, (section, pairs) in enumerate(sections):
        if i:
            out.write("\n")
        out.write(f"[{section}]\n")
        for key, value in pairs:
            out.write(f"{key} = {_format_value(value)}\n")
    return out.getvalue()


def config_from_text(text):
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParameterError(f"malformed configuration: {exc}") from exc
    try:
        run = parser["run"]
        domain = parser["domain"]
        field = parser["field"]
        poro = parser["poro"]
        train = parser["train"]
    except KeyError as exc:
        raise ParameterError(f"configuration misses section {exc}") from exc
    required = [
        (run, "run", "name"),
        (run, "run", "workdir"),
        (run, "run", "n_realizations"),
        (run, "run", "n_test_realizations"),
        (domain, "domain", "fine_cells"),
        (domain, "domain", "coarse_cells"),
        (field, "field", "sigma2"),
        (field, "field", "l2"),
        (field, "field", "seed_base"),
    ]
    for section, section_name, key in required:
        if section.get(key) is None:
            raise ParameterError(f"configuration misses {section_name}.{key}")
    try:
        return PipelineConfig(
            name=run.get("name"),
            workdir=run.get("workdir"),
            n_realizations=run.getint("n_realizations"),
            n_test_realizations=run.getint("n_test_realizations"),
            threads=run.getint("threads", 1),
            fine_cells=_parse_list(domain.get("fine_cells"), int),
            coarse_cells=_parse_list(domain.get("coarse_cells"), int),
            field=CovarianceSpec(
                sigma2=field.getfloat("sigma2"),
                length_sq=_parse_list(field.get("l2"), float),
                energy_fraction=field.getfloat("energy_fraction", 0.95),
                max_terms=field.getint("max_terms", 512),
            ),
            seed_base=field.getint("seed_base"),
            props=PropertyParams(
                mean_young=field.getfloat("mean_young", 10.0),
                young_slope=field.getfloat("young_slope", 1.0),
                eta=field.getfloat("eta", 0.3),
                floor_ratio=field.getfloat("floor_ratio", 1e-3),
            ),
            constants=PoroConstants(
                m_biot=poro.getfloat("m_biot", 1.0),
                alpha_biot=poro.getfloat("alpha_biot", 1.0),
                nu_f=poro.getfloat("nu_f", 1.0),
                source=poro.getfloat("source", 0.0),
            ),
            stepping=TimeSteppingConfig(
                t_max=poro.getfloat("t_max", 1e-3),
                n_steps=poro.getint("n_steps", 20),
                p0=poro.getfloat("p0", 0.0),
                p1=poro.getfloat("p1", 1.0),
            ),
            train=TrainSettings(
                epochs=train.getint("epochs", 100),
                batch_size=train.getint("batch_size", 0),
                learning_rate=train.getfloat("learning_rate", 1e-3),
                dropout=train.getfloat("dropout", 0.1),
                seed=train.getint("seed", 1),
            ),
            split=SplitSpec(
                test_fraction=train.getfloat("test_fraction", 0.6),
                train_ratio=train.getfloat("train_ratio", 0.8),
                seed=train.getint("split_seed", 0),
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"invalid configuration value: {exc}") from exc


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def save_config(config, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_to_text(config))


def load_preset(name):
    if name not in PRESET_NAMES:
        known = ", ".join(PRESET_NAMES)
        raise ParameterError(f"unknown preset {name!r} (available: {known})")
    ref = resources.files("poroscale.presets").joinpath(f"{name}.cfg")
    return config_from_text(ref.read_text(encoding="utf-8"))
