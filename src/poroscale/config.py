"""Pipeline configuration: sectioned key-value files and shipped presets.

A configuration file is INI-style text with [run], [domain], [field],
[poro], and [train] sections. ``SCHEMA`` is the list of keys: one row per
key, in file order, naming the ``PipelineConfig`` attribute it sets and
the parser of its value. ``config_to_text`` and ``config_from_text`` both
walk it, and defaults live only in the dataclasses: an omitted key takes
its field's default, a section or key not in the table is an error, and
values are literal (no ``%`` interpolation). Writing a loaded file
reproduces it byte for byte (round-trip fixed point), which keeps reruns
comparable.

Presets live in the package ``presets`` directory; ``load_preset`` finds
them by bare name (``test1``, ``desk-test1``, ...).
"""

import configparser
import itertools
from dataclasses import MISSING, dataclass, fields, is_dataclass
from importlib import resources
from operator import attrgetter

from .dataset import SplitSpec
from .errors import ParameterError
from .poro import PoroConstants, TimeSteppingConfig
from .random_field import CovarianceSpec, PropertyParams
from .surrogate.training import TrainConfig

# config_to_text has no caller in the package: perfbench and the tests use it
__all__ = [
    "PRESET_NAMES", "SCHEMA", "PipelineConfig", "config_from_text",
    "config_to_text", "load_config", "load_preset",
]

PRESET_NAMES = (
    "test1",
    "test2",
    "test3",
    "desk-test1",
    "desk-test3",
    "desk-surrogate",
    "desk-mini",
)


@dataclass(frozen=True, kw_only=True)
class PipelineConfig:
    name: str
    workdir: str
    n_realizations: int
    n_test_realizations: int
    threads: int = 1
    fine_cells: tuple
    coarse_cells: tuple
    field: CovarianceSpec
    seed_base: int
    props: PropertyParams
    constants: PoroConstants
    stepping: TimeSteppingConfig
    train: TrainConfig
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


def _list_of(item):
    """Parser of a list value: ``[1, 2]``, ``1, 2`` and ``1 2`` all work."""

    def parse(text):
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            text = text[1:-1]
        parts = text.replace(",", " ").split()
        if not parts:
            raise ParameterError("empty list value in configuration")
        return tuple(item(p) for p in parts)

    return parse


_INTS = _list_of(int)
_FLOATS = _list_of(float)

# (section, key, attribute path in PipelineConfig, parser), in file order
SCHEMA = (
    ("run", "name", "name", str),
    ("run", "workdir", "workdir", str),
    ("run", "n_realizations", "n_realizations", int),
    ("run", "n_test_realizations", "n_test_realizations", int),
    ("run", "threads", "threads", int),
    ("domain", "fine_cells", "fine_cells", _INTS),
    ("domain", "coarse_cells", "coarse_cells", _INTS),
    ("field", "sigma2", "field.sigma2", float),
    ("field", "l2", "field.length_sq", _FLOATS),
    ("field", "energy_fraction", "field.energy_fraction", float),
    ("field", "max_terms", "field.max_terms", int),
    ("field", "seed_base", "seed_base", int),
    ("field", "mean_young", "props.mean_young", float),
    ("field", "young_slope", "props.young_slope", float),
    ("field", "eta", "props.eta", float),
    ("field", "floor_ratio", "props.floor_ratio", float),
    ("poro", "m_biot", "constants.m_biot", float),
    ("poro", "alpha_biot", "constants.alpha_biot", float),
    ("poro", "nu_f", "constants.nu_f", float),
    ("poro", "source", "constants.source", float),
    ("poro", "t_max", "stepping.t_max", float),
    ("poro", "n_steps", "stepping.n_steps", int),
    ("poro", "p0", "stepping.p0", float),
    ("poro", "p1", "stepping.p1", float),
    ("train", "epochs", "train.epochs", int),
    ("train", "batch_size", "train.batch_size", int),
    ("train", "learning_rate", "train.learning_rate", float),
    ("train", "dropout", "train.dropout", float),
    ("train", "seed", "train.seed", int),
    ("train", "split_seed", "split.seed", int),
    ("train", "test_fraction", "split.test_fraction", float),
    ("train", "train_ratio", "split.train_ratio", float),
)
_ROWS = {path: (section, key, parse) for section, key, path, parse in SCHEMA}


def _format_value(value):
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def config_to_text(config):
    """Serialize in table order, one blank line between sections."""
    blocks = []
    for section, rows in itertools.groupby(SCHEMA, key=lambda row: row[0]):
        lines = [f"[{section}]"]
        for _, key, path, _ in rows:
            lines.append(f"{key} = {_format_value(attrgetter(path)(config))}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def _build(cls, prefix, parser):
    """``cls`` from the keys present; an omitted key takes its default."""
    kwargs = {}
    for field in fields(cls):
        path = prefix + field.name
        if is_dataclass(field.type):
            kwargs[field.name] = _build(field.type, path + ".", parser)
            continue
        section, key, parse = _ROWS[path]
        text = parser[section].get(key)
        if text is not None:
            kwargs[field.name] = parse(text)
        elif field.default is MISSING:
            raise ParameterError(f"configuration misses {section}.{key}")
    return cls(**kwargs)


def config_from_text(text):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParameterError(f"malformed configuration: {exc}") from exc
    sections = dict.fromkeys(row[0] for row in SCHEMA)
    keys = {row[:2] for row in SCHEMA}
    unknown = []
    for s in parser.sections():
        if s not in sections:
            unknown.append(f"[{s}]")
        else:
            unknown += [f"{s}.{k}" for k in parser[s] if (s, k) not in keys]
    if unknown:
        raise ParameterError(f"configuration has unknown {', '.join(unknown)}")
    for section in sections:
        if not parser.has_section(section):
            raise ParameterError(f"configuration misses section {section!r}")
    try:
        return _build(PipelineConfig, "", parser)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"invalid configuration value: {exc}") from exc


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def load_preset(name):
    if name not in PRESET_NAMES:
        known = ", ".join(PRESET_NAMES)
        raise ParameterError(f"unknown preset {name!r} (available: {known})")
    ref = resources.files("poroscale.presets").joinpath(f"{name}.cfg")
    return config_from_text(ref.read_text(encoding="utf-8"))
