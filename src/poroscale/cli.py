"""Command line interface: one subcommand per pipeline stage.

Every subcommand takes exactly one of ``--config FILE`` or ``--preset
NAME``, plus optional ``--workdir`` and ``--threads`` overrides of the
config's ``workdir`` and ``threads``. Exit code is 0 on success; failures
print a diagnostic to stderr and exit nonzero.
"""

import argparse
import dataclasses
import json
import sys

from .config import PRESET_NAMES, load_config, load_preset
from .errors import ParameterError, PoroscaleError
from .pipeline import (
    DIRECT,
    PREDICTED,
    RunLayout,
    build_dataset_stage,
    evaluate_stage,
    generate_fields_stage,
    homogenize_stage,
    predict_stage,
    report_stage,
    solve_coarse_stage,
    solve_fine_stage,
    train_stage,
)

_STAGES = {
    "generate-fields": (generate_fields_stage, "sample and store property fields"),
    "homogenize": (homogenize_stage, "direct local solves for effective tensors"),
    "build-dataset": (build_dataset_stage, "assemble scaled training datasets"),
    "train": (train_stage, "train the patch-to-tensor networks"),
    "evaluate": (evaluate_stage, "metrics of the trained networks per split"),
    "predict": (predict_stage, "predict effective tensors on held-out domains"),
    "solve-fine": (solve_fine_stage, "reference fine-grid solves"),
    "solve-coarse": (None, "coarse solves from direct or predicted tensors"),
    "report": (report_stage, "aggregate errors and timings into reports"),
}


def _add_common(sub):
    sub.add_argument("--config", metavar="FILE", help="configuration file path")
    sub.add_argument(
        "--preset",
        metavar="NAME",
        help="shipped preset name (one of: " + ", ".join(PRESET_NAMES) + ")",
    )
    sub.add_argument("--workdir", metavar="DIR", help="override the run directory")
    sub.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="parallel workers; overrides the config",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poroscale",
        description=(
            "Stochastic poroelasticity upscaling pipeline: property-field "
            "generation, numerical homogenization, surrogate training, and "
            "coarse-grid solution with error and speedup reports."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _STAGES.items():
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "solve-coarse":
            sub.add_argument(
                "--tensors",
                choices=(DIRECT, PREDICTED),
                default=DIRECT,
                help="which effective tensors drive the coarse solve",
            )
    return parser


def resolve_config(args):
    if bool(args.config) == bool(args.preset):
        raise ParameterError("pass exactly one of --config or --preset")
    config = load_config(args.config) if args.config else load_preset(args.preset)
    overrides = {}
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.workdir:
        overrides["workdir"] = args.workdir
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        layout = RunLayout(config.workdir)
        if args.command == "solve-coarse":
            record = solve_coarse_stage(config, layout, args.tensors)
        else:
            record = _STAGES[args.command][0](config, layout)
        print(f"poroscale {args.command}: ok")
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    except PoroscaleError as exc:
        print(f"poroscale {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
