"""Self-test of the benchmark. Run from the checkout root:

    python3 perfbench/selftest.py

Checks, each printed as PASS or FAIL (exit code 1 on any FAIL):

1. metric names match ``[A-Za-z0-9_.-]+``, there are at most 16
   end-to-end and 128 per-layer metrics, each with a unit and a
   better-direction, and ``BENCHMARK.json`` lists exactly these metrics
   and workloads;
2. a tiny smoke configuration runs every stage end to end, traced, with
   no failed operation;
3. a tampered held-out tensor file makes the output check count a failed
   operation;
4. the benchmark exits nonzero, without a result, in a directory that
   holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SELFTEST_DIR = HERE / "out" / "selftest"
SMOKE = dataclasses.replace(
    WORKLOADS["many-small-2d"],
    name="smoke",
    n_realizations=2,
    n_test_realizations=1,
    epochs=1,
)


def check_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for group, limit in (("end_to_end", 16), ("per_layer", 128)):
        if not 1 <= len(spec[group]) <= limit:
            problems.append(f"{group} has {len(spec[group])} metrics")
        for entry in spec[group]:
            if not metrics.NAME_RE.fullmatch(entry["name"]):
                problems.append(f"bad metric name {entry['name']!r}")
            if not entry.get("unit") or entry.get("better") not in ("lower", "higher"):
                problems.append(f"{entry['name']} lacks a unit or direction")
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in spec["end_to_end"]]
    if declared != list(metrics.END_TO_END):
        problems.append("end_to_end differs from metrics.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != list(metrics.PER_LAYER):
        problems.append("per_layer differs from metrics.PER_LAYER")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        problems.append("a metric name is used twice")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from workloads.WORKLOADS")
    return problems


def run_smoke():
    """Run the smoke workload's stages in this process, traced."""
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    SELFTEST_DIR.mkdir(parents=True)
    config = make_config(SMOKE, seed=3, workdir=SELFTEST_DIR / "work")
    result = {"mode": "pipeline", "trace": True}
    worker.pipeline_job(SMOKE, True, config, result)
    return config, result


def check_smoke(result):
    problems = []
    attempted, failed = run.count_ops(result, SMOKE)
    if result.get("error") or failed or attempted < len(SMOKE.stages):
        problems.append(f"smoke run: {failed} of {attempted} operations failed "
                        f"({result.get('error')})")
    table = spans.span_table(result.get("spans", []))
    for name in ("pipeline.report", "fem.lu_factor", "surrogate.L0.Conv.bwd"):
        if name not in table:
            problems.append(f"no {name} span in the smoke trace")
    return problems


def check_tampered(config, result):
    from poroscale.arrayio import read_array, write_array
    from poroscale.pipeline import RunLayout, held_out_indices

    layout = RunLayout(config.workdir)
    index = held_out_indices(config)[0]
    path = layout.tensor_path(index, "perm")
    perm = read_array(path)
    perm[0] = -perm[0]  # no longer positive definite
    write_array(path, perm)
    tampered = dict(result, checks=checks.check_outputs(config, layout))
    attempted, failed = run.count_ops(tampered, SMOKE)
    if failed < 1:
        return [f"tampered tensor not caught ({failed} of {attempted} failed)"]
    return []


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    bare = SELFTEST_DIR / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "validate-2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark did not fail without the package source"]
    return []


def main():
    config, result = run_smoke()
    outcomes = [
        ("metric definitions", check_metric_definitions()),
        ("smoke run", check_smoke(result)),
        ("tampered tensor", check_tampered(config, result)),
        ("bare directory", check_bare_directory()),
    ]
    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    for name, problems in outcomes:
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if any(problems for _, problems in outcomes) else 0


if __name__ == "__main__":
    raise SystemExit(main())
