"""Outside-in benchmark of the poroscale pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run measures for about S seconds. It runs whole pipelines, each in a
fresh single-threaded process, one at a time, timing every stage call from
outside the program, and checks every pipeline's outputs (see checks.py).
After each pipeline a probe process times set-up (interpreter start,
package import, configuration load) and reruns the training and online
stages on the artifacts left behind. With ``--trace 1`` traced and
untraced pipelines alternate: the traced ones give the per-layer figures,
and the difference in ``pipeline_s`` is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The run's detail
file, with environment, operations, speedup, accuracy and (when traced)
the span tree and self-time table, goes to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import metrics
import spans
from workloads import ONLINE_STAGES, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# a run ends, whatever --seconds says, before this many seconds
HARD_LIMIT_S = 165.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    for key in THREAD_ENV:
        env[key] = "1"
    env.pop("NH_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def git_commit():
    """Commit of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(config_text):
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {key: child_env().get(key) for key in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
    }


class Runner:
    """Starts worker processes for one run and collects their results."""

    def __init__(self, workload, run_dir, deadline):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0

    def start(self, mode, trace=False):
        self.count += 1
        job_path = self.run_dir / f"job{self.count}.json"
        out_path = self.run_dir / f"result{self.count}.json"
        out_path.unlink(missing_ok=True)
        if mode == "pipeline":
            shutil.rmtree(self.run_dir / "work", ignore_errors=True)
        job = {
            "mode": mode,
            "workload": self.workload.name,
            "config": str(self.run_dir / "bench.cfg"),
            "trace": bool(trace),
            "out": str(out_path),
        }
        job_path.write_text(json.dumps(job), encoding="utf-8")
        with open(self.run_dir / "worker.log", "a", encoding="utf-8") as log:
            spawn = repr(time.monotonic())
            try:
                subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(job_path), spawn],
                    cwd=self.run_dir,
                    env=child_env(),
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - time.monotonic()),
                    check=False,
                )
            except subprocess.TimeoutExpired:
                return {"mode": mode, "trace": trace, "fatal": "timed out"}
        if not out_path.is_file():
            return {"mode": mode, "trace": trace, "fatal": "no result written"}
        return json.loads(out_path.read_text(encoding="utf-8"))


def count_ops(result, workload):
    """(attempted, failed) operations of one worker process.

    A probe's set-up is one operation, and so is each stage call and each
    output check. A process that dies adds one failed operation; if it died
    before a pipeline's stages ran, every stage counts as failed too.
    """
    fatal = int("fatal" in result)
    if result["mode"] == "probe":
        calls = len(result.get("train_s", [])) + len(ONLINE_STAGES) * len(
            result.get("online_s", [])
        )
        return 1 + calls + fatal, fatal
    checks = result.get("checks", {})
    attempted = result.get("stages_attempted", len(workload.stages)) + len(checks)
    failed = result.get("stages_failed", len(workload.stages))
    failed += sum(not ok for ok in checks.values())
    return attempted + fatal, failed + fatal


def measure(runner, seconds, trace):
    """Pipeline processes alternating with probes until the time is used.

    A probe process sets up, then reruns the training stage and the online
    stages on the artifacts the last pipeline left. Probes give the short
    stages and set-up more samples, spread over the whole run so that no
    median hangs on one stretch of machine load; time left when no further
    pipeline fits goes to more probes.
    """
    t_end = time.monotonic() + seconds
    runner.start("setup")  # warm-up: fills the bytecode cache
    plan = (False, True) if trace else (False,)
    reps, probes = [], []
    durations = {False: [], True: [], "probe": []}

    def timed(kind, *args):
        t0 = time.monotonic()
        result = runner.start(*args)
        durations[kind].append(time.monotonic() - t0)
        return result

    while True:
        traced = plan[len(reps) % len(plan)]
        reps.append(timed(traced, "pipeline", traced))
        probes.append(timed("probe", "probe"))
        upcoming = plan[len(reps) % len(plan)]
        estimate = max(durations[upcoming] or durations[traced])
        if len(reps) >= len(plan) and time.monotonic() + estimate > t_end:
            break
        if time.monotonic() + estimate > runner.deadline:
            break
    while time.monotonic() + max(durations["probe"]) < min(t_end, runner.deadline):
        probes.append(timed("probe", "probe"))
    return probes, reps


def speedup(e2e, online_groups, reps):
    """Per-domain cost of the direct route over the surrogate route."""
    rep = reps[0]
    direct = e2e["homogenize_s"] / rep["n_domains"]
    online = metrics.online_s(online_groups) / rep["n_held_out"]
    return {
        "direct_per_domain_s": direct,
        "online_per_domain_s": online,
        "speedup": direct / online,
        "direct_basis": f"homogenize_s over {rep['n_domains']} realizations",
        "online_basis": (
            f"predict + solve-coarse predicted over {rep['n_held_out']} "
            "held-out realizations"
        ),
    }


def trace_summary(first, traced_s, overhead_s, pipeline_s):
    """Span accounting and self-time tables of one traced pipeline."""
    stage_sum = sum(e - b for _, b, e, parent, _ in first if parent is None)
    tracing = sum(e - b for name, b, e, _, _ in first if name.startswith("trace."))
    return {
        "overhead_s": overhead_s,
        "stage_span_sum_s": stage_sum,
        "tracing_span_sum_s": tracing,
        "traced_pipeline_s": traced_s,
        "untraced_pipeline_s": pipeline_s,
        "stage_spans_pct_of_traced": 100.0 * stage_sum / traced_s,
        # stage spans less the tracer's own work, over untraced pipeline_s
        "stage_spans_pct_of_untraced": 100.0 * (stage_sum - tracing) / pipeline_s,
        "self_time": spans.span_table(first),
        "self_time_by_parent": spans.span_table(first, spans.parent_key),
    }


def print_report(values, units, detail):
    """Every metric by name with its unit, then the unbounded figures."""
    for name, value in values.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    if "speedup" in detail:
        sp = detail["speedup"]
        print(
            f"per-domain speedup x{sp['speedup']:.1f}: direct "
            f"{sp['direct_per_domain_s']:.4f} s ({sp['direct_basis']}), online "
            f"{sp['online_per_domain_s']:.4f} s ({sp['online_basis']})"
        )
    for rep in detail["accuracy"][:1]:
        for key, value in rep.items():
            if key.endswith("_pct"):
                print(f"{key:40s} {value:16.6g} %")
        if "direct_coarse_errors" in rep:
            errors = ", ".join(f"{v:.2f}" for v in rep["direct_coarse_errors"])
            print(f"direct coarse errors (p L2, p energy, u L2, u energy): {errors} %")
        if "direct_within_criterion4" in rep:
            verdict = "within" if rep["direct_within_criterion4"] else "outside"
            print(f"direct coarse errors {verdict} criterion 4 bounds")
    print(
        f"ops {detail['ops']} failed_ops {detail['failed_ops']}; "
        f"detail in {detail['path']}"
    )


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "poroscale" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= HARD_LIMIT_S:
        print(f"error: --seconds must lie in [1, {HARD_LIMIT_S:g}]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from poroscale.config import config_to_text

    workload = WORKLOADS[args.workload]
    t_run = time.monotonic()
    load_start = os.getloadavg()
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_text = config_to_text(make_config(workload, args.seed, "work"))
    (run_dir / "bench.cfg").write_text(config_text, encoding="utf-8")

    runner = Runner(workload, run_dir, t_run + HARD_LIMIT_S)
    probes, reps = measure(runner, args.seconds, args.trace)
    shutil.rmtree(run_dir / "work", ignore_errors=True)

    attempted = failed = 0
    for result in probes + reps:
        a, f = count_ops(result, workload)
        attempted += a
        failed += f
    ok_probes = [r for r in probes if "fatal" not in r]
    good = [r for r in reps if "online_s" in r and "fatal" not in r]
    untraced = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "path": f"{run_dir.relative_to(ROOT)}/detail.json",
        "environment": environment(config_text),
        "loadavg_start": load_start,
        "config": config_text,
        "pipeline_processes": len(reps),
        "probe_processes": len(probes),
        "ops": attempted,
        "failed_ops": failed,
        "errors": [r.get("fatal") or r.get("error") for r in reps + probes
                   if r.get("fatal") or r.get("error")],
        "failed_checks": sorted(
            {k for r in good for k, ok in r["checks"].items() if not ok}
        ),
        "accuracy": [r["accuracy"] for r in good],
        "stage_s": [r["stage_s"] for r in good],
        "pipeline_s": {"untraced": [r["pipeline_s"] for r in untraced],
                       "traced": [r["pipeline_s"] for r in traced]},
        "online_s": [r["online_s"] for r in untraced + ok_probes],
        "train_s": [r["stage_s"]["train"] for r in untraced]
        + [s for r in ok_probes for s in r["train_s"]],
        "setup_s": [r["setup"]["setup_s"] for r in untraced + ok_probes],
    }
    values = {}
    if untraced and ok_probes:
        e2e = metrics.end_to_end(detail, untraced)
        detail["end_to_end"] = e2e
        detail["speedup"] = speedup(e2e, detail["online_s"], untraced)
        if traced:
            values = metrics.per_layer(ok_probes + untraced, untraced, traced)
            detail["trace"] = trace_summary(
                traced[0]["spans"],
                traced[0]["pipeline_s"],
                values["trace.overhead_s"],
                e2e["pipeline_s"],
            )
            (run_dir / "spans.json").write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "attrs"],
                "spans": traced[0]["spans"],
            }), encoding="utf-8")
        if not args.trace:
            values = e2e
    detail["loadavg_end"] = os.getloadavg()
    detail["wall_s"] = time.monotonic() - t_run
    (run_dir / "detail.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8"
    )

    defs = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    units = {d[0]: d[1] for d in defs}
    print_report(values, units, detail)
    print(json.dumps({
        "correct": failed == 0 and set(values) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
