"""One benchmark process: set up, run a workload's stages, check outputs.

Usage: ``python3 perfbench/worker.py JOB.json SPAWN``. The job names the
mode, the workload, the generated configuration file, whether to trace and
where to write the result; SPAWN is the orchestrator's monotonic clock
reading just before it started this process (the clock is shared by all
processes). Modes:

- ``setup`` stops once the configuration is loaded;
- ``pipeline`` runs the workload's stages in order and checks the outputs;
- ``probe`` reruns the training stage and the online stages on the
  artifacts an earlier pipeline process left, as a later stage invocation
  would, for more samples of the short stages.

The pipeline stages receive only the configuration.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import ONLINE_STAGES, STAGES, WORKLOADS

T_MAIN = time.monotonic()

# online-route repeats in each probe process; their mean is one sample
PROBE_ONLINE_REPEATS = 5

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(job, spawn):
    """Import the package as every stage invocation does, load the config."""
    sys.path.insert(0, str(SRC))
    t0 = time.monotonic()
    import poroscale
    import poroscale.cli  # noqa: F401  (what a stage invocation imports)
    from poroscale.config import load_config

    t1 = time.monotonic()
    config = load_config(job["config"])
    t2 = time.monotonic()
    if Path(poroscale.__file__).resolve().parent != SRC / "poroscale":
        raise RuntimeError(f"poroscale imported from {poroscale.__file__}")
    timings = {
        "setup_s": t2 - spawn,
        "interpreter_s": T_MAIN - spawn,
        "import_s": t1 - t0,
        "config_s": t2 - t1,
    }
    return config, timings


def call_stage(name, config, layout):
    from poroscale import pipeline

    fn, args = STAGES[name]
    return getattr(pipeline, fn)(config, layout, *args)


def run_stages(config, layout, stages, tracer):
    """Call the stages in order; stops at the first one that raises."""
    stage_s, stage_rss, error = {}, {}, None
    t_start = time.perf_counter()
    for name in stages:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                call_stage(name, config, layout)
            else:
                with tracer.span(f"pipeline.{name}"):
                    call_stage(name, config, layout)
        except Exception:  # a failing stage is a failed operation
            error = {"stage": name, "traceback": traceback.format_exc()}
            break
        stage_s[name] = time.perf_counter() - t0
        stage_rss[name] = peak_rss_mb()
    return time.perf_counter() - t_start, stage_s, stage_rss, error


def time_stages(config, layout, stage_names):
    t0 = time.perf_counter()
    for name in stage_names:
        call_stage(name, config, layout)
    return time.perf_counter() - t0


def pipeline_job(workload, trace, config, result):
    from poroscale.pipeline import RunLayout, all_indices, held_out_indices

    import checks

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    layout = RunLayout(config.workdir)
    pipeline_s, stage_s, stage_rss, error = run_stages(
        config, layout, workload.stages, tracer
    )
    result.update(
        pipeline_s=pipeline_s,
        stage_s=stage_s,
        stage_rss_mb=stage_rss,
        peak_rss_mb=peak_rss_mb(),
        stages_attempted=len(workload.stages),
        stages_failed=len(workload.stages) - len(stage_s),
        error=error,
    )
    if tracer is not None:
        tracer.active = False
        result["spans"] = tracer.spans
    if error is not None:
        return
    result["checks"] = checks.check_outputs(config, layout)
    result["accuracy"] = checks.accuracy(config, layout, workload.criterion4)
    result["online_s"] = [sum(stage_s[name] for name in ONLINE_STAGES)]
    result["n_domains"] = len(all_indices(config))
    result["n_held_out"] = len(held_out_indices(config))


def probe_job(config, result):
    from poroscale.pipeline import RunLayout

    layout = RunLayout(config.workdir)
    result["train_s"] = [time_stages(config, layout, ("train",))]
    result["online_s"] = [
        time_stages(config, layout, ONLINE_STAGES)
        for _ in range(PROBE_ONLINE_REPEATS)
    ]


def main(argv):
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = {"mode": job["mode"], "trace": job["trace"]}
    try:
        config, result["setup"] = setup(job, float(argv[2]))
        if job["mode"] == "pipeline":
            pipeline_job(WORKLOADS[job["workload"]], job["trace"], config, result)
        elif job["mode"] == "probe":
            probe_job(config, result)
    except Exception:  # reported to the orchestrator as a failed operation
        result["fatal"] = traceback.format_exc()
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
