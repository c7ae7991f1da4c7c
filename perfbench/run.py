#!/usr/bin/env python3
"""Run one benchmark workload and print every metric with its unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload registry --seed 1 --seconds 25 --trace 0

Workloads: registry, fig12_sweep, coherent_large, serve_mixed (see
README.md beside this file).  ``--trace 0`` prints the end-to-end
metrics, measured with no wrappers installed; ``--trace 1`` prints the
per-layer metrics of a traced pass, plus the tracing overhead against an
untraced pass of the same run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A correctness failure prints that line with ``"correct":
false`` and exits 1; a checkout without ``src/repro`` exits 2 without
a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("registry", "fig12_sweep", "coherent_large", "serve_mixed")
#: Seed used to record reference.json and to tune the benchmark, and one
#: held out from both.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "job_geomean_ms": "ms",
    "peak_rss_mb": "MB",
    "miss_p50_ms": "ms",
    "miss_p95_ms": "ms",
    "served_per_s": "1/s",
}

PER_LAYER: Dict[str, str] = {
    "kernels.build_s": "s",
    "kernels.check_s": "s",
    "eu.batch.s": "s",
    "eu.batch.calls": "count",
    "eu.batch.entries": "count",
    "eu.batch.ns_per_entry": "ns",
    "eu.replay.stats_s": "s",
    "eu.replay.step_s": "s",
    "eu.replay.step_calls": "count",
    "eu.replay.issued_per_step": "ratio",
    "eu.floor_s": "s",
    "eu.floor_calls": "count",
    "eu.floor_per_issue": "ratio",
    "memory.access_s": "s",
    "memory.access_calls": "count",
    "memory.l3_hit_rate": "ratio",
    "memory.dram_lines": "count",
    "gpu.dispatch_s": "s",
    "gpu.dispatch_calls": "count",
    "gpu.simulator.self_s": "s",
    "gpu.simulator.kinst_per_s": "kinst/s",
    "gpu.simulator.cycles": "count",
    "gpu.simulator.instructions": "count",
    "runner.self_s": "s",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "runner.cache_load_ms": "ms",
    "runner.cache_store_ms": "ms",
    "warm_wall_ms": "ms",
    "job_max_ms": "ms",
    "serve.submit_ms_p50": "ms",
    "serve.status_ms_p50": "ms",
    "serve.polls_per_job": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.cache_hits": "count",
    "serve.executed": "count",
    "serve.gen_lag_ms_p95": "ms",
    "hit_p50_ms": "ms",
    "hit_p95_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "failed_frac": "ratio",
}


def percentile(values: List[float], q: int, steps: int = 64) -> float:
    """Harrell-Davis estimate of the *q*-th percentile: the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  With a
    few dozen samples it moves far less from run to run than the one or
    two order statistics a plain percentile reads."""
    x = sorted(values)
    n = len(x)
    if n < 2:
        return x[0] if x else float("nan")
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    width = 1 / (n * steps)
    total = weighted = 0.0
    for i, value in enumerate(x):
        mass = sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                            - log_beta)
                   for t in (i / n + (k + 0.5) * width
                             for k in range(steps)))
        total += mass
        weighted += mass * value
    return weighted / total


def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) \
        if values else float("nan")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


# -- set-up ------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: import what *workload* uses,
    build its first job, and say so."""
    if workload == "serve_mixed":
        raise SystemExit("serve_mixed measures daemon spawns instead")
    import simload

    if workload == "fig12_sweep":
        from repro.runner import code_salt

        code_salt()
        simload.WORKLOAD_REGISTRY["bfs"]()
    else:
        jobs = (simload.registry_jobs(seed) if workload == "registry"
                else simload.COHERENT_LARGE)
        name, params = jobs[0]
        simload.WORKLOAD_REGISTRY[name](**params)
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> List[float]:
    """Seconds from spawning a fresh interpreter until it is ready to
    time its first job, SETUP_PROBES times."""
    times = []
    for _ in range(SETUP_PROBES):
        tick = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - tick)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return times


# -- workloads ---------------------------------------------------------------


def best_job_ms(pass_job_ms: List[List[float]]) -> List[float]:
    """Each job's best time over the run's cold passes.  The host's speed
    drifts over seconds; the best of passes spread through the run is
    the estimate least moved by it."""
    if len({len(p) for p in pass_job_ms}) > 1:  # a job failed somewhere
        return pass_job_ms[0]
    return [min(times) for times in zip(*pass_job_ms)]


def sim_metrics(tally, setups: List[float],
                fixed: List[bool]) -> Dict[str, float]:
    """End-to-end metrics of a simulation workload.  The per-job
    distribution (geomean, p50, p95) is over the fixed-input jobs, the
    ones *fixed* marks: a seeded stress kernel's cost varies more than
    tenfold from seed to seed, and a dozen of them moved the registry's
    median job by a quarter between seeds on the same code.  The seeded
    jobs still count in wall_s and served_per_s."""
    best = best_job_ms(tally.pass_job_ms)
    if len(best) == len(fixed):  # no job failed, so the two line up
        best = [ms for ms, keep in zip(best, fixed) if keep]
    jobs = sum(len(p) for p in tally.pass_job_ms)
    return {
        "setup_s": median(setups),
        "wall_s": median(tally.walls),
        "job_geomean_ms": geomean(best),
        "peak_rss_mb": tally.rss_mb,
        "miss_p50_ms": percentile(best, 50),
        "miss_p95_ms": percentile(best, 95),
        "served_per_s": jobs / sum(tally.walls),
    }


def layer_metrics(tracer, tally) -> Dict[str, float]:
    """Per-layer metrics of the traced section of a run."""
    t = tracer
    instructions = tally.instructions
    step_calls = t.calls("eu.replay.step")
    batch_s = t.seconds("eu.batch")
    sim_s = t.seconds("gpu.simulator")
    loads = t.calls("runner.cache_load")
    pass_total = t.seconds("bench.pass")
    unattributed = t.seconds("bench.pass", own=True) + \
        t.seconds("bench.job", own=True)
    return {
        "kernels.build_s": t.seconds("kernels.build"),
        "kernels.check_s": t.seconds("kernels.check"),
        "eu.batch.s": batch_s,
        "eu.batch.calls": t.calls("eu.batch"),
        "eu.batch.entries": t.batch_entries,
        "eu.batch.ns_per_entry": (batch_s * 1e9 / t.batch_entries
                                  if t.batch_entries else 0.0),
        "eu.replay.stats_s": t.seconds("eu.replay.stats"),
        "eu.replay.step_s": t.seconds("eu.replay.step", own=True),
        "eu.replay.step_calls": step_calls,
        "eu.replay.issued_per_step": (instructions / step_calls
                                      if step_calls else 0.0),
        "eu.floor_s": t.seconds("eu.floor"),
        "eu.floor_calls": t.calls("eu.floor"),
        "eu.floor_per_issue": (t.calls("eu.floor") / instructions
                               if instructions else 0.0),
        "memory.access_s": t.seconds("memory.access"),
        "memory.access_calls": t.calls("memory.access"),
        "memory.l3_hit_rate": (tally.l3_hits / tally.l3_accesses
                               if tally.l3_accesses else 0.0),
        "memory.dram_lines": tally.dram_lines,
        "gpu.dispatch_s": t.seconds("gpu.dispatch"),
        "gpu.dispatch_calls": t.calls("gpu.dispatch"),
        "gpu.simulator.self_s": t.seconds("gpu.simulator", own=True),
        "gpu.simulator.kinst_per_s": (instructions / sim_s / 1e3
                                      if sim_s else 0.0),
        "gpu.simulator.cycles": tally.cycles,
        "gpu.simulator.instructions": instructions,
        "runner.self_s": t.seconds("runner", own=True),
        "runner.cache_hits": loads - t.cache_misses,
        "runner.cache_misses": t.cache_misses,
        "runner.cache_load_ms": t.seconds("runner.cache_load") * 1e3,
        "runner.cache_store_ms": t.seconds("runner.cache_store") * 1e3,
        "warm_wall_ms": tally.warm_ms[-1] if tally.warm_ms else 0.0,
        "job_max_ms": max(tally.pass_job_ms[-1], default=0.0),
        "hit_p50_ms": (percentile(tally.hit_ms, 50) if tally.hit_ms
                       else 0.0),
        "hit_p95_ms": (percentile(tally.hit_ms, 95) if tally.hit_ms
                       else 0.0),
        "trace.overhead_frac": tally.walls[-1] / tally.walls[0] - 1,
        "trace.unattributed_frac": (unattributed / pass_total
                                    if pass_total else 0.0),
    }


def run_sim(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path):
    import simload
    from spans import Tracer

    setups = [] if trace else measure_setup(workload, seed)
    tracer = Tracer() if trace else None
    if workload == "fig12_sweep":
        tally = simload.run_fig12(seconds, workdir, tracer)
        fixed = [True] * simload.FIG12_JOBS
    else:
        jobs = (simload.registry_jobs(seed) if workload == "registry"
                else simload.COHERENT_LARGE)
        tally = simload.run_jobs_workload(workload, jobs, seconds, tracer)
        fixed = [not simload.is_seeded(name) for name, _ in jobs]
    if trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layer_metrics(tracer, tally))
    else:
        metrics = sim_metrics(tally, setups, fixed)
    samples = {"hit_ms": tally.hit_ms,
               "miss_ms": best_job_ms(tally.pass_job_ms)}
    return tally, metrics, samples, tracer


def run_serve(seed: int, seconds: float, trace: bool, workdir: Path):
    import serveload
    from simload import Tally
    from spans import Tracer

    from repro.serve.client import WATCH_INTERVAL, ServeClient

    tally = Tally()
    daemon, setups = serveload.start_daemon(ROOT, workdir)
    try:
        client = ServeClient(port=daemon.port)
        # Traced runs split the time into an untraced and a traced phase.
        phases = [(0, False), (1, True)] if trace else [(0, False)]
        length = seconds / len(phases)
        tracer = Tracer() if trace else None
        for phase, timed in phases:
            arrivals = serveload.schedule(seed, length, phase)
            before = client.metrics()["counters"]
            wall, refused = serveload.run_load(daemon, arrivals, timed)
            after = client.metrics()["counters"]
            tally.walls.append(wall)
            tally.attempted += len(arrivals)
            with tracer if timed else nullcontext():
                serveload.warm_over_daemon_cache(daemon, arrivals, tally)
            tally.failures += serveload.check_phase(client, arrivals,
                                                    before, after)
            tally.failures += [f"serve_mixed: request refused and retried"
                               ] * refused
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    hits = [a for a in arrivals if a.kind == "hit" and not a.error]
    misses = [a for a in arrivals if a.kind == "miss" and not a.error]
    done = hits + misses
    if trace:
        delta = {key: after.get(key, 0.0) - before.get(key, 0.0)
                 for key in set(after) | set(before)}
        executed = delta.get("serve.jobs.executed", 0.0)
        resolved = executed + delta.get("serve.jobs.cache_hits", 0.0) + \
            delta.get("serve.jobs.failed", 0.0)
        polls = sum(len(a.status_ms) for a in done)
        latency = sum(a.latency_ms for a in done)
        attributed = sum(a.lag_ms + a.submit_ms + sum(a.status_ms)
                         + (len(a.status_ms) - 1) * WATCH_INTERVAL * 1e3
                         for a in done)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update({
            "runner.self_s": tracer.seconds("runner", own=True),
            "runner.cache_hits": (tracer.calls("runner.cache_load")
                                  - tracer.cache_misses),
            "runner.cache_misses": tracer.cache_misses,
            "runner.cache_load_ms": tracer.seconds("runner.cache_load") * 1e3,
            "serve.submit_ms_p50": median([a.submit_ms for a in done]),
            "serve.status_ms_p50": median([ms for a in done
                                           for ms in a.status_ms]),
            "serve.polls_per_job": polls / len(done) if done else 0.0,
            "serve.queue_wait_ms": (delta.get("serve.queue.wait_seconds", 0.0)
                                    * 1e3 / resolved if resolved else 0.0),
            "serve.exec_ms": (delta.get("serve.exec.seconds", 0.0) * 1e3
                              / executed if executed else 0.0),
            "serve.cache_hits": delta.get("serve.jobs.cache_hits", 0.0),
            "serve.executed": executed,
            "serve.gen_lag_ms_p95": percentile([a.lag_ms for a in arrivals],
                                               95),
            "warm_wall_ms": tally.warm_ms[-1],
            "job_max_ms": max((a.latency_ms for a in misses), default=0.0),
            "hit_p50_ms": percentile([a.latency_ms for a in hits], 50),
            "hit_p95_ms": percentile([a.latency_ms for a in hits], 95),
            "trace.overhead_frac": tally.walls[-1] / tally.walls[0] - 1,
            "trace.unattributed_frac": ((latency - attributed) / latency
                                        if latency else 0.0),
        })
    else:
        wall = tally.walls[-1]
        metrics = {
            "setup_s": median(setups),
            "wall_s": wall,
            "job_geomean_ms": geomean([a.latency_ms for a in misses]),
            "peak_rss_mb": rss,
            "miss_p50_ms": percentile([a.latency_ms for a in misses], 50),
            "miss_p95_ms": percentile([a.latency_ms for a in misses], 95),
            "served_per_s": len(done) / wall if wall else 0.0,
        }
    samples = {"hit_ms": [a.latency_ms for a in hits],
               "miss_ms": [a.latency_ms for a in misses]}
    return tally, metrics, samples, tracer


# -- entry point -------------------------------------------------------------


def isolate_environment(workdir: Path) -> None:
    """Keep every run off the user's caches: no REPRO_* settings, and any
    default cache location resolves inside the run's own directory."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["XDG_CACHE_HOME"] = str(workdir / "xdg-cache")


def provenance(args, trace: bool) -> Dict[str, object]:
    from repro.runner import code_salt

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    rate = None
    if args.workload == "serve_mixed":
        import serveload

        rate = serveload.RATE
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "offered_rate_per_s": rate,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "code_salt": code_salt(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    trace = bool(args.trace)
    # A caller's timeout arrives as SIGTERM: unwind, so the finally blocks
    # stop the serve daemon and remove the run's directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=HERE / ".work"))
    try:
        isolate_environment(workdir)
        if args.workload == "serve_mixed":
            tally, metrics, samples, tracer = run_serve(
                args.seed, args.seconds, trace, workdir)
        else:
            tally, metrics, samples, tracer = run_sim(
                args.workload, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    if trace:
        metrics["failed_frac"] = failed / attempted
    units = PER_LAYER if trace else END_TO_END
    missing = [name for name in units
               if not isinstance(metrics.get(name), (int, float))
               or math.isnan(metrics[name])]
    if missing:
        tally.failures.append(f"metrics not measured: {', '.join(missing)}")
        failed = len(tally.failures)
    correct = failed == 0
    prov = provenance(args, trace)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.dump(out / f"{stem}-spans.json")
    record = {"provenance": prov, "samples": samples,
              "failures": tally.failures,
              "metrics": {name: {"value": metrics.get(name), "unit": unit}
                          for name, unit in units.items()}}
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{args.seconds:g} s, trace {int(trace)}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics.get(name, float('nan')):>16.6g} {unit}")
    print(f"  samples: {len(samples['hit_ms'])} hit, "
          f"{len(samples['miss_ms'])} miss")
    for message in tally.failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(f"correct: {'yes' if correct else 'NO'} "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name not in missing},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
