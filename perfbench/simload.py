"""The in-process simulation workloads: registry, coherent_large, fig12_sweep.

Every job runs on the fast engine through the public API of
``repro.kernels`` (factories, ``run_workload``), ``repro.runner``
(``Runner``, ``ResultCache``, ``Job``) and ``repro.experiments.fig12``.
Host reference checks stay on, and every fixed-input job's simulated
statistics are compared against ``reference.json`` (see
``record_reference.py``).  Seeded ``stress_*`` jobs are checked by the
numpy reference the DSL synthesizes for them, which ``run_workload``
runs as the workload's host check.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.policy import CompactionPolicy
from repro.dsl.stress import stress_batch
from repro.errors import SimulationError
from repro.experiments.fig12 import RODINIA_NAMES, fig12_data
from repro.gpu.config import GpuConfig
from repro.kernels import FAULT_WORKLOADS, WORKLOAD_REGISTRY, run_workload
from repro.runner import Job, ResultCache, Runner

#: Every simulation runs on the fast engine; scc is the paper's policy.
CONFIG = GpuConfig(policy=CompactionPolicy.SCC, engine="fast")

#: Seeded stress kernels appended to the registry pass.
STRESS_COUNT = 12

#: Coherent workloads at benchmark scale: working sets several times the
#: modelled 128 KB L3, so replay, the event floor, the memory hierarchy
#: and dispatch do most of the host work.
COHERENT_LARGE: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("va", {"n": 65536}),
    ("dp", {"n": 65536}),
    ("transpose", {"dim": 256}),
    ("mvm", {"rows": 512, "cols": 128}),
    ("mm", {"dim": 48}),
    ("trd", {"systems": 1024}),
    ("bscholes", {"n": 16384}),
    ("dct8", {"blocks": 4096}),
    ("fwht", {"groups": 4096}),
    ("scnv", {"n": 32768}),
    ("aes", {"blocks": 16384}),
    ("bop", {"n": 4096}),
    ("dwth", {"n": 65536}),
)

#: Nominal seconds of one cold pass on a 2-vCPU host.  A run makes
#: ``--seconds // PASS_SECONDS`` cold passes (at least one): a fixed
#: count, because each job's time is its best over the passes and a
#: count that followed the host's speed would change that estimator.
PASS_SECONDS = {"registry": 25.0, "coherent_large": 7.0,
                "fig12_sweep": 12.0}


def cold_passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS[workload]))


REFERENCE_PATH = Path(__file__).with_name("reference.json")

JobSpec = Tuple[str, Dict[str, int]]


def registry_jobs(seed: int) -> List[JobSpec]:
    """Every non-fault registry entry at its default size, then the
    seeded stress batch."""
    names = [name for name in WORKLOAD_REGISTRY if name not in FAULT_WORKLOADS]
    names += stress_batch(STRESS_COUNT, seed=seed * 1000)
    return [(name, {}) for name in names]


def is_seeded(name: str) -> bool:
    """True for a stress kernel the seed generated, False for a
    fixed-input job."""
    return name.startswith("stress_")


def job_label(workload: str, name: str, params: Dict[str, int]) -> str:
    suffix = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{workload}/{name}" + (f"({suffix})" if suffix else "")


def _stats_digest(stats) -> str:
    fields = {
        "instructions": stats.instructions,
        "enabled_lane_slots": stats.enabled_lane_slots,
        "issued_lane_slots": stats.issued_lane_slots,
        "cycles": {policy.value: count
                   for policy, count in stats.cycles.items()},
        "buckets": dict(sorted(stats.bucket_counts.items())),
        "rf_accesses_baseline": stats.rf_accesses_baseline,
        "rf_accesses_bcc": stats.rf_accesses_bcc,
        "scc_swizzles": stats.scc_swizzles,
    }
    text = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def signature(result) -> Dict[str, Any]:
    """The simulated statistics a host-speed change must leave alone."""
    return {
        "total_cycles": result.total_cycles,
        "instructions": result.instructions,
        "l3_hits": result.l3_hits,
        "l3_accesses": result.l3_accesses,
        "llc_hits": result.llc_hits,
        "llc_accesses": result.llc_accesses,
        "dc_lines": result.dc_lines,
        "dram_lines": result.dram_lines,
        "buffers_digest": result.buffers_digest,
        "alu_stats": _stats_digest(result.alu_stats),
        "simd_stats": _stats_digest(result.simd_stats),
    }


def load_reference() -> Dict[str, Dict[str, Any]]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["jobs"]


def compare(reference: Dict[str, Dict[str, Any]], label: str,
            result) -> Optional[str]:
    """Mismatch description for a fixed-input job, None when it matches.
    Seeded stress jobs have no reference entry and pass here."""
    expected = reference.get(label)
    if expected is None:
        if is_seeded(label.rpartition("/")[2]):
            return None
        return f"{label}: no reference entry"
    got = signature(result)
    diffs = [f"{key} {expected[key]!r} != {got[key]!r}"
             for key in expected if expected[key] != got.get(key)]
    return f"{label}: " + "; ".join(diffs) if diffs else None


@dataclass
class Tally:
    """What one run did: timings, simulated totals, failures."""

    #: Wall seconds of each cold pass; with tracing the last one is traced.
    walls: List[float] = field(default_factory=list)
    #: Per-job milliseconds of each cold pass.
    pass_job_ms: List[List[float]] = field(default_factory=list)
    #: Warm pass wall in milliseconds, and the time of each hit in it.
    warm_ms: List[float] = field(default_factory=list)
    hit_ms: List[float] = field(default_factory=list)
    #: Peak RSS after the first cold pass, in MB.
    rss_mb: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Simulated totals of the last cold pass.
    cycles: int = 0
    instructions: int = 0
    l3_hits: int = 0
    l3_accesses: int = 0
    dram_lines: int = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def end_pass(self, wall: float, job_ms: List[float], results) -> None:
        self.walls.append(wall)
        self.pass_job_ms.append(job_ms)
        if not self.rss_mb:
            self.rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        results = list(results)
        self.cycles = sum(r.total_cycles for r in results)
        self.instructions = sum(r.instructions for r in results)
        self.l3_hits = sum(r.l3_hits for r in results)
        self.l3_accesses = sum(r.l3_accesses for r in results)
        self.dram_lines = sum(r.dram_lines for r in results)


def _span(tracer, name: str, job: Optional[str] = None):
    return tracer.span(name, job) if tracer is not None else nullcontext()


def warm_pass(runner: Runner, jobs: List[Job], tally: Tally,
              run_pass=None) -> Dict[str, Any]:
    """One warm pass over a filled cache: every job must hit, none may
    miss or execute.  Times the pass and each hit (the gap since the
    previous progress event; the runner resolves hits one after
    another).  Returns ``{job key: result}``."""
    cache = runner.cache
    misses = cache.misses
    results: Dict[str, Any] = {}
    last = [0.0]

    def on_event(event) -> None:
        now = time.perf_counter()
        if event.status == "cached":
            tally.hit_ms.append((now - last[0]) * 1e3)
            results[event.job.key] = event.result
        last[0] = now

    runner.progress = on_event
    tally.attempted += len(jobs)
    tick = last[0] = time.perf_counter()
    if run_pass is None:
        runner.run(jobs)
    else:
        run_pass()
    tally.warm_ms.append((time.perf_counter() - tick) * 1e3)
    stats = runner.last_stats
    if stats.cache_hits != len(jobs) or stats.executed or \
            cache.misses != misses:
        tally.fail(f"warm pass: {stats.cache_hits} hits, {stats.executed} "
                   f"executed, {cache.misses - misses} misses over "
                   f"{len(jobs)} jobs")
    return results


# -- registry and coherent_large ------------------------------------------


def cold_pass(workload: str, jobs: List[JobSpec], reference, tally: Tally,
              tracer=None) -> None:
    """Build, simulate and check every job once, in-process, no cache."""
    results = []
    job_ms: List[float] = []
    start = time.perf_counter()
    for name, params in jobs:
        label = job_label(workload, name, params)
        tally.attempted += 1
        tick = time.perf_counter()
        try:
            with _span(tracer, "bench.job", label):
                result = run_workload(WORKLOAD_REGISTRY[name](**params),
                                      CONFIG, verify=True)
        except (SimulationError, AssertionError, RuntimeError) as exc:
            tally.fail(f"{label}: {type(exc).__name__}: {exc}")
            continue
        job_ms.append((time.perf_counter() - tick) * 1e3)
        mismatch = compare(reference, label, result)
        if mismatch:
            tally.fail(mismatch)
        results.append(result)
    tally.end_pass(time.perf_counter() - start, job_ms, results)


def run_jobs_workload(workload: str, jobs: List[JobSpec], seconds: float,
                      tracer=None) -> Tally:
    """registry / coherent_large: a fixed number of cold passes.

    With a *tracer*, one untraced cold pass is followed by a traced one;
    the traced wall is ``walls[-1]``."""
    reference = load_reference()
    tally = Tally()
    for _ in range(1 if tracer is not None else cold_passes(workload,
                                                            seconds)):
        cold_pass(workload, jobs, reference, tally)
    if tracer is not None:
        with tracer, tracer.span("bench.pass"):
            cold_pass(workload, jobs, reference, tally, tracer)
    return tally


# -- fig12_sweep ------------------------------------------------------------


FIG12_CONFIG = GpuConfig(engine="fast")
FIG12_JOBS = 6 * len(RODINIA_NAMES)


def fig12_label(job: Job) -> str:
    l3 = "pl3" if job.config.memory.perfect_l3 else "l3"
    return f"fig12_sweep/{job.workload}/{job.config.policy.value}/{l3}"


def fig12_cold(workdir: Path, index: int, reference, tally: Tally,
               tracer=None) -> Tuple[Runner, Dict[Job, Any]]:
    """One cold pass of the Fig. 12 grid over a fresh cache."""
    events: list = []
    runner = Runner(workers=1, cache=ResultCache(workdir / f"fig12-{index}"),
                    progress=events.append, retries=0)
    tally.attempted += FIG12_JOBS
    tick = time.perf_counter()
    try:
        with _span(tracer, "bench.pass"):
            fig12_data(base_config=FIG12_CONFIG, runner=runner)
    except SimulationError as exc:
        tally.fail(f"fig12_sweep cold pass: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - tick
    if runner.last_stats.cache_hits != 0:
        tally.fail(f"fig12_sweep cold pass found "
                   f"{runner.last_stats.cache_hits} cache hits in a fresh "
                   f"cache")
    results: Dict[Job, Any] = {}
    for event in events:
        label = fig12_label(event.job)
        if event.status == "failed":
            tally.fail(f"{label}: {event.error}")
            continue
        mismatch = compare(reference, label, event.result)
        if mismatch:
            tally.fail(mismatch)
        results[event.job] = event.result
    if len(results) != FIG12_JOBS:
        tally.fail(f"fig12_sweep cold pass resolved {len(results)} of "
                   f"{FIG12_JOBS} jobs")
    tally.end_pass(wall, [event.elapsed * 1e3 for event in events
                          if event.status == "executed"], results.values())
    _check_eu_order(results, tally)
    return runner, results


def _check_eu_order(results: Dict[Job, Any], tally: Tally) -> None:
    """The paper's claim on every kernel: EU cycles scc <= bcc <= ivb."""
    by_point = {(job.workload, job.config.policy,
                 job.config.memory.perfect_l3): result
                for job, result in results.items()}
    for name in RODINIA_NAMES:
        for perfect in (False, True):
            cycles = [by_point[(name, policy, perfect)].eu_cycles
                      if (name, policy, perfect) in by_point else None
                      for policy in (CompactionPolicy.SCC,
                                     CompactionPolicy.BCC,
                                     CompactionPolicy.IVB)]
            if None in cycles or not cycles[0] <= cycles[1] <= cycles[2]:
                tally.fail(f"fig12_sweep/{name}: EU cycles scc/bcc/ivb "
                           f"{cycles} break scc <= bcc <= ivb")


def run_fig12(seconds: float, workdir: Path, tracer=None) -> Tally:
    """A fixed number of cold passes over fresh caches, then the warm
    pass: fig12_data again over the last one's cache, which must hit all
    30 jobs and return the cold statistics.  With a *tracer*: one
    untraced cold pass, then a traced cold pass and a traced warm pass."""
    reference = load_reference()
    tally = Tally()
    passes = 1 if tracer is not None else cold_passes("fig12_sweep", seconds)
    for index in range(passes):
        runner, results = fig12_cold(workdir, index, reference, tally)
    with tracer if tracer is not None else nullcontext():
        if tracer is not None:
            runner, results = fig12_cold(workdir, passes, reference, tally,
                                         tracer)
        with _span(tracer, "bench.warm"):
            warm = warm_pass(runner, list(results), tally,
                             lambda: fig12_data(base_config=FIG12_CONFIG,
                                                runner=runner))
    for job, result in results.items():
        got = warm.get(job.key)
        if got is None or signature(got) != signature(result):
            tally.fail(f"{fig12_label(job)}: warm result differs")
    return tally
