"""Cross-engine differential verification (interp vs fast).

The two-phase fast core (:mod:`repro.eu.batch` functional pass +
:mod:`repro.eu.replay` timing replay) is only trustworthy if it is
*behaviorally indistinguishable* from the interleaved interpreter.  This
module runs every requested workload under both engines — same policy,
same memory model — through the shared :class:`~repro.runner.Runner`
and checks:

* **functional identity** — bit-identical output-buffer digests and
  identical dynamic instruction counts, unconditionally;
* **stat identity** — the full :class:`~repro.core.stats.CompactionStats`
  fingerprints (lane slots, per-policy analytic cycles, utilization
  buckets, swizzle/RF counters) agree for the ALU-only and all-SIMD
  accumulators;
* **timing identity** — the replay engine shares the interpreter's
  arbitration, pipe, scoreboard, and memory-hierarchy code paths, so
  ``total_cycles`` must agree *exactly*.

Workloads whose ``Workload.mask_deterministic`` is False (benign
intra-launch races, e.g. level-synchronous BFS) keep the functional
identity checks but relax the mask statistics and exact cycle equality.
The fast engine schedules its functional pass MinPC (lowest pc first,
arxiv 2407.02944).  On a race-free workload any legal schedule gives
the same values, so that order cannot matter; a benign race, though,
can resolve differently from the timed interleaving, shifting masks and
therefore cycles by a fraction of a percent.  Their timed totals are
still pinned within :data:`ENGINE_TIMING_TOLERANCE`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..gpu.config import ENGINES, GpuConfig
from ..gpu.results import KernelRunResult
from ..runner import Job, Runner, default_runner
from .differential import _mask_deterministic, _stats_fingerprint
from .report import Violation, WorkloadVerdict, error_verdict

#: Suffix appended to a workload's name in engine-parity verdicts, so
#: they never collide with the cross-policy verdicts in one report.
PARITY_SUFFIX = "@engines"

#: Relative |fast - interp| slack on ``total_cycles`` for workloads with
#: mask-nondeterministic races; mask-deterministic workloads get 0.0
#: (exact equality).  Empirically the drift is < 0.1 % (BFS).
ENGINE_TIMING_TOLERANCE = 0.01

#: The reference engine and the engine under test.
REFERENCE_ENGINE, TESTED_ENGINE = ENGINES


def verify_engine_results(
    name: str,
    interp: KernelRunResult,
    fast: KernelRunResult,
    mask_deterministic: bool = True,
    timing_tolerance: float = ENGINE_TIMING_TOLERANCE,
) -> List[Violation]:
    """Cross-check one workload's interp and fast runs; returns violations."""
    scope = name + PARITY_SUFFIX
    violations: List[Violation] = []

    if interp.buffers_digest is None or fast.buffers_digest is None:
        violations.append(Violation(
            scope=scope, check="engine-functional-identity",
            message="a run carries no output-buffer digest "
                    "(stale cache entry?)"))
    elif interp.buffers_digest != fast.buffers_digest:
        violations.append(Violation(
            scope=scope, check="engine-functional-identity",
            message=f"output buffers differ: fast digest "
                    f"{fast.buffers_digest[:16]}... != interp digest "
                    f"{interp.buffers_digest[:16]}..."))
    if interp.instructions != fast.instructions:
        violations.append(Violation(
            scope=scope, check="engine-instruction-count",
            message=f"fast executed {fast.instructions} instructions, "
                    f"interp executed {interp.instructions}"))

    if mask_deterministic:
        if fast.total_cycles != interp.total_cycles:
            violations.append(Violation(
                scope=scope, check="engine-total-cycles",
                message=f"fast total_cycles={fast.total_cycles} != "
                        f"interp total_cycles={interp.total_cycles} "
                        f"(replay must be timing-identical)"))
        if fast.simd_efficiency != interp.simd_efficiency:
            violations.append(Violation(
                scope=scope, check="engine-simd-efficiency",
                message=f"fast efficiency {fast.simd_efficiency!r} != "
                        f"interp efficiency {interp.simd_efficiency!r}"))
        for label, fast_stats, interp_stats in (
            ("alu_stats", fast.alu_stats, interp.alu_stats),
            ("simd_stats", fast.simd_stats, interp.simd_stats),
        ):
            fp, ref_fp = (_stats_fingerprint(fast_stats),
                          _stats_fingerprint(interp_stats))
            if fp != ref_fp:
                diffs = [key for key in fp if fp[key] != ref_fp[key]]
                violations.append(Violation(
                    scope=scope, check="engine-stats-identity",
                    message=f"{label} diverges between engines in: "
                            f"{', '.join(diffs)}"))
    else:
        lo = interp.total_cycles * (1.0 - timing_tolerance)
        hi = interp.total_cycles * (1.0 + timing_tolerance)
        if not lo <= fast.total_cycles <= hi:
            violations.append(Violation(
                scope=scope, check="engine-total-cycles",
                message=f"fast total_cycles={fast.total_cycles} outside "
                        f"{timing_tolerance:.2%} of interp "
                        f"total_cycles={interp.total_cycles} "
                        f"(mask-nondeterministic workload)"))
    return violations


def _metrics(results: Dict[str, KernelRunResult]) -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for engine_name, result in results.items():
        out[engine_name] = {
            "total_cycles": result.total_cycles,
            "instructions": result.instructions,
            "simd_efficiency": round(result.simd_efficiency, 9),
            "buffers_digest": result.buffers_digest,
        }
    return out


def run_engine_parity(
    names: Optional[Sequence[str]] = None,
    base_config: Optional[GpuConfig] = None,
    runner: Optional[Runner] = None,
    timing_tolerance: float = ENGINE_TIMING_TOLERANCE,
) -> List[WorkloadVerdict]:
    """Differentially verify interp vs fast on *names*.

    Defaults to every non-fault registry workload.  The 2×len(names)
    simulations go through the shared runner, so they are deduplicated
    against (and feed) the same on-disk result cache everything else
    uses — including the cross-policy harness, which shares the interp
    runs when the base configs agree.
    """
    from .differential import verifiable_workloads

    ordered = list(names) if names is not None else verifiable_workloads()
    base = base_config if base_config is not None else GpuConfig()
    engine = runner if runner is not None else default_runner()

    jobs: Dict[tuple, Job] = {
        (name, eng): Job(name, base.with_engine(eng))
        for name in ordered for eng in (REFERENCE_ENGINE, TESTED_ENGINE)
    }
    results = engine.run(jobs.values(), strict=False)
    failures = engine.last_stats.failures

    verdicts: List[WorkloadVerdict] = []
    for name in ordered:
        per_engine: Dict[str, KernelRunResult] = {}
        error = None
        for eng in (REFERENCE_ENGINE, TESTED_ENGINE):
            job = jobs[(name, eng)]
            if job in results:
                per_engine[eng] = results[job]
            elif error is None and job.key in failures:
                error = failures[job.key]
        if error is not None or len(per_engine) < 2:
            verdict = error_verdict(
                name + PARITY_SUFFIX,
                error if error is not None else RuntimeError(
                    f"missing engine run(s) for {name!r}"))
            verdict.metrics = _metrics(per_engine)
            verdicts.append(verdict)
            continue
        verdicts.append(WorkloadVerdict(
            workload=name + PARITY_SUFFIX,
            violations=verify_engine_results(
                name, per_engine[REFERENCE_ENGINE],
                per_engine[TESTED_ENGINE],
                mask_deterministic=_mask_deterministic(name),
                timing_tolerance=timing_tolerance),
            metrics=_metrics(per_engine),
        ))
    return verdicts
