#!/usr/bin/env python3
"""Record reference.json: the simulated statistics of every fixed-input job.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py

Runs every fixed-input job of registry, coherent_large and fig12_sweep
once on the fast engine (seeded stress kernels are checked by their DSL
reference instead) and writes their statistics.  Re-record only when a
change is meant to alter simulated results; a host-speed change must
leave this file untouched.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import simload  # noqa: E402
from repro.experiments.fig12 import fig12_data  # noqa: E402
from repro.kernels import run_workload  # noqa: E402
from repro.runner import ResultCache, Runner  # noqa: E402


def main() -> int:
    jobs = {}
    for workload, specs in (("registry", simload.registry_jobs(0)),
                            ("coherent_large", simload.COHERENT_LARGE)):
        for name, params in specs:
            if name.startswith("stress_"):
                continue
            result = run_workload(
                simload.WORKLOAD_REGISTRY[name](**params), simload.CONFIG)
            jobs[simload.job_label(workload, name, params)] = \
                simload.signature(result)
    events = []
    with tempfile.TemporaryDirectory() as tmp:
        fig12_data(base_config=simload.FIG12_CONFIG,
                   runner=Runner(workers=1, cache=ResultCache(tmp),
                                 progress=events.append))
    for event in events:
        jobs[simload.fig12_label(event.job)] = simload.signature(event.result)
    body = {"engine": simload.CONFIG.engine, "jobs": dict(sorted(jobs.items()))}
    with open(simload.REFERENCE_PATH, "w") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(jobs)} reference entries to {simload.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
