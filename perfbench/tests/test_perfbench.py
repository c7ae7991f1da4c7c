"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import serveload
import simload
import spans
from repro.kernels import WORKLOAD_REGISTRY, run_workload

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent

#: Share of a traced pass that may fall outside every layer span (the
#: benchmark's own loop, run_workload's result merge and buffer digest).
RESIDUAL = 0.05


def _originals():
    import repro.kernels as kernels

    found = {}
    for _, path, attr, _ in spans.WRAPPED:
        owner = spans._resolve(path)
        found[(path, attr)] = (owner.__dict__[attr] if isinstance(owner, type)
                               else getattr(owner, attr))
    found["dynamic_factory"] = kernels.dynamic_factory
    found["registry"] = dict(dict.items(WORKLOAD_REGISTRY))
    return found


def test_every_wrapped_attribute_is_restored():
    before = _originals()
    with spans.Tracer() as tracer:
        during = _originals()
        assert all(during[key] is not before[key]
                   for key in before if key != "registry")
        assert all(during["registry"][name] is not factory
                   for name, factory in before["registry"].items())
        run_workload(WORKLOAD_REGISTRY["va"](), simload.CONFIG)
    after = _originals()
    assert all(after[key] is before[key] for key in before if key != "registry")
    assert after["registry"].keys() == before["registry"].keys()
    assert all(after["registry"][name] is factory
               for name, factory in before["registry"].items())
    assert tracer.calls("eu.replay.step") > 0


def test_tracing_leaves_simulated_statistics_identical():
    names = ["va", "nested_l3", "bfs", "aes", "rt_pr_conf"]
    names += simload.stress_batch(2, seed=run.DEFAULT_SEED * 1000)
    plain = {name: simload.signature(run_workload(
        WORKLOAD_REGISTRY[name](), simload.CONFIG)) for name in names}
    with spans.Tracer() as tracer:
        traced = {name: simload.signature(run_workload(
            WORKLOAD_REGISTRY[name](), simload.CONFIG)) for name in names}
    assert traced == plain
    # The traced runs took the replay engine's own issue scan: every
    # layer on the fast path saw calls, and no observer was attached.
    for layer in ("eu.batch", "eu.replay.stats", "eu.replay.step",
                  "eu.floor", "memory.access", "gpu.dispatch",
                  "gpu.simulator", "kernels.build", "kernels.check"):
        assert tracer.calls(layer) > 0, layer
    assert simload.CONFIG.telemetry == "off"


def _layer_self_sum(tracer):
    layers = [name for name in tracer.totals if not name.startswith("bench.")]
    return sum(tracer.seconds(name, own=True) for name in layers)


@pytest.mark.parametrize("workload,jobs", [
    ("registry", [("va", {}), ("nested_l2", {}), ("bfs", {}),
                  (simload.stress_batch(1, seed=1000)[0], {})]),
    ("coherent_large", [("va", {"n": 65536}), ("bscholes", {"n": 16384})]),
])
def test_layer_self_times_sum_to_traced_wall(workload, jobs):
    tracer = spans.Tracer()
    tally = simload.run_jobs_workload(workload, jobs, 0.0, tracer)
    assert tally.failures == []
    metrics = run.layer_metrics(tracer, tally)
    assert metrics["trace.unattributed_frac"] < RESIDUAL
    # Every layer span sits inside the traced pass, so the layers' self
    # times and the unattributed rest add up to the pass exactly.
    cold = tracer.seconds("bench.pass")
    unattributed = tracer.seconds("bench.pass", own=True) \
        + tracer.seconds("bench.job", own=True)
    assert _layer_self_sum(tracer) == pytest.approx(cold - unattributed)
    assert tally.walls[-1] <= cold
    # These workloads run without the runner or its cache.
    assert tracer.calls("runner") == tracer.calls("runner.cache_load") == 0


def test_fig12_state_gates_and_residual(tmp_path):
    tracer = spans.Tracer()
    tally = simload.run_fig12(0.0, tmp_path, tracer)
    assert tally.failures == []
    metrics = run.layer_metrics(tracer, tally)
    assert metrics["trace.unattributed_frac"] < RESIDUAL
    # Traced section: a cold pass over a fresh cache (every job misses),
    # then the warm pass (every job hits).
    assert metrics["runner.cache_misses"] == simload.FIG12_JOBS
    assert metrics["runner.cache_hits"] == simload.FIG12_JOBS
    assert len(tally.hit_ms) == simload.FIG12_JOBS
    assert len(tally.walls) == 2


def test_fig12_gate_rejects_a_warm_cache(tmp_path):
    reference = simload.load_reference()
    tally = simload.Tally()
    simload.fig12_cold(tmp_path, 0, reference, tally)
    assert tally.failures == []
    simload.fig12_cold(tmp_path, 0, reference, tally)
    assert any("cache hits in a fresh cache" in f for f in tally.failures)


def test_reference_mismatch_is_a_failure():
    result = run_workload(WORKLOAD_REGISTRY["va"](), simload.CONFIG)
    reference = {"registry/va": dict(simload.signature(result),
                                     total_cycles=1)}
    assert "total_cycles" in simload.compare(reference, "registry/va", result)
    assert simload.compare(reference, "registry/stress_s1_d1_e0_t0_m0",
                           result) is None
    assert "no reference" in simload.compare({}, "registry/dp", result)


def test_serve_schedule_is_seeded():
    a = serveload.schedule(1, 20.0)
    b = serveload.schedule(1, 20.0)
    c = serveload.schedule(2, 20.0)
    assert [(x.due, x.kind, x.spec) for x in a] == \
        [(x.due, x.kind, x.spec) for x in b]
    assert [x.spec for x in a] != [x.spec for x in c]
    for index, arrival in enumerate(a):
        if arrival.kind == "hit":
            assert a[arrival.ref].kind == "miss"
            assert a[arrival.ref].due <= arrival.due - serveload.MIN_HIT_AGE


def _run_cli(args, cwd, env):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170)


def test_serve_run_prints_every_metric_and_stays_isolated(tmp_path):
    env = dict(os.environ)
    for var, name in (("REPRO_CACHE_DIR", "repro-cache"), ("HOME", "home"),
                      ("XDG_CACHE_HOME", "xdg")):
        (tmp_path / name).mkdir()
        env[var] = str(tmp_path / name)
    proc = _run_cli(["--workload", "serve_mixed", "--seed", "2",
                     "--seconds", "9", "--trace", "1"], ROOT, env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.unattributed_frac"] < RESIDUAL
    assert metrics["serve.cache_hits"] + metrics["serve.executed"] > 0
    for name in ("repro-cache", "home", "xdg"):
        assert list((tmp_path / name).iterdir()) == [], name


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work",
                                                  "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli(["--workload", "registry", "--seed", "1", "--seconds",
                     "1", "--trace", "0"], tmp_path, dict(os.environ))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
