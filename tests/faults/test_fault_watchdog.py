"""Watchdog tests: hung kernels die with typed errors, fast.

Uses the fault-injection workloads (:mod:`repro.kernels.faults`) to
exercise every way a simulation can hang — runaway cycle count, no
forward progress, wall-clock overrun — and checks each is converted into
the right :class:`~repro.errors.SimulationError` subclass instead of
spinning forever.
"""

import time

import numpy as np
import pytest

from repro.errors import DeadlockError, JobTimeoutError
from repro.gpu.config import ENGINES, GpuConfig
from repro.isa.builder import KernelBuilder
from repro.isa.registers import FlagRef
from repro.isa.types import CmpOp, DType
from repro.kernels import WORKLOAD_REGISTRY, run_workload
from repro.kernels.faults import spin_forever
from repro.kernels.workload import LaunchStep, Workload


def divergent_spin(threads: int = 4, simd_width: int = 8) -> Workload:
    """Thread 0 loops forever; every other thread leaves the loop and retires.

    Under the fast engine's lowest-pc-first schedule the spinning thread
    always holds the lowest pc, so the others never run again and only
    the per-thread instruction budget stops the functional pass.
    """
    b = KernelBuilder("divergent_spin", simd_width)
    gid = b.global_id()
    sy = b.surface_arg("y")
    it = b.mov(b.vreg(DType.I32), 0)
    b.do_()
    b.add(it, it, 1)
    again = b.cmp(CmpOp.LT, gid, simd_width, flag=FlagRef(1))
    b.while_(again)
    b.store(it, b.shl(b.vreg(DType.I32), gid, 2), sy)
    n = threads * simd_width
    return Workload(
        name="divergent_spin",
        program=b.finish(),
        buffers={"y": np.zeros(n, dtype=np.int32)},
        steps=[LaunchStep(global_size=n, local_size=simd_width)],
        check=None,
        category="fault",
        description="one thread spins while the rest retire",
    )


class TestCycleBudget:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_infinite_loop_trips_max_cycles(self, engine):
        config = GpuConfig(max_cycles=20_000, engine=engine)
        start = time.monotonic()
        with pytest.raises(DeadlockError, match="max_cycles"):
            run_workload(spin_forever(), config)
        assert time.monotonic() - start < 30  # died promptly, not at 20M

    @pytest.mark.parametrize("engine", ENGINES)
    def test_divergent_spin_trips_max_cycles(self, engine):
        config = GpuConfig(max_cycles=20_000, engine=engine)
        start = time.monotonic()
        with pytest.raises(DeadlockError, match="max_cycles"):
            run_workload(divergent_spin(), config)
        assert time.monotonic() - start < 30

    def test_fast_budget_names_the_thread(self):
        config = GpuConfig(max_cycles=2_000, engine="fast")
        with pytest.raises(DeadlockError,
                           match=r"thread 0 exceeded its instruction budget "
                                 r"of 1001, derived from max_cycles=2000"):
            run_workload(divergent_spin(), config)

    def test_deadlock_importable_from_simulator_module(self):
        # Back-compat: DeadlockError predates repro.errors and used to
        # live in repro.gpu.simulator; both import paths must agree.
        from repro.gpu.simulator import DeadlockError as SimDeadlock

        assert SimDeadlock is DeadlockError
        assert issubclass(DeadlockError, RuntimeError)


@pytest.mark.parametrize("engine", ENGINES)
class TestWallClock:
    def test_infinite_loop_trips_wall_budget(self, engine):
        start = time.monotonic()
        with pytest.raises(JobTimeoutError, match="wall-clock"):
            run_workload(spin_forever(), GpuConfig(engine=engine),
                         host_seconds=0.3)
        assert time.monotonic() - start < 10

    def test_budget_checked_between_launch_steps(self, engine):
        # fault_sleep blocks in host code between steps; the per-step
        # deadline check catches the overrun once the sleep returns.
        workload = WORKLOAD_REGISTRY["fault_sleep"](seconds=0.5)
        with pytest.raises(JobTimeoutError):
            run_workload(workload, GpuConfig(engine=engine),
                         host_seconds=0.2)

    def test_generous_budget_does_not_fire(self, engine):
        result = run_workload(WORKLOAD_REGISTRY["va"](),
                              GpuConfig(engine=engine), host_seconds=300.0)
        assert result.total_cycles > 0


class TestNoProgressWatchdog:
    def test_stuck_scheduler_trips_watchdog(self, monkeypatch):
        # Force a scheduling deadlock: EUs keep generating events but
        # never issue or retire anything.  The cycle budget alone would
        # grind through 20M cycles; watchdog_cycles converts the stall
        # into a typed error almost immediately.
        from repro.eu.eu import ExecutionUnit

        monkeypatch.setattr(ExecutionUnit, "step", lambda self, now: None)
        monkeypatch.setattr(ExecutionUnit, "next_event",
                            lambda self, now: now + 1)
        config = GpuConfig(watchdog_cycles=500)
        with pytest.raises(DeadlockError, match="watchdog_cycles"):
            run_workload(WORKLOAD_REGISTRY["va"](), config)

    def test_watchdog_disabled_by_zero(self, monkeypatch):
        from repro.eu.eu import ExecutionUnit

        monkeypatch.setattr(ExecutionUnit, "step", lambda self, now: None)
        monkeypatch.setattr(ExecutionUnit, "next_event",
                            lambda self, now: now + 1)
        config = GpuConfig(watchdog_cycles=0, max_cycles=2_000)
        # With the progress watchdog off the cycle budget still backstops.
        with pytest.raises(DeadlockError, match="max_cycles"):
            run_workload(WORKLOAD_REGISTRY["va"](), config)

    def test_watchdog_config_validation(self):
        with pytest.raises(ValueError):
            GpuConfig(watchdog_cycles=-1).validate()
        with pytest.raises(ValueError):
            GpuConfig(max_cycles=0).validate()


class TestFaultWorkloadHygiene:
    def test_fault_workloads_registered_but_grouped_out(self):
        from repro.kernels import DIVERGENT_WORKLOADS, FAULT_WORKLOADS

        assert set(FAULT_WORKLOADS) == {"fault_spin", "fault_sleep",
                                        "fault_crash", "fault_count"}
        assert all(name in WORKLOAD_REGISTRY for name in FAULT_WORKLOADS)
        assert not set(FAULT_WORKLOADS) & set(DIVERGENT_WORKLOADS)

    def test_fault_workloads_excluded_from_efficiency_study(self):
        import inspect

        from repro.analysis import efficiency

        # The default study iterates the registry; it must filter the
        # fault entries or fig03 would hang on fault_spin.
        source = inspect.getsource(efficiency.simulator_efficiencies)
        assert "FAULT_WORKLOADS" in source

    def test_benign_payload_passes_verification(self):
        # fault_sleep with a tiny sleep completes and verifies: the
        # fault workloads' payloads are real kernels, so a surviving
        # retry produces a legitimate result.
        workload = WORKLOAD_REGISTRY["fault_sleep"](seconds=0.01)
        result = run_workload(workload, GpuConfig())
        assert result.total_cycles > 0
