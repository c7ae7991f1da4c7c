"""Service-level tests for the ``repro serve`` job service.

Exercises :class:`repro.serve.JobService` directly (no HTTP): in-flight
dedup proven with an execution-counting fault workload, cancellation of
queued jobs (including primary promotion), journal recovery across a
simulated restart, the typed admission-control errors, and the status
long-poll's wake-ups.
"""

import asyncio
import time

import pytest

from repro.errors import QueueFullError, RateLimitError
from repro.serve import (
    JobService,
    JobSpec,
    JobState,
    NotCancellableError,
    RateLimiter,
    UnknownJobError,
)
from repro.serve import service as service_module

#: Terminal wait budget for locally-run jobs (generous for slow CI).
WAIT = 120.0


def _service(tmp_path, **kwargs):
    kwargs.setdefault("cache", tmp_path / "cache")
    return JobService(tmp_path / "data", **kwargs)


def _count_spec(counter, sleep=0.0, **extra):
    """A fault_count submission: every *execution* appends one line."""
    params = {"counter": str(counter)}
    if sleep:
        params["sleep"] = sleep
    return {"workload": "fault_count", "params": params, **extra}


def _lines(counter):
    try:
        return counter.read_text().splitlines()
    except OSError:
        return []


async def _wait(record, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while record.state not in JobState.TERMINAL:
        assert time.monotonic() < deadline, (
            f"job {record.id} stuck in {record.state}")
        await asyncio.sleep(0.01)
    return record


async def _wait_state(record, state, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while record.state != state:
        assert time.monotonic() < deadline, (
            f"job {record.id} is {record.state}, wanted {state}")
        await asyncio.sleep(0.01)
    return record


class TestDedup:
    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """Two identical in-flight submissions -> one execution, two
        identical results (the tentpole's core claim, proven by the
        never-cached counting workload)."""
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            first = service.submit(_count_spec(counter, sleep=0.3))
            await service.start()
            # Catch the primary mid-flight, then submit its duplicate.
            await _wait_state(first, JobState.RUNNING)
            second = service.submit(_count_spec(counter, sleep=0.3))
            assert second.dedup_of == first.id
            await _wait(first)
            await _wait(second)
            await service.drain()
            return service, first, second

        service, first, second = asyncio.run(scenario())
        assert first.state == JobState.DONE
        assert second.state == JobState.DONE
        assert len(_lines(counter)) == 1  # exactly one simulation
        assert first.result == second.result
        assert first.result["buffers_digest"] == second.result["buffers_digest"]
        assert service.counters.get("serve.jobs.submitted") == 2
        assert service.counters.get("serve.jobs.deduped") == 1
        assert service.counters.get("serve.jobs.executed") == 1

    def test_queued_duplicates_collapse_before_dispatch(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            records = [service.submit(_count_spec(counter))
                       for _ in range(3)]
            await service.start()
            for record in records:
                await _wait(record)
            await service.drain()
            return service, records

        service, records = asyncio.run(scenario())
        assert [r.state for r in records] == [JobState.DONE] * 3
        assert len(_lines(counter)) == 1
        assert records[1].dedup_of == records[0].id
        assert records[2].dedup_of == records[0].id
        assert service.counters.get("serve.jobs.deduped") == 2

    def test_different_specs_do_not_dedup(self, tmp_path):
        a_file, b_file = tmp_path / "a.txt", tmp_path / "b.txt"

        async def scenario():
            service = _service(tmp_path)
            a = service.submit(_count_spec(a_file))
            b = service.submit(_count_spec(b_file))
            assert b.dedup_of is None
            await service.start()
            await _wait(a)
            await _wait(b)
            await service.drain()
            return a, b

        a, b = asyncio.run(scenario())
        assert len(_lines(a_file)) == 1
        assert len(_lines(b_file)) == 1
        # Same kernel, different counter file -> different content keys.
        assert a.key != b.key


class TestCancel:
    def test_cancel_while_queued_never_executes(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            record = service.submit(_count_spec(counter))
            cancelled = service.cancel(record.id)
            assert cancelled.state == JobState.CANCELLED
            # Start after cancelling: the dispatcher must skip it.
            await service.start()
            await service.drain()
            return service, record

        service, record = asyncio.run(scenario())
        assert record.state == JobState.CANCELLED
        assert _lines(counter) == []  # never simulated
        assert service.counters.get("serve.jobs.cancelled") == 1
        assert service.counters.get("serve.jobs.executed") == 0

    def test_cancel_primary_promotes_subscriber(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            primary = service.submit(_count_spec(counter))
            subscriber = service.submit(_count_spec(counter))
            assert subscriber.dedup_of == primary.id
            service.cancel(primary.id)
            # The duplicate is still owed a result: it takes over.
            assert subscriber.dedup_of is None
            await service.start()
            await _wait(subscriber)
            await service.drain()
            return primary, subscriber

        primary, subscriber = asyncio.run(scenario())
        assert primary.state == JobState.CANCELLED
        assert subscriber.state == JobState.DONE
        assert len(_lines(counter)) == 1

    def test_cancel_subscriber_leaves_primary(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def scenario():
            service = _service(tmp_path)
            primary = service.submit(_count_spec(counter))
            subscriber = service.submit(_count_spec(counter))
            service.cancel(subscriber.id)
            await service.start()
            await _wait(primary)
            await service.drain()
            return primary, subscriber

        primary, subscriber = asyncio.run(scenario())
        assert primary.state == JobState.DONE
        assert subscriber.state == JobState.CANCELLED
        assert len(_lines(counter)) == 1

    def test_terminal_and_unknown_jobs_not_cancellable(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            record = service.submit({"workload": "va"})
            await service.start()
            await _wait(record)
            with pytest.raises(NotCancellableError):
                service.cancel(record.id)
            with pytest.raises(UnknownJobError):
                service.cancel("j99999-nope")
            await service.drain()

        asyncio.run(scenario())


class TestJournalRecovery:
    def test_unresolved_jobs_requeue_on_restart(self, tmp_path):
        counter = tmp_path / "count.txt"

        async def before():
            service = _service(tmp_path)
            # Submitted but never dispatched: the daemon "crashes" here.
            service.submit(_count_spec(counter))
            service.submit(_count_spec(counter))  # its duplicate

        asyncio.run(before())

        async def after():
            service = _service(tmp_path)
            assert service.counters.get("serve.jobs.recovered") == 2
            records = service.list_jobs()
            assert [r.state for r in records] == [JobState.QUEUED] * 2
            # Dedup linkage is rebuilt from the journal order.
            assert records[1].dedup_of == records[0].id
            await service.start()
            for record in records:
                await _wait(record)
            await service.drain()
            return records

        records = asyncio.run(after())
        assert [r.state for r in records] == [JobState.DONE] * 2
        assert len(_lines(counter)) == 1

    def test_resolved_jobs_survive_restart_with_results(self, tmp_path):
        async def before():
            service = _service(tmp_path)
            await service.start()
            record = service.submit({"workload": "va", "policy": "scc"})
            await _wait(record)
            await service.drain()
            return record

        first = asyncio.run(before())
        assert first.state == JobState.DONE

        reborn = _service(tmp_path)
        record = reborn.get(first.id)
        assert record.state == JobState.DONE
        assert record.result == first.result
        assert reborn.counters.get("serve.jobs.recovered") == 0

    def test_cancelled_jobs_stay_cancelled_after_restart(self, tmp_path):
        async def before():
            service = _service(tmp_path)
            record = service.submit({"workload": "va"})
            service.cancel(record.id)
            return record

        first = asyncio.run(before())
        reborn = _service(tmp_path)
        assert reborn.get(first.id).state == JobState.CANCELLED
        assert len(reborn.list_jobs(state=JobState.QUEUED)) == 0


class TestAdmissionControl:
    def test_queue_full_raises_typed_503(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, queue_limit=1)
            service.submit({"workload": "va"})
            with pytest.raises(QueueFullError) as excinfo:
                service.submit({"workload": "dp"})
            assert excinfo.value.http_status == 503
            # A duplicate of the queued job adds no work: still admitted.
            duplicate = service.submit({"workload": "va"})
            assert duplicate.dedup_of is not None
            assert service.counters.get(
                "serve.jobs.rejected.queue_full") == 1

        asyncio.run(scenario())

    def test_rate_limit_raises_typed_429(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, rate_limit=1.0, rate_burst=1)
            service.submit({"workload": "va"}, client="alice")
            with pytest.raises(RateLimitError) as excinfo:
                service.submit({"workload": "dp"}, client="alice")
            assert excinfo.value.http_status == 429
            # Rate limits are per client identity.
            service.submit({"workload": "dp"}, client="bob")

        asyncio.run(scenario())

    def test_draining_rejects_submissions(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            await service.drain()
            with pytest.raises(QueueFullError):
                service.submit({"workload": "va"})

        asyncio.run(scenario())

    def test_rate_limiter_refills(self):
        limiter = RateLimiter(rate=10.0, burst=1)
        assert limiter.allow("c", now=0.0)
        assert not limiter.allow("c", now=0.01)
        assert limiter.allow("c", now=0.2)  # 0.19s * 10/s > 1 token


class TestSpecValidation:
    @pytest.mark.parametrize("payload", [
        "not a dict",
        {},
        {"workload": "no_such_workload"},
        {"workload": "va", "policy": "warp-drive"},
        {"workload": "va", "engine": "jit"},
        {"workload": "va", "telemetry": "firehose"},
        {"workload": "va", "dc_lines_per_cycle": 0},
        {"workload": "va", "max_cycles": -5},
        {"workload": "va", "params": [1, 2]},
        {"workload": "va", "surprise": True},
    ])
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            JobSpec.from_payload(payload)

    def test_spec_compiles_to_content_keyed_job(self):
        spec = JobSpec.from_payload({
            "workload": "va", "policy": "scc", "engine": "fast",
            "telemetry": "counters", "dc_lines_per_cycle": 2.0,
            "perfect_l3": True, "max_cycles": 1000,
            "params": {"n": 32}})
        job = spec.to_job()
        assert job.key == spec.to_job().key
        assert JobSpec.from_payload(spec.as_dict()) == spec

    def test_timing_split_recorded(self, tmp_path):
        """queue_wait and exec_seconds are separate, both recorded."""
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            record = service.submit({"workload": "va"})
            await _wait(record)
            await service.drain()
            return record

        record = asyncio.run(scenario())
        assert record.queue_wait is not None and record.queue_wait >= 0.0
        assert record.exec_seconds is not None and record.exec_seconds > 0.0
        status = record.as_status()
        assert status["queue_wait_seconds"] == record.queue_wait
        assert status["exec_seconds"] == record.exec_seconds


def _remote_payload():
    """complete_remote only validates shape; content is the worker's."""
    return {"schema": 1, "workload": "va", "buffers_digest": "d-x"}


async def _park(service, job_id, wait):
    """Start one status long-poll; returns its task once it is parked."""
    task = asyncio.create_task(service.wait_terminal(job_id, wait))
    await asyncio.sleep(0.05)
    assert not task.done(), "long-poll returned before anything happened"
    return task


async def _woken(task, budget=2.0):
    """The parked long-poll's record, which must come back within
    *budget* seconds of the event that should wake it."""
    tick = time.monotonic()
    record = await asyncio.wait_for(task, timeout=budget)
    return record, time.monotonic() - tick


class TestStatusLongPoll:
    """``wait_terminal`` (``GET /jobs/{id}?wait=S``) on a coordinator-only
    service, so every resolution is driven by the test."""

    def test_remote_result_wakes_parked_waiter(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, local_exec=False)
            await service.start()
            record = service.submit({"workload": "va"})
            grant, = await service.lease("w1")
            task = await _park(service, record.id, 30.0)
            service.complete_remote(record.id, "w1", grant["fence"],
                                    _remote_payload())
            woken, elapsed = await _woken(task)
            await service.drain()
            return record, woken, elapsed

        record, woken, elapsed = asyncio.run(scenario())
        assert woken is record and woken.state == JobState.DONE
        assert elapsed < 1.0
        assert record.result == _remote_payload()

    def test_elapsed_wait_returns_non_terminal_status(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, local_exec=False)
            await service.start()
            record = service.submit({"workload": "va"})
            tick = time.monotonic()
            woken = await service.wait_terminal(record.id, 0.3)
            elapsed = time.monotonic() - tick
            await service.drain()
            return woken, elapsed

        woken, elapsed = asyncio.run(scenario())
        assert woken.state == JobState.QUEUED
        assert 0.3 <= elapsed < 2.0

    def test_cancel_wakes_parked_waiter(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, local_exec=False)
            await service.start()
            record = service.submit({"workload": "va"})
            task = await _park(service, record.id, 30.0)
            service.cancel(record.id)
            woken, elapsed = await _woken(task)
            await service.drain()
            return woken, elapsed

        woken, elapsed = asyncio.run(scenario())
        assert woken.state == JobState.CANCELLED
        assert elapsed < 1.0

    def test_dedup_subscriber_wakes_with_its_primary(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, local_exec=False)
            await service.start()
            primary = service.submit({"workload": "va"})
            subscriber = service.submit({"workload": "va"})
            assert subscriber.dedup_of == primary.id
            grant, = await service.lease("w1")
            task = await _park(service, subscriber.id, 30.0)
            service.complete_remote(primary.id, "w1", grant["fence"],
                                    _remote_payload())
            woken, elapsed = await _woken(task)
            await service.drain()
            return woken, elapsed

        woken, elapsed = asyncio.run(scenario())
        assert woken.state == JobState.DONE
        assert woken.result == _remote_payload()
        assert elapsed < 1.0

    def test_assignment_cap_wakes_waiters_with_failed(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, local_exec=False,
                               max_assignments=1)
            await service.start()
            primary = service.submit({"workload": "va"})
            subscriber = service.submit({"workload": "va"})
            grant, = await service.lease("w1")
            tasks = [await _park(service, job.id, 30.0)
                     for job in (primary, subscriber)]
            # A transient failure at the cap fails the whole group.
            service.fail_remote(primary.id, "w1", grant["fence"],
                                error="worker lost", transient=True)
            woken = [await _woken(task) for task in tasks]
            await service.drain()
            return woken

        for record, elapsed in asyncio.run(scenario()):
            assert record.state == JobState.FAILED
            assert "assignment bound 1" in record.error
            assert elapsed < 1.0

    def test_drain_releases_parked_waiters_at_once(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, local_exec=False)
            await service.start()
            record = service.submit({"workload": "va"})
            task = await _park(service, record.id, 30.0)
            await service.drain()
            woken, elapsed = await _woken(task)
            # A long-poll that arrives while draining does not park.
            tick = time.monotonic()
            late = await service.wait_terminal(record.id, 30.0)
            return woken, elapsed, late, time.monotonic() - tick

        woken, elapsed, late, late_elapsed = asyncio.run(scenario())
        assert woken.state == JobState.QUEUED
        assert late.state == JobState.QUEUED
        assert elapsed < 1.0 and late_elapsed < 1.0

    def test_wait_is_clamped_to_the_long_poll_cap(self, tmp_path,
                                                  monkeypatch):
        assert service_module.MAX_WAIT == 60.0
        monkeypatch.setattr(service_module, "MAX_WAIT", 0.2)

        async def scenario():
            service = _service(tmp_path, local_exec=False)
            await service.start()
            record = service.submit({"workload": "va"})
            tick = time.monotonic()
            capped = await service.wait_terminal(record.id, 1e9)
            capped_elapsed = time.monotonic() - tick
            tick = time.monotonic()
            await service.wait_terminal(record.id, -5.0)
            negative_elapsed = time.monotonic() - tick
            with pytest.raises(UnknownJobError):
                await service.wait_terminal("j99999-nope", 30.0)
            await service.drain()
            return capped, capped_elapsed, negative_elapsed

        capped, capped_elapsed, negative_elapsed = asyncio.run(scenario())
        assert capped.state == JobState.QUEUED
        assert 0.2 <= capped_elapsed < 2.0
        assert negative_elapsed < 0.1

    def test_no_watchers_left_behind(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, local_exec=False)
            await service.start()
            record = service.submit({"workload": "va"})
            await service.wait_terminal(record.id, 0.05)
            parked_after_timeout = dict(service._watchers)
            task = await _park(service, record.id, 30.0)
            service.cancel(record.id)
            await _woken(task)
            await service.drain()
            return parked_after_timeout, dict(service._watchers)

        after_timeout, after_cancel = asyncio.run(scenario())
        assert after_timeout == {} and after_cancel == {}
