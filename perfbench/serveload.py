"""serve_mixed: an open-loop job mix against a real ``repro serve`` daemon.

The daemon is ``python -m repro serve --port 0`` with default flags and
fresh ``--data-dir`` and ``--cache-dir`` directories.  Two load threads,
each holding at most one connection, take seeded arrivals in order; each
job is timed from when it was due until ``ServeClient.submit`` plus
``ServeClient.watch`` first observe it terminal -- the path ``repro
client`` users take, default watch interval included.

After a warm-up of ``MIN_HIT_AGE`` seconds, every other arrival
resubmits a spec whose first run was due at least that long ago (reads,
served from the cache); the rest are fresh param-variant specs -- a
registry kernel with a seeded input-data seed and a seeded policy
(writes, which simulate, journal and publish).  Variants of fixed
kernels keep the per-job cost the same across seeds; seeded ``stress_*``
kernels, which the registry workload runs, differ in cost by more than
an order of magnitude from one seed to the next.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.runner import ResultCache, Runner
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.jobs import JobSpec

from simload import Tally, warm_pass

#: Offered load, jobs per second.  At this rate and with the jitter below
#: a load thread is always free when a job falls due: arrivals two apart
#: are at least 1.75 periods (292 ms) apart and a job holds its thread
#: for about one watch interval (250 ms).  Consecutive arrivals are at
#: least 125 ms apart, longer than any miss below simulates, so a hit
#: never queues behind a miss or shares the daemon's GIL with one.
RATE = 6.0
#: Arrival i is due at (i + JITTER * u) / RATE with u seeded in [0, 1).
JITTER = 0.25
#: A hit resubmits a spec whose first run was due this long ago.
MIN_HIT_AGE = 2.0
#: Miss families, taken in turn: registry kernels whose factories take
#: an input-data seed, each simulating in 15-50 ms on the fast engine, so
#: even at half speed a miss is done before the next arrival is due.
MISS_FAMILIES = ("scnv", "dct8", "aes", "fwht")
#: Seconds kept free at the end of the run for the last jobs to finish.
TAIL = 1.5
LOAD_THREADS = 2
POLICIES = ("ivb", "bcc", "scc")
#: Daemon spawns per run; setup_s is their median, the last one serves.
SETUPS = 5


@dataclass
class Arrival:
    due: float
    kind: str  # "hit" | "miss"
    spec: Dict[str, Any]
    #: For a hit, the index of the miss whose spec it resubmits.
    ref: Optional[int] = None
    job_id: str = ""
    latency_ms: float = 0.0
    lag_ms: float = 0.0
    status: Dict[str, Any] = field(default_factory=dict)
    submit_ms: float = 0.0
    status_ms: List[float] = field(default_factory=list)
    error: str = ""
    #: For a miss: its runner job, and the result the daemon cached for it.
    job: Any = None
    stored: Any = None
    done: threading.Event = field(default_factory=threading.Event)


def schedule(seed: int, seconds: float, phase: int = 0) -> List[Arrival]:
    """The seeded arrivals of one load phase (same seed, same list)."""
    rng = random.Random(f"serve_mixed/{seed}/{phase}")
    count = max(1, int((seconds - TAIL) * RATE))
    data_seeds = iter(rng.sample(range(10**6), count))
    arrivals: List[Arrival] = []
    misses: List[int] = []
    for i in range(count):
        due = (i + JITTER * rng.random()) / RATE
        eligible = [m for m in misses if arrivals[m].due <= due - MIN_HIT_AGE]
        if i % 2 and eligible:
            ref = rng.choice(eligible)
            arrivals.append(Arrival(due, "hit", arrivals[ref].spec, ref))
        else:
            spec = {"workload": MISS_FAMILIES[len(misses) % len(MISS_FAMILIES)],
                    "policy": rng.choice(POLICIES), "engine": "fast",
                    "params": {"seed": phase * 10**6 + next(data_seeds)}}
            misses.append(i)
            arrivals.append(Arrival(due, "miss", spec))
    return arrivals


class TimedClient(ServeClient):
    """ServeClient that times its POST /jobs and GET /jobs/{id} calls
    into the arrival it is serving (traced runs only)."""

    arrival: Optional[Arrival] = None

    def submit(self, spec):
        tick = time.perf_counter()
        try:
            return super().submit(spec)
        finally:
            self.arrival.submit_ms = (time.perf_counter() - tick) * 1e3

    def status(self, job_id):
        tick = time.perf_counter()
        try:
            return super().status(job_id)
        finally:
            self.arrival.status_ms.append((time.perf_counter() - tick) * 1e3)


def run_load(daemon: "Daemon", arrivals: List[Arrival],
             timed: bool) -> Tuple[float, int]:
    """Drive *arrivals* open-loop.  Returns the load wall time (seconds
    from the schedule's origin until the last job was seen terminal) and
    the requests the daemon refused and the client retried."""
    for arrival in arrivals:
        if arrival.kind == "miss":
            arrival.job = JobSpec.from_payload(arrival.spec).to_job()
    lock = threading.Lock()
    cursor = iter(range(len(arrivals)))
    origin = time.perf_counter() + 0.05
    finished: List[float] = []
    clients = [(TimedClient if timed else ServeClient)(port=daemon.port)
               for _ in range(LOAD_THREADS)]

    def worker(client: ServeClient) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            arrival = arrivals[index]
            client.arrival = arrival
            if arrival.ref is not None:
                arrivals[arrival.ref].done.wait(60.0)
            due = origin + arrival.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            arrival.lag_ms = (time.perf_counter() - due) * 1e3
            try:
                job = client.submit(arrival.spec)
                arrival.job_id = job["id"]
                arrival.status = client.watch(job["id"], timeout=60.0)
                end = time.perf_counter()
                arrival.latency_ms = (end - due) * 1e3
                with lock:
                    finished.append(end)
            except (ServeClientError, OSError, KeyError) as exc:
                arrival.error = f"{type(exc).__name__}: {exc}"
            arrival.done.set()

    threads = [threading.Thread(target=worker, args=(client,),
                                name=f"load-{i}", daemon=True)
               for i, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = (max(finished) - origin) if finished else 0.0
    return wall, sum(client.retries_attempted for client in clients)


def check_phase(client: ServeClient, arrivals: List[Arrival],
                before: Dict[str, float], after: Dict[str, float]
                ) -> List[str]:
    """Correctness of one load phase: every job done, each hit served
    from the cache with its miss's exact result, the daemon's cache
    entry for each miss equal to what it served, and the daemon's hit
    and execution counters equal to the generator's split."""
    failures = []
    payloads: Dict[int, Any] = {}
    for index, arrival in enumerate(arrivals):
        label = f"serve_mixed/{arrival.kind}/{arrival.spec['workload']}"
        if arrival.error:
            failures.append(f"{label}: {arrival.error}")
            continue
        if arrival.status.get("state") != "done":
            failures.append(f"{label}: {arrival.status.get('state')} "
                            f"{arrival.status.get('error')}")
            continue
        if arrival.status.get("cache_hit") != (arrival.kind == "hit"):
            failures.append(f"{label}: cache_hit="
                            f"{arrival.status.get('cache_hit')}")
        try:
            payloads[index] = client.result(arrival.job_id)["result"]
        except (ServeClientError, OSError, KeyError) as exc:
            failures.append(f"{label}: result fetch {exc}")
            continue
        stored = arrival.stored
        if stored is not None and any(
                getattr(stored, key) != payloads[index][key]
                for key in ("total_cycles", "instructions",
                            "buffers_digest")):
            failures.append(f"{label}: daemon cache entry differs from the "
                            f"served result")
    for index, arrival in enumerate(arrivals):
        if arrival.kind == "hit" and index in payloads and \
                payloads[index] != payloads.get(arrival.ref):
            failures.append(f"serve_mixed/hit/{arrival.spec['workload']}: "
                            f"result differs from its first run")
    hits = sum(a.kind == "hit" for a in arrivals)
    for counter, expected in (("serve.jobs.cache_hits", hits),
                              ("serve.jobs.executed", len(arrivals) - hits),
                              ("serve.jobs.failed", 0)):
        got = after.get(counter, 0.0) - before.get(counter, 0.0)
        if got != expected:
            failures.append(f"serve_mixed: {counter} moved by {got:g}, "
                            f"expected {expected}")
    return failures


class Daemon:
    """One ``repro serve`` subprocess with fresh state directories."""

    def __init__(self, root: Path, workdir: Path, index: int) -> None:
        self.dir = workdir / f"daemon-{index}"
        self.cache_dir = self.dir / "cache"
        self.dir.mkdir(parents=True)
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        env["XDG_CACHE_HOME"] = str(self.dir / "xdg-cache")
        self.log_path = self.dir / "serve.log"
        tick = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--data-dir", str(self.dir / "data"),
                 "--cache-dir", str(self.cache_dir)],
                cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log)
        try:
            self.port = self._wait_port(60.0)
            ServeClient(port=self.port).wait_ready(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - tick

    def _wait_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"repro serve did not start: "
                           f"{self.log_path.read_text()[-2000:]}")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024 if match else float("nan")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_daemon(root: Path, workdir: Path) -> Tuple[Daemon, List[float]]:
    """Spawn SETUPS daemons one after another, keep the last one."""
    setups = []
    for index in range(SETUPS):
        daemon = Daemon(root, workdir, index)
        setups.append(daemon.setup_s)
        if index < SETUPS - 1:
            daemon.stop()
    return daemon, setups


def warm_over_daemon_cache(daemon: Daemon, arrivals: List[Arrival],
                           tally: Tally) -> None:
    """One foreground warm pass through a Runner over the daemon's cache,
    after the load so it never contends with the load threads.  Every
    miss must hit; its stored result is kept for check_phase."""
    runner = Runner(workers=1, cache=ResultCache(daemon.cache_dir))
    misses = [a for a in arrivals if a.job is not None and not a.error]
    results = warm_pass(runner, [a.job for a in misses], tally)
    for arrival in misses:
        arrival.stored = results.get(arrival.job.key)
