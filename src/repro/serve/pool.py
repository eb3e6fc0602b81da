"""Sharded multiprocessing worker pool with crash recovery.

Workers are spawn-started processes (spawn-safe by construction: no
inherited RNG or cache state) that steal :class:`~repro.serve.queue.DockingJob`
work from a shared task queue, each owning a private
:class:`~repro.serve.cache.ContentCache`.  The parent tracks in-flight
jobs through ``started`` acknowledgements, so a worker that is killed
mid-job (OOM, segfault, operator) is detected by liveness polling, its
job re-queued with exponential backoff (the retry rule
:func:`~repro.serve.lifecycle.retry_delay`, shared with
:class:`~repro.analysis.campaign.E50Campaign`) and a replacement worker
spawned.  Per-job wall-clock budgets reuse the
cooperative :class:`~repro.robustness.Watchdog` inside the worker, backed
by a parent-side hard lease for workers too wedged to cooperate.

Fault containment
-----------------
What happens to a job — validation, retry, dead-lettering, cohort
partial completion, idempotent completion by job id — is decided by the
sans-IO :class:`~repro.serve.lifecycle.JobLifecycle`; both executors
here only run jobs and feed it events.  A job that exhausts its retry
budget (or fails non-retryably) lands in the pool's **dead-letter
queue**: a terminal ``status="dead"`` :class:`JobResult` carrying the
error class and the full attempt history (``pool.dead_letters``).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import time
import traceback
from collections import deque

from repro.obs import get_metrics, get_tracer
from repro.serve.cache import DEFAULT_CAPACITY, ContentCache, load_case
from repro.serve.lifecycle import (Dispatch, JobLifecycle, JobResult,
                                   validate_result_payload)
from repro.serve.queue import CohortJob, DockingJob, seed_from_spec

__all__ = ["DEFAULT_HEARTBEAT_SECONDS", "JobResult", "WorkerPool",
           "execute_cohort", "execute_job", "validate_result_payload"]

#: exit code a worker uses for the injected-crash test hook
_CRASH_EXIT = 17


#: seconds without any pool activity before the lost-dispatch backstop
#: re-queues every unfinished job (completions dedup by job id)
STALL_SECONDS = 10.0


def _apply_poison(case, spec: dict):
    """Chaos hook: ``"poison_nonfinite": true`` NaNs out the grid maps.

    The shared/cached case object is never mutated — the poisoned copy is
    built with :func:`dataclasses.replace`, mirroring how the grid-site
    fault injector treats cases.  A poisoned solo job produces non-finite
    best scores (caught by parent-side validation); a poisoned cohort
    member trips lane quarantine in the lock-step engine.
    """
    if not spec.get("poison_nonfinite"):
        return case
    import numpy as np
    from dataclasses import replace
    maps = replace(case.maps,
                   affinity=np.full_like(case.maps.affinity, np.nan))
    return replace(case, maps=maps)


def execute_job(job: DockingJob, cache: ContentCache | None = None,
                wall_seconds: float | None = None,
                include_history: bool = False) -> dict:
    """Run one docking job; returns the ``ok`` payload dict.

    Raises whatever the engine raises — the caller reports it to the
    job lifecycle, which decides on retry.
    """
    from repro.core.engine import DockingEngine
    from repro.robustness import Watchdog

    before = cache.stats() if cache is not None else None
    t0 = time.monotonic()
    span = get_tracer().span("job.execute", job_id=job.job_id,
                             label=job.label)
    with span:
        case = _apply_poison(load_case(job.spec, cache), job.spec)
        engine = DockingEngine(case, job.config)
        watchdog = (Watchdog(wall_seconds=wall_seconds)
                    if wall_seconds is not None else None)
        result = engine.dock(
            n_runs=job.n_runs, seed=seed_from_spec(job.seed),
            on_generation=watchdog.check if watchdog is not None else None)
        payload = {
            "result": result.to_dict(include_history=include_history),
            "wall_seconds": time.monotonic() - t0,
        }
        if cache is not None:
            payload["cache"] = ContentCache.delta(before, cache.stats())
        span.set(wall_seconds=payload["wall_seconds"],
                 total_evals=result.total_evals)
    m = get_metrics()
    m.histogram("job.wall_seconds").observe(payload["wall_seconds"])
    m.histogram("job.evals").observe(result.total_evals)
    return payload


def execute_cohort(job: CohortJob, cache: ContentCache | None = None,
                   wall_seconds: float | None = None,
                   include_history: bool = False) -> dict:
    """Run a cohort job through the packed lock-step engine.

    Returns ``{"members": [{"job_id", "label", "payload"}, ...],
    "quarantined": [{"job_id", "label", "quarantine"}, ...], ...}`` —
    one ``ok``-shaped payload per *healthy* member, each bit-identical to
    what :func:`execute_job` would have produced for that member alone.
    Members the lock-step engine quarantined (non-finite lane or guard
    trip, see :class:`~repro.robustness.LaneQuarantine`) carry their
    quarantine record instead of a result; the caller re-dispatches them
    individually.  Wall time is split evenly across members (the
    lock-step engine advances them together, so there is no per-member
    attribution).
    """
    from repro.core.engine import dock_cohort
    from repro.robustness import Watchdog

    before = cache.stats() if cache is not None else None
    t0 = time.monotonic()
    span = get_tracer().span("job.execute_cohort", job_id=job.job_id,
                             label=job.label, cohort=len(job.jobs))
    with span:
        cases = [_apply_poison(load_case(m.spec, cache), m.spec)
                 for m in job.jobs]
        seeds = [seed_from_spec(m.seed) for m in job.jobs]
        watchdog = (Watchdog(wall_seconds=wall_seconds)
                    if wall_seconds is not None else None)
        results = dock_cohort(
            cases, job.config, n_runs=job.n_runs, seeds=seeds,
            on_generation=watchdog.check if watchdog is not None else None)
        wall = time.monotonic() - t0
        share = wall / len(job.jobs)
        members, quarantined = [], []
        for m, r in zip(job.jobs, results):
            if r.quarantine is not None:
                quarantined.append({"job_id": m.job_id, "label": m.label,
                                    "quarantine": r.quarantine})
            else:
                members.append({"job_id": m.job_id, "label": m.label,
                                "payload": {
                                    "result": r.to_dict(
                                        include_history=include_history),
                                    "wall_seconds": share}})
        payload = {
            "members": members,
            "quarantined": quarantined,
            "wall_seconds": wall,
            "cohort_size": len(job.jobs),
        }
        if cache is not None:
            payload["cache"] = ContentCache.delta(before, cache.stats())
        span.set(wall_seconds=wall, quarantined=len(quarantined),
                 total_evals=sum(r.total_evals for r in results))
    m = get_metrics()
    m.histogram("job.wall_seconds").observe(wall)
    for r in results:
        m.histogram("job.evals").observe(r.total_evals)
    return payload


def _fire_once(spec: dict, key: str) -> bool:
    """Check-and-set a fired-once chaos marker file; True if it fires."""
    marker = spec.get(key)
    if marker and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(key)
        return True
    return False


def _maybe_inject_chaos(job: DockingJob | CohortJob) -> None:
    """Pre-execution chaos hooks for the recovery tests.

    Job specs opt in via fired-once marker paths (so the retry proceeds
    normally), mirroring the deterministic fault injection of
    :mod:`repro.robustness.inject`:

    * ``"crash_once": <path>`` — the first worker that picks the job up
      dies hard (``os._exit``, no cleanup — the closest portable
      stand-in for a kill -9 mid-job), exercising crash detection,
      respawn and re-dispatch.
    * ``"hang_once": <path>`` — the worker wedges forever; only the
      parent-side hard lease can free the job, exercising lease
      termination and crash-style recovery.
    * ``"slow_once": <path>`` — the worker stalls for
      ``spec["slow_seconds"]`` (default 1.0) before executing,
      exercising lease head-room and stall accounting without failing.
    """
    if isinstance(job, CohortJob):
        for member in job.jobs:
            _maybe_inject_chaos(member)
        return
    if _fire_once(job.spec, "crash_once"):
        # give the result queue's feeder thread a beat to flush the
        # "started" ack — a crash *mid-job* (ack delivered) exercises the
        # worker-liveness recovery path; a crash before the ack lands in
        # the slower lost-dispatch backstop instead
        time.sleep(0.25)
        os._exit(_CRASH_EXIT)
    if _fire_once(job.spec, "hang_once"):
        while True:              # wedged: only the parent lease frees us
            time.sleep(0.5)
    if _fire_once(job.spec, "slow_once"):
        time.sleep(float(job.spec.get("slow_seconds", 1.0)))


def _maybe_corrupt_result(job: DockingJob | CohortJob, payload: dict) -> dict:
    """Post-execution chaos hook: ``"corrupt_result_once": <path>``.

    Mangles the first attempt's result (best scores → NaN) *after* a
    clean run, so the parent-side result validation path —
    reject, retry, eventually dead-letter — is exercised end to end.
    """
    def poison(p: dict) -> None:
        for run in p["result"]["runs"]:
            run["best_score"] = float("nan")

    if isinstance(job, CohortJob):
        spec_by_id = {m.job_id: m.spec for m in job.jobs}
        for entry in payload.get("members", []):
            if _fire_once(spec_by_id[entry["job_id"]],
                          "corrupt_result_once"):
                poison(entry["payload"])
    elif _fire_once(job.spec, "corrupt_result_once"):
        poison(payload)
    return payload


def _execute(job: DockingJob | CohortJob, cache: ContentCache,
             wall_seconds: float | None,
             include_history: bool) -> tuple[str, dict]:
    """One execution attempt: ``("done", payload)`` or ``("failed", err)``."""
    run = execute_cohort if isinstance(job, CohortJob) else execute_job
    try:
        payload = run(job, cache, wall_seconds=wall_seconds,
                      include_history=include_history)
    except Exception as exc:
        from repro.robustness import WatchdogTimeout
        get_metrics().counter("worker.job_errors").inc()
        return "failed", {
            "error_type": type(exc).__name__, "message": str(exc),
            "traceback": traceback.format_exc(limit=10),
            # watchdog aborts are deterministic: retrying burns the same
            # budget again
            "retryable": not isinstance(exc, WatchdogTimeout)}
    return "done", _maybe_corrupt_result(job, payload)


#: default worker heartbeat cadence (seconds); override per pool/CLI
DEFAULT_HEARTBEAT_SECONDS = 5.0


def _heartbeat(worker_id: int, counts: dict, cache: ContentCache,
               interval_s: float = DEFAULT_HEARTBEAT_SECONDS) -> dict:
    """One worker heartbeat: liveness + a metrics snapshot.

    Emitted to the trace log and sent to the parent, which surfaces the
    last one per worker in :class:`~repro.serve.screen.VirtualScreen`'s
    manifest stats.  ``interval_s`` records the *effective* cadence so
    downstream consumers (``stats`` subcommand, gateway liveness checks)
    can judge staleness without knowing pool configuration.
    """
    hb = {
        "worker_id": worker_id,
        "pid": os.getpid(),
        "jobs_done": counts["done"],
        "jobs_failed": counts["failed"],
        "interval_s": interval_s,
        "cache": cache.stats(),
        "metrics": get_metrics().snapshot(),
    }
    get_tracer().event("worker.heartbeat", **hb)
    return hb


def _make_store(store_root: str | None):
    """Open the shared disk cache tier for a worker (``None`` = no tier)."""
    if store_root is None:
        return None
    from repro.serve.store import BlobStore
    return BlobStore(store_root)


def _worker_main(task_q, result_q, worker_id: int, cache_bytes: int,
                 wall_seconds: float | None, include_history: bool,
                 trace_path: str | None = None,
                 heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
                 store_root: str | None = None) -> None:
    """Worker loop: steal a job, ack, execute, report; ``None`` drains.

    Heartbeats are emitted after every job *and* whenever the queue stays
    empty for ``heartbeat_seconds`` — an idle worker still proves
    liveness at the configured cadence.
    """
    import queue as _queue

    tracer = get_tracer()
    if trace_path is not None:
        from repro.obs import configure
        tracer = configure(trace_path, source=f"worker-{worker_id}")
    cache = ContentCache(cache_bytes, store=_make_store(store_root))
    counts = {"done": 0, "failed": 0}
    tracer.event("worker.start", worker_id=worker_id, pid=os.getpid())
    while True:
        try:
            job = task_q.get(timeout=max(heartbeat_seconds, 0.05))
        except _queue.Empty:
            pass                          # idle: still heartbeat below
        else:
            if job is None:
                tracer.event("worker.stop", worker_id=worker_id,
                             jobs_done=counts["done"],
                             jobs_failed=counts["failed"])
                result_q.put(("bye", None, worker_id, None))
                return
            result_q.put(("started", job.job_id, worker_id, None))
            _maybe_inject_chaos(job)
            kind, out = _execute(job, cache, wall_seconds, include_history)
            counts[kind] += 1
            result_q.put((kind, job.job_id, worker_id, out))
        hb = _heartbeat(worker_id, counts, cache,
                        interval_s=heartbeat_seconds)
        result_q.put(("heartbeat", None, worker_id, hb))


class WorkerPool:
    """Fan :class:`DockingJob` work across spawn-safe worker processes.

    Parameters
    ----------
    workers:
        Worker process count; ``0`` executes inline in the parent (no
        multiprocessing — deterministic and convenient for tests and as
        the sequential baseline of the throughput benchmark).
    retries:
        Extra attempts for a job whose worker crashed or raised a
        transient error.
    backoff:
        Base of the exponential re-queue delay: attempt ``k`` waits
        ``backoff * 2**(k-1)`` seconds
        (:func:`~repro.serve.lifecycle.retry_delay`).
    job_wall_seconds:
        Cooperative per-job watchdog budget (``None`` disables).
    lease_seconds:
        Parent-side hard lease: an in-flight job older than this gets its
        worker terminated and is treated as a crash.  Defaults to
        ``4 * job_wall_seconds`` when a watchdog budget is set.
    cache_bytes:
        Per-worker :class:`ContentCache` capacity.
    store_root:
        Optional shared disk cache tier root
        (:class:`~repro.serve.store.BlobStore`): every worker fronts its
        in-memory cache with the same content-addressed blob directory,
        so grids are parsed once per *fleet*, not once per process.
    start_method:
        ``multiprocessing`` start method; ``"spawn"`` (default) is the
        portable, state-leak-free choice.
    include_history:
        Keep per-run improvement traces in result payloads (large).
    max_respawns:
        Crash-loop breaker: worker replacements allowed per :meth:`map`
        call before the pool aborts with ``RuntimeError`` instead of
        respawning forever (default ``8 * workers``).  Guards against
        systematically-broken worker environments — e.g. a ``spawn``
        ``__main__`` that cannot be re-imported, where every worker dies
        on startup before ever taking a job.
    trace_path:
        Shared JSONL trace log; workers configure their own
        :mod:`repro.obs` tracer appending to it (``None`` = no tracing).
    heartbeat_seconds:
        Worker heartbeat cadence: idle workers emit a liveness heartbeat
        at this interval (busy workers also heartbeat after every job).
        A serving-layer knob, not part of :class:`~repro.core.config
        .DockingConfig` — config fields feed the content hash that is a
        job's identity, and the heartbeat cadence must not change job
        ids or dedup semantics.
    """

    def __init__(self, workers: int = 2, retries: int = 2,
                 backoff: float = 0.25,
                 job_wall_seconds: float | None = None,
                 lease_seconds: float | None = None,
                 cache_bytes: int = DEFAULT_CAPACITY,
                 start_method: str = "spawn",
                 include_history: bool = False,
                 poll_seconds: float = 0.1,
                 max_respawns: int | None = None,
                 trace_path: str | None = None,
                 heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
                 store_root: str | None = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.retries = retries
        self.backoff = backoff
        self.job_wall_seconds = job_wall_seconds
        if lease_seconds is None and job_wall_seconds is not None:
            lease_seconds = 4.0 * job_wall_seconds
        self.lease_seconds = lease_seconds
        self.cache_bytes = cache_bytes
        self.start_method = start_method
        self.include_history = include_history
        self.poll_seconds = poll_seconds
        self.max_respawns = (max_respawns if max_respawns is not None
                             else 8 * max(workers, 1))
        self.trace_path = trace_path
        self.store_root = str(store_root) if store_root is not None else None
        if heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be > 0")
        self.heartbeat_seconds = heartbeat_seconds
        #: workers replaced after a crash (cumulative over map calls)
        self.workers_replaced = 0
        #: last heartbeat per worker id (inline mode uses key "inline")
        self.heartbeats: dict = {}
        self._lifecycles: list[JobLifecycle] = []

    @property
    def dead_letters(self) -> list[JobResult]:
        """Terminal ``status="dead"`` results (cumulative over map calls)."""
        return [r for lc in self._lifecycles for r in lc.dead_letters]

    @property
    def quarantines(self) -> int:
        """Cohort members quarantined by the lock-step engine."""
        return sum(lc.quarantines for lc in self._lifecycles)

    def map(self, jobs: list[DockingJob]):
        """Yield one terminal :class:`JobResult` per job, as completed.

        Completion order follows execution, not submission; callers that
        need ranking sort afterwards.  Every job yields exactly one
        result even across worker crashes (idempotent completion by job
        id).
        """
        lifecycle = JobLifecycle(self.retries, self.backoff)
        self._lifecycles.append(lifecycle)
        if self.workers == 0:
            yield from self._map_inline(jobs, lifecycle)
            return
        yield from self._map_processes(jobs, lifecycle)

    # -- inline (workers=0) -------------------------------------------

    def _map_inline(self, jobs, lc: JobLifecycle):
        """Inline execution with one cache, depth first: a job's retries
        and its cohort's re-dispatched members run before the next job,
        exactly as a single worker would take them."""
        cache = ContentCache(self.cache_bytes,
                             store=_make_store(self.store_root))
        counts = {"done": 0, "failed": 0}
        todo = deque(lc.submit(jobs, time.monotonic()))
        while todo:
            dispatch = todo.popleft()
            job, job_id = dispatch.job, dispatch.job.job_id
            delay = dispatch.at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lc.started(job_id, time.monotonic())
            kind, out = _execute(job, cache, self.job_wall_seconds,
                                 self.include_history)
            counts[kind] += 1
            event = lc.payload if kind == "done" else lc.error
            decisions = event(job_id, out, time.monotonic())
            self.heartbeats["inline"] = _heartbeat(
                -1, counts, cache, interval_s=self.heartbeat_seconds)
            todo.extendleft(reversed([d for d in decisions
                                      if isinstance(d, Dispatch)]))
            yield from (d.result for d in decisions
                        if not isinstance(d, Dispatch))

    # -- multiprocessing ----------------------------------------------

    def _map_processes(self, jobs, lc: JobLifecycle):
        """Process I/O only: queues, spawning, heartbeats, leases, the
        respawn breaker and the lost-dispatch backstop."""
        import queue as _queue

        ctx = mp.get_context(self.start_method)
        task_q = ctx.Queue()
        result_q = ctx.Queue()
        procs: dict[int, mp.process.BaseProcess] = {}
        wids = itertools.count()
        later: list[Dispatch] = []      # queued by the loop once due
        replaced_before = self.workers_replaced

        def settle(decisions) -> list[JobResult]:
            """Park dispatches for the loop; return terminal results."""
            later.extend(d for d in decisions if isinstance(d, Dispatch))
            return [d.result for d in decisions
                    if not isinstance(d, Dispatch)]

        def spawn() -> int:
            wid = next(wids)
            procs[wid] = ctx.Process(
                target=_worker_main,
                args=(task_q, result_q, wid, self.cache_bytes,
                      self.job_wall_seconds, self.include_history,
                      self.trace_path, self.heartbeat_seconds,
                      self.store_root),
                daemon=True, name=f"repro-serve-worker-{wid}")
            procs[wid].start()
            return wid

        def reap_dead_workers() -> list[JobResult]:
            """Terminate over-lease workers; report dead ones as crashes."""
            now = time.monotonic()
            if self.lease_seconds is not None:
                for wid in lc.overdue(now - self.lease_seconds):
                    proc = procs.get(wid)
                    if proc is not None and proc.is_alive():
                        proc.terminate()     # handled as a crash below
            lost: list[JobResult] = []
            for wid, proc in list(procs.items()):
                if proc.is_alive():
                    continue
                del procs[wid]
                lost += settle(lc.crash(
                    wid, f"worker {wid} died (exit {proc.exitcode})", now))
                if lc.open:                  # keep the pool at strength
                    respawns = self.workers_replaced - replaced_before
                    if respawns >= self.max_respawns:
                        raise RuntimeError(
                            f"worker pool crash-looping: {respawns} "
                            f"workers replaced (cap {self.max_respawns}) "
                            f"with {lc.open} jobs unfinished — the "
                            f"worker environment is broken (last exit "
                            f"code {proc.exitcode})")
                    replacement = spawn()
                    self.workers_replaced += 1
                    get_metrics().counter("pool.crashes").inc()
                    get_tracer().event("worker.respawn", died=wid,
                                       replacement=replacement,
                                       exitcode=proc.exitcode)
            return lost

        settle(lc.submit(jobs, time.monotonic()))
        try:
            for _ in range(self.workers):
                spawn()
            last_activity = time.monotonic()
            while lc.open:
                now = time.monotonic()
                due = [d for d in later if d.at <= now]
                if due:
                    later[:] = [d for d in later if d.at > now]
                    for d in due:
                        task_q.put(d.job)
                    last_activity = now
                try:
                    kind, job_id, wid, payload = result_q.get(
                        timeout=self.poll_seconds)
                except _queue.Empty:
                    yield from reap_dead_workers()
                    if (time.monotonic() - last_activity > STALL_SECONDS
                            and not lc.in_flight and not later):
                        # lost-dispatch backstop: re-queue whatever is
                        # still unaccounted for (completions dedup)
                        for job in lc.live_jobs():
                            task_q.put(job)
                        last_activity = time.monotonic()
                    continue

                last_activity = now = time.monotonic()
                if kind == "started":
                    lc.started(job_id, now, worker=wid)
                elif kind == "heartbeat":
                    self.heartbeats[wid] = payload
                elif kind == "done":
                    yield from settle(lc.payload(job_id, payload, now, wid))
                elif kind == "failed":
                    yield from settle(lc.error(job_id, payload, now, wid))
                # "bye" needs no handling: drain happens after the loop

            # graceful drain: every job accounted for
            for _ in procs:
                task_q.put(None)
        finally:
            for proc in procs.values():
                proc.join(timeout=2.0)
            for proc in procs.values():
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
            task_q.cancel_join_thread()
            result_q.cancel_join_thread()
