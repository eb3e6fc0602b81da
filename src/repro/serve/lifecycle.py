"""Sans-IO job lifecycle: the one place a job's fate is decided.

Both :class:`~repro.serve.pool.WorkerPool` executors drive one
:class:`JobLifecycle` per ``map`` call.  It owns no processes, queues or
sleeps and never reads a clock (callers pass ``now``): events go in
(``submit``, ``started``, ``payload``, ``error``, ``crash``) and
decisions come out — :class:`Dispatch` a job at a time,
:class:`Complete` or :class:`Dead` with its terminal :class:`JobResult`.
Validation, attempt counting and history, the retry rule
(:func:`retry_delay`), cohort partial completion and splitting, and
idempotent completion by job id all live here; DESIGN.md tabulates
which event leads to which decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs import get_metrics, get_tracer
from repro.serve.queue import CohortJob, DockingJob

__all__ = ["Complete", "Dead", "Dispatch", "JobLifecycle", "JobResult",
           "retry_delay", "validate_result_payload"]


@dataclass
class JobResult:
    """Terminal record of one job (streamed and manifest-persisted)."""

    job_id: str
    label: str
    status: str                       # "ok" | "failed" | "dead" | "cached"
    attempts: int = 1
    worker_id: int | None = None
    wall_seconds: float = 0.0
    #: serialized :class:`~repro.core.engine.DockingResult` (``ok`` only)
    result: dict | None = None
    #: per-job cache hit/miss/eviction deltas
    cache: dict | None = None
    error: dict | None = None
    extra: dict = field(default_factory=dict)

    @property
    def best_score(self) -> float | None:
        if self.result is None:
            return None
        return min(r["best_score"] for r in self.result["runs"])

    def to_dict(self) -> dict:
        return {"job_id": self.job_id, "label": self.label,
                "status": self.status, "attempts": self.attempts,
                "worker_id": self.worker_id,
                "wall_seconds": self.wall_seconds, "result": self.result,
                "cache": self.cache, "error": self.error,
                "extra": dict(self.extra)}

    @classmethod
    def from_dict(cls, d: dict) -> "JobResult":
        return cls(job_id=d["job_id"], label=d.get("label", ""),
                   status=d["status"], attempts=int(d.get("attempts", 1)),
                   worker_id=d.get("worker_id"),
                   wall_seconds=float(d.get("wall_seconds", 0.0)),
                   result=d.get("result"), cache=d.get("cache"),
                   error=d.get("error"), extra=d.get("extra", {}))


@dataclass(frozen=True)
class Dispatch:
    """Queue ``job`` for execution no earlier than ``at``."""

    job: DockingJob | CohortJob
    at: float


@dataclass(frozen=True)
class Complete:
    """``result`` is the job's terminal ``ok`` record."""

    result: JobResult


@dataclass(frozen=True)
class Dead:
    """``result`` is the job's terminal dead-letter record."""

    result: JobResult


def retry_delay(attempts: int, retries: int, backoff: float,
                retryable: bool = True) -> float | None:
    """The retry rule: seconds before the next attempt, ``None`` if terminal.

    After ``attempts`` failed attempts a job gets another one while
    ``attempts <= retries``, waiting ``backoff * 2**(attempts-1)``.  A
    non-retryable failure (a watchdog timeout: deterministic, so a retry
    burns the same budget again) is terminal at once.
    """
    if not retryable or attempts > retries:
        return None
    return backoff * 2 ** max(attempts - 1, 0)


def validate_result_payload(payload: dict) -> dict | None:
    """Parent-side result validation; returns an error dict or ``None``.

    A worker can crash, but it can also *lie* — a wedged allocator or an
    injected fault can hand back a structurally-broken or non-finite
    result.  Completion therefore requires the payload to carry a
    non-empty run list with finite best scores; anything else counts as
    a failed (retryable) attempt, never as a completion.
    """
    result = payload.get("result") if isinstance(payload, dict) else None
    runs = result.get("runs") if isinstance(result, dict) else None
    if not isinstance(runs, list) or not runs:
        return {"error_type": "CorruptResult",
                "message": "result payload has no runs",
                "retryable": True}
    for i, run in enumerate(runs):
        score = run.get("best_score") if isinstance(run, dict) else None
        if not isinstance(score, (int, float)) or not math.isfinite(score):
            return {"error_type": "NonFiniteResult",
                    "message": f"run {i} best_score is {score!r}",
                    "retryable": True}
    return None


class JobLifecycle:
    """Attempts, validation, retries, dead letters and cohort handling.

    ``dead_letters`` and ``quarantines`` accumulate what the machine
    decided; ``pool.*`` metrics and ``job.*``/``cohort.*`` trace events
    are emitted here, so both executors report identically.
    """

    def __init__(self, retries: int = 2, backoff: float = 0.25) -> None:
        self.retries = retries
        self.backoff = backoff
        #: id -> job for every non-terminal job (queued, running, backing off)
        self._live: dict[str, DockingJob | CohortJob] = {}
        self._attempts: dict[str, int] = {}
        #: id -> (worker, started_at) for jobs in flight
        self._running: dict[str, tuple[object, float]] = {}
        self._history: dict[str, list[dict]] = {}
        #: terminal ``status="dead"`` results
        self.dead_letters: list[JobResult] = []
        #: cohort members quarantined by the lock-step engine
        self.quarantines = 0

    # -- queries -------------------------------------------------------

    @property
    def open(self) -> int:
        """Jobs not yet terminal."""
        return len(self._live)

    @property
    def in_flight(self) -> int:
        return len(self._running)

    def live_jobs(self) -> list:
        return list(self._live.values())

    def overdue(self, started_before: float) -> list:
        """Workers running a job that started before ``started_before``."""
        return [w for w, t0 in self._running.values() if t0 < started_before]

    # -- events --------------------------------------------------------

    def submit(self, jobs, now: float) -> list[Dispatch]:
        out: list[Dispatch] = []
        for job in jobs:
            out += self._dispatch(job, now, 0)
        return out

    def started(self, job_id: str, now: float, worker=None) -> bool:
        """An execution attempt began; False if the job is terminal."""
        if job_id not in self._live:
            return False
        self._attempts[job_id] += 1
        self._running[job_id] = (worker, now)
        return True

    def payload(self, job_id: str, payload: dict, now: float, worker=None):
        """The execution returned ``payload`` (not yet validated)."""
        job = self._live.get(job_id)
        if job is None:
            return []                     # duplicate or late completion
        self._running.pop(job_id, None)
        if isinstance(job, CohortJob):
            return self._cohort_done(job_id, job, payload, now, worker)
        err = validate_result_payload(payload)
        if err is not None:
            # the worker reported success but the result is unusable: a
            # failed attempt, never a completion
            self._reject(job_id, err, worker)
            return self._failed(job_id, job, err, now, worker)
        return [self._complete(job_id, job, max(self._attempts[job_id], 1),
                               payload, payload.get("cache"), worker, {})]

    def error(self, job_id: str, err: dict, now: float, worker=None):
        """The execution raised; ``err`` carries ``error_type``,
        ``message`` and ``retryable``."""
        job = self._live.get(job_id)
        if job is None:
            return []
        self._running.pop(job_id, None)
        return self._failed(job_id, job, err, now, worker)

    def crash(self, worker, message: str, now: float):
        """``worker`` died (or was terminated at its lease) mid-job."""
        for job_id, (w, _) in self._running.items():
            if w == worker:
                return self.error(job_id, {"error_type": "WorkerCrash",
                                           "message": message,
                                           "retryable": True},
                                  now, worker)
        return []

    # -- decisions -----------------------------------------------------

    def _dispatch(self, job, now: float, attempts: int, **attrs):
        job_id = job.job_id
        if job_id in self._live:
            return []                     # content-identical duplicate
        self._live[job_id] = job
        self._attempts[job_id] = attempts
        get_tracer().event("job.dispatch", job_id=job_id, label=job.label,
                           **attrs)
        return [Dispatch(job, now)]

    def _close(self, job_id: str) -> None:
        self._live.pop(job_id, None)
        self._running.pop(job_id, None)
        get_tracer().event("pool.depth", pending=self.open,
                           in_flight=self.in_flight)

    def _note(self, job_id: str, attempt: int, err: dict) -> None:
        self._history.setdefault(job_id, []).append(
            {"attempt": attempt, "error_type": err.get("error_type"),
             "message": err.get("message")})

    def _reject(self, job_id: str, err: dict, worker) -> None:
        get_metrics().counter("pool.corrupt_results").inc()
        get_tracer().event("job.corrupt_result", job_id=job_id,
                           worker_id=worker, error_type=err["error_type"],
                           message=err["message"])

    def _complete(self, job_id: str, job, attempts: int, payload: dict,
                  cache, worker, extra: dict) -> Complete:
        self._close(job_id)
        get_tracer().event("job.complete", job_id=job_id, label=job.label,
                           worker_id=worker, attempts=attempts,
                           wall_seconds=payload["wall_seconds"], cache=cache,
                           **extra)
        history = self._history.get(job_id)
        if history:
            extra["attempt_history"] = list(history)
        return Complete(JobResult(
            job_id=job_id, label=job.label, status="ok", attempts=attempts,
            worker_id=worker, wall_seconds=payload["wall_seconds"],
            result=payload["result"], cache=cache, extra=extra))

    def _failed(self, job_id: str, job, err: dict, now: float, worker):
        attempts = self._attempts[job_id]
        self._note(job_id, attempts, err)
        tracer = get_tracer()
        if isinstance(job, CohortJob):
            # no per-member attribution: split, so only the culprit burns
            # its budget (members inherit the cohort's attempts; a
            # watchdog timeout also splits, as per-member budgets are
            # fresh where the cohort's was shared)
            self._close(job_id)
            get_metrics().counter("pool.cohort_splits").inc()
            tracer.event("cohort.split", job_id=job_id,
                         members=len(job.jobs),
                         error_type=err.get("error_type"))
            out: list[Dispatch] = []
            for member in job.jobs:
                out += self._dispatch(member, now, max(attempts - 1, 0),
                                      split_from=job_id)
            return out
        delay = retry_delay(attempts, self.retries, self.backoff,
                            err.get("retryable", True))
        if delay is not None:
            get_metrics().counter("pool.retries").inc()
            tracer.event("job.retry", job_id=job_id, attempts=attempts,
                         delay_s=delay)
            tracer.event("job.dispatch", job_id=job_id, label=job.label,
                         retry=True)
            return [Dispatch(job, now + delay)]
        self._close(job_id)
        res = JobResult(
            job_id=job_id, label=job.label, status="dead",
            attempts=max(attempts, 1), worker_id=worker, error=err,
            extra={"attempt_history": list(self._history[job_id])})
        self.dead_letters.append(res)
        get_metrics().counter("pool.dead_letters").inc()
        tracer.event("job.failed", job_id=job_id, label=job.label,
                     worker_id=worker, attempts=res.attempts,
                     error_type=err.get("error_type"))
        tracer.event("job.dead", job_id=job_id, label=job.label,
                     attempts=res.attempts,
                     error_type=err.get("error_type"))
        return [Dead(res)]

    def _cohort_done(self, cohort_id: str, cohort: CohortJob, payload: dict,
                     now: float, worker):
        """Partial completion: healthy members complete from the batched
        run; quarantined or rejected members re-dispatch individually
        with a fresh budget (they never ran solo)."""
        attempts = max(self._attempts[cohort_id], 1)
        self._close(cohort_id)
        members = {m.job_id: m for m in cohort.jobs}
        quarantined = payload.get("quarantined") or []
        redo = []
        self.quarantines += len(quarantined)
        get_metrics().counter("pool.quarantines").inc(len(quarantined))
        tracer = get_tracer()
        for q in quarantined:
            reason = q["quarantine"].get("reason")
            tracer.event("cohort.quarantine_redispatch", cohort=cohort_id,
                         job_id=q["job_id"], label=q["label"],
                         reason=reason)
            self._note(q["job_id"], 0, {
                "error_type": "LaneQuarantine",
                "message": f"{reason}: {q['quarantine'].get('detail', '')}"})
            redo.append(members[q["job_id"]])
        out: list = []
        for k, entry in enumerate(payload["members"]):
            member_id = entry["job_id"]
            err = validate_result_payload(entry["payload"])
            if err is not None:
                self._reject(member_id, err, worker)
                self._note(member_id, 1, err)
                redo.append(members[member_id])
                continue
            # the cohort's cache delta is reported once, on its first member
            out.append(self._complete(
                member_id, members[member_id], attempts, entry["payload"],
                payload.get("cache") if k == 0 else None, worker,
                {"cohort": cohort_id, "cohort_size": len(cohort.jobs)}))
        for member in redo:
            out += self._dispatch(member, now, 0, requeued_from=cohort_id)
        return out
