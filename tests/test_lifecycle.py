"""Property tests for the sans-IO job lifecycle.

:class:`~repro.serve.lifecycle.JobLifecycle` is driven here by a toy
executor that hypothesis steers through random interleavings of starts,
clean and corrupt payloads, retryable and fatal errors, worker crashes,
cohort quarantines, lost-dispatch re-queues and duplicate completions.
No process, queue or sleep is involved, so each example runs in
microseconds.
"""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.lifecycle import (Complete, Dead, Dispatch, JobLifecycle,
                                   retry_delay)
from repro.serve.queue import CohortJob, DockingJob

RETRIES = 2


def _job(name: str) -> DockingJob:
    return DockingJob(spec={"kind": "case", "case": name}, n_runs=1,
                      label=name)


SOLOS = (_job("solo-a"), _job("solo-b"))
COHORT = CohortJob(jobs=(_job("m0"), _job("m1"), _job("m2")))
LEAVES = {j.job_id: j for j in SOLOS + COHORT.jobs}
MEMBER_IDS = [m.job_id for m in COHORT.jobs]


def _payload(score: float) -> dict:
    return {"result": {"runs": [{"best_score": score}], "total_evals": 1},
            "wall_seconds": 0.0}


def _cohort_payload(quarantined: set[str], corrupt: set[str]) -> dict:
    members, frozen = [], []
    for jid, m in zip(MEMBER_IDS, COHORT.jobs):
        if jid in quarantined:
            frozen.append({"job_id": jid, "label": m.label,
                           "quarantine": {"reason": "nonfinite"}})
        else:
            members.append({"job_id": jid, "label": m.label,
                            "payload": _payload(
                                math.nan if jid in corrupt else -1.0)})
    return {"members": members, "quarantined": frozen, "wall_seconds": 0.0,
            "cohort_size": len(COHORT.jobs)}


ERROR_TYPES = {"crash": "WorkerCrash", "error": "Boom", "fatal": "Boom",
               "corrupt": "NonFiniteResult"}


class Harness:
    """Feeds events, applies decisions and checks them as they come."""

    def __init__(self, jobs):
        self.lc = JobLifecycle(retries=RETRIES, backoff=0.5)
        self.queue: list = []                   # dispatched, not started
        self.running: dict[int, object] = {}    # worker -> job
        self.terminal: Counter = Counter()
        self.dead = 0
        self.now = 0.0
        self.workers = 0
        self.apply(self.lc.submit(jobs, self.now), None)

    def apply(self, decisions, outcome):
        for d in decisions:
            if isinstance(d, Dispatch):
                assert d.at >= self.now
                # a terminal job -- in particular a cohort member that
                # completed healthy -- is never dispatched again
                assert self.terminal[d.job.job_id] == 0
                self.queue.append(d.job)
                continue
            jid = d.result.job_id
            assert jid in LEAVES
            self.terminal[jid] += 1
            assert self.terminal[jid] == 1, "second terminal decision"
            if isinstance(d, Dead):
                self.dead += 1
                err = d.result.error
                assert err["error_type"] == ERROR_TYPES[outcome]
                # only an explicitly fatal error skips the retry budget
                assert err["retryable"] is (outcome != "fatal")
                # dead only once the budget is spent or the error is fatal
                assert d.result.attempts > RETRIES or not err["retryable"]
            else:
                assert isinstance(d, Complete)
                assert d.result.status == "ok"

    def start(self, index: int) -> None:
        job = self.queue.pop(index % len(self.queue))
        self.workers += 1
        if self.lc.started(job.job_id, self.now, worker=self.workers):
            self.running[self.workers] = job

    def finish(self, worker: int, outcome: str, quarantined: set[str],
               corrupt: set[str]) -> None:
        job = self.running.pop(worker)
        jid = job.job_id
        live = any(j is job for j in self.lc.live_jobs())
        if outcome == "crash":
            decisions = self.lc.crash(worker, "died", self.now)
        elif outcome in ("error", "fatal"):
            decisions = self.lc.error(
                jid, {"error_type": "Boom", "message": "x",
                      "retryable": outcome == "error"}, self.now, worker)
        elif isinstance(job, CohortJob):
            decisions = self.lc.payload(
                jid, _cohort_payload(quarantined, corrupt), self.now, worker)
            if live:
                # partial completion: healthy members complete, and only
                # the quarantined or rejected ones are dispatched again
                requeued = {d.job.job_id for d in decisions
                            if isinstance(d, Dispatch)}
                assert requeued == quarantined | corrupt
                done = {d.result.job_id for d in decisions
                        if isinstance(d, Complete)}
                assert done == set(MEMBER_IDS) - requeued
        else:
            decisions = self.lc.payload(
                jid, _payload(math.nan if outcome == "corrupt" else -1.0),
                self.now, worker)
        if not live:
            assert decisions == []          # duplicate or late event
        self.apply(decisions, outcome)

    def duplicate_done(self, index: int) -> None:
        done = sorted(j for j, n in self.terminal.items() if n)
        if done:
            jid = done[index % len(done)]
            assert self.lc.payload(jid, _payload(-1.0), self.now) == []
            assert self.lc.started(jid, self.now) is False

    def drain(self) -> None:
        """Resolve everything cleanly; the machine must then be empty."""
        for _ in range(100):
            if not self.queue and not self.running:
                break
            for worker in list(self.running):
                self.finish(worker, "ok", set(), set())
            while self.queue:
                self.start(0)
        assert self.lc.open == 0 and self.lc.in_flight == 0
        assert set(self.terminal) == set(LEAVES)
        assert all(n == 1 for n in self.terminal.values())
        assert len(self.lc.dead_letters) == self.dead


OUTCOMES = st.sampled_from(["ok", "corrupt", "error", "fatal", "crash"])
MEMBER_SETS = st.sets(st.sampled_from(MEMBER_IDS))


@st.composite
def steps(draw):
    kind = draw(st.sampled_from(
        ["start", "start", "finish", "finish", "advance", "requeue",
         "duplicate"]))
    return (kind, draw(st.integers(0, 7)), draw(OUTCOMES),
            draw(MEMBER_SETS), draw(MEMBER_SETS))


@settings(max_examples=200, deadline=None)
@given(with_cohort=st.booleans(), script=st.lists(steps(), max_size=60))
def test_random_event_orders_keep_lifecycle_invariants(with_cohort, script):
    h = Harness(([COHORT] if with_cohort else list(COHORT.jobs))
                + list(SOLOS))
    for kind, index, outcome, quarantined, corrupt in script:
        if kind == "start" and h.queue:
            h.start(index)
        elif kind == "finish" and h.running:
            worker = sorted(h.running)[index % len(h.running)]
            h.finish(worker, outcome, quarantined, corrupt - quarantined)
        elif kind == "advance":
            h.now += 1.0
        elif kind == "requeue" and not h.lc.in_flight:
            # lost-dispatch backstop: every live job is queued again
            h.queue.extend(h.lc.live_jobs())
        elif kind == "duplicate":
            h.duplicate_done(index)
    h.drain()


def test_retry_rule_doubles_and_stops():
    assert [retry_delay(k, 3, 0.5) for k in (1, 2, 3, 4)] \
        == [0.5, 1.0, 2.0, None]
    assert retry_delay(1, 3, 0.5, retryable=False) is None


def test_healthy_cohort_members_complete_and_only_faulty_requeue():
    lc = JobLifecycle(retries=0, backoff=0.0)
    [d] = lc.submit([COHORT], 0.0)
    assert lc.started(COHORT.job_id, 0.0, worker=7)
    m0, m1, m2 = MEMBER_IDS
    decisions = lc.payload(COHORT.job_id,
                           _cohort_payload({m1}, {m2}), 1.0, worker=7)
    done = {d.result.job_id for d in decisions if isinstance(d, Complete)}
    requeued = {d.job.job_id for d in decisions if isinstance(d, Dispatch)}
    assert done == {m0} and requeued == {m1, m2}
    assert lc.quarantines == 1
    assert lc.payload(COHORT.job_id, _cohort_payload(set(), set()),
                      2.0) == []
