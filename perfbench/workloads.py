"""The three workloads: dock-tcec, screen-mixed and gateway-open.

Each workload function takes ``(seed, seconds, trace, work, env)`` and
returns a :class:`Outcome`.  Inputs come from ``seed`` only.  With
``trace`` off it measures the end-to-end metrics; with ``trace`` on it
alternates untraced and traced passes over the same inputs and reports
the per-layer metrics.  Every workload reports every metric: a layer a
workload bypasses reports 0 (per-layer metrics have no bound, so a 0
compares to nothing), and the end-to-end metrics, which must never be
0, are defined for all three workloads (see README.md).
"""

from __future__ import annotations

import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from layers import LayerTrace

#: set-up is timed this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 3

#: the paper's reference LGA configuration on its reference ligand
DOCK = {"case": "7cpa", "backend": "tcec-tf32", "n_runs": 8,
        "lga": {"pop_size": 30, "max_evals": 6000, "max_gens": 100,
                "ls_iters": 10, "ls_rate": 0.3}}
#: a closed-loop dock counts as meeting its limit within this many seconds
DOCK_SLO_S = 30.0

#: screening config (2 runs, 3000 evals) on a mixed N_rot 0-32 library
SCREEN = {"receptor": "7cpa", "backend": "baseline", "n_runs": 2,
          "lga": {"pop_size": 30, "max_evals": 3000, "max_gens": 100,
                  "ls_iters": 10, "ls_rate": 0.3},
          "library": 8, "cohort_size": 8, "manifest_shards": 2}
#: a screened ligand counts as meeting its limit when it is ranked
#: within this many seconds of the batch start
SCREEN_SLO_S = 60.0

#: small 1-run jobs over library cases of mixed size (N_rot 0, 3, 5, 8)
GATEWAY = {"cases": ("1u4d", "1owe", "1t46", "1kzk"), "n_runs": 1,
           "evals": 60, "pop": 10, "ls_iters": 5, "backend": "tcec-tf32",
           "shards": 2, "slo_s": 0.5,
           # share of the run spent draining a saturated shard, in
           # rounds of new jobs sent as one batch, this many per case;
           # the round count is fixed by the share and a round's nominal
           # wall (as measured on 2 cores), so every run drains the same
           # jobs
           "drain_share": 0.22, "drain_per_case": 2, "drain_round_s": 0.45,
           # (name, submissions/s, share of the open loop); four in five
           # submissions are new jobs, so lo and hi offer 7.0 and 9.0 new
           # jobs/s, about 40% and 55% of the 15-17 jobs/s a fresh
           # gateway drains with both shards busy on 2 cores; at 33 s
           # each rate sends 127
           "rates": (("lo", 8.8, 0.56), ("hi", 11.2, 0.44)),
           # every fifth submission repeats an earlier job of its phase
           "dup_every": 5}
#: completed new jobs a rate needs so that its p90 has ten samples beyond it
LATENCY_SAMPLE_FLOOR = 100


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed_jobs: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    #: text printed after a metric's value and unit
    notes: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.failed_jobs + len(self.failures)


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _q(values, p: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), p)) \
        if len(values) else float("nan")


def _median(values) -> float:
    return _q(values, 0.5)


def _timed_setups(setup, stop=None) -> tuple[float, object]:
    """Run ``setup()`` :data:`SETUP_REPEATS` times, calling ``stop`` on
    each result but the last; median seconds and the last result."""
    times, last = [], None
    for k in range(SETUP_REPEATS):
        if k and stop is not None:
            stop(last)
        t0 = time.perf_counter()
        last = setup()
        times.append(time.perf_counter() - t0)
    return _median(times), last


def _common_metrics(setup_s: float, evals_per_s: float, dock_s: list,
                    ligands_per_s: float, lat: dict, slo_hi: float,
                    scores: list) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "evals_per_s": (evals_per_s, "evals/s"),
        "dock_s_p50": (_median(dock_s), "s"),
        "ligands_per_s": (ligands_per_s, "ligands/s"),
        "latency_p50_s.lo": (_q(lat["lo"], 0.5), "s"),
        "latency_p90_s.lo": (_q(lat["lo"], 0.9), "s"),
        "latency_p50_s.hi": (_q(lat["hi"], 0.5), "s"),
        "latency_p90_s.hi": (_q(lat["hi"], 0.9), "s"),
        "slo_attainment.hi": (slo_hi, "share"),
        "best_score_p50": (_median(scores), "kcal/mol"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_metrics(trace: LayerTrace, passes: int, traced_wall: float,
                  overhead: float, extra: dict) -> dict:
    """Per-layer metrics, per traced pass; ``extra`` overrides/adds.

    ``traced_wall`` is the wall time of the traced passes together;
    ``trace.coverage`` is the layers' self time over it.
    """
    self_s = trace.clock.self_s()
    calls = trace.clock.calls()
    n = max(1, passes)

    def s(layer: str) -> tuple[float, str]:
        return (self_s.get(layer, 0.0) / n, "s")

    def c(layer: str) -> tuple[float, str]:
        return (calls.get(layer, 0) / n, "count")

    sizes = trace.cohort_sizes
    out = {
        "docking.pose.self_s": s("docking.pose"),
        "docking.pose.calls": c("docking.pose"),
        "docking.inter.self_s": s("docking.inter"),
        "docking.intra.self_s": s("docking.intra"),
        "docking.gradient.self_s": s("docking.gradient"),
        "docking.score.self_s": s("docking.score"),
        "docking.cohort.pad_ratio": (
            float(np.mean(trace.pad_ratios)) if trace.pad_ratios else 0.0,
            "share"),
        "reduction.reduce4.self_s": s("reduction.reduce4"),
        "reduction.reduce4.calls": c("reduction.reduce4"),
        "reduction.reduce4.vectors": (trace.reduce4_vectors / n, "count"),
        "search.adadelta.self_s": s("search.adadelta"),
        "search.ga.self_s": s("search.ga"),
        "search.lga.self_s": s("search.lga"),
        "core.engine.self_s": s("core.engine"),
        "io.rlig.read_s": s("io.rlig"),
        "io.rlig.reads": c("io.rlig"),
        "serve.cache.load_s": s("serve.cache"),
        "serve.execute.self_s": s("serve.execute"),
        "serve.manifest.append_s": s("serve.manifest.append"),
        "serve.manifest.write_s": s("serve.manifest.write"),
        "serve.queue.cohorts": (len(sizes) / n, "count"),
        "serve.queue.mean_cohort_size": (
            float(np.mean(sizes)) if sizes else 0.0, "count"),
        "serve.screen.self_s": s("serve.screen"),
        "gateway.scheduler.admit_s": s("gateway.scheduler"),
        "trace.coverage": (sum(self_s.values()) / traced_wall
                           if traced_wall > 0 else 0.0, "share"),
        "trace.overhead": (overhead, "share"),
    }
    zero = {
        "reduction.ulp_err_max": (0.0, "ulp"),
        "simt.us_per_eval": (0.0, "us"),
        "serve.cache.hit_ratio": (0.0, "share"),
        "serve.store.disk_hits": (0.0, "count"),
        "serve.store.disk_misses": (0.0, "count"),
        "gateway.http.submit_s_p50": (0.0, "s"),
        "gateway.scheduler.rejected": (0.0, "count"),
        "gateway.queue_wait_s_p50": (0.0, "s"),
        "gateway.queue_wait_s_p90": (0.0, "s"),
        "gateway.service_s_p50": (0.0, "s"),
        "gateway.dedup_hits": (0.0, "count"),
        "simt.predictor.rel_err_p50": (0.0, "share"),
    }
    return {**zero, **out, **extra}


def _repeat(seconds: float, run_once) -> None:
    """Call ``run_once()`` (which returns its wall time) until
    ``seconds`` are spent, at least once.  Another call starts only if
    it would overrun ``seconds`` by less than half the median call."""
    t0 = time.perf_counter()
    walls: list[float] = []
    while not walls or (time.perf_counter() - t0 + _median(walls) / 2
                        < seconds):
        walls.append(run_once())


def _alternate(seconds: float, trace: LayerTrace,
               run_once) -> tuple[int, float, float]:
    """Untraced/traced pass pairs over the same inputs for ``seconds``.
    ``run_once(k)`` runs one pass over inputs ``k`` and returns its wall
    time.  Returns ``(pairs, traced_wall, overhead)``, where overhead is
    traced wall over untraced wall, minus one."""
    walls = {False: 0.0, True: 0.0}
    pairs = 0

    def run_pair() -> float:
        nonlocal pairs
        untraced = run_once(pairs)
        with trace.install():
            traced = run_once(pairs)
        walls[False] += untraced
        walls[True] += traced
        pairs += 1
        return untraced + traced

    _repeat(seconds, run_pair)
    return pairs, walls[True], walls[True] / walls[False] - 1.0


def _reduce4_check(backend: str, seed: int, out: Outcome) -> float:
    worst, fails = checks.reduce4_errors(backend,
                                         checks.adversarial_batch(seed))
    out.failures += fails
    out.attempted += 1
    return worst


# ---------------------------------------------------------------------------
# dock-tcec


def dock_tcec(seed: int, seconds: float, trace: bool, work: Path,
              env: dict) -> Outcome:
    from repro.core import DockingConfig, DockingEngine
    from repro.search.lga import LGAConfig
    from repro.testcases import get_test_case
    from repro.testcases.library import clear_cache

    cfg = DockingConfig(backend=DOCK["backend"], lga=LGAConfig(**DOCK["lga"]))
    n_runs = DOCK["n_runs"]
    budget = checks.expected_evals(cfg.lga)

    def setup():
        clear_cache()
        return DockingEngine(get_test_case(DOCK["case"]), cfg)

    setup_s, _ = _timed_setups(setup)
    out = Outcome(metrics={}, attempted=0)
    ulp = _reduce4_check(DOCK["backend"], seed, out)
    results, walls = [], []

    def dock(i: int) -> float:
        t0 = time.perf_counter()
        engine = DockingEngine(get_test_case(DOCK["case"]), cfg)
        result = engine.dock(
            n_runs=n_runs, seed=np.random.SeedSequence(seed, spawn_key=(i,)))
        walls.append(time.perf_counter() - t0)
        results.append(result)
        out.attempted += 1
        out.failures += checks.check_dock(f"dock {i}", result, budget, n_runs)
        return walls[-1]

    if not trace:
        _repeat(seconds, lambda: dock(len(walls)))
        rates = [r.total_evals / w for r, w in zip(results, walls)]
        out.metrics = _common_metrics(
            setup_s, _median(rates), walls, _median([1 / w for w in walls]),
            {"lo": walls, "hi": walls},
            float(np.mean([w <= DOCK_SLO_S for w in walls])),
            [r.best_score for r in results])
        out.info = {"docks": len(walls),
                    "dock_s": [round(w, 3) for w in walls]}
        return out

    lt = LayerTrace()
    pairs, traced_wall, overhead = _alternate(seconds, lt, dock)
    out.metrics = layer_metrics(lt, pairs, traced_wall, overhead, {
        "reduction.ulp_err_max": (ulp, "ulp"),
        "simt.us_per_eval": (results[-1].us_per_eval, "us"),
    })
    out.info = {"pairs": pairs}
    return out


# ---------------------------------------------------------------------------
# screen-mixed


def screen_library(seed: int):
    """The seeded mixed-shape library: N_rot strata 0..32, ligand
    geometry and atom types from ``seed``, in a fixed interleaved order
    (an unsorted library, so cohorts mix shapes).

    Ligands come from the case generator's ligand step alone, the
    private ``generator._grow_ligand``: the public ``make_test_case``
    also builds the pocket and its maps, about 8 s for this library,
    which would dwarf the set-up it is excluded from."""
    from repro.testcases.generator import _grow_ligand

    n = SCREEN["library"]
    n_rot = np.round(np.linspace(0, 32, n)).astype(int)
    order = [(5 * k) % n for k in range(n)]
    return [_grow_ligand(np.random.default_rng([seed, int(k)]),
                         f"lig{int(k):02d}-r{int(n_rot[k])}", int(n_rot[k]))
            for k in order]


def screen_mixed(seed: int, seconds: float, trace: bool, work: Path,
                 env: dict) -> Outcome:
    from repro.core import DockingConfig
    from repro.io.rlig import pack_rlig
    from repro.search.lga import LGAConfig
    from repro.serve import BlobStore, ContentCache, VirtualScreen
    from repro.serve.cache import load_case
    from repro.testcases import get_test_case
    from repro.testcases.library import clear_cache

    ligands = screen_library(seed)
    labels = [lig.name for lig in ligands]
    cfg = DockingConfig(backend=SCREEN["backend"],
                        lga=LGAConfig(**SCREEN["lga"]))
    budget = checks.expected_evals(cfg.lga)
    pack = work / "library.rlig"
    store = work / "store"
    receptor = SCREEN["receptor"]

    def setup():
        clear_cache()
        shutil.rmtree(store, ignore_errors=True)
        get_test_case(receptor)
        pack_rlig(pack, ligands)
        warm = ContentCache(store=BlobStore(store))
        load_case({"kind": "case", "case": receptor}, warm)

    setup_s, _ = _timed_setups(setup)
    out = Outcome(metrics={}, attempted=0)
    ulp = _reduce4_check(SCREEN["backend"], seed, out)
    passes: list[dict] = []

    def run_pass() -> float:
        done: dict[str, float] = {}
        manifest = work / f"manifest-{len(passes)}"
        screen = VirtualScreen(case=receptor, rlig=pack, config=cfg,
                               n_runs=SCREEN["n_runs"], seed=seed)
        t0 = time.perf_counter()

        def stream(result) -> None:
            done[result.label] = time.perf_counter() - t0

        report = screen.run(workers=0, manifest=manifest,
                            manifest_shards=SCREEN["manifest_shards"],
                            store=store, cohort_size=SCREEN["cohort_size"],
                            stream=stream)
        wall = time.perf_counter() - t0
        shutil.rmtree(manifest, ignore_errors=True)
        out.attempted += len(labels)
        out.failed_jobs += len(report.failed)
        out.failures += checks.check_ranking(report.ranking, labels)
        for jr in report.results.values():
            out.failures += checks.check_payload(
                f"ligand {jr.label}", jr.result, budget, SCREEN["n_runs"])
        passes.append({"wall": wall, "done": done, "report": report})
        return wall

    if not trace:
        _repeat(seconds, run_pass)
        lat = [t for p in passes for t in p["done"].values()]
        evals = [sum(r["total_evals"] for r in p["report"].ranking)
                 / p["wall"] for p in passes]
        out.metrics = _common_metrics(
            setup_s, _median(evals),
            [jr.wall_seconds for p in passes
             for jr in p["report"].results.values()],
            _median([len(labels) / p["wall"] for p in passes]),
            {"lo": lat, "hi": lat},
            float(np.mean([t <= SCREEN_SLO_S for t in lat])),
            [r["best_score"] for r in passes[0]["report"].ranking])
        out.info = {"passes": len(passes), "ligands": len(labels),
                    "pass_s": [round(p["wall"], 3) for p in passes]}
        return out

    lt = LayerTrace()
    pairs, traced_wall, overhead = _alternate(seconds, lt,
                                              lambda k: run_pass())
    # passes alternate untraced, traced
    cache = [p["report"].stats["cache"] for p in passes[1::2]]
    hits = sum(c["hits"] for c in cache)
    lookups = hits + sum(c["misses"] for c in cache)
    out.metrics = layer_metrics(lt, pairs, traced_wall, overhead, {
        "reduction.ulp_err_max": (ulp, "ulp"),
        "serve.cache.hit_ratio": (hits / lookups if lookups else 0.0,
                                  "share"),
        "serve.store.disk_hits": (
            sum(c["disk_hits"] for c in cache) / pairs, "count"),
        "serve.store.disk_misses": (
            sum(c["disk_misses"] for c in cache) / pairs, "count"),
    })
    out.info = {"pairs": pairs, "ligands": len(labels)}
    return out


# ---------------------------------------------------------------------------
# gateway-open


def gateway_loop_seconds(seconds: float) -> float:
    """The open loop's share of a gateway-open run of ``seconds``."""
    return seconds * (1.0 - GATEWAY["drain_share"])


def _gateway_doc(case: str, seed: int, index: int) -> dict:
    return {"case": case, "n_runs": GATEWAY["n_runs"],
            "evals": GATEWAY["evals"], "pop": GATEWAY["pop"],
            "ls_iters": GATEWAY["ls_iters"], "backend": GATEWAY["backend"],
            "seed": {"entropy": seed, "index": index}}


def _gateway_schedule(seed: int, seconds: float) -> list[dict]:
    """Open-loop arrivals: per rate, fixed intervals; every
    ``dup_every``-th submission repeats a seeded earlier job of its
    phase."""
    rng = np.random.default_rng([seed, 7])
    items, start, index = [], 0.0, 0
    for rate_name, rate, share in GATEWAY["rates"]:
        duration = seconds * share
        originals: list[dict] = []
        for j in range(int(round(rate * duration))):
            due = start + j / rate
            if (j + 1) % GATEWAY["dup_every"] == 0 and originals:
                src = originals[int(rng.integers(len(originals)))]
                items.append({**src, "due": due, "dup_of": src["index"]})
                continue
            doc = _gateway_doc(
                GATEWAY["cases"][index % len(GATEWAY["cases"])], seed, index)
            item = {"rate": rate_name, "due": due, "doc": doc,
                    "index": index, "dup_of": None}
            originals.append(item)
            items.append(item)
            index += 1
        start += duration
    return items


def _rate_phase(items: list[dict], rate_name: str) -> list[dict]:
    """The submissions of one rate, due from 0."""
    mine = [it for it in items if it["rate"] == rate_name]
    return [{**it, "due": it["due"] - mine[0]["due"]} for it in mine]


def _open_loop(client, items: list[dict], drain_s: float = 60.0) -> dict:
    """Send ``items`` on schedule from one thread, read ``/v1/stream``
    from another, reopening it until every accepted id has been seen."""
    from repro.gateway.client import GatewayRejected

    sent: list[dict] = []
    submit_done = threading.Event()
    t0_perf = time.perf_counter()
    t0_wall = time.time()
    errors: list[str] = []

    def submitter() -> None:
        try:
            for item in items:
                delay = t0_perf + item["due"] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t_send = time.perf_counter()
                row = {**item, "late_s": t_send - t0_perf - item["due"],
                       "due_wall": t0_wall + item["due"]}
                try:
                    reply = client.submit(item["doc"])
                    row["reply"] = reply["accepted"][0]
                except GatewayRejected as exc:
                    row["refused"] = exc.payload
                row["submit_s"] = time.perf_counter() - t_send
                sent.append(row)
        except Exception as exc:
            errors.append(f"submitter: {type(exc).__name__}: {exc}")
        finally:
            submit_done.set()

    records: dict[str, dict] = {}
    repeats = [0]

    def reader() -> None:
        deadline = t0_perf + (items[-1]["due"] if items else 0) + drain_s
        try:
            while time.perf_counter() < deadline:
                in_stream: set[str] = set()
                for rec in client.stream(timeout=drain_s):
                    if rec["job_id"] in in_stream:
                        repeats[0] += 1
                    in_stream.add(rec["job_id"])
                    records.setdefault(rec["job_id"], rec)
                if submit_done.is_set():
                    wanted = {r["reply"]["job_id"] for r in sent
                              if "reply" in r}
                    if wanted <= set(records):
                        return
                # latency comes from the records' completed_at stamps, so
                # reopening lazily only saves the server the re-sends
                time.sleep(0.5)
            errors.append("reader: stream drain timed out")
        except Exception as exc:
            errors.append(f"reader: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=submitter, name="bench-submit"),
               threading.Thread(target=reader, name="bench-stream")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=(items[-1]["due"] if items else 0) + drain_s + 30)
    if any(t.is_alive() for t in threads):
        errors.append("open loop threads did not finish")
    return {"sent": sent, "records": records, "repeats": repeats[0],
            "errors": errors, "t0_wall": t0_wall}


def _gateway_stats(loop: dict, manifest: dict, budget: int,
                   out: Outcome) -> dict:
    """Fold one open-loop run into per-rate rows; record check results."""
    sent, records = loop["sent"], loop["records"]
    out.failures += loop["errors"]
    by_index = {r["index"]: r for r in sent if r["dup_of"] is None}
    new = [r for r in sent if r["dup_of"] is None]
    dups = [r for r in sent if r["dup_of"] is not None]
    accepted = {r["reply"]["job_id"] for r in new if "reply" in r}
    mine = {jid: rec for jid, rec in records.items() if jid in accepted}
    out.attempted += len(sent)
    out.failures += checks.check_terminal_records(accepted, mine,
                                                  loop["repeats"])
    out.failures += checks.check_duplicates(
        [(by_index[r["dup_of"]]["reply"]["job_id"], r["reply"])
         for r in dups if "reply" in r and "reply" in by_index[r["dup_of"]]])
    out.failed_jobs += sum(1 for rec in mine.values()
                           if rec.get("status") in ("failed", "dead"))
    jobs = manifest.get("jobs", {})
    for jid in mine:
        payload = (jobs.get(jid, {}).get("result") or {}).get("result")
        out.failures += checks.check_payload(f"job {jid[:12]}", payload,
                                             budget, GATEWAY["n_runs"])

    rows = {}
    for rate_name, _, _ in GATEWAY["rates"]:
        phase = [r for r in new if r["rate"] == rate_name]
        done = [(r, mine[r["reply"]["job_id"]]) for r in phase
                if "reply" in r and r["reply"]["job_id"] in mine
                and mine[r["reply"]["job_id"]]["status"] == "ok"]
        rows[rate_name] = {
            "sent": sum(1 for r in sent if r["rate"] == rate_name),
            "accepted": sum(1 for r in sent
                            if r["rate"] == rate_name and "reply" in r),
            "refused": sum(1 for r in sent
                           if r["rate"] == rate_name and "refused" in r),
            "duplicates": sum(1 for r in dups if r["rate"] == rate_name),
            "new": len(phase),
            "completed": len(done),
            "latency": [rec["completed_at"] - r["due_wall"]
                        for r, rec in done],
            "gen_late_s_max": max((r["late_s"] for r in sent
                                   if r["rate"] == rate_name), default=0.0),
        }
    done_recs = list(mine.values())
    ok = [rec for rec in done_recs if rec.get("status") == "ok"]
    caches = [(jobs.get(rec["job_id"], {}).get("result") or {})
              .get("cache") or {} for rec in ok]
    hits = sum(c.get("hits", 0) for c in caches)
    lookups = hits + sum(c.get("misses", 0) for c in caches)
    last = max((rec["completed_at"] for rec in ok), default=loop["t0_wall"])
    wall = max(last - loop["t0_wall"], 1e-9)
    service = [rec["wall_seconds"] for rec in ok]
    return {
        "rows": rows, "ok": ok, "wall": wall, "service": service,
        "queue_wait": [rec["completed_at"] - rec["submitted_at"]
                       - rec["wall_seconds"] for rec in ok],
        "pred_err": [abs(rec["predicted_s"] - rec["wall_seconds"])
                     / rec["wall_seconds"] for rec in ok
                     if rec["wall_seconds"]],
        "submit_s": [r["submit_s"] for r in sent],
        "dedup_hits": sum(1 for r in dups
                          if r.get("reply", {}).get("duplicate")),
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
    }


def gateway_drain_rounds(seconds: float) -> int:
    """Drain rounds in a gateway-open run of ``seconds``."""
    return max(1, round(seconds * GATEWAY["drain_share"]
                        / GATEWAY["drain_round_s"]))


def _shard_batch(seed: int, index: int,
                 shard: int) -> tuple[list[dict], int]:
    """New jobs from seed index ``index`` on, ``drain_per_case`` of each
    case, all of whose ids the hash router sends to ``shard``; returns
    the documents and the next free index."""
    from repro.gateway import job_from_request
    from repro.serve.queue import shard_for

    docs = []
    for case in GATEWAY["cases"]:
        need = GATEWAY["drain_per_case"]
        while need:
            doc = _gateway_doc(case, seed, index)
            index += 1
            if shard_for(job_from_request(doc)[0].job_id,
                         GATEWAY["shards"]) == shard:
                docs.append(doc)
                need -= 1
    return docs, index


def _drain(client, seed: int, n_rounds: int, budget: int,
           out: Outcome) -> dict:
    """Saturate one shard at a time: ``n_rounds`` rounds of new jobs
    sent as one batch that the hash router gives to one shard, the
    shards taking turns, each round ending when all of its jobs are
    terminal.  A round's span runs from its first job's start to its
    last ``completed_at`` stamp, so it holds the shard's back-to-back
    service and manifest rewrites but not the wait for the shard to
    poll its queue; returns jobs and evals per span second over all
    rounds and the jobs' service times, and records check results."""
    rounds: list[dict] = []
    index = 2 * 10**6
    for k in range(n_rounds):
        docs, index = _shard_batch(seed, index, k % GATEWAY["shards"])
        reply = client.submit_batch(docs)
        accepted = {a["job_id"] for a in reply["accepted"]}
        records: dict[str, dict] = {}
        repeats = 0
        for rec in client.wait_all(timeout=60.0):
            if rec["job_id"] in accepted:
                repeats += rec["job_id"] in records
                records[rec["job_id"]] = rec
        out.attempted += len(docs)
        out.failures += checks.check_terminal_records(accepted, records,
                                                      repeats)
        out.failed_jobs += sum(1 for rec in records.values()
                               if rec.get("status") in ("failed", "dead"))
        ok = [rec for rec in records.values() if rec.get("status") == "ok"]
        span = (max(rec["completed_at"] for rec in ok)
                - min(rec["completed_at"] - rec["wall_seconds"]
                      for rec in ok)) if ok else 0.0
        rounds.append({"ok": ok, "refused": len(reply["rejected"]),
                       "span": span})
    jobs = client.manifest().get("jobs", {})
    done = [rec for r in rounds for rec in r["ok"]]
    evals = 0
    for rec in done:
        payload = (jobs.get(rec["job_id"], {}).get("result") or {}) \
            .get("result")
        out.failures += checks.check_payload(
            f"drain job {rec['job_id'][:12]}", payload, budget,
            GATEWAY["n_runs"])
        evals += (payload or {}).get("total_evals", 0)
    # totals over all rounds: a round's span grows with the manifest, so
    # a median over rounds would rest on the middle few alone
    span = sum(r["span"] for r in rounds)
    return {
        "evals_per_s": evals / span if span else 0.0,
        "jobs_per_s": len(done) / span if span else 0.0,
        "service": [rec["wall_seconds"] for rec in done],
        "info": {"rounds": len(rounds), "jobs": len(done),
                 "refused": sum(r["refused"] for r in rounds),
                 "span_s": [round(r["span"], 3) for r in rounds]},
    }


def gateway_open(seed: int, seconds: float, trace: bool, work: Path,
                 env: dict) -> Outcome:
    from repro.gateway import Gateway, GatewayClient, GatewayConfig
    from repro.search.lga import LGAConfig
    from repro.simt.predictor import DEFAULT_BENCH_PATH, RuntimePredictor
    from repro.testcases import get_test_case
    from repro.testcases.library import clear_cache

    evals, pop = GATEWAY["evals"], GATEWAY["pop"]
    budget = checks.expected_evals(LGAConfig(
        pop_size=pop, max_evals=evals, max_gens=max(1, evals // pop),
        ls_iters=GATEWAY["ls_iters"], ls_rate=0.25))
    predictor = RuntimePredictor.from_bench(DEFAULT_BENCH_PATH,
                                            local_ref_s=env["numpy_ref_s"])
    started: list = []

    def start():
        """Start a gateway and run one job per case per shard through
        it, so every shard has loaded every case before timing."""
        clear_cache()
        # build the cases one at a time: two shard threads building them
        # at once would overlap their map-building memory peaks at random
        for case in GATEWAY["cases"]:
            get_test_case(case)
        gw = Gateway(GatewayConfig(
            port=0, n_shards=GATEWAY["shards"], workers=0,
            slo_seconds=GATEWAY["slo_s"],
            manifest=str(work / f"gateway-{len(started)}.json")),
            predictor=predictor).start()
        started.append(gw)
        client = GatewayClient(f"http://127.0.0.1:{gw.port}")
        client.submit_batch([
            _gateway_doc(case, seed, 10**6 + k)
            for k, case in enumerate(GATEWAY["cases"] * GATEWAY["shards"])])
        client.wait_all(timeout=60.0)
        return client

    def stop_all() -> None:
        while started:
            started.pop().stop()

    out = Outcome(metrics={}, attempted=0)
    try:
        if not trace:
            # drain, lo and hi each get a fresh gateway from one of the
            # SETUP_REPEATS timed set-ups, so each starts with a manifest
            # of only the warm-up jobs and the per-completion rewrites
            # cost the same in every run
            items = _gateway_schedule(seed, gateway_loop_seconds(seconds))
            times, rows, ok = [], {}, []
            for phase in ("drain",) + tuple(r[0] for r in GATEWAY["rates"]):
                t0 = time.perf_counter()
                client = start()
                times.append(time.perf_counter() - t0)
                if phase == "drain":
                    drain = _drain(client, seed, gateway_drain_rounds(seconds),
                                   budget, out)
                else:
                    stats = _gateway_stats(
                        _open_loop(client, _rate_phase(items, phase)),
                        client.manifest(), budget, out)
                    rows[phase] = stats["rows"][phase]
                    ok += stats["ok"]
                stop_all()
            _reduce4_check(GATEWAY["backend"], seed, out)
            hi = rows["hi"]
            slo_hi = (sum(1 for t in hi["latency"] if t <= GATEWAY["slo_s"])
                      / hi["new"]) if hi["new"] else 0.0
            # the open loop's wall time is fixed by its schedule, so the
            # rates and service time come from the drain, which the
            # program sets
            out.metrics = _common_metrics(
                _median(times), drain["evals_per_s"],
                drain["service"], drain["jobs_per_s"],
                {name: row["latency"] for name, row in rows.items()},
                slo_hi, [rec["best_score"] for rec in ok])
            for name, row in rows.items():
                note = f"from {row['completed']} completed new jobs"
                if row["completed"] < LATENCY_SAMPLE_FLOOR:
                    note += (f", below the {LATENCY_SAMPLE_FLOOR} "
                             f"a p90 needs")
                for q in ("p50", "p90"):
                    out.notes[f"latency_{q}_s.{name}"] = note
            out.info = {name: {k: (round(v, 4) if isinstance(v, float)
                                   else v)
                               for k, v in row.items() if k != "latency"}
                        for name, row in rows.items()}
            out.info["drain"] = drain["info"]
            return out

        setup_s, client = _timed_setups(start, stop=lambda _: stop_all())
        ulp = _reduce4_check(GATEWAY["backend"], seed, out)
        # an open loop's wall is set by its schedule, not by the program,
        # so tracing overhead is the change in mean service time; each
        # loop gets half the time and a fresh gateway
        half = seconds / 2
        untraced = _gateway_stats(
            _open_loop(client, _gateway_schedule(seed, half)),
            client.manifest(), budget, out)
        stop_all()
        client = start()
        lt = LayerTrace()
        with lt.install():
            loop = _open_loop(client, _gateway_schedule(seed, half))
        traced = _gateway_stats(loop, client.manifest(), budget, out)
        overhead = (np.mean(traced["service"])
                    / np.mean(untraced["service"]) - 1.0)
        out.metrics = layer_metrics(lt, 1, traced["wall"], float(overhead), {
            "reduction.ulp_err_max": (ulp, "ulp"),
            "gateway.http.submit_s_p50": (_median(traced["submit_s"]), "s"),
            "gateway.scheduler.rejected": (
                float(sum(r["refused"] for r in traced["rows"].values())),
                "count"),
            "gateway.queue_wait_s_p50": (_q(traced["queue_wait"], 0.5), "s"),
            "gateway.queue_wait_s_p90": (_q(traced["queue_wait"], 0.9), "s"),
            "gateway.service_s_p50": (_median(traced["service"]), "s"),
            "gateway.dedup_hits": (float(traced["dedup_hits"]), "count"),
            "serve.cache.hit_ratio": (traced["cache_hit_ratio"], "share"),
            "simt.predictor.rel_err_p50": (_median(traced["pred_err"]),
                                           "share"),
        })
        out.info = {"traced_jobs": len(traced["ok"]),
                    "untraced_jobs": len(untraced["ok"])}
        return out
    finally:
        stop_all()


WORKLOADS = {
    "dock-tcec": dock_tcec,
    "screen-mixed": screen_mixed,
    "gateway-open": gateway_open,
}
