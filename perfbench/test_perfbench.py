"""Tests of the benchmark's own machinery: layer timing and output checks.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
import math
import shutil
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from layers import LayerClock, LayerTrace  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float) -> None:
        self.t += dt


def _nested(clock: LayerClock, fake: FakeClock):
    def leaf():
        fake.tick(3.0)

    def mid():
        fake.tick(1.0)
        leaf()
        leaf()
        fake.tick(0.5)

    def top():
        fake.tick(2.0)
        mid()
        fake.tick(0.25)

    leaf = clock.wrap("leaf", leaf)
    mid = clock.wrap("mid", mid)
    return clock.wrap("top", top)


class TestSelfTime:
    def test_nested_self_times_sum_to_wrapped_wall(self):
        fake = FakeClock()
        clock = LayerClock(clock=fake)
        top = _nested(clock, fake)
        top()
        self_s = clock.self_s()
        assert self_s == {"leaf": 6.0, "mid": 1.5, "top": 2.25}
        assert sum(self_s.values()) == clock.root_s() == 9.75
        assert clock.calls() == {"leaf": 2, "mid": 1, "top": 1}

    def test_recursive_call_counts_once_and_keeps_the_sum(self):
        fake = FakeClock()
        clock = LayerClock(clock=fake)

        def rec(n):
            fake.tick(1.0)
            if n:
                rec(n - 1)

        rec = clock.wrap("rec", rec)
        rec(3)
        assert clock.self_s() == {"rec": 4.0}
        assert clock.calls() == {"rec": 1}
        assert clock.root_s() == 4.0

    def test_threads_keep_separate_stacks(self):
        clock = LayerClock()
        barrier = threading.Barrier(2)

        def inner():
            barrier.wait(timeout=10)

        inner = clock.wrap("inner", inner)
        outer = clock.wrap("outer", lambda: inner())
        threads = [threading.Thread(target=outer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert clock.calls() == {"inner": 2, "outer": 2}
        assert math.isclose(sum(clock.self_s().values()), clock.root_s())

    def test_exception_still_accounts_and_pops(self):
        fake = FakeClock()
        clock = LayerClock(clock=fake)

        def boom():
            fake.tick(1.0)
            raise ValueError("x")

        boom = clock.wrap("boom", boom)
        with pytest.raises(ValueError):
            boom()
        assert clock.self_s() == {"boom": 1.0}
        assert clock._tally()["stack"] == []


class TestPatching:
    def test_name_bound_imports_are_patched_and_restored(self):
        import repro.docking.cohort as cohort
        import repro.docking.gradients as gradients
        import repro.docking.pose as pose
        import repro.docking.scoring as scoring

        original = pose.calc_coords
        trace = LayerTrace()
        with trace.install():
            for mod in (pose, gradients, scoring, cohort):
                assert mod.calc_coords is not original
        for mod in (pose, gradients, scoring, cohort):
            assert mod.calc_coords is original

    def test_methods_restored(self):
        from repro.docking.grids import GridMaps
        from repro.reduction.api import TcecReduction

        before = (GridMaps.__dict__["interatom_energy"],
                  TcecReduction.__dict__["reduce4"])
        with LayerTrace().install():
            assert GridMaps.__dict__["interatom_energy"] is not before[0]
        assert (GridMaps.__dict__["interatom_energy"],
                TcecReduction.__dict__["reduce4"]) == before

    def test_traced_dock_is_fully_attributed(self):
        from repro.core import DockingConfig, DockingEngine
        from repro.search.lga import LGAConfig
        from repro.testcases import get_test_case

        cfg = DockingConfig(backend="tcec-tf32", lga=LGAConfig(
            pop_size=8, max_evals=300, max_gens=20, ls_iters=4,
            ls_rate=0.25))
        engine = DockingEngine(get_test_case("5kao"), cfg)
        plain = engine.dock(n_runs=2, seed=3)
        trace = LayerTrace()
        with trace.install():
            traced = engine.dock(n_runs=2, seed=3)
        assert [r.best_score for r in traced.runs] == \
            [r.best_score for r in plain.runs]
        self_s = trace.clock.self_s()
        for layer in ("core.engine", "search.lga", "search.ga",
                      "search.adadelta", "docking.gradient", "docking.pose",
                      "docking.inter", "docking.intra", "docking.score",
                      "reduction.reduce4"):
            assert self_s.get(layer, 0.0) > 0.0, layer
        assert trace.clock.calls()["core.engine"] == 1
        assert math.isclose(sum(self_s.values()), trace.clock.root_s(),
                            rel_tol=1e-9)
        assert trace.reduce4_vectors > 0


class TestChecks:
    @pytest.fixture(scope="class")
    def dock(self):
        from repro.core import DockingConfig, DockingEngine
        from repro.search.lga import LGAConfig
        from repro.testcases import get_test_case

        cfg = DockingConfig(backend="baseline", lga=LGAConfig(
            pop_size=10, max_evals=60, max_gens=6, ls_iters=5,
            ls_rate=0.25))
        return cfg, DockingEngine(get_test_case("1u4d"), cfg).dock(
            n_runs=2, seed=1)

    def test_expected_evals_matches_the_engine(self, dock):
        cfg, result = dock
        assert [r.evals_used for r in result.runs] == \
            [checks.expected_evals(cfg.lga)] * 2

    def test_expected_evals_reference_config(self):
        from repro.search.lga import LGAConfig
        assert checks.expected_evals(
            LGAConfig(**workloads.DOCK["lga"])) == 6030

    def test_clean_dock_passes(self, dock):
        cfg, result = dock
        assert checks.check_dock("d", result, checks.expected_evals(cfg.lga),
                                 2) == []

    def test_corrupted_dock_fails(self, dock):
        cfg, result = dock
        budget = checks.expected_evals(cfg.lga)
        short = replace(result, runs=[replace(result.runs[0], evals_used=1),
                                      result.runs[1]])
        assert checks.check_dock("d", short, budget, 2)
        nan = replace(result, runs=[replace(result.runs[0],
                                            best_score=float("nan")),
                                    result.runs[1]])
        assert checks.check_dock("d", nan, budget, 2)
        assert checks.check_dock("d", result, budget, 3)

    def test_corrupted_payload_fails(self, dock):
        cfg, result = dock
        budget = checks.expected_evals(cfg.lga)
        payload = result.to_dict(include_history=False)
        assert checks.check_payload("j", payload, budget, 2) == []
        payload["runs"][1]["evals_used"] += 10
        assert checks.check_payload("j", payload, budget, 2)
        assert checks.check_payload("j", None, budget, 2)

    def test_ranking(self):
        rows = [{"label": "a", "status": "ok"}, {"label": "b", "status": "ok"}]
        assert checks.check_ranking(rows, ["a", "b"]) == []
        assert checks.check_ranking(rows[:1], ["a", "b"])
        assert checks.check_ranking(rows + rows[:1], ["a", "b"])
        assert checks.check_ranking(
            [rows[0], {"label": "b", "status": "cached"}], ["a", "b"])
        assert checks.check_ranking(rows, ["a"])

    def test_terminal_records(self):
        recs = {"x": {"status": "ok"}, "y": {"status": "ok"}}
        assert checks.check_terminal_records({"x", "y"}, recs, 0) == []
        assert checks.check_terminal_records({"x", "y", "z"}, recs, 0)
        assert checks.check_terminal_records({"x"}, recs, 0)
        assert checks.check_terminal_records(
            {"x", "y"}, {**recs, "y": {"status": "dead"}}, 0)
        assert checks.check_terminal_records({"x", "y"}, recs, 1)

    def test_duplicates(self):
        assert checks.check_duplicates(
            [("a", {"job_id": "a", "duplicate": True})]) == []
        assert checks.check_duplicates(
            [("a", {"job_id": "b", "duplicate": True})])
        assert checks.check_duplicates([("a", {"job_id": "a"})])

    def test_reduce4_within_bound(self):
        for name in checks.FP32_CLASS:
            worst, fails = checks.reduce4_errors(
                name, checks.adversarial_batch(5))
            assert fails == [] and worst >= 0.0

    def test_corrupted_reduce4_fails(self, monkeypatch):
        from repro.reduction.api import TcecReduction

        honest = TcecReduction.reduce4
        monkeypatch.setattr(TcecReduction, "reduce4",
                            lambda self, v: honest(self, v) * 1.001)
        _, fails = checks.reduce4_errors("tcec-tf32",
                                         checks.adversarial_batch(5))
        assert fails


class TestContract:
    def test_metric_names_match_benchmark_json(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = workloads._common_metrics(1.0, 1.0, [1.0], 1.0,
                                        {"lo": [1.0], "hi": [1.0]}, 1.0,
                                        [-1.0])
        assert set(e2e) == {m["name"] for m in doc["end_to_end"]}
        assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
            {k: v[1] for k, v in e2e.items()}
        layers = workloads.layer_metrics(LayerTrace(), 1, 1.0, 0.0, {})
        assert set(layers) == {m["name"] for m in doc["per_layer"]}
        assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
            {k: v[1] for k, v in layers.items()}

    def test_gateway_schedule_meets_the_sample_floor(self):
        # scheduled new jobs; the run prints the completed count per rate
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        loop_s = workloads.gateway_loop_seconds(doc["run_seconds"])
        items = workloads._gateway_schedule(1, loop_s)
        for rate, _, _ in workloads.GATEWAY["rates"]:
            new = [i for i in items
                   if i["rate"] == rate and i["dup_of"] is None]
            dups = [i for i in items
                    if i["rate"] == rate and i["dup_of"] is not None]
            assert len(new) >= workloads.LATENCY_SAMPLE_FLOOR
            assert 0.15 <= len(dups) / (len(new) + len(dups)) <= 0.25
        assert items == workloads._gateway_schedule(1, loop_s)

    def test_drain_batches_go_to_one_shard(self):
        from repro.gateway import job_from_request
        from repro.serve.queue import shard_for

        gw = workloads.GATEWAY
        index, seen = 0, set()
        for shard in range(gw["shards"]):
            docs, index = workloads._shard_batch(1, index, shard)
            assert {shard_for(job_from_request(d)[0].job_id, gw["shards"])
                    for d in docs} == {shard}
            assert Counter(d["case"] for d in docs) == \
                {case: gw["drain_per_case"] for case in gw["cases"]}
            indices = {d["seed"]["index"] for d in docs}
            assert indices.isdisjoint(seen)
            seen |= indices

    def test_exits_nonzero_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dock-tcec",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout

    def test_screen_library_is_seeded(self):
        a = workloads.screen_library(3)
        b = workloads.screen_library(3)
        c = workloads.screen_library(4)
        assert [x.n_rot for x in a] == [x.n_rot for x in c]
        assert sorted(x.n_rot for x in a)[0] == 0
        assert max(x.n_rot for x in a) == 32
        assert all(np.array_equal(x.ref_coords, y.ref_coords)
                   for x, y in zip(a, b))
        assert not all(np.array_equal(x.ref_coords, y.ref_coords)
                       for x, y in zip(a, c))
