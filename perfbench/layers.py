"""Outside-in layer timing: wrap each layer's public calls, count self time.

The traced pass never edits the program.  It replaces each layer's
public functions and methods with timing wrappers for the length of the
pass and puts the originals back afterwards.  A function that other
modules import by name (``calc_coords`` is bound in
``docking.gradients``, ``docking.scoring`` and ``docking.cohort``) is
replaced at every module that holds it, not only where it is defined.

Self time is a wrapped call's wall time minus the wall time of the
wrapped calls nested inside it, kept per thread.  The self times of
all calls under one outermost wrapped call therefore add up to that
call's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


class LayerClock:
    """Per-layer self time and call counts, gathered across threads."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[dict] = []

    def _tally(self) -> dict:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = {"stack": [], "self_s": defaultdict(float),
                     "calls": defaultdict(int), "root_s": 0.0}
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def wrap(self, layer: str | None, fn, before=None, after=None):
        """Time ``fn`` under ``layer`` (``None``: observe only).

        ``before(args, kwargs)`` runs ahead of the call and
        ``after(args, kwargs, result)`` after it; both are outside the
        timed interval.
        """
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                tally = self._tally()
                stack = tally["stack"]
                nested = any(frame[0] == layer for frame in stack)
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    tally["self_s"][layer] += dt - frame[1]
                    if not nested:
                        tally["calls"][layer] += 1
                    if stack:
                        stack[-1][1] += dt
                    else:
                        tally["root_s"] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for tally in self._tallies:
                for layer, s in tally["self_s"].items():
                    out[layer] += s
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        with self._lock:
            for tally in self._tallies:
                for layer, n in tally["calls"].items():
                    out[layer] += n
        return dict(out)

    def root_s(self) -> float:
        """Wall time of all outermost wrapped calls, summed over threads."""
        with self._lock:
            return sum(t["root_s"] for t in self._tallies)


class Patcher:
    """Install wrappers and restore the originals (a context manager)."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module: str, name: str, layer: str | None,
                 before=None, after=None) -> None:
        """Wrap a module-level function at every ``repro`` module that
        holds it under any name."""
        original = getattr(importlib.import_module(module), name)
        wrapper = self.clock.wrap(layer, original, before, after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def method(self, cls: type, name: str, layer: str | None,
               before=None, after=None) -> None:
        """Wrap a method where the class defines it."""
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, self.clock.wrap(layer, original, before, after))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _subclasses_defining(base: type, name: str) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if name in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class LayerTrace:
    """The benchmark's layer map, installed by :meth:`install`.

    Besides self time and calls per layer it records the few counts the
    per-layer metrics need: ``reduce4`` input vectors, cohort pad
    ratios and cohort sizes from ``pack_cohorts``.
    """

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.reduce4_vectors = 0
        self.pad_ratios: list[float] = []
        self.cohort_sizes: list[int] = []
        self._lock = threading.Lock()

    def install(self) -> Patcher:
        from repro.core.engine import DockingEngine
        from repro.docking.cohort import (CohortGradientCalculator,
                                          CohortScoring, LigandPack)
        from repro.docking.gradients import GradientCalculator
        from repro.docking.grids import GridMaps
        from repro.docking.scoring import ScoringFunction
        from repro.gateway.client import GatewayClient
        from repro.gateway.scheduler import SLOScheduler
        from repro.io.rlig import RligReader
        from repro.reduction.api import ReductionBackend
        from repro.search.adadelta import AdadeltaLocalSearch
        from repro.search.cohort import CohortLGA
        from repro.search.parallel import ParallelLGA
        from repro.serve.manifest import ShardedManifest
        from repro.serve.screen import VirtualScreen

        p = Patcher(self.clock)
        try:
            p.function("repro.docking.pose", "calc_coords", "docking.pose")
            p.method(GridMaps, "interatom_energy", "docking.inter")
            p.method(LigandPack, "inter_energy", "docking.inter")
            p.function("repro.docking.energy", "intra_contributions",
                       "docking.intra")
            p.method(LigandPack, "intra", "docking.intra")
            p.method(GradientCalculator, "__call__", "docking.gradient")
            p.method(CohortGradientCalculator, "__call__",
                     "docking.gradient")
            p.method(ScoringFunction, "score", "docking.score")
            p.method(CohortScoring, "score", "docking.score")
            p.method(LigandPack, "__init__", None,
                     after=self._note_pack)
            for cls in _subclasses_defining(ReductionBackend, "reduce4"):
                p.method(cls, "reduce4", "reduction.reduce4",
                         before=self._note_reduce4)
            p.method(AdadeltaLocalSearch, "minimize", "search.adadelta")
            p.function("repro.search.ga", "next_generation_batched",
                       "search.ga")
            p.method(ParallelLGA, "run", "search.lga")
            p.method(CohortLGA, "run", "search.lga")
            p.method(DockingEngine, "dock", "core.engine")
            p.function("repro.core.engine", "dock_cohort", "core.engine")
            p.method(RligReader, "read", "io.rlig")
            p.function("repro.serve.cache", "load_case", "serve.cache")
            p.function("repro.serve.pool", "execute_job", "serve.execute")
            p.function("repro.serve.pool", "execute_cohort",
                       "serve.execute")
            p.method(ShardedManifest, "append", "serve.manifest.append")
            p.function("repro.serve.manifest", "atomic_write_json",
                       "serve.manifest.write")
            p.function("repro.serve.queue", "pack_cohorts", "serve.queue",
                       after=self._note_cohorts)
            p.method(VirtualScreen, "run", "serve.screen")
            p.method(SLOScheduler, "admit", "gateway.scheduler")
            p.method(GatewayClient, "submit", "gateway.http")
        except BaseException:
            p.restore()
            raise
        return p

    # -- observers -----------------------------------------------------

    def _note_reduce4(self, args, kwargs) -> None:
        vectors = args[1] if len(args) > 1 else kwargs["vectors"]
        shape = getattr(vectors, "shape", ())
        n = 1
        for d in shape[:-1]:
            n *= int(d)
        with self._lock:
            self.reduce4_vectors += n

    def _note_pack(self, args, kwargs, result) -> None:
        with self._lock:
            self.pad_ratios.append(float(args[0].pad_ratio))

    def _note_cohorts(self, args, kwargs, result) -> None:
        from repro.serve.queue import CohortJob
        with self._lock:
            self.cohort_sizes.extend(len(j.jobs) for j in result
                                     if isinstance(j, CohortJob))
