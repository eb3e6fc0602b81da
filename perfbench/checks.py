"""Output checks.  Each returns a list of failure messages (empty: pass).

The checks take plain results (``DockingResult`` objects, ranking and
record dicts, arrays), so the benchmark's tests can hand them a
deliberately corrupted result and see them fail.
"""

from __future__ import annotations

import math

import numpy as np

_EPS32 = float(np.finfo(np.float32).eps)
#: backends whose documented error bound against ``exact`` is the
#: FP32-class summation bound ``2 n eps32 sum|x| + 1 output ulp``
#: (see ``tests/test_ozaki.py::TestEveryBackendDocumentedBound``)
FP32_CLASS = ("baseline", "warp-shuffle", "tcec-tf32")


def expected_evals(lga) -> int:
    """Evaluations one LGA run spends under ``lga``'s budget rules.

    The lock-step runner scores the population (``pop`` evals), stops
    once the budget is reached, and otherwise breeds and refines
    ``round(ls_rate * pop)`` individuals for ``ls_iters`` evals each.
    A run that hits ``max_gens`` scores its final population once more.
    """
    pop = lga.pop_size
    per_ls = int(round(lga.ls_rate * pop)) * lga.ls_iters
    evals = gens = 0
    while evals < lga.max_evals and gens < lga.max_gens:
        evals += pop
        if evals >= lga.max_evals:
            return evals
        evals += per_ls
        gens += 1
    return evals + pop


def check_budget(label: str, run_evals: list[int], best_scores: list[float],
                 expected_per_run: int) -> list[str]:
    """Every run spends exactly its budget and ends on a finite score."""
    fails = []
    for i, (used, score) in enumerate(zip(run_evals, best_scores)):
        if used != expected_per_run:
            fails.append(f"{label} run {i}: {used} evals, "
                         f"budget gives {expected_per_run}")
        if not math.isfinite(score):
            fails.append(f"{label} run {i}: best score {score!r}")
    if not run_evals:
        fails.append(f"{label}: no runs")
    return fails


def check_dock(label: str, result, expected_per_run: int,
               n_runs: int) -> list[str]:
    """A ``DockingResult``: run count, per-run budget, finite scores."""
    fails = []
    if len(result.runs) != n_runs:
        fails.append(f"{label}: {len(result.runs)} runs, asked {n_runs}")
    fails += check_budget(label, [r.evals_used for r in result.runs],
                          [r.best_score for r in result.runs],
                          expected_per_run)
    if result.total_evals != sum(r.evals_used for r in result.runs):
        fails.append(f"{label}: total_evals {result.total_evals} != "
                     f"sum of runs")
    return fails


def check_payload(label: str, payload: dict, expected_per_run: int,
                  n_runs: int) -> list[str]:
    """A serialised ``DockingResult`` (manifest or gateway record)."""
    if not isinstance(payload, dict) or "runs" not in payload:
        return [f"{label}: no result payload"]
    runs = payload["runs"]
    fails = []
    if len(runs) != n_runs:
        fails.append(f"{label}: {len(runs)} runs, asked {n_runs}")
    fails += check_budget(label, [r["evals_used"] for r in runs],
                          [r["best_score"] for r in runs], expected_per_run)
    return fails


def check_ranking(ranking: list[dict], labels: list[str]) -> list[str]:
    """Every library ligand is ranked exactly once, with status ``ok``."""
    fails = []
    seen: dict[str, int] = {}
    for row in ranking:
        seen[row["label"]] = seen.get(row["label"], 0) + 1
        if row.get("status") != "ok":
            fails.append(f"ligand {row['label']}: status {row.get('status')}")
    for label in labels:
        if seen.get(label, 0) != 1:
            fails.append(f"ligand {label}: ranked {seen.get(label, 0)} times")
    for label in set(seen) - set(labels):
        fails.append(f"ranking has unknown ligand {label}")
    return fails


def check_terminal_records(accepted: set[str], records: dict[str, dict],
                           per_stream_repeats: int) -> list[str]:
    """Exactly one ``ok`` terminal record per accepted job id."""
    fails = []
    for job_id in sorted(accepted - set(records)):
        fails.append(f"job {job_id[:12]}: no terminal record")
    for job_id in sorted(set(records) - accepted):
        fails.append(f"job {job_id[:12]}: record for a job never accepted")
    for job_id, rec in records.items():
        if rec.get("status") != "ok":
            fails.append(f"job {job_id[:12]}: status {rec.get('status')}")
    if per_stream_repeats:
        fails.append(f"{per_stream_repeats} records repeated within one "
                     f"stream")
    return fails


def check_duplicates(dups: list[tuple[str, dict]]) -> list[str]:
    """A duplicate submission returns the original job's id."""
    fails = []
    for original_id, reply in dups:
        if reply.get("job_id") != original_id or not reply.get("duplicate"):
            fails.append(f"duplicate of {original_id[:12]} answered "
                         f"{str(reply.get('job_id'))[:12]} "
                         f"duplicate={reply.get('duplicate')}")
    return fails


# ---------------------------------------------------------------------------
# reduce4 accuracy


def adversarial_batch(seed: int, n_samples: int = 12) -> list[np.ndarray]:
    """Seeded reduce4 inputs: uniform, mixed magnitude (2^±18),
    catastrophic cancellation and a batched leading-dims case."""
    rng = np.random.default_rng([seed, 4])
    out = []
    for _ in range(n_samples):
        n = int(rng.integers(5, 200))
        out.append(rng.normal(size=(n, 4)))
        scale = np.exp2(rng.integers(-18, 19, size=(n, 4)).astype(float))
        out.append(rng.normal(size=(n, 4)) * scale)
        half = rng.normal(size=(n, 4)) * 1e4
        out.append(np.concatenate([half, -half, rng.normal(size=(n, 4))]))
        out.append(rng.normal(size=(3, 2, max(n // 4, 5), 4))
                   * np.exp2(rng.integers(-8, 9)))
    return [v.astype(np.float32) for v in out]


def reduce4_errors(backend: str, batch: list[np.ndarray]
                   ) -> tuple[float, list[str]]:
    """Worst error in output ulps against ``exact``, and bound breaches."""
    from repro.reduction.api import ExactReduction, get_reduction_backend

    if backend not in FP32_CLASS:
        raise ValueError(f"no documented bound wired for {backend!r}")
    impl = get_reduction_backend(backend)
    exact = ExactReduction()
    worst, fails = 0.0, []
    for k, x in enumerate(batch):
        out = impl.reduce4(x).astype(np.float64)
        ref32 = exact.reduce4(x)
        ref = ref32.astype(np.float64)
        err = np.abs(out - ref)
        ulp = np.maximum(np.abs(np.spacing(ref32)).astype(np.float64),
                         float(np.finfo(np.float32).smallest_subnormal))
        worst = max(worst, float(np.max(err / ulp)))
        n = x.shape[-2]
        mass = np.abs(x.astype(np.float64)).sum(axis=-2)
        bound = 2.0 * n * _EPS32 * mass + ulp
        if not np.all(err <= bound):
            fails.append(f"reduce4[{backend}] sample {k}: error "
                         f"{float(np.max(err - bound)):.3g} over the bound")
    return worst, fails
