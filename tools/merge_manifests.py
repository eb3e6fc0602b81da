#!/usr/bin/env python
"""Merge and rank result logs written by screens and the gateway.

A :class:`~repro.serve.manifest.ShardedManifest` keeps one append-only
NDJSON log per content-hash shard, which is the right shape for a
million-ligand screen but the wrong shape for downstream analysis.
This tool folds any mix of manifest directories (and read-only
single-file ``manifest.json`` documents from older versions) into one
ranked, single-file manifest::

    python tools/merge_manifests.py out/manifest out2/manifest \
        --out merged.json --top 10

Loading and ranking are the serving layer's own
(:func:`repro.serve.manifest.load_manifest_jobs` and
:func:`repro.serve.manifest.rank`), so a merged manifest ranks
identically to the screen or gateway that wrote it.
Within a shard log the last record wins and a torn tail is skipped;
across inputs, later command-line arguments supersede earlier ones.

The tool puts the repository's ``src/`` on ``sys.path`` itself, so it
runs from a checkout without installing the package.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.serve.manifest import (MANIFEST_VERSION,  # noqa: E402
                                  atomic_write_json, load_manifest_jobs,
                                  rank)


class MergeError(Exception):
    pass


def merge(paths: list[Path]) -> dict:
    jobs: dict[str, dict] = {}
    for path in paths:
        try:
            jobs.update(load_manifest_jobs(path))
        except (OSError, ValueError) as exc:
            raise MergeError(f"{path}: unreadable manifest: {exc}") from None
    ranking = rank(jobs)
    by_status: dict[str, int] = {}
    for rec in jobs.values():
        status = rec.get("status", "unknown")
        by_status[status] = by_status.get(status, 0) + 1
    return {
        "version": MANIFEST_VERSION,
        "merged_from": [str(p) for p in paths],
        "jobs": jobs,
        "ranking": ranking,
        "stats": {"jobs_total": len(jobs), "by_status": by_status},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Merge screen and gateway manifests into one ranked "
                    "manifest")
    ap.add_argument("manifests", nargs="+", type=Path,
                    help="manifest dirs and/or older manifest.json files; "
                         "later arguments win on job-id collision")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the merged single-file manifest here "
                         "(atomic rename)")
    ap.add_argument("--top", type=int, default=5, metavar="N",
                    help="print the top-N ranked hits (default 5; "
                         "0 silences the table)")
    args = ap.parse_args(argv)

    try:
        doc = merge(args.manifests)
    except MergeError as exc:
        print(f"merge_manifests: {exc}", file=sys.stderr)
        return 1

    stats = doc["stats"]
    print(f"merged {len(args.manifests)} manifest(s): "
          f"{stats['jobs_total']} jobs, {len(doc['ranking'])} ranked "
          f"({stats['by_status']})")
    for rec in doc["ranking"][:max(args.top, 0)]:
        print(f"  #{rec['rank']:<3d} {rec['label']:<24s} "
              f"{rec['best_score']:10.4f}  [{rec['status']}]")
    if args.out is not None:
        atomic_write_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
