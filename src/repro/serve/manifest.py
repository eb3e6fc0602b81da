"""Manifest persistence: durable single-file writes and sharded logs.

The single-file manifest (:class:`VirtualScreen` default) serialises
*every* terminal job and rewrites the whole JSON after each completion —
perfect for thousands of ligands, O(n²) I/O at 10^5–10^6.  This module
adds the large-screen format: per-shard append-only NDJSON result logs,

.. code-block:: text

    <manifest-dir>/
        meta.json            # version, n_shards, screen header, stats
        shard-0000.ndjson    # one JSON line per terminal JobResult
        shard-0001.ndjson    # ...

where a result lands in shard ``shard_for(job_id, n_shards)`` — the same
coordination-free content-hash partition the queue and gateway use — so
appends from independent screens or gateway shard runners never contend
on one file.  Appending is O(record); a crash tears at most the final
line, which loaders skip.  Re-appended job ids (retries, resumed
overwrites) are resolved last-record-wins at load time and squeezed out
by periodic :meth:`ShardedManifest.compact`.

:func:`atomic_write_json` is the shared durable-write primitive (tmp in
the same directory, ``fsync``, atomic ``os.replace``, directory fsync);
the tmp name carries the PID and thread id so two writers pointed at
one path — even shard threads inside one process — cannot tear each
other's tmp file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.serve.queue import shard_for

__all__ = ["ShardedManifest", "atomic_write_json", "load_manifest_jobs",
           "rank", "MANIFEST_VERSION", "SHARD_AUTO_THRESHOLD",
           "DEFAULT_MANIFEST_SHARDS"]

#: version of the single-file manifest document (screen and gateway)
MANIFEST_VERSION = 1

SHARDED_MANIFEST_VERSION = 1

#: library size at which ``manifest_shards=None`` switches to sharded logs
SHARD_AUTO_THRESHOLD = 10_000

#: shard count used when the auto threshold trips
DEFAULT_MANIFEST_SHARDS = 8

#: appends per shard between automatic last-wins compactions
COMPACT_EVERY = 4096

#: appends per shard between fsyncs (each append is flushed to the OS
#: at once; a crash loses at most what the kernel had not yet written,
#: and never more than the final, torn line)
FSYNC_EVERY = 64

_META_NAME = "meta.json"


def atomic_write_json(path: str | Path, payload: dict,
                      indent: int | None = 2) -> None:
    """Durably replace ``path`` with ``payload`` as JSON.

    The tmp file is written in the target directory, fsynced *before*
    the rename (a power cut can otherwise publish an empty rename), and
    named with the writer's PID *and* thread id so concurrent writers to
    the same path — worker processes or same-process shard threads —
    never truncate or steal each other's in-flight tmp.  The directory
    entry is fsynced after the replace where the platform allows it.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=indent)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    from repro.serve.store import fsync_dir
    fsync_dir(path.parent)


class ShardedManifest:
    """Append-friendly sharded result log for large screens.

    Parameters
    ----------
    path:
        Manifest directory (created on demand).
    n_shards:
        Shard count for a *new* manifest; an existing directory's
        ``meta.json`` wins (the partition must stay stable across
        resumes).
    """

    def __init__(self, path: str | Path, n_shards: int | None = None) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        meta = self._read_meta()
        if meta is not None:
            self.n_shards = int(meta["n_shards"])
        else:
            if n_shards is None or n_shards <= 0:
                raise ValueError(
                    f"new sharded manifest {self.path} needs n_shards >= 1")
            self.n_shards = int(n_shards)
            self.write_meta()
        self._handles: dict[int, object] = {}
        self._appends: dict[int, int] = {}

    # ------------------------------------------------------------------

    @staticmethod
    def is_sharded(path: str | Path) -> bool:
        """True if ``path`` is (or will resume as) a sharded manifest."""
        return (Path(path) / _META_NAME).is_file()

    def shard_path(self, shard: int) -> Path:
        return self.path / f"shard-{shard:04d}.ndjson"

    def _read_meta(self) -> dict | None:
        try:
            meta = json.loads((self.path / _META_NAME).read_text())
        except (OSError, ValueError):
            return None
        if meta.get("version") != SHARDED_MANIFEST_VERSION:
            raise ValueError(
                f"unsupported sharded-manifest version {meta.get('version')!r}")
        return meta

    def write_meta(self, screen: dict | None = None,
                   stats: dict | None = None) -> None:
        """Durably (re)write ``meta.json``; job records live in shards."""
        payload = {"version": SHARDED_MANIFEST_VERSION,
                   "n_shards": getattr(self, "n_shards", None),
                   "written_at": time.time()}
        prior = self._read_meta() or {}
        payload["screen"] = screen if screen is not None \
            else prior.get("screen")
        payload["stats"] = stats if stats is not None else prior.get("stats")
        if payload["n_shards"] is None:
            payload["n_shards"] = prior.get("n_shards")
        atomic_write_json(self.path / _META_NAME, payload)

    # ------------------------------------------------------------------

    def append(self, record: dict) -> int:
        """Append one terminal JobResult record; returns its shard."""
        job_id = record["job_id"]
        shard = shard_for(job_id, self.n_shards)
        fh = self._handles.get(shard)
        if fh is None:
            fh = open(self.shard_path(shard), "a")
            self._handles[shard] = fh
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        fh.flush()
        n = self._appends.get(shard, 0) + 1
        self._appends[shard] = n
        if n % FSYNC_EVERY == 0:
            os.fsync(fh.fileno())
        if n % COMPACT_EVERY == 0:
            self.compact(shard)
        return shard

    def load(self) -> dict[str, dict]:
        """``job_id -> record`` across every shard, last record winning.

        A torn final line (crash mid-append) is skipped, not fatal.
        """
        out: dict[str, dict] = {}
        for shard in range(self.n_shards):
            for rec in self._read_shard(shard):
                out[rec["job_id"]] = rec
        return out

    def _read_shard(self, shard: int) -> list[dict]:
        path = self.shard_path(shard)
        if not path.is_file():
            return []
        records = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue    # torn tail from a crash mid-append
                if isinstance(rec, dict) and "job_id" in rec:
                    records.append(rec)
        return records

    def compact(self, shard: int | None = None) -> None:
        """Squeeze superseded records out of shard logs (last-wins),
        rewriting each file atomically."""
        shards = range(self.n_shards) if shard is None else [shard]
        for k in shards:
            records = self._read_shard(k)
            if not records:
                continue
            latest: dict[str, dict] = {}
            for rec in records:
                latest[rec["job_id"]] = rec
            if len(latest) == len(records):
                continue        # nothing superseded
            fh = self._handles.pop(k, None)
            if fh is not None:
                fh.close()
            path = self.shard_path(k)
            tmp = path.with_name(
                f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
            with open(tmp, "w") as out:
                for rec in latest.values():
                    out.write(json.dumps(rec, separators=(",", ":")) + "\n")
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, path)

    def close(self) -> None:
        for fh in self._handles.values():
            try:
                fh.flush()
                os.fsync(fh.fileno())
            except (OSError, ValueError):
                pass
            fh.close()
        self._handles.clear()

    def __enter__(self) -> "ShardedManifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_manifest_jobs(path: str | Path) -> dict[str, dict]:
    """``job_id -> record`` from either manifest format.

    Dispatches on what is on disk: a directory with a ``meta.json`` loads
    shard logs; a plain file loads the single-file JSON format.
    """
    path = Path(path)
    if ShardedManifest.is_sharded(path):
        with ShardedManifest(path) as sm:
            return sm.load()
    payload = json.loads(path.read_text())
    if payload.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest version {payload.get('version')!r}")
    return payload.get("jobs", {})


def rank(jobs: dict[str, dict]) -> list[dict]:
    """The ranked hit list of a ``job_id -> JobResult record`` mapping.

    Jobs with status ``ok``/``cached`` and a result rank by best score
    (the min over runs), best first; ties keep insertion order.
    """
    scored = []
    for rec in jobs.values():
        result = rec.get("result")
        if rec.get("status") in ("ok", "cached") and result \
                and result.get("runs"):
            scored.append((min(r["best_score"] for r in result["runs"]),
                           rec))
    scored.sort(key=lambda pair: pair[0])
    return [{"rank": k + 1, "label": rec.get("label", ""),
             "job_id": rec["job_id"], "best_score": score,
             "total_evals": rec["result"]["total_evals"],
             "status": rec["status"]}
            for k, (score, rec) in enumerate(scored)]
