"""Manifest persistence: the one durable result log.

Every terminal job record of a screen or the gateway is appended to a
:class:`ShardedManifest`, a directory of per-shard append-only NDJSON
result logs,

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

Single-file JSON manifests (:data:`MANIFEST_VERSION`) from older
versions are read-only; see :class:`ShardedManifest` for their upgrade.

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
from repro.serve.store import fsync_dir

__all__ = ["ShardedManifest", "atomic_write_json", "load_manifest_jobs",
           "rank", "MANIFEST_VERSION", "SHARD_AUTO_THRESHOLD",
           "DEFAULT_MANIFEST_SHARDS"]

#: version of the read-only single-file manifest document
MANIFEST_VERSION = 1

SHARDED_MANIFEST_VERSION = 1

#: library size at which ``manifest_shards=None`` switches from 1 shard
#: to :data:`DEFAULT_MANIFEST_SHARDS`
SHARD_AUTO_THRESHOLD = 10_000

#: shard count used when the auto threshold trips
DEFAULT_MANIFEST_SHARDS = 8

#: appends per shard between automatic last-wins compactions
COMPACT_EVERY = 4096

#: appends per shard between fsyncs (each append is flushed to the OS
#: at once, so a killed process loses nothing; a power cut loses at most
#: the records since the last fsync, which ``--resume`` re-docks)
FSYNC_EVERY = 64

_META_NAME = "meta.json"


def atomic_write_json(path: str | Path, payload: dict | list,
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
    fsync_dir(path.parent)


class ShardedManifest:
    """The append-only sharded result log of screens and the gateway.

    Parameters
    ----------
    path:
        Manifest directory (created on demand).  A single-file manifest
        at ``path`` is upgraded: moved aside to ``<path>.v1`` with one
        ``os.replace`` (never rewritten) and its records appended to a
        new log at ``path``.  A kill mid-upgrade leaves a log holding a
        prefix of those records, so a resume re-docks the rest.
    n_shards:
        Shard count for a *new* manifest; an existing directory's
        ``meta.json`` wins (the partition must stay stable across
        resumes).
    """

    def __init__(self, path: str | Path, n_shards: int | None = None) -> None:
        self.path = Path(path)
        meta = self._read_meta()
        if n_shards is None and meta is None or \
                n_shards is not None and n_shards < 1:
            raise ValueError(f"sharded manifest {self.path} needs "
                             f"n_shards >= 1, got {n_shards}")
        legacy = {}
        if self.path.is_file():
            legacy = load_manifest_jobs(self.path)
            os.replace(self.path, self.path.with_name(self.path.name + ".v1"))
        self.path.mkdir(parents=True, exist_ok=True)
        self.n_shards = int(meta["n_shards"] if meta else n_shards)
        self._handles: dict[int, object] = {}
        self._appends: dict[int, int] = {}
        if meta is None:
            self.write_meta()
        for rec in legacy.values():
            self.append(rec)
        self.close()            # fsyncs carried-over records, if any

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
        """Durably (re)write ``meta.json``; job records live in shards,
        which are fsynced first so the stats never outrun them."""
        for fh in self._handles.values():
            os.fsync(fh.fileno())
        atomic_write_json(self.path / _META_NAME, {
            "version": SHARDED_MANIFEST_VERSION, "n_shards": self.n_shards,
            "written_at": time.time(), "screen": screen, "stats": stats})

    # ------------------------------------------------------------------

    def append(self, record: dict) -> int:
        """Append one terminal JobResult record, flushed to the OS;
        returns its shard."""
        job_id = record["job_id"]
        shard = shard_for(job_id, self.n_shards)
        fh = self._handles.get(shard)
        if fh is None:
            fh = self._handles[shard] = self._open_shard(shard)
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        fh.flush()
        n = self._appends.get(shard, 0) + 1
        self._appends[shard] = n
        if n % FSYNC_EVERY == 0:
            os.fsync(fh.fileno())
        if n % COMPACT_EVERY == 0:
            self.compact(shard)
        return shard

    def _open_shard(self, shard: int):
        path = self.shard_path(shard)
        size = path.stat().st_size if path.exists() else None
        fh = open(path, "a")
        if size is None:
            # a file fsynced under a directory entry that was not can
            # vanish in a power cut
            fsync_dir(self.path)
        elif size:
            with open(path, "rb") as old:
                old.seek(size - 1)
                if old.read(1) != b"\n":
                    # end a torn tail, else this record joins it on one
                    # unreadable line
                    fh.write("\n")
        return fh

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
            fsync_dir(self.path)

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
    """``job_id -> record`` from a sharded log or a read-only single file.

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
