"""Tests for sharded NDJSON manifests: logs, screens, merge tool."""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import DockingConfig
from repro.io import pack_rlig, write_maps, write_pdbqt
from repro.search.lga import LGAConfig
from repro.serve import ShardedManifest, VirtualScreen, shard_for
from repro.serve.manifest import (DEFAULT_MANIFEST_SHARDS,
                                  atomic_write_json, load_manifest_jobs)
from repro.testcases import get_test_case

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tools.merge_manifests import merge, rank  # noqa: E402

TINY = DockingConfig(backend="baseline",
                     lga=LGAConfig(pop_size=8, max_evals=300, max_gens=6,
                                   ls_iters=5, ls_rate=0.25))


def _jid(i):
    """Realistic content-hash job id (uniform leading hex digits)."""
    import hashlib
    return hashlib.sha256(f"job-{i}".encode()).hexdigest()[:16]


def _rec(i, score, status="ok"):
    return {"job_id": _jid(i), "label": f"lig{i}", "status": status,
            "result": {"runs": [{"best_score": score}],
                       "total_evals": 100}}


@pytest.fixture()
def ligand_library(case_small, tmp_path):
    fld = write_maps(case_small.maps, tmp_path, stem="receptor")
    rng = np.random.default_rng(0)
    paths = []
    for i in range(4):
        path = tmp_path / f"lig{i}.pdbqt"
        jitter = rng.normal(0, 0.05,
                            size=case_small.ligand.ref_coords.shape)
        write_pdbqt(case_small.ligand, path,
                    coords=case_small.ligand.ref_coords + jitter)
        paths.append(str(path))
    return fld, paths


class TestShardedLog:
    def test_append_partitions_by_content_hash(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=4)
        for i in range(32):
            shard = sm.append(_rec(i, float(i)))
            assert shard == shard_for(_jid(i), 4)
        sm.close()
        used = [s for s in range(4) if sm.shard_path(s).is_file()]
        assert len(used) > 1            # hash actually spreads records

    def test_load_is_last_record_wins(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=2)
        sm.append(_rec(1, -1.0))
        sm.append(_rec(2, -2.0))
        sm.append(_rec(1, -9.0, status="cached"))   # supersedes
        sm.close()
        jobs = sm.load()
        assert len(jobs) == 2
        assert jobs[_jid(1)]["status"] == "cached"
        assert jobs[_jid(1)]["result"]["runs"][0]["best_score"] == -9.0

    def test_compact_squeezes_superseded_records(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=1)
        for _ in range(3):
            sm.append(_rec(7, -1.0))
        sm.close()
        assert len(sm.shard_path(0).read_text().splitlines()) == 3
        before = sm.load()
        sm.compact()
        assert len(sm.shard_path(0).read_text().splitlines()) == 1
        assert sm.load() == before

    def test_torn_tail_is_skipped(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=1)
        sm.append(_rec(1, -1.0))
        sm.close()
        with open(sm.shard_path(0), "a") as fh:
            fh.write('{"job_id": "feed", "stat')     # crash mid-append
        jobs = ShardedManifest(tmp_path / "m").load()
        assert list(jobs) == [_jid(1)]

    def test_meta_pins_shard_count_across_reopen(self, tmp_path):
        ShardedManifest(tmp_path / "m", n_shards=3).close()
        sm = ShardedManifest(tmp_path / "m", n_shards=16)
        assert sm.n_shards == 3          # existing partition wins
        with pytest.raises(ValueError, match="n_shards"):
            ShardedManifest(tmp_path / "new")

    def test_append_after_torn_tail_starts_a_new_line(self, tmp_path):
        """A resume appending after a crash-torn tail must not glue its
        first record onto the torn line, where no loader can read it."""
        sm = ShardedManifest(tmp_path / "m", n_shards=1)
        sm.append(_rec(1, -1.0))
        sm.close()
        with open(sm.shard_path(0), "a") as fh:
            fh.write('{"job_id": "feed", "stat')     # crash mid-append
        resumed = ShardedManifest(tmp_path / "m")
        resumed.append(_rec(2, -2.0))
        resumed.close()
        assert sorted(resumed.load()) == sorted([_jid(1), _jid(2)])

    def test_dir_fsynced_once_per_new_shard_file(self, tmp_path,
                                                 monkeypatch):
        import repro.serve.manifest as manifest_mod
        sm = ShardedManifest(tmp_path / "m", n_shards=4)
        synced = []
        monkeypatch.setattr(manifest_mod, "fsync_dir", synced.append)
        for i in range(32):
            sm.append(_rec(i, float(i)))
        sm.close()
        created = [s for s in range(4) if sm.shard_path(s).is_file()]
        assert synced == [sm.path] * len(created)
        again = ShardedManifest(tmp_path / "m")
        for i in range(32, 64):         # every shard file exists now
            again.append(_rec(i, float(i)))
        again.close()
        assert len(synced) == len(created)

    def test_atomic_write_json_is_thread_safe(self, tmp_path):
        """Regression: a PID-only tmp suffix collided between the
        gateway's shard threads — one thread's ``os.replace`` consumed
        the shared tmp and the other's raised ``FileNotFoundError``,
        dead-lettering its job."""
        path = tmp_path / "m.json"
        errors = []

        def hammer(tag):
            try:
                for i in range(200):
                    atomic_write_json(path, {"tag": tag, "i": i},
                                      indent=None)
            except OSError as exc:      # pragma: no cover - regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert json.loads(path.read_text())["i"] == 199

    def test_load_manifest_jobs_dispatches_on_disk_format(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=2)
        sm.append(_rec(5, -5.0))
        sm.close()
        assert list(load_manifest_jobs(tmp_path / "m")) == [_jid(5)]

        single = tmp_path / "single.json"
        single.write_text(json.dumps(
            {"version": 1, "jobs": {"aa": _rec(0, -1.0)}}))
        assert list(load_manifest_jobs(single)) == ["aa"]


class TestScreenSharded:
    def test_sharded_ranking_equals_single_file(self, ligand_library,
                                                tmp_path):
        fld, ligs = ligand_library
        single = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=3)
        ref = single.run(workers=0, manifest=tmp_path / "single",
                         manifest_shards=1)
        assert sorted(p.name for p in (tmp_path / "single").iterdir()) \
            == ["meta.json", "shard-0000.ndjson"]
        assert len(ref.ranking) == 4

        sharded = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                                n_runs=2, seed=3)
        rep = sharded.run(workers=0, manifest=tmp_path / "shards",
                          manifest_shards=2)
        assert (tmp_path / "shards" / "meta.json").is_file()
        assert rep.ranking == ref.ranking

    def test_sharded_resume_skips_completed_work(self, ligand_library,
                                                 tmp_path):
        fld, ligs = ligand_library
        manifest = tmp_path / "shards"
        first = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                              n_runs=1, seed=5)
        first.run(workers=0, manifest=manifest, manifest_shards=2)

        resumed = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                                n_runs=1, seed=5)
        rep = resumed.run(workers=0, manifest=manifest, resume=True)
        assert rep.stats["jobs_completed"] == 0
        assert rep.stats["jobs_cached"] == 4

        # and a third resume still does nothing ("cached" stays terminal)
        again = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                              n_runs=1, seed=5)
        rep2 = again.run(workers=0, manifest=manifest, resume=True)
        assert rep2.stats["jobs_completed"] == 0
        assert rep2.stats["jobs_cached"] == 4

    def test_single_file_resume_upgrades_once(self, ligand_library,
                                              tmp_path):
        """A single-file manifest in the older format resumes with zero
        new docking; its bytes are kept at ``<path>.v1``."""
        fld, ligs = ligand_library
        first = VirtualScreen(fld=fld, ligands=ligs, config=TINY, n_runs=1,
                              seed=5).run(workers=0,
                                          manifest=tmp_path / "log")
        jobs = load_manifest_jobs(tmp_path / "log")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"version": 1, "screen": {"seed": 5, "n_runs": 1},
             "jobs": jobs, "ranking": rank(jobs),
             "stats": first.stats}, indent=2))
        legacy = manifest.read_bytes()

        for _ in range(2):              # the second resume finds the log
            rep = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                                n_runs=1, seed=5).run(
                workers=0, manifest=manifest, resume=True,
                manifest_shards=4)
            assert rep.stats["jobs_completed"] == 0
            assert rep.stats["jobs_cached"] == 4
            assert [r["job_id"] for r in rep.ranking] \
                == [r["job_id"] for r in first.ranking]
            assert (tmp_path / "m.json.v1").read_bytes() == legacy
            assert ShardedManifest(manifest).n_shards == 4
        assert load_manifest_jobs(manifest) == jobs

    def test_auto_threshold_switches_format(self, ligand_library,
                                            tmp_path, monkeypatch):
        import repro.serve.screen as screen_mod
        fld, ligs = ligand_library
        screen = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=1, seed=5)
        screen.run(workers=0, manifest=tmp_path / "small")
        assert ShardedManifest(tmp_path / "small").n_shards == 1
        monkeypatch.setattr(screen_mod, "SHARD_AUTO_THRESHOLD", 4)
        screen.run(workers=0, manifest=tmp_path / "auto")
        assert ShardedManifest(tmp_path / "auto").n_shards \
            == DEFAULT_MANIFEST_SHARDS
        with pytest.raises(ValueError, match="n_shards"):
            screen.run(workers=0, manifest=tmp_path / "zero",
                       manifest_shards=0)


class TestMergeTool:
    def test_merge_matches_screen_ranking(self, ligand_library, tmp_path):
        fld, ligs = ligand_library
        screen = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=3)
        rep = screen.run(workers=0, manifest=tmp_path / "shards",
                         manifest_shards=2)
        merged = merge([tmp_path / "shards"])
        assert merged["ranking"] == rep.ranking
        assert merged["stats"]["jobs_total"] == 4

    def test_later_inputs_win_and_rank_sorts(self, tmp_path):
        a = ShardedManifest(tmp_path / "a", n_shards=2)
        a.append(_rec(1, -1.0))
        a.append(_rec(2, -5.0))
        a.close()
        b = ShardedManifest(tmp_path / "b", n_shards=3)
        b.append(_rec(1, -8.0))          # supersedes a's record
        b.append(_rec(3, -2.0, status="failed"))   # unranked
        b.close()
        doc = merge([tmp_path / "a", tmp_path / "b"])
        assert doc["stats"]["jobs_total"] == 3
        scores = [r["best_score"] for r in doc["ranking"]]
        assert scores == [-8.0, -5.0]
        assert [r["rank"] for r in doc["ranking"]] == [1, 2]
        assert rank(doc["jobs"]) == doc["ranking"]

    def test_cli_writes_merged_manifest(self, tmp_path, capsys):
        from tools.merge_manifests import main as merge_main
        sm = ShardedManifest(tmp_path / "m", n_shards=2)
        for i in range(6):
            sm.append(_rec(i, float(-i)))
        sm.close()
        out = tmp_path / "merged.json"
        assert merge_main([str(tmp_path / "m"), "--out", str(out),
                           "--top", "3"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["ranking"]) == 6
        assert doc["version"] == 1
        printed = capsys.readouterr().out
        assert "6 jobs" in printed

    def test_unreadable_manifest_is_an_error(self, tmp_path, capsys):
        from tools.merge_manifests import main as merge_main
        assert merge_main([str(tmp_path / "nope")]) == 1
        assert "merge_manifests" in capsys.readouterr().err


class TestScreenCLI:
    def test_pack_then_screen_with_store_and_shards(self, case_small,
                                                    tmp_path, capsys):
        fld = write_maps(case_small.maps, tmp_path, stem="receptor")
        rng = np.random.default_rng(1)
        pdbqt_dir = tmp_path / "ligs"
        pdbqt_dir.mkdir()
        for i in range(3):
            jitter = rng.normal(0, 0.05,
                                size=case_small.ligand.ref_coords.shape)
            write_pdbqt(case_small.ligand, pdbqt_dir / f"l{i}.pdbqt",
                        coords=case_small.ligand.ref_coords + jitter)
        pack = tmp_path / "lib.rlig"
        assert main(["pack", str(pdbqt_dir), "--out", str(pack)]) == 0
        assert "Packed 3 ligands" in capsys.readouterr().out

        argv = ["screen", "-ffile", str(fld), "--library", str(pack),
                "--workers", "0", "-nrun", "1", "--evals", "200",
                "--pop", "8", "--lsit", "4", "--tensor", "baseline",
                "--manifest", str(tmp_path / "shards"),
                "--manifest-shards", "2",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3 new, 0 cached" in out
        assert ShardedManifest.is_sharded(tmp_path / "shards")
        assert (tmp_path / "store" / "maps").is_dir()

        assert main(argv + ["--resume"]) == 0
        assert "0 new, 3 cached" in capsys.readouterr().out

    def test_library_and_ligands_are_exclusive(self, tmp_path, capsys):
        assert main(["screen", "-ffile", "r.fld", "-l", "a.pdbqt",
                     "--library", "lib.rlig"]) == 2
