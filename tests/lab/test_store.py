"""Unit tests for the content-addressed result store and config hashing."""

import itertools
import time

import pytest

from repro.isa.opcodes import OpClass
from repro.lab.store import (
    CODE_SALT,
    ResultStore,
    canonical_config,
    config_digest,
    job_key,
    verify_object_bytes,
)
from repro.pipeline.config import DEFAULT_FU_SPECS, CoreConfig, FUSpec


class TestConfigDigest:
    def test_stable_across_equal_configs(self):
        assert config_digest(CoreConfig()) == config_digest(CoreConfig())

    def test_field_order_does_not_change_key(self):
        # Same logical fu_specs built in reversed insertion order must
        # hash identically: the canonical form sorts everything.
        forward = dict(DEFAULT_FU_SPECS)
        backward = dict(reversed(list(DEFAULT_FU_SPECS.items())))
        assert list(forward) != list(backward)  # orders really differ
        a = CoreConfig(fu_specs=forward)
        b = CoreConfig(fu_specs=backward)
        assert config_digest(a) == config_digest(b)

    def test_differing_configs_never_collide(self):
        # Regression for the old hand-rolled string key: a grid of
        # config variants (including fields the old key omitted, like
        # record_timeline) must produce pairwise-distinct digests.
        variants = [CoreConfig()]
        for overrides in (
            {"dispatch_width": 2},
            {"issue_width": 2},
            {"commit_width": 2},
            {"rob_size": 256},
            {"frontend_depth": 20},
            {"l1_latency": 3},
            {"l2_latency": 12},
            {"memory_latency": 300},
            {"dispatch_wrong_path": True},
            {"record_timeline": False},
            {"issue_policy": "random"},
            {"seed": 7},
        ):
            variants.append(CoreConfig().with_overrides(**overrides))
        for factor in (1.5, 2.0, 3.0):
            variants.append(CoreConfig().with_scaled_fu_latencies(factor))
        specs = dict(DEFAULT_FU_SPECS)
        specs[OpClass.IALU] = FUSpec(count=2, latency=1)
        variants.append(CoreConfig(fu_specs=specs))
        digests = [config_digest(v) for v in variants]
        assert len(set(digests)) == len(digests)

    def test_every_dataclass_field_is_hashed(self):
        canon = canonical_config(CoreConfig())
        import dataclasses

        names = {f.name for f in dataclasses.fields(CoreConfig)}
        assert set(canon) == names

    def test_digest_is_hex_sha256(self):
        digest = config_digest(CoreConfig())
        assert len(digest) == 64
        int(digest, 16)  # parses as hex


class TestJobKey:
    def test_distinguishes_workload_length_seed_kind(self):
        base = dict(
            kind="sim-ooo", workload="gzip", length=500, seed=1,
            config=CoreConfig(),
        )
        keys = {job_key(**base)}
        for change in (
            {"workload": "mcf"},
            {"length": 600},
            {"seed": 2},
            {"kind": "sim-inorder"},
            {"config": CoreConfig(rob_size=64)},
        ):
            keys.add(job_key(**{**base, **change}))
        assert len(keys) == 6

    def test_salt_invalidates_key(self):
        a = job_key("sim-ooo", "gzip", 500, 1, CoreConfig())
        b = job_key("sim-ooo", "gzip", 500, 1, CoreConfig(),
                    salt="other-version")
        assert a != b

    def test_extra_participates(self):
        a = job_key("experiment", "suite", 500, 1, CoreConfig(),
                    extra={"experiment_id": "f2"})
        b = job_key("experiment", "suite", 500, 1, CoreConfig(),
                    extra={"experiment_id": "f3"})
        assert a != b


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(root=tmp_path / "cache")
        store.put("k" * 64, {"x": 1})
        assert store.get("k" * 64) == {"x": 1}
        assert store.stats.puts == 1
        assert store.stats.hits == 1

    def test_miss_accounting(self, tmp_path):
        store = ResultStore(root=tmp_path / "cache")
        assert store.get("absent" + "0" * 58) is None
        assert store.stats.misses == 1

    def test_objects_are_salted(self, tmp_path):
        store = ResultStore(root=tmp_path / "cache")
        path = store.put("a" * 64, {"x": 1})
        status, obj = verify_object_bytes(path.read_bytes())
        assert status == "ok"
        assert obj["salt"] == CODE_SALT

    def test_corrupt_object_counts_as_miss(self, tmp_path):
        store = ResultStore(root=tmp_path / "cache")
        path = store.put("a" * 64, {"x": 1})
        path.write_text("{not json", encoding="utf-8")
        assert store.get("a" * 64) is None
        assert store.stats.misses == 1

    def test_gc_clear(self, tmp_path):
        store = ResultStore(root=tmp_path / "cache")
        for i in range(4):
            store.put(f"{i:064d}", {"i": i})
        assert store.count() == 4
        assert store.gc(clear=True) == 4
        assert store.count() == 0

    def test_gc_max_entries_keeps_newest(self, tmp_path):
        store = ResultStore(root=tmp_path / "cache")
        paths = [store.put(f"{i:064d}", {"i": i}) for i in range(4)]
        # Age the first two objects so mtime ordering is unambiguous.
        old = time.time() - 1000
        for path in paths[:2]:
            import os

            os.utime(path, (old, old))
        assert store.gc(max_entries=2) == 2
        assert store.get(f"{3:064d}") == {"i": 3}
        assert store.get(f"{0:064d}") is None

    def test_max_entries_eviction_accounting(self, tmp_path):
        store = ResultStore(root=tmp_path / "cache", max_entries=2)
        for i, stamp in zip(range(4), itertools.count()):
            path = store.put(f"{i:064d}", {"i": i})
            import os

            t = time.time() - 100 + stamp
            os.utime(path, (t, t))
        assert store.count() <= 2
        assert store.stats.evictions >= 2

    def test_gc_max_age(self, tmp_path):
        import os

        store = ResultStore(root=tmp_path / "cache")
        fresh = store.put("a" * 64, {"x": 1})
        stale = store.put("b" * 64, {"x": 2})
        old = time.time() - 7200
        os.utime(stale, (old, old))
        assert store.gc(max_age_s=3600) == 1
        assert store.get("a" * 64) == {"x": 1}
        assert store.get("b" * 64) is None
        assert fresh.is_file()

    def test_describe(self, tmp_path):
        store = ResultStore(root=tmp_path / "cache")
        store.put("a" * 64, {"x": 1})
        info = store.describe()
        assert info["objects"] == 1
        assert info["size_bytes"] > 0
        assert info["salt"] == CODE_SALT


class TestConcurrentReaders:
    """A store scan must survive another process quarantining objects
    mid-scan: the glob sees a file, the stat/read does not. (Regression:
    ``size_bytes``/``gc``/``manifests`` used to raise FileNotFoundError
    when an object vanished between the directory listing and its
    ``stat``.)"""

    @staticmethod
    def _racy_stat(monkeypatch, doomed):
        """Make the first stat of ``doomed`` look like a concurrent
        quarantine: the file is moved away just before the stat runs."""
        from pathlib import Path

        import os

        real_stat = Path.stat

        def stat(self, **kwargs):
            if self == doomed and os.path.exists(doomed):
                quarantine = doomed.parent.parent.parent / "quarantine"
                quarantine.mkdir(parents=True, exist_ok=True)
                os.replace(doomed, quarantine / doomed.name)
            return real_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", stat)

    def test_size_bytes_tolerates_vanishing_object(self, tmp_path, monkeypatch):
        store = ResultStore(root=tmp_path / "cache")
        for i in range(3):
            store.put(f"{i:064d}", {"i": i})
        doomed = store._object_path(f"{1:064d}")
        self._racy_stat(monkeypatch, doomed)
        total = store.size_bytes()  # must not raise
        assert total > 0
        monkeypatch.undo()
        assert store.count() == 2  # the quarantined object is gone

    def test_gc_tolerates_vanishing_object(self, tmp_path, monkeypatch):
        store = ResultStore(root=tmp_path / "cache")
        for i in range(4):
            store.put(f"{i:064d}", {"i": i})
        doomed = store._object_path(f"{2:064d}")
        self._racy_stat(monkeypatch, doomed)
        removed = store.gc(max_entries=1)  # must not raise
        monkeypatch.undo()
        assert store.count() <= 1
        assert removed >= 1

    def test_manifests_tolerates_vanishing_manifest(self, tmp_path, monkeypatch):
        from pathlib import Path

        store = ResultStore(root=tmp_path / "cache")
        store.runs_dir.mkdir(parents=True)
        for name in ("run-a.json", "run-b.json"):
            (store.runs_dir / name).write_text("{}", encoding="utf-8")
        import os

        doomed = store.runs_dir / "run-a.json"
        real_stat = Path.stat

        def stat(self, **kwargs):
            if self == doomed and os.path.exists(doomed):
                doomed.unlink()
            return real_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", stat)
        listed = store.manifests()  # must not raise
        monkeypatch.undo()
        assert [p.name for p in listed] == ["run-b.json"]

    def test_get_after_external_quarantine_is_a_miss(self, tmp_path):
        from repro.lab.store import quarantine_file

        store = ResultStore(root=tmp_path / "cache")
        path = store.put("a" * 64, {"x": 1})
        quarantine_file(store.root, path, "external fsck")
        assert store.get("a" * 64) is None
        assert store.stats.misses == 1
