"""Store integrity: checksummed objects, quarantine, and fsck."""

from __future__ import annotations

import json
import os
import shutil
from array import array
from pathlib import Path

import pytest

from repro.cli import main
from repro.lab import store as store_module
from repro.lab.store import ResultStore, verify_object_bytes
from repro.resilience import faults
from repro.resilience.fsck import fsck_store
from repro.resilience.journal import RunJournal

PAYLOAD = {"value": {"kind": "raw", "data": [1, 2, 3]}}


def _store_with_object(tmp_path):
    store = ResultStore(root=tmp_path)
    key = "ab" + "0" * 62
    path = store.put(key, dict(PAYLOAD))
    return store, key, path


class TestVerifyObjectBytes:
    def test_ok(self, tmp_path):
        store, key, path = _store_with_object(tmp_path)
        status, obj = verify_object_bytes(path.read_bytes(), expected_key=key)
        assert status == "ok"
        assert obj["payload"] == PAYLOAD

    def test_unreadable(self):
        status, _ = verify_object_bytes(b"not json at all")
        assert status == "unreadable"

    def test_checksum_mismatch(self, tmp_path):
        store, key, path = _store_with_object(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01  # bit-rot in the compressed body
        status, _ = verify_object_bytes(bytes(raw))
        assert status == "checksum-mismatch"

    def test_key_mismatch(self, tmp_path):
        store, key, path = _store_with_object(tmp_path)
        status, _ = verify_object_bytes(
            path.read_bytes(), expected_key="cd" + "1" * 62
        )
        assert status == "key-mismatch"


class TestStoreQuarantine:
    def test_corrupt_get_quarantines_and_misses(self, tmp_path):
        store, key, path = _store_with_object(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert store.stats.quarantined == 1
        assert not path.exists()
        assert len(store.quarantined_files()) == 1
        log = store.quarantine_dir / "quarantine.jsonl"
        assert log.is_file()

    def test_injected_write_corruption_detected_on_read(self, tmp_path):
        store = ResultStore(root=tmp_path)
        key = "ef" + "2" * 62
        with faults.injected("seed=5;store.write:corrupt@1"):
            store.put(key, dict(PAYLOAD))
        assert store.get(key) is None
        assert store.stats.corrupt == 1

    def test_injected_read_fault_is_a_miss(self, tmp_path):
        store, key, _ = _store_with_object(tmp_path)
        with faults.injected("store.read:raise@1"):
            assert store.get(key) is None
        assert store.stats.read_errors == 1
        assert store.get(key) is not None  # object itself is intact


class TestFsck:
    def test_clean_store(self, tmp_path):
        store, _, _ = _store_with_object(tmp_path)
        report = fsck_store(store)
        assert report.ok
        assert report.objects_scanned == 1

    def test_detects_every_injected_corruption(self, tmp_path):
        """fsck must detect 100% of corrupted objects (acceptance)."""
        store = ResultStore(root=tmp_path)
        keys = [f"{i:02x}" + str(i % 10) * 62 for i in range(8)]
        paths = [store.put(k, dict(PAYLOAD)) for k in keys]
        corrupted = paths[::2]  # every other object
        for i, path in enumerate(corrupted):
            raw = bytearray(path.read_bytes())
            raw[(i * 7) % len(raw)] ^= 0x40
            path.write_bytes(bytes(raw))
        report = fsck_store(store)
        assert not report.ok
        flagged = {issue.path for issue in report.issues}
        assert flagged == {str(p) for p in corrupted}

    def test_repair_quarantines_and_second_pass_is_clean(self, tmp_path):
        store, key, path = _store_with_object(tmp_path)
        path.write_bytes(b"{broken")
        report = fsck_store(store, repair=True)
        assert report.ok  # all issues repaired
        assert report.repaired == 1
        assert fsck_store(ResultStore(root=tmp_path)).ok
        assert len(ResultStore(root=tmp_path).quarantined_files()) == 1

    def test_flags_unreadable_manifest_and_stray_tmp(self, tmp_path):
        store = ResultStore(root=tmp_path)
        store.runs_dir.mkdir(parents=True, exist_ok=True)
        (store.runs_dir / "broken.json").write_text("{nope")
        (store.objects_dir / ".tmp-dead1").parent.mkdir(
            parents=True, exist_ok=True
        )
        (store.objects_dir / ".tmp-dead1").write_bytes(b"torn")
        report = fsck_store(store)
        kinds = sorted(issue.kind for issue in report.issues)
        assert kinds == ["stray-tmp", "unreadable-manifest"]
        report = fsck_store(store, repair=True)
        assert report.ok
        assert not (store.objects_dir / ".tmp-dead1").exists()

    def test_journal_with_torn_tail_is_legal(self, tmp_path):
        store = ResultStore(root=tmp_path)
        journal = RunJournal(store.runs_dir, "run1")
        journal.run_start(1, "salt", resumed=False)
        journal.close()
        with open(journal.path, "a",  # repro: noqa[RES001] torn-write sim
                  encoding="utf-8") as handle:
            handle.write('{"event": "torn')
        report = fsck_store(store)
        assert report.ok
        assert report.journals_scanned == 1

    def test_stale_salt_is_informational(self, tmp_path, monkeypatch):
        store = ResultStore(root=tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "CODE_SALT", "older-code-version")
            path = store.put("ab" + "0" * 62, dict(PAYLOAD))
        report = fsck_store(store)
        assert report.ok
        assert report.stale == [str(path)]


#: Byte offsets into a stored object: the magic, the format-version and
#: length header, the body sha256, and the compressed body.
MAGIC_AT, HEADER_AT, DIGEST_AT = 1, 6, 20


class TestBinaryObjectDamage:
    """Each region of a binary object is covered by verification."""

    @staticmethod
    def _simulation_payload():
        return {
            "type": "simulation_result",
            "instructions": 3,
            "cycles": 9,
            "events": [],
            "dispatch_cycle": array("q", [1, 2, 3]),
            "issue_cycle": array("q", [2, 3, 4]),
            "complete_cycle": array("q", [3, 4, 5]),
            "commit_cycle": array("q", [6, 7, 8]),
            "fu_issue_counts": {"int_alu": 3},
            "rob_peak_occupancy": 3,
            "squashed_ghosts": 0,
        }

    @pytest.mark.parametrize(
        "where, status",
        [
            ("magic", "unreadable"),
            ("header", "unreadable"),
            ("digest", "checksum-mismatch"),
            ("body", "checksum-mismatch"),
        ],
    )
    def test_flipped_byte_is_a_quarantined_miss(self, tmp_path, where, status):
        store = ResultStore(root=tmp_path)
        key = "ab" + "3" * 62
        path = store.put(key, self._simulation_payload())
        raw = bytearray(path.read_bytes())
        offset = {
            "magic": MAGIC_AT,
            "header": HEADER_AT,
            "digest": DIGEST_AT,
            "body": len(raw) - 7,
        }[where]
        raw[offset] ^= 0x10
        path.write_bytes(bytes(raw))
        assert verify_object_bytes(bytes(raw), expected_key=key)[0] == status
        report = fsck_store(store)
        assert not report.ok
        assert [issue.kind for issue in report.issues] == [status]
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert store.stats.quarantined == 1
        assert not path.exists()

    @pytest.mark.parametrize("keep", [0, 10, 50, -1])
    def test_truncated_object_is_unreadable(self, tmp_path, keep):
        store = ResultStore(root=tmp_path)
        key = "ab" + "4" * 62
        path = store.put(key, self._simulation_payload())
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        assert verify_object_bytes(raw[:keep], expected_key=key)[0] == "unreadable"
        assert [issue.kind for issue in fsck_store(store).issues] == [
            "unreadable"
        ]
        assert store.get(key) is None
        assert store.stats.quarantined == 1

    def test_round_trip_is_exact(self, tmp_path):
        store = ResultStore(root=tmp_path)
        key = "ab" + "5" * 62
        payload = self._simulation_payload()
        store.put(key, payload)
        assert store.get(key) == payload


class TestLegacyJsonObjects:
    """Schema-2 JSON objects are never read; fsck calls them stale and
    ``repro lab gc --all`` removes them."""

    @staticmethod
    def _legacy_object(store, key):
        path = store.objects_dir / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "key": key,
            "salt": store_module.CODE_SALT,  # even a matching salt
            "sha256": store_module.payload_digest(PAYLOAD),
            "stored_at": 0.0,
            "meta": {},
            "payload": PAYLOAD,
        }))
        return path

    def test_never_read_and_reported_stale(self, tmp_path):
        store = ResultStore(root=tmp_path)
        key = "ab" + "6" * 62
        legacy = self._legacy_object(store, key)
        assert store.get(key) is None
        assert store.stats.corrupt == 0 and legacy.exists()
        report = fsck_store(store, repair=True)
        assert report.ok and report.issues == []
        assert report.stale == [str(legacy)]
        assert legacy.exists()  # stale objects are gc's business

    def test_gc_all_removes_it(self, tmp_path, capsys):
        store = ResultStore(root=tmp_path)
        legacy = self._legacy_object(store, "ab" + "7" * 62)
        current = store.put("ab" + "8" * 62, dict(PAYLOAD))
        assert store.count() == 2
        assert main(["lab", "gc", "--all", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 object(s); 0 remain" in capsys.readouterr().out
        assert not legacy.exists() and not current.exists()


#: An object of the batched sweep-job kind, stored by ``repro sweep
#: --batch --workload gzip --parameter rob_size --values 32,64 --length
#: 300`` before that kind was removed: one payload listing both timed
#: results, then both results' delta-coded cycle columns. Its file name
#: is its key, which no job addresses any more.
ORPHAN = (
    Path(__file__).parent / "data"
    / "b1c55b47fde0af4a225c0199dea34aba4c5041323da990648d456883b6724e8a.bin"
)


class TestOrphanedBatchObject:
    """A store written while batched sweep jobs existed keeps their
    objects. Their cycle columns no longer decode, so each reads as an
    unreadable miss and is quarantined, and no other object is touched."""

    @pytest.fixture
    def store(self, tmp_path):
        store = ResultStore(root=tmp_path)
        self.good_key = "cd" + "4" * 62
        store.put(self.good_key, TestBinaryObjectDamage._simulation_payload())
        self.orphan_key = ORPHAN.stem
        self.orphan_path = store.objects_dir / ORPHAN.name[:2] / ORPHAN.name
        self.orphan_path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ORPHAN, self.orphan_path)
        return store

    def _good_object_intact(self, root):
        payload = ResultStore(root=root).get(self.good_key)
        assert payload["type"] == "simulation_result"
        assert list(payload["commit_cycle"]) == [6, 7, 8]

    def test_reads_as_unreadable(self, store):
        raw = self.orphan_path.read_bytes()
        status, _ = verify_object_bytes(raw, expected_key=self.orphan_key)
        assert status == "unreadable"

    def test_get_is_a_quarantined_miss(self, store):
        assert store.get(self.orphan_key) is None
        assert store.stats.corrupt == 1
        assert not self.orphan_path.exists()
        assert len(store.quarantined_files()) == 1
        self._good_object_intact(store.root)

    def test_fsck_reports_and_repair_quarantines_it_alone(self, store):
        report = fsck_store(store)
        assert [(i.path, i.kind) for i in report.issues] == [
            (str(self.orphan_path), "unreadable")
        ]
        repaired = fsck_store(store, repair=True)
        assert repaired.ok and repaired.repaired == 1
        assert not self.orphan_path.exists()
        assert fsck_store(store).ok
        self._good_object_intact(store.root)

    def test_gc_by_age_clears_it(self, store, capsys):
        month_ago = self.orphan_path.stat().st_mtime - 30 * 86_400
        os.utime(self.orphan_path, (month_ago, month_ago))
        assert main(["lab", "gc", "--max-age-days", "7",
                     "--cache-dir", str(store.root)]) == 0
        assert "removed 1 object(s); 1 remain" in capsys.readouterr().out
        assert not self.orphan_path.exists()
        self._good_object_intact(store.root)
