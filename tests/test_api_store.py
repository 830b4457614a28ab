"""ResultStore implementations: hit/miss, version invalidation, defaults."""

import json

from repro.api.records import LoopRecord, RunRecord
from repro.api.store import (
    DiskStore,
    MemoryStore,
    default_store,
    set_default_store,
)
from repro.sim.stats import SimStats


def make_record(benchmark="gsmdec", cycles=100) -> RunRecord:
    stats = SimStats()
    stats.compute_cycles = cycles
    loop = LoopRecord(
        benchmark=benchmark, loop=f"{benchmark}.l0", variant="mdc/prefclus",
        ii=3, unroll=2, kernel_iterations=64, compute_cycles=cycles,
        stall_cycles=7, stats=stats, violations=0, static_copies=2,
        replicated_instances=0, fake_consumers=0,
    )
    return RunRecord(benchmark=benchmark, variant="mdc/prefclus",
                     scale=0.1, spec_key="k", loops=[loop])


class TestMemoryStore:
    def test_miss_then_hit(self):
        store = MemoryStore()
        assert store.get("k") is None
        record = make_record()
        store.put("k", record)
        assert store.get("k") is record
        assert "k" in store
        assert len(store) == 1

    def test_clear_returns_count(self):
        store = MemoryStore()
        store.put("a", make_record())
        store.put("b", make_record())
        assert store.clear() == 2
        assert store.get("a") is None


class TestDiskStore:
    def test_roundtrip_across_instances(self, tmp_path):
        record = make_record(cycles=123)
        DiskStore(tmp_path).put("key1", record)
        # A brand-new store instance (as in a second process) must hit.
        fetched = DiskStore(tmp_path).get("key1")
        assert fetched is not None
        assert fetched.to_dict() == record.to_dict()
        assert fetched.loops[0].compute_cycles == 123

    def test_version_bump_invalidates(self, tmp_path):
        DiskStore(tmp_path, version="1.0.0").put("key1", make_record())
        old = DiskStore(tmp_path, version="1.0.0")
        assert old.get("key1") is not None
        bumped = DiskStore(tmp_path, version="2.0.0")
        assert bumped.get("key1") is None
        # The stale file was dropped, so even the old version misses now.
        assert DiskStore(tmp_path, version="1.0.0").get("key1") is None

    def test_default_version_is_package_version(self, tmp_path):
        import repro

        store = DiskStore(tmp_path)
        assert store.version == repro.__version__
        store.put("key1", make_record())
        payload = json.loads(store.entry_path("key1").read_text())
        assert payload["version"] == repro.__version__

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        assert DiskStore(tmp_path).get("bad") is None

    def test_wrong_shape_entry_is_a_miss_and_removed(self, tmp_path):
        """Valid JSON of the wrong shape must self-heal, not crash."""
        import repro

        (tmp_path / "a.json").write_text("[1, 2, 3]")
        (tmp_path / "b.json").write_text(
            json.dumps({"version": repro.__version__})  # no 'record'
        )
        (tmp_path / "c.json").write_text(
            json.dumps({"version": repro.__version__, "record": {"loops": 3}})
        )
        store = DiskStore(tmp_path)
        for key in ("a", "b", "c"):
            assert store.get(key) is None
            assert not (tmp_path / f"{key}.json").exists(), key

    def test_clear_and_info(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("a", make_record())
        store.put("b", make_record())
        assert sorted(store.keys()) == ["a", "b"]
        assert store.size_bytes() > 0
        assert store.clear() == 2
        assert list(store.keys()) == []

    def test_prune_drops_old_entries_and_the_memo(self, tmp_path):
        import os
        import time

        store = DiskStore(tmp_path)
        store.put("old", make_record(cycles=1))
        store.put("new", make_record(cycles=2))
        assert store.get("old") is not None  # memoized
        stale = time.time() - 3600
        os.utime(store.entry_path("old"), (stale, stale))
        assert store.prune(older_than_seconds=60) == 1
        assert store.get("old") is None, "pruned entry must not be served"
        assert store.get("new") is not None
        assert sorted(store.keys()) == ["new"]

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        store = DiskStore()
        assert store.root == tmp_path / "envcache"


class TestDiskStoreConcurrencyHardening:
    def test_torn_read_retries_until_writer_finishes(self, tmp_path,
                                                     monkeypatch):
        """A partially-visible entry that completes while the reader
        retries must be served, not deleted."""
        record = make_record(cycles=55)
        writer = DiskStore(tmp_path)
        writer.put("key1", record)
        entry = writer.entry_path("key1")
        good = entry.read_text()
        entry.write_text(good[: len(good) // 2])

        reader = DiskStore(tmp_path)
        attempts = []
        original = DiskStore._read_payload

        def heal_then_read(self, path):
            def patched_sleep(_seconds):
                # The "writer" finishes its atomic rename mid-retry.
                entry.write_text(good)

            monkeypatch.setattr("repro.api.store.time.sleep", patched_sleep)
            attempts.append(path)
            return original(self, path)

        monkeypatch.setattr(DiskStore, "_read_payload", heal_then_read)
        fetched = reader.get("key1")
        assert fetched is not None
        assert fetched.loops[0].compute_cycles == 55
        assert entry.exists()

    def test_persistently_corrupt_entry_is_dropped(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr("repro.api.store.time.sleep", lambda _s: None)
        (tmp_path / "bad.json").write_text("{torn")
        assert DiskStore(tmp_path).get("bad") is None
        assert not (tmp_path / "bad.json").exists()

    def test_concurrent_writers_same_key_keep_store_readable(self, tmp_path):
        """Interleaved atomic puts of the same key never tear reads."""
        import threading

        stores = [DiskStore(tmp_path) for _ in range(4)]
        errors = []

        def hammer(store, cycles):
            try:
                for _ in range(25):
                    store.put("shared", make_record(cycles=cycles))
                    got = DiskStore(tmp_path).get("shared")
                    assert got is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(store, 100 + i))
            for i, store in enumerate(stores)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        final = DiskStore(tmp_path).get("shared")
        assert final is not None
        # No stray temp files survive the interleaved writes.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_size_bytes_tolerates_entries_vanishing_mid_scan(self, tmp_path):
        """``repro cache info``/``artifacts`` must not crash when a
        concurrent prune/clear deletes an entry between the glob and the
        stat.  A dangling symlink reproduces exactly that window: listed
        by the glob, gone by stat time."""
        store = DiskStore(tmp_path)
        store.put("a", make_record())
        store.put("b", make_record())
        intact = store.size_bytes()
        assert intact > 0
        (tmp_path / "vanished.json").symlink_to(tmp_path / "no-such-entry")
        assert store.size_bytes() == intact


class TestDefaultStore:
    def test_swap_and_restore(self):
        fresh = MemoryStore()
        previous = set_default_store(fresh)
        try:
            assert default_store() is fresh
        finally:
            set_default_store(previous)
        assert default_store() is previous
