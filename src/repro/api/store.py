"""Pluggable result stores.

A :class:`ResultStore` maps a spec content hash to a
:class:`~repro.api.records.RunRecord`.  Two implementations ship:

* :class:`MemoryStore` — a process-local dict (the default; replaces the
  old hidden ``_RUN_CACHE`` module global);
* :class:`DiskStore` — one JSON file per record under ``.repro_cache/``
  (override with ``REPRO_CACHE_DIR``), validated against the package
  version so a version bump invalidates every stale entry.

The hardened file machinery (atomic writes, torn-read retries,
version-stamped payloads, pruning) lives in :class:`JsonFileStore`, which
is shared with the compilation-artifact layer one level below
(:mod:`repro.api.artifacts` keeps stage outputs under
``.repro_cache/artifacts/``).

Entries are *prefix-sharded*: a key lives under ``root/<ss>/<key>.json``
where ``<ss>`` is the first two hex characters of the key's SHA-1, so no
single directory grows past a few dozen entries even for multi-thousand
-run sweeps.  Store-wide operations (:meth:`~JsonFileStore.keys`,
:meth:`~JsonFileStore.size_bytes`, :meth:`~JsonFileStore.prune`) run off
a lazily maintained index instead of rescanning the tree: the index is
built once per shard, validated by the shard directory's mtime (so
writes from other processes are picked up), invalidated shard-by-shard
on in-process writes, and persisted to ``index.meta`` so a fresh
process warm-starts.
Legacy flat layouts (``root/<key>.json``) are still readable and are
migrated to the sharded layout on write.

The process-wide default store is swappable via :func:`set_default_store`
— e.g. tests inject a fresh :class:`MemoryStore`, the CLI injects a
:class:`DiskStore` so repeated figure regenerations across processes are
near-instant.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.api.records import RunRecord
from repro.obs import metrics

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Shard directory names: two lowercase hex characters.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")

#: File the lazily maintained shard index persists to (deliberately not
#: ``*.json`` so entry globs and key namespaces can never collide with it).
INDEX_FILE = "index.meta"


def _package_version() -> str:
    from repro import __version__

    return __version__


def resolve_cache_root(root: Union[str, Path, None] = None) -> Path:
    """The effective cache directory: explicit > $REPRO_CACHE_DIR > default."""
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    return Path(root)


def shard_prefix(key: str) -> str:
    """The shard directory a key lives in: first two hex chars of its
    SHA-1.  Keys carry heterogeneous human prefixes (e.g. the
    ``unroll-…`` stage keys), so sharding on a hash of the whole key
    keeps the 256 shards uniformly filled regardless of the keyspace."""
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:2]


class JsonFileStore:
    """A keyed store of JSON payloads, one file per key under ``root``.

    The machinery every on-disk cache layer in the package shares:

    * entries carry the package version they were produced with; a
      version mismatch is a cache miss (the stale file is removed on
      read);
    * writes are atomic (tmp file + rename), so parallel workers and
      concurrent processes never observe torn entries;
    * reads retry briefly before declaring an entry corrupt: on
      filesystems without atomic-rename visibility (network mounts, some
      Windows setups) a reader racing a writer can observe a short or
      momentarily-missing file, and treating that transient as corruption
      would delete a healthy entry under a concurrent sweep;
    * entries are sharded into 256 two-hex-char subdirectories (see
      :func:`shard_prefix`); a lazily maintained index makes store-wide
      operations scan-free.  ``sharded=False`` keeps the legacy flat
      one-directory layout (and its scan-everything semantics) for
      comparison benchmarks;
    * :meth:`prune` drops entries whose file is older than a cutoff.

    Subclasses pick the payload envelope field (``PAYLOAD_FIELD``) and
    layer their own decoding/memoization on :meth:`get_payload` /
    :meth:`put_payload`.
    """

    #: Read attempts before an unparseable entry is declared corrupt.
    READ_ATTEMPTS = 3
    #: Base delay between read attempts (seconds, grows linearly).
    READ_RETRY_DELAY = 0.01
    #: Envelope key the stored value lives under.
    PAYLOAD_FIELD = "record"

    def __init__(self, root: Union[str, Path, None] = None,
                 version: Optional[str] = None,
                 sharded: bool = True) -> None:
        self.root = resolve_cache_root(root)
        self._version = version
        self.sharded = bool(sharded)
        #: shard name -> {"mtime": dir st_mtime_ns, "entries":
        #: {key: [size_bytes, file_mtime_seconds]}}; ``None`` until the
        #: first store-wide operation builds it.
        self._index: Optional[Dict[str, Dict[str, object]]] = None

    @property
    def version(self) -> str:
        return self._version or _package_version()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _flat_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _path(self, key: str) -> Path:
        if not self.sharded:
            return self._flat_path(key)
        return self.root / shard_prefix(key) / f"{key}.json"

    def entry_path(self, key: str) -> Path:
        """Where a put of ``key`` lands (the sharded location)."""
        return self._path(key)

    def _index_path(self) -> Path:
        return self.root / INDEX_FILE

    def _candidate_paths(self, key: str) -> List[Path]:
        """Read locations for ``key``: the sharded home first, then the
        legacy flat location (pre-sharding layouts stay readable)."""
        primary = self._path(key)
        if not self.sharded:
            return [primary]
        return [primary, self._flat_path(key)]

    # ------------------------------------------------------------------
    # Raw payload plumbing
    # ------------------------------------------------------------------
    def get_payload(self, key: str):
        """The stored payload for ``key``, or ``None`` on a miss.

        Stale (version-mismatched) and malformed envelopes are removed;
        transient I/O failures are a miss, never a deletion.  Entries
        still sitting in a legacy flat layout are found via fallback.
        """
        with metrics.registry().time_block("store.read_seconds",
                                           kind=self.PAYLOAD_FIELD):
            for path in self._candidate_paths(key):
                envelope = self._read_payload(path)
                if envelope is None:
                    continue
                try:
                    stale = envelope.get("version") != self.version
                    payload = (None if stale
                               else envelope[self.PAYLOAD_FIELD])
                except (AttributeError, KeyError, TypeError):
                    payload = None  # valid JSON of the wrong shape: a miss
                if payload is None:
                    self._discard_entry(key, path)
                    continue
                return payload
            return None

    def put_payload(self, key: str, payload) -> None:
        with metrics.registry().time_block("store.write_seconds",
                                           kind=self.PAYLOAD_FIELD):
            self._put_payload(key, payload)

    def _put_payload(self, key: str, payload) -> None:
        target = self._path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "version": self.version,
            "key": key,
            self.PAYLOAD_FIELD: payload,
        }
        fd, tmp = tempfile.mkstemp(dir=str(target.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle, sort_keys=True)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.sharded:
            flat = self._flat_path(key)
            if flat != target:
                # Migrate on write: a fresh entry supersedes any copy
                # still sitting in the legacy flat layout.
                self._discard(flat)
            self._index_invalidate(target)

    def _read_payload(self, path: Path):
        """Read + parse one entry, retrying transient failures.

        A missing file is an immediate miss.  An entry is dropped as
        corrupt only when a read *succeeded* and its content still failed
        to parse on the final attempt — persistent I/O errors (a scanner
        holding the file, a flaky mount) are a miss, never a deletion,
        since they prove nothing about the entry's content."""
        unparseable = False
        for attempt in range(self.READ_ATTEMPTS):
            unparseable = False
            try:
                text = path.read_text()
            except FileNotFoundError:
                return None
            except OSError:  # pragma: no cover - transient I/O error
                text = None
            if text is not None:
                try:
                    return json.loads(text)
                except ValueError:
                    unparseable = True  # possibly a torn read: retry
            if attempt + 1 < self.READ_ATTEMPTS:
                time.sleep(self.READ_RETRY_DELAY * (attempt + 1))
        if unparseable:
            self._discard(path)
        return None

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - concurrent removal
            pass

    def _discard_entry(self, key: str, path: Path) -> None:
        """Unlink one entry file and keep the index in step."""
        self._discard(path)
        self._index_invalidate(path)

    def _drop_key(self, key: str) -> None:
        """Remove every on-disk location of ``key`` (sharded and flat)."""
        for path in dict.fromkeys(self._candidate_paths(key)):
            self._discard_entry(key, path)

    # ------------------------------------------------------------------
    # Lazily maintained shard index
    # ------------------------------------------------------------------
    def _ensure_index(self) -> Dict[str, Dict[str, object]]:
        """Build/refresh the in-memory shard index.

        Each shard is trusted while its directory mtime matches the
        indexed one and rescanned otherwise, so external writers are
        picked up at the cost of one ``stat`` per shard instead of a
        full-tree walk.  Rescans are persisted to ``index.meta`` so a
        fresh process warm-starts from them.
        """
        if self._index is None:
            self._index = self._load_index()
        index = self._index
        if not self.root.is_dir():
            index.clear()
            return index
        on_disk: Dict[str, Path] = {}
        for child in self.root.iterdir():
            if child.is_dir() and _SHARD_RE.match(child.name):
                on_disk[child.name] = child
        dirty = False
        for name in list(index):
            if name not in on_disk:
                del index[name]
                dirty = True
        for name, child in on_disk.items():
            try:
                # Stat *before* scanning: anything written mid-scan bumps
                # the real mtime past the recorded one, forcing a rescan
                # on the next store-wide operation.
                dir_mtime = child.stat().st_mtime_ns
            except OSError:  # pragma: no cover - shard vanished mid-walk
                index.pop(name, None)
                dirty = True
                continue
            cell = index.get(name)
            if cell is not None and cell.get("mtime") == dir_mtime:
                continue
            entries: Dict[str, List[float]] = {}
            with metrics.registry().time_block("store.scan_seconds",
                                               kind=self.PAYLOAD_FIELD):
                for path in child.glob("*.json"):
                    try:
                        st = path.stat()
                    except OSError:
                        continue  # vanished between glob and stat
                    entries[path.stem] = [st.st_size, st.st_mtime]
            metrics.inc("store.shard_rescans", kind=self.PAYLOAD_FIELD)
            index[name] = {"mtime": dir_mtime, "entries": entries}
            dirty = True
        if dirty:
            self._save_index()
        return index

    def _load_index(self) -> Dict[str, Dict[str, object]]:
        try:
            data = json.loads(self._index_path().read_text())
            shards = data["shards"]
            if not isinstance(shards, dict):
                return {}
            return {
                name: {"mtime": cell["mtime"],
                       "entries": dict(cell["entries"])}
                for name, cell in shards.items()
                if _SHARD_RE.match(name)
            }
        except (OSError, ValueError, KeyError, TypeError):
            return {}

    def _save_index(self) -> None:
        """Persist the index (best-effort: it is a cache of a cache)."""
        index = self._index
        if index is None or not self.root.is_dir():
            return
        try:
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump({"shards": index}, handle)
            os.replace(tmp, self._index_path())
        except OSError:  # pragma: no cover - read-only root, etc.
            pass

    def _index_invalidate(self, path: Path) -> None:
        """Drop the index cell of the shard ``path`` lives in.

        Called after this instance writes or removes an entry.  Only
        :meth:`_ensure_index` ever *stamps* a shard's mtime — right
        after scanning it — so a cell can never claim to cover changes
        it did not see.  Re-stamping here instead (with the post-write
        directory mtime) would permanently mask entries a concurrent
        writer slipped into the same shard between our last scan and
        this write.  The cost is one single-shard rescan (~N/256
        entries) at the next store-wide operation, only for shards this
        process actually touched.
        """
        if self._index is None:
            return
        shard = path.parent.name
        if _SHARD_RE.match(shard):
            self._index.pop(shard, None)

    def _shard_dirs(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return [child for child in self.root.iterdir()
                if child.is_dir() and _SHARD_RE.match(child.name)]

    def _flat_files(self) -> List[Path]:
        """Legacy flat-layout entries still awaiting migration."""
        if not self.root.is_dir():
            return []
        return [path for path in self.root.glob("*.json")
                if not path.is_dir()]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        count = 0
        if not self.root.is_dir():
            return 0
        if self.sharded:
            for shard in self._shard_dirs():
                for path in shard.glob("*.json"):
                    try:
                        path.unlink()
                        count += 1
                    except OSError:  # pragma: no cover - concurrent
                        pass
                try:
                    shard.rmdir()
                except OSError:
                    pass  # non-entry stragglers: leave the dir alone
            self._discard(self._index_path())
            self._index = {}
        for path in self._flat_files():
            try:
                path.unlink()
                count += 1
            except OSError:  # pragma: no cover - concurrent removal
                pass
        return count

    def prune(self, older_than_seconds: float,
              now: Optional[float] = None) -> int:
        """Drop entries whose file modification time is older than
        ``older_than_seconds``; returns the number removed."""
        if now is None:
            now = time.time()
        cutoff = now - older_than_seconds
        count = 0
        if not self.root.is_dir():
            return 0
        if self.sharded:
            index = self._ensure_index()
            dirty = False
            for shard, cell in list(index.items()):
                stale = [key
                         for key, (_size, mtime) in cell["entries"].items()
                         if mtime < cutoff]
                if not stale:
                    continue
                shard_dir = self.root / shard
                for key in stale:
                    try:
                        (shard_dir / f"{key}.json").unlink()
                        count += 1
                    except OSError:  # pragma: no cover - concurrent
                        pass
                # We mutated the shard: drop its cell so the next
                # store-wide operation rescans it (see _index_invalidate
                # — only _ensure_index may stamp shard mtimes).
                index.pop(shard, None)
                dirty = True
            if dirty:
                self._save_index()
        for path in self._flat_files():
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    count += 1
            except OSError:  # pragma: no cover - concurrent removal
                pass
        return count

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return iter(())
        if not self.sharded:
            return (path.stem for path in sorted(self.root.glob("*.json")))
        names = set()
        for cell in self._ensure_index().values():
            names.update(cell["entries"])
        names.update(path.stem for path in self._flat_files())
        return iter(sorted(names))

    def size_bytes(self) -> int:
        if not self.root.is_dir():
            return 0
        total = 0
        if self.sharded:
            for cell in self._ensure_index().values():
                for size, _mtime in cell["entries"].values():
                    total += int(size)
        else:
            for path in self.root.glob("*.json"):
                try:
                    total += path.stat().st_size
                except OSError:
                    # The entry vanished between the glob and the stat (a
                    # concurrent prune/clear/put): count what remains
                    # instead of crashing the scan, like prune does.
                    continue
            return total
        for path in self._flat_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


class ResultStore:
    """Interface: a keyed store of :class:`RunRecord` results."""

    def get(self, key: str) -> Optional[RunRecord]:
        raise NotImplementedError

    def put(self, key: str, record: RunRecord) -> None:
        raise NotImplementedError

    def clear(self) -> int:
        """Drop every entry; returns the number of entries removed."""
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None


class MemoryStore(ResultStore):
    """Process-local in-memory store."""

    def __init__(self) -> None:
        self._records: Dict[str, RunRecord] = {}

    def get(self, key: str) -> Optional[RunRecord]:
        return self._records.get(key)

    def put(self, key: str, record: RunRecord) -> None:
        self._records[key] = record

    def clear(self) -> int:
        count = len(self._records)
        self._records.clear()
        return count

    def keys(self) -> Iterator[str]:
        return iter(tuple(self._records))


class DiskStore(JsonFileStore, ResultStore):
    """One JSON file per :class:`RunRecord` under ``root`` (default
    ``.repro_cache/``), on the hardened, sharded :class:`JsonFileStore`
    machinery.  Reads are memoized in-process.
    """

    PAYLOAD_FIELD = "record"

    def __init__(self, root: Union[str, Path, None] = None,
                 version: Optional[str] = None) -> None:
        super().__init__(root, version)
        self._memo: Dict[str, RunRecord] = {}

    def get(self, key: str) -> Optional[RunRecord]:
        memoized = self._memo.get(key)
        if memoized is not None:
            return memoized
        payload = self.get_payload(key)
        if payload is None:
            return None
        try:
            record = RunRecord.from_dict(payload)
        except (AttributeError, KeyError, TypeError, ValueError):
            # Valid JSON of the wrong shape: a miss, not a crash loop.
            self._drop_key(key)
            return None
        self._memo[key] = record
        return record

    def put(self, key: str, record: RunRecord) -> None:
        self.put_payload(key, record.to_dict())
        self._memo[key] = record

    def clear(self) -> int:
        self._memo.clear()
        return super().clear()

    def prune(self, older_than_seconds: float,
              now: Optional[float] = None) -> int:
        removed = super().prune(older_than_seconds, now)
        if removed:
            # get/keys/len must agree after maintenance: drop the memo so
            # pruned entries are not served from RAM.
            self._memo.clear()
        return removed


# ----------------------------------------------------------------------
# Process-wide default
# ----------------------------------------------------------------------
_DEFAULT_STORE: ResultStore = MemoryStore()


def default_store() -> ResultStore:
    """The process-wide store used when no explicit store is given."""
    return _DEFAULT_STORE


def set_default_store(store: ResultStore) -> ResultStore:
    """Swap the process-wide default store; returns the previous one."""
    global _DEFAULT_STORE
    previous = _DEFAULT_STORE
    _DEFAULT_STORE = store
    return previous
