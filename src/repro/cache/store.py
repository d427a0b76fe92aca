"""Content-addressed, on-disk artifact cache.

Artifacts are stored under ``<directory>/<key[:2]>/<key[2:]>`` where the
key is a :func:`~repro.fingerprint.fingerprint` of the producing
inputs. The store offers two payload codecs — raw bytes and pickle —
both sharing the same properties:

* **corruption tolerant**: a truncated, unreadable or undecodable entry
  counts as a miss and is deleted, never raised;
* **atomic writes**: payloads land via a temp file + ``os.replace``, so
  concurrent readers (worker threads, parallel runs) never observe a
  partial artifact;
* **size-bounded LRU**: after each put the store evicts
  least-recently-used entries (by mtime, refreshed on every hit) until
  the total payload size fits ``max_bytes``;
* **thread-safe**: one store instance may be shared by many threads
  (the serving layer funnels every request thread through one cache) —
  temp files are named per-thread and the size estimate plus eviction
  scan run under a lock, so racing puts and evictions never corrupt an
  entry or raise;
* **observable**: ``cache.hits`` / ``cache.misses`` / ``cache.evictions``
  / ``cache.corruption`` / ``cache.io_errors`` counters in
  :data:`repro.obs.METRICS`;
* **chaos-testable**: reads and writes pass through the
  :mod:`repro.faults` sites ``cache.get`` and ``cache.put``, so a
  fault plan can inject I/O errors (counted as misses / dropped puts)
  and payload corruption (detected by the codecs, evicted, counted in
  ``cache.corruption`` and regenerated by the caller — a corrupt entry
  degrades to a miss, never to a wrong answer or a raised error).
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from pathlib import Path

from ..faults import corrupt_at, fault_point
from ..obs import METRICS

_HITS = METRICS.counter("cache.hits")
_MISSES = METRICS.counter("cache.misses")
_EVICTIONS = METRICS.counter("cache.evictions")
_CORRUPTION = METRICS.counter("cache.corruption")
_IO_ERRORS = METRICS.counter("cache.io_errors")

#: Failures that mean "this payload does not decode" — the exact set a
#: corrupt or truncated pickle can raise. Deliberately narrow: a
#: ``MemoryError`` or an unrelated bug inside a loaded object must
#: propagate, not masquerade as a cache miss.
_PICKLE_DECODE_ERRORS = (pickle.UnpicklingError, AttributeError,
                         EOFError, ImportError, IndexError, KeyError,
                         TypeError, ValueError, OSError)

#: Default size bound — generous for manifests, small for a dev machine.
DEFAULT_CACHE_MAX_BYTES = 256 * 1024 * 1024

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-factory``."""
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return Path(configured).expanduser()
    return Path("~/.cache/repro-factory").expanduser()


class ArtifactCache:
    """A content-addressed artifact store rooted at one directory."""

    def __init__(self, directory: str | Path,
                 max_bytes: int = DEFAULT_CACHE_MAX_BYTES):
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.directory.mkdir(parents=True, exist_ok=True)
        # running size estimate so puts do not rescan the directory;
        # seeded lazily, corrected by every real eviction scan
        self._approx_bytes: int | None = None
        # guards _approx_bytes and the eviction scan; payload reads and
        # the os.replace publish are atomic on their own
        self._lock = threading.Lock()
        self._tmp_serial = itertools.count()

    # -- key layout ------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / key[2:]

    # -- raw loads/stores (no hit/miss accounting) -----------------------

    def _load(self, key: str) -> bytes | None:
        path = self._path(key)
        try:
            fault_point("cache.get")
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            _IO_ERRORS.inc()
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return corrupt_at("cache.get", data)

    def _store(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique per process *and* thread *and* call: two request
        # threads putting the same key must never share a temp file
        tmp = path.parent / (f".{path.name}.{os.getpid()}"
                             f".{threading.get_ident()}"
                             f".{next(self._tmp_serial)}.tmp")
        try:
            fault_point("cache.put")
            tmp.write_bytes(corrupt_at("cache.put", data))
            os.replace(tmp, path)
        except OSError:
            _IO_ERRORS.inc()
            tmp.unlink(missing_ok=True)
            return
        with self._lock:
            if self._approx_bytes is None:
                self._approx_bytes = sum(size for _, size, _
                                         in self._entries())
            else:
                self._approx_bytes += len(data)
            if self._approx_bytes > self.max_bytes:
                self._evict()

    def discard(self, key: str) -> None:
        """Drop one entry (used when a payload fails to decode)."""
        self._path(key).unlink(missing_ok=True)

    def _evict_corrupt(self, key: str) -> None:
        """A payload failed to decode: count it and drop the entry, so
        the caller regenerates and the next put repairs the slot."""
        _CORRUPTION.inc()
        self.discard(key)

    # -- payload codecs --------------------------------------------------

    def get_object(self, key: str) -> object | None:
        """Unpickle an artifact; a payload that fails to *decode* is a
        miss (evicted + counted), but genuine faults — ``MemoryError``,
        ``KeyboardInterrupt``, bugs in unpickled ``__setstate__`` code —
        propagate instead of being swallowed as misses."""
        data = self._load(key)
        if data is not None:
            try:
                value = pickle.loads(data)
            except _PICKLE_DECODE_ERRORS:
                self._evict_corrupt(key)
            else:
                _HITS.inc()
                return value
        _MISSES.inc()
        return None

    def put_object(self, key: str, value: object) -> None:
        self._store(key, pickle.dumps(value,
                                      protocol=pickle.HIGHEST_PROTOCOL))

    # -- maintenance -----------------------------------------------------

    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) for every stored artifact."""
        entries = []
        for path in self.directory.glob("??/*"):
            if path.name.endswith(".tmp"):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def _evict(self) -> None:
        # caller holds self._lock
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total > self.max_bytes:
            for _, size, path in sorted(entries):  # oldest first
                path.unlink(missing_ok=True)
                _EVICTIONS.inc()
                total -= size
                if total <= self.max_bytes:
                    break
        self._approx_bytes = total

    def clear(self) -> int:
        """Remove every artifact; returns the number removed."""
        with self._lock:
            removed = 0
            for _, _, path in self._entries():
                path.unlink(missing_ok=True)
                removed += 1
            self._approx_bytes = 0
        return removed

    def stats(self) -> dict[str, object]:
        """On-disk state plus this process's hit/miss/eviction counters."""
        # snapshot the index under the store lock: a concurrent put's
        # evict pass unlinks files between glob and stat otherwise, so
        # entries/total_bytes could mix pre- and post-eviction states
        with self._lock:
            entries = self._entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "hits": _HITS.snapshot(),
            "misses": _MISSES.snapshot(),
            "evictions": _EVICTIONS.snapshot(),
            "corruption": _CORRUPTION.snapshot(),
            "io_errors": _IO_ERRORS.snapshot(),
        }

    def __repr__(self) -> str:
        return (f"ArtifactCache({str(self.directory)!r}, "
                f"max_bytes={self.max_bytes})")
