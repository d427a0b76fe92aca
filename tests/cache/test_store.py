"""Artifact-cache store behaviour: codecs, corruption, LRU, counters."""

import json
import os
import pickle

import pytest

from repro.cache import ArtifactCache
from repro.fingerprint import fingerprint
from repro.obs import METRICS


def _raise_oom():
    raise MemoryError("simulated allocation failure")


class _OutOfMemory:
    """Pickles fine; unpickling raises MemoryError."""

    def __reduce__(self):
        return (_raise_oom, ())


@pytest.fixture()
def cache(tmp_path):
    METRICS.reset()
    return ArtifactCache(tmp_path / "cache")


def _counters():
    snap = METRICS.snapshot()
    return (snap.get("cache.hits", 0), snap.get("cache.misses", 0),
            snap.get("cache.evictions", 0))


class TestCodecs:
    def test_bytes_roundtrip(self, cache):
        key = fingerprint("bytes")
        assert cache.get_object(key) is None
        cache.put_object(key, b"\x00payload")
        assert cache.get_object(key) == b"\x00payload"

    def test_text_roundtrip(self, cache):
        key = fingerprint("text")
        cache.put_object(key, "héllo")
        assert cache.get_object(key) == "héllo"

    def test_json_roundtrip(self, cache):
        key = fingerprint("json")
        cache.put_object(key, {"b": 1, "a": [2, 3]})
        assert cache.get_object(key) == {"b": 1, "a": [2, 3]}

    def test_json_preserves_key_order(self, cache):
        # replayed configs must serialize byte-identically, so the
        # codec must not reorder keys
        key = fingerprint("ordered")
        cache.put_object(key, {"z": 1, "a": 2})
        replayed = cache.get_object(key)
        assert list(replayed) == ["z", "a"]
        assert json.dumps(replayed) == json.dumps({"z": 1, "a": 2})

    def test_object_roundtrip(self, cache):
        key = fingerprint("obj")
        cache.put_object(key, {"nested": (1, 2)})
        assert cache.get_object(key) == {"nested": (1, 2)}

    def test_counters_account_hits_and_misses(self, cache):
        key = fingerprint("counted")
        cache.get_object(key)          # miss
        cache.put_object(key, "x")
        cache.get_object(key)          # hit
        cache.get_object(fingerprint("other"))  # miss
        hits, misses, _ = _counters()
        assert (hits, misses) == (1, 2)


class TestCorruption:
    def test_truncated_json_is_a_miss_and_discarded(self, cache):
        key = fingerprint("broken-json")
        cache.put_object(key, {"a": 1})
        path = cache._path(key)
        path.write_bytes(b'{"a":')
        assert cache.get_object(key) is None
        assert not path.exists()
        hits, misses, _ = _counters()
        assert hits == 0 and misses == 1

    def test_corrupt_pickle_is_a_miss_and_discarded(self, cache):
        key = fingerprint("broken-pickle")
        cache.put_object(key, [1, 2, 3])
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get_object(key) is None
        assert not cache._path(key).exists()

    def test_invalid_utf8_text_is_a_miss(self, cache):
        key = fingerprint("broken-text")
        cache.put_object(key, "text")
        cache._path(key).write_bytes(b"\xff\xfe\x00")
        assert cache.get_object(key) is None
        assert not cache._path(key).exists()

    def test_corruption_counter_and_eviction(self, cache):
        key = fingerprint("counted-corruption")
        cache.put_object(key, {"a": 1})
        cache._path(key).write_bytes(b"\x00not a pickle\xff")
        assert cache.get_object(key) is None
        assert not cache._path(key).exists()
        snap = METRICS.snapshot()
        assert snap.get("cache.corruption", 0) == 1
        assert cache.stats()["corruption"] == 1

    def test_nondecode_errors_propagate_from_get_object(self, cache):
        # the old bare `except Exception` swallowed *everything*; the
        # narrowed handler must let resource exhaustion through
        key = fingerprint("oom-pickle")
        cache.put_object(key, None)
        cache._path(key).write_bytes(pickle.dumps(_OutOfMemory()))
        with pytest.raises(MemoryError):
            cache.get_object(key)


class TestEviction:
    def test_lru_eviction_keeps_total_under_bound(self, tmp_path):
        METRICS.reset()
        small = ArtifactCache(tmp_path / "small", max_bytes=1024)
        for index in range(10):
            small.put_object(fingerprint(f"entry-{index}"), b"x" * 300)
        stats = small.stats()
        assert stats["total_bytes"] <= 1024
        assert stats["evictions"] > 0

    def test_recently_read_entries_survive(self, tmp_path):
        METRICS.reset()
        small = ArtifactCache(tmp_path / "small", max_bytes=1000)
        hot = fingerprint("hot")
        small.put_object(hot, b"h" * 300)
        for index in range(6):
            os.utime(small._path(hot))  # keep refreshing recency
            small.put_object(fingerprint(f"cold-{index}"), b"c" * 300)
            small.get_object(hot)
        assert small.get_object(hot) is not None


class TestMaintenance:
    def test_clear_removes_everything(self, cache):
        for index in range(4):
            cache.put_object(fingerprint(f"e{index}"), "data")
        assert cache.clear() == 4
        assert cache.stats()["entries"] == 0
        assert cache.get_object(fingerprint("e0")) is None

    def test_stats_shape(self, cache):
        cache.put_object(fingerprint("s"), {"a": 1})
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == len(
            pickle.dumps({"a": 1}, protocol=pickle.HIGHEST_PROTOCOL))
        assert set(stats) == {"directory", "entries", "total_bytes",
                              "max_bytes", "hits", "misses", "evictions",
                              "corruption", "io_errors"}

    def test_overwrite_same_key_is_idempotent(self, cache):
        key = fingerprint("same")
        cache.put_object(key, "one")
        cache.put_object(key, "two")
        assert cache.get_object(key) == "two"
        assert cache.stats()["entries"] == 1

    def test_stats_snapshots_index_under_store_lock(self, cache):
        # regression: stats() used to walk the directory without the
        # lock, so a concurrent put's evict pass could unlink files
        # between glob and stat, mixing pre- and post-eviction counts
        cache.put_object(fingerprint("locked"), "data")
        seen = []
        original = cache._entries

        def guarded():
            seen.append(cache._lock.locked())
            return original()

        cache._entries = guarded
        stats = cache.stats()
        assert seen == [True]
        assert stats["entries"] == 1
