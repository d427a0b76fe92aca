"""ArtifactCache under concurrent access (the serving workload).

The service shares one cache across request threads, so simultaneous
writers of the same key, readers racing those writers, and eviction
racing both must never raise or return corrupt data: every read is
either a miss (None) or a complete, valid value.
"""

import json
import pickle
import threading

from repro.cache import ArtifactCache
from repro.obs import METRICS
from repro.fingerprint import fingerprint


def run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)


class TestConcurrentSameKey:
    def test_two_threads_writing_and_reading_one_key(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = json.dumps({"value": list(range(200))}).encode()
        errors = []
        observed = []

        def writer():
            try:
                for _ in range(50):
                    cache.put_object("shared", payload)
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        def reader():
            try:
                for _ in range(50):
                    observed.append(cache.get_object("shared"))
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        corrupt_before = METRICS.snapshot().get("cache.corruption", 0)
        run_threads([writer, writer, reader, reader])
        assert errors == []
        # a torn read would fail to unpickle and count as corruption
        assert METRICS.snapshot().get("cache.corruption", 0) \
            == corrupt_before
        # every read saw nothing (not yet written) or the full payload
        assert set(observed) <= {None, payload}
        assert cache.get_object("shared") == payload

    def test_distinct_value_writers_leave_a_complete_value(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        values = [json.dumps({"writer": i}).encode() for i in range(4)]
        errors = []

        def writer(i):
            try:
                for _ in range(25):
                    cache.put_object("contested", values[i])
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        run_threads([lambda i=i: writer(i) for i in range(4)])
        assert errors == []
        assert cache.get_object("contested") in values  # no torn write


class TestRacingEviction:
    def test_writers_racing_eviction_stay_consistent(self, tmp_path):
        # max_bytes small enough that every write triggers eviction
        cache = ArtifactCache(tmp_path, max_bytes=2_000)
        payload = b"x" * 500
        errors = []

        def writer(worker):
            try:
                for i in range(40):
                    key = fingerprint(f"w{worker}-k{i % 8}")
                    cache.put_object(key, payload)
                    value = cache.get_object(key)
                    # evicted-by-neighbor or intact, never corrupt
                    assert value in (None, payload)
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        run_threads([lambda w=w: writer(w) for w in range(4)])
        assert errors == []
        stats = cache.stats()
        assert stats["total_bytes"] <= 2_000
        assert stats["evictions"] > 0
        # survivors all hold complete payloads
        for _, _, path in cache._entries():
            assert pickle.loads(path.read_bytes()) == payload

    def test_clear_racing_writers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        errors = []
        stop = threading.Event()

        def writer():
            try:
                i = 0
                while not stop.is_set():
                    cache.put_object(fingerprint(f"k{i % 16}"), b"payload")
                    i += 1
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        def clearer():
            try:
                for _ in range(20):
                    cache.clear()
            finally:
                stop.set()

        run_threads([writer, writer, clearer])
        assert errors == []
