"""Time-series store tests."""

import pytest

from repro.storage import TimeSeriesStore


@pytest.fixture
def store():
    return TimeSeriesStore()


class TestWrites:
    def test_write_creates_series(self, store):
        store.write("machine_data", 1.0, timestamp=1.0,
                    tags={"machine": "emco"})
        assert store.series_count == 1
        assert store.stats()["points"] == 1

    def test_same_tags_same_series(self, store):
        for i in range(3):
            store.write("m", i, timestamp=float(i), tags={"a": "1"})
        assert store.series_count == 1
        assert len(store.series("m")[0]) == 3

    def test_different_tags_different_series(self, store):
        store.write("m", 1, timestamp=1.0, tags={"machine": "emco"})
        store.write("m", 2, timestamp=1.0, tags={"machine": "ur5"})
        assert store.series_count == 2

    def test_tag_order_irrelevant(self, store):
        store.write("m", 1, timestamp=1.0, tags={"a": "1", "b": "2"})
        store.write("m", 2, timestamp=2.0, tags={"b": "2", "a": "1"})
        assert store.series_count == 1

    def test_out_of_order_timestamps_sorted(self, store):
        store.write("m", "late", timestamp=10.0)
        store.write("m", "early", timestamp=5.0)
        points = store.query("m")
        assert [p.value for p in points] == ["early", "late"]


class TestQueries:
    def setup_store(self, store):
        for i in range(10):
            store.write("m", float(i), timestamp=float(i),
                        tags={"machine": "emco"})
        for i in range(5):
            store.write("m", 100.0 + i, timestamp=float(i),
                        tags={"machine": "ur5"})

    def test_query_all(self, store):
        self.setup_store(store)
        assert len(store.query("m")) == 15

    def test_query_by_tags(self, store):
        self.setup_store(store)
        points = store.query("m", tags={"machine": "emco"})
        assert len(points) == 10

    def test_query_time_range(self, store):
        self.setup_store(store)
        points = store.query("m", tags={"machine": "emco"},
                             start=2.0, end=4.0)
        assert [p.value for p in points] == [2.0, 3.0, 4.0]

    def test_query_results_time_ordered(self, store):
        self.setup_store(store)
        points = store.query("m")
        assert [p.timestamp for p in points] == \
            sorted(p.timestamp for p in points)

    def test_latest(self, store):
        self.setup_store(store)
        latest = store.latest("m", tags={"machine": "emco"})
        assert latest.value == 9.0

    def test_latest_empty(self, store):
        assert store.latest("nothing") is None

    def test_series_tag_subset_filter(self, store):
        store.write("m", 1, timestamp=0.0,
                    tags={"machine": "emco", "wc": "02"})
        assert len(store.series("m", tags={"wc": "02"})) == 1
        assert store.series("m", tags={"wc": "03"}) == []
