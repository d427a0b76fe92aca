"""Historian (broker -> time-series store) tests."""

import pytest

from repro.broker import MessageBroker
from repro.storage import Historian, HistorianConfig, TimeSeriesStore


@pytest.fixture
def broker():
    return MessageBroker()


@pytest.fixture
def store():
    return TimeSeriesStore()


def make_historian(broker, store, machines=None):
    config = HistorianConfig(name="hist-1", topic_root="icelab/line1",
                             machines=machines or [])
    historian = Historian(config, broker, store)
    historian.start()
    return historian


class TestHistorian:
    def test_records_machine_data(self, broker, store):
        historian = make_historian(broker, store)
        broker.publish("icelab/line1/wc02/emco/data/actualX",
                       {"value": 1.5, "timestamp": 10.0})
        assert historian.records == 1
        (series,) = store.series(
            "machine_data", tags={"machine": "emco", "variable": "actualX"})
        points = series.points
        assert len(points) == 1
        assert points[0].value == 1.5
        assert points[0].timestamp == 10.0

    def test_tags_include_workcell(self, broker, store):
        make_historian(broker, store)
        broker.publish("icelab/line1/wc03/plc/data/temp",
                       {"value": 55.0, "timestamp": 1.0})
        series = store.series("machine_data", tags={"workcell": "wc03"})
        assert len(series) == 1

    def test_scalar_payload_accepted(self, broker, store):
        make_historian(broker, store)
        broker.publish("icelab/line1/wc02/emco/data/mode", "auto")
        assert store.latest("machine_data",
                            tags={"variable": "mode"}).value == "auto"

    def test_machine_filter(self, broker, store):
        historian = make_historian(broker, store, machines=["emco", "ur5"])
        broker.publish("icelab/line1/wc02/emco/data/x", {"value": 1})
        broker.publish("icelab/line1/wc02/spea/data/x", {"value": 2})
        assert historian.records == 1
        assert store.series("machine_data", tags={"machine": "spea"}) == []

    def test_non_data_topics_ignored(self, broker, store):
        historian = make_historian(broker, store)
        broker.publish("icelab/line1/wc02/emco/status/alive", {"value": 1})
        assert historian.records == 0

    def test_malformed_topic_counted(self, broker, store):
        # the wildcard filter already excludes malformed topics; the
        # defensive counter guards against misconfigured topic roots
        historian = make_historian(broker, store)
        historian._on_data("icelab/line1/wc02/emco/data/a/b", {"value": 1})
        assert historian.malformed == 1
        assert historian.records == 0

    def test_stop_ends_recording(self, broker, store):
        historian = make_historian(broker, store)
        historian.stop()
        broker.publish("icelab/line1/wc02/emco/data/x", {"value": 1})
        assert historian.records == 0
        assert not historian.running

    def test_two_historians_partition_by_machine(self, broker, store):
        h1 = make_historian(broker, store, machines=["emco"])
        h2 = make_historian(broker, store, machines=["ur5"])
        broker.publish("icelab/line1/wc02/emco/data/x", {"value": 1})
        broker.publish("icelab/line1/wc02/ur5/data/y", {"value": 2})
        assert h1.records == 1
        assert h2.records == 1
