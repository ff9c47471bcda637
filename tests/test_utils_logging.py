"""Tests for repro.utils.logging."""

import numpy as np

from repro.utils.logging import EventLog, LogRecord, NullLog


class TestEventLog:
    def test_record_appends(self):
        log = EventLog()
        log.record("scheduler", "pod_scheduled", time=1.0, pod="p1")
        assert len(log) == 1

    def test_sequence_numbers_increase(self):
        log = EventLog()
        first = log.record("a", "x")
        second = log.record("a", "y")
        assert second.seq == first.seq + 1

    def test_detail_preserved(self):
        log = EventLog()
        rec = log.record("svc", "rec", hardware="H1", explored=True)
        assert rec.detail == {"hardware": "H1", "explored": True}

    def test_filter_by_source(self):
        log = EventLog()
        log.record("a", "x")
        log.record("b", "x")
        assert len(log.filter(source="a")) == 1

    def test_filter_by_event(self):
        log = EventLog()
        log.record("a", "x")
        log.record("a", "y")
        assert len(log.filter(event="y")) == 1

    def test_filter_by_both(self):
        log = EventLog()
        log.record("a", "x")
        log.record("a", "y")
        log.record("b", "y")
        assert len(log.filter(source="a", event="y")) == 1

    def test_iteration_and_indexing(self):
        log = EventLog()
        log.record("a", "x")
        log.record("a", "y")
        assert [r.event for r in log] == ["x", "y"]
        assert log[1].event == "y"

    def test_clear(self):
        log = EventLog()
        log.record("a", "x")
        log.clear()
        assert len(log) == 0


class TestNullLog:
    def test_discards_records(self):
        log = NullLog()
        rec = log.record("a", "x", value=1)
        assert len(log) == 0
        assert isinstance(rec, LogRecord)
        assert rec.detail == {"value": 1}


class _CountingNullLog(NullLog):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def record(self, *args, **kwargs):
        self.calls += 1
        return super().record(*args, **kwargs)


def test_components_skip_a_disabled_log(ndp):
    """The simulator and the service never call ``record`` on a disabled log."""
    from repro.cluster.node import Node
    from repro.cluster.simulator import ClusterSimulator
    from repro.integration import RecommendationService
    from repro.workloads import LinearRuntimeWorkload

    workload = LinearRuntimeWorkload.random(ndp, n_features=1, seed=2, noise_sigma=0.1)
    rng = np.random.default_rng(0)
    for log in (_CountingNullLog(), EventLog()):
        cluster = ClusterSimulator(
            workload, ndp, nodes=[Node("n0", cpus=8, memory_gb=64)], seed=0, log=log
        )
        service = RecommendationService(ndp, seed=0, log=log)
        service.register_application("app", "owner", workload.feature_names)
        for _ in range(3):
            service.run_workflow("app", workload.sample_features(rng), cluster)
        if isinstance(log, NullLog):
            assert log.calls == 0
        else:
            assert {rec.source for rec in log} >= {"cluster", "service"}
