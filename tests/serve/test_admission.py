"""Unit tests for admission control: shedding, triage, grouping."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import obs
from repro.serve.admission import (
    AdmissionQueue,
    MicroBatcher,
    ServeRequest,
    group_requests,
)
from repro.store import LakeStore, QuerySession

from .conftest import make_query, make_store


def make_request(deadline_s: float = 10.0, **kw) -> ServeRequest:
    kw.setdefault("table", make_query())
    kw.setdefault("column", "signal")
    kw.setdefault("deadline", time.monotonic() + deadline_s)
    return ServeRequest(**kw)


class FakeSnapshot:
    """A snapshot stub over a real open store (no server needed)."""

    def __init__(self, store: LakeStore) -> None:
        self.session = QuerySession(store, min_containment=0.0)
        self.generation = "g-test"
        self.degraded = []
        self.read_only = False
        self.released = 0

    def release(self) -> None:
        self.released += 1


class TestAdmissionQueue:
    def test_full_queue_sheds_immediately(self):
        q = AdmissionQueue(max_depth=2)
        assert q.submit(make_request())
        assert q.submit(make_request())
        shed = make_request()
        assert not q.submit(shed)
        assert shed.done.is_set()
        status, code, message = shed.error
        assert (status, code) == (503, "shed")
        assert "queue full" in message

    def test_drain_preserves_fifo_order(self):
        q = AdmissionQueue(max_depth=8)
        requests = [make_request() for _ in range(5)]
        for request in requests:
            q.submit(request)
        drained = q.drain_nowait(limit=10)
        assert [r.request_id for r in drained] == [
            r.request_id for r in requests
        ]


class TestGrouping:
    def test_groups_by_knobs(self):
        a = make_request(top_k=5)
        b = make_request(top_k=5)
        c = make_request(top_k=9)
        d = make_request(top_k=5, by="inner_product")
        groups = group_requests([a, b, c, d])
        assert len(groups) == 3
        assert groups[(5, "correlation", None)] == [a, b]
        assert groups[(9, "correlation", None)] == [c]
        assert groups[(5, "inner_product", None)] == [d]

    def test_order_within_group_is_fifo(self):
        requests = [make_request(top_k=3) for _ in range(4)]
        (group,) = group_requests(requests).values()
        assert group == requests


class TestTriage:
    def batcher(self, queue_wait_ms: float = 2_000.0) -> MicroBatcher:
        admission = AdmissionQueue(max_depth=8, queue_wait_ms=queue_wait_ms)
        return MicroBatcher(admission, snapshot_source=lambda: None)

    def test_expired_deadline_is_typed_504(self):
        batcher = self.batcher()
        dead = make_request(deadline_s=-0.1)
        live = make_request(deadline_s=10.0)
        assert batcher._triage([dead, live]) == [live]
        assert dead.error[:2] == (504, "deadline")
        assert "queued" in dead.error[2]

    def test_queue_wait_budget_is_typed_shed(self):
        batcher = self.batcher(queue_wait_ms=50.0)
        stale = make_request(deadline_s=10.0)
        stale.enqueued_at = time.monotonic() - 0.2
        assert batcher._triage([stale]) == []
        assert stale.error[:2] == (503, "shed")

    def test_abandoned_requests_are_dropped_silently(self):
        batcher = self.batcher()
        gone = make_request()
        gone.abandoned = True
        assert batcher._triage([gone]) == []
        assert gone.error is None and not gone.done.is_set()

    def test_max_batch_must_be_positive(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(AdmissionQueue(), lambda: None, max_batch=0)


class TestExecution:
    def test_batch_executes_against_one_snapshot(self, tmp_path):
        with LakeStore.open(make_store(tmp_path / "lake")) as store:
            snapshot = FakeSnapshot(store)
            batcher = MicroBatcher(
                AdmissionQueue(), snapshot_source=lambda: snapshot
            )
            requests = [
                make_request(table=make_query(seed=s), top_k=5)
                for s in (1, 2, 3)
            ]
            batcher._execute(list(requests))
            assert snapshot.released == 1
            direct = snapshot.session.search_many(
                [r.table for r in requests], "signal", top_k=5
            )
            for request, expected in zip(requests, direct):
                assert request.error is None
                assert request.generation == "g-test"
                assert [(h.table_name, h.score) for h in request.hits] == [
                    (h.table_name, h.score) for h in expected
                ]

    @pytest.mark.parametrize(
        "error, typed",
        [
            (ValueError("bad table"), (400, "bad_request")),
            (RuntimeError("boom"), (500, "internal")),
        ],
    )
    def test_a_failing_request_fails_alone(self, tmp_path, monkeypatch, error, typed):
        """A session that raises for one table: the group's other
        requests get their direct-session answers."""
        with LakeStore.open(make_store(tmp_path / "lake")) as store:
            snapshot = FakeSnapshot(store)
            session = snapshot.session
            real = session.search_many
            bad = make_query(seed=2)

            def search_many(tables, columns, **kw):
                if any(table is bad for table in tables):
                    raise error
                return real(tables, columns, **kw)

            monkeypatch.setattr(session, "search_many", search_many)
            batcher = MicroBatcher(AdmissionQueue(), snapshot_source=lambda: snapshot)
            requests = [
                make_request(table=table, top_k=5)
                for table in (make_query(seed=1), bad, make_query(seed=3))
            ]
            counted = []
            monkeypatch.setattr(obs, "count", lambda name, amount=1: counted.append(name))
            batcher._execute(list(requests))
            assert requests[1].error[:2] == typed
            assert str(error) in requests[1].error[2]
            assert counted.count("serve.errors") == 1
            for request in (requests[0], requests[2]):
                (expected,) = real([request.table], "signal", top_k=5)
                assert request.error is None
                assert [(h.table_name, h.score) for h in request.hits] == [
                    (h.table_name, h.score) for h in expected
                ]

    def test_tiny_table_beside_good_ones_is_400(self, tmp_path):
        with LakeStore.open(make_store(tmp_path / "lake")) as store:
            snapshot = FakeSnapshot(store)
            batcher = MicroBatcher(AdmissionQueue(), snapshot_source=lambda: snapshot)
            tiny = make_query(seed=2)
            tiny.columns["signal"] = np.abs(tiny.columns["signal"]) * 1e-200 + 1e-200
            requests = [make_request(table=t) for t in (make_query(seed=1), tiny)]
            batcher._execute(list(requests))
            assert requests[1].error[:2] == (400, "bad_request")
            assert "too small" in requests[1].error[2]
            (expected,) = snapshot.session.search_many([requests[0].table], "signal")
            assert [h.table_name for h in requests[0].hits] == [h.table_name for h in expected]

    def test_snapshot_failure_is_typed_503(self):
        def boom():
            raise RuntimeError("no store")

        batcher = MicroBatcher(AdmissionQueue(), snapshot_source=boom)
        request = make_request()
        batcher._execute([request])
        assert request.error[:2] == (503, "unavailable")

    def test_stop_fails_leftover_requests(self):
        admission = AdmissionQueue(max_depth=8)
        batcher = MicroBatcher(admission, snapshot_source=lambda: None)
        leftovers = [make_request() for _ in range(3)]
        for request in leftovers:
            admission.submit(request)
        batcher.stop()  # never started: queue drains at stop
        for request in leftovers:
            assert request.error[:2] == (503, "draining")
