"""End-to-end tests for the in-process query service."""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.serve import QueryServer, ServeClient, ServeError, ServerConfig
from repro.serve.client import table_payload
from repro.serve.server import _parse_table
from repro.store import LakeStore, QuerySession, StoreError

from .conftest import hit_tuples, hits_fingerprint, make_query


@pytest.fixture
def server(serve_store):
    with QueryServer(serve_store, ServerConfig()) as srv:
        yield srv


def direct_hits(store_dir, query, column="signal", top_k=10, **kw):
    """The ground truth: the same query through a direct session."""
    with LakeStore.open(store_dir) as store:
        session = QuerySession(store, **kw)
        return session.search(query, column, top_k=top_k)


def assert_good_beside_bad(serve_store, server, bad: dict) -> None:
    """Send ``bad`` beside a good query, so both would share one drained
    batch if both were admitted: the bad one gets 400, the good one its
    direct-session answer."""
    client = ServeClient(server.url, max_attempts=1)
    outcomes: dict[str, object] = {}

    def send(name, fn):
        try:
            outcomes[name] = fn()
        except ServeError as exc:
            outcomes[name] = exc

    # The first query holds the batcher, so the next two would
    # share one drained batch if both were admitted.
    with faults.failpoints("serve.batch=sleep:0.3"):
        threads = [
            threading.Thread(
                target=send,
                args=("hold", lambda: client.query(make_query(seed=1), "signal")),
            )
        ]
        threads[0].start()
        time.sleep(0.1)
        threads += [
            threading.Thread(
                target=send,
                args=("good", lambda: client.query(make_query(), "signal")),
            ),
            threading.Thread(
                target=send,
                args=(
                    "bad",
                    lambda: client._request(
                        "POST", "/query", {"table": bad, "column": "signal"}
                    ),
                ),
            ),
        ]
        for t in threads[1:]:
            t.start()
        for t in threads:
            t.join()
    assert outcomes["bad"][0] == 400
    expected = hit_tuples(direct_hits(serve_store, make_query()))
    assert list(hits_fingerprint(outcomes["good"]["hits"])) == expected


class TestQueries:
    def test_served_result_is_bit_identical_to_direct(self, serve_store, server):
        query = make_query()
        expected = hit_tuples(direct_hits(serve_store, query))
        response = ServeClient(server.url).query(query, "signal")
        assert response["query"] == query.name
        assert response["degraded"] is False
        assert response["warnings"] == []
        assert response["generation"] == server.snapshots.generation()
        # JSON floats round-trip exactly: scores compare with ==.
        assert list(hits_fingerprint(response["hits"])) == expected

    def test_concurrent_clients_get_identical_answers(self, serve_store, server):
        query = make_query()
        expected = hit_tuples(direct_hits(serve_store, query))
        client = ServeClient(server.url)
        results: list = [None] * 8

        def run(i: int) -> None:
            results[i] = client.query(query, "signal")

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for response in results:
            assert list(hits_fingerprint(response["hits"])) == expected

    def test_unbatched_server_serves_identically(self, serve_store):
        query = make_query()
        expected = hit_tuples(direct_hits(serve_store, query))
        config = ServerConfig(max_batch=1)
        with QueryServer(serve_store, config) as server:
            response = ServeClient(server.url).query(query, "signal")
        assert list(hits_fingerprint(response["hits"])) == expected

    def test_request_id_round_trips(self, server):
        response = ServeClient(server.url).query(
            make_query(), "signal", request_id="rid-42"
        )
        assert response["request_id"] == "rid-42"


class TestIntrospection:
    def test_healthz_reports_ok(self, server):
        health = ServeClient(server.url).healthz()
        assert health["status"] == "ok"
        assert health["tables"] == 5
        assert health["generation"]
        assert health["degraded"] == []

    def test_stats_carries_serve_and_telemetry(self, server):
        client = ServeClient(server.url)
        client.query(make_query(), "signal")
        stats = client.stats()
        assert stats["serve"]["max_batch"] == 8
        assert "telemetry" in stats
        counters = stats["telemetry"]["counters"]
        assert counters.get("serve.requests", 0) >= 1

    def test_unknown_path_is_404(self, server):
        status, body = ServeClient(server.url)._request("GET", "/nope")
        assert status == 404 and body["error"] == "not_found"


class TestTypedFailures:
    def test_bad_column_is_400(self, server):
        with pytest.raises(ServeError) as err:
            ServeClient(server.url).query(make_query(), "no_such_column")
        assert err.value.status == 400
        assert err.value.code == "bad_request"

    def test_nonpositive_deadline_is_400(self, server):
        with pytest.raises(ServeError) as err:
            ServeClient(server.url).query(make_query(), "signal", deadline_ms=-5)
        assert err.value.status == 400

    @pytest.mark.parametrize(
        "field, value",
        [
            ("values", [float("nan")]),
            ("values", [float("inf")]),
            ("values", [1e200]),  # its square overflows
            ("keys", "abc"),
            ("top_k", 0),
            ("top_k", -1),
            ("top_k", True),
            ("by", "bogus"),
        ],
    )
    def test_malformed_query_is_400(self, server, field, value):
        payload = {
            "table": table_payload(make_query()),
            "column": "signal",
            "top_k": 10,
            "by": "correlation",
        }
        if field == "values":
            payload["table"]["columns"]["signal"][3:4] = value
        elif field == "keys":
            # Three values, so a string read as a key list would fit.
            payload["table"] = {"name": "q", "keys": value, "columns": {"signal": [1.0, 2.0, 3.0]}}
        else:
            payload[field] = value
        status, data = ServeClient(server.url)._request("POST", "/query", payload)
        assert status == 400
        assert data["error"] == "bad_request"

    def test_good_query_beside_a_nan_query_succeeds(self, serve_store, server):
        bad = table_payload(make_query(seed=7))
        bad["columns"]["signal"][0] = float("nan")
        assert_good_beside_bad(serve_store, server, bad)

    @pytest.mark.parametrize("scale", [1e-200, 1e-100])
    def test_tiny_column_is_400(self, server, scale):
        # 1e-200: the value row's norm underflows to 0; 1e-100: the
        # squared row's.  Neither can be sketched.
        bad = table_payload(make_query(seed=7))
        bad["columns"]["signal"] = [scale * (1 + i % 5) for i in range(len(bad["keys"]))]
        status, data = ServeClient(server.url)._request(
            "POST", "/query", {"table": bad, "column": "signal"}
        )
        assert status == 400
        assert data["error"] == "bad_request"
        assert "'signal'" in data["message"] and "too small" in data["message"]

    @pytest.mark.parametrize("scale", [1e78, 1e153])
    def test_huge_column_is_400(self, server, scale):
        # Every square is finite, but a row's norm overflows to inf.
        bad = table_payload(make_query(seed=7))
        bad["columns"]["signal"] = [scale * (1 + i % 5) for i in range(len(bad["keys"]))]
        with pytest.raises(ValueError, match="'signal'.*too large"):
            _parse_table(bad)  # so the handler thread answers, not the batcher
        status, data = ServeClient(server.url)._request(
            "POST", "/query", {"table": bad, "column": "signal"}
        )
        assert status == 400
        assert data["error"] == "bad_request"
        assert "'signal'" in data["message"] and "too large" in data["message"]

    def test_large_column_that_sketches_passes_validation(self):
        good = table_payload(make_query(seed=7))
        good["keys"] = good["keys"][:3]
        good["columns"] = {"signal": [1e76, 2e76, 3e76]}
        assert _parse_table(good).column("signal").tolist() == [1e76, 2e76, 3e76]

    @pytest.mark.parametrize("scale", [1e-200, 1e-100])
    def test_good_query_beside_a_tiny_query_succeeds(self, serve_store, server, scale):
        bad = table_payload(make_query(seed=7))
        bad["columns"]["signal"] = [scale * (1 + i % 5) for i in range(len(bad["keys"]))]
        assert_good_beside_bad(serve_store, server, bad)

    def test_deadline_expiry_is_typed_504(self, server):
        # Stall the batcher long enough that a 100ms deadline must pass.
        with faults.failpoints("serve.batch=sleep:0.4"):
            with pytest.raises(ServeError) as err:
                ServeClient(server.url).query(
                    make_query(), "signal", deadline_ms=100
                )
        assert err.value.status == 504
        assert err.value.code == "deadline"

    def test_overload_sheds_typed_503(self, serve_store):
        config = ServerConfig(max_queue=2, max_batch=1)
        with QueryServer(serve_store, config) as server:
            client = ServeClient(server.url)
            outcomes: list = [None] * 6
            # Hold the batcher on a long sleep so the queue backs up.
            with faults.failpoints("serve.batch=sleep:0.6"):

                def run(i: int) -> None:
                    try:
                        outcomes[i] = client.query(
                            make_query(seed=i),
                            "signal",
                            deadline_ms=5_000,
                            max_attempts=1,
                        )
                    except ServeError as exc:
                        outcomes[i] = exc

                threads = [
                    threading.Thread(target=run, args=(i,)) for i in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            ok = [o for o in outcomes if isinstance(o, dict)]
            shed = [o for o in outcomes if isinstance(o, ServeError)]
            assert shed, "an overloaded 2-deep queue must shed"
            # Sheds are retryable: single-attempt clients surface them
            # as retries_exhausted with the shed recorded as the cause.
            for exc in shed:
                assert exc.code in ("shed", "retries_exhausted")
            assert len(ok) + len(shed) == 6

    def test_batch_exception_is_typed_500_then_recovers(self, server):
        client = ServeClient(server.url, backoff_base_s=0.01)
        with faults.failpoints("serve.batch=raise@1"):
            # First attempt hits the raise; the retry succeeds.
            response = client.query(make_query(), "signal")
        assert response["hits"]

    def test_draining_sheds_new_queries(self, serve_store):
        with QueryServer(serve_store, ServerConfig()) as server:
            client = ServeClient(server.url)
            server.draining = True
            assert client.healthz()["status"] == "draining"
            with pytest.raises(ServeError) as err:
                client.query(make_query(), "signal", max_attempts=1)
            assert err.value.code == "retries_exhausted"
            assert "draining" in str(err.value)


class TestDegradedServing:
    def test_corrupt_shard_is_served_degraded(self, serve_store):
        # Corrupt the newest shard: salvage drops it and serves the rest.
        shards = sorted(serve_store.glob("shard-*.rpro"))
        blob = bytearray(shards[-1].read_bytes())
        blob[-5] ^= 0xFF
        shards[-1].write_bytes(bytes(blob))

        with QueryServer(serve_store, ServerConfig()) as server:
            client = ServeClient(server.url)
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["read_only"] is True
            assert any("skipped" in note for note in health["degraded"])
            response = client.query(make_query(), "signal")
            assert response["degraded"] is True
            assert any(
                note.startswith("store.degraded:") for note in response["warnings"]
            )

    def test_no_salvage_refuses_damaged_store(self, serve_store):
        shards = sorted(serve_store.glob("shard-*.rpro"))
        blob = bytearray(shards[-1].read_bytes())
        blob[-5] ^= 0xFF
        shards[-1].write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            QueryServer(serve_store, ServerConfig(salvage=False)).start()


class TestDrain:
    def test_drain_is_clean_when_idle(self, serve_store):
        server = QueryServer(serve_store, ServerConfig()).start()
        client = ServeClient(server.url)
        client.query(make_query(), "signal")
        assert server.drain() is True
        assert server.inflight() == 0

    def test_drain_finishes_inflight_work(self, serve_store):
        server = QueryServer(serve_store, ServerConfig()).start()
        client = ServeClient(server.url)
        result: list = []
        with faults.failpoints("serve.batch=sleep:0.3"):
            t = threading.Thread(
                target=lambda: result.append(client.query(make_query(), "signal"))
            )
            t.start()
            # Give the request time to be admitted, then drain under it.
            time.sleep(0.1)
            assert server.drain(deadline_s=5.0) is True
            t.join(timeout=5.0)
        assert result and result[0]["hits"]
