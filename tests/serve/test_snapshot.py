"""Snapshot consistency: whole-generation reads under live writers."""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.core.wmh import WeightedMinHash
from repro.serve import QueryServer, ServeClient, ServerConfig
from repro.serve.snapshot import SnapshotManager
from repro.store import LakeStore, QuerySession, StoreError, store_generation

from .conftest import (
    hit_tuples,
    hits_fingerprint,
    make_lake_tables,
    make_query,
    make_store,
)


def expected_answer(store_dir, query, top_k=10):
    """(generation, fingerprint) a fresh open serves right now."""
    with LakeStore.open(store_dir) as store:
        session = QuerySession(store, min_containment=0.05)
        hits = session.search(query, "signal", top_k=top_k)
        return store.generation, tuple(hit_tuples(hits))


class TestSnapshotRefcounting:
    def test_store_closes_only_after_last_release(self, serve_store):
        manager = SnapshotManager(serve_store).start(reloader=False)
        held = manager.current()
        manager.stop()  # retires the manager's own reference
        # The in-flight holder still gets whole-generation service.
        hits = held.session.search(make_query(), "signal", top_k=5)
        assert hits
        held.release()  # last reference: store closes now
        with pytest.raises(StoreError):
            held.acquire()

    def test_swap_retires_old_snapshot(self, serve_store):
        manager = SnapshotManager(serve_store, poll_interval_s=30.0)
        manager.start(reloader=False)
        old = manager.current()
        old_generation = old.generation
        with LakeStore.open(serve_store) as store:
            store.append(make_lake_tables(count=1, seed=9))
        assert manager.maybe_reload() is True
        fresh = manager.current()
        assert fresh.generation != old_generation
        assert fresh.generation == store_generation(serve_store)
        fresh.release()
        old.release()
        manager.stop()

    def test_failed_swap_keeps_old_snapshot_serving(self, serve_store):
        manager = SnapshotManager(serve_store, poll_interval_s=30.0)
        manager.start(reloader=False)
        generation = manager.generation()
        with LakeStore.open(serve_store) as store:
            store.append(make_lake_tables(count=1, seed=9))
        with faults.failpoints("serve.snapshot_swap=raise"):
            with pytest.raises(faults.FaultInjected):
                manager.maybe_reload()
        # Old generation still served; queries still answered.
        assert manager.generation() == generation
        with manager.current() as snapshot:
            assert snapshot.session.search(make_query(), "signal", top_k=3)
        # Disarmed, the next poll completes the swap.
        assert manager.maybe_reload() is True
        assert manager.generation() != generation
        manager.stop()


class TestWholeGenerationReads:
    def test_reader_never_sees_partial_generation(self, tmp_path):
        """A reader querying continuously while a writer appends then
        compacts must see only answers some committed generation
        serves — never a hybrid of two catalogs."""
        store_dir = make_store(tmp_path / "lake", make_lake_tables(count=3))
        query = make_query()

        # Committed-generation answer book, extended after every commit.
        answers = {}

        def record():
            generation, fingerprint = expected_answer(store_dir, query)
            answers[generation] = fingerprint

        record()
        config = ServerConfig(poll_interval_s=0.05)
        with QueryServer(store_dir, config) as server:
            client = ServeClient(server.url)
            seen: list[tuple[str, tuple]] = []
            failures: list[Exception] = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    try:
                        response = client.query(query, "signal")
                    except Exception as exc:  # noqa: BLE001 - recorded, asserted below
                        failures.append(exc)
                        return
                    seen.append(
                        (response["generation"], hits_fingerprint(response["hits"]))
                    )

            thread = threading.Thread(target=reader)
            thread.start()
            try:
                with LakeStore.open(store_dir) as writer:
                    writer.append(make_lake_tables(count=2, seed=7))
                record()
                time.sleep(0.3)  # let the reloader pick up the append
                # Append and compaction are two commits; the reloader
                # may serve either, so both go in the answer book.
                with LakeStore.open(store_dir) as writer:
                    writer.append(make_lake_tables(count=2, seed=8))
                record()
                with LakeStore.open(store_dir) as writer:
                    writer.compact()
                record()
                # Wait until the reloader swapped to the final commit
                # and the reader got a few whole post-swap queries in.
                final = store_generation(store_dir)
                deadline = time.monotonic() + 10.0
                while (
                    server.snapshots.generation() != final
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                swapped_at = len(seen)
                while (
                    len(seen) < swapped_at + 3 and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
            finally:
                stop.set()
                thread.join(timeout=10.0)

            assert not failures, failures[0]
            assert seen, "reader made no queries"
            for generation, fingerprint in seen:
                assert generation in answers, (
                    f"served generation {generation} was never committed"
                )
                assert fingerprint == answers[generation], (
                    f"generation {generation} served a result that does not "
                    f"match what that committed generation serves"
                )
            # The reloader must have actually swapped: the last queries
            # see the final generation, not the boot-time one.
            final_generation = store_generation(store_dir)
            assert seen[-1][0] == final_generation

    def test_generation_token_tracks_commits(self, tmp_path):
        store_dir = make_store(tmp_path / "lake", make_lake_tables(count=2))
        g0 = store_generation(store_dir)
        assert g0 is not None
        with LakeStore.open(store_dir) as store:
            assert store.generation == g0
            store.append(make_lake_tables(count=1, seed=5))
            g1 = store.generation
            assert g1 != g0
            store.compact()
            g2 = store.generation
        assert g2 not in (g0, g1)
        assert store_generation(store_dir) == g2

    def test_external_append_triggers_hot_swap(self, tmp_path):
        store_dir = make_store(tmp_path / "lake", make_lake_tables(count=2))
        config = ServerConfig(poll_interval_s=0.05)
        with QueryServer(store_dir, config) as server:
            client = ServeClient(server.url)
            before = client.healthz()
            with LakeStore.create(  # same sketcher family, new tables
                tmp_path / "scratch", WeightedMinHash(m=64, seed=3, L=1 << 16)
            ):
                pass  # exercise an unrelated directory: no swap from it
            with LakeStore.open(store_dir) as writer:
                writer.append(make_lake_tables(count=2, seed=11))
            deadline = time.monotonic() + 5.0
            after = client.healthz()
            while (
                after["generation"] == before["generation"]
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
                after = client.healthz()
            assert after["generation"] != before["generation"]
            assert after["tables"] == before["tables"] + 2
