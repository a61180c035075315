"""Tests for sketch serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.wmh import WeightedMinHash
from repro.io.serialize import (
    SerializationError,
    pack_bank,
    pack_shard,
    pack_sketch,
    packed_size_words,
    unpack_bank,
    unpack_shard,
    unpack_sketch,
)
from repro.sketches.countsketch import CountSketch
from repro.sketches.icws import ICWS
from repro.sketches.jl import JohnsonLindenstrauss
from repro.sketches.bbit import BbitMinHash
from repro.sketches.kmv import KMinimumValues
from repro.sketches.minhash import MinHash
from repro.sketches.priority import PrioritySampling
from repro.sketches.simhash import SimHash
from repro.vectors.sparse import SparseVector

SKETCHERS = {
    "WMH": lambda: WeightedMinHash(m=64, seed=3, L=1 << 16),
    "MH": lambda: MinHash(m=64, seed=3),
    "KMV": lambda: KMinimumValues(k=32, seed=3),
    "JL": lambda: JohnsonLindenstrauss(m=64, seed=3),
    "CS": lambda: CountSketch(width=32, seed=3),
    "ICWS": lambda: ICWS(m=64, seed=3),
    "PS": lambda: PrioritySampling(k=32, seed=3),
    "bbit": lambda: BbitMinHash(m=64, b=2, seed=3),
    "SimHash": lambda: SimHash(m=64, seed=3),
}

#: Kinds with a per-sketch wire format (SimHash persists only in banks).
WIRE_SKETCHERS = sorted(set(SKETCHERS) - {"SimHash"})


class TestRoundTrip:
    @pytest.mark.parametrize("name", WIRE_SKETCHERS)
    def test_estimates_survive_round_trip(self, name, small_pair):
        a, b = small_pair
        sketcher = SKETCHERS[name]()
        sketch_a, sketch_b = sketcher.sketch(a), sketcher.sketch(b)
        direct = sketcher.estimate(sketch_a, sketch_b)
        restored_a = unpack_sketch(pack_sketch(sketch_a))
        restored_b = unpack_sketch(pack_sketch(sketch_b))
        round_tripped = sketcher.estimate(restored_a, restored_b)
        # Hash quantization to 32 bits perturbs only the FM union term.
        assert round_tripped == pytest.approx(direct, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("name", WIRE_SKETCHERS)
    def test_mixed_round_trip_preserves_matching(self, name, small_pair):
        # A freshly computed sketch must remain comparable with a
        # round-tripped one ONLY for methods whose comparison is
        # equality-free (linear sketches); for hash-equality methods
        # both sides must be round-tripped.  Here we check the
        # both-round-tripped contract, which is the deployment reality
        # (the index stores packed sketches).
        a, b = small_pair
        sketcher = SKETCHERS[name]()
        packed_twice_a = unpack_sketch(pack_sketch(sketcher.sketch(a)))
        packed_twice_b = unpack_sketch(pack_sketch(sketcher.sketch(b)))
        estimate = sketcher.estimate(packed_twice_a, packed_twice_b)
        assert np.isfinite(estimate)

    def test_wmh_match_pattern_preserved(self, small_pair):
        a, b = small_pair
        sketcher = WeightedMinHash(m=256, seed=5, L=1 << 16)
        sketch_a, sketch_b = sketcher.sketch(a), sketcher.sketch(b)
        original_matches = sketch_a.hashes == sketch_b.hashes
        restored_a = unpack_sketch(pack_sketch(sketch_a))
        restored_b = unpack_sketch(pack_sketch(sketch_b))
        restored_matches = restored_a.hashes == restored_b.hashes
        np.testing.assert_array_equal(original_matches, restored_matches)

    def test_zero_vector_sentinel_round_trip(self):
        sketcher = WeightedMinHash(m=8, seed=0)
        restored = unpack_sketch(pack_sketch(sketcher.sketch(SparseVector.zero())))
        assert restored.norm == 0.0
        assert np.all(np.isinf(restored.hashes))

    def test_kmv_exact_flag_round_trip(self):
        vector = SparseVector([1, 2], [1.0, 2.0])
        sketcher = KMinimumValues(k=16, seed=0)
        restored = unpack_sketch(pack_sketch(sketcher.sketch(vector)))
        assert restored.exact
        assert restored.hashes.size == 2

    def test_metadata_round_trip(self, small_pair):
        a, _ = small_pair
        sketch = WeightedMinHash(m=32, seed=17, L=1 << 20).sketch(a)
        restored = unpack_sketch(pack_sketch(sketch))
        assert restored.m == 32
        assert restored.seed == 17
        assert restored.L == 1 << 20
        assert restored.norm == pytest.approx(sketch.norm)


class TestBankRoundTrip:
    """Banks serialize losslessly: estimate_many must be bit-identical."""

    @pytest.mark.parametrize("name", sorted(SKETCHERS))
    def test_estimate_many_identical_after_round_trip(self, name, small_pair):
        a, b = small_pair
        sketcher = SKETCHERS[name]()
        vectors = [a, b, a.scaled(0.5)]
        bank = sketcher.sketch_batch(vectors)
        query = sketcher.sketch(a)
        restored = unpack_bank(pack_bank(bank))
        assert restored.kind == bank.kind
        assert dict(restored.params) == dict(bank.params)
        assert len(restored) == len(bank)
        assert not bank.is_object_bank()
        # Columnar banks round-trip raw arrays: estimates match exactly.
        np.testing.assert_array_equal(
            sketcher.estimate_many(query, restored),
            sketcher.estimate_many(query, bank),
        )

    def test_round_trip_idempotent(self, small_pair):
        a, b = small_pair
        sketcher = SKETCHERS["WMH"]()
        payload = pack_bank(sketcher.sketch_batch([a, b]))
        assert pack_bank(unpack_bank(payload)) == payload

    def test_storage_words_preserved(self, small_pair):
        a, b = small_pair
        sketcher = SKETCHERS["MH"]()
        bank = sketcher.sketch_batch([a, b])
        assert unpack_bank(pack_bank(bank)).storage_words() == bank.storage_words()

    def test_bank_payload_rejected_by_unpack_sketch(self, small_pair):
        a, _ = small_pair
        payload = pack_bank(SKETCHERS["WMH"]().sketch_batch([a]))
        with pytest.raises(SerializationError):
            unpack_sketch(payload)

    def test_sketch_payload_rejected_by_unpack_bank(self, small_pair):
        a, _ = small_pair
        payload = pack_sketch(SKETCHERS["WMH"]().sketch(a))
        with pytest.raises(SerializationError, match="not a sketch bank"):
            unpack_bank(payload)

    def test_truncated_bank_payload(self, small_pair):
        a, b = small_pair
        payload = pack_bank(SKETCHERS["KMV"]().sketch_batch([a, b]))
        with pytest.raises(SerializationError):
            unpack_bank(payload[: len(payload) - 24])


class TestStorageAccounting:
    def test_wmh_payload_is_1_5_words_per_sample(self, small_pair):
        # The paper's accounting, byte-for-byte: 32-bit hash + 64-bit
        # value = 12 bytes = 1.5 words per sample.
        a, _ = small_pair
        sketch = WeightedMinHash(m=100, seed=0, L=1 << 16).sketch(a)
        assert packed_size_words(sketch) == pytest.approx(150.0)

    def test_jl_payload_is_one_word_per_row(self, small_pair):
        a, _ = small_pair
        sketch = JohnsonLindenstrauss(m=100, seed=0).sketch(a)
        assert packed_size_words(sketch) == pytest.approx(100.0)

    def test_countsketch_payload(self, small_pair):
        a, _ = small_pair
        sketch = CountSketch(width=20, repetitions=5, seed=0).sketch(a)
        assert packed_size_words(sketch) == pytest.approx(100.0)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(SerializationError, match="magic"):
            unpack_sketch(b"NOPE" + b"\x00" * 20)

    def test_bad_version(self):
        with pytest.raises(SerializationError, match="version"):
            unpack_sketch(b"RPRO" + bytes([99, 1]) + b"\x00" * 20)

    def test_unknown_kind(self):
        with pytest.raises(SerializationError, match="kind"):
            unpack_sketch(b"RPRO" + bytes([1, 200]) + b"\x00" * 20)

    def test_truncated_payload(self, small_pair):
        a, _ = small_pair
        payload = pack_sketch(WeightedMinHash(m=64, seed=0).sketch(a))
        with pytest.raises(SerializationError):
            unpack_sketch(payload[: len(payload) // 2])

    def test_unsupported_type(self):
        with pytest.raises(SerializationError, match="cannot serialize"):
            pack_sketch("not a sketch")

    def test_empty_payload(self):
        with pytest.raises(SerializationError):
            unpack_sketch(b"")


class TestBankEdgeCases:
    """Edge cases the persistent store depends on."""

    def test_empty_bank_round_trip(self):
        sketcher = SKETCHERS["WMH"]()
        bank = sketcher.sketch_batch([])
        assert len(bank) == 0
        restored = unpack_bank(pack_bank(bank))
        assert len(restored) == 0
        assert restored.kind == bank.kind
        assert dict(restored.params) == dict(bank.params)

    def test_zero_row_slice_round_trip(self, small_pair):
        a, b = small_pair
        sketcher = SKETCHERS["MH"]()
        bank = sketcher.sketch_batch([a, b])[0:0]
        assert len(bank) == 0
        restored = unpack_bank(pack_bank(bank))
        assert len(restored) == 0
        assert set(restored.columns) == set(bank.columns)

    def test_zero_row_padded_bank_round_trip(self):
        sketcher = SKETCHERS["PS"]()
        bank = sketcher.sketch_batch([])
        restored = unpack_bank(pack_bank(bank))
        assert len(restored) == 0
        assert set(restored.columns) == set(sketcher.bank_layout())

    def test_object_columns_refused(self, small_pair):
        from repro.core.median import MedianBoosted

        sketcher = MedianBoosted(lambda seed: MinHash(m=16, seed=seed), t=3)
        bank = sketcher.sketch_batch(list(small_pair))
        assert bank.is_object_bank()
        with pytest.raises(SerializationError, match="object-dtype"):
            pack_bank(bank)

    @pytest.mark.parametrize("cut", [1, 7, 64])
    def test_truncation_anywhere_raises_cleanly(self, cut, small_pair):
        a, b = small_pair
        payload = pack_bank(SKETCHERS["WMH"]().sketch_batch([a, b]))
        with pytest.raises(SerializationError):
            unpack_bank(payload[:cut])

    def test_wrong_version_header(self, small_pair):
        a, _ = small_pair
        payload = bytearray(pack_bank(SKETCHERS["WMH"]().sketch_batch([a])))
        payload[4] = 99  # version byte follows the 4-byte magic
        with pytest.raises(SerializationError, match="version"):
            unpack_bank(bytes(payload))

    def test_zero_copy_views_reference_payload(self, small_pair):
        a, b = small_pair
        sketcher = SKETCHERS["WMH"]()
        bank = sketcher.sketch_batch([a, b])
        payload = pack_bank(bank)
        zero_copy = unpack_bank(payload, copy=False)
        for name, array in zero_copy.columns.items():
            assert array.base is not None, f"column {name} was copied"
            assert not array.flags.writeable
        query = sketcher.sketch(a)
        np.testing.assert_array_equal(
            sketcher.estimate_many(query, zero_copy),
            sketcher.estimate_many(query, bank),
        )


class TestShardContainer:
    def test_round_trip(self, small_pair):
        a, b = small_pair
        sketcher = SKETCHERS["WMH"]()
        bank = sketcher.sketch_batch([a, b])
        restored = unpack_shard(pack_shard(bank))
        query = sketcher.sketch(a)
        np.testing.assert_array_equal(
            sketcher.estimate_many(query, restored),
            sketcher.estimate_many(query, bank),
        )

    def test_truncated_shard_rejected(self, small_pair):
        a, _ = small_pair
        payload = pack_shard(SKETCHERS["WMH"]().sketch_batch([a]))
        with pytest.raises(SerializationError, match="truncated shard"):
            unpack_shard(payload[: len(payload) - 5])

    def test_bit_flip_detected_by_checksum(self, small_pair):
        a, _ = small_pair
        payload = bytearray(pack_shard(SKETCHERS["WMH"]().sketch_batch([a])))
        payload[-3] ^= 0x40
        with pytest.raises(SerializationError, match="checksum"):
            unpack_shard(bytes(payload))

    def test_bank_payload_rejected_by_unpack_shard(self, small_pair):
        a, _ = small_pair
        payload = pack_bank(SKETCHERS["WMH"]().sketch_batch([a]))
        with pytest.raises(SerializationError, match="not a shard"):
            unpack_shard(payload)

    def test_shard_payload_rejected_by_unpack_bank(self, small_pair):
        a, _ = small_pair
        payload = pack_shard(SKETCHERS["WMH"]().sketch_batch([a]))
        with pytest.raises(SerializationError, match="not a sketch bank"):
            unpack_bank(payload)
