"""Storage-equalized method sweeps (the Section 5 protocol).

One place defines *the five methods of the paper* and how each converts
a storage budget (in 64-bit words) into its size parameter, so every
figure compares methods at genuinely equal storage:

* JL — ``m = words`` projection rows (64-bit doubles);
* CS — ``words`` split over 5 repetitions, median estimate;
* MH / KMV / WMH — ``m = floor(words / 1.5)`` samples (64-bit value +
  32-bit hash per sample).

``run_sweep`` evaluates every (method, storage, trial) cell on a fixed
set of vector pairs, re-seeding each trial so the reported error is an
average over independent sketch draws, exactly as in the paper ("We
always report average error over 10 independent trials").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.base import Sketcher
from repro.core.wmh import WeightedMinHash
from repro.experiments.metrics import ErrorRecord, normalized_error
from repro.sketches.countsketch import CountSketch
from repro.sketches.icws import ICWS
from repro.sketches.jl import JohnsonLindenstrauss
from repro.sketches.kmv import KMinimumValues
from repro.sketches.minhash import MinHash
from repro.sketches.priority import PrioritySampling
from repro.sketches.simhash import SimHash
from repro.vectors.sparse import SparseVector

__all__ = [
    "MethodSpec",
    "PAPER_METHODS",
    "EXTENDED_METHODS",
    "method_registry",
    "run_sweep",
]

#: Factory signature: (storage_words, seed) -> configured Sketcher.
MethodFactory = Callable[[int, int], Sketcher]


@dataclass(frozen=True)
class MethodSpec:
    """A named, storage-parameterized sketching method."""

    name: str
    factory: MethodFactory

    def build(self, storage: int, seed: int) -> Sketcher:
        return self.factory(storage, seed)


def _wmh_factory(L: int | None = None) -> MethodFactory:
    def factory(storage: int, seed: int) -> Sketcher:
        kwargs = {} if L is None else {"L": L}
        return WeightedMinHash.from_storage(storage, seed=seed, **kwargs)

    return factory


def method_registry(wmh_L: int | None = None) -> dict[str, MethodSpec]:
    """All implemented methods, keyed by their paper names."""
    return {
        "JL": MethodSpec("JL", lambda s, seed: JohnsonLindenstrauss.from_storage(s, seed=seed)),
        "CS": MethodSpec("CS", lambda s, seed: CountSketch.from_storage(s, seed=seed)),
        "MH": MethodSpec("MH", lambda s, seed: MinHash.from_storage(s, seed=seed)),
        "KMV": MethodSpec("KMV", lambda s, seed: KMinimumValues.from_storage(s, seed=seed)),
        "WMH": MethodSpec("WMH", _wmh_factory(wmh_L)),
        "SimHash": MethodSpec("SimHash", lambda s, seed: SimHash.from_storage(s, seed=seed)),
        "ICWS": MethodSpec("ICWS", lambda s, seed: ICWS.from_storage(s, seed=seed)),
        "PS": MethodSpec("PS", lambda s, seed: PrioritySampling.from_storage(s, seed=seed)),
    }


#: The five methods of the paper's experimental section, in plot order.
PAPER_METHODS: tuple[str, ...] = ("JL", "CS", "MH", "KMV", "WMH")

#: Paper methods plus the extension sketches.
EXTENDED_METHODS: tuple[str, ...] = PAPER_METHODS + ("SimHash", "ICWS", "PS")


def run_sweep(
    pairs: Sequence[tuple[SparseVector, SparseVector]],
    storages: Sequence[int],
    trials: int = 10,
    methods: Sequence[str] = PAPER_METHODS,
    seed: int = 0,
    registry: Mapping[str, MethodSpec] | None = None,
    candidates: str = "scan",
    lsh_target_sim: float = 0.5,
    lsh_target_recall: float = 0.95,
) -> list[ErrorRecord]:
    """Evaluate methods over pairs x storages x trials.

    Each (method, storage, trial) builds one sketcher with a trial-
    specific seed and sketches every pair with it — mirroring a real
    deployment where a single sketch configuration serves the whole
    corpus.  Returns one :class:`ErrorRecord` per estimate.

    ``candidates`` mirrors the serving-side knob: ``"scan"`` (default)
    estimates every pair; ``"lsh"`` estimates only the pairs that
    collide in a banded signature index tuned for ``lsh_target_recall``
    expected recall at similarity ``lsh_target_sim`` — i.e. the error
    distribution *conditioned on LSH candidate generation*, the pairs a
    sublinear serving path would actually score.  Methods without
    signature keys (JL, CS, ...) always estimate every pair.
    """
    if candidates not in ("scan", "lsh"):
        raise ValueError(
            f"unknown candidate generator {candidates!r}; choose 'scan' or 'lsh'"
        )
    if registry is None:
        registry = method_registry()
    unknown = set(methods) - set(registry)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    truths = [a.dot(b) for a, b in pairs]

    # Vectors shared across pairs (e.g. documents compared against many
    # others) appear once in the batch; every (method, storage, trial)
    # cell then sketches the whole workload with one sketch_batch call.
    unique_vectors: list[SparseVector] = []
    position: dict[int, int] = {}
    for a, b in pairs:
        for vector in (a, b):
            if id(vector) not in position:
                position[id(vector)] = len(unique_vectors)
                unique_vectors.append(vector)

    records: list[ErrorRecord] = []
    for method_name in methods:
        spec = registry[method_name]
        for storage in storages:
            for trial in range(trials):
                sketcher = spec.build(storage, seed * 7919 + trial)
                bank = sketcher.sketch_batch(unique_vectors)
                sketches = sketcher.bank_to_sketches(bank)
                shortlists = None
                if candidates == "lsh" and sketcher.signature_length() is not None:
                    from repro.mips.lsh import SignatureLSH, tune

                    lsh = SignatureLSH(
                        *tune(
                            sketcher.signature_length(),
                            lsh_target_sim,
                            lsh_target_recall,
                        )
                    )
                    keys = sketcher.signature_keys(bank)
                    lsh.insert_signatures(keys)
                    shortlists = lsh.candidates_many(keys)
                for pair_id, (a, b) in enumerate(pairs):
                    if shortlists is not None:
                        pos_a = position[id(a)]
                        pos_b = position[id(b)]
                        rows = shortlists[pos_a]
                        at = int(np.searchsorted(rows, pos_b))
                        if at >= rows.size or rows[at] != pos_b:
                            continue
                    estimate = sketcher.estimate(
                        sketches[position[id(a)]], sketches[position[id(b)]]
                    )
                    records.append(
                        ErrorRecord(
                            method=method_name,
                            storage=int(storage),
                            error=normalized_error(estimate, truths[pair_id], a, b),
                            pair_id=pair_id,
                            trial=trial,
                        )
                    )
    return records
