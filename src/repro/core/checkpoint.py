"""FL checkpoints and the server's persistent checkpoint store.

Sec. 2.1: the global model travels to devices as an *FL checkpoint*
("essentially the serialized state of a TensorFlow session") and Sec. 4.2:
"No information for a round is written to persistent storage until it is
fully aggregated by the Master Aggregator" — the store exposes a single
atomic :meth:`CheckpointStore.commit` used exactly once per successful
round, and nothing else ever persists per-device data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from repro.nn.parameters import Parameters
from repro.nn.serialization import params_from_bytes, params_to_bytes


@dataclass(frozen=True)
class FLCheckpoint:
    """Serialized model state plus bookkeeping metadata."""

    payload: bytes
    population_name: str
    task_id: str
    round_number: int
    metadata: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_params(
        cls, params: Parameters, population_name: str, task_id: str,
        round_number: int, **metadata: object,
    ) -> "FLCheckpoint":
        payload = params_to_bytes(params)
        return cls(payload, population_name, task_id, round_number, metadata)

    def to_params(self) -> Parameters:
        return params_from_bytes(self.payload)

    @property
    def round_key(self) -> tuple[str, str, int]:
        """The (population, task, round) these weights belong to."""
        return (self.population_name, self.task_id, self.round_number)

    @property
    def nbytes(self) -> int:
        return len(self.payload)


class CheckpointWriteError(RuntimeError):
    """A (simulated) persistent-storage write failed: the retryable failure
    an installed write fault raises in :meth:`CheckpointStore.commit`, unlike
    a non-monotonic commit's :class:`ValueError` (no retry fixes that)."""


class CommitRecord(NamedTuple):
    """One durable write without its model: an entry of the store's log."""

    population_name: str
    task_id: str
    round_number: int
    nbytes: int


class CheckpointStore:
    """In-memory stand-in for the server's persistent storage.

    It keeps one model per population, the latest, and logs every durable
    write as a payload-free :class:`CommitRecord`: a commit grows it by a
    record, not by a model.  ``write_count`` counts durable writes only
    (an injected write failure counts in ``failed_write_count``), so one
    write per successful round and none per abandoned one holds under
    write retries.
    """

    def __init__(self) -> None:
        self._latest: dict[str, FLCheckpoint] = {}
        #: Per population, a plain (population, task, round, nbytes) tuple
        #: per write, which the collector stops tracking; ``history`` names it.
        self._log: dict[str, list[tuple]] = {}
        self.write_count = 0
        self.failed_write_count = 0
        #: Fault hook (the fault plane installs one): () -> bool, True
        #: when this write attempt should fail.  ``None`` = never fails.
        self.write_fault = None

    def commit(self, checkpoint: FLCheckpoint) -> None:
        """Atomically persist a fully aggregated round's global model."""
        key = checkpoint.population_name
        latest = self._latest.get(key)
        # Monotonicity is checked before the fault hook: a logically
        # invalid commit must surface as ValueError (not a retryable
        # write failure) and must not consume a fault-stream draw.
        if latest is not None and checkpoint.round_number <= latest.round_number:
            raise ValueError(
                f"non-monotonic commit for {key}: round "
                f"{checkpoint.round_number} after {latest.round_number}"
            )
        if self.write_fault is not None and self.write_fault():
            self.failed_write_count += 1
            raise CheckpointWriteError(
                f"injected write failure for {key} round {checkpoint.round_number}"
            )
        self._write(checkpoint)

    def _write(self, checkpoint: FLCheckpoint) -> None:
        key = checkpoint.population_name
        self._latest[key] = checkpoint
        self._log.setdefault(key, []).append((*checkpoint.round_key, checkpoint.nbytes))
        self.write_count += 1

    def latest(self, population_name: str) -> FLCheckpoint:
        if population_name not in self._latest:
            raise KeyError(f"no checkpoint for population {population_name!r}")
        return self._latest[population_name]

    def has_checkpoint(self, population_name: str) -> bool:
        return population_name in self._latest

    def history(self, population_name: str) -> list[CommitRecord]:
        """Every durable write of ``population_name``, in write order."""
        return list(map(CommitRecord._make, self._log.get(population_name, ())))

    def initialize(
        self, params: Parameters, population_name: str, task_id: str,
        round_number: int = 0,
    ) -> FLCheckpoint:
        """Write the initial model for a fresh population (incarnation).

        ``round_number`` is the incarnation's round-id base — 0 for a
        first-time population, the new disjoint base when a drained name
        re-attaches, so the store's log stays monotonic and the old
        incarnation's final committed model is never rewound over.
        """
        ckpt = FLCheckpoint.from_params(params, population_name, task_id, round_number)
        self._write(ckpt)
        return ckpt
