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
from typing import Mapping

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
        cls,
        params: Parameters,
        population_name: str,
        task_id: str,
        round_number: int,
        **metadata: object,
    ) -> "FLCheckpoint":
        return cls(
            payload=params_to_bytes(params),
            population_name=population_name,
            task_id=task_id,
            round_number=round_number,
            metadata=dict(metadata),
        )

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
    """A (simulated) persistent-storage write failed.

    Raised by :meth:`CheckpointStore.commit` when an installed write
    fault fires — the transient, retryable failure class, as opposed to
    the :class:`ValueError` a non-monotonic commit raises (a logic
    conflict no retry can fix).
    """


class CheckpointStore:
    """In-memory stand-in for the server's persistent storage.

    Tracks write counts so tests can assert the "commit only after full
    aggregation" invariant: exactly one write per successful round, zero
    per abandoned round.  ``write_count`` counts only *durable* writes —
    an injected write failure increments ``failed_write_count`` instead,
    so the invariant holds under write retries.
    """

    def __init__(self) -> None:
        self._latest: dict[str, FLCheckpoint] = {}
        self._history: dict[str, list[FLCheckpoint]] = {}
        self.write_count = 0
        self.read_count = 0
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
                f"injected write failure for {key} round "
                f"{checkpoint.round_number}"
            )
        self._latest[key] = checkpoint
        self._history.setdefault(key, []).append(checkpoint)
        self.write_count += 1

    def latest(self, population_name: str) -> FLCheckpoint:
        self.read_count += 1
        if population_name not in self._latest:
            raise KeyError(f"no checkpoint for population {population_name!r}")
        return self._latest[population_name]

    def has_checkpoint(self, population_name: str) -> bool:
        return population_name in self._latest

    def history(self, population_name: str) -> list[FLCheckpoint]:
        return list(self._history.get(population_name, []))

    def initialize(
        self,
        params: Parameters,
        population_name: str,
        task_id: str,
        round_number: int = 0,
    ) -> FLCheckpoint:
        """Write the initial model for a fresh population (incarnation).

        ``round_number`` is the incarnation's round-id base — 0 for a
        first-time population, the new disjoint base when a drained name
        re-attaches, so the store's history stays monotonic and the old
        incarnation's final committed model is never rewound over.
        """
        ckpt = FLCheckpoint.from_params(
            params, population_name, task_id, round_number
        )
        self._latest[population_name] = ckpt
        self._history.setdefault(population_name, []).append(ckpt)
        self.write_count += 1
        return ckpt
