"""Named deterministic random streams.

Every stochastic component in the system draws from its own named stream so
that adding randomness to one subsystem never perturbs another — a property
we rely on for ablation benchmarks (e.g. pace steering on/off must see the
same device availability trace).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def _stable_hash(name: str) -> int:
    """64-bit stable hash of a stream name (Python's hash() is salted)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


#: SplitMix64's Weyl increment (2^64 / golden ratio, odd).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
#: Its output function's shifts and multipliers, and a word's low half.
_S30, _S27, _S31, _S32 = map(np.uint64, (30, 27, 31, 32))
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function over a uint64 array (wrapping), mixed
    in place: ``z`` must be a fresh array of the caller's."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


class RowDraws:
    """Counter-keyed uniform draws for rows of a fleet-wide array plane.

    A row's ``n``-th draw is a pure function of ``(fleet seed, device id,
    n)`` — no generator object per row, no dependence on batch composition
    or order — so a whole batch of rows draws in one vectorised call.
    Each row is its own SplitMix64 stream: its key the (hashed) origin,
    its draw counter the position.  The owner keeps both as array columns
    (:meth:`keys` once per row, the counter advanced per draw), which
    snapshot with the rest of its state.
    """

    __slots__ = ("_key",)

    def __init__(self, key: int):
        self._key = np.uint64(key)

    def keys(self, device_ids: np.ndarray) -> np.ndarray:
        """Stream keys (uint64) for the rows of ``device_ids``."""
        return _mix64(self._key + device_ids.astype(np.uint64) * _GAMMA)

    @staticmethod
    def uniform_pair(
        keys: np.ndarray, counters: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw number ``counters[j]`` of row ``keys[j]``: two independent
        uniforms in ``[0, 1)`` (the high and low 32 bits of one output; an
        idle transition needs two — hazard and jitter, or pick and window)."""
        z = _mix64(keys + counters * _GAMMA)
        return (z >> _S32) * 2.0**-32, (z & _LOW32) * 2.0**-32


class RngRegistry:
    """Factory for independent, reproducible ``numpy.random.Generator`` streams.

    Example::

        rngs = RngRegistry(seed=42)
        device_rng = rngs.stream("device/123")
        network_rng = rngs.stream("network")
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def _seed_sequence(self, name: str) -> np.random.SeedSequence:
        """Where every stream is born: (fleet seed, hashed name)."""
        return np.random.SeedSequence([self._seed, _stable_hash(name)])

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically."""
        if name not in self._cache:
            self._cache[name] = self.fresh(name)
        return self._cache[name]

    def fresh(self, name: str) -> np.random.Generator:
        """A new generator for ``name`` not shared with previous callers."""
        return np.random.Generator(np.random.Philox(self._seed_sequence(name)))

    def row_draws(self, name: str) -> RowDraws:
        """The counter-keyed row streams under ``name`` (see :class:`RowDraws`)."""
        return RowDraws(int(self._seed_sequence(name).generate_state(1, np.uint64)[0]))

    def spawn(self, name: str, count: int) -> list[np.random.Generator]:
        """``count`` independent child generators under ``name``."""
        return [self.fresh(f"{name}/{i}") for i in range(count)]


#: A Philox state, packed: counter, key, buffer (the getter's arrays'
#: native bytes), buffer_pos, has_uint32, uinteger (92 bytes).
_PHILOX_STATE = struct.Struct("=10QiiI")
_PHILOX_TAIL = struct.Struct("=iiI")


class SessionStreams:
    """Per-row streams that outlive the objects drawing from them.

    Row ``i``'s stream is what :meth:`RngRegistry.fresh` gives its name,
    drawn across all its sessions.  Between them it is the packed Philox
    state it stopped at: :meth:`open` re-keys a pooled generator through
    the ``state`` setter (a row's first session derives its key, once),
    :meth:`close` packs the state back and pools the generator.
    """

    def __init__(self, registry: RngRegistry):
        self._registry = registry
        self._saved: dict[int, bytes] = {}
        self._open: dict[int, np.random.Generator] = {}
        self._pool: list[np.random.Generator] = []

    def open(self, row: int, name: str) -> np.random.Generator:
        """Row ``row``'s stream (named ``name``): open, or opened now."""
        generator = self._open.get(row)
        if generator is None:
            saved = self._saved.get(row)
            if saved is None:
                key = self._registry._seed_sequence(name).generate_state(2, np.uint64)
                state = (0, 0, 0, 0, *key.tolist(), 0, 0, 0, 0, 4, 0, 0)
            else:
                state = _PHILOX_STATE.unpack(saved)
            generator = self._pool.pop() if self._pool else self._registry.fresh(name)
            generator.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": state[:4], "key": state[4:6]},
                "buffer": state[6:10],
                "buffer_pos": state[10],
                "has_uint32": state[11],
                "uinteger": state[12],
            }
            self._open[row] = generator
        return generator

    def close(self, row: int) -> None:
        """Row ``row``'s session is over: keep where its stream stopped."""
        generator = self._open.pop(row, None)
        if generator is not None:
            state = generator.bit_generator.state
            self._saved[row] = b"".join((
                state["state"]["counter"].tobytes(),
                state["state"]["key"].tobytes(),
                state["buffer"].tobytes(),
                _PHILOX_TAIL.pack(state["buffer_pos"], state["has_uint32"], state["uinteger"]),
            ))
            self._pool.append(generator)


def standalone_stream(seed: int = 0) -> np.random.Generator:
    """A pinned generator for components constructed *outside* a fleet.

    Components that are unit-usable on their own (``DeviceActor``,
    ``TaskScheduler``) accept an optional generator and need a
    deterministic fallback when none is passed.  In-fleet wiring always
    passes a registry stream explicitly; this fallback exists so direct
    construction stays reproducible without reaching for ambient
    ``np.random.default_rng`` at the call site (the no-ambient-rng
    contract — this module is the one place generators are born).
    """
    return np.random.default_rng(int(seed))
