"""Checkpoint (de)serialization.

An *FL checkpoint* (Sec. 2.1) is "essentially the serialized state of a
TensorFlow session".  Here it is the byte image of a
:class:`~repro.nn.parameters.Parameters` collection; sizes derived from
these bytes drive the network model and Fig. 9's traffic accounting.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.nn.parameters import ParameterLayout, Parameters

_MAGIC = b"FLCK"
_VERSION = 1


def params_to_bytes(params: Parameters) -> bytes:
    """Serialize to a compact self-describing binary blob."""
    parts = [_MAGIC, struct.pack("<HI", _VERSION, len(params))]
    for name, arr in params.items():
        encoded_name = name.encode("utf-8")
        arr64 = np.asarray(arr, dtype=np.float64)
        parts.append(struct.pack(
            f"<H{len(encoded_name)}sB{arr64.ndim}Q",
            len(encoded_name), encoded_name, arr64.ndim, *arr64.shape,
        ))
        parts.append(arr64.tobytes())  # C order, whatever the layout
    return b"".join(parts)


def params_from_bytes(blob: bytes) -> Parameters:
    """Inverse of :func:`params_to_bytes`, in one pass over ``blob``: the
    arrays are copied out of it into one flat-backed vector (see
    :meth:`~repro.nn.parameters.ParameterLayout.unflatten`).  A blob that
    ends early, or has bytes after its last array, is refused with a
    ``ValueError``."""
    if blob[:4] != _MAGIC:
        raise ValueError(f"not an FL checkpoint (magic={bytes(blob[:4])!r})")
    shapes: dict[str, tuple[int, ...]] = {}
    starts, at = [], 10
    try:
        version, count = struct.unpack_from("<HI", blob, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, at)
            name = blob[at + 2 : at + 2 + name_len].decode("utf-8")
            at += 2 + name_len
            if name in shapes:
                raise ValueError(f"FL checkpoint names {name!r} twice")
            shape = shapes[name] = struct.unpack_from(f"<{blob[at]}Q", blob, at + 1)
            starts.append(at + 1 + 8 * len(shape))
            at = starts[-1] + 8 * math.prod(shape)
    except (struct.error, IndexError):
        raise ValueError("truncated FL checkpoint") from None
    if at != len(blob):
        problem = "is truncated" if at > len(blob) else f"has {len(blob) - at} trailing bytes"
        raise ValueError(f"FL checkpoint {problem}")
    layout = ParameterLayout(shapes)
    flat = layout.empty()
    for start, offset, size in zip(starts, layout.offsets, layout.sizes):
        flat[offset : offset + size] = np.frombuffer(blob, np.float64, size, start)
    return layout.unflatten(flat)


def checkpoint_nbytes(params: Parameters) -> int:
    """Size of the serialized checkpoint without materialising it."""
    return 10 + sum(
        3 + len(name.encode("utf-8")) + 8 * (a.ndim + a.size) for name, a in params.items()
    )
