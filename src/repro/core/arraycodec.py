"""Typed-array codec for engine checkpoints and service view events.

A numpy array travels as one JSON object::

    {"dtype": "<f8", "shape": [500, 2], "b64": "..."}

``b64`` holds the array's exact little-endian bytes (C order),
base64-encoded.  Floats therefore survive bit for bit, and encoding is
one ``tobytes`` plus one base64 pass instead of a Python float per
element.

Index vectors (live sets, selected points) use the narrowest unsigned
dtype that holds every index of the dataset (:func:`index_dtype`), and
decode back to ``np.intp`` after a range check, so digests computed
over decoded indices see the same bytes as over the originals.

Every malformation — an unknown dtype tag, a shape that does not match
the byte count, invalid base64, an out-of-range index — raises
:class:`~repro.exceptions.CheckpointError`.
"""

from __future__ import annotations

import base64
import binascii
import math
from typing import Any

import numpy as np

from repro.exceptions import CheckpointError

__all__ = [
    "index_dtype",
    "encode_array",
    "encode_indices",
    "decode_array",
    "decode_floats",
    "decode_indices",
]

#: The dtype tags a payload may name: float64 values and index arrays.
DTYPE_TAGS = frozenset({"<f8", "<u2", "<u4", "<u8"})


def index_dtype(size: int) -> str:
    """The narrowest unsigned tag holding every index below *size*."""
    if size <= 1 << 16:
        return "<u2"
    if size <= 1 << 32:
        return "<u4"
    return "<u8"


def encode_array(values: Any, dtype: str | None = None) -> dict[str, Any]:
    """Encode an array (cast to *dtype* when given) as a typed-array object."""
    arr = np.asarray(values)
    tag = np.dtype(dtype or arr.dtype).newbyteorder("<").str
    if tag not in DTYPE_TAGS:
        raise TypeError(f"cannot encode arrays of dtype {arr.dtype}")
    return {
        "dtype": tag,
        "shape": list(arr.shape),
        "b64": base64.b64encode(arr.astype(tag, copy=False).tobytes()).decode(
            "ascii"
        ),
    }


def encode_indices(indices: Any, size: int) -> dict[str, Any]:
    """Encode indices into a dataset of *size* points (see :func:`index_dtype`)."""
    return encode_array(indices, index_dtype(size))


def decode_array(payload: Any) -> np.ndarray:
    """Decode a typed-array object into a fresh, writable native array."""
    if not isinstance(payload, dict) or set(payload) != {"dtype", "shape", "b64"}:
        raise CheckpointError(
            "array must be an object with exactly 'dtype', 'shape' and 'b64'"
        )
    tag, shape, text = payload["dtype"], payload["shape"], payload["b64"]
    if tag not in DTYPE_TAGS:
        raise CheckpointError(f"unknown array dtype {tag!r}")
    if not isinstance(shape, list) or any(
        not isinstance(n, int) or isinstance(n, bool) or n < 0 for n in shape
    ):
        raise CheckpointError(f"array shape must be non-negative integers: {shape!r}")
    if not isinstance(text, str):
        raise CheckpointError("array 'b64' must be a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise CheckpointError(f"array bytes are not valid base64: {exc}") from exc
    dtype = np.dtype(tag)
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise CheckpointError(
            f"array of shape {shape} and dtype {tag} needs "
            f"{math.prod(shape) * dtype.itemsize} bytes, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(
        dtype.newbyteorder("=")
    )


def decode_floats(payload: Any) -> np.ndarray:
    """Decode a float64 array; any other dtype is rejected."""
    if isinstance(payload, dict) and payload.get("dtype") != "<f8":
        raise CheckpointError(
            f"expected a float64 array, got dtype {payload.get('dtype')!r}"
        )
    return decode_array(payload)


def decode_indices(payload: Any, size: int) -> np.ndarray:
    """Decode indices into a dataset of *size* points as ``np.intp``."""
    arr = decode_array(payload)
    if arr.dtype.kind != "u":
        raise CheckpointError(f"index arrays must be unsigned, got {arr.dtype}")
    if arr.size and int(arr.max()) >= size:
        raise CheckpointError(
            f"index {int(arr.max())} out of range for {size} points"
        )
    return arr.astype(np.intp)
