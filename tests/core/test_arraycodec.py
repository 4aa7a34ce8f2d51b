"""The typed-array codec shared by checkpoints and view events.

Round trips are bit-exact for every supported dtype and shape (empty,
0-d, non-contiguous, big-endian input); every malformation raises
:class:`~repro.exceptions.CheckpointError`, both from the codec and
through :func:`~repro.core.serialization.resume_engine`.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.arraycodec import (
    decode_array,
    decode_floats,
    decode_indices,
    encode_array,
    encode_indices,
    index_dtype,
)
from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine
from repro.core.serialization import (
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    resume_engine,
)
from repro.exceptions import CheckpointError

#: Every tag the codec writes, plus big-endian inputs it must normalise.
DTYPES = ["<f8", ">f8", "<u2", ">u2", "<u4", "<u8"]


@st.composite
def arrays(draw):
    """Arrays of every supported dtype, including empty and 0-d ones,
    sometimes viewed through a strided (non-contiguous) slice."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    arr = draw(hnp.arrays(dtype, shape))
    if arr.ndim and draw(st.booleans()):
        arr = arr[::2]
    return arr


@given(arrays())
@settings(max_examples=200, deadline=None)
def test_round_trip_is_bit_exact(arr):
    payload = json.loads(json.dumps(encode_array(arr)))
    decoded = decode_array(payload)
    assert decoded.shape == arr.shape
    assert decoded.dtype == arr.dtype.newbyteorder("=")
    assert decoded.dtype.isnative
    assert decoded.flags.writeable and decoded.flags.c_contiguous
    assert decoded.tobytes() == arr.astype(decoded.dtype).tobytes()


@given(arrays())
@settings(max_examples=50, deadline=None)
def test_payload_names_little_endian_bytes(arr):
    payload = encode_array(arr)
    assert payload["dtype"] == arr.dtype.newbyteorder("<").str
    assert payload["shape"] == list(arr.shape)
    raw = base64.b64decode(payload["b64"])
    assert raw == arr.astype(payload["dtype"]).tobytes()


def test_floats_keep_nan_inf_and_signed_zero():
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0])
    decoded = decode_floats(encode_array(values))
    assert decoded.tobytes() == values.tobytes()


@pytest.mark.parametrize(
    ("size", "tag"),
    [(1, "<u2"), (65_536, "<u2"), (65_537, "<u4"), (1 << 32, "<u4"), ((1 << 32) + 1, "<u8")],
)
def test_index_dtype_is_narrowest_that_holds_size_minus_one(size, tag):
    assert index_dtype(size) == tag
    assert np.iinfo(np.dtype(tag)).max >= size - 1


def test_indices_round_trip_to_intp():
    indices = np.array([0, 7, 65_535], dtype=np.intp)
    payload = encode_indices(indices, 65_536)
    assert payload["dtype"] == "<u2"
    decoded = decode_indices(payload, 65_536)
    assert decoded.dtype == np.intp
    assert decoded.tobytes() == indices.tobytes()
    wide = encode_indices(np.array([65_536]), 70_000)
    assert wide["dtype"] == "<u4"
    assert decode_indices(wide, 70_000).tolist() == [65_536]


def _valid():
    return encode_array(np.arange(6.0).reshape(3, 2))


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda p: p.update(dtype="<c16"), id="unknown-dtype"),
        pytest.param(lambda p: p.update(dtype="<i8"), id="signed-dtype"),
        pytest.param(lambda p: p.update(dtype="|O"), id="object-dtype"),
        pytest.param(lambda p: p.update(shape=[4, 2]), id="shape-too-large"),
        pytest.param(lambda p: p.update(shape=[3, 1]), id="shape-too-small"),
        pytest.param(lambda p: p.update(shape=[-3, -2]), id="negative-shape"),
        pytest.param(lambda p: p.update(shape="3x2"), id="shape-not-list"),
        pytest.param(lambda p: p.update(b64=p["b64"][:-4]), id="truncated-bytes"),
        pytest.param(lambda p: p.update(b64="!!not base64!!"), id="invalid-base64"),
        pytest.param(lambda p: p.update(b64=7), id="b64-not-string"),
        pytest.param(lambda p: p.pop("shape"), id="missing-key"),
        pytest.param(lambda p: p.update(extra=1), id="extra-key"),
    ],
)
def test_decode_rejects_malformed_payloads(damage):
    payload = _valid()
    damage(payload)
    with pytest.raises(CheckpointError):
        decode_array(payload)


def test_decode_rejects_non_objects():
    for payload in ([0.0, 1.0], "AAAA", None):
        with pytest.raises(CheckpointError):
            decode_array(payload)


def test_decode_floats_rejects_other_dtypes():
    with pytest.raises(CheckpointError, match="float64"):
        decode_floats(encode_array(np.arange(3), "<u4"))


def test_encode_rejects_unsupported_dtypes():
    for values in (np.arange(3, dtype=np.int64), np.ones(2, dtype=bool)):
        with pytest.raises(TypeError):
            encode_array(values)


def test_decode_indices_rejects_out_of_range_and_floats():
    with pytest.raises(CheckpointError, match="out of range"):
        decode_indices(encode_indices(np.array([0, 10]), 10), 10)
    with pytest.raises(CheckpointError, match="unsigned"):
        decode_indices(encode_array(np.array([0.0, 1.0])), 10)
    assert decode_indices(encode_indices(np.array([], dtype=int), 10), 10).size == 0


# ----------------------------------------------------------------------
# Through the checkpoint: every damaged array is a CheckpointError
# ----------------------------------------------------------------------
CONFIG = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=3,
    projection_restarts=2,
)


@pytest.fixture
def checkpoint_bytes(small_clustered):
    dataset = small_clustered.dataset
    engine = SearchEngine(dataset, CONFIG)
    engine.start(dataset.points[0])
    payload = checkpoint_to_bytes(engine)
    engine.close()
    return payload


def _damaged(checkpoint_bytes, field, **changes):
    checkpoint = checkpoint_from_bytes(checkpoint_bytes)
    checkpoint["state"][field].update(changes)
    return checkpoint_from_bytes(json.dumps(checkpoint).encode("utf-8"))


@pytest.mark.parametrize(
    ("field", "changes"),
    [
        ("live", {"dtype": "<c8"}),
        ("query", {"shape": [3]}),
        ("current_basis", {"b64": "%%%%"}),
    ],
    ids=["unknown-dtype", "length-mismatch", "invalid-base64"],
)
def test_resume_rejects_damaged_arrays(small_clustered, checkpoint_bytes, field, changes):
    checkpoint = _damaged(checkpoint_bytes, field, **changes)
    with pytest.raises(CheckpointError):
        resume_engine(checkpoint, small_clustered.dataset)


def test_resume_rejects_index_beyond_dataset(small_clustered, checkpoint_bytes):
    dataset = small_clustered.dataset
    live = np.arange(dataset.size)
    live[-1] = dataset.size
    checkpoint = _damaged(
        checkpoint_bytes, "live", **encode_indices(live, dataset.size)
    )
    with pytest.raises(CheckpointError, match="out of range"):
        resume_engine(checkpoint, dataset)


def test_checkpoint_arrays_use_the_index_dtype(small_clustered, checkpoint_bytes):
    state = checkpoint_from_bytes(checkpoint_bytes)["state"]
    assert state["live"]["dtype"] == index_dtype(small_clustered.dataset.size)
    assert state["query"]["dtype"] == "<f8"
    assert state["preferences"]["counts"]["dtype"] == "<f8"
    assert state["accumulator"]["sums"]["dtype"] == "<f8"
