"""Checkpoint/resume determinism and validation.

The central guarantee: interrupting a run at *any* minor-iteration
boundary, serializing the engine to JSON, deserializing, and resuming
yields a final :class:`SearchResult` **identical** to the uninterrupted
run — same neighbors, bit-equal probabilities, same reason, same
session records.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import (
    DatasetPrecomputation,
    EnginePhase,
    SearchEngine,
    ViewRequest,
)
from repro.core.search import InteractiveNNSearch, drive_pending
from repro.core.serialization import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    checkpoint_to_dict,
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.exceptions import CheckpointError, EngineStateError
from repro.interaction.base import validate_decision
from repro.interaction.oracle import OracleUser

CONFIG = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=3,
    projection_restarts=2,
)

#: A config whose every field differs from the SearchConfig default.
OFF_DEFAULT_CONFIG = SearchConfig(
    support=11,
    axis_parallel=True,
    grid_resolution=24,
    bandwidth_scale=0.5,
    overlap_threshold=0.9,
    min_major_iterations=2,
    max_major_iterations=4,
    projection_restarts=2,
    projection_weight=2.0,
    remove_unpicked=False,
    use_live_population=False,
    kde_mode="binned",
    kde_subsample=1024,
    rng_seed=5,
)


@pytest.fixture
def clustered(small_clustered):
    return small_clustered.dataset


def _baseline(dataset, query_index):
    return InteractiveNNSearch(dataset, CONFIG).run(
        dataset.points[query_index], OracleUser(dataset, query_index)
    )


def _assert_identical(result, baseline):
    assert np.array_equal(result.neighbor_indices, baseline.neighbor_indices)
    assert np.array_equal(result.probabilities, baseline.probabilities)
    assert result.reason == baseline.reason
    assert result.support == baseline.support
    base_session = baseline.session
    session = result.session
    assert session.total_views == base_session.total_views
    assert session.accepted_views == base_session.accepted_views
    for got, expected in zip(session.minor_records, base_session.minor_records):
        assert got.major_index == expected.major_index
        assert got.minor_index == expected.minor_index
        assert got.accepted == expected.accepted
        assert got.threshold == expected.threshold
        assert np.array_equal(got.selected_indices, expected.selected_indices)
        assert np.array_equal(got.subspace.basis, expected.subspace.basis)
    for got, expected in zip(session.major_records, base_session.major_records):
        assert got == expected
    for got, expected in zip(
        session.probability_history, base_session.probability_history
    ):
        assert np.array_equal(got, expected)


def test_resume_identical_at_every_minor_boundary(clustered):
    """Interrupt/serialize/resume at each boundary: results byte-equal.

    Each checkpoint is resumed twice: into a standalone engine, and
    into one sharing a precomputation whose statistics were installed
    from an export, as a batch worker process resumes.
    """
    qi = int(clustered.cluster_indices(0)[0])
    baseline = _baseline(clustered, qi)
    total = baseline.session.total_views
    shared = DatasetPrecomputation(clustered)
    shared.install_state(
        DatasetPrecomputation(clustered).export_state(compute=True)
    )

    for interrupt_at in range(1, total + 1):
        user = OracleUser(clustered, qi)
        engine = SearchEngine(clustered, CONFIG)
        event = engine.start(clustered.points[qi])
        while isinstance(event, ViewRequest) and event.step < interrupt_at:
            decision = validate_decision(user.review_view(event.view), event.view)
            event = engine.submit(decision)
        assert isinstance(event, ViewRequest)

        # Full JSON round-trip, as a file on disk would do.
        text = json.dumps(checkpoint_to_dict(engine))
        engine.close()

        for precomputed in (None, shared):
            resumed, pending = resume_engine(
                json.loads(text), clustered, precomputed=precomputed
            )
            assert resumed.phase == EnginePhase.AWAITING_DECISION
            # The recomputed pending view is identical to the interrupted one.
            assert pending.step == event.step
            assert pending.major_index == event.major_index
            assert pending.minor_index == event.minor_index
            assert np.array_equal(
                pending.view.subspace.basis, event.view.subspace.basis
            )
            assert np.array_equal(
                pending.view.projected_points, event.view.projected_points
            )

            result = drive_pending(resumed, pending, OracleUser(clustered, qi))
            _assert_identical(result, baseline)


def test_save_and_load_checkpoint_roundtrip(tmp_path, clustered):
    qi = int(clustered.cluster_indices(1)[0])
    engine = SearchEngine(clustered, CONFIG)
    event = engine.start(clustered.points[qi])
    user = OracleUser(clustered, qi)
    for _ in range(3):
        event = engine.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
        assert isinstance(event, ViewRequest)

    path = save_checkpoint(engine, tmp_path / "run.ckpt.json")
    engine.close()
    payload = load_checkpoint(path)
    assert payload["format"] == CHECKPOINT_FORMAT
    assert payload["version"] == CHECKPOINT_VERSION

    resumed, pending = resume_engine(payload, clustered)
    result = drive_pending(resumed, pending, OracleUser(clustered, qi))
    _assert_identical(result, _baseline(clustered, qi))

    # Every SearchConfig field off its default survives the round trip.
    assert all(
        getattr(OFF_DEFAULT_CONFIG, f.name) != f.default
        for f in dataclasses.fields(SearchConfig)
    )
    engine = SearchEngine(clustered, OFF_DEFAULT_CONFIG)
    engine.start(clustered.points[qi])
    path = save_checkpoint(engine, tmp_path / "off-default.ckpt.json")
    engine.close()
    payload = load_checkpoint(path)
    assert payload["config"] == dataclasses.asdict(OFF_DEFAULT_CONFIG)
    resumed, _ = resume_engine(payload, clustered)
    assert resumed.config == OFF_DEFAULT_CONFIG
    resumed.close()


def test_checkpoint_requires_pending_decision(clustered):
    engine = SearchEngine(clustered, CONFIG)
    with pytest.raises(EngineStateError):
        checkpoint_to_dict(engine)  # never started
    qi = int(clustered.cluster_indices(0)[0])
    result = InteractiveNNSearch(clustered, CONFIG).run(
        clustered.points[qi], OracleUser(clustered, qi)
    )
    assert result is not None
    finished = SearchEngine(clustered, CONFIG)
    event = finished.start(clustered.points[qi])
    user = OracleUser(clustered, qi)
    while isinstance(event, ViewRequest):
        event = finished.submit(
            validate_decision(user.review_view(event.view), event.view)
        )
    with pytest.raises(EngineStateError):
        checkpoint_to_dict(finished)  # already finished


def _suspended_checkpoint(dataset, query_index):
    engine = SearchEngine(dataset, CONFIG)
    engine.start(dataset.points[query_index])
    payload = checkpoint_to_dict(engine)
    engine.close()
    return payload


def test_resume_rejects_wrong_format_and_version(clustered):
    payload = _suspended_checkpoint(clustered, 0)
    bad_format = dict(payload, format="something-else")
    with pytest.raises(CheckpointError):
        resume_engine(bad_format, clustered)
    bad_version = dict(payload, version=CHECKPOINT_VERSION + 1)
    with pytest.raises(CheckpointError):
        resume_engine(bad_version, clustered)
    # Version 1 (arrays as JSON number lists) has no reader.
    with pytest.raises(CheckpointError, match="version 1"):
        resume_engine(dict(payload, version=1), clustered)
    with pytest.raises(CheckpointError):
        resume_engine({"format": CHECKPOINT_FORMAT}, clustered)


def test_resume_rejects_mismatched_dataset(clustered, small_uniform):
    payload = _suspended_checkpoint(clustered, 0)
    with pytest.raises(CheckpointError, match="dataset mismatch"):
        resume_engine(payload, small_uniform)


def test_resume_rejects_tampered_points(clustered):
    payload = _suspended_checkpoint(clustered, 0)
    from dataclasses import replace

    perturbed = replace(clustered, points=clustered.points + 1e-9)
    with pytest.raises(CheckpointError, match="sha256"):
        resume_engine(payload, perturbed)


def test_resume_rejects_malformed_state(clustered):
    payload = _suspended_checkpoint(clustered, 0)
    broken = json.loads(json.dumps(payload))
    del broken["state"]["rng_state"]
    with pytest.raises(CheckpointError, match="malformed"):
        resume_engine(broken, clustered)


def test_load_checkpoint_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "not_a_checkpoint.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
