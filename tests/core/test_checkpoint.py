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

import repro.core.engine as engine_module
from repro.core.arraycodec import decode_floats, encode_array
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
from repro.density.cache import disabled_density_cache
from repro.exceptions import CheckpointError, EngineStateError
from repro.interaction.base import validate_decision
from repro.interaction.oracle import OracleUser
from repro.obs.metrics import counter

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
    # Three restarts: the third draws axes from the RNG, so resuming
    # under this config checks that the RNG state is restored exactly.
    projection_restarts=3,
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


def _baseline(dataset, query_index, config=CONFIG):
    return InteractiveNNSearch(dataset, config).run(
        dataset.points[query_index], OracleUser(dataset, query_index)
    )


def _suspend_at(dataset, config, query_index, step):
    """An engine driven by the oracle up to its view request *step*."""
    user = OracleUser(dataset, query_index)
    engine = SearchEngine(dataset, config)
    event = engine.start(dataset.points[query_index])
    while isinstance(event, ViewRequest) and event.step < step:
        decision = validate_decision(user.review_view(event.view), event.view)
        event = engine.submit(decision)
    assert isinstance(event, ViewRequest)
    return engine, event


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


def _check_resume_at_every_boundary(dataset, config):
    """Interrupt/serialize/resume at each boundary: results byte-equal.

    Each checkpoint is resumed twice: into a standalone engine, and
    into one sharing a precomputation whose statistics were installed
    from an export, as a batch worker process resumes.  The installed
    pending view must equal the interrupted one bit for bit, density
    grid included.
    """
    qi = int(dataset.cluster_indices(0)[0])
    baseline = _baseline(dataset, qi, config)
    total = baseline.session.total_views
    shared = DatasetPrecomputation(dataset)
    shared.install_state(DatasetPrecomputation(dataset).export_state(compute=True))
    views_per_major = dataset.dim // 2
    last_minor_checkpoints = 0

    for interrupt_at in range(1, total + 1):
        engine, event = _suspend_at(dataset, config, qi, interrupt_at)
        # Full JSON round-trip, as a file on disk would do.
        text = json.dumps(checkpoint_to_dict(engine))
        engine.close()
        if event.minor_index == views_per_major - 1:
            # The last view of a major leaves a remainder too small to
            # project from; its (0- or 1-row) basis still round-trips.
            remainder = json.loads(text)["state"]["pending"]["remainder"]
            assert remainder["shape"][0] < 2
            last_minor_checkpoints += 1

        for precomputed in (None, shared):
            resumed, pending = resume_engine(
                json.loads(text), dataset, precomputed=precomputed
            )
            assert resumed.phase == EnginePhase.AWAITING_DECISION
            # The installed pending view is identical to the interrupted one.
            assert pending.step == event.step
            assert pending.major_index == event.major_index
            assert pending.minor_index == event.minor_index
            assert np.array_equal(
                pending.view.subspace.basis, event.view.subspace.basis
            )
            assert np.array_equal(
                pending.view.projected_points, event.view.projected_points
            )
            assert np.array_equal(
                pending.view.profile.grid.density, event.view.profile.grid.density
            )

            result = drive_pending(resumed, pending, OracleUser(dataset, qi))
            _assert_identical(result, baseline)
    assert last_minor_checkpoints > 0


def test_resume_identical_at_every_minor_boundary(clustered):
    _check_resume_at_every_boundary(clustered, CONFIG)


@pytest.mark.parametrize(
    "config", [CONFIG, OFF_DEFAULT_CONFIG], ids=["exact", "binned_axis_parallel"]
)
def test_resume_identical_with_cold_density_cache(clustered, config):
    """With grid caching off, every resumed profile is recomputed from
    the stored projection, so bit-equality cannot come from the cache;
    in exact mode and in binned axis-parallel mode."""
    with disabled_density_cache():
        _check_resume_at_every_boundary(clustered, config)


def test_resume_runs_no_projection_search(clustered, monkeypatch):
    """Resuming installs the stored view: no search, no randomness."""
    qi = int(clustered.cluster_indices(0)[0])
    engine, event = _suspend_at(clustered, CONFIG, qi, 3)
    payload = json.loads(json.dumps(checkpoint_to_dict(engine)))
    rng_state = engine.state.rng.bit_generator.state
    rng_state_at_view = engine.state.rng_state_at_view
    engine.close()

    def refuse(*args, **kwargs):
        raise AssertionError("resume ran a projection search")

    monkeypatch.setattr(engine_module, "find_query_centered_projection", refuse)
    minors = counter("search.minor_iterations").value
    resumed, pending = resume_engine(payload, clustered)
    assert counter("search.minor_iterations").value == minors
    assert resumed.state.rng.bit_generator.state == rng_state
    assert resumed.state.rng_state_at_view == rng_state_at_view
    assert pending.step == event.step
    assert payload["state"]["step"] == event.step
    resumed.close()


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
    engine, _ = _suspend_at(dataset, CONFIG, query_index, 1)
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
    # Version 1 (arrays as JSON number lists) and version 2 (no pending
    # projection: resume replayed the search) have no reader.
    for old_version in (1, 2):
        with pytest.raises(CheckpointError, match=f"version {old_version}"):
            resume_engine(dict(payload, version=old_version), clustered)
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


def _scaled(array_payload, factor):
    return encode_array(decode_floats(array_payload) * factor)


def _drop_last_column(array_payload):
    return encode_array(decode_floats(array_payload)[:, :-1])


def test_resume_rejects_malformed_state(clustered):
    payload = _suspended_checkpoint(clustered, 0)
    broken = json.loads(json.dumps(payload))
    del broken["state"]["rng_state"]
    with pytest.raises(CheckpointError, match="malformed"):
        resume_engine(broken, clustered)

    # Bases that decode but are not orthonormal bases of R^d, and the
    # other decodable-but-invalid fields, are CheckpointErrors (a
    # service maps them to 410), never SubspaceError/DimensionalityError.
    qi = int(clustered.cluster_indices(0)[0])
    engine, _ = _suspend_at(clustered, CONFIG, qi, 3)
    payload = json.loads(json.dumps(checkpoint_to_dict(engine)))
    engine.close()
    assert payload["state"]["session"]["minor_records"]
    pending = ("state", "pending")
    minor_record = ("state", "session", "minor_records", 0)
    damages = [
        (("state",), "current_basis", lambda a: _scaled(a, 2.0)),
        (("state",), "current_basis", _drop_last_column),
        (pending, "projection", lambda a: _scaled(a, 2.0)),
        (pending, "projection", _drop_last_column),
        (pending, "projection", lambda a: encode_array(np.eye(3, clustered.dim))),
        (pending, "remainder", lambda a: _scaled(a, 2.0)),
        (pending, "remainder", _drop_last_column),
        (pending, "remainder", lambda a: encode_array(np.ones(clustered.dim))),
        (pending, "refinement_dims", lambda a: "not dims"),
        (minor_record, "basis", lambda a: _scaled(a, 2.0)),
        (minor_record, "basis", _drop_last_column),
        (("state",), "query", lambda a: encode_array(np.zeros(3))),
        (("state",), "rng_state_at_view", lambda a: {"bit_generator": "PCG64"}),
    ]
    for path, key, damage in damages:
        broken = json.loads(json.dumps(payload))
        owner = broken
        for part in path:
            owner = owner[part]
        owner[key] = damage(owner[key])
        with pytest.raises(CheckpointError):
            resume_engine(broken, clustered)


def test_load_checkpoint_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "not_a_checkpoint.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
