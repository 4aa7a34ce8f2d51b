"""Unit and behavioural tests for the InteractiveNNSearch driver (Fig. 2)."""

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import TerminationReason
from repro.core.search import InteractiveNNSearch
from repro.exceptions import DimensionalityError
from repro.interaction.oracle import OracleUser
from repro.interaction.scripted import AcceptEverythingUser, CallbackUser
from repro.interaction.base import UserDecision


FAST = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=3,
    projection_restarts=2,
)


class TestRunBasics:
    def test_returns_support_neighbors(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        search = InteractiveNNSearch(ds, FAST)
        result = search.run(ds.points[qi], OracleUser(ds, qi))
        assert result.neighbor_indices.size == result.support
        assert result.support == max(15, ds.dim)
        assert result.probabilities.shape == (ds.size,)

    def test_query_dimension_check(self, small_clustered):
        ds = small_clustered.dataset
        search = InteractiveNNSearch(ds, FAST)
        with pytest.raises(DimensionalityError):
            search.run(np.zeros(ds.dim + 1), AcceptEverythingUser())

    def test_probabilities_bounded(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(1)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        assert np.all((result.probabilities >= 0) & (result.probabilities <= 1))

    def test_neighbors_sorted_by_probability(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        probs = result.neighbor_probabilities
        assert np.all(np.diff(probs) <= 1e-12)

    def test_deterministic(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        a = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        b = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
        assert np.allclose(a.probabilities, b.probabilities)

    def test_default_config(self, small_clustered):
        ds = small_clustered.dataset
        search = InteractiveNNSearch(ds)
        assert search.config.support == 20
        assert search.dataset is ds


class TestRetrievalQuality:
    def test_oracle_finds_cluster_members(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        true = set(ds.cluster_indices(0).tolist())
        hits = sum(1 for i in result.neighbor_indices.tolist() if i in true)
        assert hits / result.neighbor_indices.size > 0.8

    def test_high_probability_points_are_members(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(2)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        confident = np.flatnonzero(result.probabilities > 0.8)
        if confident.size:
            members = ds.labels[confident] == ds.label_of(qi)
            assert members.mean() > 0.8


class TestSessionRecords:
    def test_views_per_major_iteration(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        majors = result.session.major_records
        assert len(majors) >= 2
        for record in majors:
            assert len(record.pick_counts) == ds.dim // 2

    def test_minor_records_complete(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        session = result.session
        assert session.total_views == len(session.major_records) * (ds.dim // 2)
        first = session.minor_records[0]
        assert first.live_count == ds.size
        assert first.subspace.dim == 2

    def test_probability_history_snapshots(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        history = result.session.probability_history
        assert len(history) == len(result.session.major_records)
        assert np.allclose(history[-1], result.probabilities)

    def test_pruning_shrinks_live_set(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        first = result.session.major_records[0]
        assert first.live_count_after <= first.live_count_before

    def test_profile_quality_by_minor_index(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        quality = result.session.profile_quality_by_minor_index()
        assert set(quality) == set(range(ds.dim // 2))


class TestEdgeBehaviour:
    def test_all_rejections_keeps_live_set(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        reject_all = CallbackUser(lambda v: UserDecision.reject(v.n_points))
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], reject_all)
        # With no picks ever, nothing is pruned and probabilities are 0.
        assert np.allclose(result.probabilities, 0.0)
        for record in result.session.major_records:
            assert record.live_count_after == record.live_count_before

    def test_accept_everything_yields_no_discrimination(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        result = InteractiveNNSearch(ds, FAST).run(
            ds.points[qi], AcceptEverythingUser()
        )
        # Everyone picked every time: variance 0, probabilities all 0.
        assert np.allclose(result.probabilities, 0.0)

    def test_no_pruning_config(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        cfg = SearchConfig(
            support=15,
            grid_resolution=30,
            min_major_iterations=2,
            max_major_iterations=2,
            projection_restarts=2,
            remove_unpicked=False,
        )
        result = InteractiveNNSearch(ds, cfg).run(ds.points[qi], OracleUser(ds, qi))
        for record in result.session.major_records:
            assert record.live_count_after == record.live_count_before

    def test_termination_reason_enum(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        result = InteractiveNNSearch(ds, FAST).run(ds.points[qi], OracleUser(ds, qi))
        assert result.reason in (
            TerminationReason.STABLE,
            TerminationReason.ITERATION_LIMIT,
        )

    def test_axis_parallel_mode(self, small_clustered):
        ds = small_clustered.dataset
        qi = int(ds.cluster_indices(0)[0])
        cfg = SearchConfig(
            support=15,
            grid_resolution=30,
            min_major_iterations=2,
            max_major_iterations=2,
            projection_restarts=2,
            axis_parallel=True,
        )
        result = InteractiveNNSearch(ds, cfg).run(ds.points[qi], OracleUser(ds, qi))
        for record in result.session.minor_records:
            assert record.subspace.is_axis_parallel()

    def test_query_not_in_dataset(self, small_clustered):
        ds = small_clustered.dataset
        anchor = small_clustered.clusters[0].anchor
        result = InteractiveNNSearch(ds, FAST).run(
            anchor, AcceptEverythingUser()
        )
        assert result.neighbor_indices.size > 0
