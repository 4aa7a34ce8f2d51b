"""Workload definitions and helpers shared by the benchmark's processes.

Every workload searches a projected-cluster data set (d=20, four
axis-parallel clusters of dimension 5, 10 % uniform noise) generated
from the workload seed, with :class:`~repro.interaction.oracle.OracleUser`
(the paper's idealised human of section 4.1) answering every view.
The program only ever sees these generated inputs.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Default workload seed; ``HOLDOUT_SEED`` is kept out of tuning so that
#: later performance claims can be re-checked on inputs nobody tuned on.
DEFAULT_SEED = 1
HOLDOUT_SEED = 977


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``query_seconds`` is the nominal wall time of one query on a 2-core
    x86-64 host.  A run of ``--seconds S`` measures queries until it has
    completed ``round(S / query_seconds)`` of them and at least
    :data:`MIN_STEPS` steps, so the work (and every count) is fixed by
    the seed and ``S`` alone.
    """

    name: str
    n_points: int
    kde_mode: str
    service: bool
    query_seconds: float
    probe_hz: float
    config: dict[str, Any] = field(default_factory=dict)
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_exact",
            n_points=3000,
            kde_mode="exact",
            service=False,
            query_seconds=2.0,
            probe_hz=40.0,
            config={"max_major_iterations": 5, "min_major_iterations": 5},
            why="paper-scale dialogue in process; step cost is grid work "
            "(exact KDE, merge tree, projection search)",
        ),
        Workload(
            name="large_binned",
            n_points=30000,
            kde_mode="binned",
            service=False,
            query_seconds=5.6,
            probe_hz=20.0,
            config={"max_major_iterations": 2, "min_major_iterations": 2},
            why="O(n) layers dominate: projection search and the exact "
            "statistics of accepted binned views",
        ),
        Workload(
            name="service_resume",
            n_points=5000,
            kde_mode="exact",
            service=True,
            query_seconds=8.0,
            probe_hz=20.0,
            config={"max_major_iterations": 3, "min_major_iterations": 3},
            why="HTTP service: every decision resumes from checkpoint bytes "
            "and blocks the event loop; /healthz probes measure the stall",
        ),
    )
}

def search_config(workload: Workload):
    from repro.core.config import SearchConfig

    return SearchConfig(kde_mode=workload.kde_mode, **workload.config)


def make_dataset(workload: Workload, seed: int):
    from repro.data.synthetic import (
        ProjectedClusterSpec,
        generate_projected_clusters,
    )

    spec = ProjectedClusterSpec(
        n_points=workload.n_points,
        dim=20,
        n_clusters=4,
        cluster_dim=5,
        axis_parallel=True,
        noise_fraction=0.1,
    )
    return generate_projected_clusters(
        spec, np.random.default_rng([seed, 0])
    ).dataset


#: Minimum measured steps per run, so that p90 has ten samples beyond it.
MIN_STEPS = 100


def target_queries(workload: Workload, seconds: int) -> int:
    return max(1, round(seconds / workload.query_seconds))


def enough(workload: Workload, seconds: int, queries: int, steps: int) -> bool:
    """Whether a run has measured its share of work."""
    return queries >= target_queries(workload, seconds) and steps >= MIN_STEPS


def pick_queries(dataset, seed: int, warmups: int):
    """Distinct clustered point indices: ``(warm-up, measured candidates)``.

    A run measures a prefix of the candidates; the warm-up queries are
    never measured.
    """
    clustered = np.flatnonzero(dataset.labels >= 0)
    chosen = np.random.default_rng([seed, 1]).choice(
        clustered, size=warmups + 64, replace=False
    )
    return [int(i) for i in chosen[:warmups]], [int(i) for i in chosen[warmups:]]


def result_errors(neighbors, n_points: int, support: int) -> list[str]:
    """Correctness of one query's result: ``s`` distinct in-range indices."""
    idx = np.asarray(neighbors)
    errors = []
    if idx.shape != (support,):
        errors.append(f"expected {support} neighbors, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n_points):
        errors.append("neighbor index out of range")
    if np.unique(idx).size != idx.size:
        errors.append("duplicate neighbor indices")
    return errors


def precision(dataset, query_index: int, neighbors) -> float:
    """Share of returned neighbors with the query's ground-truth label."""
    labels = dataset.labels
    return float(np.mean(labels[np.asarray(neighbors)] == labels[query_index]))


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, if it is one."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    # SciPy may map its own OpenBLAS too; NumPy's does the matrix work.
    path = next((p for p in sorted(paths) if "numpy" in p), None)
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for name in (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def host_facts() -> dict[str, Any]:
    """Facts that change float output or timings; printed beside results."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources.

    Counts must repeat for a given digest, seed and run length.
    """
    h = hashlib.sha256()
    sources = list((ROOT / "src").rglob("*.py")) + list(Path(__file__).parent.glob("*.py"))
    for path in sorted(sources):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(workload: str, seed: int, seconds: int, counts: dict[str, int]) -> list[str]:
    """Compare *counts* with every earlier run of the same code and inputs.

    The first run records its counts; later runs must reproduce each
    recorded count exactly.  Counts a run mode does not produce (bytes
    only the traced run sees) are added to the record.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"counts-{workload}-s{seed}-t{seconds}-{source_digest()}.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    errors = [
        f"count {name} = {value}, an earlier run of this code and seed gave {recorded[name]}"
        for name, value in sorted(counts.items())
        if name in recorded and recorded[name] != value
    ]
    if not errors:
        recorded.update(counts)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
        tmp.replace(path)
    return errors


def require_program() -> None:
    """Exit non-zero unless the checkout holds the program's sources."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"benchmark: no program sources under {ROOT / 'src'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


#: Program counters whose per-run deltas must repeat exactly per seed.
COUNTERS = {
    "majors": "search.major_iterations",
    "views": "search.minor_iterations",
    "accepted_views": "search.accepted_views",
    "merge_tree_builds": "connectivity.merge_tree.builds",
    "cache_hits": "kde.cache.hit",
    "cache_misses": "kde.cache.miss",
    "pruned_points": "search.pruned_points",
    "binned_cells": "kde.binned.cells",
}

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass
class Measurement:
    """Everything one run measured, before it is turned into metrics."""

    setup_s: list[float] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)
    probe_ms: list[float] = field(default_factory=list)
    probe_late_ms: list[float] = field(default_factory=list)
    precisions: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    views_reviewed: int = 0
    views_accepted: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def take_counters(self, before: dict[str, float], after: dict[str, float]) -> None:
        for name, counter in COUNTERS.items():
            self.counts[name] = int(round(after.get(counter, 0.0) - before.get(counter, 0.0)))

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """``name -> (value, unit, samples)`` of every end-to-end metric."""
        queries = len(self.precisions)
        attempted = max(self.attempted, 1)
        return {
            "setup_s": (float(np.median(self.setup_s)), "s", len(self.setup_s)),
            "step_ms_p50": (quantile(self.step_ms, 50), "ms", len(self.step_ms)),
            "step_ms_p90": (quantile(self.step_ms, 90), "ms", len(self.step_ms)),
            "queries_per_s": (queries / self.wall_s if self.wall_s else 0.0, "1/s", queries),
            "precision": (float(np.median(self.precisions)) if queries else 0.0, "fraction", queries),
            "probe_ms_p50": (quantile(self.probe_ms, 50), "ms", len(self.probe_ms)),
            "probe_ms_p90": (quantile(self.probe_ms, 90), "ms", len(self.probe_ms)),
            "success_frac": (1.0 - len(self.failures) / attempted, "fraction", attempted),
            "peak_rss_mb": (self.peak_rss_mb, "MB", 1),
        }
