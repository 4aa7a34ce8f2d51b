"""Independent connectivity oracle for the merge-tree parity tests.

``scipy.ndimage.label`` with its default cross-shaped structuring
element labels 4-connected components — the adjacency of Definition 2.2
— by an algorithm that shares no code with
:class:`repro.density.merge_tree.MergeTree`.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


def region_mask(qualifies: np.ndarray, cell: tuple[int, int]) -> np.ndarray:
    """Cells 4-connected to *cell* within *qualifies* (empty if it fails)."""
    labels, _ = ndimage.label(np.asarray(qualifies, dtype=bool))
    if labels[cell] == 0:
        return np.zeros(labels.shape, dtype=bool)
    return labels == labels[cell]


def component_count(qualifies: np.ndarray) -> int:
    """Number of 4-connected components of *qualifies*."""
    return int(ndimage.label(np.asarray(qualifies, dtype=bool))[1])
