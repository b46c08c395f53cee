"""Segment configuration and the weighted quantile behind the development
thresholds.

The sliding-window features themselves are vectorised in ``features``; the
scalar reference versions of their primitives live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_SEGMENT_LENGTHS = (8, 10, 12, 14, 16, 18)


class LengthMismatch(ValueError):
    """Two sequences that must align have different lengths."""


class EmptyInput(ValueError):
    """An aggregate was requested over an empty collection."""


@dataclass(frozen=True)
class SegmentConfig:
    lengths: tuple[int, ...] = DEFAULT_SEGMENT_LENGTHS

    def __post_init__(self):
        if not self.lengths:
            raise ValueError("at least one segment length is required")
        if any(m < 2 for m in self.lengths):
            raise ValueError("segment lengths must be >= 2")
        if len(set(self.lengths)) != len(self.lengths):
            raise ValueError("segment lengths must be distinct")


def weighted_quantile(values: Sequence, weights: Sequence, q):
    """Lower weighted q-quantile(s).

    Returns the smallest value v such that the normalized cumulative weight
    of {values <= v} reaches q.  With equal weights on distinct values this
    is the standard lower empirical quantile.  q is a scalar (a scalar is
    returned) or a sequence (an array is returned, one value per quantile).
    Weights are added in sorted order (a stable sort), and the total is the
    last running sum, so every comparison is reproducible bit for bit.
    """
    if len(values) != len(weights):
        raise LengthMismatch("values and weights lengths differ")
    if len(values) == 0:
        raise EmptyInput("weighted quantile of an empty collection")
    qs = np.asarray(q, dtype=float)
    if not np.all((0 < qs) & (qs < 1)):
        raise ValueError("q must lie in (0, 1)")
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(np.asarray(weights)[order])
    total = cum[-1]
    if not total > 0:
        raise ValueError("total weight must be positive")
    # the last index of each tie group, where the cumulative weight covers
    # {values <= v}; of equal values (-0.0 and 0.0) the last in order is returned
    last = np.flatnonzero(np.append(v[1:] != v[:-1], True))
    reached = cum[last] / total
    picks = [v[last[np.flatnonzero(reached >= x)[0]]] for x in qs.ravel()]
    return picks[0] if qs.ndim == 0 else np.array(picks)
