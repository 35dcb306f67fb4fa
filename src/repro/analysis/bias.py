"""Bias aggregation helpers.

These accept any 1-D float sequence — numpy arrays from the residency
accumulators or plain lists (what the accumulators return when numpy is
not installed).  With numpy present the merge preserves the array type;
without it the same arithmetic runs over lists.
"""

from __future__ import annotations

from typing import Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    np = None  # type: ignore[assignment]

from repro.metrics import ordered_sum


def merge_bias_arrays(
    arrays: Sequence["np.ndarray"],
    weights: Sequence[float] | None = None,
) -> "np.ndarray":
    """Weighted average of per-bit bias vectors across traces.

    Weights default to uniform; for residency statistics, pass the
    simulated cycle counts so longer traces count proportionally.
    """
    if not arrays:
        raise ValueError("need at least one bias array")
    widths = {len(a) for a in arrays}
    if len(widths) != 1:
        raise ValueError(f"bias arrays have mismatched shapes: {widths}")
    if weights is None:
        weights = [1.0] * len(arrays)
    if len(weights) != len(arrays):
        raise ValueError("weights and arrays must have the same length")
    total_weight = float(ordered_sum(weights))
    if total_weight <= 0.0:
        raise ValueError("weights must sum to a positive value")
    if np is not None:
        merged = np.zeros_like(np.asarray(arrays[0]), dtype=np.float64)
        for array, weight in zip(arrays, weights):
            merged += np.asarray(array, dtype=np.float64) * (
                weight / total_weight
            )
        return merged
    merged_list = [0.0] * len(arrays[0])
    for array, weight in zip(arrays, weights):
        fraction = weight / total_weight
        for index, value in enumerate(array):
            merged_list[index] += float(value) * fraction
    return merged_list


def worst_imbalance(bias: "np.ndarray") -> Tuple[int, float]:
    """(bit index, bias) of the most imbalanced position."""
    best_index, best = 0, -1.0
    for index, value in enumerate(bias):
        imbalance = max(value, 1.0 - value)
        if imbalance > best:
            best_index, best = index, imbalance
    return best_index, float(bias[best_index])


def bias_band(bias: "np.ndarray") -> Tuple[float, float]:
    """(min, max) bias across positions — Section 1.1's "65% to 90%"."""
    return float(min(bias)), float(max(bias))
