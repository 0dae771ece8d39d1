"""Curve-shape diagnostics for the runtime-vs-lambda curve, shared by the
acceptance and experiment tests (not a test module itself)."""

import numpy as np


def moving_average(values, window: int = 5) -> np.ndarray:
    """Centered moving average; output is len(values) - window + 1 long."""
    values = np.asarray(values, dtype=np.float64)
    if window < 1 or window > values.size:
        raise ValueError(f"window {window} invalid for {values.size} points")
    kernel = np.full(window, 1.0 / window)
    return np.convolve(values, kernel, mode="valid")


def has_interior_min_then_max(values) -> bool:
    """True when a strict interior local minimum precedes a strict interior
    local maximum, the multimodality signature of the runtime-vs-lambda curve.
    """
    y = np.asarray(values, dtype=np.float64)
    first_min = None
    for i in range(1, y.size - 1):
        if first_min is None and y[i] < y[i - 1] and y[i] < y[i + 1]:
            first_min = i
        elif first_min is not None and y[i] > y[i - 1] and y[i] > y[i + 1]:
            return True
    return False
