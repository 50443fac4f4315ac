"""Broadcast oracle for the matcher's code-range tier.

An ``(n, R, P)`` comparison broadcast over every stored range, chunked to
the matcher kernels' element budget.  It costs ``O(N·R·P)`` where the
bit-sliced index of :func:`repro.runtime.matcher.range_index` costs
``O(N·P·⌈R/64⌉)``, but it reads straight off the definition of range
membership, which is what an oracle needs.
"""

import numpy as np

from repro.runtime.kernels.numpy_backend import CHUNK_ELEMENTS

__all__ = ["match_ranges_broadcast"]


def match_ranges_broadcast(
    probe_codes: np.ndarray, low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """True where a probe lies inside every position of some ``(low, high)`` row."""
    probe_codes = np.atleast_2d(np.asarray(probe_codes, dtype=np.int64))
    num_entries, num_positions = low.shape
    out = np.zeros(probe_codes.shape[0], dtype=bool)
    if num_entries == 0:
        return out
    chunk = max(1, CHUNK_ELEMENTS // max(1, num_entries * num_positions))
    for start in range(0, probe_codes.shape[0], chunk):
        block = probe_codes[start : start + chunk]
        inside = (block[:, None, :] >= low[None, :, :]) & (
            block[:, None, :] <= high[None, :, :]
        )
        out[start : start + chunk] = inside.all(axis=2).any(axis=1)
    return out
