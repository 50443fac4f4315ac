"""Reference matcher kernel: pure-NumPy passes.

This is the vectorised path :class:`~repro.runtime.matcher.PackedMatcher`
executes by default, behind the :class:`MatcherKernel` interface so other
back-ends can be pinned bit-for-bit against it.  Exact rows are matched
with one sort-based ``np.isin`` over byte views; the ternary pass is a
broadcast over ``(n, T, W)`` mismatch words; the range pass gathers rows of
the plan's bit-sliced range index and AND-reduces them over positions.
Every pass is chunked along the probe axis so its intermediate buffer stays
inside a fixed element budget.
"""

from __future__ import annotations

import numpy as np

from .base import MatcherKernel

__all__ = ["NumpyMatcherKernel", "CHUNK_ELEMENTS"]

#: Soft cap on intermediate buffer elements; probe batches are chunked to this.
CHUNK_ELEMENTS = 1 << 22


def _row_view(rows: np.ndarray) -> np.ndarray:
    """View ``(N, W)`` uint64 rows as one opaque void scalar per row."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.dtype.itemsize))).ravel()


class NumpyMatcherKernel(MatcherKernel):
    """The reference back-end every other kernel must agree with."""

    name = "numpy"

    def match_exact(self, probes: np.ndarray, exact: np.ndarray) -> np.ndarray:
        self._check_words(probes, exact)
        if exact.shape[0] == 0:
            return np.zeros(probes.shape[0], dtype=bool)
        return np.isin(_row_view(probes), _row_view(exact))

    def match_ternary(
        self, probes: np.ndarray, values: np.ndarray, masks: np.ndarray
    ) -> np.ndarray:
        self._check_words(probes, values)
        num_entries, num_words = values.shape
        out = np.zeros(probes.shape[0], dtype=bool)
        if num_entries == 0:
            return out
        chunk = max(1, CHUNK_ELEMENTS // max(1, num_entries * num_words))
        for start in range(0, probes.shape[0], chunk):
            block = probes[start : start + chunk]
            mismatch = (block[:, None, :] ^ values[None, :, :]) & masks[None, :, :]
            out[start : start + chunk] = np.logical_not(mismatch.any(axis=2)).any(axis=1)
        return out

    def match_ranges(self, probe_codes: np.ndarray, index: np.ndarray) -> np.ndarray:
        num_positions, num_codes, num_words = index.shape
        out = np.zeros(probe_codes.shape[0], dtype=bool)
        # Row ``p * num_codes + c`` of the flat table is the bitset B[p, c].
        table = index.reshape(num_positions * num_codes, num_words)
        offsets = np.arange(num_positions, dtype=np.int64) * num_codes
        chunk = max(1, CHUNK_ELEMENTS // (num_positions * num_words))
        for start in range(0, probe_codes.shape[0], chunk):
            rows = (probe_codes[start : start + chunk] + offsets).T
            # Position-major gather: the AND over positions then runs over
            # contiguous (n, ⌈R/64⌉) slabs.
            gathered = np.take(table, rows.ravel(), axis=0).reshape(
                num_positions, rows.shape[1], num_words
            )
            out[start : start + chunk] = np.bitwise_and.reduce(gathered, axis=0).any(axis=1)
        return out
