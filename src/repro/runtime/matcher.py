"""TCAM-style vectorised membership over bit-packed pattern sets.

The BDD of :class:`repro.bdd.patterns.PatternSet` is the canonical set
representation (model counting, Hamming relaxation, DAG-size introspection),
but answering "is this batch of words in the set?" one BDD walk at a time is
a Python-loop-bound operation.  :class:`PackedMatcher` mirrors every
insertion into three flat NumPy structures and answers batched membership
through a pluggable *matcher kernel*, exactly like a ternary CAM in a
network switch:

* fully specified words — a deduplicated row matrix, matched by sort-based
  row lookup (or binary search in the compiled kernel);
* ternary words — ``(M, W)`` value/mask bit-planes; probe ``p`` matches row
  ``i`` iff ``(p ^ value_i) & mask_i == 0``;
* code-range words (robust interval monitors) — ``(R, P)`` per-position
  low/high code matrices; probe codes match iff they lie inside every range
  of one entry.

Code ranges are answered from a *bit-sliced index* (O'Neil & Quass,
"Improved query performance with variant indexes", SIGMOD 1997) derived
from the low/high matrices: a ``uint64`` table ``B`` of shape
``(P, 2**bits_per_position, ⌈R/64⌉)`` whose bit ``r`` of ``B[p, c]`` is set
iff entry ``r`` admits code ``c`` at position ``p``.  A probe is a member
iff ``AND_p B[p, code_p]`` has any bit set: ``P`` gathers and
``P·⌈R/64⌉`` word ANDs per probe, ``O(N·P·⌈R/64⌉)`` for a batch, instead of
an ``(N, R, P)`` comparison broadcast.  The index is built once per range
update, next to the stacked matrices, and is never persisted: format-2
archives hold only the low/high matrices and the index is re-derived when
they are loaded back through :meth:`PackedMatcher.add_code_ranges`.

The mirror is exact: each structure covers precisely the words the
corresponding insertion API added, so matcher membership equals BDD
membership (a property the test suite pins down).

Kernel selection
----------------
The execution engine is chosen from :mod:`repro.runtime.kernels` — per
matcher via the ``backend`` constructor argument (a registry name or kernel
instance), or process-wide via ``REPRO_MATCHER_BACKEND``; the default is
the ``numpy`` reference.  All registered back-ends are pinned bit-for-bit
equivalent, so the choice only changes speed, never verdicts.  An *empty*
matcher never dispatches a kernel at all: membership is an allocated
all-False vector, so freshly constructed monitors pay no kernel resolution
or JIT warm-up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ShapeError
from .codec import TernaryPlanes, WordCodec
from .kernels import BackendChoice, MatcherKernel, MatchPlan, resolve_matcher_backend
from .packing import full_mask_words, words_for_bits

__all__ = ["PackedMatcher", "range_index"]


def range_index(low: np.ndarray, high: np.ndarray, bits_per_position: int) -> np.ndarray:
    """Bit-sliced index of ``(R, P)`` code ranges over a ``bits_per_position`` codec.

    Returns the ``(P, 2**bits_per_position, ⌈R/64⌉)`` ``uint64`` table whose
    bit ``r % 64`` of word ``r // 64`` in ``[p, c]`` is set iff
    ``low[r, p] <= c <= high[r, p]``.  Padding bits past ``R`` stay zero.
    """
    num_ranges, num_positions = low.shape
    num_codes = 1 << bits_per_position
    index = np.zeros(
        (num_positions, num_codes, 8 * words_for_bits(num_ranges)), dtype=np.uint8
    )
    for code in range(num_codes):
        inside = (low <= code) & (code <= high)
        index[:, code, : (num_ranges + 7) // 8] = np.packbits(
            inside.T, axis=1, bitorder="little"
        )
    return index.view("<u8")


class PackedMatcher:
    """Vectorised membership mirror of a pattern set.

    Parameters
    ----------
    word_codec:
        Bit layout of the mirrored pattern words.
    backend:
        Matcher-kernel choice: a registry name (``"numpy"``, ``"compiled"``,
        ``"sharded"``, or anything registered via
        :func:`~repro.runtime.kernels.register_matcher_backend`), a ready
        :class:`~repro.runtime.kernels.MatcherKernel` instance, or ``None``
        to defer to the ``REPRO_MATCHER_BACKEND`` environment variable /
        the ``numpy`` default.  Resolution happens lazily at the first
        non-trivial query, so constructing matchers is registry-free and an
        invalid name fails with the valid choices listed.
    """

    def __init__(self, word_codec: WordCodec, backend: BackendChoice = None) -> None:
        self.word_codec = word_codec
        self._backend_choice: BackendChoice = backend
        self._kernel: Optional[MatcherKernel] = None
        self._exact_rows: set = set()
        self._ternary_values: List[np.ndarray] = []
        self._ternary_masks: List[np.ndarray] = []
        # Raw single-row inserts (lists of machine-word ints) are queued here
        # and consolidated lazily so per-sample insertion stays O(1) cheap.
        self._pending_values: List[Sequence[int]] = []
        self._pending_masks: List[Sequence[int]] = []
        self._range_low: List[np.ndarray] = []
        self._range_high: List[np.ndarray] = []
        self._exact_stacked: Optional[np.ndarray] = None
        self._ternary_stacked: Optional[TernaryPlanes] = None
        self._range_stacked: Optional[tuple] = None
        self._range_index: Optional[np.ndarray] = None
        self._full_mask_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # kernel selection
    # ------------------------------------------------------------------
    def kernel(self) -> MatcherKernel:
        """The resolved matcher kernel (resolving the choice on first use)."""
        if self._kernel is None:
            self._kernel = resolve_matcher_backend(self._backend_choice)
        return self._kernel

    def set_backend(self, backend: BackendChoice) -> None:
        """Re-bind the matcher to another kernel back-end (state unchanged)."""
        self._backend_choice = backend
        self._kernel = None

    @property
    def backend_name(self) -> str:
        """Registry name of the active kernel (resolves the choice)."""
        return self.kernel().name

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add_exact_packed(self, packed: np.ndarray) -> None:
        """Mirror a batch of fully specified packed words."""
        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        if packed.ndim != 2 or packed.shape[1] != self.word_codec.num_words:
            raise ShapeError("packed rows do not match the codec word width")
        for row in packed:
            self._exact_rows.add(row.tobytes())
        self._exact_stacked = None

    def add_exact_bytes(self, row_bytes: bytes) -> None:
        """Mirror one fully specified word given as little-endian row bytes."""
        self._exact_rows.add(row_bytes)
        self._exact_stacked = None

    def add_ternary_raw(
        self, value_words: Sequence[int], mask_words: Sequence[int]
    ) -> None:
        """Mirror one ternary word given as raw machine-word integer lists."""
        self._pending_values.append(value_words)
        self._pending_masks.append(mask_words)
        self._ternary_stacked = None

    def add_ternary(self, planes: TernaryPlanes) -> None:
        """Mirror a batch of ternary words given as value/mask bit-planes."""
        values = np.ascontiguousarray(planes.values, dtype=np.uint64)
        masks = np.ascontiguousarray(planes.masks, dtype=np.uint64)
        if values.shape[1] != self.word_codec.num_words:
            raise ShapeError("ternary planes do not match the codec word width")
        # Fully constrained rows are plain words: route them to the hash set.
        full_mask = self._full_mask()
        fully = np.all(masks == full_mask[None, :], axis=1)
        if np.any(fully):
            self.add_exact_packed(values[fully])
        if np.any(~fully):
            self._ternary_values.extend(values[~fully])
            self._ternary_masks.extend(masks[~fully])
            self._ternary_stacked = None

    def add_code_ranges(self, low_codes: np.ndarray, high_codes: np.ndarray) -> None:
        """Mirror a batch of per-position code-range words."""
        low_codes = np.atleast_2d(np.asarray(low_codes, dtype=np.int64))
        high_codes = np.atleast_2d(np.asarray(high_codes, dtype=np.int64))
        if (
            low_codes.shape != high_codes.shape
            or low_codes.shape[1] != self.word_codec.num_positions
        ):
            raise ShapeError("code-range matrices do not match the codec layout")
        point = np.all(low_codes == high_codes, axis=1)
        if np.any(point):
            self.add_exact_packed(self.word_codec.pack_codes(low_codes[point]))
        if np.any(~point):
            self._range_low.extend(low_codes[~point])
            self._range_high.extend(high_codes[~point])
            self._range_stacked = self._range_index = None

    def export_state(self) -> Dict[str, np.ndarray]:
        """Flat-array image of every mirrored entry (for persistence).

        Returns little-endian ``uint64`` matrices for the exact rows and
        ternary value/mask planes, and ``int64`` matrices for the code
        ranges — exactly the structures :meth:`add_exact_packed` /
        :meth:`add_ternary` / :meth:`add_code_ranges` accept, so a matcher
        (and through it a whole pattern set) can be rebuilt without
        re-deriving anything.  Exact rows are sorted for a deterministic
        image, and every returned array is a copy: mutating the exported
        state can never corrupt the live matcher.
        """
        num_words = self.word_codec.num_words
        if self._exact_rows:
            exact = np.frombuffer(
                b"".join(sorted(self._exact_rows)), dtype="<u8"
            ).reshape(-1, num_words)
        else:
            exact = np.zeros((0, num_words), dtype="<u8")
        ternary = self._ternary_arrays()
        if ternary is not None:
            values = ternary.values.astype("<u8", copy=True)
            masks = ternary.masks.astype("<u8", copy=True)
        else:
            values = np.zeros((0, num_words), dtype="<u8")
            masks = np.zeros((0, num_words), dtype="<u8")
        ranges = self._range_arrays()
        if ranges is not None:
            range_low = np.array(ranges[0], dtype=np.int64)
            range_high = np.array(ranges[1], dtype=np.int64)
        else:
            range_low = np.zeros((0, self.word_codec.num_positions), dtype=np.int64)
            range_high = np.zeros((0, self.word_codec.num_positions), dtype=np.int64)
        return {
            "exact": exact,
            "ternary_values": values,
            "ternary_masks": masks,
            "range_low": range_low,
            "range_high": range_high,
        }

    def merge(self, other: "PackedMatcher") -> None:
        """Fold another matcher's entries into this one (set union)."""
        shape = (self.word_codec.num_positions, self.word_codec.bits_per_position)
        other_shape = (other.word_codec.num_positions, other.word_codec.bits_per_position)
        if other_shape != shape:
            raise ShapeError(
                f"cannot merge a {other_shape[0]}-position x {other_shape[1]}-bit "
                f"matcher into a {shape[0]}-position x {shape[1]}-bit one"
            )
        self._exact_rows |= other._exact_rows
        self._ternary_values.extend(other._ternary_values)
        self._ternary_masks.extend(other._ternary_masks)
        self._pending_values.extend(other._pending_values)
        self._pending_masks.extend(other._pending_masks)
        self._range_low.extend(other._range_low)
        self._range_high.extend(other._range_high)
        self._exact_stacked = None
        self._ternary_stacked = None
        self._range_stacked = self._range_index = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _full_mask(self) -> np.ndarray:
        if self._full_mask_cache is None:
            self._full_mask_cache = full_mask_words(self.word_codec.num_bits)
        return self._full_mask_cache

    def _consolidate_pending(self) -> None:
        if not self._pending_values:
            return
        self._ternary_values.extend(
            np.array(self._pending_values, dtype=np.uint64)
        )
        self._ternary_masks.extend(np.array(self._pending_masks, dtype=np.uint64))
        self._pending_values = []
        self._pending_masks = []

    def _exact_arrays(self) -> Optional[np.ndarray]:
        """Deduplicated exact rows in row-lexicographic (word 0 first) order."""
        if not self._exact_rows:
            return None
        if self._exact_stacked is None:
            rows = np.frombuffer(
                b"".join(self._exact_rows), dtype=np.uint64
            ).reshape(-1, self.word_codec.num_words)
            # np.lexsort sorts by its *last* key first: feed the columns
            # reversed so word 0 is the primary key (what the compiled
            # kernel's binary search expects).
            order = np.lexsort(tuple(rows[:, w] for w in reversed(range(rows.shape[1]))))
            self._exact_stacked = np.ascontiguousarray(rows[order])
        return self._exact_stacked

    def _ternary_arrays(self) -> Optional[TernaryPlanes]:
        self._consolidate_pending()
        if not self._ternary_values:
            return None
        if self._ternary_stacked is None:
            self._ternary_stacked = TernaryPlanes(
                values=np.vstack(self._ternary_values),
                masks=np.vstack(self._ternary_masks),
            )
        return self._ternary_stacked

    def _range_arrays(self) -> Optional[tuple]:
        if not self._range_low:
            return None
        if self._range_stacked is None:
            self._range_stacked = (
                np.vstack(self._range_low),
                np.vstack(self._range_high),
            )
        return self._range_stacked

    def _range_index_table(self) -> Optional[np.ndarray]:
        """The bit-sliced index of the code ranges (see :func:`range_index`)."""
        ranges = self._range_arrays()
        if ranges is None:
            return None
        if self._range_index is None:
            self._range_index = range_index(
                ranges[0], ranges[1], self.word_codec.bits_per_position
            )
        return self._range_index

    @property
    def is_empty(self) -> bool:
        """True when no entry of any type has been mirrored yet."""
        return not (
            self._exact_rows
            or self._ternary_values
            or self._pending_values
            or self._range_low
        )

    def match_plan(self) -> MatchPlan:
        """Consolidated kernel-ready image of the matcher's current state."""
        ranges = self._range_arrays()
        return MatchPlan(
            word_codec=self.word_codec,
            exact=self._exact_arrays(),
            ternary=self._ternary_arrays(),
            range_low=ranges[0] if ranges is not None else None,
            range_high=ranges[1] if ranges is not None else None,
            range_index=self._range_index_table(),
        )

    def contains_packed(
        self, packed: np.ndarray, codes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Batched membership of fully specified packed probe words.

        ``codes`` may be passed alongside to avoid re-unpacking when
        code-range entries have to be checked.
        """
        packed = np.ascontiguousarray(packed, dtype=np.uint64)
        if packed.ndim != 2 or packed.shape[1] != self.word_codec.num_words:
            raise ShapeError("probe rows do not match the codec word width")
        if self.is_empty or packed.shape[0] == 0:
            # Allocated-shape early-out on every backend: no plan build, no
            # kernel resolution/dispatch, no JIT warm-up.
            return np.zeros(packed.shape[0], dtype=bool)
        return self.kernel().match(self.match_plan(), packed, codes=codes)

    def contains_codes(self, codes: np.ndarray) -> np.ndarray:
        """Batched membership of probes given as ``(N, P)`` code matrices."""
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        return self.contains_packed(self.word_codec.pack_codes(codes), codes=codes)

    # ------------------------------------------------------------------
    @property
    def num_exact(self) -> int:
        return len(self._exact_rows)

    @property
    def num_ternary(self) -> int:
        return len(self._ternary_values) + len(self._pending_values)

    @property
    def num_ranges(self) -> int:
        return len(self._range_low)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedMatcher(exact={self.num_exact}, ternary={self.num_ternary}, "
            f"ranges={self.num_ranges}, backend={self._backend_choice or 'default'})"
        )
