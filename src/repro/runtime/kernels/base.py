"""Matcher-kernel interface: one match plan, interchangeable execution engines.

A :class:`MatchPlan` is the immutable, consolidated image of a
:class:`~repro.runtime.matcher.PackedMatcher` at query time — the exact-row
matrix (row-lexicographically sorted, so compiled back-ends can binary
search it), the ternary value/mask bit-planes and the per-position code
ranges with their bit-sliced index, next to the
:class:`~repro.runtime.codec.WordCodec` that defines the bit layout.  A
:class:`MatcherKernel` turns a plan plus a probe batch into the boolean
membership vector.

The base class implements the reference *miss-refinement* schedule — exact
rows first (cheapest per probe), then ternary planes on the remaining
misses, then code ranges on what is still unresolved — in terms of three
overridable per-structure passes.  Back-ends are free to override
:meth:`MatcherKernel.match` wholesale instead (the compiled back-end fuses
all three structures into one pass per probe; the sharded back-end chunks
the probe axis and delegates).  Whatever the execution strategy, every
registered back-end must return bit-for-bit the same vector as the
``numpy`` reference — the equivalence test suite pins this on the full
pattern-type matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...exceptions import ShapeError
from ..codec import TernaryPlanes, WordCodec

__all__ = ["MatchPlan", "MatcherKernel"]


@dataclass(frozen=True)
class MatchPlan:
    """Consolidated matcher state handed to a kernel for one query batch.

    ``exact`` is a ``(M, W)`` ``uint64`` matrix of fully specified rows in
    row-lexicographic order (word 0 most significant for ordering);
    ``ternary`` carries ``(T, W)`` value/mask bit-planes; ``range_low`` /
    ``range_high`` are ``(R, P)`` ``int64`` per-position code bounds.  Any
    structure may be ``None`` when the matcher holds no entries of that
    type.  Probe rows and plan rows share the packing of
    :mod:`repro.runtime.packing`: padding bits of the last machine word are
    always zero, so whole-word compares are exact for any bit width.

    ``range_index`` is the bit-sliced index of the code ranges (see
    :func:`repro.runtime.matcher.range_index`): a ``(P, 2**b, ⌈R/64⌉)``
    ``uint64`` table whose bit ``r`` of ``[p, c]`` is set iff range entry
    ``r`` admits code ``c`` at position ``p``.  The range pass answers from
    it with ``P`` gathers and ``P·⌈R/64⌉`` word ANDs per probe, so a batch
    costs ``O(N·P·⌈R/64⌉)``.  The index is derived from ``range_low`` /
    ``range_high`` by the matcher and never persisted.
    """

    word_codec: WordCodec
    exact: Optional[np.ndarray] = None
    ternary: Optional[TernaryPlanes] = None
    range_low: Optional[np.ndarray] = None
    range_high: Optional[np.ndarray] = None
    range_index: Optional[np.ndarray] = None

    @property
    def is_empty(self) -> bool:
        return self.exact is None and self.ternary is None and self.range_low is None

    def probe_codes(self, packed: np.ndarray, codes: Optional[np.ndarray]) -> np.ndarray:
        """Per-position codes of ``packed`` (reusing caller-provided ``codes``)."""
        if codes is not None:
            return np.asarray(codes, dtype=np.int64)
        return self.word_codec.unpack_codes(packed)


class MatcherKernel:
    """Execution engine turning a :class:`MatchPlan` into membership bits."""

    #: Registry key of the back-end (reported by ``PackedMatcher.backend_name``).
    name = "abstract"

    @property
    def effective_name(self) -> str:
        """The back-end actually executing (differs under graceful fallback)."""
        return self.name

    def describe(self) -> dict:
        """Identity of the kernel, for benchmark records and diagnostics."""
        return {"backend": self.name, "effective": self.effective_name}

    # ------------------------------------------------------------------
    # reference schedule: exact → ternary on misses → ranges on misses
    # ------------------------------------------------------------------
    def match(
        self,
        plan: MatchPlan,
        packed: np.ndarray,
        codes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Membership vector of a ``(N, W)`` probe batch against ``plan``."""
        num_probes = packed.shape[0]
        hits = np.zeros(num_probes, dtype=bool)
        if num_probes == 0 or plan.is_empty:
            return hits
        if plan.exact is not None:
            hits |= self.match_exact(packed, plan.exact)
        if plan.ternary is not None and not np.all(hits):
            misses = np.nonzero(~hits)[0]
            hits[misses] = self.match_ternary(
                packed[misses], plan.ternary.values, plan.ternary.masks
            )
        if plan.range_index is not None and not np.all(hits):
            misses = np.nonzero(~hits)[0]
            probe_codes = plan.probe_codes(packed, codes)[misses]
            hits[misses] = self.match_ranges(probe_codes, plan.range_index)
        return hits

    # ------------------------------------------------------------------
    # per-structure passes (implemented by concrete back-ends)
    # ------------------------------------------------------------------
    def match_exact(self, probes: np.ndarray, exact: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def match_ternary(
        self, probes: np.ndarray, values: np.ndarray, masks: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def match_ranges(self, probe_codes: np.ndarray, index: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    @staticmethod
    def _check_words(probes: np.ndarray, rows: np.ndarray) -> None:
        if probes.shape[1] != rows.shape[1]:
            raise ShapeError("probe and pattern rows disagree on word width")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
