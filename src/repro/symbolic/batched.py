"""Batched abstract domains: whole training sets through one propagation.

The single-sample domains (:class:`~repro.symbolic.interval.Box`,
:class:`~repro.symbolic.zonotope.Zonotope`) compute the Definition-1
perturbation estimate of *one* training input.  Robust monitor construction
needs the estimate of *every* training input, and pushing them through the
back-ends one at a time was the last major per-sample Python loop in the
code base.  This module carries a leading batch axis through the abstract
transformers instead:

* :class:`BatchedBox` — ``(N, d)`` lower/upper matrices; affine and monotone
  transformers are the same midpoint/radius arithmetic as the single-sample
  box, evaluated as one matrix product per layer.
* :class:`BatchedZonotope` — ``(N, d)`` centers and ``(N, m, d)`` generators;
  affine layers are one reshaped matrix product, and the DeepZ ReLU
  relaxation is evaluated with elementwise masks over the whole batch.

Both domains are sound row-for-row: row ``i`` of a batched propagation is a
(floating-point-tolerance) match of propagating row ``i`` alone, which
``tests/symbolic/test_batched.py`` pins per layer type and per domain.

Star sets keep one polytope per row (each row owns its own LP), so the
batched star path in :mod:`repro.symbolic.propagation` advances all rows'
stars in lockstep layer by layer and answers each layer's bound queries
with a single :meth:`~repro.symbolic.star_lp.StarLPBackend.bounds_many`
call — closed-form for hypercube-domain stars, block-stacked sparse HiGHS
programs for constrained ones (see :mod:`repro.symbolic.star_lp`).

Batch semantics of the ReLU relaxation
--------------------------------------
Different rows generally have different unstable neurons, so a row-exact
batched zonotope would need ragged generator counts.  Instead each ReLU layer
appends one fresh generator *slot* per dimension for every row; rows where a
neuron is stable carry a zero generator in that slot.  Zero generators do not
change the concretisation (they add ``0.0`` to every bound sum), so soundness
and tightness are unaffected, and all-zero slots are pruned after each layer
to bound memory.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import ShapeError

__all__ = ["BatchedBox", "BatchedZonotope"]


def _as_bound_matrix(values: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ShapeError(f"{name} must be a (batch, dimension) matrix, got {matrix.shape}")
    return matrix


class BatchedBox:
    """``N`` axis-aligned boxes stored as ``(N, d)`` lower/upper matrices.

    Row ``i`` is the box ``{x : lows[i] <= x <= highs[i]}``.  Every transformer
    acts on all rows at once; the arithmetic per row is identical to
    :class:`~repro.symbolic.interval.Box`, so the batched result matches the
    single-sample result row-for-row.
    """

    def __init__(self, lows: np.ndarray, highs: np.ndarray) -> None:
        lows = _as_bound_matrix(lows, "lows")
        highs = _as_bound_matrix(highs, "highs")
        if lows.shape != highs.shape:
            raise ShapeError(
                f"batched box bounds disagree on shape: {lows.shape} vs {highs.shape}"
            )
        if np.any(lows > highs + 1e-12):
            raise ShapeError("batched box lower bound exceeds upper bound")
        self.lows = lows
        self.highs = np.maximum(lows, highs)

    # ------------------------------------------------------------------
    @classmethod
    def from_centers(cls, centers: np.ndarray, radius: "float | np.ndarray") -> "BatchedBox":
        """Boxes centred at the rows of ``centers`` with common ``radius``."""
        centers = _as_bound_matrix(centers, "centers")
        radius_arr = np.broadcast_to(np.asarray(radius, dtype=np.float64), centers.shape)
        if np.any(radius_arr < 0):
            raise ShapeError("box radius must be non-negative")
        return cls(centers - radius_arr, centers + radius_arr)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "BatchedBox":
        """Degenerate boxes: one point per row."""
        points = _as_bound_matrix(points, "points")
        return cls(points, np.array(points, copy=True))

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return int(self.lows.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.lows.shape[1])

    @property
    def centers(self) -> np.ndarray:
        return (self.lows + self.highs) / 2.0

    @property
    def radii(self) -> np.ndarray:
        return (self.highs - self.lows) / 2.0

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(lows, highs)`` copies as plain ``(N, d)`` arrays."""
        return np.array(self.lows, copy=True), np.array(self.highs, copy=True)

    def row(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(low, high)`` pair of one batch row."""
        return self.lows[index], self.highs[index]

    # ------------------------------------------------------------------
    def affine(self, weights: np.ndarray, bias: np.ndarray) -> "BatchedBox":
        """Exact image of every row under ``x -> x @ weights + bias``."""
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.shape[0] != self.dimension:
            raise ShapeError(
                f"weight rows {weights.shape[0]} do not match box dimension "
                f"{self.dimension}"
            )
        centers = self.centers @ weights + bias
        radii = self.radii @ np.abs(weights)
        return BatchedBox(centers - radii, centers + radii)

    def elementwise_monotone(self, bound_transform) -> "BatchedBox":
        """Image under an elementwise monotone non-decreasing function."""
        new_lows, new_highs = bound_transform(self.lows, self.highs)
        return BatchedBox(new_lows, new_highs)

    # ------------------------------------------------------------------
    def contains_points(self, points: np.ndarray, tolerance: float = 1e-9) -> np.ndarray:
        """Row-wise membership: does ``points[i]`` lie inside box ``i``?"""
        points = _as_bound_matrix(points, "points")
        if points.shape != self.lows.shape:
            raise ShapeError(
                f"points shape {points.shape} does not match batched box shape "
                f"{self.lows.shape}"
            )
        inside_low = points >= self.lows - tolerance
        inside_high = points <= self.highs + tolerance
        return np.all(inside_low & inside_high, axis=1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchedBox(batch={self.batch_size}, dimension={self.dimension})"


class BatchedZonotope:
    """``N`` zonotopes sharing one generator layout.

    ``centers`` has shape ``(N, d)``; ``generators`` has shape ``(N, m, d)``
    so ``generators[i]`` are the ``m`` noise-symbol rows of batch row ``i``.
    All rows share the symbol count ``m`` — rows that do not need a symbol
    carry a zero row in that slot, which leaves their concretisation
    unchanged.
    """

    def __init__(self, centers: np.ndarray, generators: np.ndarray) -> None:
        centers = _as_bound_matrix(centers, "centers")
        generators = np.asarray(generators, dtype=np.float64)
        if generators.ndim != 3 or generators.shape[0] != centers.shape[0] or (
            generators.shape[2] != centers.shape[1]
        ):
            raise ShapeError(
                f"generators must have shape ({centers.shape[0]}, m, "
                f"{centers.shape[1]}), got {generators.shape}"
            )
        self.centers = centers
        self.generators = generators

    # ------------------------------------------------------------------
    @classmethod
    def from_batched_box(cls, box: BatchedBox) -> "BatchedZonotope":
        """One axis-aligned noise symbol per dimension, per row.

        Slots are allocated only for dimensions that are non-degenerate in at
        least one row, so the generator tensor is ``(N, n_active, d)`` rather
        than a dense ``(N, d, d)`` block.
        """
        radii = box.radii
        batch, dimension = radii.shape
        active = np.nonzero(np.any(radii > 0, axis=0))[0]
        generators = np.zeros((batch, active.shape[0], dimension))
        generators[:, np.arange(active.shape[0]), active] = radii[:, active]
        return cls(box.centers, generators)

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return int(self.centers.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.centers.shape[1])

    @property
    def num_generators(self) -> int:
        return int(self.generators.shape[1])

    def radii(self) -> np.ndarray:
        """Per-row, per-dimension half-width of the bounding boxes."""
        if self.num_generators == 0:
            return np.zeros((self.batch_size, self.dimension))
        return np.abs(self.generators).sum(axis=1)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Tightest ``(N, d)`` bounding-box matrices of every row."""
        radii = self.radii()
        return self.centers - radii, self.centers + radii

    def to_batched_box(self) -> BatchedBox:
        lows, highs = self.bounds()
        return BatchedBox(lows, highs)

    def _prune_zero_slots(self) -> "BatchedZonotope":
        """Drop generator slots that are zero in every row (no-op on bounds)."""
        if self.num_generators == 0:
            return self
        live = np.any(self.generators != 0.0, axis=(0, 2))
        if np.all(live):
            return self
        return BatchedZonotope(self.centers, self.generators[:, live, :])

    # ------------------------------------------------------------------
    def affine(self, weights: np.ndarray, bias: np.ndarray) -> "BatchedZonotope":
        """Exact image of every row under ``x -> x @ weights + bias``."""
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.shape[0] != self.dimension:
            raise ShapeError(
                f"weight rows {weights.shape[0]} do not match zonotope dimension "
                f"{self.dimension}"
            )
        centers = self.centers @ weights + bias
        batch, symbols, _ = self.generators.shape
        flat = self.generators.reshape(batch * symbols, self.dimension) @ weights
        generators = flat.reshape(batch, symbols, weights.shape[1])
        return BatchedZonotope(centers, generators)

    def relu(self) -> "BatchedZonotope":
        """DeepZ minimal-area ReLU relaxation over the whole batch.

        Per row and neuron, with pre-activation bounds ``[l, u]``:

        * ``l >= 0`` — identity (slope 1, offset 0, no fresh noise);
        * ``u <= 0`` — exactly zero (slope 0, offset 0);
        * ``l < 0 < u`` — affine form ``λ·x + μ`` with ``λ = u/(u−l)``,
          ``μ = −λ·l/2`` plus a fresh noise symbol of magnitude ``μ``.

        Each neuron contributes one fresh generator slot shared by all rows;
        rows where the neuron is stable put a zero in the slot.
        """
        lows, highs = self.bounds()
        unstable = (lows < 0.0) & (highs > 0.0)
        negative = highs <= 0.0

        slope = np.ones_like(self.centers)
        slope[negative] = 0.0
        # Guard the division on stable neurons; the mask overwrites them.
        denominator = np.where(unstable, highs - lows, 1.0)
        slope = np.where(unstable, highs / denominator, slope)
        mu = np.where(unstable, -slope * lows / 2.0, 0.0)

        centers = slope * self.centers + mu
        generators = self.generators * slope[:, None, :]

        # Fresh slots only for neurons unstable in at least one row: the
        # tensor stays (N, n_unstable, d) instead of a dense (N, d, d) block.
        unstable_columns = np.nonzero(np.any(unstable, axis=0))[0]
        if unstable_columns.size:
            batch, dimension = self.centers.shape
            fresh = np.zeros((batch, unstable_columns.shape[0], dimension))
            fresh[:, np.arange(unstable_columns.shape[0]), unstable_columns] = mu[
                :, unstable_columns
            ]
            generators = np.concatenate([generators, fresh], axis=1)
        return BatchedZonotope(centers, generators)._prune_zero_slots()

    def elementwise_monotone(self, bound_transform) -> "BatchedZonotope":
        """Sound relaxation of a monotone activation via the box hull."""
        lows, highs = self.bounds()
        new_lows, new_highs = bound_transform(lows, highs)
        return BatchedZonotope.from_batched_box(BatchedBox(new_lows, new_highs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedZonotope(batch={self.batch_size}, dimension={self.dimension}, "
            f"generators={self.num_generators})"
        )
