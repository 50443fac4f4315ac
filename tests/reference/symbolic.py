"""Seed star-LP and per-row bound walks, kept as test and benchmark oracles.

The seed entered ``linprog`` once per dimension per sense (``2·d`` calls
per star) and propagated one row at a time.  Those walks read straight off
the definitions, which is what an oracle needs, and they are the baselines
the E10 and E15 benchmarks measure their speed-ups over.
"""

from typing import List, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import ConfigurationError, PropagationError
from repro.monitors.perturbation import perturbation_estimate
from repro.symbolic.interval import Box
from repro.symbolic.propagation import _propagate_geometric
from repro.symbolic.star import StarSet
from repro.symbolic.star_lp import StarLPBackend

__all__ = [
    "LoopStarLPBackend",
    "bounds_loop",
    "star_bounds_loop",
    "collect_bound_arrays_loop",
]


def _dimension_bound(star: StarSet, direction: np.ndarray, maximise: bool) -> float:
    """LP bound of ``direction . x`` over the star (x = c + V^T alpha)."""
    offset = float(direction @ star.center)
    if star.num_predicates == 0:
        return offset
    coefficients = star.basis @ direction
    sign = -1.0 if maximise else 1.0
    result = linprog(
        sign * coefficients,
        A_ub=star.constraints_a,
        b_ub=star.constraints_b,
        bounds=[(None, None)] * star.num_predicates,
        method="highs",
    )
    if not result.success:
        raise PropagationError(
            f"LP bound query failed: {result.message} (status {result.status})"
        )
    value = float(coefficients @ result.x)
    return offset + value


def bounds_loop(star: StarSet) -> Tuple[np.ndarray, np.ndarray]:
    """Per-dimension bounds of one star: one dense LP per dimension per sense."""
    low = np.empty(star.dimension)
    high = np.empty(star.dimension)
    for j in range(star.dimension):
        direction = np.zeros(star.dimension)
        direction[j] = 1.0
        low[j] = _dimension_bound(star, direction, maximise=False)
        high[j] = _dimension_bound(star, direction, maximise=True)
    return low, high


class LoopStarLPBackend(StarLPBackend):
    """The seed per-dimension walk: ``2·d`` dense ``linprog`` calls per star.

    Deliberately unoptimised (no closed form, no stacking), so it stays an
    executable statement of the bound semantics.
    """

    name = "loop"

    def bounds_many(self, stars) -> Tuple[np.ndarray, np.ndarray]:
        if not stars:
            return np.zeros((0, 0)), np.zeros((0, 0))
        lows, highs = self._output_arrays(stars)
        for index, star in enumerate(stars):
            lows[index], highs[index] = bounds_loop(star)
        return lows, highs


def star_bounds_loop(
    network, batched_box, from_layer: int, to_layer: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The star back-end walked one row at a time through :class:`LoopStarLPBackend`.

    The lockstep walk of
    :func:`repro.symbolic.propagation.perturbation_bounds_batch` is pinned
    against it: exactly on hypercube stars, to LP tolerance otherwise.
    """
    backend = LoopStarLPBackend()
    batch = batched_box.batch_size
    out_dim = network.layer_output_dim(to_layer)
    lows = np.empty((batch, out_dim))
    highs = np.empty((batch, out_dim))
    for index in range(batch):
        low, high = batched_box.row(index)
        star = _propagate_geometric(
            network,
            StarSet.from_box(Box(low, high), lp_backend=backend),
            from_layer,
            to_layer,
        )
        lows[index], highs[index] = star.bounds()
    return lows, highs


def collect_bound_arrays_loop(
    network, inputs: np.ndarray, monitored_layer: int, spec
) -> Tuple[np.ndarray, np.ndarray]:
    """One symbolic propagation per input row.

    Semantically identical to
    :func:`repro.monitors.perturbation.collect_bound_arrays` but pays one
    full abstract-domain walk per sample.
    """
    if spec.layer >= monitored_layer:
        raise ConfigurationError(
            f"perturbation layer k_p={spec.layer} must be strictly before the "
            f"monitored layer k={monitored_layer}"
        )
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if spec.is_trivial:
        features = np.atleast_2d(network.forward_to(monitored_layer, inputs))
        return features, np.array(features, copy=True)
    lows: List[np.ndarray] = []
    highs: List[np.ndarray] = []
    for row in inputs:
        estimate = perturbation_estimate(network, row, monitored_layer, spec)
        lows.append(np.atleast_1d(estimate.low))
        highs.append(np.atleast_1d(estimate.high))
    return np.vstack(lows), np.vstack(highs)
