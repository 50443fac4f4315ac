"""Min-max (value envelope) monitors — standard and robust variants.

The min-max monitor of Henzinger et al. ("outside the box") keeps, for every
monitored neuron ``j``, the minimum ``L_j`` and maximum ``U_j`` value visited
across the training data set and warns whenever an operational input produces
a neuron value outside ``[L_j, U_j]``.

The robust variant of the paper replaces each visited value with the
perturbation estimate ``[l_j, u_j]`` of Definition 1 and joins those bounds,
so the envelope already accounts for every Δ-bounded perturbation at layer
``k_p``; Lemma 1's guarantee follows directly.

Scoring is fully vectorised: a batch of inputs costs one forward pass and a
couple of elementwise comparisons against the envelope.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from ..nn.network import Sequential
from ..symbolic.interval import Box
from .base import ActivationMonitor, MonitorVerdict
from .perturbation import PerturbationSpec

__all__ = ["MinMaxMonitor", "RobustMinMaxMonitor"]


class MinMaxMonitor(ActivationMonitor):
    """Standard per-neuron ``[L_j, U_j]`` envelope monitor.

    Parameters
    ----------
    enlargement:
        Optional fractional enlargement of the envelope (e.g. ``0.05`` widens
        each neuron's interval by 5% of its width on both sides).  This is the
        classic, *non-robust* false-positive mitigation the paper argues is
        insufficient; it is provided so experiments can compare against it.
    """

    kind = "minmax"

    def __init__(
        self,
        network: Sequential,
        layer_index: int,
        neuron_indices: Optional[Sequence[int]] = None,
        enlargement: float = 0.0,
    ) -> None:
        super().__init__(network, layer_index, neuron_indices)
        if enlargement < 0:
            raise ConfigurationError("enlargement must be non-negative")
        self.enlargement = float(enlargement)
        self.lower: Optional[np.ndarray] = None
        self.upper: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, training_inputs: np.ndarray) -> "MinMaxMonitor":
        """Initialise ``(L_j, U_j) = (∞, −∞)`` and fold in every sample."""
        features = self.features(training_inputs)
        if features.shape[0] == 0:
            raise ShapeError("fit() needs at least one training input")
        self.lower = features.min(axis=0)
        self.upper = features.max(axis=0)
        if self.enlargement > 0:
            width = self.upper - self.lower
            self.lower = self.lower - self.enlargement * width
            self.upper = self.upper + self.enlargement * width
        self._fitted = True
        self._num_training_samples = int(features.shape[0])
        return self

    def update(self, inputs: np.ndarray) -> "MinMaxMonitor":
        """Fold additional data into an already fitted envelope.

        This mirrors the incremental ``⊎`` operator of the paper's generic
        construction algorithm and is the mechanism used to enlarge a monitor
        with a validation set.
        """
        self._require_fitted()
        features = self.features(inputs)
        # The identities keep an empty batch a no-op, as in the other families.
        self.lower = np.minimum(self.lower, features.min(axis=0, initial=np.inf))
        self.upper = np.maximum(self.upper, features.max(axis=0, initial=-np.inf))
        self._num_training_samples += int(features.shape[0])
        return self

    # ------------------------------------------------------------------
    def envelope(self) -> Box:
        """The fitted envelope as a :class:`~repro.symbolic.interval.Box`."""
        self._require_fitted()
        return Box(self.lower, self.upper)

    def _envelope_violations(self, features: np.ndarray) -> np.ndarray:
        """Boolean ``(N, P)`` matrix of per-neuron envelope violations.

        Numeric tolerance: forward passes of different batch sizes may differ
        in the last float, and a training sample sitting exactly on the
        envelope boundary must not warn.
        """
        tolerance = 1e-9 * np.maximum(
            1.0, np.maximum(np.abs(self.lower), np.abs(self.upper))
        )
        below = features < self.lower[None, :] - tolerance[None, :]
        above = features > self.upper[None, :] + tolerance[None, :]
        return below | above

    def _warn_from_features(self, features: np.ndarray) -> np.ndarray:
        return self._envelope_violations(features).any(axis=1)

    def _verdicts_from_features(self, features: np.ndarray) -> List[MonitorVerdict]:
        violating = self._envelope_violations(features)
        distances = np.maximum(
            self.lower[None, :] - features, features - self.upper[None, :]
        )
        max_distances = distances.max(axis=1, initial=0.0)
        verdicts = []
        for row_violations, max_distance in zip(violating, max_distances):
            violations = np.nonzero(row_violations)[0]
            verdicts.append(
                MonitorVerdict(
                    warn=bool(violations.size > 0),
                    violations=tuple(int(v) for v in violations),
                    details={
                        "max_violation_distance": float(max_distance),
                        "num_violations": int(violations.size),
                    },
                )
            )
        return verdicts

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["enlargement"] = self.enlargement
        if self._fitted:
            info["envelope_width_sum"] = float(np.sum(self.upper - self.lower))
        return info


class RobustMinMaxMonitor(MinMaxMonitor):
    """Robust min-max monitor ``M_{⟨G, k, k_p, Δ⟩}`` (Section III-B).

    Every training input contributes its *perturbation estimate* — a sound
    per-neuron bound under all Δ-bounded perturbations applied at layer
    ``k_p`` — and the envelope is the join of all those bounds.
    """

    kind = "robust_minmax"

    def __init__(
        self,
        network: Sequential,
        layer_index: int,
        perturbation: PerturbationSpec,
        neuron_indices: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(network, layer_index, neuron_indices, enlargement=0.0)
        if perturbation.layer >= layer_index:
            raise ConfigurationError(
                "perturbation layer k_p must be strictly before the monitored layer"
            )
        self.perturbation = perturbation

    def _bound_arrays(self, inputs: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        lows, highs = self._perturbation_bound_arrays(inputs, self.perturbation)
        return lows[:, self.neuron_indices], highs[:, self.neuron_indices]

    def fit(self, training_inputs: np.ndarray) -> "RobustMinMaxMonitor":
        """Join the perturbation estimates of every training input."""
        training_inputs = np.atleast_2d(np.asarray(training_inputs, dtype=np.float64))
        if training_inputs.shape[0] == 0:
            raise ShapeError("fit() needs at least one training input")
        lows, highs = self._bound_arrays(training_inputs)
        self.lower = lows.min(axis=0)
        self.upper = highs.max(axis=0)
        self._fitted = True
        self._num_training_samples = int(training_inputs.shape[0])
        return self

    def update(self, inputs: np.ndarray) -> "RobustMinMaxMonitor":
        """Fold additional data (with the same perturbation model) into the envelope."""
        self._require_fitted()
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        lows, highs = self._bound_arrays(inputs)
        np.minimum(self.lower, lows.min(axis=0, initial=np.inf), out=self.lower)
        np.maximum(self.upper, highs.max(axis=0, initial=-np.inf), out=self.upper)
        self._num_training_samples += int(inputs.shape[0])
        return self

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["perturbation"] = self.perturbation.describe()
        return info
