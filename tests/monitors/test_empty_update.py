"""An empty ``update`` is a no-op in every monitor family.

Each family folds new rows into its abstraction; zero rows must leave the
abstraction, its verdicts and its fingerprint exactly as they were.
"""

import numpy as np
import pytest

from repro.monitors.boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from repro.monitors.fingerprint import monitor_fingerprint
from repro.monitors.interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from repro.monitors.minmax import MinMaxMonitor, RobustMinMaxMonitor
from repro.monitors.perturbation import PerturbationSpec

LAYER = 4


def standard(cls):
    return lambda network, method: cls(network, LAYER)


def robust(cls):
    return lambda network, method: cls(
        network, LAYER, PerturbationSpec(delta=0.02, layer=0, method=method)
    )


FAMILIES = [
    ("minmax", standard(MinMaxMonitor), ["box"]),
    ("boolean", standard(BooleanPatternMonitor), ["box"]),
    ("interval", standard(IntervalPatternMonitor), ["box"]),
    ("robust_minmax", robust(RobustMinMaxMonitor), ["box", "star"]),
    ("robust_boolean", robust(RobustBooleanPatternMonitor), ["box", "star"]),
    ("robust_interval", robust(RobustIntervalPatternMonitor), ["box", "star"]),
]
CASES = [
    pytest.param(build, method, id=f"{name}-{method}")
    for name, build, methods in FAMILIES
    for method in methods
]


@pytest.mark.parametrize("build,method", CASES)
def test_empty_update_leaves_verdicts_and_fingerprint(
    tiny_network, tiny_inputs, rng, build, method
):
    monitor = build(tiny_network, method).fit(tiny_inputs[:8])
    probes = np.vstack([tiny_inputs, rng.uniform(-3.0, 3.0, size=(16, 6))])
    warnings = monitor.warn_batch(probes)
    fingerprint = monitor_fingerprint(monitor)
    samples = monitor.num_training_samples

    assert monitor.update(np.zeros((0, tiny_network.input_dim))) is monitor

    np.testing.assert_array_equal(monitor.warn_batch(probes), warnings)
    assert monitor_fingerprint(monitor) == fingerprint
    assert monitor.num_training_samples == samples
