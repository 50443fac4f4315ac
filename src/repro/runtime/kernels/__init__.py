"""Matcher-kernel back-end registry.

The TCAM matcher answers every verdict the system serves, so its inner
match pass is pluggable: a name → factory registry, queried by
:class:`~repro.runtime.matcher.PackedMatcher` at dispatch time.

Built-in back-ends
------------------
``numpy``
    The reference NumPy implementation (always available, always the
    equivalence oracle): sorted ``isin`` for exact rows, a ternary
    broadcast, and word ANDs over the bit-sliced range index.
``compiled``
    A numba-jitted fused pass — exact binary search, ternary
    compare-popcount and code ranges in one ``prange`` loop per probe, no
    intermediate tensors.  Degrades gracefully to ``numpy`` when numba is
    not installed.
``sharded``
    A thread-pool driver that chunks the probe axis and runs the compiled
    (or reference) kernel per chunk — for very wide layers and large
    probe batches.

Selection
---------
Per matcher via ``PackedMatcher(codec, backend=...)`` (a registry name or a
ready :class:`MatcherKernel` instance), or process-wide via the
``REPRO_MATCHER_BACKEND`` environment variable; the default is ``numpy``.
Third-party kernels plug in with :func:`register_matcher_backend`.  The
registry is one :class:`repro._backends.Registry`, the same class behind
the star-LP tiers; the public functions here are its bound methods.
"""

from __future__ import annotations

from typing import Union

from ..._backends import Registry
from .base import MatcherKernel, MatchPlan
from .compiled_backend import HAVE_NUMBA, CompiledMatcherKernel
from .numpy_backend import NumpyMatcherKernel
from .sharded_backend import ShardedMatcherKernel

__all__ = [
    "MatchPlan",
    "MatcherKernel",
    "NumpyMatcherKernel",
    "CompiledMatcherKernel",
    "ShardedMatcherKernel",
    "HAVE_NUMBA",
    "MATCHER_BACKEND_ENV",
    "DEFAULT_MATCHER_BACKEND",
    "matcher_backends",
    "register_matcher_backend",
    "unregister_matcher_backend",
    "resolve_matcher_backend",
]

#: Environment variable that selects the process-wide default back-end.
MATCHER_BACKEND_ENV = "REPRO_MATCHER_BACKEND"

#: Back-end used when neither a constructor choice nor the env var is set.
DEFAULT_MATCHER_BACKEND = "numpy"

BackendChoice = Union[None, str, MatcherKernel]

MATCHER_REGISTRY: "Registry[MatcherKernel]" = Registry(
    "matcher", MatcherKernel, MATCHER_BACKEND_ENV, DEFAULT_MATCHER_BACKEND
)
register_matcher_backend = MATCHER_REGISTRY.register
unregister_matcher_backend = MATCHER_REGISTRY.unregister
matcher_backends = MATCHER_REGISTRY.names
resolve_matcher_backend = MATCHER_REGISTRY.resolve

register_matcher_backend("numpy", NumpyMatcherKernel)
register_matcher_backend("compiled", CompiledMatcherKernel)
register_matcher_backend("sharded", ShardedMatcherKernel)
