"""One registry and one shard helper for the pluggable back-end tiers.

The star-LP tiers answering the sound estimate's bound queries
(:mod:`repro.symbolic.star_lp`) and the matcher kernels answering every
verdict (:mod:`repro.runtime.kernels`) are each one :class:`Registry`.
Both families ship a ``sharded`` tier: :func:`shard_spans` splits one call
into contiguous spans and :func:`run_sharded` runs them on a lazily
created thread pool per name prefix.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Generic, List, Optional, Tuple, TypeVar, Union

import numpy as np

from .exceptions import ConfigurationError

__all__ = ["Registry", "default_workers", "shard_spans", "run_sharded"]

T = TypeVar("T")
R = TypeVar("R")


class Registry(Generic[T]):
    """Name → factory table of one back-end family.

    ``kind`` names the family in error messages (``"matcher"``,
    ``"star-LP"``), ``base`` is the class every back-end derives from,
    ``env_var`` selects the process-wide default and ``default`` is the name
    used when neither a call-site choice nor the variable is set.
    """

    def __init__(self, kind: str, base: type, env_var: str, default: str) -> None:
        self.kind = kind
        self.base = base
        self.env_var = env_var
        self.default = default
        self._factories: Dict[str, Callable[[], T]] = {}
        #: One shared instance per name (back-ends are stateless apart from
        #: counters, and ``sharded`` tiers deliberately share their pool).
        self._instances: Dict[str, T] = {}
        self._lock = threading.RLock()

    def register(self, name: str, factory: Callable[[], T]) -> None:
        """Register (or replace) a back-end under ``name``.

        ``factory`` is a zero-argument callable returning a ``base``
        instance; it is invoked once and the instance reused for every
        caller that selects ``name``.
        """
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"{self.kind} back-end name must be a non-empty string")
        if not callable(factory):
            raise ConfigurationError(f"{self.kind} back-end '{name}' factory is not callable")
        with self._lock:
            self._factories[name] = factory
            self._instances.pop(name, None)

    def unregister(self, name: str) -> None:
        """Remove a back-end from the registry (built-ins may be re-registered)."""
        with self._lock:
            self._factories.pop(name, None)
            self._instances.pop(name, None)

    def names(self) -> Dict[str, Callable[[], T]]:
        """Mapping of registered back-end name to factory (a copy)."""
        return dict(self._factories)

    def resolve(self, choice: Union[None, str, T] = None) -> T:
        """Turn a back-end choice into a ready instance.

        ``choice`` may be an instance of ``base`` (returned as-is), a
        registry name, or ``None``, which reads ``env_var`` and falls back to
        ``default``.  Unknown names raise a
        :class:`~repro.exceptions.ConfigurationError` (a ``ValueError``)
        listing the registered names.
        """
        if isinstance(choice, self.base):
            return choice
        name = choice
        if name is None:
            name = os.environ.get(self.env_var, "").strip() or self.default
        with self._lock:
            if name not in self._factories:
                valid = ", ".join(sorted(self._factories))
                raise ConfigurationError(
                    f"unknown {self.kind} backend '{name}'; valid backends are: {valid}"
                )
            instance = self._instances.get(name)
            if instance is None:
                instance = self._factories[name]()
                if not isinstance(instance, self.base):
                    raise ConfigurationError(
                        f"{self.kind} backend '{name}' factory returned "
                        f"{type(instance).__name__}, not a {self.base.__name__}"
                    )
                self._instances[name] = instance
            return instance


def default_workers() -> int:
    """Shard ceiling that tracks the machine: ``min(8, cpu_count)``."""
    return min(8, os.cpu_count() or 1)


def shard_spans(
    n: int, min_per_shard: int, max_workers: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` spans covering ``range(n)``.

    At most ``max_workers`` spans (``None`` means :func:`default_workers`)
    and at least ``min_per_shard`` items per span, so fewer than
    ``2 * min_per_shard`` items give one span and the caller runs inline.
    """
    workers = default_workers() if max_workers is None else max_workers
    count = max(1, min(workers, n // min_per_shard))
    edges = np.linspace(0, n, count + 1, dtype=np.int64)
    return [(int(edges[s]), int(edges[s + 1])) for s in range(count)]


_POOLS: Dict[str, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def run_sharded(
    prefix: str, spans: List[Tuple[int, int]], work: Callable[[int, int], R]
) -> List[R]:
    """Run ``work(start, stop)`` per span on the pool named ``prefix``.

    The pool is created on first use with :func:`default_workers` threads
    and shared by every caller using the same prefix.  Results come back in
    span order.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(prefix)
        if pool is None:
            pool = _POOLS[prefix] = ThreadPoolExecutor(
                max_workers=default_workers(), thread_name_prefix=prefix
            )
    futures = [pool.submit(work, start, stop) for start, stop in spans]
    return [future.result() for future in futures]
