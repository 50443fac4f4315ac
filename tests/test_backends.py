"""The shard helper under both ``sharded`` tiers, and the src/tests boundary.

The registry contract of :mod:`repro._backends` is pinned by
:class:`tests.registry_contract.RegistryContract`, bound once per back-end
family in ``tests/runtime/test_kernels.py`` and
``tests/symbolic/test_star_lp.py``; only its thread safety is tested here.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro._backends import Registry, default_workers, run_sharded, shard_spans

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestShardSpans:
    @pytest.mark.parametrize(
        "n,min_per_shard,max_workers",
        [(0, 4, 4), (7, 4, 4), (8, 4, 4), (100, 4, 3), (4096, 1024, 8), (5, 1, 8)],
    )
    def test_spans_tile_the_range(self, n, min_per_shard, max_workers):
        spans = shard_spans(n, min_per_shard, max_workers)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
        assert 1 <= len(spans) <= max_workers
        if len(spans) > 1:
            assert min(stop - start for start, stop in spans) >= min_per_shard

    def test_fewer_than_two_shards_worth_runs_inline(self):
        assert shard_spans(2047, 1024, 8) == [(0, 2047)]
        assert len(shard_spans(2048, 1024, 8)) == 2

    def test_default_ceiling_tracks_the_machine(self):
        assert default_workers() == min(8, os.cpu_count() or 1)
        assert len(shard_spans(10_000, 1)) == default_workers()


class TestRunSharded:
    def test_results_come_back_in_span_order(self):
        spans = shard_spans(40, 5, 4)
        assert run_sharded("repro-test-shard", spans, lambda a, b: (a, b)) == spans

    def test_one_pool_per_prefix(self):
        names = run_sharded(
            "repro-test-shard", [(0, 1), (1, 2)], lambda a, b: threading.current_thread().name
        )
        assert all(name.startswith("repro-test-shard") for name in names)

    def test_errors_propagate(self):
        def fail(start, stop):
            raise RuntimeError(f"shard {start}")

        with pytest.raises(RuntimeError, match="shard 0"):
            run_sharded("repro-test-shard", [(0, 1)], fail)


def test_concurrent_resolve_builds_one_instance():
    """Racing first resolves of one name share a single factory call."""
    calls = []

    class Backend:
        def __init__(self):
            calls.append(self)
            time.sleep(0.01)  # widen the check-then-create window

    registry = Registry("test", Backend, "REPRO_TEST_BACKEND_UNSET", "only")
    registry.register("only", Backend)
    barrier = threading.Barrier(16)
    results = []

    def worker():
        barrier.wait(timeout=10)
        results.append(registry.resolve("only"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 16 and len(calls) == 1
    assert all(result is calls[0] for result in results)


def test_no_repro_module_imports_a_test_oracle():
    """Importing every ``repro.*`` module loads nothing from ``tests``."""
    script = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "leaked = sorted(m for m in sys.modules if m == 'tests' or m.startswith('tests.'))\n"
        "assert not leaked, leaked\n"
        "print(len([m for m in sys.modules if m.startswith('repro.')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=os.path.dirname(SRC),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.strip()) > 50
