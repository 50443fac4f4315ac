"""E12 — matcher-kernel back-ends: numpy reference vs compiled vs sharded.

The per-frame cost of a deployed pattern monitor is one packed-membership
query, so the matcher kernel is the serving hot loop.  This benchmark times
every registered back-end on synthetic pattern sets shaped like the two
regimes that matter — a narrow monitored layer (one machine word per
pattern) and a wide one (many words, where the numpy reference materialises
``(probes, patterns, words)`` broadcast intermediates) — asserts all
back-ends return bit-identical verdicts, and records the wall times into
the CI perf-regression gate with the *effective* back-end annotated
(``compiled`` silently degrades to ``numpy`` without numba; the JSON entry
must say which engine actually ran).

A second pair of cases times the code-range tier alone, on plans shaped
like a robust interval monitor's: 2-bit codes over 16 positions with ≈215
stored ranges (the benchmark network's robust interval plan) and a wide
2048-range variant that fills 32 words of the bit-sliced range index.

On the numba CI leg the fused kernel must beat the broadcast reference by
≥3× on the wide-layer case — the acceptance bar of the back-end registry
work; without numba that assertion is skipped, never silently weakened.
"""

import os

import numpy as np
import pytest

from repro.eval.reporting import format_table
from repro.runtime import PackedMatcher, WordCodec
from repro.runtime.codec import PatternCodec
from repro.runtime.kernels import HAVE_NUMBA, matcher_backends, resolve_matcher_backend

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

BACKENDS = sorted(matcher_backends())

#: (name, positions, ternary patterns, exact patterns, probe rows)
CASES = [
    ("narrow", 48, 64 if QUICK else 192, 128, 512 if QUICK else 4096),
    ("wide", 256 if QUICK else 640, 96 if QUICK else 384, 256, 512 if QUICK else 4096),
]

#: (name, positions, bits per position, range patterns, probe rows)
RANGE_CASES = [
    ("range", 16, 2, 215, 512 if QUICK else 4096),
    ("range_wide", 16, 2, 2048, 512 if QUICK else 4096),
]

#: Repeat counts keep one timing sample well above timer resolution.
INNER = {"narrow": 4, "wide": 2, "range": 32, "range_wide": 16}


def build_case(num_positions: int, num_ternary: int, num_exact: int, num_probes: int):
    """One synthetic monitored-layer pattern set plus an operational batch."""
    rng = np.random.default_rng(num_positions)
    codec = PatternCodec.from_thresholds(np.zeros(num_positions))
    exact = rng.integers(0, 2, size=(num_exact, num_positions))
    centres = rng.normal(size=(num_ternary, num_positions))
    spans = rng.uniform(0.05, 0.8, size=(num_ternary, num_positions))
    probes = rng.integers(0, 2, size=(num_probes, num_positions))
    probes[: num_exact // 4] = exact[: num_exact // 4]  # guaranteed hits

    def make_matcher(backend):
        matcher = PackedMatcher(codec.word_codec, backend=backend)
        matcher.add_exact_packed(codec.word_codec.pack_codes(exact))
        matcher.add_ternary(codec.ternary_planes(centres - spans, centres + spans))
        return matcher

    return make_matcher, codec.word_codec.pack_codes(probes)


def build_range_case(num_positions: int, bits: int, num_ranges: int, num_probes: int):
    """A robust-interval-shaped plan: per-position code ranges only."""
    rng = np.random.default_rng(num_ranges)
    codec = WordCodec(num_positions, bits)
    top = (1 << bits) - 1
    low = rng.integers(0, top + 1, size=(num_ranges, num_positions))
    high = np.minimum(low + rng.integers(0, 2, size=low.shape), top)
    codes = rng.integers(0, top + 1, size=(num_probes, num_positions))
    codes[: num_ranges // 4] = low[: num_ranges // 4]  # guaranteed hits

    def make_matcher(backend):
        matcher = PackedMatcher(codec, backend=backend)
        matcher.add_code_ranges(low, high)
        return matcher

    return make_matcher, codec.pack_codes(codes), codes


def time_backends(bench_record, rows, case_name, make_matcher, query, **attrs):
    """Time ``query(matcher)`` on every back-end; returns the shared verdicts."""
    reference = None
    for backend in BACKENDS:
        matcher = make_matcher(backend)
        # Warm up outside the timer: first-call JIT compilation (numba
        # leg) and lazy plan consolidation are one-time costs.
        hits = query(matcher)
        if reference is None:
            reference = hits
        else:
            np.testing.assert_array_equal(hits, reference)
        key = f"matcher_{case_name}_{backend}"
        bench_record.measure(
            key, lambda m=matcher: query(m), repeats=3, inner=INNER[case_name]
        )
        effective = resolve_matcher_backend(backend).effective_name
        bench_record.annotate(key, backend=backend, effective=effective, **attrs)
        rows.append(
            [case_name, backend, effective, f"{bench_record.timings[key] * 1e3:.3f} ms"]
        )
    return reference


@pytest.mark.benchmark(group="E12-matcher-kernels")
def test_matcher_kernel_backends(bench_record):
    rows = []
    for case_name, num_positions, num_ternary, num_exact, num_probes in CASES:
        make_matcher, probes = build_case(
            num_positions, num_ternary, num_exact, num_probes
        )
        reference = time_backends(
            bench_record,
            rows,
            case_name,
            make_matcher,
            lambda m: m.contains_packed(probes),
            positions=num_positions,
            patterns=num_ternary + num_exact,
            probes=num_probes,
        )
        assert reference is not None and reference[: num_exact // 4].all()
    print()
    print(format_table(["case", "backend", "effective", "time/query"], rows))


@pytest.mark.benchmark(group="E12-matcher-kernels")
def test_matcher_range_tier(bench_record):
    """The code-range tier alone, probes handed over with their codes."""
    rows = []
    for case_name, num_positions, bits, num_ranges, num_probes in RANGE_CASES:
        make_matcher, probes, codes = build_range_case(
            num_positions, bits, num_ranges, num_probes
        )
        reference = time_backends(
            bench_record,
            rows,
            case_name,
            make_matcher,
            lambda m: m.contains_packed(probes, codes=codes),
            positions=num_positions,
            bits=bits,
            patterns=num_ranges,
            probes=num_probes,
        )
        assert reference is not None and reference[: num_ranges // 4].all()
    print()
    print(format_table(["case", "backend", "effective", "time/query"], rows))


@pytest.mark.benchmark(group="E12-matcher-kernels")
@pytest.mark.skipif(not HAVE_NUMBA, reason="fused kernel needs numba (CI compiled leg)")
def test_compiled_speedup_on_wide_layer(bench_record):
    """Acceptance bar: the fused kernel ≥3× over broadcast on a wide layer."""
    _, num_positions, num_ternary, num_exact, num_probes = CASES[1]
    make_matcher, probes = build_case(num_positions, num_ternary, num_exact, num_probes)
    numpy_matcher = make_matcher("numpy")
    compiled_matcher = make_matcher("compiled")
    np.testing.assert_array_equal(
        compiled_matcher.contains_packed(probes), numpy_matcher.contains_packed(probes)
    )

    def best_of(matcher, repeats=5):
        import time

        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            matcher.contains_packed(probes)
            best = min(best, time.perf_counter() - start)
        return best

    numpy_time = best_of(numpy_matcher)
    compiled_time = best_of(compiled_matcher)
    speedup = numpy_time / compiled_time
    bench_record.record("_compiled_wide_speedup", speedup)
    print(f"\nwide-layer fused-kernel speedup: {speedup:.1f}x")
    assert speedup >= 3.0, (
        f"fused compiled kernel only {speedup:.2f}x over the numpy reference "
        f"on the wide-layer case (bar: 3x)"
    )
