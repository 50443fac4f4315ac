"""The bit-sliced range index, pinned to the broadcast oracle.

:func:`repro.runtime.matcher.range_index` turns ``R`` stored code ranges
into one ``uint64`` bitset per (position, code), and the range tier answers
membership with word ANDs over those bitsets.  These tests pin it to the
``(N, R, P)`` broadcast of :mod:`tests.reference.matcher` at sizes that
fill several index words (the backend-equivalence suite stays below one),
and check that every way of changing a matcher's ranges rebuilds the index:
new ranges on a queried matcher, ``merge``, the format-2 round trip and an
incremental refit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.patterns import PatternSet
from repro.exceptions import ShapeError
from repro.lifecycle import incremental_refit
from repro.monitors import monitor_fingerprint
from repro.monitors.interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from repro.monitors.perturbation import PerturbationSpec
from repro.monitors.thresholds import percentile_thresholds
from repro.runtime import PackedMatcher, WordCodec
from repro.runtime.kernels import NumpyMatcherKernel
from repro.runtime.matcher import range_index
from tests.reference.matcher import match_ranges_broadcast

#: Range counts on and around the 64-bit word boundaries of the index.
WORD_EDGES = [63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257]


def random_ranges(rng, num_ranges, num_positions, bits, hole_position=None):
    """``(low, high)`` code ranges; ``hole_position`` never admits the top code."""
    top = (1 << bits) - 1
    low = rng.integers(0, top + 1, size=(num_ranges, num_positions))
    high = np.minimum(low + rng.integers(0, top + 1, size=low.shape), top)
    if hole_position is not None:
        low[:, hole_position] = np.minimum(low[:, hole_position], top - 1)
        high[:, hole_position] = np.minimum(high[:, hole_position], top - 1)
    return low, high


def assert_matches_oracle(matcher, low, high, probes):
    """The matcher and its range pass both agree with the broadcast oracle."""
    expected = match_ranges_broadcast(probes, low, high)
    np.testing.assert_array_equal(matcher.contains_codes(probes), expected)
    plan = matcher.match_plan()
    if plan.range_index is not None:
        np.testing.assert_array_equal(
            NumpyMatcherKernel().match_ranges(probes, plan.range_index),
            match_ranges_broadcast(probes, plan.range_low, plan.range_high),
        )
    return expected


@st.composite
def range_workloads(draw):
    num_positions = draw(st.integers(min_value=1, max_value=70))
    bits = draw(st.integers(min_value=1, max_value=4))
    num_ranges = draw(
        st.one_of(st.integers(min_value=0, max_value=300), st.sampled_from(WORD_EDGES))
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    hole = int(rng.integers(0, num_positions))
    low, high = random_ranges(rng, num_ranges, num_positions, bits, hole_position=hole)
    num_codes = 1 << bits
    random_probes = rng.integers(0, num_codes, size=(draw(st.integers(0, 20)), num_positions))
    reused = min(num_ranges, 8)
    # Outside every range: the hole position holds the one code no range admits.
    outside = rng.integers(0, num_codes, size=(draw(st.integers(1, 8)), num_positions))
    outside[:, hole] = num_codes - 1
    return {
        "bits": bits,
        "low": low,
        "high": high,
        "random": random_probes,
        "stored": np.vstack([low[:reused], high[:reused]]),
        "outside": outside,
    }


class TestIndexAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(workload=range_workloads())
    def test_index_matches_broadcast_oracle(self, workload):
        low, high = workload["low"], workload["high"]
        codec = WordCodec(low.shape[1], workload["bits"])
        matcher = PackedMatcher(codec, backend="numpy")
        if low.shape[0]:
            matcher.add_code_ranges(low, high)
        probes = np.vstack([workload["random"], workload["stored"], workload["outside"]])
        expected = assert_matches_oracle(matcher, low, high, probes)
        num_random, num_stored = workload["random"].shape[0], workload["stored"].shape[0]
        assert expected[num_random : num_random + num_stored].all()
        assert not expected[num_random + num_stored :].any()

    @settings(max_examples=40, deadline=None)
    @given(workload=range_workloads())
    def test_index_bit_r_of_p_c_is_range_membership(self, workload):
        low, high = workload["low"], workload["high"]
        if low.shape[0] == 0:
            return
        index = range_index(low, high, workload["bits"])
        num_ranges, num_positions = low.shape
        num_codes = 1 << workload["bits"]
        assert index.dtype == np.uint64
        assert index.shape == (num_positions, num_codes, (num_ranges + 63) // 64)
        # (P, C, 64·⌈R/64⌉) bools, bit r of the little-endian words at column r.
        bits = np.unpackbits(index.view(np.uint8), axis=-1, bitorder="little").astype(bool)
        codes = np.arange(num_codes)
        inside = (low.T[:, None, :] <= codes[None, :, None]) & (
            codes[None, :, None] <= high.T[:, None, :]
        )
        np.testing.assert_array_equal(bits[:, :, :num_ranges], inside)
        assert not bits[:, :, num_ranges:].any()  # padding bits stay zero


class TestIndexInvalidation:
    def test_add_code_ranges_after_a_query_rebuilds_the_index(self):
        rng = np.random.default_rng(1)
        codec = WordCodec(16, 2)
        low, high = random_ranges(rng, 200, 16, 2)
        probes = np.vstack([low, high, rng.integers(0, 4, size=(64, 16))])
        matcher = PackedMatcher(codec)
        matcher.add_code_ranges(low[:60], high[:60])
        assert_matches_oracle(matcher, low[:60], high[:60], probes)
        assert matcher.match_plan().range_index.shape[2] == 1
        matcher.add_code_ranges(low[60:], high[60:])
        assert matcher.match_plan().range_index.shape[2] == 4
        assert_matches_oracle(matcher, low, high, probes)

    def test_merge_rebuilds_the_index(self):
        rng = np.random.default_rng(2)
        codec = WordCodec(20, 3)
        low, high = random_ranges(rng, 150, 20, 3)
        probes = np.vstack([low, high, rng.integers(0, 8, size=(64, 20))])
        left, right = PackedMatcher(codec), PackedMatcher(codec)
        left.add_code_ranges(low[:70], high[:70])
        right.add_code_ranges(low[70:], high[70:])
        assert_matches_oracle(left, low[:70], high[:70], probes)
        assert_matches_oracle(right, low[70:], high[70:], probes)
        left.merge(right)
        assert_matches_oracle(left, low, high, probes)

    def test_format2_roundtrip_rederives_the_index(self):
        rng = np.random.default_rng(2024)
        low = rng.integers(0, 4, size=(150, 12))
        high = np.minimum(low + rng.integers(0, 3, size=low.shape), 3)
        words = rng.integers(0, 4, size=(9, 12))
        original = PatternSet(12, bits_per_position=2)
        original.add_patterns(words)
        original.add_range_patterns(low, high)
        probes = np.vstack([words, low, high, rng.integers(0, 4, size=(40, 12))])
        expected = original.contains_batch(probes)
        state = original.packed_state()
        # Format 2 persists exactly the five mirror arrays, byte for byte as
        # before the index existed; the index itself is never written.
        assert sorted(state) == [
            "exact",
            "range_high",
            "range_low",
            "ternary_masks",
            "ternary_values",
        ]
        digest = hashlib.sha256()
        for key in sorted(state):
            array = state[key]
            digest.update(key.encode())
            digest.update(array.dtype.str.encode())
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())
        assert (
            digest.hexdigest()
            == "9e43810af64adee9440f216e5b51287f4cb3cb969a467f1e8fd6ccccb5fb584b"
        )
        restored = PatternSet.from_packed_state(12, 2, state, insertions=original.insertions)
        np.testing.assert_array_equal(restored.contains_batch(probes), expected)
        # The exact words are point ranges to the oracle.
        assert_matches_oracle(
            restored._matcher, np.vstack([words, low]), np.vstack([words, high]), probes
        )
        for key, array in restored.packed_state().items():
            assert array.tobytes() == state[key].tobytes()

    def test_incremental_refit_crossing_a_word_matches_a_fresh_fit(self, tiny_network):
        rng = np.random.default_rng(3)
        part_a = rng.uniform(-1.0, 1.0, size=(50, 6))
        part_b = rng.uniform(-1.5, 1.5, size=(40, 6))
        probes = np.vstack([part_a, part_b, rng.uniform(-2.0, 2.0, size=(64, 6))])
        cuts = percentile_thresholds(IntervalPatternMonitor(tiny_network, 4).features(part_a), 3)

        def build():
            return RobustIntervalPatternMonitor(
                tiny_network, 4, PerturbationSpec(delta=0.05), num_cuts=3, cut_points=cuts
            )

        fitted = build().fit(part_a)
        fitted.warn_batch(probes)  # builds the one-word index before the refit
        assert fitted.patterns._matcher.num_ranges < 64
        refit = incremental_refit(fitted, part_b)
        scratch = build().fit(np.vstack([part_a, part_b]))
        assert refit.patterns._matcher.num_ranges > 64
        assert monitor_fingerprint(refit) == monitor_fingerprint(scratch)
        np.testing.assert_array_equal(refit.warn_batch(probes), scratch.warn_batch(probes))
        plan = refit.patterns._matcher.match_plan()
        assert plan.range_index.shape[2] == 2
        codes = refit.codec.codes(refit.features(probes))
        np.testing.assert_array_equal(
            NumpyMatcherKernel().match_ranges(codes, plan.range_index),
            match_ranges_broadcast(codes, plan.range_low, plan.range_high),
        )


def test_merge_rejects_a_different_position_layout_of_equal_width():
    """16 positions x 2 bits and 32 x 1 bit both pack 32 bits: not mergeable."""
    wide = PackedMatcher(WordCodec(32, 1))
    narrow = PackedMatcher(WordCodec(16, 2))
    narrow.add_code_ranges(np.zeros((1, 16)), np.ones((1, 16)))
    narrow.add_exact_packed(WordCodec(16, 2).pack_codes(np.full((1, 16), 3)))
    with pytest.raises(ShapeError, match="16-position x 2-bit"):
        wide.merge(narrow)
    assert wide.is_empty
