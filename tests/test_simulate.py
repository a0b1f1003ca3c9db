"""Simulator contract: exact conditional law, determinism, ensemble spread."""

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twostate import (
    BinarySequence,
    MarkovParams,
    ParameterError,
    ScatterDataset,
    child_seed,
    derive,
    ensemble,
    generate,
    std_of_proportion,
)
from twostate import simulate
from twostate.simulate import _BLOCK, _SLICE, _scanner

probs = st.floats(min_value=0.01, max_value=0.99)
# near 0 or 1, a forced step is rare in the copy (0.9999, 0.9999) and the
# flip (0.0001, 0.0001) regime, so the steps before one can span slices
near_edge = st.sampled_from([0.0001, 0.9999])
# (slice, block) sizes a scan is mocked to: one-slice blocks of 2, 6, 62, 66
# and 130 draws end within a word, whose state is carried into the next
# block, and blocks of several 64-draw slices are packed slice by slice
small_scans = [(2, 2), (6, 6), (62, 62), (64, 64), (66, 66), (130, 130), (64, 128), (64, 192), (64, 320)]


def scan_sizes(slice_size, block):
    """Scan in slices of `slice_size` draws and blocks of `block` steps."""
    return mock.patch.multiple(simulate, _SLICE=slice_size, _BLOCK=block)


def stream(seed, n):
    """The seed's first n uint32 draws: step i reads half i & 1 of PCG64
    output i >> 1, the low half first."""
    raw = np.random.PCG64(seed).random_raw(-(-n // 2))
    return np.stack((raw & 0xFFFF_FFFF, raw >> 32), axis=1).ravel()[:n].astype(np.uint32)


def naive_states(params, u):
    """Sequential reference implementation of the generation rule on uint32
    draws u: a probability x is the threshold round(x * 2**32)."""
    u = u.tolist()
    # the threshold of the step after state 0 and after state 1
    after = (round((1.0 - params.q) * 2**32), round(params.p * 2**32))
    x = [1 if u[0] < round(params.p1 * 2**32) else 0]
    for ui in u[1:]:
        x.append(1 if ui < after[x[-1]] else 0)
    return np.array(x, dtype=np.uint8)


def flips(params):
    """Whether an unforced step flips the state: t(p) < t(1 - q)."""
    return round(params.p * 2**32) < round((1.0 - params.q) * 2**32)


def scan_block(params, u, starts, carry, slice_size):
    """One `_scanner` block over the draws u from `carry`, packed slice_size
    draws at a time, with chains starting at the block positions `starts`."""
    pack, resolve = _scanner(params, min(u.size, slice_size))
    parts = [pack(u[s : s + slice_size], starts[(starts >= s) & (starts < s + slice_size)] - s)
             for s in range(0, u.size, slice_size)]
    return resolve(u.size, carry, *(np.concatenate(p) for p in zip(*parts)))


def scan_states(params, u, prev=None):
    """One `_scanner` block of one slice over `u`: a chain starts at u[0], or
    carries on from the state `prev` before it."""
    starts = np.array([0] if prev is None else [], dtype=np.intp)
    # the carry is w at position -1, whose parity is odd
    carry = (prev or 0) ^ flips(params)
    words, _ = scan_block(params, u, starts, carry, u.size)
    return np.unpackbits(words.view(np.uint8), count=u.size, bitorder="little")


def empirical_autocorrelation(seq, m):
    """Lag-m product average of the spin variable s = 2x - 1,
    (1/(N-m)) sum s_i s_(i+m)."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ParameterError(f"lag must be a positive integer, got {m!r}")
    n = len(seq)
    if m >= n:
        raise ParameterError(f"lag {m} must be smaller than the sequence length {n}")
    s = seq.states.astype(np.float64) * 2 - 1
    return float(s[: n - m] @ s[m:]) / (n - m)


def member_frequencies(params, sizes, seed):
    """The sequential rule on each member's block of the seed's one stream."""
    u = stream(seed, sum(sizes))
    ends = np.cumsum(sizes)
    return [naive_states(params, u[end - n : end]).mean() for n, end in zip(sizes, ends)]


class TestBinarySequence:
    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            BinarySequence(np.array([], dtype=np.uint8))

    def test_rejects_nonbinary(self):
        with pytest.raises(ParameterError):
            BinarySequence(np.array([0, 1, 2]))

    @pytest.mark.parametrize("values", [[0.7, 0.2, 1.0], [0.0, 1.5], [0, 256], [1, -1], [float("nan"), 1]])
    def test_rejects_values_a_cast_would_coerce(self, values):
        with pytest.raises(ParameterError):
            BinarySequence(values)

    def test_accepts_integral_floats_and_bools(self):
        assert BinarySequence([1.0, 0.0, 1.0]).states.tolist() == [1, 0, 1]
        assert BinarySequence(np.array([True, False])).states.tolist() == [1, 0]

    def test_callers_array_stays_writeable(self):
        x = np.array([1, 0, 1], dtype=np.uint8)
        seq = BinarySequence(x)
        # a read-only view is no handover: its base stays writeable
        view = x.view()
        view.flags.writeable = False
        from_view = BinarySequence(view)
        x[0] = 0
        assert seq.states.tolist() == [1, 0, 1] and from_view.states.tolist() == [1, 0, 1]

    def test_states_frozen(self):
        seq = generate(MarkovParams(0.5, 0.5), 10, 0)
        with pytest.raises(ValueError):
            seq.states[0] = 1


class TestScatterDataset:
    def test_rejects_bad_size(self):
        with pytest.raises(ParameterError):
            ScatterDataset(np.array([0]), np.array([0.5]))

    def test_rejects_bad_proportion(self):
        with pytest.raises(ParameterError):
            ScatterDataset(np.array([10]), np.array([1.5]))

    @pytest.mark.parametrize(
        "sizes,p_bars",
        [([10.7], [0.5]), ([float("nan")], [0.5]), ([float("inf")], [0.5]), ([2.0**63], [0.5]),
         ([2**64], [0.5]), ([10], [float("nan")]), ([10, 20], [0.5, float("nan")])],
    )
    def test_rejects_values_a_cast_would_coerce(self, sizes, p_bars):
        with pytest.raises(ParameterError):
            ScatterDataset(sizes, p_bars)

    def test_callers_arrays_stay_writeable(self):
        sizes, p_bars = np.array([10, 20]), np.array([0.5, 0.25])
        ds = ScatterDataset(sizes, p_bars)
        sizes[0], p_bars[0] = 11, 0.3
        assert ds.sizes.tolist() == [10, 20] and ds.p_bars.tolist() == [0.5, 0.25]
        with pytest.raises(ValueError):
            ds.p_bars[0] = 0.3


class TestValueEquality:
    """`==` compares the arrays as values and always gives a bool."""

    def test_binary_sequence(self):
        x = np.array([1, 0, 1], dtype=np.uint8)
        seq = BinarySequence(x)
        assert (seq == BinarySequence(x.copy())) is True
        assert (seq != BinarySequence(x.copy())) is False
        assert (seq == BinarySequence([1, 1, 1])) is False
        assert (seq == BinarySequence([1, 0])) is False
        for foreign in ("101", [1, 0, 1], None, 3):
            assert (seq == foreign) is False and (seq != foreign) is True
        params = MarkovParams(0.6, 0.3)
        assert (generate(params, 100, 5) == generate(params, 100, 5)) is True

    def test_scatter_dataset(self):
        ds = ScatterDataset([10, 20], [0.5, 0.25])
        assert (ds == ScatterDataset(ds.sizes.copy(), ds.p_bars.copy())) is True
        assert (ds != ScatterDataset(ds.sizes.copy(), ds.p_bars.copy())) is False
        assert (ds == ScatterDataset([10, 21], [0.5, 0.25])) is False
        assert (ds == ScatterDataset([10, 20], [0.5, 0.3])) is False
        assert (ds == ScatterDataset([10], [0.5])) is False
        for foreign in ([(10, 0.5), (20, 0.25)], "ds", None, 0.5):
            assert (ds == foreign) is False and (ds != foreign) is True


class TestGenerate:
    def test_deterministic(self):
        params = MarkovParams(0.65, 0.25)
        a = generate(params, 5000, 123)
        b = generate(params, 5000, 123)
        assert np.array_equal(a.states, b.states)

    def test_different_seeds_differ(self):
        params = MarkovParams(0.65, 0.25)
        a = generate(params, 5000, 1)
        b = generate(params, 5000, 2)
        assert not np.array_equal(a.states, b.states)

    @given(
        p=probs,
        q=probs,
        p1=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(1, 150),
        seed=st.integers(0, 2**32),
        prev=st.sampled_from([None, 0, 1]),
    )
    @settings(max_examples=150)
    def test_matches_sequential_rule(self, p, q, p1, n, seed, prev):
        params = MarkovParams(p, q, p1=p1)
        u = stream(seed, n)
        # a carried state makes the first step an ordinary one: p1 = p or 1 - q
        first_step = params if prev is None else MarkovParams(p, q, p1=p if prev else 1.0 - q)
        assert np.array_equal(scan_states(params, u, prev), naive_states(first_step, u))

    @pytest.mark.parametrize("p, q", [(0.8, 0.7), (0.2, 0.3), (0.5, 0.5)], ids=["copy", "flip", "balanced"])
    def test_slices_match_one_scan(self, p, q):
        params = MarkovParams(p, q)
        for n in (1, _SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
            one_scan = naive_states(params, stream(21, n))
            assert np.array_equal(generate(params, n, 21).states, one_scan), n

    def test_slice_is_even(self):
        # `_blocks` starts every slice on a fresh PCG64 output, two draws, so an
        # odd slice would drop a half and shift the draw of every later step;
        # a block's slices are packed into its words, so each is whole words
        # long and a block is whole slices
        assert _SLICE % 64 == 0 and _BLOCK % _SLICE == 0

    @given(
        p=probs | near_edge,
        q=st.none() | probs | near_edge,
        p1=st.none() | st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(1, 300) | st.sampled_from([63, 64, 65, 127, 128, 129]),
        scan=st.sampled_from(small_scans + [(_SLICE, _BLOCK)]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sequential_rule_on_the_stream(self, p, q, p1, n, scan, seed):
        # q=None is q = 1 - p, where every step is forced; near the edges a
        # forced step is rare, so whole rows have none; small blocks end
        # within rows, and the state is carried across rows and blocks
        params = MarkovParams(p, 1.0 - p if q is None else q, p1=p1)
        with scan_sizes(*scan):
            states = generate(params, n, seed).states
        assert np.array_equal(states, naive_states(params, stream(seed, n)))

    @pytest.mark.parametrize("n, bound", [(3 * 10**6, 0.5 * 2**20), (10**4, 0.15 * 2**20)])
    @pytest.mark.parametrize("p, q", [(0.88, 0.5), (0.12, 0.12), (0.5, 0.5)])
    def test_working_memory_bounded(self, p, q, n, bound):
        # beyond the n-byte state array, one slice's draws (256 KiB) and
        # comparisons (64 KiB) and one block's words (two 32 KiB arrays of
        # forced steps, their concatenation and the kernel's temporaries):
        # about 0.42 MiB; the first call imports numpy's generators, so it
        # comes first
        generate(MarkovParams(p, q), 1, 4)
        tracemalloc.start()
        try:
            generate(MarkovParams(p, q), n, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - n < bound

    # sha256 of states.tobytes(), keyed by (p, q, seed, n): copy, flip, every
    # step forced, and rarely forced steps of both kinds, at the edges of
    # what was a 2^15 slice and is now half of one.  Taken from version 0.7.0, which moved every simulated value
    # to uint32 draws; generate output must not change.
    PINNED = {
        (0.88, 0.5, 2026, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        (0.88, 0.5, 2026, 32768): "063839d0348571169f02f9a3df6c5a472d56a93a5efcd1cae25398d432e65641",
        (0.88, 0.5, 2026, 32769): "5e908597e51ec661b71c2c7d900a7bfc3d6be2e7e4373e8d2e3d635522adb8dd",
        (0.88, 0.5, 2026, 1000000): "1c9f65fbb7282cfed588fb90403b6b7b470d083fffda12b14e480109ebc07c71",
        (0.12, 0.12, 2027, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        (0.12, 0.12, 2027, 32768): "81977eeeb2a59a45c2b4410c684a60681b1fced0e8e7753bf2769d0da7f561f4",
        (0.12, 0.12, 2027, 32769): "382c3c87d48de87626f6bdeb0c6bd3f9070af5c0de68ffaf37f0139d81e01b54",
        (0.12, 0.12, 2027, 1000000): "f3df8dc58cc70bdd4c940332329afc7a3e3435e9fb85d6d7e8995cdf53182880",
        (0.5, 0.5, 2028, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        (0.5, 0.5, 2028, 32768): "a9c651883095b155a29d7c48ae8cb5d2df0f3ed801932b671c5991c15130e6df",
        (0.5, 0.5, 2028, 32769): "42f2578ead16d55e20770ad0b32ba2e5438eed0bc7dd8bd9f327232da908f033",
        (0.5, 0.5, 2028, 1000000): "ade40c7d4734dcb460ed6f3ae7c4462805c5743d53add2f6e561e793d4f53e3b",
        (0.999, 0.999, 2029, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        (0.999, 0.999, 2029, 32768): "039c2df92fa3480620269e4c1f3c3fbe9d16a58752750b2dc12672b975376f58",
        (0.999, 0.999, 2029, 32769): "06b787f3d9b172eddba6da4690512600cbcc7596abf63de1ba38a9fa60ee9b2c",
        (0.999, 0.999, 2029, 1000000): "61a91f2de574a69a3a05ec9d2dd039ecfecfe90051e364ab2138c05f0831c8cd",
        (0.001, 0.002, 2030, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        (0.001, 0.002, 2030, 32768): "8b11f0ec68b3062b4d507b7e42bd609944efea306c60c5e9aba93f9ae792f481",
        (0.001, 0.002, 2030, 32769): "6b0b3d553e30f3b283e31344c07577ddc6dc01e21faff8c13c305da291947582",
        (0.001, 0.002, 2030, 1000000): "85c9ab2173fa5584778af30e6558129cdedec5828a78cfef3247b50e5d07c642",
    }

    @pytest.mark.parametrize("key", PINNED, ids=lambda key: "-".join(map(str, key)))
    def test_output_pinned(self, key):
        # the blocks the stream is scanned in, of 4, 2 or 1 slices, do not
        # show in the output
        p, q, seed, n = key
        for block_parts in (1, 2, 4):
            with scan_sizes(_SLICE, _BLOCK // block_parts):
                states = generate(MarkovParams(p, q), n, seed).states
            assert hashlib.sha256(states.tobytes()).hexdigest() == self.PINNED[key], block_parts

    @pytest.mark.parametrize("p, q, never", [(1e-12, 0.5, (1, 1)), (0.5, 1e-12, (0, 0))], ids=["p", "q"])
    def test_probability_below_the_resolution_never_stays(self, p, q, never):
        # 1e-12 < 2^-33 rounds to the threshold 0, which no draw is below
        states = generate(MarkovParams(p, q), 10**5, 6).states
        steps = set(zip(states[:-1].tolist(), states[1:].tolist()))
        assert never not in steps and never[0] in states

    @pytest.mark.parametrize("p1", [0.0, 1.0])
    def test_first_state_exact_at_p1_ends(self, p1):
        # thresholds 0 and 2^32: no draw is below the first, every draw below the second
        assert ensemble(MarkovParams(0.5, 0.5, p1=p1), [1] * 10**4, 6).p_bars.tolist() == [p1] * 10**4

    def test_memoryless_frequency(self):
        seq = generate(MarkovParams(0.5, 0.5), 10**6, 2024)
        assert abs(seq.frequency - 0.5) < 0.002  # 4 binomial sigma

    def test_persistent_frequency(self):
        seq = generate(MarkovParams(0.88, 0.50), 10**6, 2024)
        assert abs(seq.frequency - 0.806) < 0.003

    def test_ergodic_mean_over_grid(self):
        # empirical frequency within 4 sigma of pinf for every combination
        grid = [0.12, 0.25, 0.5, 0.65, 0.88]
        for i, p in enumerate(grid):
            for j, q in enumerate(grid):
                params = MarkovParams(p, q)
                seq = generate(params, 10**6, 1000 + 10 * i + j)
                bound = 4 * std_of_proportion(params, 10**6)
                assert abs(seq.frequency - derive(params).pinf) < bound, (p, q)


class TestScanner:
    # blocks of one slice, the last of them partial, of two slices, the second
    # partial, of one whole slice and of several, the last partial
    @pytest.mark.parametrize("size", [1, 63, 64, 65, _SLICE // 2, 3 * _SLICE // 2 + 5, _SLICE, 3 * _SLICE + 5])
    @pytest.mark.parametrize("p, q", [(0.88, 0.5), (0.12, 0.12), (0.12, 0.88)], ids=["copy", "flip", "every-step-forced"])
    def test_words_hold_the_slice_and_its_carry(self, p, q, size):
        # bit i of word k is step 64k + i, no bit past the block is set, so a
        # popcount counts the block's A states, and the carry is the w of the
        # last step seen from the next block, at its odd position -1
        params = MarkovParams(p, q)
        u = stream(size, size)
        words, carry = scan_block(params, u, np.array([0], dtype=np.intp), 0, _SLICE)
        states = naive_states(params, u)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert words.size == -(-size // 64) and np.array_equal(bits[:size], states) and not bits[size:].any()
        assert carry == states[-1] ^ flips(params)

    def test_allocates_only_its_buffers(self):
        # one bool buffer for a slice's comparisons, one byte a draw, 65,536 B;
        # the draws are the caller's, and a block's words are allocated as it
        # is packed
        _scanner(MarkovParams(0.88, 0.5), _SLICE)
        tracemalloc.start()
        try:
            pack, resolve = _scanner(MarkovParams(0.88, 0.5), _SLICE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert callable(pack) and callable(resolve) and peak < 340_000


class TestEnsemble:
    def test_empty_sizes_rejected(self):
        with pytest.raises(ParameterError):
            ensemble(MarkovParams(0.5, 0.5), [], 0)

    @pytest.mark.parametrize(
        "call",
        [lambda p: ensemble(p, [2**62, 2**62], 0), lambda p: ensemble(p, [2**63], 0),
         lambda p: ensemble(p, [np.uint64(2**63)], 0), lambda p: ensemble(p, [10, True], 0),
         lambda p: generate(p, True, 0), lambda p: generate(p, 2**63, 0)],
        ids=["total-past-int64", "size-past-int64", "uint64-size-past-int64", "bool-size", "bool-length",
             "length-past-int64"],
    )
    def test_rejects_sizes_past_int64_and_bools(self, call):
        with pytest.raises(ParameterError):
            call(MarkovParams(0.5, 0.5))

    def test_memoryless_spread(self):
        ds = ensemble(MarkovParams(0.5, 0.5), [100] * 1000, 7)
        assert ds.p_bars.std(ddof=1) == pytest.approx(0.05, rel=0.10)

    def test_antipersistent_spread_narrows(self):
        # nu = 0.37 shrinks the spread to about 0.0185
        ds = ensemble(MarkovParams(0.12, 0.12), [100] * 1000, 7)
        assert ds.p_bars.std(ddof=1) == pytest.approx(0.37 * 0.05, rel=0.10)

    @pytest.mark.parametrize(
        "p, q, p1, sizes",
        [
            (0.65, 0.25, None, [40, 60, 80]),
            (0.88, 0.50, None, [_SLICE - 3, 7, 1, _SLICE + 5, 2]),
            (0.12, 0.12, None, [1, 1, _SLICE, 1, 30]),
            (0.50, 0.50, None, [3, _SLICE - 1, 1, 1, 40]),
            (0.70, 0.30, 0.95, [1, 9, _SLICE + 1, 1]),
            (0.93, 0.20, 0.0, [5, 1, _SLICE - 5, 20]),
            (0.20, 0.35, 1.0, [1, _SLICE, 17]),
            # a forced step is rare, so most of the long member copies or
            # flips the state its chain started in, across slices
            (0.9999, 0.9999, 0.0, [1, 4 * _SLICE + 1, 3]),
            (0.9999, 0.9999, 1.0, [1, 4 * _SLICE + 1, 3]),
            (0.0001, 0.0001, 0.0, [1, 4 * _SLICE + 1, 3]),
            (0.0001, 0.0001, 1.0, [1, 4 * _SLICE + 1, 3]),
            # members that end at, start at and span a block edge, and a
            # member that is a whole block
            (0.88, 0.50, None, [_BLOCK - 3, 3, _BLOCK, 1, _BLOCK + 7, 2]),
            (0.12, 0.12, None, [1, _BLOCK - 1, 2, _BLOCK - 2, _BLOCK + 5]),
            (0.12, 0.88, 0.3, [_BLOCK, _BLOCK - 1, 1, 9]),
        ],
        ids=["small", "copy-across-slices", "flip-size-one", "p-is-1-minus-q", "p-is-1-minus-q-p1", "p1-zero",
             "flip-p1-one", "rarely-forced-copy-p1-zero", "rarely-forced-copy-p1-one", "rarely-forced-flip-p1-zero",
             "rarely-forced-flip-p1-one", "copy-block-edges", "flip-block-edges", "p-is-1-minus-q-block-edges"],
    )
    def test_members_follow_the_sequential_rule_on_one_stream(self, p, q, p1, sizes):
        params = MarkovParams(p, q, p1=p1)
        ds = ensemble(params, sizes, 11)
        assert ds.sizes.tolist() == sizes
        assert ds.p_bars.tolist() == member_frequencies(params, sizes, 11)

    @given(
        p=probs | near_edge,
        q=st.none() | probs | near_edge,
        p1=st.none() | st.floats(min_value=0.0, max_value=1.0),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        scan=st.sampled_from([(2, 2), (6, 6), (64, 64), (64, 128), (64, 192)]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sequential_rule(self, p, q, p1, sizes, scan, seed):
        # q=None is q = 1 - p, where every step is forced; small blocks make
        # members span several blocks, as long studies do, and blocks of 2
        # and 6 end within a scan word, whose state is carried into the next
        # block; blocks of several slices hold members that start and end in
        # any of their slices
        params = MarkovParams(p, 1.0 - p if q is None else q, p1=p1)
        with scan_sizes(*scan):
            ds = ensemble(params, sizes, seed)
        assert ds.p_bars.tolist() == member_frequencies(params, sizes, seed)

    # chains of a partial slice, of two slices, the second partial, and at
    # slice and block edges
    @pytest.mark.parametrize("n", [1, 2, _SLICE // 2, _SLICE // 2 + 1, 3 * _SLICE // 2 + 5, _SLICE, _SLICE + 1,
                                   _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_one_member_is_a_generated_chain(self, n):
        for params in (MarkovParams(0.88, 0.5), MarkovParams(0.12, 0.12), MarkovParams(0.4, 0.6, p1=0.2)):
            assert ensemble(params, [n], 8).p_bars[0] == generate(params, n, 8).frequency

    @pytest.mark.parametrize("slice_parts", [1, 2])
    @pytest.mark.parametrize("sizes", [[_SLICE] * 3, [5, 3 * _SLICE + 5, _SLICE, 2 * _SLICE - 5]],
                             ids=["whole-slices", "across-slices"])
    def test_member_sums_reach_a_whole_slice(self, sizes, slice_parts):
        # every state is A: p = 1 - 1e-12 rounds to the threshold 2^32, which
        # every draw is below; a member's share of a block sums to up to 2^16,
        # past int16, and a chain restarting from p1 = 1 at a member start
        # takes the state it had, so the members are stretches of one chain;
        # one-slice blocks cut in two parts make each whole member span two
        params = MarkovParams(1 - 1e-12, 0.5, p1=1.0)
        with scan_sizes(_SLICE // slice_parts, _SLICE // slice_parts):
            p_bars = ensemble(params, sizes, 5).p_bars
        states = generate(params, sum(sizes), 5).states
        ends = np.cumsum(sizes)
        counts = [int(states[end - n : end].sum()) for n, end in zip(sizes, ends)]
        assert counts == sizes and np.array_equal(p_bars, np.array(counts) / sizes)

    @pytest.mark.parametrize("block", [62, 66, 130])
    @pytest.mark.parametrize("p, q", [(0.9999, 0.9999), (0.0001, 0.0001)], ids=["copy", "flip"])
    def test_block_ending_mid_word_carries_its_state(self, p, q, block):
        # a forced step is rare, so the state a chain starts in is carried
        # through many one-slice blocks, each ending within a word
        params = MarkovParams(p, q, p1=1.0)
        sizes = [1, 1000, 3]
        with scan_sizes(block, block):
            p_bars = ensemble(params, sizes, 12).p_bars
            states = generate(params, 1000, 12).states
        assert p_bars.tolist() == member_frequencies(params, sizes, 12)
        assert np.array_equal(states, naive_states(params, stream(12, 1000)))

    @staticmethod
    def peak_bytes(sizes):
        """tracemalloc's peak over one ensemble at (0.88, 0.5).  A first,
        untraced call imports numpy's generators, so the peak is the scan's
        and not those imports'."""
        if sizes == "criterion-3":
            rng = np.random.default_rng(20_260_811)
            sizes = np.round(np.exp(rng.uniform(np.log(20), np.log(10**4), 10**4))).astype(int).tolist()
        ensemble(MarkovParams(0.88, 0.5), [1], 3)
        tracemalloc.start()
        try:
            ensemble(MarkovParams(0.88, 0.5), sizes, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("sizes", [[3 * 10**6], "criterion-3"])
    def test_memory_bounded(self, sizes):
        assert self.peak_bytes(sizes) < 4 * 2**20

    @pytest.mark.parametrize("sizes, bound", [([3 * 10**6], 0.9 * 2**20), ("criterion-3", 2 * 2**20)],
                             ids=["one-long-member", "criterion-3"])
    def test_memory_is_the_scan_buffers(self, sizes, bound):
        # one slice's draws and comparisons, 5 bytes a draw (0.31 MiB), and
        # one block's forced-step words, a quarter byte a step (0.0625 MiB),
        # with the kernel's temporaries: about 0.45 MiB, besides the counts
        # and the returned dataset
        assert self.peak_bytes(sizes) < bound

    # sha256 of p_bars.tobytes() for 1000 log-uniform study sizes in [20, 10^4]
    # (1,462,216 draws), keyed by (p, q): a copy, a flip and a p = 1 - q cell
    # of the funnel grid.  Taken from version 0.7.0, which moved every
    # simulated value to uint32 draws; ensemble output must not change.
    PINNED = {
        (0.88, 0.5): "9495138533d1b1e2d7cbf132eb3e47df7f3bb913434d15203e004b23db430b79",
        (0.12, 0.12): "e91bff661feba54364f1727d1dea236f7c0022651d3e7d03240862775e80ead7",
        (0.12, 0.88): "851609ae735e445b114321839d4f9e464a33d0f28d0217a4a4757c47e8955661",
    }

    @pytest.mark.parametrize("block_parts", [1, 2, 4])
    @pytest.mark.parametrize("key", PINNED, ids=["copy", "flip", "p-is-1-minus-q"])
    def test_output_pinned(self, key, block_parts):
        # the blocks the stream is scanned in, of 4, 2 or 1 slices, do not
        # show in the output
        rng = np.random.default_rng(20_260_811)
        sizes = np.round(np.exp(rng.uniform(np.log(20), np.log(10**4), 1000))).astype(int).tolist()
        with scan_sizes(_SLICE, _BLOCK // block_parts):
            p_bars = ensemble(MarkovParams(*key), sizes, 2026).p_bars
        assert hashlib.sha256(p_bars.tobytes()).hexdigest() == self.PINNED[key]

    def test_reproducible_and_prefix_stable(self):
        params = MarkovParams(0.88, 0.50)
        sizes = [50, 100, 150, 200, 250, 300]
        serial = ensemble(params, sizes, 31)
        again = ensemble(params, sizes, 31)
        assert np.array_equal(serial.p_bars, again.p_bars)
        for k in (1, 4):
            assert np.array_equal(ensemble(params, sizes[:k], 31).p_bars, serial.p_bars[:k])

    def test_child_seed_deterministic(self):
        assert child_seed(42, 3) == child_seed(42, 3)
        assert child_seed(42, 3) != child_seed(42, 4)
        assert child_seed(-1, 0) == child_seed(-1, 0)  # negative seeds folded

    def test_seed_range_ends_accepted(self):
        # -2^63 folds onto 2^63; 2^64 - 1 is the largest unsigned 64-bit seed
        params = MarkovParams(0.7, 0.4)
        assert generate(params, 50, -(2**63)) == generate(params, 50, 2**63)
        assert child_seed(-(2**63), 0) == child_seed(2**63, 0)
        assert generate(params, 50, 2**64 - 1) == generate(params, 50, np.uint64(2**64 - 1))


class TestEmpiricalAutocorrelation:
    def test_persistent_lag1(self):
        seq = generate(MarkovParams(0.88, 0.88), 10**6, 5)
        assert empirical_autocorrelation(seq, 1) == pytest.approx(0.76, abs=0.01)

    def test_antipersistent_lag1(self):
        seq = generate(MarkovParams(0.12, 0.12), 10**6, 5)
        assert empirical_autocorrelation(seq, 1) == pytest.approx(-0.76, abs=0.01)

    def test_memoryless_lag1(self):
        seq = generate(MarkovParams(0.5, 0.5), 10**6, 5)
        assert empirical_autocorrelation(seq, 1) == pytest.approx(0.0, abs=0.01)

    def test_lag_too_large(self):
        seq = generate(MarkovParams(0.5, 0.5), 10, 0)
        with pytest.raises(ParameterError):
            empirical_autocorrelation(seq, 10)

    @pytest.mark.parametrize("p", [0.12, 0.35, 0.65, 0.88])
    def test_geometric_lag_decay(self, p):
        # symmetric chains: lag-m correlation decays like (2p-1)^m
        seq = generate(MarkovParams(p, p), 10**6, 17)
        for m in range(1, 6):
            assert empirical_autocorrelation(seq, m) == pytest.approx((2 * p - 1) ** m, abs=0.02)
