"""Simulator contract: exact conditional law, determinism, ensemble spread."""

import hashlib
import threading
import tracemalloc
from types import SimpleNamespace
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
from twostate.simulate import _SLICE, _scanner

probs = st.floats(min_value=0.01, max_value=0.99)
# near 0 or 1, a forced step is rare in the copy (0.9999, 0.9999) and the
# flip (0.0001, 0.0001) regime, so the steps before one can span slices
near_edge = st.sampled_from([0.0001, 0.9999])


def naive_states(params, u):
    """Sequential reference implementation of the generation rule."""
    x = [1 if u[0] < params.p1 else 0]
    for ui in u[1:]:
        stay = params.p if x[-1] == 1 else 1.0 - params.q
        x.append(1 if ui < stay else 0)
    return np.array(x, dtype=np.uint8)


def scan_states(params, u, prev=None):
    """One `_scanner` slice over `u`: a chain starts at u[0], or carries on
    from the state `prev` before it."""
    starts = np.array([0] if prev is None else [], dtype=np.intp)
    # the carry is w at position -1, whose parity is odd
    carry = (prev or 0) ^ (params.p < 1.0 - params.q)
    replay = SimpleNamespace(random=lambda out: np.copyto(out, u))
    words, _ = _scanner(params, u.size)(replay, u.size, starts, carry)
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
    u = np.random.default_rng(seed).random(sum(sizes))
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
        u = np.random.default_rng(seed).random(n)
        # a carried state makes the first step an ordinary one: p1 = p or 1 - q
        first_step = params if prev is None else MarkovParams(p, q, p1=p if prev else 1.0 - q)
        assert np.array_equal(scan_states(params, u, prev), naive_states(first_step, u))

    @pytest.mark.parametrize("p, q", [(0.8, 0.7), (0.2, 0.3), (0.5, 0.5)], ids=["copy", "flip", "balanced"])
    def test_slices_match_one_scan(self, p, q):
        params = MarkovParams(p, q)
        for n in (1, _SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 5):
            one_scan = naive_states(params, np.random.default_rng(21).random(n))
            assert np.array_equal(generate(params, n, 21).states, one_scan), n

    @given(
        p=probs | near_edge,
        q=st.none() | probs | near_edge,
        p1=st.none() | st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(1, 300) | st.sampled_from([63, 64, 65, 127, 128, 129]),
        slice_size=st.sampled_from([1, 2, 7, 63, 64, 65, 130, _SLICE]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sequential_rule_on_the_stream(self, p, q, p1, n, slice_size, seed):
        # q=None is q = 1 - p, where every step is forced; near the edges a
        # forced step is rare, so whole rows have none; small slices end
        # within rows, and the state is carried across rows and slices
        params = MarkovParams(p, 1.0 - p if q is None else q, p1=p1)
        with mock.patch.object(simulate, "_SLICE", slice_size):
            states = generate(params, n, seed).states
        assert np.array_equal(states, naive_states(params, np.random.default_rng(seed).random(n)))

    @pytest.mark.parametrize("n, bound", [(3 * 10**6, 0.5 * 2**20), (10**4, 0.15 * 2**20)])
    @pytest.mark.parametrize("p, q", [(0.88, 0.5), (0.12, 0.12), (0.5, 0.5)])
    def test_working_memory_bounded(self, p, q, n, bound):
        # beyond the n-byte state array, buffers for at most one slice of
        # draws; the first call imports numpy's generators, so it comes first
        generate(MarkovParams(p, q), 1, 4)
        tracemalloc.start()
        try:
            generate(MarkovParams(p, q), n, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - n < bound

    # sha256 of states.tobytes(), keyed by (p, q, seed, n): copy, flip, every
    # step forced, and rarely forced steps of both kinds, at the edges of a
    # 2^15 slice.  Taken from version 0.2.0, whose generate output must not change.
    PINNED = {
        (0.88, 0.5, 2026, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        (0.88, 0.5, 2026, 32768): "aa77b2c6b0a9c7fd90d8d7a4c2a8455c7d3d596dbb2e00472de85e345a07a794",
        (0.88, 0.5, 2026, 32769): "a2d683801759c1b4234a40839a4028dbdd40fc44215a9a25ef3b945298bc6c4e",
        (0.88, 0.5, 2026, 1000000): "4645c45f723f6b00b3b678f6ca90aea2f2f99b9e24075a1adeae031cbbafd358",
        (0.12, 0.12, 2027, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        (0.12, 0.12, 2027, 32768): "4d10729e4753e1ff8d837159367a8d61f083e42ea4adb1cfedf310d2a38bfcf2",
        (0.12, 0.12, 2027, 32769): "18e2b38a92da135e8643d5d2b4e49d815943e4ee639b8c07345146a9cd61a030",
        (0.12, 0.12, 2027, 1000000): "ba32eb51670bdf647ef08fe43198697cd4bb4b00a8049bd2ccb175259837fec2",
        (0.5, 0.5, 2028, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        (0.5, 0.5, 2028, 32768): "fd1fbdb1489494b7b822a2ce68972ffc93c1fcc9d306dbc3e9c1b8c39155d983",
        (0.5, 0.5, 2028, 32769): "d86560891a7606eccb7ccd24e274a853f3b95b9b8ba2df19a147c9ed56e161b7",
        (0.5, 0.5, 2028, 1000000): "e8ca35fa6344e20888ffe96daa635d864a11a8f7c09f79c04fcb8ea0a3794007",
        (0.999, 0.999, 2029, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        (0.999, 0.999, 2029, 32768): "f5d0d9d483d4a2cbeb324969aa3d6fe92c07dd152e5291563ac370384a9a50cd",
        (0.999, 0.999, 2029, 32769): "fb410e8304969dedbd7025531ff689fa2da96d3554183f0677b48cc273249720",
        (0.999, 0.999, 2029, 1000000): "4bfc32fa7b43bfcdb735c7f47ab2e76ac9469926df6743c14f7845c5b9948a4e",
        (0.001, 0.002, 2030, 1): "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        (0.001, 0.002, 2030, 32768): "9be2bd4988f699b1f6185346f6f8ec39b796b556422e7a99c174ba26f4a17263",
        (0.001, 0.002, 2030, 32769): "88d6c481a8d14efa1336f0d895c41be56cbdc00a6f54ff2681e32753845d7023",
        (0.001, 0.002, 2030, 1000000): "42c36e7a243e303c6cc511200e65cbe8087e01c732c20794a691f8e4b1ee4279",
    }

    @pytest.mark.parametrize("key", PINNED, ids=lambda key: "-".join(map(str, key)))
    def test_output_pinned(self, key):
        p, q, seed, n = key
        states = generate(MarkovParams(p, q), n, seed).states
        assert hashlib.sha256(states.tobytes()).hexdigest() == self.PINNED[key]

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
    @pytest.mark.parametrize("size", [1, 63, 64, 65, _SLICE])
    @pytest.mark.parametrize("p, q", [(0.88, 0.5), (0.12, 0.12), (0.12, 0.88)], ids=["copy", "flip", "every-step-forced"])
    def test_words_hold_the_slice_and_its_carry(self, p, q, size):
        # bit i of word k is step 64k + i, no bit past the slice is set, so a
        # popcount counts the slice's A states, and the carry is the w of the
        # last step seen from the next slice, at its odd position -1
        params = MarkovParams(p, q)
        u = np.random.default_rng(size).random(size)
        replay = SimpleNamespace(random=lambda out: np.copyto(out, u))
        words, carry = _scanner(params, size)(replay, size, np.array([0], dtype=np.intp), 0)
        states = naive_states(params, u)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert words.size == -(-size // 64) and np.array_equal(bits[:size], states) and not bits[size:].any()
        assert carry == states[-1] ^ (p < 1.0 - q)

    def test_allocates_only_its_buffers(self):
        # one slice of uniforms (8 B a step), two bool masks of forced steps
        # and the words' ranks, 331,776 B
        _scanner(MarkovParams(0.88, 0.5), _SLICE)
        tracemalloc.start()
        try:
            fill = _scanner(MarkovParams(0.88, 0.5), _SLICE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert callable(fill) and peak < 340_000


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
        ],
        ids=["small", "copy-across-slices", "flip-size-one", "p-is-1-minus-q", "p-is-1-minus-q-p1", "p1-zero",
             "flip-p1-one", "rarely-forced-copy-p1-zero", "rarely-forced-copy-p1-one", "rarely-forced-flip-p1-zero",
             "rarely-forced-flip-p1-one"],
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
        slice_size=st.sampled_from([1, 2, 7, 64]),
        cpus=st.integers(1, 5),
        min_block_slices=st.sampled_from([1, 3, 8]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_sequential_rule(self, p, q, p1, sizes, slice_size, cpus, min_block_slices, seed):
        # q=None is q = 1 - p, where every step is forced (exactly so for p >= 0.5);
        # small slices make members span several slices, as long studies do, and
        # small blocks cut the stream into up to `cpus` blocks
        params = MarkovParams(p, 1.0 - p if q is None else q, p1=p1)
        with mock.patch.multiple(simulate, _SLICE=slice_size, _CPUS=cpus, _MIN_BLOCK_SLICES=min_block_slices):
            ds = ensemble(params, sizes, seed)
        assert ds.p_bars.tolist() == member_frequencies(params, sizes, seed)

    @pytest.mark.parametrize(
        "sizes, cpus, n_blocks",
        [([10] * 200, 1, 1), ([10] * 200, 2, 2), ([10] * 200, 3, 3), ([10] * 200, 5, 5), ([3, 2000], 5, 2),
         ([2003], 5, 1)],
        ids=["equal-1-cpu", "equal-2-cpus", "equal-3-cpus", "equal-5-cpus", "two-members-5-cpus", "one-member-5-cpus"],
    )
    def test_blocks_start_at_member_starts(self, sizes, cpus, n_blocks):
        # equal members give one block per CPU; a few long members give fewer
        real = simulate._count_block
        block_starts = []

        def count_block(params, member_starts, a0, *rest):
            block_starts.append(a0)
            real(params, member_starts, a0, *rest)

        params = MarkovParams(0.9, 0.3)
        with mock.patch.multiple(simulate, _SLICE=64, _CPUS=cpus, _MIN_BLOCK_SLICES=1, _count_block=count_block):
            ds = ensemble(params, sizes, 5)
        assert len(block_starts) == n_blocks
        assert set(block_starts) <= set((np.cumsum(sizes) - sizes).tolist())
        assert ds.p_bars.tolist() == member_frequencies(params, sizes, 5)

    def test_worker_error_reaches_caller(self):
        real = simulate._count_block
        failed_on = []

        def count_block(params, member_starts, a0, *rest):
            if a0 > 0:
                failed_on.append(threading.current_thread())
                raise MemoryError("block scan failed")
            return real(params, member_starts, a0, *rest)

        with mock.patch.multiple(simulate, _CPUS=3, _MIN_BLOCK_SLICES=1, _count_block=count_block):
            with pytest.raises(MemoryError, match="block scan failed"):
                ensemble(MarkovParams(0.88, 0.5), [_SLICE] * 3, 0)
        assert len(failed_on) == 2 and threading.main_thread() not in failed_on

    @pytest.mark.parametrize("n", [1, 2, _SLICE, _SLICE + 1, 3 * _SLICE + 5])
    def test_one_member_is_a_generated_chain(self, n):
        for params in (MarkovParams(0.88, 0.5), MarkovParams(0.12, 0.12), MarkovParams(0.4, 0.6, p1=0.2)):
            assert ensemble(params, [n], 8).p_bars[0] == generate(params, n, 8).frequency

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("sizes", [[_SLICE] * 3, [5, 3 * _SLICE + 5, _SLICE, 2 * _SLICE - 5]],
                             ids=["whole-slices", "across-slices"])
    def test_member_sums_reach_a_whole_slice(self, sizes, cpus):
        # every state is A: a member's share of a slice sums to up to 2^15,
        # past int16, and a chain restarting from p1 = 1 at a member start
        # takes the state it had, so the members are stretches of one chain
        params = MarkovParams(1 - 1e-12, 0.5, p1=1.0)
        with mock.patch.multiple(simulate, _CPUS=cpus, _MIN_BLOCK_SLICES=1):
            p_bars = ensemble(params, sizes, 5).p_bars
        states = generate(params, sum(sizes), 5).states
        ends = np.cumsum(sizes)
        counts = [int(states[end - n : end].sum()) for n, end in zip(sizes, ends)]
        assert counts == sizes and np.array_equal(p_bars, np.array(counts) / sizes)

    @staticmethod
    def peak_bytes(sizes):
        """tracemalloc's peak over one ensemble at (0.88, 0.5) with two blocks
        at once, as on a 2-CPU host.  A first, untraced call imports numpy's
        generators, so the peak is the scan's and not those imports'."""
        if sizes == "criterion-3":
            rng = np.random.default_rng(20_260_811)
            sizes = np.round(np.exp(rng.uniform(np.log(20), np.log(10**4), 10**4))).astype(int).tolist()
        ensemble(MarkovParams(0.88, 0.5), [1], 3)
        tracemalloc.start()
        try:
            with mock.patch.object(simulate, "_CPUS", 2):
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
        # per block, the scan's buffers for one slice, about 10 bytes a draw
        # (0.32 MiB), besides the count rows and the returned dataset
        assert self.peak_bytes(sizes) < bound

    # sha256 of p_bars.tobytes() for 1000 log-uniform study sizes in [20, 10^4]
    # (1,462,216 draws, so two blocks on two CPUs), keyed by (p, q): a copy, a
    # flip and a p = 1 - q cell of the funnel grid.  Taken before the slice
    # scan packed steps into words; ensemble output must not change.
    PINNED = {
        (0.88, 0.5): "33533c824ec2c74fb8fabc45a60ab0b30ad9cae5603cd88642834eec129e8881",
        (0.12, 0.12): "a26d450d35432afaf0ac6ce35115ae8ab0bc2773eb7f3ab7c0d633bbfbfca7bb",
        (0.12, 0.88): "a238b4f25912b1fffe6a8e7081a6f7337bdb0c8f7a22f4b4f9e4b045fa53e335",
    }

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("key", PINNED, ids=["copy", "flip", "p-is-1-minus-q"])
    def test_output_pinned(self, key, cpus):
        rng = np.random.default_rng(20_260_811)
        sizes = np.round(np.exp(rng.uniform(np.log(20), np.log(10**4), 1000))).astype(int).tolist()
        with mock.patch.object(simulate, "_CPUS", cpus):
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
