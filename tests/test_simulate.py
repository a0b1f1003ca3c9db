"""Simulator contract: exact conditional law, determinism, ensemble spread."""

import hashlib
import threading
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
from twostate.simulate import _SLICE, _forced_steps

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
    """Expand one `_forced_steps` scan of `u` segment by segment: a chain
    starts at u[0], or carries on from the state `prev` before it."""
    starts = np.array([0] if prev is None else [], dtype=np.intp)
    positions, values, gaps = _forced_steps(params, u, starts, prev or 0)
    assert positions[0] == -1 and values[0] == (prev or 0) and positions[-1] + gaps[-1] == u.size
    flip = params.p < 1.0 - params.q
    x = np.empty(u.size + 1, dtype=np.uint8)  # x[0] is the carried state
    for f, v, g in zip(positions.tolist(), values.tolist(), gaps.tolist()):
        x[f + 1 : f + 1 + g] = v ^ (np.arange(g) & 1 if flip else 0)
    return x[1:]


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
        assert (seq == BinarySequence(x, seed=3)) is False
        assert (seq == BinarySequence(x, params=MarkovParams(0.5, 0.5))) is False
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
        assert a.seed == 123 and a.params == params

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


class TestEnsemble:
    def test_empty_sizes_rejected(self):
        with pytest.raises(ParameterError):
            ensemble(MarkovParams(0.5, 0.5), [], 0)

    @pytest.mark.parametrize(
        "call",
        [lambda p: ensemble(p, [2**62, 2**62], 0), lambda p: ensemble(p, [2**63], 0),
         lambda p: ensemble(p, [np.uint64(2**63)], 0), lambda p: ensemble(p, [10, True], 0),
         lambda p: generate(p, True, 0)],
        ids=["total-past-int64", "size-past-int64", "uint64-size-past-int64", "bool-size", "bool-length"],
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

    @pytest.mark.parametrize("sizes", [[3 * 10**6], "criterion-3"])
    def test_memory_bounded(self, sizes):
        if sizes == "criterion-3":
            rng = np.random.default_rng(20_260_811)
            sizes = np.round(np.exp(rng.uniform(np.log(20), np.log(10**4), 10**4))).astype(int).tolist()
        tracemalloc.start()
        try:
            # two blocks at once, as on a 2-CPU host
            with mock.patch.object(simulate, "_CPUS", 2):
                ensemble(MarkovParams(0.88, 0.5), sizes, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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
