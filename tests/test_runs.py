"""Run extraction and the run-length model against simulation and exact oracles."""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twostate import BinarySequence, MarkovParams, ParameterError, derive, generate
from twostate import runs
from twostate.estimate import STAY_BOUND
from twostate.runs import (
    STATE_A,
    STATE_B,
    RunHistogram,
    average_and_normalize,
    _mean_stays_per_run,
    _run_weight_total,
    extract_runs,
    log_run_frequencies,
    memoryfree_curve,
)

from conftest import run_frequencies


def expected_runs_memoryfree(n, p_bar, m):
    """Oracle: the paper's expected count of length-m runs (both states) in a
    memory-free sequence of length n with state-A frequency p_bar."""
    return (n - m - 1) * (p_bar**2 * (1 - p_bar) ** m + (1 - p_bar) ** 2 * p_bar**m)


def memoryfree_frequencies_exact(n, p_bar, max_m):
    """Oracle: the paper's memory-free counts over their sum on m = 1..n-2,
    for m = 1..max_m, in exact arithmetic rounded once.  With p_bar = P/D
    and 1 - p_bar = B/D, D^n times the count of length m is the integer
    (n-m-1) (P^2 B^m + B^2 P^m) D^(n-2-m)."""
    P, D = Fraction(p_bar).as_integer_ratio()
    B = D - P
    # P^m D^(n-2-m) and B^m D^(n-2-m), from m = 1
    counts, p_m, b_m = [], P * D ** (n - 3), B * D ** (n - 3)
    for m in range(1, n - 1):
        counts.append((n - m - 1) * (P * P * b_m + B * B * p_m))
        p_m, b_m = p_m * P // D, b_m * B // D
    total = sum(counts)
    return [c / total for c in counts[:max_m]]  # int / int rounds once, correctly


def expected_runs_markov(params, n, m, state):
    """Oracle: the expected number of runs of one state with length exactly m.

    For state A: (n-m-1) * (1-pinf)(1-q) * p^(m-1) * (1-p) -- the stationary
    probability that a position opens an A-run of exactly m steps, times the
    number of interior positions.  State B swaps p with q and pinf with
    1-pinf.  At (p, q) = (p_bar, 1-p_bar) the two states sum to the paper's
    memory-free count."""
    pinf = derive(params).pinf
    if state == STATE_A:
        other, enter, stay = 1.0 - pinf, 1.0 - params.q, params.p
    else:
        other, enter, stay = pinf, 1.0 - params.p, params.q
    return (n - m - 1) * other * enter * stay ** (m - 1) * (1.0 - stay)


def seq_of(bits):
    return BinarySequence(np.array(bits, dtype=np.uint8))


def count(h, m):
    """Number of runs of length m in a histogram; 0 past its last bin."""
    return int(h.counts[m - 1]) if m <= h.counts.size else 0


def runs_by_groupby(bits):
    """Oracle: {state: Counter of run lengths}, one itertools.groupby pass."""
    runs = {STATE_A: Counter(), STATE_B: Counter()}
    for state, group in itertools.groupby(bits):
        runs[state][len(list(group))] += 1
    return runs


def average_and_normalize_loop(histograms):
    """Oracle: the dict loop `average_and_normalize` replaced, with each
    histogram's nonzero bins as a {m: count} dict."""
    dicts = [{m: c for m, c in enumerate(h.counts.tolist(), start=1) if c} for h in histograms]
    max_m = max((max(d) for d in dicts if d), default=0)
    if max_m == 0:
        raise ParameterError("histograms contain no runs to normalize")
    avg = np.array([sum(d.get(m, 0) for d in dicts) / len(dicts) for m in range(1, max_m + 1)])
    freq = avg / avg.sum()
    return {m: float(f) for m, f in zip(range(1, max_m + 1), freq)}


# stretches of (state, length); adjacent stretches of one state merge into one run
stretches = st.lists(st.tuples(st.integers(0, 1), st.integers(1, 40)), min_size=1, max_size=30)


class TestExtractRuns:
    def test_hand_checked(self):
        # A A B B B A
        ha, hb = extract_runs(seq_of([1, 1, 0, 0, 0, 1]))
        assert ha.counts.tolist() == [1, 1]
        assert hb.counts.tolist() == [0, 0, 1]

    def test_single_state(self):
        ha, hb = extract_runs(seq_of([1] * 5))
        assert ha.counts.tolist() == [0, 0, 0, 0, 1]
        assert hb.counts.tolist() == []

    @given(stretches, st.sampled_from([1, 2, 3, 7, runs._RUN_CHUNK]))
    @example([(1, 1)], runs._RUN_CHUNK)
    @example([(0, 7)], runs._RUN_CHUNK)
    @example([(1, 3), (1, 2)], runs._RUN_CHUNK)
    @example([(0, 2)], 1)
    @example([(1, 3), (0, 4)], 3)
    def test_matches_groupby(self, pairs, chunk):
        # an empty sequence cannot be built, so the empty case is the absent
        # state of a single-state sequence: an empty count array.  Small
        # chunks put runs that end at, start at and span chunk edges
        bits = [state for state, length in pairs for _ in range(length)]
        oracle = runs_by_groupby(bits)
        with mock.patch.object(runs, "_RUN_CHUNK", chunk):
            histograms = extract_runs(seq_of(bits))
        for h, state in zip(histograms, (STATE_A, STATE_B)):
            assert h.state == state and h.total_length == len(bits)
            assert h.counts.dtype == np.int64 and not h.counts.flags.writeable
            assert h.counts.size == max(oracle[state], default=0)  # no trailing zero bin
            assert {m: count(h, m) for m in oracle[state]} == oracle[state]
            assert h.n_runs == sum(oracle[state].values())
            assert h.occupied_length == sum(m * c for m, c in oracle[state].items())

    def test_every_short_sequence_at_every_chunk_edge(self):
        # all 2046 sequences of length 1..10; the chunk sizes put a chunk
        # edge, where the run in progress is read from the record, at every
        # position of the short records
        for n in range(1, 11):
            cases = []
            for bits in itertools.product((0, 1), repeat=n):
                oracle = runs_by_groupby(bits)
                expected = [[lengths[m] for m in range(1, max(lengths, default=0) + 1)]
                            for lengths in (oracle[STATE_A], oracle[STATE_B])]
                cases.append((bits, seq_of(bits), expected))
            for chunk in sorted({1, 2, 3, max(n - 1, 1), runs._RUN_CHUNK}):
                with mock.patch.object(runs, "_RUN_CHUNK", chunk):
                    for bits, seq, expected in cases:
                        assert [h.counts.tolist() for h in extract_runs(seq)] == expected, (bits, chunk)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_length_conserved_and_interleaved(self, bits):
        ha, hb = extract_runs(seq_of(bits))
        assert ha.occupied_length + hb.occupied_length == len(bits)
        assert abs(ha.n_runs - hb.n_runs) <= 1

    def test_memory_is_the_change_positions(self):
        # one chunk's comparison, run starts and run lengths; the first call
        # imports what the histogram needs, so it comes first
        n = 3 * 10**6
        seq = generate(MarkovParams(0.88, 0.5), n, 1)
        extract_runs(seq)
        tracemalloc.start()
        try:
            extract_runs(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * n

    @pytest.mark.parametrize("p, q", [(0.5, 0.5), (0.1, 0.1)])
    def test_memory_bounded_however_often_the_chain_switches(self, p, q):
        # one chunk's run starts and run lengths, not the record's: about
        # 0.6 and 1.0 MiB at a switching rate of 0.5 and 0.9, where all the
        # change positions would take 17 and 31 MiB
        n = 3 * 10**6
        seq = generate(MarkovParams(p, q), n, 1)
        extract_runs(seq)
        tracemalloc.start()
        try:
            extract_runs(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_memoryfree_counts_match_expectation(self):
        # 10 seeds, n = 10^4: averaged counts inside 3*sqrt(a_m) wherever
        # the expected count is at least 5
        n = 10**4
        hists, pbars = [], []
        for i in range(10):
            seq = generate(MarkovParams(0.5, 0.5), n, 4242 + i)
            pbars.append(seq.frequency)
            hists.append(extract_runs(seq))
        m = 1
        while True:
            a_m = np.mean([expected_runs_memoryfree(n, pb, m) for pb in pbars])
            if a_m < 5:
                break
            observed = np.mean([count(ha, m) + count(hb, m) for ha, hb in hists])
            assert abs(observed - a_m) <= 3 * np.sqrt(a_m), f"bin {m}"
            m += 1
        assert m > 5  # the check actually covered several bins


class TestExpectedRunsMemoryfree:
    def test_direct_value_m1(self):
        assert expected_runs_memoryfree(10**4, 0.5, 1) == pytest.approx(9998 * 0.25, abs=1e-9)

    def test_direct_value_m10(self):
        assert expected_runs_memoryfree(10**4, 0.5, 10) == pytest.approx(9989 * 0.5**11, abs=1e-9)

    def test_monte_carlo_oracle(self):
        # mean count over 10^3 simulated memory-free sequences
        n = 10**4
        c1, c10 = [], []
        for i in range(1000):
            ha, hb = extract_runs(generate(MarkovParams(0.5, 0.5), n, 50_000 + i))
            c1.append(count(ha, 1) + count(hb, 1))
            c10.append(count(ha, 10) + count(hb, 10))
        assert np.mean(c1) == pytest.approx(expected_runs_memoryfree(n, 0.5, 1), rel=0.03)
        # Poisson-scale tolerance: se of the mean is sqrt(a_m / 1000)
        a10 = expected_runs_memoryfree(n, 0.5, 10)
        assert np.mean(c10) == pytest.approx(a10, abs=4 * np.sqrt(a10 / 1000))

    @given(m=st.integers(1, 40))
    def test_geometric_halving(self, m):
        # successive counts halve at p_bar = 0.5, up to the (n-m-1) factor
        n = 10**4
        ratio = (expected_runs_memoryfree(n, 0.5, m) / (n - m - 1)) / (
            expected_runs_memoryfree(n, 0.5, m + 1) / (n - m - 2)
        )
        assert ratio == pytest.approx(2.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            memoryfree_curve(10, 0.5, 9)
        with pytest.raises(ParameterError):
            memoryfree_curve(10, 0.0, 1)
        with pytest.raises(ParameterError):
            memoryfree_curve(10, 1e-17, 1)  # 1 - p_bar rounds to 1


class TestExpectedRunsMarkov:
    @given(p=st.floats(0.05, 0.95), n=st.integers(10, 10**4), m=st.integers(1, 7))
    @example(p=0.5, n=10, m=1)
    def test_reduces_to_memoryfree_at_half(self, p, n, m):
        # the chain at (p_bar, 1 - p_bar) is memory-free with state-A frequency p_bar
        params = MarkovParams(p, 1.0 - p)
        both = expected_runs_markov(params, n, m, STATE_A) + expected_runs_markov(params, n, m, STATE_B)
        assert both == pytest.approx(expected_runs_memoryfree(n, p, m), abs=1e-9)

    def test_monte_carlo_oracle(self):
        params = MarkovParams(0.88, 0.50)
        counts = []
        for i in range(1000):
            ha, _ = extract_runs(generate(params, 10**4, 90_000 + i))
            counts.append(count(ha, 5))
        assert np.mean(counts) == pytest.approx(expected_runs_markov(params, 10**4, 5, STATE_A), rel=0.05)

    def test_matches_simulation_per_bin(self):
        # 3*sqrt(expected) bands on every bin with expected count >= 5
        params = MarkovParams(0.88, 0.50)
        n = 10**4
        hists = [extract_runs(generate(params, n, 31_000 + i))[0] for i in range(30)]
        m = 1
        while True:
            expected = expected_runs_markov(params, n, m, STATE_A)
            if expected < 5:
                break
            observed = np.mean([count(h, m) for h in hists])
            assert abs(observed - expected) <= 3 * np.sqrt(expected), f"bin {m}"
            m += 1
        assert m > 10

    @given(m=st.integers(1, 30))
    def test_geometric_tail_ratio(self, m):
        params = MarkovParams(0.88, 0.50)
        n = 10**4
        ratio = (expected_runs_markov(params, n, m, STATE_A) / (n - m - 1)) / (
            expected_runs_markov(params, n, m + 1, STATE_A) / (n - m - 2)
        )
        assert ratio == pytest.approx(1 / params.p, abs=1e-9)


class TestRunHistogram:
    @pytest.mark.parametrize(
        "counts",
        [[[1, 2], [3, 4]], 5, {1: 3}, [1, -1], [1.5], [2.0, 0.5], [np.nan], [np.inf], [3, -np.inf],
         np.array([3, 2**64 - 1], np.uint64), [1.0, 1e19], [1, 2**64]],
        ids=["2-d", "0-d", "dict", "negative", "fraction", "fraction-after-integral", "nan", "inf", "-inf",
             "uint64-past-int64", "float-past-int64", "int-past-uint64"],
    )
    def test_rejects_bad_counts(self, counts):
        with pytest.raises(ParameterError):
            RunHistogram(STATE_A, counts, 10)

    @pytest.mark.parametrize(
        "counts",
        [np.array([3, 2**63 - 1], np.uint64), np.array([3, 2**63 - 1], np.int64), [3.0, 2.0**63 - 1024],
         np.array([3, 65504], np.float16), np.array([3, 2**32 - 1], np.uint32), np.array([3, 0], np.int8)],
        ids=["uint64", "int64", "float64", "float16", "uint32", "int8"],
    )
    def test_accepts_every_count_int64_holds(self, counts):
        assert RunHistogram(STATE_A, counts, 10).counts.tolist() == [int(c) for c in counts]

    def test_stores_a_read_only_int64_copy(self):
        given_counts = np.array([2.0, 0.0, 1.0])
        h = RunHistogram(STATE_B, given_counts, 10)
        assert h.counts.dtype == np.int64 and h.counts.tolist() == [2, 0, 1]
        assert not h.counts.flags.writeable and given_counts.flags.writeable
        assert RunHistogram(STATE_A, np.array([True, False]), 10).counts.tolist() == [1, 0]
        assert (h.n_runs, h.occupied_length) == (3, 5)

    def test_equality_compares_counts(self):
        ha, hb = extract_runs(seq_of([1, 1, 0, 1, 0, 0, 1]))
        assert ha == RunHistogram(STATE_A, [2, 1], 7)
        assert hb == RunHistogram(STATE_B, np.array([1.0, 1.0]), 7)
        assert ha != RunHistogram(STATE_A, [2, 1, 0], 7) and ha != RunHistogram(STATE_A, [2, 1], 8)
        assert ha != hb and ha != {1: 2, 2: 1}


class TestAverageAndNormalize:
    @given(st.lists(st.lists(st.integers(0, 60), max_size=25), min_size=1, max_size=6))
    @example([[0, 0]])
    @example([[3, 0, 0], [1]])
    @example([[], [0, 2, 0, 0], [5]])
    def test_matches_dict_loop(self, count_lists):
        # different lengths and trailing zero bins; the arithmetic is the same, so equal exactly
        histograms = [RunHistogram(STATE_A, counts, 100) for counts in count_lists]
        if not any(any(counts) for counts in count_lists):
            for normalize in (average_and_normalize, average_and_normalize_loop):
                with pytest.raises(ParameterError):
                    normalize(histograms)
        else:
            assert average_and_normalize(histograms) == average_and_normalize_loop(histograms)

    def test_no_histograms_rejected(self):
        with pytest.raises(ParameterError):
            average_and_normalize([])

    def test_single_histogram(self):
        hist = RunHistogram(STATE_A, [3, 1], total_length=9)
        assert average_and_normalize([hist]) == {1: 0.75, 2: 0.25}

    def test_averaging_idempotent(self):
        h = extract_runs(seq_of([1, 1, 0, 1, 0, 0, 1]))[0]
        assert average_and_normalize([h] * 10) == average_and_normalize([h])

    def test_frequencies_sum_to_one_with_zero_bins(self):
        curve = average_and_normalize([extract_runs(seq_of([1] * 4 + [0] + [1]))[0]])
        assert set(curve) == {1, 2, 3, 4}
        assert curve[2] == 0.0 and curve[3] == 0.0
        assert sum(curve.values()) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_states_rejected(self):
        ha, hb = extract_runs(seq_of([1, 0, 1]))
        with pytest.raises(ParameterError):
            average_and_normalize([ha, hb])

    def test_persistent_tail_heavier(self):
        # clustering: the p=q=0.88 curve carries more tail mass beyond any
        # run length >= 3 than the memory-free one
        curves = {}
        for p in (0.88, 0.5):
            hists = [extract_runs(generate(MarkovParams(p, p), 10**4, 600 + i))[0] for i in range(10)]
            curves[p] = average_and_normalize(hists)
        for m in range(3, max(curves[0.5]) + 1):
            tail = {p: sum(f for length, f in curves[p].items() if length >= m) for p in curves}
            assert tail[0.88] > tail[0.5], f"tail from bin {m}"


class TestMeanRunLengthOrdering:
    def test_clustering_orders_mean_length(self):
        means = {}
        for p in (0.88, 0.5, 0.12):
            lengths = []
            for i in range(10):
                ha, hb = extract_runs(generate(MarkovParams(p, p), 10**4, 777 + i))
                lengths.append(10**4 / (ha.n_runs + hb.n_runs))
            means[p] = np.mean(lengths)
        assert means[0.88] > means[0.5] > means[0.12]


class TestModelCurves:
    def test_expected_frequencies_match_simulation(self, simulate_run_curves):
        params = MarkovParams(0.25, 0.65)
        n, seeds = 10**4, 10
        on_curve, off_curve = simulate_run_curves(params, n, seeds, 99)
        for curve, state in ((on_curve, STATE_A), (off_curve, STATE_B)):
            total_runs = seeds * sum(
                expected_runs_markov(params, n, m, state) for m in range(1, 200)
            )
            ms = sorted(curve)
            model = run_frequencies(params, n, ms, state)
            for m, f in zip(ms, model):
                if f > 1e-3:
                    # 5 sigma of the Poisson-scale bin noise
                    assert abs(curve[m] - f) <= 5 * np.sqrt(f / total_runs), (state, m)

    def test_log_frequencies_stay_finite_past_underflow(self):
        stay, n, ms = 1e-6, 10**4, np.arange(1, 301)
        params = MarkovParams(stay, 0.5)
        logs = log_run_frequencies(n, ms, stay)
        freqs = run_frequencies(params, n, ms, STATE_A)
        assert np.all(np.isfinite(logs)) and freqs[-1] == 0.0
        shown = freqs >= np.finfo(float).tiny  # where the frequency is a normal float, the log matches it
        np.testing.assert_allclose(logs[shown], np.log(freqs[shown]), rtol=1e-12)
        # past it, successive bins keep the ratio stay * (n-m-2)/(n-m-1)
        np.testing.assert_allclose(np.diff(logs), np.log(stay * (n - ms[1:] - 1) / (n - ms[:-1] - 1)), rtol=1e-12)

    def test_memoryfree_curve_normalized(self):
        curve = memoryfree_curve(10**4, 0.5, 30)
        assert curve[1] == pytest.approx(0.5, abs=1e-3)
        assert all(curve[m] > curve[m + 1] for m in range(1, 30))

    @pytest.mark.parametrize("n", [4, 10, 1000, 10**4])
    @pytest.mark.parametrize("p_bar", [1e-6, 0.001, 0.12, 0.5, 0.88, 0.999, 1 - 1e-6])
    def test_memoryfree_curve_matches_paper_formula(self, n, p_bar):
        # the oracle normalizes the paper's counts by their explicit sum, exactly
        # up to n = 1000; at n = 10^4 the exact sum takes minutes, so in floats
        max_m = min(n - 2, 60)
        if n <= 1000:
            oracle = memoryfree_frequencies_exact(n, p_bar, max_m)
        else:
            counts = np.array([expected_runs_memoryfree(n, p_bar, m) for m in range(1, n - 1)])
            oracle = counts[:max_m] / counts.sum()
        curve = memoryfree_curve(n, p_bar, max_m)
        assert list(curve) == list(range(1, max_m + 1))
        np.testing.assert_allclose(list(curve.values()), oracle, rtol=1e-13, atol=0)


STAYS = np.linspace(0.001, 0.999, 999)


class TestExpectedRunsTotal:
    """A state's expected number of runs over all lengths is its entry and
    exit factors times `_run_weight_total`, the closed-form sum of the weights
    (n-m-1) s^(m-1) over m = 1..n-2.  Checked against the explicit sum at a
    relative tolerance of 1e-9 (the closed form loses a few digits to
    cancellation as the stay nears 1)."""

    @staticmethod
    def explicit(n, stay):
        m = np.arange(1, n - 1)
        return float(np.sum((n - m - 1) * stay ** (m - 1.0)))

    @pytest.mark.parametrize("n", [4, 10, 10**4])
    def test_matches_explicit_sum(self, n):
        for stay in STAYS:
            assert _run_weight_total(n, stay) == pytest.approx(self.explicit(n, stay), rel=1e-9, abs=0)

    @pytest.mark.parametrize("stay", [0.001, 0.5, 0.9, 0.999])
    def test_matches_explicit_sum_long_sequence(self, stay):
        n = 5 * 10**6
        assert _run_weight_total(n, stay) == pytest.approx(self.explicit(n, stay), rel=1e-9, abs=0)

    def test_frequencies_sum_to_one_over_the_domain(self):
        params, n = MarkovParams(0.88, 0.5), 500
        freqs = run_frequencies(params, n, np.arange(1, n - 1), STATE_A)
        assert freqs.sum() == pytest.approx(1.0, abs=1e-12)


class TestMeanStaysPerRun:
    """The closed-form model mean of m-1, the number of stays per run, against
    the explicit weighted sum over m = 1..n-2, across the run-curve fit's
    search range of stay probabilities."""

    @staticmethod
    def explicit(n, stay):
        m = np.arange(1, n - 1)
        weights = (n - m - 1) * stay ** (m - 1.0)
        return float(weights @ (m - 1) / weights.sum())

    def test_matches_explicit_sum(self):
        n = 10_000
        for theta in np.linspace(math.log(STAY_BOUND), math.log1p(-STAY_BOUND), 401):
            stay = math.exp(theta)
            explicit = self.explicit(n, stay)
            assert _mean_stays_per_run(n, stay) == pytest.approx(explicit, rel=1e-10, abs=0)
            # the mean run length E_s[m] is one more
            assert 1.0 + _mean_stays_per_run(n, stay) == pytest.approx(1.0 + explicit, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n", [4, 5, 10, 50])
    def test_matches_exact_sum_for_short_sequences(self, n):
        # near s = 1 these take the term-by-term branch; exact rational arithmetic is the oracle
        for theta in np.linspace(math.log(STAY_BOUND), math.log1p(-STAY_BOUND), 101):
            stay = Fraction(math.exp(theta))
            weights = [(n - 2 - j) * stay**j for j in range(n - 2)]
            exact = float(sum(j * w for j, w in enumerate(weights)) / sum(weights))
            assert _mean_stays_per_run(n, float(stay)) == pytest.approx(exact, rel=1e-10, abs=0)

    def test_limits(self):
        # s -> 0 leaves single-step runs; s -> 1 leaves the base weight n-m-1, whose mean of m-1 is (K-1)/3
        n = 10_000
        assert _mean_stays_per_run(n, 1e-12) == pytest.approx(1e-12, rel=1e-3)
        assert _mean_stays_per_run(n, 1.0 - 1e-9) == pytest.approx((n - 3) / 3, rel=1e-4)
