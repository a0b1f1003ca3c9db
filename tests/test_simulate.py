"""Simulator contract: exact conditional law, determinism, ensemble spread."""

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
    empirical_autocorrelation,
    ensemble,
    generate,
    std_of_proportion,
)
from twostate.simulate import _SLICE, _markov_states

probs = st.floats(min_value=0.01, max_value=0.99)


def naive_states(params, u):
    """Sequential reference implementation of the generation rule."""
    x = [1 if u[0] < params.p1 else 0]
    for ui in u[1:]:
        stay = params.p if x[-1] == 1 else 1.0 - params.q
        x.append(1 if ui < stay else 0)
    return np.array(x, dtype=np.uint8)


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

    def test_states_frozen(self):
        seq = generate(MarkovParams(0.5, 0.5), 10, 0)
        with pytest.raises(ValueError):
            seq.states[0] = 1

    def test_spins(self):
        seq = BinarySequence(np.array([1, 0, 1]))
        assert seq.spins().tolist() == [1, -1, 1]


class TestScatterDataset:
    def test_from_points_and_back(self):
        ds = ScatterDataset.from_points([(100, 0.6, "s1"), (300, 0.5, "s2")])
        assert ds.points == [(100, 0.6, "s1"), (300, 0.5, "s2")]

    def test_rejects_bad_size(self):
        with pytest.raises(ParameterError):
            ScatterDataset(np.array([0]), np.array([0.5]))

    def test_rejects_bad_proportion(self):
        with pytest.raises(ParameterError):
            ScatterDataset(np.array([10]), np.array([1.5]))


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
        ds = ScatterDataset.from_points([(10, 0.5, "a"), (20, 0.25, "b")])
        assert (ds == ScatterDataset(ds.sizes.copy(), ds.p_bars.copy(), ("a", "b"))) is True
        assert (ds != ScatterDataset(ds.sizes.copy(), ds.p_bars.copy(), ("a", "b"))) is False
        assert (ds == ScatterDataset.from_points([(10, 0.5, "a"), (20, 0.25, "c")])) is False
        assert (ds == ScatterDataset.from_points([(10, 0.5, "a"), (21, 0.25, "b")])) is False
        assert (ds == ScatterDataset.from_points([(10, 0.5, "a"), (20, 0.3, "b")])) is False
        assert (ds == ScatterDataset.from_points([(10, 0.5, "a")])) is False
        for foreign in (ds.points, "ds", None, 0.5):
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
        assert np.array_equal(_markov_states(params, u, prev), naive_states(first_step, u))

    @pytest.mark.parametrize("p, q", [(0.8, 0.7), (0.2, 0.3), (0.5, 0.5)], ids=["copy", "flip", "balanced"])
    def test_slices_match_one_scan(self, p, q):
        params = MarkovParams(p, q)
        for n in (1, _SLICE - 1, _SLICE, _SLICE + 1, 3 * _SLICE + 5):
            one_scan = _markov_states(params, np.random.default_rng(21).random(n))
            assert np.array_equal(generate(params, n, 21).states, one_scan), n

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

    def test_memoryless_spread(self):
        ds = ensemble(MarkovParams(0.5, 0.5), [100] * 1000, 7)
        assert ds.p_bars.std(ddof=1) == pytest.approx(0.05, rel=0.10)

    def test_antipersistent_spread_narrows(self):
        # nu = 0.37 shrinks the spread to about 0.0185
        ds = ensemble(MarkovParams(0.12, 0.12), [100] * 1000, 7)
        assert ds.p_bars.std(ddof=1) == pytest.approx(0.37 * 0.05, rel=0.10)

    def test_members_use_indexed_substreams(self):
        params = MarkovParams(0.65, 0.25)
        ds = ensemble(params, [40, 60, 80], 11)
        expected = [generate(params, n, child_seed(11, i)).frequency for i, n in enumerate([40, 60, 80])]
        assert ds.p_bars.tolist() == expected

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
