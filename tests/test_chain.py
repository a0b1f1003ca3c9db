"""Closed-form chain statistics against brute-force and algebraic oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twostate import (
    DerivedParams,
    MarkovParams,
    ParameterError,
    derive,
    mean_frequency,
    n_step_self_transitions,
    state_probability,
    std_of_proportion,
    transition_matrix,
)

probs = st.floats(min_value=0.01, max_value=0.99)
inner_probs = st.floats(min_value=0.05, max_value=0.95)


def oracle_matrix(p, q):
    # independent column-stochastic matrix; column = current state (A, B)
    return np.array([[p, 1.0 - q], [1.0 - p, q]])


class TestMarkovParams:
    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.2)])
    def test_rejects_endpoints(self, p, q):
        with pytest.raises(ParameterError):
            MarkovParams(p, q)

    def test_rejects_bad_p1(self):
        with pytest.raises(ParameterError):
            MarkovParams(0.5, 0.5, p1=1.5)

    def test_p1_defaults_to_stationary(self):
        params = MarkovParams(0.88, 0.50)
        assert params.p1 == pytest.approx(derive(params).pinf, abs=1e-15)

    def test_immutable(self):
        params = MarkovParams(0.5, 0.5)
        with pytest.raises(AttributeError):
            params.p = 0.7


class TestDerive:
    def test_antipersistent_symmetric(self):
        d = derive(MarkovParams(0.12, 0.12))
        assert d.a == pytest.approx(-0.76, abs=1e-12)
        assert d.pinf == pytest.approx(0.5, abs=1e-12)
        assert d.nu == pytest.approx(0.37, abs=0.005)

    def test_asymmetric_persistent(self):
        d = derive(MarkovParams(0.88, 0.50))
        assert d.pinf == pytest.approx(0.81, abs=0.005)
        assert d.nu == pytest.approx(1.49, abs=0.005)

    def test_memory_free(self):
        d = derive(MarkovParams(0.5, 0.5))
        assert d.a == 0.0
        assert d.pinf == 0.5
        assert d.nu == 1.0

    def test_captivity_parameters(self):
        d = derive(MarkovParams(0.64, 0.50))
        assert d.pinf == pytest.approx(0.58, abs=0.005)
        assert d.nu == pytest.approx(1.15, abs=0.005)

    @given(p=probs, q=probs)
    def test_frequencies_sum_to_one(self, p, q):
        d = derive(MarkovParams(p, q))
        assert d.pinf + (1.0 - p) / (2.0 - (p + q)) == pytest.approx(1.0, abs=1e-12)

    @given(p=probs, q=probs)
    def test_stationarity_fixed_point(self, p, q):
        d = derive(MarkovParams(p, q))
        assert d.pinf == pytest.approx(p * d.pinf + (1.0 - q) * (1.0 - d.pinf), abs=1e-12)

    @given(p=probs, q=probs)
    def test_nu_threshold_at_unit_sum(self, p, q):
        d = derive(MarkovParams(p, q))
        assert d.nu_sq == pytest.approx((1.0 + d.a) / (1.0 - d.a), abs=1e-12)
        if p + q > 1.0:
            assert d.nu > 1.0
        elif p + q < 1.0:
            assert d.nu < 1.0

    @given(p=probs)
    def test_equal_probabilities_give_half(self, p):
        assert derive(MarkovParams(p, p)).pinf == pytest.approx(0.5, abs=1e-12)

    @given(p=probs, q=probs)
    def test_swap_symmetry(self, p, q):
        assert derive(MarkovParams(p, q)).pinf == pytest.approx(
            1.0 - derive(MarkovParams(q, p)).pinf, abs=1e-12
        )

    @given(p=probs, q=probs)
    def test_transition_matrix_eigenvalues(self, p, q):
        # characteristic polynomial of the 2x2 matrix has roots {a, 1}
        d = derive(MarkovParams(p, q))
        eig = np.sort(np.linalg.eigvals(oracle_matrix(p, q)).real)
        assert eig[0] == pytest.approx(d.a, abs=1e-12)
        assert eig[1] == pytest.approx(1.0, abs=1e-12)

    @given(p=probs, q=probs)
    def test_stochastic_columns(self, p, q):
        m = transition_matrix(MarkovParams(p, q))
        assert m[0, 0] + m[1, 0] == pytest.approx(1.0, abs=1e-15)
        assert m[1, 1] + m[0, 1] == pytest.approx(1.0, abs=1e-15)


class TestStateProbability:
    def test_first_measurement_is_p1(self):
        assert state_probability(MarkovParams(0.3, 0.7, p1=0.42), 1) == pytest.approx(0.42, abs=1e-15)

    def test_second_step_from_certain_start(self):
        # starting surely in A, the second measurement is A with probability p
        # (one-step enumeration: p1 * p + (1 - p1) * (1 - q) with p1 = 1)
        params = MarkovParams(0.88, 0.50, p1=1.0)
        enumerated = 1.0 * 0.88 + 0.0 * (1.0 - 0.50)
        assert state_probability(params, 2) == pytest.approx(enumerated, abs=1e-12)
        assert state_probability(params, 2) == pytest.approx(0.880, abs=1e-3)

    @given(p=probs, q=probs, p1=st.floats(min_value=0.0, max_value=1.0), n=st.integers(1, 50))
    def test_matches_recursion(self, p, q, p1, n):
        params = MarkovParams(p, q, p1=p1)
        a = p + q - 1.0
        x = p1
        for _ in range(n - 1):
            x = a * x + (1.0 - q)
        assert state_probability(params, n) == pytest.approx(x, abs=1e-12)


class TestMeanFrequency:
    def test_first_measurement(self):
        assert mean_frequency(MarkovParams(0.5, 0.5, p1=1.0), 1) == pytest.approx(1.0, abs=1e-15)

    def test_memoryless_ten_steps(self):
        # a = 0 collapses the formula to pinf + (p1 - pinf)/n = 0.55
        assert mean_frequency(MarkovParams(0.5, 0.5, p1=1.0), 10) == pytest.approx(0.55, abs=1e-12)

    def test_memoryless_ten_steps_monte_carlo(self):
        # oracle: direct simulation of 10**6 chains of length 10, vectorized
        # across chains; se of the mean is ~1.6e-4, assert within 1e-3
        rng = np.random.default_rng(1234)
        n_chains, n = 10**6, 10
        x = np.ones(n_chains, dtype=np.int8)
        total = x.astype(np.int64)
        for _ in range(n - 1):
            u = rng.random(n_chains)
            x = np.where(x == 1, u < 0.5, u < 0.5).astype(np.int8)
            total += x
        assert total.mean() / n == pytest.approx(0.55, abs=1e-3)

    @given(p=probs, q=probs, p1=st.floats(min_value=0.0, max_value=1.0))
    def test_converges_to_pinf(self, p, q, p1):
        params = MarkovParams(p, q, p1=p1)
        assert mean_frequency(params, 10**9) == pytest.approx(derive(params).pinf, abs=1e-6)

    @given(p=probs, q=probs, p1=st.floats(min_value=0.0, max_value=1.0), n=st.integers(1, 60))
    def test_equals_average_of_state_probabilities(self, p, q, p1, n):
        params = MarkovParams(p, q, p1=p1)
        avg = sum(state_probability(params, i) for i in range(1, n + 1)) / n
        assert mean_frequency(params, n) == pytest.approx(avg, abs=1e-12)


class TestNStepSelfTransitions:
    def test_initial_conditions(self):
        assert n_step_self_transitions(MarkovParams(0.3, 0.8), 0) == (1.0, 0.0)

    def test_single_step_is_matrix(self):
        pn, qn = n_step_self_transitions(MarkovParams(0.88, 0.50), 1)
        assert pn == pytest.approx(0.88, abs=1e-12)
        assert qn == pytest.approx(0.50, abs=1e-12)

    def test_converges_to_pinf(self):
        params = MarkovParams(0.65, 0.25)
        pinf = derive(params).pinf
        pn, qn = n_step_self_transitions(params, 20)
        assert pn == pytest.approx(pinf, abs=1e-6)
        assert qn == pytest.approx(pinf, abs=1e-6)

    @given(p=inner_probs, q=inner_probs, n=st.integers(0, 100))
    def test_matches_matrix_power(self, p, q, n):
        mn = np.linalg.matrix_power(oracle_matrix(p, q), n)
        pn, qn = n_step_self_transitions(MarkovParams(p, q), n)
        assert pn == pytest.approx(mn[0, 0], abs=1e-10)
        assert qn == pytest.approx(mn[0, 1], abs=1e-10)

    @given(p=probs, q=probs, n=st.integers(1, 100))
    def test_matches_recursion(self, p, q, n):
        # iterate x_n = a x_(n-1) + (1-q) from the (1, 0) initial pair
        a = p + q - 1.0
        b = 1.0 - q
        pn_it, qn_it = 1.0, 0.0
        for _ in range(n):
            pn_it = a * pn_it + b
            qn_it = a * qn_it + b
        pn, qn = n_step_self_transitions(MarkovParams(p, q), n)
        assert pn == pytest.approx(pn_it, abs=1e-10)
        assert qn == pytest.approx(qn_it, abs=1e-10)


class TestStdOfProportion:
    def test_binomial_case(self):
        assert std_of_proportion(MarkovParams(0.5, 0.5), 100) == pytest.approx(0.05, abs=1e-12)

    def test_persistent_case(self):
        # sigma0 = sqrt(0.80645*0.19355/100), nu = 1.4919
        assert std_of_proportion(MarkovParams(0.88, 0.50), 100) == pytest.approx(0.0589, abs=2e-4)

    def test_persistent_case_monte_carlo(self):
        # oracle: sample std of the proportion over 10**5 chains of length
        # 100 started from the stationary distribution (vectorized loop)
        p, q = 0.88, 0.50
        pinf = (1 - q) / (2 - p - q)
        rng = np.random.default_rng(99)
        n_chains, n = 10**5, 100
        x = (rng.random(n_chains) < pinf).astype(np.int8)
        total = x.astype(np.int64)
        for _ in range(n - 1):
            u = rng.random(n_chains)
            x = np.where(x == 1, u < p, u < 1 - q).astype(np.int8)
            total += x
        sampled = np.std(total / n, ddof=1)
        assert std_of_proportion(MarkovParams(p, q), n) == pytest.approx(sampled, rel=0.02)

    @given(p=probs, q=probs, n=st.integers(1, 10**6))
    def test_inverse_sqrt_scaling(self, p, q, n):
        params = MarkovParams(p, q)
        assert std_of_proportion(params, n) / std_of_proportion(params, 4 * n) == pytest.approx(2.0, abs=1e-9)

    @given(p=probs, q=probs, n=st.integers(1, 1000))
    def test_factorizes_as_sigma0_nu(self, p, q, n):
        params = MarkovParams(p, q)
        d = derive(params)
        sigma0 = math.sqrt(d.pinf * (1 - d.pinf) / n)
        assert std_of_proportion(params, n) == pytest.approx(sigma0 * d.nu, abs=1e-15)


class TestLag1Correlation:
    @pytest.mark.parametrize("p,expected", [(0.88, 0.76), (0.12, -0.76), (0.5, 0.0)])
    def test_values(self, p, expected):
        # the lag-1 spin correlation of a symmetric chain, 2p - 1, is its memory eigenvalue a
        assert derive(MarkovParams(p, p)).a == pytest.approx(expected, abs=1e-12)
