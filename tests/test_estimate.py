"""Estimators: scatter pipeline, algebraic inversion, run-curve fits."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twostate import MarkovParams, ParameterError, ScatterDataset, child_seed, derive, ensemble, estimate, generate
from twostate.estimate import (
    InfeasibleParametersError,
    estimate_center,
    estimate_nu,
    fit_runs_simulated,
    fit_scatter,
    invert_to_pq,
    run_curve_objective,
)
from twostate.runs import (
    STATE_A,
    STATE_B,
    _mean_stays_per_run,
    extract_runs,
)

from conftest import run_frequencies

probs = st.floats(min_value=0.02, max_value=0.98)


def model_curves(p11, p22, n=10_000, max_m=200):
    params = MarkovParams(p11, p22)
    ms = np.arange(1, max_m + 1)
    on = dict(zip(ms.tolist(), run_frequencies(params, n, ms, STATE_A).tolist()))
    off = dict(zip(ms.tolist(), run_frequencies(params, n, ms, STATE_B).tolist()))
    return on, off


class TestEstimateCenter:
    def test_weighted_mean(self):
        ds = ScatterDataset([100, 300], [0.6, 0.5])
        assert estimate_center(ds) == pytest.approx(0.525, abs=1e-12)

    def test_single_point(self):
        ds = ScatterDataset([42], [0.37])
        assert estimate_center(ds) == pytest.approx(0.37, abs=1e-12)

    def test_monte_carlo_consistency(self):
        params = MarkovParams(0.88, 0.50)  # pinf = 0.806... ~= 0.81
        ds = ensemble(params, [500] * 1000, 88)
        assert estimate_center(ds) == pytest.approx(derive(params).pinf, abs=0.01)


class TestEstimateNu:
    def test_persistent_case(self):
        params = MarkovParams(0.88, 0.50)
        ds = ensemble(params, [1000] * 10**4, 909)
        assert estimate_nu(ds, derive(params).pinf) == pytest.approx(1.49, abs=0.05)

    def test_memory_free(self):
        ds = ensemble(MarkovParams(0.5, 0.5), [1000] * 5000, 31)
        assert estimate_nu(ds, 0.5) == pytest.approx(1.0, abs=0.05)

    def test_scaling_deviations_doubles_nu(self):
        rng = np.random.default_rng(3)
        devs = 0.04 * rng.standard_normal(200)
        ds1 = ScatterDataset(np.full(200, 400), 0.5 + devs)
        ds2 = ScatterDataset(np.full(200, 400), 0.5 + 2 * devs)
        assert estimate_nu(ds2, 0.5) == pytest.approx(2 * estimate_nu(ds1, 0.5), rel=1e-12)

    def test_degenerate_dataset(self):
        ds = ScatterDataset(np.full(25, 100), np.full(25, 0.58))
        assert estimate_nu(ds, 0.58) == 0.0

    # each (p_bar - pinf)^2, about 2.5e-601 or 2.5e-641, is 0 in float64, yet no point sits on
    # the center; in the second, n / pinf passes float64, though nu is about 1.5e-151
    @pytest.mark.parametrize("n, p_bar", [(10, 1e-300), (2**62, 1e-320)])
    def test_deviations_whose_squares_underflow(self, n, p_bar):
        ds = ScatterDataset([n, n], [p_bar, 0.0])
        assert estimate_nu(ds, p_bar / 2) == pytest.approx(np.sqrt(n * p_bar / 2), rel=1e-12)
        with pytest.raises(InfeasibleParametersError, match=r"maps to \(p=-1.0000, q=1.0000\) outside"):
            fit_scatter(ds)

    def test_moment_equation_exact(self):
        # sum n (p_bar - pinf)^2 = 100 * 0.075^2 + 300 * 0.025^2 = 0.75 over N pinf(1-pinf) = 2 * 0.249375
        ds = ScatterDataset([100, 300], [0.6, 0.5])
        assert estimate_nu(ds, 0.525) == pytest.approx(np.sqrt(0.75 / 0.49875), rel=0, abs=1e-12)


class TestInvertToPq:
    def test_captivity_values(self):
        p, q = invert_to_pq(0.58, 1.15)
        assert p == pytest.approx(0.64, abs=0.005)
        assert q == pytest.approx(0.50, abs=0.005)

    def test_memory_free(self):
        assert invert_to_pq(0.5, 1.0) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_round_trip_grid(self):
        for p in np.linspace(0.05, 0.95, 19):
            for q in np.linspace(0.05, 0.95, 19):
                d = derive(MarkovParams(p, q))
                p2, q2 = invert_to_pq(d.pinf, d.nu)
                assert p2 == pytest.approx(p, abs=1e-9)
                assert q2 == pytest.approx(q, abs=1e-9)

    @given(p=probs, q=probs)
    def test_round_trip_property(self, p, q):
        d = derive(MarkovParams(p, q))
        p2, q2 = invert_to_pq(d.pinf, d.nu)
        assert p2 == pytest.approx(p, abs=1e-9) and q2 == pytest.approx(q, abs=1e-9)

    def test_infeasible_pair(self):
        # a narrow funnel centered far from one half cannot come from a
        # two-state chain: q would have to be negative
        with pytest.raises(InfeasibleParametersError):
            invert_to_pq(0.9, 0.3)

    @pytest.mark.parametrize("nu", [2.0**27, 1e154, 1e308])
    def test_huge_nu_maps_to_the_frozen_chain(self, nu):
        # nu**2 overflows past about 1.3e154, and s is 2 from 2^27 on
        with pytest.raises(InfeasibleParametersError, match=r"maps to \(p=1\.0000, q=1\.0000\)"):
            invert_to_pq(0.5, nu)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            invert_to_pq(0.0, 1.0)
        with pytest.raises(ParameterError):
            invert_to_pq(0.5, -1.0)


class TestFitScatter:
    def test_recovers_known_parameters(self):
        ds = ensemble(MarkovParams(0.88, 0.50), [1000] * 10**4, 909)
        fit = fit_scatter(ds)
        assert fit.p_hat == pytest.approx(0.88, abs=0.02)
        assert fit.q_hat == pytest.approx(0.50, abs=0.02)
        assert fit.coverage_achieved == pytest.approx(0.95, abs=0.02)
        assert fit.n_points == 10**4

    def test_fit_invariant_derive_consistency(self):
        ds = ensemble(MarkovParams(0.64, 0.50), [500] * 2000, 17)
        fit = fit_scatter(ds)
        d = derive(MarkovParams(fit.p_hat, fit.q_hat))
        assert d.pinf == pytest.approx(fit.pinf_hat, abs=1e-9)
        assert d.nu == pytest.approx(fit.nu_hat, abs=1e-9)

    def test_constraint_bounds_honored(self):
        # generated slightly below the bound; the projected fit must not
        # violate it, and the reported summary must match the projection
        ds = ensemble(MarkovParams(0.55, 0.45), [500] * 2000, 23)
        fit = fit_scatter(ds, min_p=0.5, min_q=0.5)
        assert fit.p_hat >= 0.5 and fit.q_hat >= 0.5
        d = derive(MarkovParams(fit.p_hat, fit.q_hat))
        assert d.nu == pytest.approx(fit.nu_hat, abs=1e-9)

    def test_degenerate_dataset_infeasible(self):
        ds = ScatterDataset(np.full(25, 100), np.full(25, 0.5))
        with pytest.raises(InfeasibleParametersError):
            fit_scatter(ds)

    # seed and tolerance fixed before the first run; a failure is reported, not re-seeded
    BIAS_SEED = 2022
    BIAS_TOLERANCE = 0.03

    def test_mean_error_bounded_across_the_square(self):
        # 100 replicates of 200 studies, n log-uniform in [20, 200], per (p, q) cell
        replicates, studies = 100, 200
        rng = np.random.default_rng(self.BIAS_SEED)
        sizes = np.round(np.exp(rng.uniform(np.log(20), np.log(200), replicates * studies))).astype(int)
        cells = [(0.97, 0.3), (0.5, 0.97), (0.9, 0.9), (0.5, 0.5), (0.1, 0.1), (0.88, 0.5)]
        for k, (p, q) in enumerate(cells):
            ds = ensemble(MarkovParams(p, q), sizes, child_seed(self.BIAS_SEED, k))
            fits = [
                fit_scatter(ScatterDataset(ds.sizes[r::replicates], ds.p_bars[r::replicates]))
                for r in range(replicates)
            ]
            p_err = np.mean([fit.p_hat for fit in fits]) - p
            q_err = np.mean([fit.q_hat for fit in fits]) - q
            assert abs(p_err) <= self.BIAS_TOLERANCE and abs(q_err) <= self.BIAS_TOLERANCE, (p, q, p_err, q_err)


class TestFitRunsSimulated:
    @pytest.mark.parametrize("p11,p22", [(0.25, 0.65), (0.80, 0.55), (0.60, 0.65)])
    def test_round_trip_on_synthetic_curves(self, p11, p22):
        on, off = model_curves(p11, p22)
        fit = fit_runs_simulated(on, off)
        assert fit.p11_hat == pytest.approx(p11, abs=0.02)
        assert fit.p22_hat == pytest.approx(p22, abs=0.02)

    def test_flat_curve_infeasible(self):
        on, off = model_curves(0.6, 0.6)
        for curve in ({1: 1.0}, {1: 0.0, 2: 0.0}):
            with pytest.raises(InfeasibleParametersError):
                fit_runs_simulated(curve, off)

    def test_all_mass_at_the_longest_length_infeasible(self):
        # the model mean of m-1 is at most (K-1)/3 for K = length-2, so a curve at m = K is out of reach
        _, off = model_curves(0.6, 0.6, max_m=10)
        for length in (20, 10_000):
            with pytest.raises(InfeasibleParametersError):
                fit_runs_simulated({length - 2: 1.0}, off, length)

    @pytest.mark.parametrize("length", [4, 5, 10, 50])
    def test_recovers_persistent_states_of_short_sequences(self, length):
        # full-domain model curves: where the closed-form mean cancels, the fit must still find s
        ms = np.arange(1, length - 1)
        for stay in (0.3, 0.99, 0.9999):
            params = MarkovParams(stay, stay)
            on, off = (
                dict(zip(ms.tolist(), run_frequencies(params, length, ms, state).tolist()))
                for state in (STATE_A, STATE_B)
            )
            fit = fit_runs_simulated(on, off, length)
            assert fit.p11_hat == pytest.approx(stay, abs=1e-8) and fit.p22_hat == pytest.approx(stay, abs=1e-8)

    def test_curve_outside_the_formula_domain_rejected(self):
        on, off = model_curves(0.6, 0.6, max_m=10)
        with pytest.raises(ParameterError):
            fit_runs_simulated({1: 0.5, 19: 0.5}, off, length=20)

    @pytest.mark.parametrize("m", [2**63 - 1, 2**63, 99999999999999999999])
    def test_run_length_past_int64_rejected(self, m):
        # parse_curve accepts any integer length; the int64 cast must not be what rejects it
        on, off = model_curves(0.6, 0.6, max_m=10)
        curve = {1: 0.5, m: 0.5}
        with pytest.raises(ParameterError, match="outside formula domain"):
            fit_runs_simulated(curve, off)
        with pytest.raises(ParameterError, match="outside formula domain"):
            run_curve_objective(on, curve, 0.6, 0.6)

    def test_solves_the_mean_run_length_equation(self, simulate_run_curves):
        on, off = simulate_run_curves(MarkovParams(0.80, 0.55), 10**4, 10, 555)
        fit = fit_runs_simulated(on, off)
        for curve, stay in ((on, fit.p11_hat), (off, fit.p22_hat)):
            ms, freqs = np.array(list(curve)), np.array(list(curve.values()))
            assert _mean_stays_per_run(10**4, stay) == pytest.approx(freqs @ (ms - 1) / freqs.sum(), rel=1e-7)
        # and so maximizes the likelihood: a step in either estimate raises the objective
        for step in (-1e-4, 1e-4):
            assert run_curve_objective(on, off, fit.p11_hat + step, fit.p22_hat) > fit.objective
            assert run_curve_objective(on, off, fit.p11_hat, fit.p22_hat + step) > fit.objective

    def test_objective_evaluated_once_per_fit(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_curve_objective(*args, **kwargs)

        monkeypatch.setattr(estimate, "run_curve_objective", counted)
        on, off = model_curves(0.42, 0.77)
        fit = fit_runs_simulated(on, off)
        assert len(calls) == 1
        assert fit.objective == run_curve_objective(on, off, fit.p11_hat, fit.p22_hat)

    def test_recovers_pairs_across_the_square(self, simulate_run_curves):
        # tolerance fixed beforehand: 0.02 on each estimate
        values = (0.05, 0.20, 0.50, 0.80, 0.93, 0.95)
        misses = []
        for p11 in values:
            for p22 in values:
                on, off = simulate_run_curves(MarkovParams(p11, p22), 10**4, 10, 314)
                fit = fit_runs_simulated(on, off)
                if abs(fit.p11_hat - p11) > 0.02 or abs(fit.p22_hat - p22) > 0.02:
                    misses.append((p11, p22, round(fit.p11_hat, 3), round(fit.p22_hat, 3)))
        assert misses == []

    def test_agrees_with_mle_on_simulated_data(self, simulate_run_curves):
        params = MarkovParams(0.80, 0.55)
        on_curve, off_curve = simulate_run_curves(params, 10**4, 10, 555)
        curve_fit = fit_runs_simulated(on_curve, off_curve)
        # the geometric MLE per state, (occupied - runs) / occupied, of one long chain
        ha, hb = extract_runs(generate(params, 10**5, 8))
        assert curve_fit.p11_hat == pytest.approx(1 - ha.n_runs / ha.occupied_length, abs=0.02)
        assert curve_fit.p22_hat == pytest.approx(1 - hb.n_runs / hb.occupied_length, abs=0.02)

    def test_objective_smallest_at_truth(self):
        on, off = model_curves(0.42, 0.77)
        at_truth = run_curve_objective(on, off, 0.42, 0.77)
        for p11, p22 in ((0.41, 0.77), (0.43, 0.77), (0.42, 0.76), (0.42, 0.78), (0.5, 0.5)):
            assert run_curve_objective(on, off, p11, p22) > at_truth
