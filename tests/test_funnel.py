"""Funnel curves and coverage against quantile and simulation oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twostate import MarkovParams, ParameterError, ScatterDataset, derive, ensemble
from twostate.funnel import (
    FunnelSingularityError,
    FunnelSpec,
    confidence_bounds,
    coverage,
    required_n,
    sample_curve,
    z_from_level,
)

specs = st.builds(
    FunnelSpec,
    pinf=st.floats(0.05, 0.95),
    nu=st.floats(0.1, 3.0),
    z=st.floats(0.5, 3.0),
)


class TestFunnelSpec:
    @pytest.mark.parametrize("pinf,nu,z", [(0.0, 1, 1.96), (1.0, 1, 1.96), (0.5, 0, 1.96), (0.5, 1, 0)])
    def test_rejects_bad_fields(self, pinf, nu, z):
        with pytest.raises(ParameterError):
            FunnelSpec(pinf, nu, z)

    def test_z_from_level(self):
        assert z_from_level(0.95) == pytest.approx(1.96, abs=0.001)
        with pytest.raises(ParameterError):
            z_from_level(1.0)

    @pytest.mark.parametrize("level", [0.9999999999999999, 1e-300, 5e-17])
    def test_z_from_level_rejects_a_level_whose_tail_rounds_away(self, level):
        # 0.5 + level/2 rounds to 1 (no quantile) or to 0.5 (a quantile of 0)
        with pytest.raises(ParameterError):
            z_from_level(level)


class TestConfidenceBounds:
    def test_binomial_case(self):
        lower, upper = confidence_bounds(FunnelSpec(0.5, 1.0, 1.96), 100)
        assert lower == pytest.approx(0.402, abs=1e-12)
        assert upper == pytest.approx(0.598, abs=1e-12)

    def test_binomial_case_quantile_oracle(self):
        # independent oracle: empirical 95% band of 10**5 memory-free
        # proportions at n = 100 (binomial draws, lattice spacing 0.01)
        rng = np.random.default_rng(42)
        p_bars = rng.binomial(100, 0.5, size=10**5) / 100
        lo_emp, hi_emp = np.quantile(p_bars, [0.025, 0.975])
        lower, upper = confidence_bounds(FunnelSpec(0.5, 1.0, 1.96), 100)
        assert lower == pytest.approx(lo_emp, abs=0.01)
        assert upper == pytest.approx(hi_emp, abs=0.01)

    def test_width_vanishes_at_large_n(self):
        spec = FunnelSpec(0.58, 1.15)
        lower, upper = confidence_bounds(spec, 10**12)
        assert lower == pytest.approx(0.58, abs=1e-5)
        assert upper == pytest.approx(0.58, abs=1e-5)

    @given(spec=specs, n=st.integers(1, 10**6))
    def test_half_width_linear_in_nu(self, spec, n):
        doubled = FunnelSpec(spec.pinf, 2 * spec.nu, spec.z)
        lo1, hi1 = confidence_bounds(spec, n)
        lo2, hi2 = confidence_bounds(doubled, n)
        assert hi2 - lo2 == pytest.approx(2 * (hi1 - lo1), rel=1e-12)

    def test_bounds_not_clamped(self):
        lower, _ = confidence_bounds(FunnelSpec(0.12, 1.0), 20)
        assert lower < 0.0


class TestRequiredN:
    def test_captivity_coefficient(self):
        # numerator 1.96^2 * 0.58 * 0.42 * 1.15^2 is about 1.24
        spec = FunnelSpec(0.58, 1.15, 1.96)
        p_bar = 0.68
        assert required_n(spec, p_bar) * (p_bar - 0.58) ** 2 == pytest.approx(1.24, abs=0.01)

    def test_inverse_of_bounds_example(self):
        assert required_n(FunnelSpec(0.5, 1.0, 1.96), 0.598) == pytest.approx(100.0, rel=1e-9)

    def test_singularity(self):
        with pytest.raises(FunnelSingularityError):
            required_n(FunnelSpec(0.58, 1.15), 0.58)

    @given(spec=specs, n=st.integers(1, 10**6))
    def test_inverts_upper_bound(self, spec, n):
        _, upper = confidence_bounds(spec, n)
        assert required_n(spec, upper) == pytest.approx(n, rel=1e-9)


class TestCoverage:
    def test_matched_funnel_covers_95(self):
        params = MarkovParams(0.88, 0.50)
        d = derive(params)
        rng = np.random.default_rng(123)
        sizes = np.round(np.exp(rng.uniform(np.log(50), np.log(5000), 10**4))).astype(int)
        ds = ensemble(params, sizes.tolist(), 314)
        assert coverage(ds, FunnelSpec(d.pinf, d.nu, 1.96)) == pytest.approx(0.95, abs=0.02)

    def test_wide_funnel_overcovers_narrow_data(self):
        params = MarkovParams(0.12, 0.12)
        ds = ensemble(params, [200] * 2000, 11)
        assert coverage(ds, FunnelSpec(0.5, 1.0, 1.96)) > 0.99

    def test_point_on_center_is_inside(self):
        ds = ScatterDataset(np.array([50]), np.array([0.58]))
        assert coverage(ds, FunnelSpec(0.58, 1.15)) == 1.0

    def test_point_on_bound_counts_inside(self):
        spec = FunnelSpec(0.5, 1.0, 1.96)
        _, upper = confidence_bounds(spec, 100)
        ds = ScatterDataset(np.array([100]), np.array([upper]))
        assert coverage(ds, spec) == 1.0

    @given(nu_small=st.floats(0.2, 1.0), factor=st.floats(1.0, 3.0))
    def test_monotone_in_nu(self, nu_small, factor):
        rng = np.random.default_rng(5)
        ds = ScatterDataset(
            np.full(200, 100), np.clip(0.5 + 0.05 * rng.standard_normal(200), 0, 1)
        )
        narrow = coverage(ds, FunnelSpec(0.5, nu_small))
        wide = coverage(ds, FunnelSpec(0.5, nu_small * factor))
        assert wide >= narrow


class TestSampleCurve:
    def test_grid_shape_and_monotone_width(self):
        ns, lower, upper = sample_curve(FunnelSpec(0.58, 1.15), 10, 10**5, 200)
        assert len(ns) == 200 and ns[0] == pytest.approx(10) and ns[-1] == pytest.approx(10**5)
        widths = upper - lower
        assert np.all(np.diff(widths) < 0)

    def test_bad_grid(self):
        with pytest.raises(ParameterError):
            sample_curve(FunnelSpec(0.5, 1.0), 100, 10, 50)

    @pytest.mark.parametrize("n_min", [0.5, 5e-324])
    def test_rejects_study_sizes_below_one(self, n_min):
        # as `confidence_bounds` does; 5e-324 overflowed the half-width to inf
        with pytest.raises(ParameterError):
            sample_curve(FunnelSpec(0.5, 1.0), n_min, 10, 50)
