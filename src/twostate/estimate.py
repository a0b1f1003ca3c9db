"""Inverse problems: recover chain parameters from scatter data and runs.

The scatter route estimates the funnel center as a size-weighted mean and
the width factor as an empirical quantile of standardized deviations, then
inverts the (pinf, nu) pair algebraically to (p, q).  The run route fits
the two self-transition probabilities to normalized run-length curves by
maximum likelihood: per state, the self-transition probability whose model
mean run length equals the curve's, found by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import MarkovParams, ParameterError, _check_open_unit, derive
from .funnel import FunnelSpec, coverage, z_from_level
from .runs import _check_run_domain, _mean_stays_per_run, log_run_frequencies
from .simulate import ScatterDataset

# the run-curve fit bisects log(stay) over [log(STAY_BOUND), log(1 - STAY_BOUND)] to LOG_STAY_TOLERANCE
STAY_BOUND = 1e-6
LOG_STAY_TOLERANCE = 1e-9


class InfeasibleParametersError(ValueError):
    """No valid (p, q) pair in (0,1)^2 is consistent with the inputs."""


@dataclass(frozen=True)
class ScatterFit:
    """Result of fitting a scatter dataset."""

    pinf_hat: float
    nu_hat: float
    p_hat: float
    q_hat: float
    coverage_achieved: float
    n_points: int


@dataclass(frozen=True)
class RunFit:
    """Estimated self-transition probabilities from run-length curves.
    `objective` is `run_curve_objective` at the estimates: the negative
    log-likelihood of the curves, summed over both states."""

    p11_hat: float
    p22_hat: float
    objective: float


def estimate_center(dataset: ScatterDataset) -> float:
    """Size-weighted mean of the observed proportions."""
    return float(np.average(dataset.p_bars, weights=dataset.sizes))


def estimate_nu(dataset: ScatterDataset, pinf: float, level: float = 0.95) -> float:
    """Smallest width factor whose funnel covers `level` of the points.

    Computed as the level-quantile of the standardized deviations
    |p_bar - pinf| * sqrt(n / (pinf(1-pinf))) divided by the normal
    quantile for `level`.  Returns 0.0 for the degenerate dataset whose
    points all sit exactly on the center.
    """
    if len(dataset) < 20:
        raise ParameterError(f"need at least 20 points for a stable quantile, got {len(dataset)}")
    _check_open_unit("pinf", pinf)
    z = z_from_level(level)
    devs = np.abs(dataset.p_bars - pinf) * np.sqrt(dataset.sizes / (pinf * (1.0 - pinf)))
    devs = np.sort(devs)
    k = math.ceil(level * len(dataset))
    return float(devs[k - 1] / z)


def invert_to_pq(pinf: float, nu: float) -> tuple[float, float]:
    """Algebraic inverse of the (p, q) -> (pinf, nu) map.

    With s = p + q = 2 nu^2 / (1 + nu^2): q = 1 - pinf * (2 - s) and
    p = s - q.  Raises when the pair is inconsistent with a two-state
    chain, i.e. when either solution leaves (0, 1).
    """
    _check_open_unit("pinf", pinf)
    if not nu >= 0.0:  # nan fails too
        raise ParameterError(f"nu must be nonnegative, got {nu!r}")
    s = 2.0 * nu**2 / (1.0 + nu**2)
    q = 1.0 - pinf * (2.0 - s)
    p = s - q
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise InfeasibleParametersError(
            f"(pinf={pinf}, nu={nu}) maps to (p={p:.4f}, q={q:.4f}) outside (0,1)^2"
        )
    return p, q


def _check_fit_options(level: float, min_p: float | None, min_q: float | None) -> float:
    """Check the scatter fit's options; returns the normal quantile of `level`."""
    z = z_from_level(level)
    for name, bound in (("min_p", min_p), ("min_q", min_q)):
        if bound is not None and not 0.0 <= bound < 1.0:  # nan fails too
            raise ParameterError(f"{name} must lie in [0, 1), got {bound!r}")
    return z


def fit_scatter(
    dataset: ScatterDataset,
    level: float = 0.95,
    min_p: float | None = None,
    min_q: float | None = None,
) -> ScatterFit:
    """Full scatter pipeline: center, width factor, algebraic inversion.

    Optional lower bounds on p and q project the inverted solution into
    the constraint region; the reported (pinf_hat, nu_hat) and coverage
    are re-derived from the projected pair, so the fit invariants hold
    either way.
    """
    z = _check_fit_options(level, min_p, min_q)
    center = estimate_center(dataset)
    if not 0.0 < center < 1.0:
        raise InfeasibleParametersError(f"degenerate dataset: weighted mean proportion {center}")
    nu = estimate_nu(dataset, center, level)
    if nu == 0.0:
        raise InfeasibleParametersError("degenerate dataset: every point sits on the center")
    p, q = invert_to_pq(center, nu)
    if min_p is not None:
        p = max(p, min_p)
    if min_q is not None:
        q = max(q, min_q)
    d = derive(MarkovParams(p, q))
    spec = FunnelSpec(d.pinf, d.nu, z)
    return ScatterFit(
        pinf_hat=d.pinf,
        nu_hat=d.nu,
        p_hat=p,
        q_hat=q,
        coverage_achieved=coverage(dataset, spec),
        n_points=len(dataset),
    )


def _curve_arrays(curve: dict, length: int) -> tuple[np.ndarray, np.ndarray]:
    ms = sorted(curve)
    freqs = np.array([curve[m] for m in ms], dtype=float)
    if not ms or freqs.min() < 0.0:
        raise ParameterError("run curve must map run lengths to nonnegative frequencies")
    return _check_run_domain(length, ms), freqs


def run_curve_objective(on_curve: dict, off_curve: dict, p11: float, p22: float, length: int = 10_000) -> float:
    """Negative multinomial log-likelihood of both curves under the chain at
    (p11, p22): minus the sum over states and bins of f_m log g_m, where g_m
    is the model run-length frequency for sequences of `length` steps; log g_m
    is finite, so empty bins add 0.  Each state's term depends only on its own
    stay probability."""
    total = 0.0
    for curve, stay in ((on_curve, p11), (off_curve, p22)):
        ms, freqs = _curve_arrays(curve, length)
        total -= float(np.dot(freqs, log_run_frequencies(length, ms, stay)))
    return total


def fit_runs_simulated(on_curve: dict, off_curve: dict, length: int = 10_000) -> RunFit:
    """Maximum-likelihood (p11, p22) for normalized run-length curves.

    Each state's log-likelihood, sum of f_m log g_m over the curve with g_m
    the model frequency for sequences of `length` steps, depends only on that
    state's self-transition probability s.  In theta = log s the model is an
    exponential family (statistic m-1, base weight n-m-1), so the curve
    enters only through sum f and sum f (m-1), and the maximum solves the
    mean-run-length equation E_s[m-1] = sum f (m-1) / sum f.  The model mean
    rises with theta, so one bisection per state finds the root.  A curve
    whose mean lies outside the model means at the search bounds (all mass
    at m = 1 points to s = 0), or that has no mass, is infeasible.
    """
    def model_mean(theta):
        return _mean_stays_per_run(length, math.exp(theta))

    estimates = []
    for name, curve in (("on", on_curve), ("off", off_curve)):
        ms, freqs = _curve_arrays(curve, length)
        mass = freqs.sum()
        target = float(np.dot(freqs, ms - 1) / mass) if mass > 0.0 else math.nan
        lo, hi = math.log(STAY_BOUND), math.log1p(-STAY_BOUND)
        if not model_mean(lo) < target < model_mean(hi):  # nan fails too
            raise InfeasibleParametersError(
                f"degenerate {name} curve: its likelihood has no maximum inside the search range "
                f"[{STAY_BOUND:g}, 1 - {STAY_BOUND:g}] of self-transition probabilities"
            )
        while hi - lo > LOG_STAY_TOLERANCE:
            mid = (lo + hi) / 2.0
            if model_mean(mid) < target:
                lo = mid
            else:
                hi = mid
        estimates.append(math.exp((lo + hi) / 2.0))
    p11, p22 = estimates
    return RunFit(
        p11_hat=p11,
        p22_hat=p22,
        objective=run_curve_objective(on_curve, off_curve, p11, p22, length),
    )
