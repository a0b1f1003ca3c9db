"""Inverse problems: recover chain parameters from scatter data and runs.

The scatter route estimates the funnel center as a size-weighted mean and
the width factor as an empirical quantile of standardized deviations, then
inverts the (pinf, nu) pair algebraically to (p, q).  The run route fits
the two self-transition probabilities to normalized run-length curves by
maximum likelihood, one 1-D search per state, with a closed-form geometric
maximum-likelihood shortcut per state, pooled over that state's histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chain import MarkovParams, ParameterError, derive
from .funnel import FunnelSpec, coverage, z_from_level
from .runs import STATE_A, STATE_B, RunHistogram, log_run_frequencies
from .simulate import ScatterDataset

# the run-curve fit searches log(stay) over [log(STAY_BOUND), log(1 - STAY_BOUND)] to LOG_STAY_TOLERANCE
STAY_BOUND = 1e-6
LOG_STAY_TOLERANCE = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


class RunFitMethod(Enum):
    CURVE_MLE = "curve-mle"


@dataclass(frozen=True)
class RunFit:
    """Estimated self-transition probabilities from run-length curves.
    `objective` is `run_curve_objective` at the estimates: the negative
    log-likelihood of the curves, summed over both states."""

    p11_hat: float
    p22_hat: float
    objective: float
    method: RunFitMethod


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
    if not 0.0 < pinf < 1.0:
        raise ParameterError(f"pinf must lie strictly inside (0, 1), got {pinf!r}")
    devs = np.abs(dataset.p_bars - pinf) * np.sqrt(dataset.sizes / (pinf * (1.0 - pinf)))
    devs = np.sort(devs)
    k = math.ceil(level * len(dataset))
    return float(devs[k - 1] / z_from_level(level))


def invert_to_pq(pinf: float, nu: float) -> tuple[float, float]:
    """Algebraic inverse of the (p, q) -> (pinf, nu) map.

    With s = p + q = 2 nu^2 / (1 + nu^2): q = 1 - pinf * (2 - s) and
    p = s - q.  Raises when the pair is inconsistent with a two-state
    chain, i.e. when either solution leaves (0, 1).
    """
    if not 0.0 < pinf < 1.0:
        raise ParameterError(f"pinf must lie strictly inside (0, 1), got {pinf!r}")
    if nu < 0.0:
        raise ParameterError(f"nu must be nonnegative, got {nu!r}")
    s = 2.0 * nu**2 / (1.0 + nu**2)
    q = 1.0 - pinf * (2.0 - s)
    p = s - q
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise InfeasibleParametersError(
            f"(pinf={pinf}, nu={nu}) maps to (p={p:.4f}, q={q:.4f}) outside (0,1)^2"
        )
    return p, q


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
    spec = FunnelSpec(d.pinf, d.nu, z_from_level(level))
    return ScatterFit(
        pinf_hat=d.pinf,
        nu_hat=d.nu,
        p_hat=p,
        q_hat=q,
        coverage_achieved=coverage(dataset, spec),
        n_points=len(dataset),
    )


def fit_runs_mle(*histograms: RunHistogram) -> float:
    """Maximum-likelihood continuation probability of geometric run lengths,
    pooled over one or more histograms of one state:
    sum (m-1) * count / sum m * count.

    Returns 0.0 when no run exceeds length one (boundary-degenerate: a
    valid chain needs a strictly positive self-transition probability).
    """
    if any(h.state != histograms[0].state for h in histograms):
        raise ParameterError("histograms must all describe the same state")
    total = sum(h.occupied_length for h in histograms)
    if total == 0:
        raise ParameterError("histogram contains no runs")
    return (total - sum(h.n_runs for h in histograms)) / total


def _curve_arrays(curve: dict) -> tuple[np.ndarray, np.ndarray]:
    ms = np.array(sorted(curve), dtype=np.int64)
    freqs = np.array([curve[m] for m in ms], dtype=float)
    if ms.size == 0 or ms.min() < 1 or freqs.min() < 0.0:
        raise ParameterError("run curve must map positive lengths to nonnegative frequencies")
    return ms, freqs


def _state_log_likelihood(ms: np.ndarray, freqs: np.ndarray, stay: float, length: int, state: int) -> float:
    """Sum of f_m log g_m(stay) over one state's curve; log g_m is finite, so
    empty bins add 0.  MarkovParams(stay, stay) gives either state that stay
    probability; the other state's parameter cancels from g."""
    return float(np.dot(freqs, log_run_frequencies(MarkovParams(stay, stay), length, ms, state)))


def run_curve_objective(on_curve: dict, off_curve: dict, p11: float, p22: float, length: int = 10_000) -> float:
    """Negative multinomial log-likelihood of both curves under the chain at
    (p11, p22): minus the sum over states and bins of f_m log g_m, where g_m
    is the model run-length frequency for sequences of `length` steps.  The
    state-A term depends only on p11 and the state-B term only on p22."""
    return -sum(
        _state_log_likelihood(*_curve_arrays(curve), stay, length, state)
        for curve, stay, state in ((on_curve, p11, STATE_A), (off_curve, p22, STATE_B))
    )


def _golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Bracket [a, b] narrower than `tol` around the maximum of a function unimodal
    on [lo, hi]; a maximum at an end leaves that end of the bracket exactly in place."""
    a, b = lo, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return a, b


def fit_runs_simulated(on_curve: dict, off_curve: dict, length: int = 10_000) -> RunFit:
    """Maximum-likelihood (p11, p22) for normalized run-length curves.

    Each state's log-likelihood, sum of f_m log g_m over the curve with g_m
    the model frequency for sequences of `length` steps, depends only on that
    state's self-transition probability s.  In theta = log s the model is an
    exponential family (statistic m-1, base weight n-m-1), so the
    log-likelihood is concave in theta and one golden-section search per
    state finds its maximum.  A curve whose maximum lies on the search bound
    (all mass at m = 1 points to s = 0), or that has no mass and so no
    maximum, is infeasible.
    """
    lo, hi = math.log(STAY_BOUND), math.log1p(-STAY_BOUND)
    estimates = []
    for name, curve, state in (("on", on_curve, STATE_A), ("off", off_curve, STATE_B)):
        ms, freqs = _curve_arrays(curve)
        a, b = _golden_section_max(
            lambda theta: _state_log_likelihood(ms, freqs, math.exp(theta), length, state),
            lo, hi, LOG_STAY_TOLERANCE,
        )
        if a == lo or b == hi:
            raise InfeasibleParametersError(
                f"degenerate {name} curve: its likelihood has no maximum inside the search range "
                f"[{STAY_BOUND:g}, 1 - {STAY_BOUND:g}] of self-transition probabilities"
            )
        estimates.append(math.exp((a + b) / 2.0))
    p11, p22 = estimates
    return RunFit(
        p11_hat=p11,
        p22_hat=p22,
        objective=run_curve_objective(on_curve, off_curve, p11, p22, length),
        method=RunFitMethod.CURVE_MLE,
    )
