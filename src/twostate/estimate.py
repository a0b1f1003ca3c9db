"""Inverse problems: recover chain parameters from scatter data and runs.

The scatter route rests on Var(p_bar) = pinf(1-pinf) nu^2 / n.  Both of
its estimates come from one weighted sum, sum n_i (p_bar_i - c)^2: the
funnel center pinf is the size-weighted mean of the proportions, the c
that minimises it, and the width factor solves the moment equation
mean(n_i (p_bar_i - pinf)^2) = pinf(1-pinf) nu^2 at that c.  The
(pinf, nu) pair is then inverted algebraically to (p, q).  The run route fits
the two self-transition probabilities to normalized run-length curves by
maximum likelihood: per state, the self-transition probability whose model
mean run length equals the curve's, found by one bisection, `_fit_stay`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import MarkovParams, ParameterError, _all_real, _check_real, derive
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
    """Result of fitting a scatter dataset.  `coverage_achieved` is the
    share of points inside the fitted funnel at the fit's `level`; it is
    measured, not at least `level` by construction."""

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


def estimate_nu(dataset: ScatterDataset, pinf: float) -> float:
    """Moment estimate of the width factor about the center `pinf`:
    sqrt(sum n_i (p_bar_i - pinf)^2 / (N pinf(1-pinf))) over the N points,
    the solution of mean(n_i (p_bar_i - pinf)^2) = pinf(1-pinf) nu^2.  At
    the weighted center this is the least value of the sum.  Returns 0.0
    for the degenerate dataset whose points all sit exactly on the center,
    and inf where a pinf near 0 or 1 takes the quotient past float64.
    Deviations whose squares all underflow are scaled by the largest first.
    """
    pinf = _check_real("pinf", pinf, 0, 1)
    deviations = dataset.p_bars - pinf
    moment = float(np.mean(dataset.sizes * deviations**2))  # a Python float overflows to inf, where numpy's warns
    if moment == 0.0 and deviations.any():  # every square underflowed: scale by the largest deviation first
        scale = float(np.abs(deviations).max())
        moment = float(np.mean(dataset.sizes * (deviations / scale) ** 2))
        return scale * math.sqrt(moment) / math.sqrt(pinf * (1.0 - pinf))  # finite, as pinf >= 5e-324
    return math.sqrt(moment / (pinf * (1.0 - pinf)))


def invert_to_pq(pinf: float, nu: float) -> tuple[float, float]:
    """Algebraic inverse of the (p, q) -> (pinf, nu) map.

    With s = p + q = 2 nu^2 / (1 + nu^2): q = 1 - pinf * (2 - s) and
    p = s - q.  Raises when the pair is inconsistent with a two-state
    chain, i.e. when either solution leaves (0, 1).
    """
    pinf = _check_real("pinf", pinf, 0, 1)
    nu = _check_real("nu", nu, 0, math.inf, "[)")
    # from nu = 2^27 on, 1 + nu^2 rounds to nu^2 and s to 2, and past about 1.3e154 nu**2 overflows
    s = 2.0 * nu**2 / (1.0 + nu**2) if nu < 2**27 else 2.0
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
    """Full scatter pipeline: center, moment width factor, algebraic inversion.

    `level` sets only the normal quantile of the funnel whose coverage is
    reported.  Optional lower bounds on p and q project the inverted
    solution into the constraint region; the reported (pinf_hat, nu_hat)
    and coverage are re-derived from the projected pair, so the fit
    invariants hold either way.
    """
    z = z_from_level(level)
    for name, bound in (("min_p", min_p), ("min_q", min_q)):
        if bound is not None:
            _check_real(name, bound, 0, 1, "[)")
    center = estimate_center(dataset)
    if not 0.0 < center < 1.0:
        raise InfeasibleParametersError(f"degenerate dataset: weighted mean proportion {center}")
    nu = estimate_nu(dataset, center)
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


def _curve_arrays(curve: dict, length: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """A run curve's lengths m and frequencies f, in the dict's order, as every
    reader is order-free, and its runs sum f and stays sum f (m-1), all finite."""
    # numpy would read True as 1 and "0.5" as 0.5; ints past int64 make an
    # object array of run lengths, which `_check_run_domain` refuses
    if _all_real(curve) and _all_real(curve.values()):
        ms, freqs = np.array(list(curve)), np.array(list(curve.values()), dtype=float)
        if freqs.size and 0.0 <= freqs.min() <= freqs.max() < math.inf:
            ms = _check_run_domain(length, ms)
            with np.errstate(over="ignore"):
                runs, stays = freqs.sum(), np.dot(freqs, ms - 1)
            if max(runs, stays) < math.inf:
                return ms, freqs, runs, stays
    raise ParameterError("run curve must map run lengths to nonnegative frequencies with finite sums")


def run_curve_objective(on_curve: dict, off_curve: dict, p11: float, p22: float, length: int = 10_000) -> float:
    """Negative multinomial log-likelihood of both curves under the chain at
    (p11, p22): minus the sum over states and bins of f_m log g_m, where g_m
    is the model run-length frequency for sequences of `length` steps; log g_m
    is finite, so empty bins add 0.  Each state's term depends only on its own
    stay probability.  A sum that passes float64 is refused."""
    p11, p22 = _check_real("p11", p11, 0, 1), _check_real("p22", p22, 0, 1)
    total = 0.0
    for curve, stay in ((on_curve, p11), (off_curve, p22)):
        ms, freqs, _, _ = _curve_arrays(curve, length)
        with np.errstate(over="ignore"):
            total -= float(np.dot(freqs, log_run_frequencies(length, ms, stay)))
    if not math.isfinite(total):
        raise ParameterError(f"run curves' negative log-likelihood at p11={p11}, p22={p22} passes float64")
    return total


def _fit_stay(name: str, runs, stays, length: int) -> float:
    """The likelihood maximum of a state with `runs` runs and `stays` summed
    stays m-1: the s whose model mean `_mean_stays_per_run(length, s)` equals
    stays/runs, bisected in theta = log s, in which that mean rises.  No runs,
    or a mean outside the model means at the search bounds (all runs of
    length 1 point to s = 0), is infeasible."""
    def model_mean(theta):
        return _mean_stays_per_run(length, math.exp(theta))

    target = stays / runs if runs > 0 else math.nan
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
    return math.exp((lo + hi) / 2.0)


def fit_runs_simulated(on_curve: dict, off_curve: dict, length: int = 10_000) -> RunFit:
    """Maximum-likelihood (p11, p22) for normalized run-length curves.

    Each state's log-likelihood, sum of f_m log g_m over the curve with g_m
    the model frequency for sequences of `length` steps, depends only on that
    state's self-transition probability s.  In theta = log s the model is an
    exponential family (statistic m-1, base weight n-m-1), so the curve
    enters only through sum f and sum f (m-1), the runs and stays `_fit_stay`
    takes."""
    p11, p22 = (_fit_stay(name, *_curve_arrays(curve, length)[2:], length)
                for name, curve in (("on", on_curve), ("off", off_curve)))
    return RunFit(p11, p22, run_curve_objective(on_curve, off_curve, p11, p22, length))
