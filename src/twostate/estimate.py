"""Inverse problems: recover chain parameters from scatter data and runs.

The scatter route estimates the funnel center as a size-weighted mean and
the width factor as an empirical quantile of standardized deviations, then
inverts the (pinf, nu) pair algebraically to (p, q).  The run route fits
the two self-transition probabilities to normalized run-length curves by a
coarse-then-refined grid search in log-frequency space, with a geometric
maximum-likelihood shortcut per state, pooled over that state's histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chain import MarkovParams, ParameterError, derive
from .funnel import FunnelSpec, coverage, z_from_level
from .runs import STATE_A, STATE_B, RunHistogram, expected_run_frequencies
from .simulate import ScatterDataset


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
    MLE = "mle"
    SIMULATED_LEAST_SQUARES = "simulated-least-squares"


@dataclass(frozen=True)
class RunFit:
    """Estimated self-transition probabilities from run-length curves."""

    p11_hat: float
    p22_hat: float
    objective: float
    method: RunFitMethod


@dataclass(frozen=True)
class RunFitConfig:
    """Grid-search settings for the run-curve fit.

    `length` is the sequence length assumed when building model curves;
    `floor` drops bins whose observed or model frequency falls below it.
    """

    grid_step: float = 0.05
    refine_step: float = 0.01
    floor: float = 1e-4
    length: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.refine_step <= self.grid_step < 0.5:
            raise ParameterError("need 0 < refine_step <= grid_step < 0.5")
        if self.floor <= 0.0 or self.length < 4:
            raise ParameterError("floor must be positive and length at least 4")


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
    if ms.size == 0 or ms.min() < 1:
        raise ParameterError("run curve must map positive lengths to frequencies")
    return ms, freqs


def run_curve_objective(
    on_curve: dict, off_curve: dict, p11: float, p22: float, config: RunFitConfig = RunFitConfig()
) -> float:
    """Sum of squared log10-frequency differences between observed and
    model curves, over bins where both exceed the floor, both states."""
    params = MarkovParams(p11, p22)
    total = 0.0
    for curve, state in ((on_curve, STATE_A), (off_curve, STATE_B)):
        ms, observed = _curve_arrays(curve)
        model = expected_run_frequencies(params, config.length, ms, state)
        mask = (observed >= config.floor) & (model >= config.floor)
        if mask.any():
            total += float(np.sum((np.log10(observed[mask]) - np.log10(model[mask])) ** 2))
    return total


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    ticks = np.arange(math.ceil(lo / step - 1e-9), math.floor(hi / step + 1e-9) + 1)
    return ticks * step


def _best_cell(cells) -> tuple[float, float, float]:
    """Lowest objective wins; exact ties break toward (0.5, 0.5), then
    lexicographically, so the result is independent of evaluation order."""
    best = min(cells, key=lambda c: (c[0], (c[1] - 0.5) ** 2 + (c[2] - 0.5) ** 2, c[1], c[2]))
    return best


def fit_runs_simulated(on_curve: dict, off_curve: dict, config: RunFitConfig = RunFitConfig()) -> RunFit:
    """Grid search for (p11, p22) against normalized run-length curves.

    Coarse pass at `grid_step` over (0, 1)^2, then a refinement at
    `refine_step` within one coarse cell of the winner.
    """
    for name, curve in (("on", on_curve), ("off", off_curve)):
        _, freqs = _curve_arrays(curve)
        if np.count_nonzero(freqs >= config.floor) < 2:
            raise InfeasibleParametersError(
                f"degenerate {name} curve: fewer than two bins above the floor"
            )

    def search(p_values, q_values):
        cells = [
            (run_curve_objective(on_curve, off_curve, p, q, config), p, q)
            for p in p_values
            for q in q_values
        ]
        return _best_cell(cells)

    coarse = _grid(config.grid_step, 1.0 - config.grid_step, config.grid_step)
    _, p0, q0 = search(coarse, coarse)
    margin = config.grid_step
    fine_p = _grid(max(config.refine_step, p0 - margin), min(1.0 - config.refine_step, p0 + margin), config.refine_step)
    fine_q = _grid(max(config.refine_step, q0 - margin), min(1.0 - config.refine_step, q0 + margin), config.refine_step)
    objective, p_hat, q_hat = search(fine_p, fine_q)
    return RunFit(
        p11_hat=float(p_hat),
        p22_hat=float(q_hat),
        objective=float(objective),
        method=RunFitMethod.SIMULATED_LEAST_SQUARES,
    )


def fit_runs_mle_pair(
    on_histogram: RunHistogram, off_histogram: RunHistogram, config: RunFitConfig = RunFitConfig()
) -> RunFit:
    """Per-state geometric MLE packaged like the grid fit, with the same
    log-frequency objective evaluated at the estimates for comparability."""
    from .runs import average_and_normalize

    p11 = fit_runs_mle(on_histogram)
    p22 = fit_runs_mle(off_histogram)
    if not (0.0 < p11 < 1.0 and 0.0 < p22 < 1.0):
        raise InfeasibleParametersError(
            f"boundary-degenerate MLE (p11={p11}, p22={p22}); run lengths carry no continuation signal"
        )
    objective = run_curve_objective(
        average_and_normalize([on_histogram]),
        average_and_normalize([off_histogram]),
        p11,
        p22,
        config,
    )
    return RunFit(p11_hat=p11, p22_hat=p22, objective=objective, method=RunFitMethod.MLE)
