"""Funnel-plot confidence curves around the asymptotic frequency.

Across independent studies of sizes n the observed proportions scatter
about the asymptotic frequency with width z * sqrt(pinf(1-pinf)/n) * nu;
these curves bound the funnel and, inverted, give the study size at which
a given proportion would sit exactly on the boundary.  The normal
approximation behind the curves is asymptotic: below n of about 20 the
bands may over- or under-cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .chain import ParameterError
from .simulate import ScatterDataset

BOUNDARY_RTOL = 1e-12  # relative slack at the bound in `coverage`


class FunnelSingularityError(ValueError):
    """The inverse curve diverges: the proportion equals the center."""


def z_from_level(level: float) -> float:
    """Two-sided normal quantile for a coverage level in (0, 1)."""
    tail = 0.5 + level / 2.0
    # fails too for a level so near 0 or 1 that the tail rounds to 0.5 or 1,
    # whose quantile is 0 or infinite
    if not 0.5 < tail < 1.0:
        raise ParameterError(
            f"level must lie strictly inside (0, 1), more than about 1e-16 from either end, got {level!r}"
        )
    return NormalDist().inv_cdf(tail)


@dataclass(frozen=True)
class FunnelSpec:
    """Center, width factor and normal quantile of a funnel."""

    pinf: float
    nu: float
    z: float = 1.96

    def __post_init__(self):
        if not 0.0 < self.pinf < 1.0:
            raise ParameterError(f"pinf must lie strictly inside (0, 1), got {self.pinf!r}")
        # written so that nan fails too
        if not 0.0 < self.nu < math.inf:
            raise ParameterError(f"nu must be finite and positive, got {self.nu!r}")
        if not 0.0 < self.z < math.inf:
            raise ParameterError(f"z must be finite and positive, got {self.z!r}")

    def half_width(self, n) -> float:
        return self.z * np.sqrt(self.pinf * (1.0 - self.pinf) / np.asarray(n, dtype=float)) * self.nu


def confidence_bounds(spec: FunnelSpec, n: int) -> tuple[float, float]:
    """(lower, upper) confidence bounds on the proportion at study size n.

    Bounds are not clamped to [0, 1]; clamping is a display concern and
    must never enter coverage decisions.
    """
    if n < 1:
        raise ParameterError(f"study size must be >= 1, got {n!r}")
    half = float(spec.half_width(n))
    return spec.pinf - half, spec.pinf + half


def required_n(spec: FunnelSpec, p_bar: float) -> float:
    """Study size at which p_bar sits exactly on the funnel boundary:
    z^2 * pinf(1-pinf) * nu^2 / (p_bar - pinf)^2."""
    if p_bar == spec.pinf:
        raise FunnelSingularityError(
            "the boundary curve diverges at the funnel center; plot the two branches separately"
        )
    return spec.z**2 * spec.pinf * (1.0 - spec.pinf) * spec.nu**2 / (p_bar - spec.pinf) ** 2


def coverage(dataset: ScatterDataset, spec: FunnelSpec) -> float:
    """Fraction of study points inside the funnel (bounds inclusive).

    A point at most BOUNDARY_RTOL (relative) past the bound counts as on it:
    `estimate_nu` puts one point exactly there, and rounding must not decide.
    """
    half = spec.half_width(dataset.sizes)
    inside = np.abs(dataset.p_bars - spec.pinf) <= half * (1.0 + BOUNDARY_RTOL)
    return float(inside.mean())


def sample_curve(spec: FunnelSpec, n_min: float = 10.0, n_max: float = 1e5, points: int = 200):
    """(n, lower, upper) samples over a log-spaced grid of study sizes."""
    if not (1 <= n_min < n_max < math.inf) or points < 2:
        raise ParameterError("need finite 1 <= n_min < n_max and at least two points")
    ns = np.logspace(np.log10(n_min), np.log10(n_max), points)
    half = spec.half_width(ns)
    return ns, spec.pinf - half, spec.pinf + half
