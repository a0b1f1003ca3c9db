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

from .chain import _INT64_MAX, ParameterError, _check_count, _check_real
from .simulate import ScatterDataset


def z_from_level(level: float) -> float:
    """Two-sided normal quantile for a coverage level in (0, 1)."""
    level = _check_real("level", level, 0, 1)
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
    """Center, width factor and normal quantile of a funnel, held as floats,
    so that (z nu)^2 of a numpy float16 and an int is formed in float64."""

    pinf: float
    nu: float
    z: float = 1.96

    def __post_init__(self):
        object.__setattr__(self, "pinf", _check_real("pinf", self.pinf, 0, 1))
        object.__setattr__(self, "nu", _check_real("nu", self.nu, 0, math.inf))
        object.__setattr__(self, "z", _check_real("z", self.z, 0, math.inf))
        # bounds `half_width` at every n >= 1 and the numerator of `required_n`, and keeps both above 0
        if not 0.0 < (self.z * self.nu) * (self.z * self.nu) < math.inf:
            raise ParameterError(
                f"z * nu must be below about 1.3e154 and above about 2.2e-162, so that its square is finite "
                f"and positive, got z={self.z!r}, nu={self.nu!r}"
            )

    def half_width(self, n) -> float:
        return self.z * np.sqrt(self.pinf * (1.0 - self.pinf) / np.asarray(n, dtype=float)) * self.nu


def required_n(spec: FunnelSpec, p_bar: float) -> float:
    """Study size at which the proportion p_bar sits exactly on the funnel
    boundary: z^2 * pinf(1-pinf) * nu^2 / (p_bar - pinf)^2, formed as the
    square of the half width at n = 1 over p_bar - pinf, so that no factor
    overflows or underflows alone.  A p_bar outside [0, 1], which no study
    shows, has no size, nor has one so near the center that its size passes
    float64's range."""
    p_bar = _check_real("p_bar", p_bar, 0, 1, "[]")
    if p_bar == spec.pinf:
        raise ParameterError(
            "the boundary curve diverges at the funnel center; plot the two branches separately"
        )
    root = spec.z * spec.nu * math.sqrt(spec.pinf * (1.0 - spec.pinf)) / (p_bar - spec.pinf)
    if root * root == math.inf:
        raise ParameterError(f"p_bar = {p_bar!r} is so near the funnel center that its size passes float64's range")
    return root * root


def coverage(dataset: ScatterDataset, spec: FunnelSpec) -> float:
    """Fraction of study points inside the funnel, bounds inclusive."""
    half = spec.half_width(dataset.sizes)
    inside = np.abs(dataset.p_bars - spec.pinf) <= half
    return float(inside.mean())


def sample_curve(spec: FunnelSpec, n_min: float = 10.0, n_max: float = 1e5, points: int = 200):
    """(n, lower, upper) samples over a log-spaced grid of study sizes."""
    n_min = _check_real("n_min", n_min, 1, math.inf, "[)")
    n_max = _check_real("n_max", n_max, 1, math.inf, "[)")
    if not n_min < n_max:
        raise ParameterError(f"n_min must be below n_max, got {n_min!r} and {n_max!r}")
    _check_count("points", points, minimum=2)
    # numpy sizes the grid from float(points), and past 2^63 - 1 bytes it
    # raises ValueError or IndexError where a smaller grid raises MemoryError
    if 8.0 * points > _INT64_MAX:
        raise MemoryError(f"cannot allocate {points} float64 curve samples: they pass 2^63 - 1 bytes")
    ns = np.logspace(np.log10(n_min), np.log10(n_max), points)
    half = spec.half_width(ns)
    return ns, spec.pinf - half, spec.pinf + half
