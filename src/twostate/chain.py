"""Closed-form statistics of a first-order two-state Markov chain.

State A is coded 1 and state B is coded 0.  The chain is driven by the two
self-transition probabilities p = P(A -> A) and q = P(B -> B); the cross
transitions follow as P(B -> A) = 1 - q and P(A -> B) = 1 - p.  Everything
in this module is exact algebra in these two numbers (plus the initial
probability p1 of starting in A); no simulation is involved.

Every module checks its scalar arguments with the rules here, and a scalar
outside its rule raises `ParameterError`: `_check_real`, for a real number in
an interval such as (0, 1) or [1, inf); `_is_integer`, for an int or numpy
integer that is not a bool; `_check_count`, for one such integer in
[minimum, _INT64_MAX], as counts are held as int64; and `_holds_counts`, for an
array of counts.  A record argument (a `MarkovParams`, `FunnelSpec`,
`ScatterDataset`, `BinarySequence` or run-curve dict) of another type may raise
`TypeError` instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_INT64_MAX = 2**63 - 1
# the types of a real number: int, float, and numpy's integer and floating scalar types
_REAL_TYPES = frozenset({int, float, *(t for t in np.sctypeDict.values() if issubclass(t, (np.integer, np.floating)))})


class ParameterError(ValueError):
    """An argument lies outside its valid domain."""


def _is_integer(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _all_real(values) -> bool:
    """Whether each of `values` is a real number: of a type in `_REAL_TYPES`,
    so not a bool, str, None, array or complex, and, if an int, one whose
    magnitude float64 holds.  Checked per type, as a run curve holds one or
    two."""
    types = set(map(type, values))
    return types <= _REAL_TYPES and (int not in types or max(map(abs, values)) <= sys.float_info.max)


def _check_real(name: str, value, low: float, high: float, ends: str = "()") -> float:
    """`value` as a float, once it is a real number, as `_all_real` reads one, between `low`
    and `high`, each end inside when its bracket in `ends` is square; nan lies in none."""
    x = float(value) if _all_real((value,)) else math.nan
    if not ((low <= x if ends[0] == "[" else low < x) and (x <= high if ends[1] == "]" else x < high)):
        raise ParameterError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")
    return x


def _check_count(name: str, n, minimum: int = 1) -> None:
    if not _is_integer(n) or not minimum <= n <= _INT64_MAX:
        raise ParameterError(f"{name} must be an integer in [{minimum}, 2^63 - 1], got {n!r}")


def _holds_counts(values: np.ndarray, minimum: int) -> bool:
    """Whether every element of `values` is an integer in [minimum, 2^63 - 1]: floats are checked
    value by value, so 1.5 and nan fail, and uint64 is read as int64, where 2^63 and up is negative."""
    if values.dtype == np.uint64:
        values = values.view(np.int64)
    if values.dtype.kind == "f":
        return np.all((values >= minimum) & (values < np.float64(2**63)) & (values == np.floor(values)))
    return values.dtype.kind in "biu" and (not values.size or values.min() >= minimum)


def _stationary_frequency(p: float, q: float) -> float:
    """Long-run frequency of state A, (1-q) / (2-(p+q))."""
    return (1.0 - q) / (2.0 - (p + q))


@dataclass(frozen=True)
class MarkovParams:
    """Defining parameters of the chain.

    p and q must lie strictly inside (0, 1); the endpoint chains (frozen or
    strictly alternating) are excluded.  p1 is the probability that the
    first measurement yields state A; when omitted it defaults to the
    stationary frequency, so simulated statistics are transient-free.  All
    three are held as floats, so a numpy float32 computes as float64.
    """

    p: float
    q: float
    p1: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _check_real("p", self.p, 0, 1))
        object.__setattr__(self, "q", _check_real("q", self.q, 0, 1))
        if self.p1 is None:
            object.__setattr__(self, "p1", _stationary_frequency(self.p, self.q))
        else:
            object.__setattr__(self, "p1", _check_real("p1", self.p1, 0, 1, "[]"))


@dataclass(frozen=True)
class DerivedParams:
    """Summary quantities derived from (p, q).

    a      memory eigenvalue p + q - 1, in (-1, 1); geometric decay rate of
           correlations and of the influence of the initial state.
    pinf   asymptotic frequency of state A.
    nu     factor multiplying the memory-free standard deviation of the
           observed proportion; nu > 1 iff p + q > 1 (clustering), nu < 1
           iff p + q < 1 (dispersion).
    nu_sq  nu squared, (p+q) / (2-(p+q)) = (1+a) / (1-a).
    """

    a: float
    pinf: float
    nu: float
    nu_sq: float


def derive(params: MarkovParams) -> DerivedParams:
    """Compute the derived summary of a parameter set (exact algebra)."""
    p, q = params.p, params.q
    a = p + q - 1.0
    pinf = _stationary_frequency(p, q)
    nu_sq = (p + q) / (2.0 - (p + q))
    return DerivedParams(a=a, pinf=pinf, nu=math.sqrt(nu_sq), nu_sq=nu_sq)


def transition_matrix(params: MarkovParams) -> np.ndarray:
    """Column-stochastic one-step matrix; column j is the current state.

    Row/column order is (A, B), so M[0, 0] = p and M[0, 1] = 1 - q, and a
    probability column vector evolves as v' = M v.
    """
    p, q = params.p, params.q
    return np.array([[p, 1.0 - q], [1.0 - p, q]], dtype=float)


def state_probability(params: MarkovParams, n: int) -> float:
    """Probability that the n-th measurement (n >= 1) yields state A.

    Closed form of the recursion x_n = a * x_(n-1) + (1 - q):
    a^(n-1) * (p1 - pinf) + pinf.
    """
    _check_count("n", n)
    d = derive(params)
    return d.a ** (n - 1) * (params.p1 - d.pinf) + d.pinf


def mean_frequency(params: MarkovParams, n: int) -> float:
    """Expected proportion of A among the first n measurements.

    pinf + (p1 - pinf)/n * (1 - a^n)/(1 - a); tends to pinf as n grows.
    """
    _check_count("n", n)
    d = derive(params)
    return d.pinf + (params.p1 - d.pinf) / n * (1.0 - d.a**n) / (1.0 - d.a)


def n_step_self_transitions(params: MarkovParams, n: int) -> tuple[float, float]:
    """(P(A after n steps | start A), P(A after n steps | start B)).

    a^n * (1 - pinf) + pinf and pinf * (1 - a^n); the pair matches the
    first row of the n-th power of the transition matrix, with the
    initial conditions (1, 0) at n = 0 and both components tending to
    pinf.
    """
    _check_count("n", n, minimum=0)
    d = derive(params)
    an = d.a**n
    return an * (1.0 - d.pinf) + d.pinf, d.pinf * (1.0 - an)


def std_of_proportion(params: MarkovParams, n: int) -> float:
    """Asymptotic standard deviation of the observed proportion of A.

    Factorizes as sigma0 * nu with sigma0 = sqrt(pinf*(1-pinf)/n), the
    memory-free value.
    """
    _check_count("n", n)
    d = derive(params)
    return math.sqrt(d.pinf * (1.0 - d.pinf) / n) * d.nu
