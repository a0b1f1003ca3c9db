"""Run-length extraction and expected run counts.

A run is a maximal stretch of one state.  Persistence (p, q > 0.5) lengthens
runs, anti-persistence shortens them; the run-length histogram is where the
chain's memory is most directly visible.

A histogram is an int64 array of counts indexed by run length, built by one
`np.bincount` per state; normalized curves, which files and reports carry,
are dicts from m to frequency.

The memory-free reference is `expected_runs_markov` at (p, q) = (p_bar,
1-p_bar), and run frequencies divide its counts by their closed-form total
over m = 1..n-2, so no curve builds an array of length n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import MarkovParams, ParameterError, derive
from .simulate import BinarySequence, _value_eq

STATE_A = 1
STATE_B = 0


@dataclass(frozen=True)
class RunHistogram:
    """Counts of runs of one state: `counts[m-1]` is the number of runs of
    length m, held as a read-only 1-D int64 array.

    Boundary runs (first and last) are counted at their observed length;
    no censoring correction is applied.
    """

    state: int
    counts: np.ndarray
    total_length: int

    def __post_init__(self):
        if self.state not in (STATE_A, STATE_B):
            raise ParameterError(f"state must be 0 or 1, got {self.state!r}")
        if self.total_length < 1:
            raise ParameterError("total_length must be positive")
        counts = np.asarray(self.counts)
        # checked value by value before the cast, which would make 1.5 a count of 1
        if counts.ndim != 1 or not np.all(np.isfinite(counts) & (counts >= 0) & (counts == np.floor(counts))):
            raise ParameterError("histogram counts must be a 1-d array of non-negative integers")
        counts = np.array(counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    __eq__ = _value_eq

    @property
    def n_runs(self) -> int:
        return int(self.counts.sum())

    @property
    def occupied_length(self) -> int:
        """Total number of positions covered by this state's runs."""
        return int(self.counts @ np.arange(1, self.counts.size + 1))


def extract_runs(seq: BinarySequence) -> tuple[RunHistogram, RunHistogram]:
    """Histogram the maximal same-state stretches, state A first."""
    x = seq.states
    # runs alternate states, the first in the state of x[0]
    ends = np.concatenate(([-1], np.flatnonzero(x[1:] != x[:-1]), [x.size - 1]))
    lengths = np.diff(ends)
    first_a = int(x[0] != STATE_A)

    def hist(state, first):
        return RunHistogram(state, np.bincount(lengths[first::2])[1:], x.size)

    return hist(STATE_A, first_a), hist(STATE_B, 1 - first_a)


def _check_run_domain(n: int, m) -> None:
    m = np.asarray(m)
    if m.size and m.min() < 1:
        raise ParameterError(f"run length must be >= 1, got {m.min()!r}")
    if m.size and m.max() > n - 2:
        raise ParameterError(f"run length {m.max()} outside formula domain (needs m <= n-2 for n={n})")


def _state_factors(params: MarkovParams, state: int) -> tuple[float, float, float]:
    """(enter, stay, other) of a state: the probability of crossing into it,
    of staying in it, and the stationary frequency of the other state."""
    pinf = derive(params).pinf
    if state == STATE_A:
        return 1.0 - params.q, params.p, 1.0 - pinf
    if state == STATE_B:
        return 1.0 - params.p, params.q, pinf
    raise ParameterError(f"state must be 0 or 1, got {state!r}")


def expected_runs_markov(params: MarkovParams, n: int, m, state: int):
    """Expected number of runs of one state with length exactly m (an int or
    an array of ints).

    For state A: (n-m-1) * (1-pinf)(1-q) * p^(m-1) * (1-p) -- the stationary
    probability that a position opens an A-run of exactly m steps, times the
    number of interior positions.  State B swaps p with q and pinf with
    1-pinf.  A memory-free sequence with state-A frequency p_bar is the chain
    at (p, q) = (p_bar, 1-p_bar); there the sum over both states is the
    paper's (n-m-1) * [p_bar^2 (1-p_bar)^m + (1-p_bar)^2 p_bar^m].
    """
    _check_run_domain(n, m)
    enter, stay, other = _state_factors(params, state)
    return (n - m - 1) * other * enter * stay ** (m - 1) * (1.0 - stay)


def _expected_runs_total(params: MarkovParams, n: int, state: int) -> float:
    """Expected number of runs of one state over all lengths m = 1..n-2, in
    closed form: with K = n-2 and stay s, the sum of (n-m-1) s^(m-1) is
    K/(1-s) - s(1-s^K)/(1-s)^2, which loses about log10(2/(K(1-s))) digits
    to cancellation when K(1-s) < 1.  Callers first check m <= n-2."""
    enter, stay, other = _state_factors(params, state)
    k, x = n - 2, 1.0 - stay
    escape = -math.expm1(k * math.log1p(-x))  # 1 - s^K, accurate for s near 1
    return other * enter * x * (k / x - stay * escape / x**2)


def _mean_stays_per_run(n: int, stay: float) -> float:
    """Model mean of m-1 over run lengths m = 1..n-2, in closed form: with
    the normaliser Z(s) = sum over j < K of (K-j) s^j (K = n-2) written as in
    `_expected_runs_total`, s Z'(s)/Z(s) = 2s/(1-s) - (K+1) s (1-s^K) /
    (K(1-s) - s(1-s^K)).  It rises with s from 0 to (K-1)/3.  When K(1-s)
    < 1 the two terms cancel and about 2 log10(1/(K(1-s))) + 1 digits are
    lost, so below K(1-s) = 0.005, where fewer than 10 correct digits would
    remain, the K < 0.005/(1-s) terms are summed one by one instead."""
    k, x = n - 2, 1.0 - stay
    if k * x < 0.005:
        j = np.arange(k)
        weights = (k - j) * stay**j
        return float(weights @ j / weights.sum())
    escape = -math.expm1(k * math.log1p(-x))  # 1 - s^K, accurate for s near 1
    return 2.0 * stay / x - (k + 1) * stay * escape / (k * x - stay * escape)


def average_and_normalize(histograms) -> dict:
    """Average raw counts bin-wise across histograms of one state, then
    normalize so the frequencies sum to 1.

    Zero-count bins are retained up to the largest observed run length, so
    curves from different parameter sets share a common support.
    """
    histograms = list(histograms)
    if not histograms:
        raise ParameterError("need at least one histogram")
    state = histograms[0].state
    if any(h.state != state for h in histograms):
        raise ParameterError("histograms must all describe the same state")
    total = np.zeros(max(h.counts.size for h in histograms), dtype=np.int64)
    for h in histograms:
        total[: h.counts.size] += h.counts
    total = np.trim_zeros(total, "b")
    if not total.size:
        raise ParameterError("histograms contain no runs to normalize")
    avg = total / len(histograms)
    return dict(zip(range(1, total.size + 1), (avg / avg.sum()).tolist()))


def log_run_frequencies(params: MarkovParams, n: int, ms, state: int) -> np.ndarray:
    """Natural log of `expected_run_frequencies`; it forms no power of the stay
    probability, so it stays finite where the frequency underflows to 0."""
    ms = np.asarray(ms, dtype=np.int64)
    _check_run_domain(n, ms)
    enter, stay, other = _state_factors(params, state)
    scale = other * enter * (1.0 - stay) / _expected_runs_total(params, n, state)
    return np.log((n - ms - 1) * scale) + (ms - 1) * math.log(stay)


def expected_run_frequencies(params: MarkovParams, n: int, ms, state: int) -> np.ndarray:
    """Model run-length frequencies at the requested lengths, normalized
    over the full domain 1..n-2 (not just the requested bins)."""
    return np.exp(log_run_frequencies(params, n, ms, state))


def memoryfree_curve(n: int, p_bar: float, max_m: int) -> dict:
    """Normalized memory-free run-length curve over lengths 1..max_m: the
    Markov expectation at (p, q) = (p_bar, 1-p_bar), both states summed."""
    params = MarkovParams(p_bar, 1.0 - p_bar)
    ms = np.arange(1, max_m + 1)
    counts = expected_runs_markov(params, n, ms, STATE_A) + expected_runs_markov(params, n, ms, STATE_B)
    total = _expected_runs_total(params, n, STATE_A) + _expected_runs_total(params, n, STATE_B)
    return dict(zip(ms.tolist(), (counts / total).tolist()))
