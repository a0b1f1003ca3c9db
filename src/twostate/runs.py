"""Run-length extraction and expected run counts.

A run is a maximal stretch of one state.  Persistence (p, q > 0.5) lengthens
runs, anti-persistence shortens them; the run-length histogram is where the
chain's memory is most directly visible.

A histogram is an int64 array of counts indexed by run length, built by one
`np.bincount` per state; normalized curves, which files and reports carry,
are dicts from m to frequency.

The run-length model is written once, in (n, s): a state that stays with
probability s has run-length weights (n-m-1) s^(m-1) on m = 1..n-2, and its
run frequencies divide them by their closed-form total, so no curve builds
an array of length n.  The memory-free reference with state-A frequency
p_bar mixes the two states' curves, at s = p_bar and s = 1-p_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ParameterError, _check_count, _check_real, _holds_counts, _is_integer
from .simulate import BinarySequence, _store, _value_eq

STATE_A = 1
STATE_B = 0
# symbols compared per chunk by `extract_runs`; a chunk's run starts take
# at most 8 bytes a symbol (0.5 MiB), and one state's run lengths half that
_RUN_CHUNK = 1 << 16


@dataclass(frozen=True)
class RunHistogram:
    """Counts of runs of one state: `counts[m-1]` is the number of runs of
    length m, held as a read-only 1-D int64 array stored by `_store`.

    Boundary runs (first and last) are counted at their observed length;
    no censoring correction is applied.
    """

    state: int
    counts: np.ndarray
    total_length: int

    def __post_init__(self):
        if not _is_integer(self.state) or self.state not in (STATE_A, STATE_B):
            raise ParameterError(f"state must be 0 or 1, got {self.state!r}")
        _check_count("total_length", self.total_length)
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or not _holds_counts(counts, 0):
            raise ParameterError("histogram counts must be a 1-d array of integers in [0, 2^63 - 1]")
        _store(self, "counts", counts, np.int64)

    __eq__ = _value_eq

    @property
    def n_runs(self) -> int:
        return int(self.counts.sum())

    @property
    def occupied_length(self) -> int:
        """Total number of positions covered by this state's runs."""
        return int(self.counts @ np.arange(1, self.counts.size + 1))


def extract_runs(seq: BinarySequence) -> tuple[RunHistogram, RunHistogram]:
    """Histogram the maximal same-state stretches, state A first.

    With `starts` the positions i where x[i] != x[i - 1], led by 0 and
    followed by n, run j spans starts[j] to starts[j + 1], so its length is
    the difference of the two.  The run starts are found _RUN_CHUNK symbols
    at a time, carrying the start of the run in progress, so memory stays
    bounded however often the chain switches.  A chunk's first run is that
    run, whose state is read from the record at its start, and runs
    alternate states from it.
    """
    x = seq.states
    n = x.size
    # counts by run length of the runs of each state, indexed by the state
    counts = [None, None]
    # changed[k] is whether a chunk's symbol k starts a run; changed[0],
    # the chunk's first symbol, stands for the run in progress
    changed = np.ones(min(_RUN_CHUNK, n - 1) + 2, dtype=bool)
    last = 0
    # n = 1 has no pair to compare, but its one run is still counted
    for a in range(0, max(n - 1, 1), _RUN_CHUNK):
        b = min(a + _RUN_CHUNK, n - 1)
        np.not_equal(x[a + 1 : b + 1], x[a:b], out=changed[1 : b - a + 1])
        # at the record's end, n closes the last run
        changed[b - a + 1] = b == n - 1
        starts = np.nonzero(changed[: b - a + 2])[0]
        if a:
            starts += a
            starts[0] = last
        for t in (0, 1):
            # the chunk's runs t, t + 2, ...; at t = 0 they start with the run in progress
            state = int(x[last]) ^ t
            lengths = np.bincount(starts[t + 1 :: 2] - starts[t:-1:2])
            if a:  # add in the counts of the chunks before, into the longer array
                lengths, before = sorted((lengths, counts[state]), key=len, reverse=True)
                lengths[: before.size] += before
            counts[state] = lengths
        last = int(starts[-1])
    return RunHistogram(STATE_A, counts[STATE_A][1:], n), RunHistogram(STATE_B, counts[STATE_B][1:], n)


def _check_run_domain(n: int, m) -> np.ndarray:
    """`m` as int64, once checked against the run model's domain 1 <= m <= n-2
    and checked to hold integers, so that 1.5 or nan is rejected, not cast."""
    _check_count("n", n)
    m = np.asarray(m)
    if m.size and m.min() < 1:
        raise ParameterError(f"run length must be >= 1, got {m.min()!r}")
    if m.size and m.max() > n - 2:
        raise ParameterError(f"longest run {m.max()} outside formula domain (needs m <= n-2 for n={n})")
    if not _holds_counts(m, 1):
        raise ParameterError("every run length must be an integer")
    return np.asarray(m, dtype=np.int64)


def _run_weight_total(n: int, stay: float) -> float:
    """Sum of the run-length weights (n-m-1) s^(m-1) over m = 1..n-2, in
    closed form: with K = n-2, the sum over j < K of (K-j) s^j is
    K/(1-s) - s(1-s^K)/(1-s)^2, which loses about log10(2/(K(1-s))) digits
    to cancellation when K(1-s) < 1.  Callers first check m <= n-2."""
    k, x = n - 2, 1.0 - stay
    # 1 - s^K, accurate for s near 1; below s = 2^-54, 1 - s rounds to 1, whose log1p(-1) math refuses
    escape = -math.expm1(k * math.log1p(-x)) if x < 1.0 else 1.0
    return k / x - stay * escape / x**2


def _mean_stays_per_run(n: int, stay: float) -> float:
    """Model mean of m-1 over run lengths m = 1..n-2, in closed form: with
    the normaliser Z(s) = sum over j < K of (K-j) s^j (K = n-2), which is
    `_run_weight_total`, s Z'(s)/Z(s) = 2s/(1-s) - (K+1) s (1-s^K) /
    ((1-s)^2 Z(s)).  It rises with s from 0 to (K-1)/3.  When K(1-s)
    < 1 the two terms cancel and about 2 log10(1/(K(1-s))) + 1 digits are
    lost, so below K(1-s) = 0.005, where fewer than 10 correct digits would
    remain, the K < 0.005/(1-s) terms are summed one by one instead."""
    k, x = n - 2, 1.0 - stay
    if k * x < 0.005:
        j = np.arange(k)
        weights = (k - j) * stay**j
        return float(weights @ j / weights.sum())
    escape = -math.expm1(k * math.log1p(-x))  # 1 - s^K, accurate for s near 1
    return 2.0 * stay / x - (k + 1) * stay * escape / (x * x * _run_weight_total(n, stay))


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
        raise ParameterError(f"the state-{'A' if state == STATE_A else 'B'} histograms contain no runs to normalize")
    avg = total / len(histograms)
    return dict(zip(range(1, total.size + 1), (avg / avg.sum()).tolist()))


def log_run_frequencies(n: int, ms, stay: float) -> np.ndarray:
    """Natural log of the model run-length frequencies, at the requested
    lengths, of a state that stays with probability `stay`: the weights
    (n-m-1) stay^(m-1) over their total on the full domain 1..n-2 (the
    chances of entering and of leaving the state scale every count alike and
    cancel).  It forms no power of `stay`, so it stays finite where the
    frequency underflows to 0."""
    stay = _check_real("stay", stay, 0, 1)
    ms = _check_run_domain(n, ms)
    return np.log((n - ms - 1) / _run_weight_total(n, stay)) + (ms - 1) * math.log(stay)


def memoryfree_curve(n: int, p_bar: float, max_m: int) -> dict:
    """Normalized memory-free run-length curve over lengths 1..max_m, both
    states together: the paper's counts (n-m-1) [p_bar^2 (1-p_bar)^m +
    (1-p_bar)^2 p_bar^m] over their total on m = 1..n-2.  Divided by
    p_bar (1-p_bar), state A's count is 1-p_bar times its run-length weight
    at s = p_bar and state B's is p_bar times its weight at s = 1-p_bar, so
    the total mixes the two states' `_run_weight_total`s alike."""
    p_bar = _check_real("p_bar", p_bar, 0, 1)
    a = 1.0 - p_bar
    _check_real("1 - p_bar", a, 0, 1)
    _check_count("max_m", max_m)
    _check_run_domain(n, max_m)  # before the lengths 1..max_m are built
    ms = np.arange(1, max_m + 1)
    total = a * _run_weight_total(n, p_bar) + p_bar * _run_weight_total(n, a)
    freqs = (n - ms - 1) * (a * p_bar ** (ms - 1) + p_bar * a ** (ms - 1)) / total
    return dict(zip(ms.tolist(), freqs.tolist()))
