"""Seeded generation of Markovian binary sequences and study ensembles.

Generation is driven by numpy's PCG64 generator.  Each ensemble member gets
its own sub-stream keyed by (master seed, member index), so members are
independent and each member's result does not depend on the others.

A chain is generated slice by slice: uniforms are drawn from the one
stream `_SLICE` at a time and each slice's scan starts from the state the
previous slice ended in.  Consecutive draws equal one large draw, so the
sequence is the same as from a single scan, while working memory is the
n-byte state array plus O(_SLICE).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .chain import MarkovParams, ParameterError

_SEED_MASK = (1 << 64) - 1

# uniforms drawn and scanned per slice by `generate`; the scan's temporaries
# take about 40 bytes per uniform, so a slice costs about 10 MB
_SLICE = 1 << 18


def _entropy(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    # negative seeds are folded into the unsigned 64-bit range
    return int(seed) & _SEED_MASK


def child_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for ensemble member `index`."""
    ss = np.random.SeedSequence([_entropy(seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _value_eq(self, other):
    """`==` for a dataclass holding arrays, comparing them as values: the
    generated field-tuple comparison would ask an array for one truth value."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True)
class BinarySequence:
    """A finite record of binary state measurements (A=1, B=0).

    `params` and `seed` are provenance: set when the sequence was simulated,
    None when it was read from external data.
    """

    states: np.ndarray
    params: MarkovParams | None = None
    seed: int | None = None

    def __post_init__(self):
        states = np.asarray(self.states)
        if states.ndim != 1 or states.size < 1:
            raise ParameterError("sequence must be a non-empty 1-d array")
        # other dtypes are checked before the cast, which would make 0.7 or 256 a state
        binary = states.max() <= 1 if states.dtype == np.uint8 else np.isin(states, (0, 1)).all()
        if not binary:
            raise ParameterError("sequence elements must be 0 or 1")
        states = states.astype(np.uint8, copy=False)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    __eq__ = _value_eq

    def __len__(self) -> int:
        return self.states.size

    @property
    def frequency(self) -> float:
        """Observed proportion of state A."""
        return float(self.states.mean())

    def spins(self) -> np.ndarray:
        """Spin representation 2x - 1 with values in {-1, +1}."""
        return self.states.astype(np.int8) * 2 - 1


@dataclass(frozen=True)
class ScatterDataset:
    """Study points (n, p_bar): size and observed proportion per study."""

    sizes: np.ndarray
    p_bars: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        sizes = np.asarray(self.sizes, dtype=np.int64)
        p_bars = np.asarray(self.p_bars, dtype=float)
        if sizes.ndim != 1 or sizes.size < 1 or p_bars.shape != sizes.shape:
            raise ParameterError("sizes and p_bars must be equal-length non-empty 1-d arrays")
        if sizes.min() < 1:
            raise ParameterError("every study size must be >= 1")
        if p_bars.min() < 0.0 or p_bars.max() > 1.0:
            raise ParameterError("every p_bar must lie in [0, 1]")
        labels = tuple(self.labels) if self.labels else (None,) * sizes.size
        if len(labels) != sizes.size:
            raise ParameterError("labels must match the number of points")
        sizes.flags.writeable = False
        p_bars.flags.writeable = False
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "p_bars", p_bars)
        object.__setattr__(self, "labels", labels)

    __eq__ = _value_eq

    def __len__(self) -> int:
        return self.sizes.size

    @property
    def points(self) -> list:
        return list(zip(self.sizes.tolist(), self.p_bars.tolist(), self.labels))

    @classmethod
    def from_points(cls, points) -> "ScatterDataset":
        points = list(points)
        if not points:
            raise ParameterError("dataset must contain at least one point")
        sizes = [pt[0] for pt in points]
        p_bars = [pt[1] for pt in points]
        labels = tuple(pt[2] if len(pt) > 2 else None for pt in points)
        return cls(np.array(sizes), np.array(p_bars), labels)


def _markov_states(params: MarkovParams, u: np.ndarray, prev: int | None = None) -> np.ndarray:
    """Turn n uniforms into n chain states (vectorized scan).

    Equivalent to the sequential rule
        x[0] = u[0] < p1
        x[i] = u[i] < p      if x[i-1] == 1
        x[i] = u[i] < 1 - q  otherwise
    With `prev`, the state carried from the step before u[0], the first
    step follows the same rule as the others (x[-1] = prev) instead of p1.
    Each step is one of {set 1, set 0, copy, flip} depending only on u[i]:
    below min(p, 1-q) both branches yield 1, at or above max(p, 1-q) both
    yield 0, and in between the outcome copies the previous state when
    p > 1-q and flips it when p < 1-q.  Runs of copy/flip between the
    forced steps collapse into a carried value plus a flip parity.
    """
    p, q = params.p, params.q
    if prev is None:
        first = bool(u[0] < params.p1)
    else:
        first = bool(u[0] < (p if prev else 1.0 - q))
    steps = u[1:]
    n = u.size
    states = np.empty(n, dtype=np.uint8)
    states[0] = first
    if n == 1:
        return states

    lo = min(p, 1.0 - q)
    hi = max(p, 1.0 - q)
    set1 = steps < lo
    forced = set1 | (steps >= hi)
    idx = np.arange(steps.size)
    last = np.maximum.accumulate(np.where(forced, idx, -1))
    base = np.where(last >= 0, set1[np.maximum(last, 0)], first)
    if p >= 1.0 - q:
        states[1:] = base
    else:
        states[1:] = base ^ ((idx - last) & 1).astype(bool)
    return states


def generate(params: MarkovParams, n: int, seed: int) -> BinarySequence:
    """Simulate a chain of n measurements; same inputs, same sequence.

    Memory is the n-byte state array plus O(_SLICE): uniforms are drawn
    and scanned one slice at a time, each slice carrying on from the last
    state of the one before.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"sequence length must be a positive integer, got {n!r}")
    n = int(n)
    rng = np.random.default_rng(_entropy(seed))
    states = np.empty(n, dtype=np.uint8)
    prev = None
    for start in range(0, n, _SLICE):
        part = states[start : start + _SLICE]
        part[:] = _markov_states(params, rng.random(part.size), prev)
        prev = part[-1]
    return BinarySequence(states, params=params, seed=int(seed))


def _member_frequency(params: MarkovParams, n: int, seed: int, index: int) -> float:
    rng = np.random.default_rng(child_seed(seed, index))
    return float(_markov_states(params, rng.random(int(n))).mean())


def ensemble(params: MarkovParams, sizes, seed: int) -> ScatterDataset:
    """One independent study per requested size: (n, observed frequency).

    Member i always uses the sub-stream child_seed(seed, i), so the first k
    members are the same whatever sizes follow them.
    """
    sizes = list(sizes)
    if not sizes:
        raise ParameterError("ensemble requires at least one study size")
    for n in sizes:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ParameterError(f"study sizes must be positive integers, got {n!r}")
    freqs = [_member_frequency(params, n, seed, i) for i, n in enumerate(sizes)]
    return ScatterDataset(np.array(sizes), np.array(freqs))


def empirical_autocorrelation(seq: BinarySequence, m: int) -> float:
    """Lag-m product average of the spin variable, (1/(N-m)) sum s_i s_(i+m)."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ParameterError(f"lag must be a positive integer, got {m!r}")
    n = len(seq)
    if m >= n:
        raise ParameterError(f"lag {m} must be smaller than the sequence length {n}")
    s = seq.spins().astype(np.float64)
    return float(s[: n - m] @ s[m:]) / (n - m)
