"""Seeded generation of Markovian binary sequences and study ensembles.

Generation is driven by numpy's PCG64 generator, one stream per seed.  A
chain is scanned slice by slice: uniforms are drawn from the stream
`_SLICE` at a time, and each slice's scan starts from the state the
previous slice ended in.  Consecutive draws equal one large draw, so the
result is the same as from a single scan, while working memory is
O(_SLICE) plus the output.

Both scans rest on forced steps, whose state does not depend on the state
before them (see `_forced_steps`).  `generate` writes every state: it cuts
a slice into rows of _ROW steps and fills each row from its forced steps
with a running max over uint8 codes.  `ensemble` only counts A states, so
it sums them over the segments between forced steps.

An ensemble lays its members end to end on that one stream: member i is
the chain scanned from the uniforms after those of members 0..i-1.  Only
each member's count of A states is kept, so an ensemble never builds a
state array.  A long ensemble cuts the stream into up to one block per
usable CPU and scans the blocks at the same time, the first on the calling
thread and the others on threads of their own.  Every block starts at a
member start, where a chain starts afresh from p1, so no block needs the
state before it; each draws from a fresh generator on the seed, jumped
ahead to its first draw with `PCG64.advance` (O(log n) steps).  The values
are the same for any number of blocks.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from .chain import MarkovParams, ParameterError

_SEED_MASK = (1 << 64) - 1
_INT64_MAX = 2**63 - 1

# uniforms drawn and scanned per slice by `generate` and `ensemble`.
# `generate` holds 12 bytes per uniform in buffers it reuses, about 0.4 MB;
# `ensemble`'s temporaries take up to about 40 bytes per uniform, about
# 1.3 MB per slice.  This is a memory limit, not a speed one: 2^18 raised
# the funnel benchmark's peak RSS from 62.5 to 74 MB and was no faster.
_SLICE = 1 << 15
# steps per row of `generate`'s scan: its codes 2(j + 1) + w stay below 256,
# and since the row is even, a step's parity is its column's
_ROW = 64
# the parity of each position in a slice, 0101...
_PARITY = np.arange(_SLICE, dtype=np.uint8) & 1
# `ensemble` scans at most one block per usable CPU at a time, and cuts at
# most one block per _MIN_BLOCK_SLICES slices, so that starting its thread and
# jumping its generator ahead stay small beside its scan (~0.3 ms a slice)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_MIN_BLOCK_SLICES = 8


def _entropy(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    # negative seeds are folded into the unsigned 64-bit range
    return int(seed) & _SEED_MASK


def child_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for the `index`-th of several sequences."""
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
    None when it was read from external data.  `states` is read-only.  An
    array the caller can still write to is copied; a read-only array that
    owns its data is kept, not copied, so a long sequence is held once, and
    whoever sets its `writeable` flag again can still change it.
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
        # an array the caller may still write to, itself or through the array
        # it is a view of, is copied, not frozen
        states = states.astype(np.uint8, copy=states.flags.writeable or not states.flags.owndata)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    __eq__ = _value_eq

    def __len__(self) -> int:
        return self.states.size

    @property
    def frequency(self) -> float:
        """Observed proportion of state A."""
        return float(self.states.mean())


@dataclass(frozen=True)
class ScatterDataset:
    """Study points (n, p_bar): per study, its size and the observed
    proportion of state A, held as two equal-length read-only arrays
    (int64 sizes, float p_bars).  As in `BinarySequence`, a read-only array
    that owns its data is kept, not copied, and can still change if its
    holder makes it writeable again."""

    sizes: np.ndarray
    p_bars: np.ndarray

    def __post_init__(self):
        sizes = np.asarray(self.sizes)
        p_bars = np.asarray(self.p_bars, dtype=float)
        if sizes.ndim != 1 or sizes.size < 1 or p_bars.shape != sizes.shape:
            raise ParameterError("sizes and p_bars must be equal-length non-empty 1-d arrays")
        # checked value by value before the cast, which would make 10.7 a size of 10
        if not np.all((sizes >= 1) & (sizes < 2**63) & (sizes == np.floor(sizes))):
            raise ParameterError("every study size must be an integer in [1, 2^63 - 1]")
        # min/max are nan when any p_bar is, and then the test fails
        if not (p_bars.min() >= 0.0 and p_bars.max() <= 1.0):
            raise ParameterError("every p_bar must lie in [0, 1]")
        # an array the caller may still write to, itself or through the array
        # it is a view of, is copied, not frozen
        sizes = sizes.astype(np.int64, copy=sizes.flags.writeable or not sizes.flags.owndata)
        p_bars = p_bars.astype(float, copy=p_bars.flags.writeable or not p_bars.flags.owndata)
        sizes.flags.writeable = p_bars.flags.writeable = False
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "p_bars", p_bars)

    __eq__ = _value_eq

    def __len__(self) -> int:
        return self.sizes.size


def _forced_steps(params: MarkovParams, u: np.ndarray, starts: np.ndarray, carry: int):
    """Forced steps of one slice of a chain: (positions, values, gaps).

    The sequential rule is
        x[i] = u[i] < p1                          at a chain start
        x[i] = u[i] < (p if x[i-1] else 1 - q)    otherwise.
    A step is forced when its state does not depend on x[i-1]: a chain
    start, u < min(p, 1-q) (state 1) or u >= max(p, 1-q) (state 0).  Any
    other step copies x[i-1] when p > 1-q and flips it when p < 1-q, so the
    forced steps and the gaps between them give the whole slice.  `starts`
    are the slice positions where a chain starts; `carry`, the state before
    u[0], is a virtual forced step at position -1.  gaps[k] is the distance
    from positions[k] to the next forced step, or to the end of the slice.
    """
    lo, hi = sorted((params.p, 1.0 - params.q))
    # index 0 is the carried state, index i + 1 is u[i], and the last
    # index marks the end of the slice
    values = np.empty(u.size + 2, dtype=bool)
    forced = np.empty(u.size + 2, dtype=bool)
    np.less(u, lo, out=values[1:-1])
    np.greater_equal(u, hi, out=forced[1:-1])
    forced |= values
    values[0] = carry
    forced[0] = forced[-1] = True
    forced[starts + 1] = True
    values[starts + 1] = u[starts] < params.p1
    edges = np.flatnonzero(forced)
    gaps = np.diff(edges)
    positions = edges[:-1]
    values = values[positions]
    positions -= 1
    return positions, values, gaps


def generate(params: MarkovParams, n: int, seed: int) -> BinarySequence:
    """Simulate a chain of n measurements; same inputs, same sequence.

    The rule is the one of `_forced_steps`.  The scan works on w, the state
    or, when the chain flips, the state XOR the step's parity in its slice;
    every unforced step copies w from the step before.  Each slice is cut
    into rows of _ROW steps, and a forced step at column j gets the uint8
    code 2(j + 1) + w, every other step 0.  A running max along each row
    then leaves each step the code of its row's last forced step so far,
    whose low bit is its w.  Steps before a row's first forced step take
    the w carried into the row, 0 or 1, which lies below every code.

    Memory is the n-byte state array plus buffers for min(n, _SLICE) draws,
    allocated once per call.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"sequence length must be a positive integer, got {n!r}")
    n = int(n)
    lo, hi = sorted((params.p, 1.0 - params.q))
    flip = params.p < 1.0 - params.q
    rng = np.random.default_rng(_entropy(seed))
    states = np.empty(n, dtype=np.uint8)
    max_rows = -(-min(n, _SLICE) // _ROW)
    u = np.empty(max_rows * _ROW)
    codes = np.zeros(max_rows * _ROW, dtype=np.uint8)
    codes0 = np.empty(max_rows * _ROW, dtype=np.uint8)
    # the code of a forced 0 and of a forced 1 at each step of the rows
    code_of_0 = np.tile(2 * np.arange(1, _ROW + 1, dtype=np.uint8) + _PARITY[:_ROW] * flip, max_rows)
    code_of_1 = code_of_0 ^ 1
    rank = np.arange(1, max_rows + 1)
    carry = np.uint8(0)  # w before the slice, at its position -1
    for a in range(0, n, _SLICE):
        part = states[a : a + _SLICE]
        m, rows = part.size, -(-part.size // _ROW)
        rng.random(out=u[:m])
        code, code0 = codes[:m], codes0[:m]
        np.less(u[:m], lo, out=code)
        np.multiply(code, code_of_1[:m], out=code)
        np.greater_equal(u[:m], hi, out=code0)
        np.multiply(code0, code_of_0[:m], out=code0)
        code += code0
        if a == 0:  # the chain starts here
            code[0] = code_of_1[0] if u[0] < params.p1 else code_of_0[0]
        # codes past m, zero or left from an earlier slice, lie after the
        # slice's last step, so they change no state
        code = codes[: rows * _ROW].reshape(rows, _ROW)
        np.maximum.accumulate(code, axis=1, out=code)
        # w after each row is that of the last row so far with a forced
        # step, or else the carry; each row takes the w after the one before
        last = code[:, -1]
        after = np.concatenate(([carry], last & 1))[np.maximum.accumulate((last > 0) * rank[:rows])]
        np.maximum(code, np.concatenate(([carry], after[:-1]))[:, None], out=code)
        np.bitwise_and(codes[:m], 1, out=part)
        if flip:
            np.bitwise_xor(part, _PARITY[:m], out=part)
        carry = part[-1] ^ np.uint8(flip)
    states.flags.writeable = False
    return BinarySequence(states, params=params, seed=int(seed))


def _count_block(params: MarkovParams, member_starts: np.ndarray, a0: int, a1: int, seed: int,
                 counts: np.ndarray):
    """Scan draws a0..a1-1 of the seed's stream, adding each member's number
    of A states into `counts` (counts[i + 1] for member i).  a0 is a member
    start, a forced step, so the scan needs no state from before it."""
    p, q = params.p, params.q
    flip = p < 1.0 - q
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.bit_generator.advance(a0)
    carry = 0
    for a in range(a0, a1, _SLICE):
        u = rng.random(min(_SLICE, a1 - a))
        first, last = np.searchsorted(member_starts, (a, a + u.size))
        starts = member_starts[first:last] - a
        # the A states of each unit of the slice; unit 0 is the carried state
        if p == 1.0 - q:
            # every step is forced, so each step is a unit
            unit_ones = np.empty(u.size + 1, dtype=np.uint8)
            unit_ones[0] = carry
            np.less(u, p, out=unit_ones[1:])
            unit_ones[starts + 1] = u[starts] < params.p1
            bounds = starts + 1
            last_state = unit_ones[-1]
        else:
            # each segment from a forced step to the next is a unit: g steps
            # from state v hold v*g A states, or (g + v)//2 when they alternate
            positions, values, gaps = _forced_steps(params, u, starts, carry)
            unit_ones = (gaps + values) >> 1 if flip else values * gaps
            bounds = np.searchsorted(positions, starts)
            # the last segment's state, flipped once per step after its first
            last_state = values[-1] ^ (flip and bool((gaps[-1] - 1) & 1))
        sums = np.add.reduceat(unit_ones, np.concatenate(([0], bounds)), dtype=np.int64)
        # the carried state was counted in the slice before
        sums[0] -= carry
        counts[first : last + 1] += sums
        carry = int(last_state)


def ensemble(params: MarkovParams, sizes, seed: int) -> ScatterDataset:
    """One study per requested size: (n, observed frequency).

    The members are consecutive chains on the stream of `generate`: member i
    is scanned from the sizes[i] uniforms after those of members 0..i-1.
    So it depends only on `seed` and sizes[:i+1], and a one-member ensemble
    gives `generate(params, n, seed).frequency`.  Each member's count of A
    states is summed over its forced steps, one slice at a time.  The stream
    is cut at member starts into at most one block per usable CPU and per
    _MIN_BLOCK_SLICES slices, and the blocks are scanned at the same time,
    each from its own generator jumped ahead with `PCG64.advance`.  The
    values do not depend on the number of blocks.
    """
    sizes = list(sizes)
    if not sizes:
        raise ParameterError("ensemble requires at least one study size")
    for n in sizes:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= _INT64_MAX:
            raise ParameterError(f"study sizes must be integers in [1, 2^63 - 1], got {n!r}")
    total = sum(map(int, sizes))
    if total > _INT64_MAX:
        raise ParameterError(f"study sizes must sum to at most 2^63 - 1, got {total}")
    seed = _entropy(seed)
    sizes = np.array(sizes, dtype=np.int64)
    member_starts = np.cumsum(sizes) - sizes
    n_slices = -(-total // _SLICE)
    n_blocks = max(1, min(_CPUS, n_slices // _MIN_BLOCK_SLICES))
    # block b starts at the start of the member that holds draw b*total//n_blocks;
    # a few long members give fewer blocks
    targets = [b * total // n_blocks for b in range(n_blocks)]
    # a set, not np.unique: the first np.unique call imports numpy.ma (+1.7 MB RSS)
    cuts = sorted(set(member_starts[np.searchsorted(member_starts, targets, side="right") - 1].tolist()))
    cuts.append(total)
    n_blocks = len(cuts) - 1
    # one row per block: the blocks on either side of a cut both add into
    # the slot of the member that ends there (the later block adds 0)
    counts = np.zeros((n_blocks, sizes.size + 1), dtype=np.int64)
    errors = [None] * n_blocks

    def scan(b):
        try:
            _count_block(params, member_starts, cuts[b], cuts[b + 1], seed, counts[b])
        except BaseException as exc:  # raised again below, on the calling thread
            errors[b] = exc

    threads = [threading.Thread(target=scan, args=(b,)) for b in range(1, n_blocks)]
    for thread in threads:
        thread.start()
    scan(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    counts = counts.sum(axis=0)
    p_bars = counts[1:] / sizes
    sizes.flags.writeable = p_bars.flags.writeable = False
    return ScatterDataset(sizes, p_bars)
