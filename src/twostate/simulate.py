"""Seeded generation of Markovian binary sequences and study ensembles.

Generation is driven by numpy's PCG64 generator, one stream per seed.  A
chain is scanned slice by slice: uniforms are drawn from the stream
`_SLICE` at a time, and each slice's scan starts from the state the
previous slice ended in.  Consecutive draws equal one large draw, so the
result is the same as from a single scan, while working memory is
O(_SLICE) plus the output.

One kernel, `_scanner`, scans every slice: it draws the slice's uniforms
and writes its states into a uint8 array.  `generate` hands it the slices
of its output; `ensemble` hands it one buffer it reuses and sums each
member's states in it to count them.

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

from .chain import MarkovParams, ParameterError, _check_count, _holds_counts, _is_integer

_SEED_MASK = (1 << 64) - 1

# uniforms drawn and scanned per slice by `_scanner`.  A scan holds about
# 13 bytes per uniform, about 0.4 MB: 12 in the kernel's buffers, which it
# reuses, and the state byte it writes.  This is a memory limit, not a speed
# one: 2^18 raised the funnel benchmark's peak RSS from 62.5 to 74 MB and was
# no faster.
_SLICE = 1 << 15
# steps per row of the scan: its codes 2(j + 1) + w stay below 256,
# and since the row is even, a step's parity is its column's
_ROW = 64
# the parity of each position in a slice, 0101...
_PARITY = np.arange(_SLICE, dtype=np.uint8) & 1
# the scan's code of a forced 0 and of a forced 1 at each position of a
# slice, when the chain copies (row 0) and when it flips (row 1), and 256
# times the rank of each row of a slice, which exceeds every code; built
# once, read-only, and shared by every scan, on whichever thread
_CODE_OF_0 = np.tile(2 * np.arange(1, _ROW + 1, dtype=np.uint8), _SLICE // _ROW)
_CODE_OF_0 = np.stack((_CODE_OF_0, _CODE_OF_0 + _PARITY))
_CODE_OF_1 = _CODE_OF_0 ^ 1
_RANK = 256 * np.arange(1, _SLICE // _ROW + 1)
for _table in (_PARITY, _CODE_OF_0, _CODE_OF_1, _RANK):
    _table.flags.writeable = False
# `ensemble` scans at most one block per usable CPU at a time, and cuts at
# most one block per _MIN_BLOCK_SLICES slices, so that starting its thread and
# jumping its generator ahead stay small beside its scan (~0.3 ms a slice)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_MIN_BLOCK_SLICES = 8


def _entropy(seed: int) -> int:
    if not _is_integer(seed):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    # negative seeds are folded into the unsigned 64-bit range
    return int(seed) & _SEED_MASK


def child_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for the `index`-th of several sequences."""
    _check_count("index", index, minimum=0)
    ss = np.random.SeedSequence([_entropy(seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _store(record, name: str, values: np.ndarray, dtype) -> None:
    """Set the field `name` of `record` to `values` as a read-only `dtype` array.
    An array the caller may still write to, itself or through its base, is copied;
    a read-only array that owns its data is kept, so a long array is held once,
    and whoever sets its `writeable` flag again can still change it."""
    values = values.astype(dtype, copy=values.flags.writeable or not values.flags.owndata)
    values.flags.writeable = False
    object.__setattr__(record, name, values)


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

    `states` is a read-only uint8 array, stored by `_store`.
    """

    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states)
        if states.ndim != 1 or states.size < 1:
            raise ParameterError("sequence must be a non-empty 1-d array")
        # other dtypes are checked before the cast, which would make 0.7 or 256 a state
        binary = states.max() <= 1 if states.dtype == np.uint8 else np.isin(states, (0, 1)).all()
        if not binary:
            raise ParameterError("sequence elements must be 0 or 1")
        _store(self, "states", states, np.uint8)

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
    (int64 sizes, float p_bars) stored by `_store`."""

    sizes: np.ndarray
    p_bars: np.ndarray

    def __post_init__(self):
        sizes = np.asarray(self.sizes)
        p_bars = np.asarray(self.p_bars, dtype=float)
        if sizes.ndim != 1 or sizes.size < 1 or p_bars.shape != sizes.shape:
            raise ParameterError("sizes and p_bars must be equal-length non-empty 1-d arrays")
        if not _holds_counts(sizes, 1):
            raise ParameterError("every study size must be an integer in [1, 2^63 - 1]")
        # min/max are nan when any p_bar is, and then the test fails
        if not (p_bars.min() >= 0.0 and p_bars.max() <= 1.0):
            raise ParameterError("every p_bar must lie in [0, 1]")
        _store(self, "sizes", sizes, np.int64)
        _store(self, "p_bars", p_bars, float)

    __eq__ = _value_eq

    def __len__(self) -> int:
        return self.sizes.size


def _scanner(params: MarkovParams, size: int):
    """The slice scan of a chain, with buffers for slices of up to `size`
    steps (at most _SLICE) allocated once: `fill(rng, part, starts, carry)`
    draws part.size uniforms u from `rng`, writes the states of that slice
    into `part` and returns the carry of the slice after it.

    The sequential rule is
        x[i] = u[i] < p1                          at a chain start
        x[i] = u[i] < (p if x[i-1] else 1 - q)    otherwise,
    and `starts` are the slice positions where a chain starts.  A step is
    forced when its state does not depend on x[i-1]: a chain start,
    u < min(p, 1-q) (state 1) or u >= max(p, 1-q) (state 0).  When p = 1-q
    every step is.  Otherwise an unforced step copies x[i-1] when p > 1-q and
    flips it when p < 1-q, so the scan works on w, the state or, when the
    chain flips, the state XOR the step's parity in its slice; every unforced
    step copies w from the step before.  `carry` is the w before the slice,
    at its position -1.  Each slice is cut into rows of _ROW steps, and a
    forced step at column j gets the uint8 code 2(j + 1) + w, every other
    step 0.  A running max along each row then leaves each step the code of
    its row's last forced step so far, whose low bit is its w.  Steps before
    a row's first forced step take the w carried into the row, 0 or 1, which
    lies below every code.
    """
    p, p1 = params.p, params.p1
    lo, hi = sorted((p, 1.0 - params.q))
    flip = int(p < 1.0 - params.q)
    max_rows = -(-size // _ROW)
    u = np.empty(max_rows * _ROW)
    codes = np.zeros(max_rows * _ROW, dtype=np.uint8)
    codes0 = np.empty(max_rows * _ROW, dtype=np.uint8)
    code_of_0, code_of_1 = _CODE_OF_0[flip], _CODE_OF_1[flip]

    def fill(rng, part, starts, carry):
        m = part.size
        rng.random(out=u[:m])
        if lo == hi:
            # every step is forced, and the row scan would take 1.3-1.7x as long
            np.less(u[:m], p, out=part)
            if starts.size:
                part[starts] = u[starts] < p1
            return part[-1]
        code, code0 = codes[:m], codes0[:m]
        np.less(u[:m], lo, out=code)
        np.multiply(code, code_of_1[:m], out=code)
        np.greater_equal(u[:m], hi, out=code0)
        np.multiply(code0, code_of_0[:m], out=code0)
        code += code0
        if starts.size:  # most slices hold no chain start
            code[starts] = code_of_0[starts] ^ (u[starts] < p1)
        # the carry, 0 or 1, lies below every code, so it is the code of the
        # slice's first step unless that step is forced
        codes[0] = max(codes[0], carry)
        # codes past m, zero or left from an earlier slice, lie after the
        # slice's last step, so they change no state
        rows = -(-m // _ROW)
        code = codes[: rows * _ROW].reshape(rows, _ROW)
        np.maximum.accumulate(code, axis=1, out=code)
        # w after each row is the low bit of the last code above 0 that a
        # row so far ends on, else 0: a row ends above 0 when it holds a
        # forced step or, for the first row, a carry of 1.  256 times a
        # row's rank, added to such a code, orders them by row and keeps the
        # low bit.  Each row then takes the w after the one before it.
        last = code[:-1, -1]
        after = (last > 0) * _RANK[: rows - 1] + last
        np.maximum.accumulate(after, out=after)
        np.maximum(code[1:], (after & 1).astype(np.uint8)[:, None], out=code[1:])
        np.bitwise_and(codes[:m], 1, out=part)
        if flip:
            np.bitwise_xor(part, _PARITY[:m], out=part)
        return int(part[-1]) ^ flip

    return fill


def generate(params: MarkovParams, n: int, seed: int) -> BinarySequence:
    """Simulate a chain of n measurements; same inputs, same sequence.

    The chain starts at step 0 and is scanned by `_scanner` one slice at a
    time.  Memory is the n-byte state array plus the scan's buffers for
    min(n, _SLICE) draws, allocated once per call.
    """
    _check_count("sequence length", n)
    n = int(n)
    rng = np.random.default_rng(_entropy(seed))
    states = np.empty(n, dtype=np.uint8)
    fill = _scanner(params, min(n, _SLICE))
    starts = np.zeros(1, dtype=np.intp)
    carry = 0
    for a in range(0, n, _SLICE):
        carry = fill(rng, states[a : a + _SLICE], starts if a == 0 else starts[:0], carry)
    states.flags.writeable = False
    return BinarySequence(states)


def _count_block(params: MarkovParams, member_starts: np.ndarray, a0: int, a1: int, seed: int,
                 counts: np.ndarray):
    """Scan draws a0..a1-1 of the seed's stream, adding each member's number
    of A states into `counts` (counts[i + 1] for member i).  a0 is a member
    start, where a chain starts afresh, so the scan needs no state from
    before it."""
    size = min(_SLICE, a1 - a0)
    fill = _scanner(params, size)
    # a slice's states go to cells[1:]; cells[0] stays 0, so the first sum,
    # up to the slice's first member start, is only the member carried in
    cells = np.zeros(size + 1, dtype=np.uint8)
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.bit_generator.advance(a0)
    carry = 0
    for a in range(a0, a1, _SLICE):
        m = min(_SLICE, a1 - a)
        first, last = np.searchsorted(member_starts, (a, a + m))
        starts = member_starts[first:last] - a
        carry = fill(rng, cells[1 : m + 1], starts, carry)
        # a member's share of one slice holds at most _SLICE = 2^15 states,
        # so its sum fits a uint16, which is cheaper to add in than int64
        counts[first : last + 1] += np.add.reduceat(cells[: m + 1], np.concatenate(([0], starts + 1)),
                                                    dtype=np.uint16)


def ensemble(params: MarkovParams, sizes, seed: int) -> ScatterDataset:
    """One study per requested size: (n, observed frequency).

    The members are consecutive chains on the stream of `generate`: member i
    is scanned from the sizes[i] uniforms after those of members 0..i-1.
    So it depends only on `seed` and sizes[:i+1], and a one-member ensemble
    gives `generate(params, n, seed).frequency`.  Each slice is scanned by
    `_scanner`, as in `generate`, into one buffer per block, and each
    member's count of A states is the sum of its states there.  The stream
    is cut at member starts into at most one block per usable CPU and per
    _MIN_BLOCK_SLICES slices, and the blocks are scanned at the same time,
    each from its own generator jumped ahead with `PCG64.advance`.  The
    values do not depend on the number of blocks.
    """
    sizes = list(sizes)
    if not sizes:
        raise ParameterError("ensemble requires at least one study size")
    for n in sizes:
        _check_count("study size", n)
    total = sum(map(int, sizes))
    _check_count("the sum of the study sizes", total)
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
