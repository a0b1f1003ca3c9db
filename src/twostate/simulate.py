"""Seeded generation of Markovian binary sequences and study ensembles.

Generation is driven by numpy's PCG64 bit generator, one stream per seed.
Each step draws a uint32, half of a 64-bit output: step i reads output
i >> 1, its low half first, so a chain of n steps takes ceil(n / 2)
outputs.  A step's state is the comparison of its draw with an integer
threshold, round(x·2^32) for a transition probability x, so each
probability is realised to within 2^-33.

A chain is scanned at two sizes.  Its draws come from the stream `_SLICE`
at a time, a whole number of words of 64 steps, so each slice but the last
starts on a whole output; a slice's draws are compared and packed, then
released before the next slice is drawn.  Its states are resolved `_BLOCK`
steps at a time, a whole number of slices, each block from the state the
previous block ended in.  Consecutive draws equal one large draw, so the
result is the same as from a single scan, while working memory is one
slice's draws and one block's words plus the output.

One kernel, `_scanner`, scans every block.  A step either is forced to a
state by its draw or copies (or flips) the state before it, so the kernel
packs each slice's forced steps into words, 64 steps to a uint64, and
resolves every copy step of the block with integer arithmetic, not step by
step: within a word, the steps before a run's first forced 1 are those an
add's carry clears, and across words, a word's last forced step is a 1
exactly when its forced-1 word exceeds its forced-0 word as an unsigned
integer.  `generate` unpacks each slice's bits from its block's words into
its output; `ensemble` counts each member's A states in a block by
popcount.

An ensemble lays its members end to end on that one stream: member i is
the chain scanned from the draws after those of members 0..i-1.  Only each
member's count of A states is kept, so an ensemble never builds a state
array.  It scans the whole stream once, on the calling thread.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from .chain import MarkovParams, ParameterError, _check_count, _holds_counts, _is_integer

_SEED_MASK = (1 << 64) - 1

# draws per slice, and steps per block.  A numpy call costs about 1 µs
# whatever its size; a slice makes about 15 and a block about 30, so both
# are as large as memory allows.  A slice holds 5 bytes a draw, 4 for its
# uint32 draw and one for the comparisons that serve both forced-step masks
# in turn, and is the memory limit: `generate`'s working peak is about 0.42
# MiB, against 0.5 MiB in its memory test.  With the earlier one-size scan,
# one funnel cell's ensemble took 52.7, 44.1, 38.2 and 37.1 ms at slices of
# 2^15 to 2^18 draws; with this one, the 9 cells take 288-301 ms at 2^16 x
# 4, 319-337 ms at 2^15 x 8 and 300 ms at 2^16 x 8.  A slice is a whole
# number of 64-step words, so that it packs into its block's words from a
# word on, and so even: `_blocks` starts each slice on a fresh PCG64 output,
# two draws, and an odd slice would drop a half and shift every later
# step's draw.
_SLICE = 1 << 16
_BLOCK = 4 * _SLICE
# the bits of a uint64 word at odd positions; since a word holds an even
# number of steps, a step's parity in its block is its bit's
_ODD = np.uint64(0xAAAA_AAAA_AAAA_AAAA)
# the bits of a word below bit j, for j = 0..63
_BELOW = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)
_BELOW.flags.writeable = False
# the chain starts of a slice that holds only step 0's
_ORIGIN = np.zeros(1, dtype=np.intp)
_ORIGIN.flags.writeable = False


def _entropy(seed: int) -> int:
    # a seed past 64 bits would alias the seed its low bits give
    if not _is_integer(seed) or not -(1 << 63) <= seed <= _SEED_MASK:
        raise ParameterError(f"seed must be an integer in [-2^63, 2^64 - 1], got {seed!r}")
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
        p_bars = np.asarray(self.p_bars)
        if sizes.ndim != 1 or sizes.size < 1 or p_bars.shape != sizes.shape:
            raise ParameterError("sizes and p_bars must be equal-length non-empty 1-d arrays")
        if not _holds_counts(sizes, 1):
            raise ParameterError("every study size must be an integer in [1, 2^63 - 1]")
        # the dtype is checked before the cast, which would read "0.5" as 0.5 and True as 1;
        # min/max are nan when any p_bar is, and then the test fails
        if not (p_bars.dtype.kind in "iuf" and p_bars.min() >= 0.0 and p_bars.max() <= 1.0):
            raise ParameterError("every p_bar must lie in [0, 1]")
        _store(self, "sizes", sizes, np.int64)
        _store(self, "p_bars", p_bars, float)

    __eq__ = _value_eq

    def __len__(self) -> int:
        return self.sizes.size


def _scanner(params: MarkovParams, slice_size: int):
    """The block scan of a chain, as two functions, with one buffer for the
    comparisons of a slice of up to `slice_size` draws allocated once.

    `pack(u, starts)` compares the uint32 draws u of one slice, whose chain
    starts are at the slice positions `starts`, and returns its forced steps
    packed into words: `[A]` when every step is forced, else `[A, B]`.  A
    block's words are its slices' words end to end, so every slice of a
    block but its last is a whole number of words.  `resolve(m, carry, A,
    B=None)` scans a block of m steps from `carry`, and returns `(words,
    carry)`: the states of the block as bits, bit i of uint64 word k being
    step 64k + i and every bit past step m 0, and the carry of the block
    after it.  It may overwrite A and B, and its words may be A.

    With t(x) = round(x·2^32), the sequential rule is
        x[i] = u[i] < t(p1)                          at a chain start
        x[i] = u[i] < t(p if x[i-1] else 1 - q)      otherwise.
    A p below 2^-33 gives t = 0, which no draw is below, and one above 1 -
    2^-33 gives t = 2^32, which every draw is below.  A step is forced when
    its state does not depend on x[i-1]: a chain start, u < min(t(p),
    t(1-q)) (state 1) or u >= max(t(p), t(1-q)) (state 0).  When t(p) =
    t(1-q) every step is.  Otherwise an unforced step copies x[i-1] when
    t(p) > t(1-q) and flips it when t(p) < t(1-q), so the scan works on w,
    the state or, when the chain flips, the state XOR the step's parity in
    its block; every unforced step copies w from the step before.  `carry`
    is the w before the block, at its position -1.

    The forced 1s and forced 0s of w are packed into words A and B, and X =
    ~B holds the steps whose w may be 1.  Within a run of X, w is 1 from the
    run's first forced 1 on, and before it w is the w the run was entered
    at.  R0 = X & ~((X << 1) | cin) marks the first step of each run entered
    at w = 0, after a forced 0 or, at bit 0, after a word entered at cin = 0.
    A lies in X, so M = X ^ A is the copy steps, and adding R0 to M carries
    each of its bits along the copy steps that follow it up to the run's
    first forced step, clearing them: those are the copy steps of such a
    run before its first forced 1, which have w = 0.  Every other copy step
    has w = 1, so w = A | (X & (M + R0)), where X drops the bit each carry
    stops at when that is a forced 0.  No add loops over steps, and runs do
    not interact: a carry stops at a forced step, which is never the first
    bit of another run, and no bit depends on a higher one.

    cin of word k is the w after the last forced step in words 0..k-1, or
    `carry` when they hold none.  A and B share no bit, so the highest set
    bit of A | B, a word's last forced step, is in A exactly when A > B as
    unsigned integers.  Each word with a forced step gets the code 2(k + 1)
    + (A > B), every other word 0, and a running max over the words leaves
    each the code of the last such word so far, whose low bit is the w after
    it.  The carry, 0 or 1, lies below every code.  Steps past the block's
    end are forced 0s, so they change no earlier state and leave no bit set.
    """
    stay1, enter1, first1 = round(params.p * 2**32), round((1.0 - params.q) * 2**32), round(params.p1 * 2**32)
    lo, hi = min(stay1, enter1), max(stay1, enter1)
    flip = int(stay1 < enter1)
    # one slice's comparisons, padded to whole words, for A and then for B
    bits = np.empty(-(-slice_size // 64) * 64, dtype=bool)

    def pack(u, starts):
        m = u.size
        end = -(-m // 64) * 64
        np.less(u, lo, out=bits[:m])
        if end > m:
            bits[m:end] = False
        if starts.size:  # most slices hold no chain start
            bits[starts] = first = u[starts] < first1
        forced = [np.packbits(bits[:end], bitorder="little").view("<u8")]
        if lo != hi:
            np.greater_equal(u, hi, out=bits[:m])
            if end > m:
                bits[m:end] = True
            if starts.size:
                bits[starts] = ~first
            forced.append(np.packbits(bits[:end], bitorder="little").view("<u8"))
        return forced

    def resolve(m, carry, a, b=None):
        if b is None:
            # every step is forced, so the forced 1s are the states and no
            # word needs resolving
            return a, int(a[-1]) >> ((m - 1) & 63) & 1
        if flip:
            # at odd steps a forced state 1 is a forced w = 0, and back
            d = np.bitwise_xor(a, b)
            d &= _ODD
            a ^= d
            b ^= d
        # code[k + 1] is word k's, and code[0] the carry, which a word with
        # no forced step keeps through the running max
        code = np.arange(0, 2 * a.size + 2, 2, dtype=np.uint64)
        code[0] = carry
        own = code[1:]
        own *= np.logical_or(a, b)
        own += a > b
        np.maximum.accumulate(code, out=code)
        x = np.invert(b, out=b)
        r0 = x << 1
        r0 |= code[:-1] & 1
        np.invert(r0, out=r0)
        r0 &= x
        # w is 1 at the forced 1s and at the copy steps the add leaves set
        w = np.bitwise_xor(x, a)
        w += r0
        w &= x
        w |= a
        if flip:
            w ^= _ODD
        return w, (int(w[-1]) >> ((m - 1) & 63) & 1) ^ flip

    return pack, resolve


def _blocks(params: MarkovParams, seed: int, n: int, starts):
    """Scan the first n steps of the seed's stream and yield, for each block
    of _BLOCK steps, `(a, m, words)`: its first step, its size and its states
    as `_scanner` returns them.  Step i reads half i & 1 of PCG64 output i >>
    1, the low half first.  A block is drawn _SLICE steps at a time, an even
    number, so only the last slice can end mid-output, and no step reads that
    high half; a slice's draws are released before the next is drawn.
    `starts` yields, for each slice in turn, the positions in it where a
    chain starts; the first chain starts at step 0."""
    pack, resolve = _scanner(params, min(n, _SLICE))
    bitgen = np.random.PCG64(seed)
    carry = 0
    for a in range(0, n, _BLOCK):
        m = min(_BLOCK, n - a)
        parts = []
        for s in range(0, m, _SLICE):
            k = min(_SLICE, m - s)
            u = bitgen.random_raw((k + 1) // 2).astype("<u8", copy=False).view("<u4")[:k]
            parts.append(pack(u, next(starts)))
            del u
        # a one-slice block, as every short chain is, needs no copy
        forced = parts[0] if len(parts) == 1 else [np.concatenate(p) for p in zip(*parts)]
        words, carry = resolve(m, carry, *forced)
        del forced  # before the next block's draws
        yield a, m, words


def generate(params: MarkovParams, n: int, seed: int) -> BinarySequence:
    """Simulate a chain of n measurements; same inputs, same sequence.

    The chain starts at step 0 and is scanned by `_blocks`, and each slice's
    bits are unpacked from its block's words into its states.  Memory is the
    n-byte state array plus the scan's buffers for min(n, _BLOCK) steps and
    one slice of draws.
    """
    _check_count("sequence length", n)
    n = int(n)
    seed = _entropy(seed)
    states = np.empty(n, dtype=np.uint8)
    for a, m, words in _blocks(params, seed, n, itertools.chain((_ORIGIN,), itertools.repeat(_ORIGIN[:0]))):
        steps = words.view(np.uint8)
        for s in range(0, m, _SLICE):
            k = min(_SLICE, m - s)
            states[a + s : a + s + k] = np.unpackbits(steps[s >> 3 :], count=k, bitorder="little")
    states.flags.writeable = False
    return BinarySequence(states)


def ensemble(params: MarkovParams, sizes, seed: int) -> ScatterDataset:
    """One study per requested size: (n, observed frequency).

    The members are consecutive chains on the stream of `generate`: member i
    is scanned from the sizes[i] draws after those of members 0..i-1.  So it
    depends only on `seed` and sizes[:i+1], and a one-member ensemble gives
    `generate(params, n, seed).frequency`.  Each block is scanned by
    `_blocks`, as in `generate`, and a member's count of A states in a
    block is the difference of the A states before its bounds there: the
    popcounts of the whole words before a bound plus that of the bits
    before it in its own word.
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
    # the member starts in slice j are member_starts[edges[j]:edges[j + 1]]
    edges = member_starts.searchsorted(np.arange(0, total + _SLICE, _SLICE))
    slice_starts = (member_starts[i:j] - s for s, i, j in zip(range(0, total, _SLICE), edges, edges[1:]))
    # counts[i + 1] is member i's count; counts[0] takes the first block's
    # count before its first member start, which is 0
    counts = np.zeros(sizes.size + 1, dtype=np.int64)
    # below[k + 1] is the A states of a block's words 0..k; below[0] stays 0
    below = np.zeros(-(-min(_BLOCK, total) // 64) + 1, dtype=np.int64)
    for a, m, words in _blocks(params, seed, total, slice_starts):
        first, last = member_starts.searchsorted((a, a + m))
        starts = member_starts[first:last] - a
        ones = below[1 : words.size + 1]
        np.bitwise_count(words, out=ones)
        np.add.accumulate(ones, out=ones)
        # the first count, up to the block's first member start, is the
        # member carried in; a bound of m may fall in the word past the
        # last, where no bit lies below it
        bounds = np.concatenate(([0], starts, [m]))
        word = bounds >> 6
        before = below[word] + np.bitwise_count(words.take(word, mode="clip") & _BELOW[bounds & 63])
        counts[first : last + 1] += before[1:] - before[:-1]
    p_bars = counts[1:] / sizes
    sizes.flags.writeable = p_bars.flags.writeable = False
    return ScatterDataset(sizes, p_bars)
