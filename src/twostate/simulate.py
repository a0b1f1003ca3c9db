"""Seeded generation of Markovian binary sequences and study ensembles.

Generation is driven by numpy's PCG64 bit generator, one stream per seed.
Each step draws a uint32, half of a 64-bit output: step i reads output
i >> 1, its low half first, so a chain of n steps takes ceil(n / 2)
outputs.  A step's state is the comparison of its draw with an integer
threshold, round(x·2^32) for a transition probability x, so each
probability is realised to within 2^-33.  A chain is scanned slice by
slice: the draws come from the stream `_SLICE` at a time, an even number,
so each slice but the last starts on a whole output, and each slice's scan
starts from the state the previous slice ended in.  Consecutive draws equal
one large draw, so the result is the same as from a single scan, while
working memory is O(_SLICE) plus the output.

One kernel, `_scanner`, scans every slice: it takes the slice's draws and
returns the slice's states as bits, 64 steps to a uint64 word.  A step
either is forced to a state by its draw or copies (or flips) the state
before it, so the kernel packs the forced steps into words and resolves
every copy step with integer arithmetic, not step by step: within a word,
the steps before a run's first forced 1 are those an add's carry clears,
and across words, a word's last forced step is a 1 exactly when its
forced-1 word exceeds its forced-0 word as an unsigned integer.
`generate` unpacks each slice's words into its output; `ensemble` counts
each member's A states in them by popcount.

An ensemble lays its members end to end on that one stream: member i is
the chain scanned from the draws after those of members 0..i-1.  Only each
member's count of A states is kept, so an ensemble never builds a state
array.  It scans the whole stream once, on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .chain import MarkovParams, ParameterError, _check_count, _holds_counts, _is_integer

_SEED_MASK = (1 << 64) - 1

# draws scanned per slice by `_scanner`.  A scan holds about 6 bytes per
# step, about 0.2 MB: 4 for its uint32 draw and one for each of its two
# forced-step masks; while the next slice is drawn, the last one's draws
# are still held.  This is a memory limit, not a speed one: 2^18 raised
# the funnel benchmark's peak RSS from 62.5 to 74 MB and was no faster.
# It is even: `_draws` starts each slice on a fresh PCG64 output, two draws,
# so an odd slice would drop a half and shift every later step's draw.
_SLICE = 1 << 15
# the bits of a uint64 word at odd positions; since a word holds an even
# number of steps, a step's parity in its slice is its bit's
_ODD = np.uint64(0xAAAA_AAAA_AAAA_AAAA)
# the bits of a word below bit j, for j = 0..63
_BELOW = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)
_BELOW.flags.writeable = False


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


def _draws(seed: int, n: int):
    """The first n draws of the seed's stream, _SLICE at a time, as pairs of
    the slice's first step and its uint32 draws: step i reads half i & 1 of
    PCG64 output i >> 1, the low half first.  _SLICE is even, so only the
    last slice can end mid-output, and no step reads that high half."""
    bitgen = np.random.PCG64(seed)
    for a in range(0, n, _SLICE):
        m = min(_SLICE, n - a)
        yield a, bitgen.random_raw((m + 1) // 2).astype("<u8", copy=False).view("<u4")[:m]


def _scanner(params: MarkovParams, size: int):
    """The slice scan of a chain, with buffers for slices of up to `size`
    steps (at most _SLICE) allocated once: `fill(u, starts, carry)` scans
    the uint32 draws u of one slice and returns `(words, carry)`: the states
    of that slice as bits, bit i of uint64 word k being step 64k + i and
    every bit past the slice 0, and the carry of the slice after it.

    With t(x) = round(x·2^32), the sequential rule is
        x[i] = u[i] < t(p1)                          at a chain start
        x[i] = u[i] < t(p if x[i-1] else 1 - q)      otherwise,
    and `starts` are the slice positions where a chain starts.  A p below
    2^-33 gives t = 0, which no draw is below, and one above 1 - 2^-33 gives
    t = 2^32, which every draw is below.  A step is forced when its state
    does not depend on x[i-1]: a chain start, u < min(t(p), t(1-q)) (state
    1) or u >= max(t(p), t(1-q)) (state 0).  When t(p) = t(1-q) every step
    is.  Otherwise an unforced step copies x[i-1] when t(p) > t(1-q) and
    flips it when t(p) < t(1-q), so the scan works on w, the state or, when the
    chain flips, the state XOR the step's parity in its slice; every unforced
    step copies w from the step before.  `carry` is the w before the slice,
    at its position -1.

    The forced 1s and forced 0s of w are packed into words A and B, and X =
    ~B holds the steps whose w may be 1.  Within a run of X, w is 1 from the
    run's first forced 1 on, and before it w is the w the run was entered
    at.  R0 = X & ~((X << 1) | cin) marks the first step of each run entered
    at w = 0, after a forced 0 or, at bit 0, after a word entered at cin = 0.
    With M = X & ~A the copy steps, adding R0 to M carries each of its bits
    along the copy steps that follow it up to the run's first forced step,
    clearing them, so P = ((M + R0) ^ M) & M is the copy steps of such a run
    before its first forced 1; they and the forced 0s have w = 0, so w =
    X ^ P.  No add loops over steps, and runs do not interact: a carry stops
    at a forced step, which is never the first bit of another run.

    cin of word k is the w after the last forced step in words 0..k-1, or
    `carry` when they hold none.  A and B share no bit, so the highest set
    bit of A | B, a word's last forced step, is in A exactly when A > B as
    unsigned integers.  Each word with a forced step gets the code 2(k + 1)
    + (A > B), every other word 0, and a running max over the words leaves
    each the code of the last such word so far, whose low bit is the w after
    it.  The carry, 0 or 1, lies below every code.  Steps past the slice's
    end are forced 0s, so they change no earlier state and leave no bit set.
    """
    stay1, enter1, first1 = (round(x * 2**32) for x in (params.p, 1.0 - params.q, params.p1))
    lo, hi = sorted((stay1, enter1))
    flip = int(stay1 < enter1)
    max_words = -(-size // 64)
    # the forced-1 and forced-0 steps of a slice, padded to whole words
    forced1 = np.empty(max_words * 64, dtype=bool)
    forced0 = np.empty(max_words * 64, dtype=bool)
    # 2(k + 1) for word k, which ranks the words' codes
    rank = np.arange(2, 2 * max_words + 2, 2, dtype=np.uint64)

    def fill(u, starts, carry):
        m = u.size
        words = -(-m // 64)
        ones, zeros = forced1[: words * 64], forced0[: words * 64]
        np.less(u, lo, out=ones[:m])
        ones[m:] = False
        if starts.size:  # most slices hold no chain start
            ones[starts] = first = u[starts] < first1
        if lo == hi:
            # every step is forced, so the forced 1s are the states and no
            # word needs resolving
            return np.packbits(ones, bitorder="little").view("<u8"), int(ones[m - 1])
        np.greater_equal(u, hi, out=zeros[:m])
        zeros[m:] = True
        if starts.size:
            zeros[starts] = ~first
        a = np.packbits(ones, bitorder="little").view("<u8")
        b = np.packbits(zeros, bitorder="little").view("<u8")
        if flip:
            # at odd steps a forced state 1 is a forced w = 0, and back
            d = (a ^ b) & _ODD
            a ^= d
            b ^= d
        code = ((a | b) != 0) * rank[:words]
        code += a > b
        code[0] = max(code[0], carry)
        np.maximum.accumulate(code, out=code)
        x = np.invert(b, out=b)
        entered = x << 1
        entered[0] |= carry
        entered[1:] |= code[:-1] & 1
        r0 = x & ~entered
        copies = np.bitwise_and(x, ~a, out=a)
        w = x ^ (((copies + r0) ^ copies) & copies)
        if flip:
            w ^= _ODD
        return w, (int(w[-1]) >> ((m - 1) & 63) & 1) ^ flip

    return fill


def generate(params: MarkovParams, n: int, seed: int) -> BinarySequence:
    """Simulate a chain of n measurements; same inputs, same sequence.

    The chain starts at step 0 and is scanned by `_scanner` one slice of
    `_draws` at a time, and each slice's bits are unpacked into its states.
    Memory is the n-byte state array plus the scan's buffers for
    min(n, _SLICE) draws.
    """
    _check_count("sequence length", n)
    n = int(n)
    seed = _entropy(seed)
    states = np.empty(n, dtype=np.uint8)
    fill = _scanner(params, min(n, _SLICE))
    starts = np.zeros(1, dtype=np.intp)
    carry = 0
    for a, u in _draws(seed, n):
        words, carry = fill(u, starts if a == 0 else starts[:0], carry)
        states[a : a + u.size] = np.unpackbits(words.view(np.uint8), count=u.size, bitorder="little")
    states.flags.writeable = False
    return BinarySequence(states)


def ensemble(params: MarkovParams, sizes, seed: int) -> ScatterDataset:
    """One study per requested size: (n, observed frequency).

    The members are consecutive chains on the stream of `generate`: member i
    is scanned from the sizes[i] draws after those of members 0..i-1.  So it
    depends only on `seed` and sizes[:i+1], and a one-member ensemble gives
    `generate(params, n, seed).frequency`.  Each slice is scanned by
    `_scanner`, as in `generate`, and a member's count of A states in a
    slice is the difference of the A states before its bounds there: the
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
    # counts[i + 1] is member i's count; counts[0] takes the first slice's
    # count before its first member start, which is 0
    counts = np.zeros(sizes.size + 1, dtype=np.int64)
    size = min(_SLICE, total)
    fill = _scanner(params, size)
    # below[k + 1] is the A states of a slice's words 0..k; below[0] stays 0
    below = np.zeros(-(-size // 64) + 1, dtype=np.int64)
    carry = 0
    for a, u in _draws(seed, total):
        m = u.size
        first, last = np.searchsorted(member_starts, (a, a + m))
        starts = member_starts[first:last] - a
        words, carry = fill(u, starts, carry)
        ones = below[1 : words.size + 1]
        np.bitwise_count(words, out=ones)
        np.add.accumulate(ones, out=ones)
        # the first count, up to the slice's first member start, is the
        # member carried in; a bound of m may fall in the word past the
        # last, where no bit lies below it
        bounds = np.concatenate(([0], starts, [m]))
        word = bounds >> 6
        before = below[word] + np.bitwise_count(words.take(word, mode="clip") & _BELOW[bounds & 63])
        counts[first : last + 1] += before[1:] - before[:-1]
    p_bars = counts[1:] / sizes
    sizes.flags.writeable = p_bars.flags.writeable = False
    return ScatterDataset(sizes, p_bars)
