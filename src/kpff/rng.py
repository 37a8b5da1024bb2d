"""Counter-based SplitMix64 RNG: same seed gives the same stream everywhere.

Each consumer (init, dropout, shuffling, data generation) gets its own
stream derived from the base seed and a label, so adding one consumer
never shifts the draws of another.
"""

import math
import operator

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z):
    """SplitMix64's finalizer, in place on a uint64 array. Array arithmetic
    wraps modulo 2**64 without the warning scalar arithmetic gives."""
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def _count(size) -> int:
    """Values in a draw of the given size: None is one, an integer is
    itself, a tuple or list the product of its extents. TypeError for a
    non-integral size or extent, ValueError for a negative one."""
    if size is None:
        return 1
    extents = size if isinstance(size, (tuple, list)) else (size,)
    try:
        shape = [operator.index(e) for e in extents]
    except TypeError:
        raise TypeError(f"size must be an integer or a tuple of integers, got {size!r}") from None
    if min(shape, default=0) < 0:
        raise ValueError(f"size must not be negative, got {size!r}")
    return math.prod(shape)


def uniform_from_bits(bits, low=0.0, high=1.0):
    """Uniform floats in [low, high) with 53-bit resolution, one per raw
    stream value: the top 53 bits, scaled. low and high broadcast against
    bits, and bits is shifted in place."""
    bits >>= _S11
    out = bits.astype(np.float64)
    out *= 2.0**-53
    out *= high - low
    out += low
    return out


def normal_from_bits(bits1, bits2, n):
    """Standard normal values by Box-Muller on paired raw values, along the
    last axis: each row's cosine terms, then its sine terms, cut to n. bits1
    and bits2 hold (n + 1) // 2 values per row."""
    # shift into (0, 1] so log never sees 0
    u1 = ((bits1 >> _S11).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (bits2 >> _S11).astype(np.float64) * 2.0**-53
    rad = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([rad * np.cos(2 * np.pi * u2), rad * np.sin(2 * np.pi * u2)], axis=-1)
    return z[..., :n]


def derive_seed(seed: int, label: str) -> int:
    """Derive a stream seed from a base seed and a consumer label."""
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return int(_mix(np.array([(seed & 0xFFFFFFFFFFFFFFFF) ^ h], dtype=np.uint64))[0])


class Stream:
    """A single deterministic random stream with a monotone counter."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def raw(self, count: int) -> np.ndarray:
        """The next count values: SplitMix64 of seed + k * golden for the
        counters k, computed in place, wrapping modulo 2**64. A count that
        is not an integer raises TypeError, a negative one ValueError, and
        either leaves the counter where it was."""
        try:
            count = operator.index(count)
        except TypeError:
            raise TypeError(f"size must be an integer, got {count!r}") from None
        if count < 0:
            raise ValueError(f"size must not be negative, got {count!r}")
        z = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        z *= _GOLDEN
        z += self.seed
        return _mix(z)

    def uniform(self, size=None, low: float = 0.0, high: float = 1.0):
        """Uniform floats in [low, high) with 53-bit resolution."""
        out = uniform_from_bits(self.raw(_count(size)), low, high)
        if size is None:
            return float(out[0])
        return out.reshape(size)

    def normal(self, size=None, sigma: float = 1.0):
        """Gaussian via Box-Muller on paired uniforms."""
        n = _count(size)
        m = (n + 1) // 2
        out = sigma * normal_from_bits(self.raw(m), self.raw(m), n)  # u1's values first
        if size is None:
            return float(out[0])
        return out.reshape(size)

    def permutation(self, n: int, count=None) -> np.ndarray:
        """A permutation of range(n); with count, a [count, n] array whose
        rows are the permutations of count calls in turn. Each is the
        stable argsort of n 64-bit keys, so a row depends only on where its
        keys fall in the stream. A negative or non-integral n or count is
        rejected before the counter moves."""
        size = n if count is None else (count, n)
        return self.raw(_count(size)).reshape(size).argsort(kind="stable")


def stream(seed: int, label: str) -> Stream:
    return Stream(derive_seed(seed, label))
