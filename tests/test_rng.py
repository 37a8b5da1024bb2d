import math
import warnings

import numpy as np
import pytest

from kpff.rng import Stream, derive_seed, stream


def test_same_seed_same_stream():
    a, b = Stream(123), Stream(123)
    assert np.array_equal(a.raw(10), b.raw(10))
    assert np.array_equal(Stream(123).uniform(size=(5,)), Stream(123).uniform(size=(5,)))


def test_counter_advances():
    s = Stream(5)
    first = s.raw(4)
    second = s.raw(4)
    assert not np.array_equal(first, second)
    # a fresh stream reads the same 8 values in one go
    assert np.array_equal(Stream(5).raw(8), np.concatenate([first, second]))


def test_derived_streams_independent():
    assert derive_seed(0, "init/a") != derive_seed(0, "init/b")
    assert derive_seed(0, "x") != derive_seed(1, "x")
    a = stream(7, "dropout").uniform(size=(100,))
    b = stream(7, "shuffle").uniform(size=(100,))
    assert not np.array_equal(a, b)


def test_uniform_range_and_mean():
    u = Stream(9).uniform(size=(50_000,), low=-2.0, high=3.0)
    assert u.min() >= -2.0 and u.max() < 3.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normal_moments():
    z = Stream(11).normal(size=(100_000,), sigma=2.0)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 2.0) < 0.02


def test_permutation_is_permutation():
    s = Stream(13)
    for n in (1, 2, 7, 100):
        p = s.permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def test_splitmix64_known_answers():
    # the first outputs of SplitMix64 (Steele, Lea and Flood 2014) seeded
    # with 0, as printed by its reference C implementation
    assert [int(v) for v in Stream(0).raw(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]


# --- the draws as first written, kept as references ----------------------------------


class ReferenceStream:
    """Stream's formulas before raw and uniform worked in place: _mix on a
    fresh array inside np.errstate, and out-of-place scaling (reference)."""

    GOLDEN = np.uint64(0x9E3779B97F4A7C15)
    MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    MIX2 = np.uint64(0x94D049BB133111EB)

    def __init__(self, seed, counter=0):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = counter

    @classmethod
    def _mix(cls, z):
        z = np.uint64(z)
        with np.errstate(over="ignore"):
            z ^= z >> np.uint64(30)
            z *= cls.MIX1
            z ^= z >> np.uint64(27)
            z *= cls.MIX2
            z ^= z >> np.uint64(31)
        return z

    def raw(self, count):
        ks = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        with np.errstate(over="ignore"):
            return self._mix(self.seed + ks * self.GOLDEN)

    def uniform(self, size=None, low=0.0, high=1.0):
        n = 1 if size is None else int(math.prod(np.atleast_1d(size)))
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        out = low + (high - low) * u
        return float(out[0]) if size is None else out.reshape(size)

    def normal(self, size=None, sigma=1.0):
        n = 1 if size is None else int(math.prod(np.atleast_1d(size)))
        m = (n + 1) // 2
        u1 = ((self.raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (self.raw(m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        rad = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([rad * np.cos(2 * np.pi * u2), rad * np.sin(2 * np.pi * u2)])[:n]
        out = sigma * z
        return float(out[0]) if size is None else out.reshape(size)

    def permutation(self, n):
        return np.argsort(self.raw(n), kind="stable")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SEEDS = (0, 17, 2**64 - 1)  # the largest seed wraps on the first addition
COUNTERS = (0, 1, 1200, 2**40 + 3)
SIZES = (1, 7, 1200, 76800)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("counter", COUNTERS)
@pytest.mark.parametrize("size", SIZES)
def test_draws_match_the_reference_formulas(seed, counter, size):
    draws = (
        ("raw", (size,), {}),
        ("uniform", (), {"size": size}),
        ("uniform", (), {"size": (size, 1), "low": -0.25, "high": 3.0}),
        ("normal", (), {"size": size, "sigma": 0.5}),
        ("permutation", (size,), {}),
    )
    for name, args, kwargs in draws:
        got, want = Stream(seed), ReferenceStream(seed, counter)
        got.counter = counter
        assert _same_bits(getattr(got, name)(*args, **kwargs),
                          getattr(want, name)(*args, **kwargs)), name
        assert got.counter == want.counter, name


@pytest.mark.parametrize("counter", COUNTERS)
def test_scalar_draws_match_the_reference_formulas(counter):
    for name, kwargs in (("uniform", {"low": -2.0, "high": 5.0}), ("normal", {"sigma": 3.0})):
        got, want = Stream(29), ReferenceStream(29, counter)
        got.counter = counter
        a, b = getattr(got, name)(**kwargs), getattr(want, name)(**kwargs)
        assert type(a) is float and a == b, name


@pytest.mark.parametrize("a,b", [(1, 1), (7, 1200), (1200, 7), (0, 5), (600, 76800)])
def test_raw_draws_split_anywhere(a, b):
    s = Stream(31)
    first, second = s.raw(a), s.raw(b)
    assert np.array_equal(np.concatenate([first, second]), Stream(31).raw(a + b))


def test_draws_raise_no_floating_point_error_or_warning():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for seed in SEEDS:
            s = stream(seed, "dropout/fold0")
            s.raw(1200)
            s.uniform(size=(50, 12))
            s.uniform(low=-1.0, high=1.0)
            s.normal(size=(7,))
            s.permutation(80)


# --- a negative size is rejected before the counter moves ----------------------------


@pytest.mark.parametrize("draw", [
    lambda s: s.uniform(size=-1),
    lambda s: s.uniform(size=(2, -3)),
    lambda s: s.uniform(size=(-2, -3)),  # a positive count from negative extents
    lambda s: s.normal(size=np.int64(-4)),
    lambda s: s.permutation(-2),
    lambda s: s.raw(-1),
], ids=["uniform-int", "uniform-extent", "uniform-two-extents", "normal-np-int",
        "permutation", "raw"])
def test_negative_sizes_are_rejected_and_leave_the_counter(draw):
    s = Stream(71)
    s.uniform(size=3)
    with pytest.raises(ValueError, match="size must not be negative, got"):
        draw(s)
    assert s.counter == 3
    # the next draw continues the stream: the values a fresh stream gives after 3
    fresh = Stream(71)
    fresh.raw(3)
    assert _same_bits(s.uniform(size=(4,)), fresh.uniform(size=(4,)))


# --- a non-integral size is rejected before the counter moves -----------------------


@pytest.mark.parametrize("draw", [
    lambda s: s.raw(2.5),
    lambda s: s.raw(np.float64(2.0)),
    lambda s: s.uniform(size=2.5),
    lambda s: s.uniform(size=(2.5,)),
    lambda s: s.uniform(size=(2, 1.5)),  # the first extent alone would pass
    lambda s: s.normal(size=(2.5,)),
    lambda s: s.normal(size=np.float64(3.0)),
    lambda s: s.permutation(2.5),
], ids=["raw", "raw-np-float", "uniform-float", "uniform-extent", "uniform-second-extent",
        "normal-extent", "normal-np-float", "permutation"])
def test_non_integral_sizes_are_rejected_and_leave_the_counter(draw):
    s = Stream(79)
    s.uniform(size=3)
    with pytest.raises(TypeError, match="size must be an integer"):
        draw(s)
    assert s.counter == 3
    fresh = Stream(79)
    fresh.raw(3)
    assert _same_bits(s.uniform(size=(4,)), fresh.uniform(size=(4,)))


def test_numpy_integer_sizes_draw_like_ints():
    a, b = Stream(83), Stream(83)
    assert _same_bits(a.raw(np.int64(3)), b.raw(3))
    assert _same_bits(a.uniform(size=np.int64(4)), b.uniform(size=4))
    assert _same_bits(a.uniform(size=(np.int64(2), np.int32(3))), b.uniform(size=(2, 3)))
    assert _same_bits(a.normal(size=np.int64(5)), b.normal(size=5))
    assert np.array_equal(a.permutation(np.int64(6)), b.permutation(6))
    assert a.counter == b.counter == 3 + 4 + 6 + 6 + 6
    assert type(a.counter) is int


def test_size_zero_draws_are_empty():
    s = Stream(73)
    assert s.uniform(size=0).shape == (0,)
    assert s.uniform(size=(2, 0)).shape == (2, 0)
    assert s.permutation(0).shape == (0,)
    assert s.raw(0).shape == (0,)
    assert s.counter == 0
