import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpff.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    elementwise_add,
    from_array,
    matvec,
    scale,
    zeros,
)
from kpff.rng import Stream


def test_zeros_examples():
    assert zeros([3]).tolist() == [0, 0, 0]
    assert zeros([2, 2]).tolist() == [[0, 0], [0, 0]]
    assert int(np.prod(zeros([2, 3, 4]).shape)) == 24


def test_zeros_rejects_bad_extents():
    with pytest.raises(ShapeError):
        zeros([0])
    with pytest.raises(ShapeError):
        zeros([2, -1])


def test_rank_bounds():
    with pytest.raises(ShapeError):
        zeros([2, 2, 2, 2, 2])


@pytest.mark.parametrize("shape,size", [
    ((), 1), ((1, 1, 1, 1, 1), 1),  # rank 0 and 5
    ((0,), 0), ((2, 0), 0), ((-1,), 1), ((3, -1), 3),  # extents below 1
    ((3,), 4), ((2, 2), 3),  # size mismatch
])
def test_constructor_rejects_bad_shapes(shape, size):
    with pytest.raises(ShapeError):
        Tensor(shape, np.zeros(size))


def test_constructor_accepts_numpy_int_extents():
    t = Tensor((np.int64(2), np.int64(3)), np.zeros(6))
    assert t.rank == 2 and t.size == 6 and t.view().shape == (2, 3)


def test_tensor_is_frozen():
    t = zeros([2])
    with pytest.raises(AttributeError):
        t.shape = (1, 2)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        from_array([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        from_array([np.inf])


def test_add_examples():
    assert elementwise_add(from_array([1, 2]), from_array([3, 4])).tolist() == [4, 6]
    x = from_array([1.5, -2.0, 7.0])
    assert elementwise_add(x, zeros([3])).tolist() == x.tolist()
    with pytest.raises(ShapeError):
        elementwise_add(from_array([1, 2]), from_array([1, 2, 3]))


def test_add_matches_scalar_loop_oracle():
    s = Stream(7)
    for _ in range(100):
        n = int(s.uniform(low=1, high=9))
        a = s.uniform(size=(n,), low=-10, high=10)
        b = s.uniform(size=(n,), low=-10, high=10)
        expected = [a[k] + b[k] for k in range(n)]  # independent scalar loop
        got = elementwise_add(from_array(a), from_array(b)).tolist()
        assert got == expected


def test_scale_examples():
    assert scale(from_array([1, 2]), 0).tolist() == [0, 0]
    x = from_array([[1.25, -3.0], [0.5, 9.0]])
    assert scale(x, 1).tolist() == x.tolist()
    back = scale(scale(x, 2.0), 0.5)
    assert np.allclose(back.data, x.data, atol=1e-15)
    with pytest.raises(NonFiniteError):
        scale(x, np.inf)


def test_matvec_examples():
    eye = from_array(np.eye(3))
    v = from_array([4.0, -1.0, 2.5])
    assert matvec(eye, v).tolist() == v.tolist()
    assert matvec(from_array([[1, 2], [3, 4]]), from_array([1, 1])).tolist() == [3, 7]
    with pytest.raises(ShapeError):
        matvec(from_array([[1, 2]]), from_array([1, 2, 3]))


def test_matvec_matches_triple_loop_oracle():
    s = Stream(11)
    m = s.uniform(size=(5, 7), low=-5, high=5)
    v = s.uniform(size=(7,), low=-5, high=5)
    expected = [sum(m[i][j] * v[j] for j in range(7)) for i in range(5)]
    got = matvec(from_array(m), from_array(v)).data
    assert np.allclose(got, expected, rtol=1e-12)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vec = st.lists(finite, min_size=1, max_size=12)


@given(vec, st.data())
def test_add_commutative_bitwise(a_vals, data):
    b_vals = data.draw(st.lists(finite, min_size=len(a_vals), max_size=len(a_vals)))
    a, b = from_array(a_vals), from_array(b_vals)
    assert elementwise_add(a, b).tolist() == elementwise_add(b, a).tolist()


@given(vec, st.data(), st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=60)
def test_scale_distributes_over_add(a_vals, data, factor):
    b_vals = data.draw(st.lists(finite, min_size=len(a_vals), max_size=len(a_vals)))
    a, b = from_array(a_vals), from_array(b_vals)
    lhs = scale(elementwise_add(a, b), factor).data
    rhs = elementwise_add(scale(a, factor), scale(b, factor)).data
    # Each side is within gamma_2 = 2u/(1-2u) of factor*(a+b), relative to
    # |factor|*(|a|+|b|), not to the result, which cancellation can make
    # arbitrarily small (a=997969.9999999999, b=-997931.0, factor=17.0).
    # The sides then differ by at most 2*gamma_2 < 2.5 eps of that.
    # A multiply that underflows errs by up to half a subnormal spacing
    # instead: three on the two sides, two more computing the bound.
    eps = np.finfo(np.float64).eps
    bound = abs(factor) * (np.abs(a.data) + np.abs(b.data)) * (2.5 * eps)
    bound += 4 * np.finfo(np.float64).smallest_subnormal
    assert np.all(np.abs(lhs - rhs) <= bound)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**32), st.floats(min_value=-10, max_value=10))
@settings(max_examples=60)
def test_matvec_linear_in_v(rows, cols, seed, alpha):
    s = Stream(seed)
    m = from_array(s.uniform(size=(rows, cols), low=-3, high=3))
    v = from_array(s.uniform(size=(cols,), low=-3, high=3))
    w = from_array(s.uniform(size=(cols,), low=-3, high=3))
    lhs = matvec(m, elementwise_add(scale(v, alpha), w)).data
    rhs = scale(matvec(m, v), alpha).data + matvec(m, w).data
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-10)
