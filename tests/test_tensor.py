import numpy as np
import pytest

from kpff.net import DenseLayer
from kpff.rng import Stream
from kpff.tensor import NonFiniteError, ShapeError, from_array


def test_zeros_rejects_bad_extents():
    src = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 1, 3, 1))
    t = from_array(src)
    assert t.shape == (2, 1, 3, 1) and t.dtype == np.float64 and t.ravel().tolist() == [0, 1, 2, 3, 4, 5]
    assert not t.flags.writeable and t.flags.c_contiguous and not np.shares_memory(t, src)
    for shape in ((0,), (2, 0)):
        with pytest.raises(ShapeError, match="extents must be >= 1"):
            from_array(np.zeros(shape))


def test_rank_bounds():
    for shape in ((), (2, 2, 2, 2, 2)):
        with pytest.raises(ShapeError, match="rank 1..4"):
            from_array(np.zeros(shape))
    with pytest.raises(ShapeError, match="x must have rank 1, got shape"):
        from_array(np.zeros((1, 2)), "x", rank=1)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        from_array([1.0, np.nan])
    with pytest.raises(NonFiniteError, match="upstream contains NaN or Inf"):
        from_array([np.inf], "upstream")


# The matrix-vector product the program runs is DenseLayer.forward_batch
# (identity activation, one row of the batch per vector).

def test_matvec_examples():
    v = np.array([[4.0, -1.0, 2.5]])
    assert DenseLayer(np.eye(3), np.zeros(3)).forward_batch(v).tolist() == v.tolist()
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert DenseLayer(m, np.zeros(2)).forward_batch(np.ones((1, 2))).tolist() == [[3, 7]]
    with pytest.raises(ShapeError):
        DenseLayer(np.array([[1.0, 2.0]]), np.zeros(1)).forward_batch(np.ones((1, 3)))


def test_matvec_matches_triple_loop_oracle():
    s = Stream(11)
    m = s.uniform(size=(5, 7), low=-5, high=5)
    bias = s.uniform(size=(5,), low=-1, high=1)
    x = s.uniform(size=(3, 7), low=-5, high=5)
    expected = [[bias[i] + sum(m[i][j] * row[j] for j in range(7)) for i in range(5)]
                for row in x]
    assert np.allclose(DenseLayer(m, bias).forward_batch(x), expected, rtol=1e-12)
