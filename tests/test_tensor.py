import numpy as np
import pytest

from kpff.net import DenseLayer
from kpff.rng import Stream
from kpff.tensor import NonFiniteError, ShapeError, Tensor, from_array


def test_zeros_rejects_bad_extents():
    t = from_array(np.zeros((2, 1, 3, 1)))
    assert t.shape == (2, 1, 3, 1) and t.data.tolist() == [0.0] * 6
    for shape in ((0,), (2, 0)):
        with pytest.raises(ShapeError):
            from_array(np.zeros(shape))


def test_rank_bounds():
    for shape in ((), (2, 2, 2, 2, 2)):
        with pytest.raises(ShapeError):
            from_array(np.zeros(shape))


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
    assert t.data.size == 6 and t.data.reshape(t.shape).shape == (2, 3)


def test_tensor_is_frozen():
    t = from_array([0.0, 0.0])
    with pytest.raises(AttributeError):
        t.shape = (1, 2)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        from_array([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        from_array([np.inf])


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
