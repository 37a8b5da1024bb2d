"""Dense float64 tensors (rank 1-4, row-major) and the arithmetic shared
by every other module.

No broadcasting, no views: shape mismatches raise, non-finite results
raise. Tensors are immutable after construction and safe to share.
"""

import math
from dataclasses import dataclass

import numpy as np


class TensorError(ValueError):
    pass


class ShapeError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


@dataclass(frozen=True, slots=True)
class Tensor:
    shape: tuple
    data: np.ndarray  # flat, contiguous, row-major, read-only

    def __post_init__(self):
        if not 1 <= len(self.shape) <= 4:
            raise ShapeError(f"rank must be 1..4, got shape {self.shape}")
        if min(self.shape) < 1:
            raise ShapeError(f"extents must be >= 1, got shape {self.shape}")
        if math.prod(self.shape) != self.data.size:
            raise ShapeError(
                f"shape {self.shape} needs {math.prod(self.shape)} values, "
                f"got {self.data.size}"
            )

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    def view(self) -> np.ndarray:
        """Read-only ndarray view with this tensor's shape."""
        return self.data.reshape(self.shape)

    def tolist(self):
        return self.view().tolist()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def from_array(values) -> Tensor:
    """Build a tensor from nested lists or an ndarray, checking finiteness."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("tensor contains NaN or Inf")
    return Tensor(tuple(int(e) for e in arr.shape), _freeze(arr.ravel().copy()))


def zeros(shape) -> Tensor:
    shape = tuple(int(e) for e in shape)
    if any(e < 1 for e in shape):
        raise ShapeError(f"extents must be >= 1, got {shape}")
    return Tensor(shape, _freeze(np.zeros(math.prod(shape))))


def elementwise_add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(a.shape, _freeze(a.data + b.data))


def scale(a: Tensor, s: float) -> Tensor:
    if not np.isfinite(s):
        raise NonFiniteError(f"scale factor must be finite, got {s}")
    out = a.data * float(s)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("scale produced non-finite values")
    return Tensor(a.shape, _freeze(out))


def matvec(m: Tensor, v: Tensor) -> Tensor:
    if m.rank != 2 or v.rank != 1:
        raise ShapeError(f"matvec needs rank-2 and rank-1, got {m.shape}, {v.shape}")
    if m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec dims: {m.shape} x {v.shape}")
    out = m.view() @ v.data
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("matvec produced non-finite values")
    return Tensor((m.shape[0],), _freeze(out))
