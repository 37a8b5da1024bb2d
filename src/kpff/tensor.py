"""Dense float64 tensors (rank 1-4, row-major), the value type of the
single-sample fusion API (fusion_inputs, kpff_forward, kpff_backward,
fuse_add, fuse_concat), and the errors shared by every other module.
Every other module works on read-only ndarrays.

A tensor's shape is checked when it is built, and from_array rejects
non-finite values. Tensors are immutable after construction and safe to
share.
"""

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    pass


class NonFiniteError(ValueError):
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
