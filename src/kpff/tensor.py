"""The errors shared by every module, and check_array, the one entry check
of an array that comes from outside the program; from_array is its public
form, which copies and freezes the array it checks.

Every module works on read-only float64 ndarrays.
"""

import numpy as np


class ShapeError(ValueError):
    pass


class NonFiniteError(ValueError):
    pass


def from_array(values, what="array", rank=None) -> np.ndarray:
    """A read-only, contiguous float64 copy of values (nested lists or an
    ndarray) in their shape, once check_array passes it. Errors name
    `what`."""
    arr = check_array(np.array(values, dtype=np.float64, order="C"), what, rank)
    arr.setflags(write=False)
    return arr


def check_array(arr, what="array", rank=None) -> np.ndarray:
    """arr itself, neither copied nor frozen, once it has rank 1..4
    (exactly `rank` when given) and extents >= 1, every value finite.
    Errors name `what`."""
    if not (1 <= arr.ndim <= 4 if rank is None else arr.ndim == rank):
        raise ShapeError(f"{what} must have rank {rank or '1..4'}, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{what} extents must be >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} contains NaN or Inf")
    return arr
