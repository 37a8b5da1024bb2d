"""Kronecker-product feature fusion: the fusion layer with hand-derived
gradients, the Add/Concat baselines it generalizes, a from-scratch CNN
training stack, and a cross-validation harness for comparing methods."""

from .tensor import Tensor, zeros, from_array, elementwise_add, scale, matvec
from .fusion import (
    FusionInputs,
    KpffLayer,
    fuse_add,
    fuse_concat,
    fusion_inputs,
    kron,
    kpff_forward,
    kpff_backward,
    unit_vector,
)
from .config import RunConfig

__all__ = [
    "Tensor", "zeros", "from_array", "elementwise_add", "scale", "matvec",
    "FusionInputs", "KpffLayer", "fuse_add", "fuse_concat", "fusion_inputs",
    "kron", "kpff_forward", "kpff_backward", "unit_vector", "RunConfig",
]
