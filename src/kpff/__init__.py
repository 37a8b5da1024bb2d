"""Kronecker-product feature fusion: the fusion layer with hand-derived
gradients, the Add/Concat baselines it generalizes, a from-scratch CNN
training stack, and a cross-validation harness for comparing methods."""

from .tensor import from_array
from .fusion import (
    FusionInputs,
    KpffLayer,
    fuse_add,
    fuse_concat,
    fusion_inputs,
    kpff_forward,
    kpff_backward,
)
from .config import RunConfig

__all__ = [
    "from_array", "FusionInputs", "KpffLayer", "fuse_add", "fuse_concat",
    "fusion_inputs", "kpff_forward", "kpff_backward", "RunConfig",
]
