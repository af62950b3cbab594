"""Minimal dense-tensor kernel and reverse-mode autodiff layer.

Pure Python on purpose: 64-bit floats, flat row-major storage, no external
math runtime. Gradient-check tolerances dominate the design, not throughput;
the central-difference check itself, `grad_check`, lives in the tests
(tests/test_numerics.py).
"""

from .graph import Graph, Node
from .tensor import Init, Tensor, derive_seed, seeded_init, zeros_init

__all__ = ["Graph", "Init", "Node", "Tensor", "derive_seed", "seeded_init", "zeros_init"]
