"""Dense 2-D tensors stored as flat row-major lists of 64-bit floats.

Correctness-first toy scale: no views, no strides, no broadcasting. Slices
copy. Every constructor validates shape consistency and finiteness, so a
NaN/Inf surfaces at the operation that produced it.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from ..errors import DimensionError, NonFiniteError

# CPython's built-in SHA-256 (the one hashlib falls back to): importing
# hashlib would map OpenSSL's libcrypto, ~3.4 MB resident, into every process.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:  # an interpreter built without the built-in module
        from hashlib import sha256

Shape = tuple[int, ...]

TWOPI = 2.0 * math.pi


def derive_seed(root_seed: int, name: str) -> int:
    """Stable per-tensor seed from a root seed and a parameter name.

    Hash-based so the result does not depend on parameter creation order.
    """
    digest = sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Tensor:
    """Flat row-major float64 storage plus a shape tuple."""

    __slots__ = ("shape", "data")

    def __init__(self, shape: Shape | list[int], data: list[float], check: bool = True):
        shape = tuple(int(s) for s in shape)
        if check:
            if any(s <= 0 for s in shape):
                raise DimensionError(f"non-positive extent in shape {shape}")
            if math.prod(shape) != len(data):
                raise DimensionError(f"shape {shape} does not match {len(data)} values")
            if not all(map(math.isfinite, data)):
                raise NonFiniteError(f"non-finite value in tensor of shape {shape}")
        self.shape = shape
        self.data = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, *shape: int) -> "Tensor":
        return cls.full(shape, 0.0)

    @classmethod
    def full(cls, shape: Shape, value: float) -> "Tensor":
        return cls(shape, [float(value)] * math.prod(shape))

    @classmethod
    def randn(cls, shape: Shape, seed: int, std: float = 1.0) -> "Tensor":
        """Seeded Gaussian init; identical seed gives bit-identical data.

        Box-Muller over ``random.Random(seed).random()``, one pair of values
        per two draws, the last ``sin`` value dropped for an odd count. This is
        the arithmetic of ``gauss(0.0, 1.0) * std`` on CPython 3.10 and 3.11,
        so it makes the same floats, but rests only on the ``random()`` stream,
        which Python keeps across versions; ``0.0 +`` turns ``-0.0`` into
        ``0.0`` as ``gauss`` does.
        """
        n = math.prod(shape)
        rnd = random.Random(seed).random
        cos, sin, sqrt, log = math.cos, math.sin, math.sqrt, math.log
        data: list[float] = []
        append = data.append
        for _ in range((n + 1) // 2):
            x2pi = rnd() * TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - rnd()))
            append((0.0 + cos(x2pi) * g2rad) * std)
            append((0.0 + sin(x2pi) * g2rad) * std)
        del data[n:]
        return cls(shape, data)

    # -- helpers --------------------------------------------------------

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1] if len(self.shape) > 1 else 1

    def item(self) -> float:
        if self.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return self.data[0]

    def copy(self) -> "Tensor":
        return Tensor(self.shape, list(self.data), check=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# Parameter factory: (shape, parameter name, init std) -> tensor. Models build
# every randomly initialized parameter through one, so a caller that is about
# to overwrite all parameters (a checkpoint load) can skip the draws.
Init = Callable[[Shape, str, float], Tensor]


def seeded_init(seed: int) -> Init:
    """Gaussian init with a per-parameter seed derived from the name."""
    return lambda shape, name, std: Tensor.randn(shape, derive_seed(seed, name), std)


def zeros_init(shape: Shape, name: str, std: float) -> Tensor:
    """Draws nothing: zero placeholders for parameters about to be overwritten."""
    return Tensor.zeros(*shape)
