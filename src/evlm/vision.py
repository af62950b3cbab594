"""Small ViT-style encoder exposing per-layer outputs, with uniform tapping
of the deepest layers and the tap-to-cross-attention assignment rule.

Taps are the raw pre-norm block outputs: there is no final norm and no head,
so the deepest tap is exactly the last residual stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ConfigError, DimensionError
from .layers import block
from .numerics import Graph, Node

FFN_MULT = 4  # hidden width of each block's FFN relative to feature_dim


@dataclass(frozen=True)
class EncoderConfig:
    """Toy defaults exercise every mechanism in seconds on a CPU."""

    layers: int = 12
    patch_count: int = 17  # 16 patches + class token
    feature_dim: int = 32
    tap_window: int = 8
    num_taps: int = 4

    def __post_init__(self):
        if self.num_taps < 1:
            raise ConfigError("num_taps must be >= 1")
        if self.tap_window < self.num_taps:
            raise ConfigError("tap_window must be >= num_taps")
        if self.layers < self.tap_window:
            raise ConfigError("layers must be >= tap_window")
        if self.patch_count < 1 or self.feature_dim < 1:
            raise ConfigError("patch_count and feature_dim must be positive")


def tap_schedule(layers: int, tap_window: int, num_taps: int) -> list[int]:
    """0-based layer indices of the taps: uniform stride window/num_taps over
    the last `tap_window` layers, always ending at the final layer."""
    if num_taps > tap_window:
        raise ConfigError("num_taps exceeds tap_window")
    if tap_window > layers:
        raise ConfigError("tap_window exceeds layer count")
    base = layers - tap_window - 1
    return [base + ((j + 1) * tap_window + num_taps - 1) // num_taps for j in range(num_taps)]


def assign_taps_to_xattn(num_taps: int, num_xattn: int) -> list[int]:
    """Tap index used by each cross-attention layer: contiguous blocks in
    order, shallowest tap feeding the earliest layers."""
    if num_xattn < num_taps:
        raise ConfigError("need at least as many cross-attention layers as taps")
    return [(t * num_taps) // num_xattn for t in range(num_xattn)]


class VisionEncoder:
    """Stack of pre-norm transformer blocks (single-head attention, gelu FFN)
    and its tap schedule. It holds no tensors: block i reads its parameters
    from the caller's nodes as `vision.block<i>.<local name>`, so callers
    control gradient flow."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.schedule = tap_schedule(cfg.layers, cfg.tap_window, cfg.num_taps)

    def encode_nodes(
        self, g: Graph, patches: Node, nodes: Mapping[str, Node], blocks: list[Node] | None = None
    ) -> list[Node]:
        """Run the blocks inside an existing graph and return the taps, one
        (patch_count, feature_dim) output per layer of `schedule`, shallow to
        deep; nodes maps parameter names (`vision.block<i>.<local name>`) to
        graph nodes.

        `blocks`, when given, holds the outputs of the first len(blocks)
        blocks already (say, a frozen prefix's values entered as constants):
        only the blocks after them run, from the last of them, and each output
        they produce is appended to it."""
        cfg = self.cfg
        if patches.t.shape != (cfg.patch_count, cfg.feature_dim):
            raise DimensionError(
                f"patches {patches.t.shape} != ({cfg.patch_count}, {cfg.feature_dim})"
            )
        s = cfg.patch_count
        full_mask = [[True] * s for _ in range(s)]
        outputs = [] if blocks is None else blocks
        x = outputs[-1] if outputs else patches
        for i in range(len(outputs), cfg.layers):
            x = block(g, x, nodes, f"vision.block{i}.", 1, full_mask)
            outputs.append(x)
        return [outputs[i] for i in self.schedule]
