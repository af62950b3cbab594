"""Toy decoder LM with a gated cross-attention layer before every decoder
block, text-only cross-entropy, stage-wise freezing, a synthetic smoke
training loop, and the loss-argmin classification probe."""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
from array import array
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

from .errors import ConfigError, ContractViolationError, DimensionError, NonFiniteError, SequenceError
from .fusion import (
    GatedXAttn,
    ImageMarker,
    InterleavedSequence,
    Text,
    branch_widths,
    build_cross_mask_image,
    build_cross_mask_video,
    build_padded_kv,
    build_self_mask,
    insert_media_tokens,
    xattn_params,
)
from .layers import block, block_params
from .moe import MoEConfig, RoutingStats, aux_loss_node, moe_forward_nodes, upcycle
from .numerics import Graph, Init, Node, Tensor, derive_seed, seeded_init, zeros_init
from .numerics.tensor import sha256
from .vision import FFN_MULT, EncoderConfig, VisionEncoder, assign_taps_to_xattn

ALL_GROUPS = (
    "llm",
    "xattn",
    "vit_front",
    "vit_back_half",
    "vit_last_quarter",
    "media_tokens",
    "moe",
)

# Trainable groups per training stage. Stage two and continual unfreeze the
# whole latter half of the visual encoder, i.e. both back-half groups.
STAGE_TRAINABLE = {
    "pretrain_phase1": frozenset({"xattn", "media_tokens"}),
    "pretrain_phase2": frozenset({"xattn", "media_tokens", "vit_back_half", "vit_last_quarter"}),
    "continual": frozenset({"xattn", "media_tokens", "vit_back_half", "vit_last_quarter"}),
    "sft": frozenset({"xattn", "media_tokens", "moe", "vit_last_quarter"}),
}


def freeze_stage(stage: str) -> dict[str, bool]:
    """Trainability of every parameter group in the given stage."""
    if stage not in STAGE_TRAINABLE:
        raise ConfigError(f"unknown stage {stage!r} (expected one of {sorted(STAGE_TRAINABLE)})")
    trainable = STAGE_TRAINABLE[stage]
    return {group: group in trainable for group in ALL_GROUPS}


@dataclass(frozen=True)
class ModelConfig:
    llm_layers: int
    h_llm: int
    heads: int
    vocab: int
    media_len: int = 16
    r_xc: float = 0.2
    r_xf: float = 0.5
    moe: MoEConfig | None = None
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    mask_mode: str = "image"
    pad_len: int = 1
    ffn_mult: int = 4  # decoder FFN width relative to h_llm
    max_seq: int = 64  # positional table size

    def __post_init__(self):
        if self.llm_layers < self.encoder.num_taps:
            raise ConfigError("llm_layers must be >= encoder.num_taps")
        if min(self.h_llm, self.heads, self.ffn_mult, self.max_seq) < 1:
            raise ConfigError("h_llm, heads, ffn_mult and max_seq must be >= 1")
        if self.h_llm % self.heads != 0:
            raise ConfigError(f"heads={self.heads} must divide h_llm={self.h_llm}")
        for name in ("r_xc", "r_xf"):
            r = getattr(self, name)
            if not 0.0 < r <= 1.0:
                raise ConfigError(f"{name}={r} outside (0, 1]")
        if self.mask_mode not in ("image", "video"):
            raise ConfigError(f"mask_mode must be image or video, got {self.mask_mode!r}")
        if self.vocab < 2 or self.media_len < 1 or self.pad_len < 1:
            raise ConfigError("vocab >= 2, media_len >= 1, pad_len >= 1 required")


# -- config schema: one text key per scalar field of the config dataclasses --

def parse_flag(text: str) -> bool:
    """A flag's text form: 0 or 1 after stripping whitespace; anything else
    raises ValueError."""
    value = text.strip()
    if value not in ("0", "1"):
        raise ValueError(f"a flag must be 0 or 1, got {text!r}")
    return value == "1"


# keyed by annotation text: the config modules use `from __future__ import annotations`
_PARSERS = {"int": int, "float": float, "str": str, "bool": parse_flag}


def config_fields(cls: type) -> dict[str, Callable[[str], Any]]:
    """The scalar (int, float, str, bool) fields of a config dataclass, in
    field order, each with the parser of its text form."""
    return {f.name: _PARSERS[f.type] for f in fields(cls) if f.type in _PARSERS}


def config_text(value: Any) -> str:
    """Text form of a scalar config value: floats by repr, bools as 1 or 0."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)


def config_items(obj: Any, prefix: str = "") -> list[tuple[str, str]]:
    return [(prefix + name, config_text(getattr(obj, name))) for name in config_fields(type(obj))]


def config_values(
    cls: type, kv: Mapping[str, str], prefix: str = "", required: bool = True
) -> dict[str, Any]:
    """Parsed scalar fields of cls from kv[prefix + name]. A missing key
    raises KeyError when required and is left out otherwise."""
    return {
        name: parse(kv[prefix + name])
        for name, parse in config_fields(cls).items()
        if required or prefix + name in kv
    }


def next_token_targets(seq: InterleavedSequence) -> tuple[list[int], list[bool]]:
    """Next-token ids over the stream plus the text-only loss mask: position i
    contributes exactly when the token it predicts (i+1) is a text element."""
    n = len(seq)
    targets = [0] * n
    mask = [False] * n
    for i in range(n - 1):
        nxt = seq.elements[i + 1]
        if isinstance(nxt, Text):
            targets[i] = nxt.token
            mask[i] = True
    return targets, mask


class FusedModel:
    """Owns every parameter tensor, grouped for stage-wise freezing.

    `params` is the only table of parameter tensors: every layer reads its
    own from a graph's nodes as prefix + local name. Random parameters come
    from `init` (default: seeded Gaussian draws keyed by parameter name)."""

    def __init__(self, cfg: ModelConfig, seed: int, init: Init | None = None):
        init = init or seeded_init(seed)
        self.cfg = cfg
        h, v = cfg.h_llm, cfg.vocab
        self.vision = VisionEncoder(cfg.encoder)
        self.tap_assignment = assign_taps_to_xattn(cfg.encoder.num_taps, cfg.llm_layers)

        params: dict[str, Tensor] = {}
        group_of: dict[str, str] = {}

        def reg(name: str, t: Tensor, group: str) -> None:
            params[name] = t
            group_of[name] = group

        # visual encoder, grouped front / back-half / last-quarter by depth
        layers = cfg.encoder.layers
        quarter_start = layers - math.ceil(layers / 4)
        half_start = layers - math.ceil(layers / 2)
        self.vision_groups = [  # the group of each vision block
            "vit_last_quarter" if i >= quarter_start else "vit_back_half" if i >= half_start else "vit_front"
            for i in range(layers)
        ]
        d = cfg.encoder.feature_dim
        for i, group in enumerate(self.vision_groups):
            b = f"vision.block{i}."
            for name, t in block_params(init, b, d, FFN_MULT * d).items():
                reg(b + name, t, group)

        # shared media-token table, one row per slot, reused for every image
        reg("media.table", init((cfg.media_len, h), "media.table", h**-0.5), "media_tokens")

        # decoder
        reg("llm.tok_emb", init((v, h), "llm.tok_emb", h**-0.5), "llm")
        reg("llm.pos_emb", init((cfg.max_seq, h), "llm.pos_emb", h**-0.5), "llm")
        for t in range(cfg.llm_layers):
            b = f"llm.block{t}."
            for name, t_param in block_params(init, b, h, cfg.ffn_mult * h).items():
                reg(b + name, t_param, "llm")
        reg("llm.ln_f.gain", Tensor.full((1, h), 1.0), "llm")
        reg("llm.ln_f.bias", Tensor.zeros(1, h), "llm")
        reg("llm.head", init((h, v), "llm.head", h**-0.5), "llm")

        # one gated cross-attention layer before every decoder layer
        self.xattn_layers = [GatedXAttn(f"xattn.{t}.") for t in range(cfg.llm_layers)]
        for layer in self.xattn_layers:
            b = layer.prefix
            layer_params = xattn_params(init, b, h, cfg.encoder.feature_dim, cfg.r_xc, cfg.r_xf)
            bank = {}
            if cfg.moe is not None:
                # the dense FFN is consumed by upcycling; the bank replaces it
                bank = upcycle(layer_params.pop("ffn.w_in"), layer_params.pop("ffn.w_out"), cfg.moe)
            for name, t_param in layer_params.items():
                reg(b + name, t_param, "xattn")
            for name, t_param in bank.items():
                reg(b + "moe." + name, t_param, "moe")

        self.params = params
        self.group_of = group_of
        self.meta: dict[str, str] = {}  # free-form checkpoint metadata
        self.last_routing_stats: list[RoutingStats] | None = None  # per xattn layer
        # the outputs of the frozen vision blocks per image; see encode_images
        self._vision_prefix: dict[tuple, list[Tensor]] = {}

    # -- parameter plumbing -------------------------------------------------

    def param_nodes(self, g: Graph) -> dict[str, Node]:
        return {name: g.param(t) for name, t in self.params.items()}

    # -- forward -----------------------------------------------------------

    def encode_images(
        self, g: Graph, images: Sequence[Tensor], nodes: Mapping[str, Node], frozen_blocks: int = 0
    ) -> list[list[Node]]:
        """Per image, the tapped feature sequences (inside this graph).

        The outputs of vision blocks 0..F-1, F = frozen_blocks, are kept per
        image, keyed by F and the exact bytes of those blocks' parameters and
        of its patches (so an edit of 0.0 to -0.0 is a change). An image whose
        key was kept enters them as constants and runs only blocks F..; any
        other runs every block, and the values are read from this graph. With
        F = 0 the kept prefix is empty and nothing is reused. Only the entries
        this call used are kept. The caller passes F only when no parameter of
        blocks 0..F-1 is trained: the constants pass no gradient back to them,
        and every forward value is the same float.
        """
        frozen = tuple(f"vision.block{i}." for i in range(frozen_blocks))
        weights = array("d")
        for name, t in self.params.items():
            if name.startswith(frozen):
                weights.extend(t.data)
        weights_key = (frozen_blocks, weights.tobytes())
        kept: dict[tuple, list[Tensor]] = {}
        out = []
        for patches in images:
            key = (weights_key, patches.shape, array("d", patches.data).tobytes())
            prefix = kept.get(key) or self._vision_prefix.get(key)
            blocks = [g.constant(t) for t in prefix] if prefix else []
            out.append(self.vision.encode_nodes(g, g.constant(patches), nodes, blocks))
            kept[key] = prefix or [node.t for node in blocks[:frozen_blocks]]
        self._vision_prefix = kept
        return out

    def frozen_vision_blocks(self, trainable_groups: Mapping[str, bool]) -> int:
        """The number of leading vision blocks with no trainable parameter."""
        trained = (i for i, group in enumerate(self.vision_groups) if trainable_groups.get(group, False))
        return next(trained, len(self.vision_groups))

    def encode_images_tensors(self, images: Sequence[Tensor]) -> list[list[Tensor]]:
        """Frozen-vision fast path: encode once outside any training graph."""
        g = Graph()
        nodes = self.param_nodes(g)
        return [[n.t for n in self.vision.encode_nodes(g, g.constant(p), nodes)] for p in images]

    def _check_stream(self, seq: InterleavedSequence) -> None:
        """The input checks every forward applies to its stream."""
        n = len(seq)
        if n == 0:
            raise SequenceError("empty sequence")
        if n > self.cfg.max_seq:
            raise DimensionError(f"sequence length {n} exceeds max_seq {self.cfg.max_seq}")
        if any(isinstance(e, Text) and not 0 <= e.token < self.cfg.vocab for e in seq.elements):
            raise SequenceError("token id outside vocabulary")
        if seq.num_images and seq.media_len != self.cfg.media_len:
            raise SequenceError(
                f"stream has {seq.media_len} media slots per image, the model {self.cfg.media_len}"
            )

    def _embed_stream(self, g: Graph, seq: InterleavedSequence, nodes: Mapping[str, Node]) -> Node:
        """Token and media-slot embeddings in one gather from the stacked
        tables [llm.tok_emb; media.table] (text token t is row t, media slot
        s is row vocab + s), plus positions."""
        self._check_stream(seq)
        rows = [e.token if isinstance(e, Text) else self.cfg.vocab + e.slot for e in seq.elements]
        pos = g.rows([nodes["llm.pos_emb"]], range(len(seq)))
        return g.add(g.rows([nodes["llm.tok_emb"], nodes["media.table"]], rows), pos)

    def forward_nodes(
        self,
        g: Graph,
        seq: InterleavedSequence,
        taps: Sequence[Sequence[Node]],
        nodes: Mapping[str, Node],
        moe_stats: dict[int, RoutingStats] | None = None,
    ) -> Node:
        """Logits over the interleaved stream; taps is one tap list per image
        (already nodes of g)."""
        cfg = self.cfg
        if len(taps) != seq.num_images:
            raise DimensionError(f"{seq.num_images} images in sequence, {len(taps)} tap lists")
        x = self._embed_stream(g, seq, nodes)
        self_mask = build_self_mask(seq)
        builder = build_cross_mask_image if cfg.mask_mode == "image" else build_cross_mask_video
        cross_mask = builder(seq, cfg.encoder.patch_count, cfg.pad_len)
        kvs = [  # every tap feeds some layer (assign_taps_to_xattn)
            build_padded_kv(g, [img_taps[j] for img_taps in taps], cfg.pad_len, cfg.encoder.feature_dim)
            for j in range(cfg.encoder.num_taps)
        ]
        for t in range(cfg.llm_layers):
            layer = self.xattn_layers[t]
            ffn_branch = None
            if cfg.moe is not None:
                stats = None
                if moe_stats is not None:  # shared across samples in one graph
                    stats = moe_stats.setdefault(t, RoutingStats(cfg.moe.num_experts))
                ffn_branch = functools.partial(
                    moe_forward_nodes, g, cfg=cfg.moe, nodes=nodes, prefix=layer.prefix + "moe.", stats=stats
                )
            x = layer.forward_nodes(g, x, kvs[self.tap_assignment[t]], cross_mask, nodes, ffn_branch=ffn_branch)
            x = block(g, x, nodes, f"llm.block{t}.", cfg.heads, self_mask)
        x = g.layer_norm(x, nodes["llm.ln_f.gain"], nodes["llm.ln_f.bias"])
        return g.matmul(x, nodes["llm.head"])

    # -- loss ----------------------------------------------------------------

    def loss_nodes(self, g: Graph, logits: Node, seq: InterleavedSequence) -> Node:
        tgt, mask = next_token_targets(seq)
        if not any(mask):
            raise ContractViolationError("sequence has no text predictions to score")
        return g.cross_entropy(logits, tgt, mask)

    def losses(self, seqs: Sequence[InterleavedSequence], images: Sequence[Tensor] = ()) -> list[float]:
        """The loss of each stream over the same images.

        One call registers the parameters in one graph, encodes the images
        once and runs one decoder forward per distinct context, the stream
        minus its final element (streams with different image counts never
        share); every stream with that context is scored on the same logits.
        Sharing is exact: the final position is never a loss target, and no
        other row reads it (self-attention is causal; cross-attention, the
        FFN or MoE and the norms act row by row; a masked attention weight is
        exactly 0.0), so the scored rows are bit-identical to a forward over
        each stream on its own. Each stream passes the same input checks, and
        raises the same error, as it would alone.
        """
        g = Graph()
        nodes = self.param_nodes(g)
        taps = self.encode_images(g, images, nodes)
        logits_by_context: dict[tuple, Node] = {}
        out = []
        for seq in seqs:
            context = (seq.num_images, *seq.elements[:-1])
            logits = logits_by_context.get(context)
            if logits is None:
                logits = logits_by_context[context] = self.forward_nodes(g, seq, taps, nodes)
            else:
                self._check_stream(seq)
            out.append(self.loss_nodes(g, logits, seq).t.item())
        return out

    def _batch_loss(
        self,
        g: Graph,
        nodes: Mapping[str, Node],
        batch: Sequence[tuple[InterleavedSequence, Sequence[Tensor] | Sequence[Sequence[Tensor]]]],
        taps_precomputed: bool,
        frozen_blocks: int,
    ) -> Node:
        """Mean per-sample loss over the batch plus the weighted MoE aux loss.
        Records the batch's routing in last_routing_stats. Every image of the
        batch goes through one encode_images call (with frozen_blocks), so
        the kept frozen-prefix entries cover the whole batch."""
        total: Node | None = None
        moe_stats: dict[int, RoutingStats] | None = {} if self.cfg.moe is not None else None
        if taps_precomputed:
            taps = [[[g.constant(t) for t in img_taps] for img_taps in imgs] for _, imgs in batch]
        else:
            encoded = iter(self.encode_images(g, [p for _, imgs in batch for p in imgs], nodes, frozen_blocks))
            taps = [[next(encoded) for _ in imgs] for _, imgs in batch]
        for (seq, _), sample_taps in zip(batch, taps):
            logits = self.forward_nodes(g, seq, sample_taps, nodes, moe_stats=moe_stats)
            sample_loss = self.loss_nodes(g, logits, seq)
            total = sample_loss if total is None else g.add(total, sample_loss)
        mean = g.scale(total, 1.0 / len(batch))
        if moe_stats is None:
            return mean
        if self.cfg.moe.aux_loss_weight > 0:
            aux_total: Node | None = None
            for stats in moe_stats.values():
                term = aux_loss_node(g, stats)
                aux_total = term if aux_total is None else g.add(aux_total, term)
            mean = g.add(mean, g.scale(aux_total, self.cfg.moe.aux_loss_weight / len(moe_stats)))
        # plain copies (no graph references) for reporting
        self.last_routing_stats = [
            RoutingStats(s.num_experts, s.tokens, list(s.assignments), list(s.prob_sums))
            for _, s in sorted(moe_stats.items())
        ]
        return mean

    # -- training ---------------------------------------------------------------

    def sgd_step(
        self,
        batch: Sequence[tuple[InterleavedSequence, Sequence[Tensor] | Sequence[Sequence[Tensor]]]],
        lr: float,
        trainable_groups: Mapping[str, bool],
        taps_precomputed: bool = False,
    ) -> float:
        """One full-batch SGD step; returns the pre-step batch loss.

        With taps_precomputed, each batch entry carries per-image tap tensor
        lists (frozen-vision fast path) instead of raw patch tensors. Raw
        patches run the leading vision blocks no trainable group reaches once
        per image, not once per step (see encode_images). The step is all or
        nothing: a non-finite lr or a trainable_groups key outside ALL_GROUPS
        raises ConfigError and a non-finite updated value raises
        NonFiniteError, all with no parameter changed.
        """
        if not batch:
            raise ConfigError("empty batch")
        if not math.isfinite(lr):
            raise ConfigError(f"lr must be finite, got {lr!r}")
        unknown = set(trainable_groups) - set(ALL_GROUPS)
        if unknown:
            raise ConfigError(f"unknown parameter groups {sorted(unknown)} (expected some of {list(ALL_GROUPS)})")
        g = Graph()
        nodes = self.param_nodes(g)
        loss = self._batch_loss(g, nodes, batch, taps_precomputed, self.frozen_vision_blocks(trainable_groups))
        g.backward(loss)
        # every new value is computed and checked before any parameter changes
        updates = []
        for name, t in self.params.items():
            if trainable_groups.get(self.group_of[name], False):
                new = [v - lr * gv for v, gv in zip(t.data, g.grad(nodes[name]).data)]
                if not all(map(math.isfinite, new)):
                    raise NonFiniteError(f"SGD update of {name} is non-finite; no parameter was changed")
                updates.append((t, new))
        for t, new in updates:
            t.data[:] = new
        return loss.t.item()


# -- synthetic smoke task ----------------------------------------------------

TOK_BOS = 0
TOK_SHOWS = 1
TOK_CLASS_BASE = 2  # class c is token TOK_CLASS_BASE + c


def caption_tokens(class_id: int) -> list[int]:
    return [TOK_BOS, TOK_SHOWS, TOK_CLASS_BASE + class_id]


def synthetic_patches(enc: EncoderConfig, class_id: int, sample: int, seed: int) -> Tensor:
    """Class-specific base pattern plus per-sample Gaussian jitter (std 0.25)."""
    shape = (enc.patch_count, enc.feature_dim)
    base = Tensor.randn(shape, derive_seed(seed, f"smoke.class{class_id}"))
    jitter = Tensor.randn(shape, derive_seed(seed, f"smoke.sample{class_id}.{sample}"), 0.25)
    return Tensor(shape, [a + b for a, b in zip(base.data, jitter.data)], check=False)


def caption_sequence(cfg: ModelConfig, class_id: int) -> InterleavedSequence:
    return insert_media_tokens(
        [ImageMarker(0), *caption_tokens(class_id)], media_len=cfg.media_len
    )


@dataclass
class SmokeResult:
    model: FusedModel
    losses: list[float]  # initial loss followed by the loss after each step

    @property
    def converged(self) -> bool:
        return len(self.losses) > 1 and self.losses[-1] < 0.5 * self.losses[0]


def smoke_config() -> ModelConfig:
    """Default toy configuration for the synthetic 4-class task."""
    return ModelConfig(
        llm_layers=2,
        h_llm=16,
        heads=2,
        vocab=12,
        media_len=8,
        encoder=EncoderConfig(layers=4, patch_count=5, feature_dim=8, tap_window=4, num_taps=2),
        max_seq=32,
    )


def train_smoke(
    cfg: ModelConfig,
    steps: int,
    seed: int,
    lr: float = 0.5,
    stage: str = "pretrain_phase1",
    classes: int = 4,
    per_class: int = 2,
) -> SmokeResult:
    """Full-batch SGD on the deterministic captioned-classes task.

    The dataset is generated in-process from the seed. When the stage freezes
    the whole visual encoder, image taps are encoded once up front.
    """
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if not math.isfinite(lr):  # checked here too: with steps=0 no step applies lr
        raise ConfigError(f"lr must be finite, got {lr!r}")
    if classes < 1 or per_class < 1:
        raise ConfigError("classes and per_class must be >= 1")
    if cfg.vocab < TOK_CLASS_BASE + classes:
        raise ConfigError(f"vocab must be >= {TOK_CLASS_BASE + classes} for {classes} classes")
    model = FusedModel(cfg, seed)
    trainable = freeze_stage(stage)
    frozen = model.frozen_vision_blocks(trainable)
    vision_frozen = frozen == cfg.encoder.layers

    batch = []
    for c in range(classes):
        seq = caption_sequence(cfg, c)
        for s in range(per_class):
            patches = synthetic_patches(cfg.encoder, c, s, seed)
            imgs = model.encode_images_tensors([patches]) if vision_frozen else [patches]
            batch.append((seq, imgs))

    losses = [model.sgd_step(batch, lr, trainable, taps_precomputed=vision_frozen) for _ in range(steps)]
    # evaluate the final state, forward only, so the curve is steps+1 long
    g = Graph()
    losses.append(model._batch_loss(g, model.param_nodes(g), batch, vision_frozen, frozen).t.item())
    return SmokeResult(model=model, losses=losses)


def loss_probe(
    model: FusedModel, patches: Tensor, candidates: Sequence[Sequence[int]]
) -> tuple[int, list[float]]:
    """Index of the candidate caption with the lowest loss (ties -> lowest
    index) plus the per-candidate losses, scored by `model.losses` on the
    candidates' streams over the one image."""
    if not candidates:
        raise ConfigError("loss_probe needs at least one candidate")
    seqs = [insert_media_tokens([ImageMarker(0), *tokens], media_len=model.cfg.media_len) for tokens in candidates]
    losses = model.losses(seqs, [patches])
    best = min(range(len(losses)), key=lambda i: (losses[i], i))
    return best, losses


# -- checkpoints ----------------------------------------------------------------

CHECKPOINT_MAGIC = "evlm-checkpoint v2"
HEX_PER_FLOAT = 16  # one float64, 8 bytes, as hex


def param_count(cfg: ModelConfig) -> int:
    """The number of parameter floats FusedModel(cfg) holds, from the config
    alone, so a checkpoint's size can be checked before any allocation."""
    d, h, v = cfg.encoder.feature_dim, cfg.h_llm, cfg.vocab
    block = lambda width, hidden: 4 * width * width + 4 * width + 2 * width * hidden
    a, f = branch_widths(h, cfg.r_xc, cfg.r_xf)
    ffn = 2 * h * f
    if cfg.moe is not None:  # router, the FFN once per replica, the world expert's copy
        ffn = h * cfg.moe.num_experts + ffn * (cfg.moe.n_replicas + cfg.moe.use_world_expert)
    xattn = 2 * h * a + 2 * d * a + ffn + 2
    vision = cfg.encoder.layers * block(d, FFN_MULT * d)
    llm = (2 * v + cfg.max_seq + 2) * h + cfg.llm_layers * (block(h, cfg.ffn_mult * h) + xattn)
    return vision + cfg.media_len * h + llm


def _config_pairs(cfg: ModelConfig) -> list[tuple[str, str]]:
    pairs = config_items(cfg) + config_items(cfg.encoder, "encoder.")
    pairs.append(("moe.enabled", config_text(cfg.moe is not None)))
    return pairs + (config_items(cfg.moe, "moe.") if cfg.moe else [])


def _config_from_pairs(kv: Mapping[str, str]) -> ModelConfig:
    moe = MoEConfig(**config_values(MoEConfig, kv, "moe.")) if parse_flag(kv["moe.enabled"]) else None
    encoder = EncoderConfig(**config_values(EncoderConfig, kv, "encoder."))
    return ModelConfig(**config_values(ModelConfig, kv), moe=moe, encoder=encoder)


def _hex_floats(values: list[float]) -> str:
    """values as little-endian float64 bytes, in hex."""
    packed = array("d", values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes().hex()


def _floats_from_hex(text: str) -> list[float]:
    """The inverse of _hex_floats; ValueError on odd-length or non-hex text or
    a byte count that is not a whole number of floats."""
    packed = array("d", bytes.fromhex(text))
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tolist()


def _layout(model: FusedModel) -> list[tuple[str, str | None]]:
    """Every line save_checkpoint writes before `end` but the data lines, in
    file order, each with the name of the parameter whose data line follows
    it (None for a line with no data after it). Meta that would not read back
    as written raises ConfigError, so a checkpoint loads only if it saves."""
    for key, value in model.meta.items():
        if "=" in key or "".join((key + value).splitlines()) != key + value:
            raise ConfigError(f"meta {key!r}={value!r} would not read back: no '=' in a key, no line breaks")
    head = [CHECKPOINT_MAGIC, *(f"config {k}={v}" for k, v in _config_pairs(model.cfg))]
    head += (f"meta {k}={v}" for k, v in sorted(model.meta.items()))
    shape = lambda name: " ".join(str(s) for s in model.params[name].shape)
    params = [(f"param {model.group_of[n]} {n} {shape(n)}", n) for n in sorted(model.params)]
    return [(line, None) for line in head] + params


def save_checkpoint(model: FusedModel, path: str) -> None:
    """Write checkpoint v2, a line-oriented ASCII file:

        evlm-checkpoint v2
        config <key>=<value>           every scalar config field
        meta <key>=<value>             the model's metadata, sorted by key
        param <group> <name> <shape>   then the next line: the tensor's
        <hex>                          float64 values, little-endian, in hex
        ...                            (one such pair per parameter, by name)
        end
        sha256 <hex>                   the digest of every byte before it

    The hex data round-trips every float bit for bit, -0.0 and subnormals
    included. Meta that would not read back as written (a key holding `=`,
    a line break in a key or value) raises ConfigError before any file is
    made. Written to a temporary file in the same directory and renamed over
    path, so a write that fails partway leaves any previous checkpoint at
    path as it was and removes the temporary file."""
    lines = []
    for line, name in _layout(model):
        lines += [line] if name is None else [line, _hex_floats(model.params[name].data)]
    lines.append("end")
    body = ("\n".join(lines) + "\n").encode()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(b"sha256 " + sha256(body).hexdigest().encode() + b"\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _checkpoint_lines(path: str) -> list[str]:
    """The lines of the checkpoint at path before its sha256 trailer, split at
    `\n` alone, once the magic line, the trailer and the digest check out.
    Only the lines outlive the call, so the file's bytes are freed before a
    model is built."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(CHECKPOINT_MAGIC.encode() + b"\n"):
        raise ConfigError(f"{path} is not a recognized checkpoint")
    end = data.rfind(b"\nsha256 ") + 1  # where the trailer starts; 0 when there is none
    if not end:
        raise ConfigError(f"{path} has no sha256 trailer")
    digest = data[end + len("sha256 ") :]
    if len(digest) != 65 or not digest.endswith(b"\n"):  # 64 hex digits and a newline
        raise ConfigError(f"{path} has a truncated or malformed sha256 trailer")
    if data.startswith(b"sha256 ", data.rfind(b"\n", 0, end - 1) + 1):
        raise ConfigError(f"{path} repeats its sha256 trailer")
    body = memoryview(data)[:end]  # the digested bytes, not copied
    if digest[:-1] != sha256(body).hexdigest().encode():
        raise ConfigError(f"{path} does not match its sha256 digest: the file is corrupt")
    try:
        return str(body, "utf-8").split("\n")[:-1]  # the body ends with a newline
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not text: {exc}") from exc


def load_checkpoint(path: str) -> FusedModel:
    """Rebuild a model from a save_checkpoint file; no random init is drawn.
    The file loads iff its sha256 digest holds, its lines other than the
    data lines are exactly those save_checkpoint writes for its config and
    meta, and its data lines are finite values of the right count in the
    lower-case hex save_checkpoint writes, so saving the loaded model writes
    back the same bytes.
    Anything else raises ConfigError; a config that implies more parameter
    floats than the data lines can hold does so before the model is built."""
    lines = _checkpoint_lines(path)
    kv: dict[str, str] = {}
    meta: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].startswith(("config ", "meta ")):
        kind, _, rest = lines[i].partition(" ")
        key, _, value = rest.partition("=")
        table = kv if kind == "config" else meta
        if key in table:
            raise ConfigError(f"checkpoint repeats {kind} key {key}")
        table[key] = value
        i += 1
    try:
        cfg = _config_from_pairs(kv)
    except KeyError as exc:
        raise ConfigError(f"checkpoint config is missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad checkpoint config value: {exc}") from exc
    floats, room = param_count(cfg), sum(map(len, lines[i:])) // HEX_PER_FLOAT
    if floats > room:
        raise ConfigError(f"checkpoint config implies {floats} parameter floats; its data can hold at most {room}")
    model = FusedModel(cfg, seed=0, init=zeros_init)
    model.meta = meta
    if lines[-1] != "end":
        raise ConfigError(f"{path} does not end with a single 'end' line")
    data: list[tuple[str, str]] = []  # (parameter name, its data line)
    shown = lambda line: "nothing" if line is None else repr(line)
    i = 0
    for want, name in [*_layout(model), ("end", None), (None, None)]:  # None: no line, past the end
        got = lines[i] if i < len(lines) else None
        if got != want:
            raise ConfigError(f"checkpoint line {i + 1} reads {shown(got)}, where save_checkpoint writes {shown(want)}")
        if name is not None:
            data.append((name, lines[i + 1]))
        i += 1 if name is None else 2
    for name, text in data:
        t = model.params[name]
        try:
            # Tensor() checks the value count against the shape and finiteness
            t.data = Tensor(t.shape, _floats_from_hex(text)).data
        except (ValueError, DimensionError, NonFiniteError) as exc:
            raise ConfigError(f"bad data for {name}: {exc}") from exc
        # parsed to the right count, so the right length leaves no room for whitespace
        if len(text) != HEX_PER_FLOAT * t.size or text != text.lower():
            raise ConfigError(f"bad data for {name}: not {HEX_PER_FLOAT} lower-case hex digits per float")
    return model
