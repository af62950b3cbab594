"""Gated cross-attention layer and the attention-permission masks that govern
it: learnable media tokens standing in for each image, zero-padded visual
keys so text always has a null target, and one cross-mask rule with image and
video modes. Masks are plain boolean matrices, like the causal mask."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConfigError, SequenceError
from .layers import attention, ffn, ffn_params
from .numerics import Graph, Init, Node, Tensor


@dataclass(frozen=True)
class Text:
    token: int


@dataclass(frozen=True)
class MediaSlot:
    image: int
    slot: int


@dataclass(frozen=True)
class ImageMarker:
    """Placeholder for image i in raw text passed to insert_media_tokens."""

    index: int


Element = Text | MediaSlot


@dataclass
class InterleavedSequence:
    """Ordered stream of text tokens and per-image media-token slots.

    Each image occupies one contiguous run of media_len slots, and runs appear
    in ascending image order; num_images is the number of runs.
    """

    elements: list[Element]
    media_len: int
    num_images: int = field(init=False)

    def __post_init__(self):
        if self.media_len < 1:
            raise SequenceError(f"media_len must be >= 1, got {self.media_len}")
        runs: list[int] = []
        pos = 0
        n = len(self.elements)
        while pos < n:
            el = self.elements[pos]
            if isinstance(el, Text):
                pos += 1
                continue
            img = el.image
            run = self.elements[pos : pos + self.media_len]
            ok = len(run) == self.media_len and all(
                isinstance(e, MediaSlot) and e.image == img and e.slot == s
                for s, e in enumerate(run)
            )
            if not ok:
                raise SequenceError(f"image {img} run is not {self.media_len} contiguous slots")
            runs.append(img)
            pos += self.media_len
        if runs != list(range(len(runs))):
            raise SequenceError(f"image runs must be 0..n-1 in order, got {runs}")
        self.num_images = len(runs)

    def __len__(self) -> int:
        return len(self.elements)


def insert_media_tokens(items: Iterable[int | ImageMarker], media_len: int) -> InterleavedSequence:
    """Expand each image marker into media_len slots, preserving text order.

    Markers must reference images 0..n-1 in order, each exactly once; the
    sequence enforces this and raises SequenceError otherwise.
    """
    elements: list[Element] = []
    for item in items:
        if isinstance(item, ImageMarker):
            elements.extend(MediaSlot(item.index, s) for s in range(media_len))
        else:
            elements.append(Text(int(item)))
    return InterleavedSequence(elements, media_len=media_len)


# -- masks --------------------------------------------------------------------


def _cross_mask(seq: InterleavedSequence, s_img: int, pad_len: int, text_sees_every_image: bool) -> list[list[bool]]:
    """Boolean permission matrix [len(seq) x (num_images*s_img + pad_len)].

    Columns are partitioned into per-image feature blocks followed by a
    trailing all-zero pad block; every row allows at least one column. A media
    slot sees exactly its own image's block. A text row sees the pad block plus
    every image block (video) or the block of the most recent preceding image
    (image; none if no image precedes).
    """
    if s_img <= 0:
        raise ConfigError("s_img must be positive")
    if pad_len <= 0:
        raise ConfigError("pad_len must be positive")
    n_feat = seq.num_images * s_img
    allow: list[list[bool]] = []
    last_image = -1
    for el in seq.elements:
        row = [False] * (n_feat + pad_len)
        if isinstance(el, MediaSlot):
            last_image = el.image
            row[el.image * s_img : (el.image + 1) * s_img] = [True] * s_img
        else:
            if text_sees_every_image:
                row[:n_feat] = [True] * n_feat
            elif last_image >= 0:
                row[last_image * s_img : (last_image + 1) * s_img] = [True] * s_img
            row[n_feat:] = [True] * pad_len
        allow.append(row)
    return allow


def build_cross_mask_image(seq: InterleavedSequence, s_img: int, pad_len: int = 1) -> list[list[bool]]:
    """Image mode: text sees the most recent preceding image and the pad."""
    return _cross_mask(seq, s_img, pad_len, text_sees_every_image=False)


def build_cross_mask_video(seq: InterleavedSequence, s_img: int, pad_len: int = 1) -> list[list[bool]]:
    """Video mode: text sees every frame and the pad."""
    return _cross_mask(seq, s_img, pad_len, text_sees_every_image=True)


def build_self_mask(seq: InterleavedSequence) -> list[list[bool]]:
    """Plain causal mask over the whole interleaved stream."""
    n = len(seq)
    return [[j <= i for j in range(n)] for i in range(n)]


def format_mask_dump(allow: Sequence[Sequence[bool]], pad_len: int, mode: str) -> str:
    """Plain-text grid consumed by the CLI: header then one 1/0 line per row."""
    cols = len(allow[0]) if allow else pad_len
    lines = [f"{len(allow)} {cols} {pad_len} {mode}"]
    lines.extend("".join("1" if v else "0" for v in row) for row in allow)
    return "\n".join(lines) + "\n"


# -- gated cross-attention layer -------------------------------------------------


def branch_widths(h_llm: int, r_xc: float, r_xf: float) -> tuple[int, int]:
    """(attention inner width, FFN hidden width), each r * h_llm rounded half
    up; both must round to >= 1."""
    a = int(r_xc * h_llm + 0.5)
    f = int(r_xf * h_llm + 0.5)
    if a < 1 or f < 1:
        raise ConfigError(f"branch widths round to ({a}, {f}); need >= 1")
    return a, f


def xattn_params(init: Init, prefix: str, h_llm: int, d_img: int, r_xc: float, r_xf: float) -> dict[str, Tensor]:
    """One gated cross-attention layer's parameters by local name, each drawn
    under the init key `prefix` + its local name: the projections `wq`,
    `wk`, `wv`, `wo`, the FFN's `ffn.w_in` and `ffn.w_out`, and the two
    gates `alpha_attn` and `alpha_ffn`, which start at zero."""
    a, f = branch_widths(h_llm, r_xc, r_xf)
    return {
        "wq": init((h_llm, a), prefix + "wq", h_llm**-0.5),
        "wk": init((d_img, a), prefix + "wk", d_img**-0.5),
        "wv": init((d_img, a), prefix + "wv", d_img**-0.5),
        "wo": init((a, h_llm), prefix + "wo", a**-0.5),
        **{f"ffn.{n}": t for n, t in ffn_params(init, prefix + "ffn.", h_llm, f).items()},
        "alpha_attn": Tensor.zeros(1, 1),
        "alpha_ffn": Tensor.zeros(1, 1),
    }


class GatedXAttn:
    """Single-head cross-attention plus FFN, each behind a scalar tanh gate
    initialized at zero so the host stream is untouched at step zero.

    The layer holds no tensors: it reads the parameters of xattn_params from
    the caller's nodes as `prefix` + local name. All projections are
    bias-free: zero-valued keys/values contribute exactly nothing, and the
    gate-zero identity is bit-exact.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix

    def dense_ffn_branch(self, g: Graph, nodes: Mapping[str, Node]) -> Callable[[Node], Node]:
        p = self.prefix
        return lambda h: ffn(g, h, nodes[p + "ffn.w_in"], nodes[p + "ffn.w_out"])

    def forward_nodes(
        self,
        g: Graph,
        hidden: Node,
        kv: Node,
        mask: list[list[bool]],
        nodes: Mapping[str, Node],
        ffn_branch: Callable[[Node], Node] | None = None,
    ) -> Node:
        """hidden + tanh(a_attn)*XAttn(hidden, kv) then + tanh(a_ffn)*FFN(.).

        kv must already carry the pad_len all-zero rows; the mask has one row
        per hidden row and one column per kv row (attention's softmax_masked
        raises DimensionError otherwise). ffn_branch swaps in a replacement
        FFN (the MoE block) while staying behind the same gate.
        """
        p = lambda name: nodes[self.prefix + name]
        attn = attention(g, hidden, kv, p("wq"), p("wk"), p("wv"), p("wo"), 1, mask)
        h1 = g.add(hidden, g.smul(attn, g.tanh(p("alpha_attn"))))
        if ffn_branch is None:
            ffn_branch = self.dense_ffn_branch(g, nodes)
        return g.add(h1, g.smul(ffn_branch(h1), g.tanh(p("alpha_ffn"))))


def build_padded_kv(g: Graph, taps: Sequence[Node], pad_len: int, d_img: int) -> Node:
    """Stack one tap per image and append pad_len all-zero key/value rows."""
    pad = g.constant(Tensor.zeros(pad_len, d_img))
    return g.rows([*taps, pad])
