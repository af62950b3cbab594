"""Sequence construction, mask rules vs brute-force oracles, and the gated
cross-attention layer vs a loop-evaluated oracle."""

import math
import random

import pytest

from evlm.errors import ConfigError, DimensionError, SequenceError
from evlm.fusion import (
    GatedXAttn,
    ImageMarker,
    InterleavedSequence,
    MediaSlot,
    Text,
    build_cross_mask_image,
    build_cross_mask_video,
    build_padded_kv,
    build_self_mask,
    format_mask_dump,
    insert_media_tokens,
    xattn_params,
)
from evlm.numerics import Graph, Tensor, derive_seed, seeded_init
from test_numerics import dot, grad_check


# -- sequence construction -----------------------------------------------------


def test_insert_single_image():
    seq = insert_media_tokens([ImageMarker(0), 7], media_len=2)
    assert seq.elements == [MediaSlot(0, 0), MediaSlot(0, 1), Text(7)]
    assert seq.num_images == 1


def test_insert_no_markers_is_pure_text():
    seq = insert_media_tokens([5, 6, 7], media_len=16)
    assert seq.elements == [Text(5), Text(6), Text(7)]
    assert seq.num_images == 0


def test_insert_two_images_structure():
    seq = insert_media_tokens([ImageMarker(0), 1, ImageMarker(1), 2], media_len=16)
    assert len(seq) == 16 + 1 + 16 + 1
    assert seq.elements[0] == MediaSlot(0, 0)
    assert seq.elements[15] == MediaSlot(0, 15)
    assert seq.elements[16] == Text(1)
    assert seq.elements[17] == MediaSlot(1, 0)
    assert seq.num_images == 2


def test_insert_rejects_out_of_order_and_duplicate_markers():
    with pytest.raises(SequenceError):
        insert_media_tokens([ImageMarker(1), ImageMarker(0)], media_len=2)
    with pytest.raises(SequenceError):
        insert_media_tokens([ImageMarker(0), ImageMarker(0)], media_len=2)
    with pytest.raises(SequenceError):
        insert_media_tokens([ImageMarker(1)], media_len=2)


def test_sequence_invariants_enforced():
    with pytest.raises(SequenceError):
        InterleavedSequence([MediaSlot(0, 0)], media_len=2)
    # num_images is counted from the runs, never passed in
    assert InterleavedSequence([MediaSlot(0, 0), MediaSlot(0, 1), Text(1)], media_len=2).num_images == 1


# -- mask oracles -----------------------------------------------------------------


def image_mask_oracle(seq, s_img, pad_len):
    """Re-derives each entry from the stated rule, scanning per position."""
    cols = seq.num_images * s_img + pad_len
    rows = []
    for i, el in enumerate(seq.elements):
        row = []
        if isinstance(el, MediaSlot):
            for c in range(cols):
                in_own_block = el.image * s_img <= c < (el.image + 1) * s_img
                row.append(in_own_block)
        else:
            prev = None
            for e in reversed(seq.elements[:i]):
                if isinstance(e, MediaSlot):
                    prev = e.image
                    break
            for c in range(cols):
                if c >= seq.num_images * s_img:
                    row.append(True)  # pad block always open to text
                else:
                    row.append(prev is not None and prev * s_img <= c < (prev + 1) * s_img)
        rows.append(row)
    return rows


def video_mask_oracle(seq, s_img, pad_len):
    cols = seq.num_images * s_img + pad_len
    rows = []
    for el in seq.elements:
        if isinstance(el, MediaSlot):
            rows.append([el.image * s_img <= c < (el.image + 1) * s_img for c in range(cols)])
        else:
            rows.append([True] * cols)
    return rows


def gen_sequences(max_len, max_images, media_len):
    """All interleaved item patterns with <= max_len elements."""
    out = []

    def rec(items, length, images):
        out.append(items)
        if length + 1 <= max_len:
            rec(items + ["T"], length + 1, images)
        if images < max_images and length + media_len <= max_len:
            rec(items + ["I"], length + media_len, images + 1)

    rec([], 0, 0)
    seqs = []
    for items in out:
        parts = [ImageMarker(sum(1 for x in items[:i] if x == "I")) if x == "I" else i for i, x in enumerate(items)]
        seqs.append(insert_media_tokens(parts, media_len=media_len))
    return seqs


@pytest.mark.parametrize("media_len", [1, 2])
def test_masks_match_brute_force_rules(media_len):
    for seq in gen_sequences(6, 3, media_len):
        for s_img, pad_len in [(1, 1), (3, 2)]:
            got = build_cross_mask_image(seq, s_img, pad_len)
            assert got == image_mask_oracle(seq, s_img, pad_len)
            gotv = build_cross_mask_video(seq, s_img, pad_len)
            assert gotv == video_mask_oracle(seq, s_img, pad_len)
            for mask in (got, gotv):
                for row in mask:
                    assert any(row)


def test_image_mask_no_image_text_gets_pad_only():
    # with zero images the column space is just the pad block
    seq = InterleavedSequence([Text(0)], media_len=2)
    mask = build_cross_mask_image(seq, s_img=4, pad_len=2)
    assert mask == [[True, True]]


def test_image_mask_text_before_image_gets_pad_only():
    seq = InterleavedSequence([Text(0), MediaSlot(0, 0)], media_len=1)
    mask = build_cross_mask_image(seq, s_img=4, pad_len=2)
    assert mask[0] == [False] * 4 + [True] * 2


def test_image_mask_slot_and_text_rows():
    seq = InterleavedSequence([MediaSlot(0, 0), Text(0)], media_len=1)
    mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
    assert mask == [[True, True, False], [True, True, True]]


def test_image_mask_text_after_second_image_ignores_first():
    seq = insert_media_tokens([ImageMarker(0), 1, ImageMarker(1), 2, 3], media_len=2)
    mask = build_cross_mask_image(seq, s_img=3, pad_len=1)
    for pos in (5, 6):  # text after image 1's run
        row = mask[pos]
        assert row[:3] == [False] * 3
        assert row[3:6] == [True] * 3
        assert row[6]


def test_video_mask_examples():
    seq = insert_media_tokens([ImageMarker(0), 1, ImageMarker(1), ImageMarker(2), 2], media_len=2)
    mask = build_cross_mask_video(seq, s_img=2, pad_len=1)
    for pos in (2, 7):  # text rows see all three frame blocks
        assert mask[pos] == [True] * 7
    # frame 1's media slots see only block 1
    assert mask[3] == [False, False, True, True, False, False, False]
    assert mask[4] == [False, False, True, True, False, False, False]


def test_single_image_mode_agreement():
    # agreement holds whenever no text precedes the image run; rows for text
    # with no preceding image intentionally differ (video text sees every
    # frame, image-mode text sees only the pad).
    for media_len in (1, 3):
        for seq in gen_sequences(6, 1, media_len):
            a = build_cross_mask_image(seq, s_img=2, pad_len=1)
            b = build_cross_mask_video(seq, s_img=2, pad_len=1)
            first_image_pos = next(
                (i for i, e in enumerate(seq.elements) if isinstance(e, MediaSlot)), None
            )
            for i, (ra, rb) in enumerate(zip(a, b)):
                if first_image_pos is None or i < first_image_pos:
                    continue
                assert ra == rb


def test_mode_divergence_only_for_text_before_first_image():
    seq = InterleavedSequence(
        [Text(1), MediaSlot(0, 0), Text(2)], media_len=1
    )
    img = build_cross_mask_image(seq, s_img=2, pad_len=1)
    vid = build_cross_mask_video(seq, s_img=2, pad_len=1)
    assert img[0] == [False, False, True]
    assert vid[0] == [True, True, True]
    assert img[1:] == vid[1:]


def test_masks_match_brute_force_on_random_long_sequences():
    rng = random.Random(77)
    for trial in range(60):
        media_len = rng.randint(1, 4)
        items, image = [], 0
        for _ in range(rng.randint(1, 12)):
            if image < 6 and rng.random() < 0.35:
                items.append(ImageMarker(image))
                image += 1
            else:
                items.append(rng.randrange(50))
        seq = insert_media_tokens(items, media_len=media_len)
        s_img, pad_len = rng.randint(1, 5), rng.randint(1, 3)
        assert build_cross_mask_image(seq, s_img, pad_len) == image_mask_oracle(
            seq, s_img, pad_len
        )
        assert build_cross_mask_video(seq, s_img, pad_len) == video_mask_oracle(
            seq, s_img, pad_len
        )


def test_mask_config_errors():
    seq = InterleavedSequence([Text(0)], media_len=1)
    with pytest.raises(ConfigError):
        build_cross_mask_image(seq, s_img=0, pad_len=1)
    with pytest.raises(ConfigError):
        build_cross_mask_video(seq, s_img=2, pad_len=0)


def test_self_mask_causal():
    seq = InterleavedSequence([Text(0)], media_len=1)
    assert build_self_mask(seq) == [[True]]
    seq3 = insert_media_tokens([ImageMarker(0), 1, 2], media_len=1)
    mask = build_self_mask(seq3)
    assert mask == [[True, False, False], [True, True, False], [True, True, True]]
    for seq in gen_sequences(6, 2, 2):
        rows = build_self_mask(seq)
        assert [sum(r) for r in rows] == list(range(1, len(seq) + 1))


def test_mask_dump_format():
    seq = InterleavedSequence([MediaSlot(0, 0), Text(9)], media_len=1)
    mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
    dump = format_mask_dump(mask, 1, "image")
    assert dump == "2 3 1 image\n110\n111\n"


# -- gated cross-attention layer ----------------------------------------------------


def xattn_oracle(hidden, kv, allow, p, a_width):
    """Loop-evaluated single-head gated cross-attention + gated FFN."""

    def mm(x, w):
        return [
            [sum(x[i][t] * w[t][j] for t in range(len(w))) for j in range(len(w[0]))]
            for i in range(len(x))
        ]

    def gelu(v):
        return 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))

    q, k, v = mm(hidden, p["wq"]), mm(kv, p["wk"]), mm(kv, p["wv"])
    scale = 1.0 / math.sqrt(a_width)
    out_rows = []
    for i in range(len(hidden)):
        scores = [
            sum(q[i][t] * k[j][t] for t in range(a_width)) * scale for j in range(len(kv))
        ]
        mx = max(s for s, ok in zip(scores, allow[i]) if ok)
        exps = [math.exp(s - mx) if ok else 0.0 for s, ok in zip(scores, allow[i])]
        z = sum(exps)
        probs = [e / z for e in exps]
        ctx = [sum(probs[j] * v[j][t] for j in range(len(kv))) for t in range(a_width)]
        out_rows.append(ctx)
    attn = mm(out_rows, p["wo"])
    ga = math.tanh(p["alpha_attn"])
    h1 = [[hv + ga * av for hv, av in zip(hr, ar)] for hr, ar in zip(hidden, attn)]
    mid = [[gelu(v) for v in row] for row in mm(h1, p["ffn.w_in"])]
    ffn = mm(mid, p["ffn.w_out"])
    gf = math.tanh(p["alpha_ffn"])
    return [[hv + gf * fv for hv, fv in zip(hr, fr)] for hr, fr in zip(h1, ffn)]


def make_layer(h=4, d=3, seed=11):
    """A layer under the prefix `xattn.` and its parameters by local name."""
    return GatedXAttn("xattn."), xattn_params(seeded_init(seed), "xattn.", h, d, 0.5, 0.5)


def layer_nodes(g, layer, params):
    return {layer.prefix + n: g.param(t) for n, t in params.items()}


def xattn(layer, params, hidden, kv, mask):
    """The layer's output for `hidden` attending to the `kv` rows, on a fresh graph."""
    g = Graph()
    return layer.forward_nodes(g, g.param(hidden), g.param(kv), mask, layer_nodes(g, layer, params)).t


def rows_of(t):
    return [t.data[i * t.cols : (i + 1) * t.cols] for i in range(t.rows)]


def test_gate_zero_identity_bit_exact():
    layer, params = make_layer()
    seq = insert_media_tokens([ImageMarker(0), 1, 2], media_len=1)
    mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
    hidden = Tensor.randn((3, 4), derive_seed(0, "hidden"))
    kv = Tensor.randn((2, 3), derive_seed(0, "feats"))
    g = Graph()
    kv_node = build_padded_kv(g, [g.param(kv)], pad_len=1, d_img=3)
    out = layer.forward_nodes(g, g.param(hidden), kv_node, mask, layer_nodes(g, layer, params))
    assert out.t.data == hidden.data


def test_zero_features_attn_branch_is_zero():
    layer, params = make_layer()
    params["alpha_attn"] = Tensor((1, 1), [1.3])  # open the attention gate only
    seq = insert_media_tokens([ImageMarker(0), 1], media_len=1)
    mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
    hidden = Tensor.randn((2, 4), derive_seed(1, "hidden"))
    out = xattn(layer, params, hidden, Tensor.zeros(3, 3), mask)
    assert out.data == hidden.data


def test_forward_matches_loop_oracle():
    rng = random.Random(23)
    layer, params = make_layer()
    params["alpha_attn"] = Tensor((1, 1), [0.7])
    params["alpha_ffn"] = Tensor((1, 1), [-0.4])
    seq = insert_media_tokens([ImageMarker(0), 1, 2], media_len=1)
    mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
    hidden = Tensor.randn((3, 4), derive_seed(2, "hidden"))
    kv_rows = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(2)] + [[0.0] * 3]
    out = xattn(layer, params, hidden, Tensor((3, 3), sum(kv_rows, [])), mask)
    p = {n: rows_of(t) for n, t in params.items()}
    p["alpha_attn"] = params["alpha_attn"].item()
    p["alpha_ffn"] = params["alpha_ffn"].item()
    want = xattn_oracle(rows_of(hidden), kv_rows, mask, p, params["wq"].cols)
    assert out.shape == (3, 4)
    worst = max(abs(a - b) for gr, wr in zip(rows_of(out), want) for a, b in zip(gr, wr))
    assert worst < 1e-10


def test_locality_image_content_invisible_before_its_run():
    layer, params = make_layer(h=4, d=3, seed=5)
    params["alpha_attn"] = Tensor((1, 1), [0.9])
    params["alpha_ffn"] = Tensor((1, 1), [0.5])
    seq = insert_media_tokens([1, ImageMarker(0), 2, ImageMarker(1), 3], media_len=2)
    mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
    hidden = Tensor.randn((len(seq), 4), derive_seed(3, "hidden"))
    feats0 = Tensor.randn((2, 3), derive_seed(3, "img0"))
    feats1a = Tensor.randn((2, 3), derive_seed(3, "img1a"))
    feats1b = Tensor.randn((2, 3), derive_seed(3, "img1b"))

    def run(f1):
        g = Graph()
        kv = build_padded_kv(g, [g.param(feats0), g.param(f1)], pad_len=1, d_img=3)
        return layer.forward_nodes(g, g.param(hidden), kv, mask, layer_nodes(g, layer, params)).t

    out_a, out_b = run(feats1a), run(feats1b)
    image1_run_start = 4  # positions 0..3 precede image 1's run
    for i in range(image1_run_start):
        assert rows_of(out_a)[i] == rows_of(out_b)[i]
    assert out_a.data != out_b.data  # later positions do see the change


def test_mask_kv_mismatch_rejected():
    layer, params = make_layer()
    seq = insert_media_tokens([ImageMarker(0), 1], media_len=1)
    mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
    with pytest.raises(DimensionError):
        xattn(layer, params, Tensor.zeros(2, 4), Tensor.zeros(5, 3), mask)
    with pytest.raises(DimensionError, match="mask shape"):  # one mask row fewer than hidden rows
        xattn(layer, params, Tensor.zeros(2, 4), Tensor.zeros(3, 3), mask[:1])


def test_layer_grad_check():
    layer, layer_params = make_layer(h=4, d=3, seed=31)
    layer_params["alpha_attn"] = Tensor((1, 1), [0.3])
    layer_params["alpha_ffn"] = Tensor((1, 1), [-0.6])
    seq = insert_media_tokens([ImageMarker(0), 1, 2], media_len=1)
    mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
    hidden = Tensor.randn((3, 4), derive_seed(4, "hidden"), 0.7)
    feats = Tensor.randn((2, 3), derive_seed(4, "feats"), 0.7)
    names = sorted(layer_params)

    def build(g, nodes):
        h, f = nodes[0], nodes[1]
        pnodes = {layer.prefix + n: node for n, node in zip(names, nodes[2:])}
        kv = build_padded_kv(g, [f], pad_len=1, d_img=3)
        out = layer.forward_nodes(g, h, kv, mask, pnodes)
        return dot(g, out, g.tanh(out))

    params = [hidden, feats] + [layer_params[n] for n in names]
    assert grad_check(build, params) < 1e-4


def test_branch_width_validation():
    with pytest.raises(ConfigError):
        xattn_params(seeded_init(0), "xattn.", 2, 2, 0.2, 0.5)
