"""Assembled model: composed gate-zero identity, loss masking, freezing,
smoke training, the loss-argmin probe, and checkpoint round-trips."""

import dataclasses
import hashlib
import math
import random
import tracemalloc
from array import array

import pytest

from evlm.errors import ConfigError, ContractViolationError, NonFiniteError, SequenceError
from evlm.fusion import ImageMarker, build_cross_mask_image, build_self_mask, insert_media_tokens
from evlm.layers import block
from evlm.model import (
    ALL_GROUPS,
    FusedModel,
    ModelConfig,
    caption_sequence,
    caption_tokens,
    freeze_stage,
    load_checkpoint,
    loss_probe,
    next_token_targets,
    save_checkpoint,
    smoke_config,
    synthetic_patches,
    train_smoke,
)
from evlm.moe import MoEConfig
from evlm.numerics import Graph, Node, Tensor, derive_seed, grad_check
from evlm.vision import EncoderConfig
from test_moe import RecordingNodes


def tiny_config(**overrides):
    base = dict(
        llm_layers=2,
        h_llm=8,
        heads=2,
        vocab=11,
        media_len=2,
        encoder=EncoderConfig(layers=2, patch_count=3, feature_dim=4, tap_window=2, num_taps=2),
        max_seq=24,
    )
    base.update(overrides)
    return ModelConfig(**base)


def rand_images(model, n, seed):
    enc = model.cfg.encoder
    return [
        Tensor.randn((enc.patch_count, enc.feature_dim), derive_seed(seed, f"img{i}"))
        for i in range(n)
    ]


def mixed_sequence(model, rng, num_images=2):
    items = []
    for i in range(num_images):
        items.append(rng.randrange(model.cfg.vocab))
        items.append(ImageMarker(i))
        items.append(rng.randrange(model.cfg.vocab))
    items.append(rng.randrange(model.cfg.vocab))
    return insert_media_tokens(items, media_len=model.cfg.media_len)


# -- composed forward ------------------------------------------------------------


def decoder_only_logits(model, seq):
    """The reference text decoder: the model's embeddings, decoder blocks,
    final norm and head, with no cross-attention layer between the blocks."""
    g = Graph()
    nodes = model.param_nodes(g)
    x = model._embed_stream(g, seq, nodes)
    self_mask = build_self_mask(seq)
    for t in range(model.cfg.llm_layers):
        x = block(g, x, nodes, f"llm.block{t}.", model.cfg.heads, self_mask)
    x = g.layer_norm(x, nodes["llm.ln_f.gain"], nodes["llm.ln_f.bias"])
    return g.matmul(x, nodes["llm.head"]).t


def test_gate_zero_identity_composed():
    model = FusedModel(tiny_config(), seed=3)
    rng = random.Random(0)
    for trial in range(3):
        seq = mixed_sequence(model, rng)
        images = rand_images(model, seq.num_images, trial)
        fused = model.forward(seq, images)
        text_only = decoder_only_logits(model, seq)
        assert fused.data == text_only.data  # bit-exact through zero gates


def test_no_images_reduces_to_text_decoder():
    model = FusedModel(tiny_config(), seed=4)
    seq = insert_media_tokens([1, 2, 3], media_len=model.cfg.media_len)
    fused = model.forward(seq, [])
    text_only = decoder_only_logits(model, seq)
    assert fused.data == text_only.data
    mask = build_cross_mask_image(seq, model.cfg.encoder.patch_count, model.cfg.pad_len)
    assert all(row == [True] * model.cfg.pad_len for row in mask)


def test_single_image_video_and_image_modes_agree():
    model, video_model = FusedModel(tiny_config(), seed=5), FusedModel(tiny_config(mask_mode="video"), seed=5)
    for m in (model, video_model):
        for name, t in m.params.items():
            if name.endswith(("alpha_attn", "alpha_ffn")):
                t.data[0] = 0.4  # open the gates so the masks actually matter
    seq = caption_sequence(model.cfg, 1)
    images = rand_images(model, 1, 9)
    out_img = model.forward(seq, images)
    out_vid = video_model.forward(seq, images)
    assert out_img.data == out_vid.data


def test_forward_golden_logits(tmp_path):
    # straight-line reference recorded after the oracle-checked first build
    import pathlib

    golden_path = pathlib.Path(__file__).parent / "data" / "golden_logits.txt"
    model = FusedModel(tiny_config(), seed=0)
    seq = insert_media_tokens(
        [1, ImageMarker(0), 4, 7, ImageMarker(1), 2], media_len=model.cfg.media_len
    )
    images = rand_images(model, 2, 123)
    logits = model.forward(seq, images)
    if not golden_path.exists():  # first verified run freezes the reference
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(
            " ".join(map(repr, logits.shape)) + "\n" + " ".join(map(repr, logits.data)) + "\n"
        )
    shape_line, data_line = golden_path.read_text().splitlines()
    assert tuple(int(s) for s in shape_line.split()) == logits.shape
    golden = [float(v) for v in data_line.split()]
    assert max(abs(a - b) for a, b in zip(logits.data, golden)) == 0.0


# -- loss and masking ---------------------------------------------------------------


def test_next_token_targets_masking():
    seq = insert_media_tokens([ImageMarker(0), 5, 6], media_len=2)
    targets, mask = next_token_targets(seq)
    # positions: slot0 slot1 text5 text6 ; predictions of 5 (from slot1) and 6
    assert mask == [False, True, True, False]
    assert targets[1] == 5 and targets[2] == 6


def test_loss_ignores_media_position_logits():
    model = FusedModel(tiny_config(), seed=6)
    seq = insert_media_tokens([ImageMarker(0), 5, 6], media_len=2)
    images = rand_images(model, 1, 1)
    logits = model.forward(seq, images)
    g = Graph()
    targets, mask = next_token_targets(seq)
    base = g.cross_entropy(g.param(logits), targets, mask).t.item()
    bent = logits.copy()
    v = model.cfg.vocab
    bent.data[0:v] = [x + 3.21 for x in bent.data[0:v]]  # slot-0 row is masked
    bent.data[-v:] = [x - 9.9 for x in bent.data[-v:]]  # final row predicts nothing
    g2 = Graph()
    assert g2.cross_entropy(g2.param(bent), targets, mask).t.item() == base


def test_pure_text_loss_equals_plain_lm_loss():
    model = FusedModel(tiny_config(), seed=7)
    tokens = [1, 4, 2, 9]
    seq = insert_media_tokens(tokens, media_len=model.cfg.media_len)
    got = model.loss(seq, [])
    logits = model.forward(seq, [])
    total = 0.0
    for i in range(len(tokens) - 1):
        row = logits.data[i * logits.cols : (i + 1) * logits.cols]
        top = max(row)
        z = sum(math.exp(x - top) for x in row)
        total += math.log(z) + top - row[tokens[i + 1]]
    assert abs(got - total / (len(tokens) - 1)) < 1e-10


def test_all_media_plus_one_text_scores_single_position():
    model = FusedModel(tiny_config(), seed=8)
    seq = insert_media_tokens([ImageMarker(0), 3], media_len=2)
    images = rand_images(model, 1, 2)
    logits = model.forward(seq, images)
    got = model.loss(seq, images)
    row = logits.data[logits.cols : 2 * logits.cols]  # last media slot predicts the lone text token
    top = max(row)
    want = math.log(sum(math.exp(x - top) for x in row)) + top - row[3]
    assert abs(got - want) < 1e-10


def test_loss_requires_text_predictions():
    model = FusedModel(tiny_config(), seed=9)
    seq = insert_media_tokens([ImageMarker(0)], media_len=2)
    with pytest.raises(ContractViolationError):
        model.loss(seq, rand_images(model, 1, 3))


def test_mixed_batch_loss_matches_masked_nll_oracle():
    model = FusedModel(tiny_config(), seed=14)
    rng = random.Random(44)
    for trial in range(3):
        seq = mixed_sequence(model, rng)
        images = rand_images(model, seq.num_images, 50 + trial)
        got = model.loss(seq, images)
        logits = model.forward(seq, images)
        targets, mask = next_token_targets(seq)
        total, count = 0.0, 0
        for i in range(len(seq)):
            if not mask[i]:
                continue
            row = logits.data[i * logits.cols : (i + 1) * logits.cols]
            top = max(row)
            z = sum(math.exp(x - top) for x in row)
            total += math.log(z) + top - row[targets[i]]
            count += 1
        assert abs(got - total / count) < 1e-10


# -- freezing ----------------------------------------------------------------------


def test_freeze_stage_tables():
    p1 = freeze_stage("pretrain_phase1")
    assert p1 == {
        "llm": False,
        "xattn": True,
        "vit_front": False,
        "vit_back_half": False,
        "vit_last_quarter": False,
        "media_tokens": True,
        "moe": False,
    }
    p2 = freeze_stage("pretrain_phase2")
    assert p2["vit_back_half"] and p2["vit_last_quarter"] and not p2["llm"]
    assert freeze_stage("continual") == p2
    sft = freeze_stage("sft")
    assert sft["moe"] and sft["vit_last_quarter"] and not sft["vit_back_half"]
    assert not sft["llm"]
    with pytest.raises(ConfigError):
        freeze_stage("warmup")


def open_model(cfg, seed):
    """Gates open and routers randomized, so every group reaches the loss."""
    model = FusedModel(cfg, seed=seed)
    for name, t in model.params.items():
        if name.endswith(("alpha_attn", "alpha_ffn")):
            t.data[0] = 0.5
        if name.endswith("moe.router"):
            t.data[:] = Tensor.randn(t.shape, derive_seed(seed + 1, name), 0.5).data
    return model


def freeze_test_model():
    cfg = tiny_config(
        llm_layers=2,
        encoder=EncoderConfig(layers=4, patch_count=3, feature_dim=4, tap_window=4, num_taps=2),
        moe=MoEConfig(n_replicas=2, segments=2, top_k=2),
        vocab=11,
        max_seq=24,
    )
    return open_model(cfg, seed=10)


def test_groups_partition_all_parameters():
    model = freeze_test_model()
    groups = {g: [n for n, group in model.group_of.items() if group == g] for g in ALL_GROUPS}
    names = [n for members in groups.values() for n in members]
    assert sorted(names) == sorted(model.params)
    for g in ("llm", "xattn", "vit_front", "vit_back_half", "vit_last_quarter", "media_tokens", "moe"):
        assert groups[g], f"group {g} unexpectedly empty"


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("mode", ["image", "video"])
@pytest.mark.parametrize(
    "moe",
    [
        None,
        MoEConfig(n_replicas=2, segments=2, top_k=4),
        MoEConfig(n_replicas=2, segments=2, top_k=4, use_world_expert=False),
    ],
    ids=["dense", "moe-world", "moe-no-world"],
)
def test_one_forward_reads_every_parameter_and_no_other_name(moe, mode, heads):
    # top_k = N*M makes every expert active; a parameter no forward reads is
    # trained at zero gradient and written into every checkpoint
    model = FusedModel(tiny_config(mask_mode=mode, moe=moe, heads=heads), seed=21)
    seq = insert_media_tokens([1, ImageMarker(0), 4, 7, ImageMarker(1), 2, 9], media_len=model.cfg.media_len)
    g = Graph()
    nodes = RecordingNodes(model.param_nodes(g))
    model.forward_nodes(g, seq, model.encode_images(g, rand_images(model, 2, 23), nodes), nodes)
    assert nodes.asked == set(model.params)


@pytest.mark.parametrize(
    "layers, want", [(4, (4, 2, 2, 3)), (5, (5, 2, 2, 3)), (8, (8, 4, 4, 6)), (12, (12, 6, 6, 9))]
)
def test_frozen_vision_blocks_per_stage_are_pinned(layers, want):
    encoder = EncoderConfig(layers=layers, patch_count=3, feature_dim=4, tap_window=2, num_taps=2)
    model = FusedModel(tiny_config(encoder=encoder), seed=0)
    stages = ("pretrain_phase1", "pretrain_phase2", "continual", "sft")
    assert tuple(model.frozen_vision_blocks(freeze_stage(stage)) for stage in stages) == want


@pytest.mark.parametrize("stage", ["pretrain_phase1", "pretrain_phase2", "continual", "sft"])
def test_one_step_freezing_correctness(stage):
    model = freeze_test_model()
    rng = random.Random(20)
    seq = mixed_sequence(model, rng, num_images=1)
    batch = [(seq, rand_images(model, 1, 21))]
    before = {name: list(t.data) for name, t in model.params.items()}
    trainable = freeze_stage(stage)
    model.sgd_step(batch, lr=1.0, trainable_groups=trainable)
    changed_groups = set()
    for name, t in model.params.items():
        group = model.group_of[name]
        if t.data != before[name]:
            assert trainable[group], f"frozen {group} parameter {name} changed"
            changed_groups.add(group)
    expected = {g for g, on in trainable.items() if on}
    assert changed_groups == expected


def _param_snapshot(model):
    return {name: list(t.data) for name, t in model.params.items()}


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf])
def test_sgd_step_rejects_non_finite_lr_without_touching_parameters(lr):
    model = freeze_test_model()
    batch = [(mixed_sequence(model, random.Random(20), num_images=1), rand_images(model, 1, 21))]
    before = _param_snapshot(model)
    with pytest.raises(ConfigError):
        model.sgd_step(batch, lr=lr, trainable_groups=freeze_stage("pretrain_phase1"))
    assert _param_snapshot(model) == before


def test_sgd_step_with_a_non_finite_gradient_changes_no_parameter(monkeypatch):
    model = freeze_test_model()
    batch = [(mixed_sequence(model, random.Random(20), num_images=1), rand_images(model, 1, 21))]
    trainable = freeze_stage("sft")
    n_trainable = sum(trainable[model.group_of[name]] for name in model.params)
    original_grad = Graph.grad
    calls = []

    def grad_with_inf_last(self, node):
        grad = original_grad(self, node)
        calls.append(node)
        if len(calls) == n_trainable:  # the last trainable parameter's gradient
            grad.data[0] = math.inf
        return grad

    monkeypatch.setattr(Graph, "grad", grad_with_inf_last)
    before = _param_snapshot(model)
    with pytest.raises(NonFiniteError):
        model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    assert len(calls) == n_trainable
    assert _param_snapshot(model) == before


def test_sgd_step_rejects_an_unknown_group_without_touching_parameters():
    model = freeze_test_model()
    batch = [(mixed_sequence(model, random.Random(20), num_images=1), rand_images(model, 1, 21))]
    trainable = freeze_stage("sft")
    trainable["vit_last_quater"] = trainable.pop("vit_last_quarter")  # a typo that would freeze the group
    before = _param_snapshot(model)
    with pytest.raises(ConfigError, match="vit_last_quater"):
        model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    assert _param_snapshot(model) == before


# -- the frozen vision prefix: sgd_step runs it once per image --------------------------

# name -> (config overrides, stage, leading vision blocks the stage leaves frozen)
_PREFIX_CASES = {
    "moe-sft-image": (dict(moe=MoEConfig(n_replicas=2, segments=2, top_k=2, aux_loss_weight=0.01)), "sft", 3),
    "dense-phase2-video": (dict(mask_mode="video"), "pretrain_phase2", 2),
    "dense-continual-image": ({}, "continual", 2),
    "dense-phase1-image": ({}, "pretrain_phase1", 4),
}
_VISION_BLOCK_MATMULS = 8  # q, k, v, q·kᵀ, ·v, wo, w_in, w_out

_PREFIX_PARAM_SHA256 = {
    "moe-sft-image": "495b07a40135fe45514d3731732a15f8569cb942d6610dae1665f17949bce169",
    "dense-phase2-video": "16721e43df9d31315fc98fd82a352690420aa34e50b82c24daeedb5a5f909da2",
    "dense-continual-image": "5edd3df76db78ed8589ae3c67b2fe4b070c97a241023844e8a9140cb75ea7fa0",
    "dense-phase1-image": "27123638d39b45d52dbe8561c6f740fdb73fc426d72f65668ddb60cb81b829e1",
}


def prefix_case(name):
    """An open-gated model with a 4-block encoder, a two-sample batch over
    three distinct raw images, and the stage's trainable groups."""
    overrides, stage, _ = _PREFIX_CASES[name]
    cfg = tiny_config(
        encoder=EncoderConfig(layers=4, patch_count=3, feature_dim=4, tap_window=4, num_taps=2), **overrides
    )
    model = open_model(cfg, seed=40)
    rng = random.Random(41)
    batch = [
        (mixed_sequence(model, rng, num_images=2), rand_images(model, 2, 42)),
        (mixed_sequence(model, rng, num_images=1), rand_images(model, 1, 43)),
    ]
    return model, batch, freeze_stage(stage)


def param_digest(model):
    """sha256 of every parameter's float bytes, so a -0.0 differs from 0.0."""
    data = array("d")
    for name in sorted(model.params):
        data.extend(model.params[name].data)
    return hashlib.sha256(data.tobytes()).hexdigest()


def counting_matmuls(monkeypatch):
    calls = []
    matmul = Graph.matmul

    def counted(self, a, b):
        calls.append(1)
        return matmul(self, a, b)

    monkeypatch.setattr(Graph, "matmul", counted)
    return calls


def test_a_step_never_stacks_the_embedding_tables(monkeypatch):
    # each stream gathers straight from [llm.tok_emb; media.table], one index per position
    model, batch, trainable = prefix_case("dense-continual-image")
    gathers = []
    rows = Graph.rows

    def counted(self, parts, indices=None):
        if any(p.t is model.params["llm.tok_emb"] for p in parts):
            gathers.append(indices)
        return rows(self, parts, indices)

    monkeypatch.setattr(Graph, "rows", counted)
    model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    assert len(batch) == 2 and len(gathers) == 2
    assert [len(indices) for indices in gathers] == [len(seq) for seq, _ in batch]


@pytest.mark.parametrize("case", list(_PREFIX_CASES))
def test_parameters_after_three_steps_are_pinned(case):
    model, batch, trainable = prefix_case(case)
    for _ in range(3):
        model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    assert param_digest(model) == _PREFIX_PARAM_SHA256[case]


@pytest.mark.parametrize("case", list(_PREFIX_CASES))
def test_a_repeated_step_skips_the_frozen_prefix_blocks(monkeypatch, case):
    frozen = _PREFIX_CASES[case][2]
    model, batch, trainable = prefix_case(case)
    calls = counting_matmuls(monkeypatch)
    counts = []
    for _ in range(3):
        del calls[:]
        model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
        counts.append(len(calls))
    images = sum(len(imgs) for _, imgs in batch)
    assert counts[0] - counts[1] == frozen * _VISION_BLOCK_MATMULS * images
    assert counts[1] == counts[2]


def _negative_zero(model, batch):
    t = model.params["vision.block0.ln1.bias"]
    assert repr(t.data[0]) == "0.0"
    t.data[0] = -0.0
    return 3  # every image's key changed


def _one_ulp(model, batch):
    t = model.params["vision.block1.w_in"]
    t.data[5] = math.nextafter(t.data[5], math.inf)
    return 3


def _patch_entry(model, batch):
    patches = batch[0][1][1]
    patches.data[2] = math.nextafter(patches.data[2], -math.inf)
    return 1  # only this image's key changed


@pytest.mark.parametrize("edit", [_negative_zero, _one_ulp, _patch_entry], ids=["negative-zero", "one-ulp", "patch"])
def test_a_step_after_an_in_place_edit_equals_the_step_on_a_fresh_model(monkeypatch, edit):
    model, batch, trainable = prefix_case("moe-sft-image")
    frozen = _PREFIX_CASES["moe-sft-image"][2]
    model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    calls = counting_matmuls(monkeypatch)
    model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    all_hits = len(calls)
    misses = edit(model, batch)
    fresh = FusedModel(model.cfg, seed=0)
    for name, t in fresh.params.items():
        t.data[:] = model.params[name].data
    del calls[:]
    loss = model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    assert len(calls) == all_hits + frozen * _VISION_BLOCK_MATMULS * misses
    assert repr(loss) == repr(fresh.sgd_step(batch, lr=0.5, trainable_groups=trainable))
    assert param_digest(model) == param_digest(fresh)


@pytest.mark.parametrize("case", ["moe-sft-image", "dense-phase2-video"])
def test_a_forward_only_call_between_steps_leaves_the_next_step_unchanged(case):
    # the forward-only calls encode with no frozen prefix, through the same cache as the steps
    model, batch, trainable = prefix_case(case)
    model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    model.loss(*batch[0])
    model.losses([seq for seq, _ in batch[1:]], batch[1][1])
    fresh = FusedModel(model.cfg, seed=0)
    for name, t in fresh.params.items():
        t.data[:] = model.params[name].data
    loss = model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    assert repr(loss) == repr(fresh.sgd_step(batch, lr=0.5, trainable_groups=trainable))
    assert param_digest(model) == param_digest(fresh)


# -- smoke training and probe ----------------------------------------------------------


def quick_smoke_cfg():
    return ModelConfig(
        llm_layers=2,
        h_llm=8,
        heads=2,
        vocab=6,
        media_len=2,
        encoder=EncoderConfig(layers=2, patch_count=3, feature_dim=4, tap_window=2, num_taps=2),
        max_seq=16,
    )


def test_train_smoke_zero_steps():
    result = train_smoke(quick_smoke_cfg(), steps=0, seed=0, classes=2, per_class=1)
    assert len(result.losses) == 1
    assert result.losses[0] > 0


def test_train_smoke_zero_lr_flat():
    result = train_smoke(quick_smoke_cfg(), steps=3, seed=0, lr=0.0, classes=2, per_class=1)
    assert len(result.losses) == 4
    assert len(set(result.losses)) == 1


def test_train_smoke_reduces_loss():
    result = train_smoke(quick_smoke_cfg(), steps=25, seed=1, lr=0.5, classes=2, per_class=1)
    assert result.losses[-1] < result.losses[0]


@pytest.mark.parametrize("stage", ["pretrain_phase1", "pretrain_phase2", "continual", "sft"])
def test_train_smoke_precomputes_taps_only_when_the_whole_encoder_is_frozen(monkeypatch, stage):
    calls = []
    encode = FusedModel.encode_images_tensors

    def counted(self, images):
        calls.append(len(images))
        return encode(self, images)

    monkeypatch.setattr(FusedModel, "encode_images_tensors", counted)
    train_smoke(quick_smoke_cfg(), steps=1, seed=0, stage=stage, classes=2, per_class=1)
    assert calls == ([1, 1] if stage == "pretrain_phase1" else [])


def test_precomputed_taps_path_matches_full_graph_path():
    # the frozen-vision fast path must not change the training computation
    cfg = quick_smoke_cfg()
    model_a = FusedModel(cfg, seed=4)
    model_b = FusedModel(cfg, seed=4)
    seq = caption_sequence(cfg, 1)
    patches = synthetic_patches(cfg.encoder, 1, 0, seed=4)
    trainable = freeze_stage("pretrain_phase1")
    loss_a = model_a.sgd_step([(seq, [patches])], lr=0.3, trainable_groups=trainable)
    taps = model_b.encode_images_tensors([patches])
    loss_b = model_b.sgd_step([(seq, taps)], lr=0.3, trainable_groups=trainable, taps_precomputed=True)
    assert loss_a == loss_b
    for name in model_a.params:
        assert model_a.params[name].data == model_b.params[name].data, name


def test_train_smoke_moe_sft_with_aux_weight_reduces_loss():
    cfg = ModelConfig(
        llm_layers=2,
        h_llm=8,
        heads=2,
        vocab=6,
        media_len=2,
        moe=MoEConfig(n_replicas=2, segments=2, top_k=2, aux_loss_weight=0.01),
        encoder=EncoderConfig(layers=2, patch_count=3, feature_dim=4, tap_window=2, num_taps=2),
        max_seq=16,
    )
    result = train_smoke(cfg, steps=15, seed=3, lr=0.5, stage="sft", classes=2, per_class=1)
    assert result.losses[-1] < result.losses[0]
    assert result.model.last_routing_stats is not None
    for stats in result.model.last_routing_stats:
        assert sum(stats.assignments) == stats.tokens * cfg.moe.top_k


def test_train_smoke_vocab_guard():
    with pytest.raises(ConfigError):
        train_smoke(quick_smoke_cfg(), steps=1, seed=0, classes=5)


def test_probe_single_candidate():
    model = FusedModel(quick_smoke_cfg(), seed=2)
    patches = synthetic_patches(model.cfg.encoder, 0, 0, seed=2)
    best, losses = loss_probe(model, patches, [caption_tokens(0)])
    assert best == 0 and len(losses) == 1


def test_probe_empty_candidates_rejected():
    model = FusedModel(quick_smoke_cfg(), seed=2)
    patches = synthetic_patches(model.cfg.encoder, 0, 0, seed=2)
    with pytest.raises(ConfigError):
        loss_probe(model, patches, [])


def test_probe_gate_zero_is_image_independent():
    model = FusedModel(quick_smoke_cfg(), seed=3)
    candidates = [caption_tokens(c) for c in range(2)]
    a = loss_probe(model, synthetic_patches(model.cfg.encoder, 0, 0, 3), candidates)
    b = loss_probe(model, synthetic_patches(model.cfg.encoder, 1, 5, 3), candidates)
    assert a == b  # pure text prior before any training


@pytest.mark.parametrize(
    "overrides",
    [{}, {"mask_mode": "video"}, {"moe": MoEConfig(n_replicas=2, segments=2, top_k=2)}],
    ids=["image", "video", "moe"],
)
def test_probe_losses_equal_per_candidate_loss(monkeypatch, overrides):
    # one forward per shared context must score every candidate bit-exactly
    model = open_model(tiny_config(**overrides), seed=6)
    patches = rand_images(model, 1, 7)[0]
    rng = random.Random(8)
    # a small alphabet and mixed lengths, so contexts are shared in groups
    candidates = [[rng.randrange(3) for _ in range(rng.randint(1, 4))] for _ in range(30)]
    seqs = [insert_media_tokens([ImageMarker(0), *c], media_len=model.cfg.media_len) for c in candidates]
    want = [model.loss(seq, [patches]) for seq in seqs]

    forwards = []
    forward_nodes = FusedModel.forward_nodes

    def counted(self, g, seq, *args, **kwargs):
        forwards.append(seq)
        return forward_nodes(self, g, seq, *args, **kwargs)

    monkeypatch.setattr(FusedModel, "forward_nodes", counted)
    best, losses = loss_probe(model, patches, candidates)
    assert losses == want
    assert best == min(range(len(want)), key=lambda i: (want[i], i))
    contexts = {tuple(c[:-1]) for c in candidates}
    assert len(forwards) == len(contexts) < len(candidates)


_GRADIENT_SHA256 = {
    "image-dense": "e2866f662e57de9a4f1c9f43963feb831ee0d70c008a6873d288db905d4a5201",
    "image-moe": "f139d3e9bd521666a95bf04dd46adc6177a04f52b32371a668ea84dd87b0afdb",
    "video-dense": "888fb24657593f4a36bc05b438626d45c6506cebf0abe9aebd4a9024854553bb",
    "video-moe": "e86f50b2d6e67bb030e21854d06b1fcbcdcdbcc698506d2a656049f71faa18c4",
    "image-dense-heads1": "16796b0e1c3de49347a4091e45901755eea3ebe82c06334a2fed7477be546970",
    "image-moe-heads1": "e3bce368be625a1fb57051f2baee04be3de3c605e36415d7a920f9fc0faa121b",
    "video-dense-heads1": "1dc72b8e68dae5088f03a7724f012eb5d5e1a943b4c371de4c41da0eecbcbdd5",
    "video-moe-heads1": "faa0d3bcfcf03c132d9cc26e9513f79c4ac8378db153430b207a107284b56db5",
    "image-dense-heads4": "2934a83ada1351720e21d1f141900f2fcc2e4a6a5100e18d45aeab6a57b91ff8",
    "image-moe-heads4": "217437066d836f2e0af4b1627f6e844ca5c6a09b41665230b6d63e747044efff",
    "video-dense-heads4": "8e4b1885d9499ad41de2b9bc267120736926f5aaab36983c55f20152a933eb6b",
    "video-moe-heads4": "3e733f4aa68ec6fa47b7ee1a8aec6aa69ffc55cc8acd9181d0d7c7d9bb53db7f",
    "image-dense-heads8": "0632889060e41b2ba5ae68bccceb96d4f1d35d671d0914a1f80f2dc1173b9331",
    "image-moe-heads8": "0b512e390c92c7b2fdb61bfbe54dd20a3835789d89d47e079b867a63bc20b27e",
    "video-dense-heads8": "753c23823470e2105295a40b7caf030c9cf94a7096c5a9159fee3fd37ca1d033",
    "video-moe-heads8": "abe04a4c47f009078c8a206774e82c30e4dc22722299d39d57a3c419e2319777",
}


@pytest.mark.parametrize(
    "mode, heads",
    [
        pytest.param(mode, heads, id=mode + ("" if heads == 2 else f"-heads{heads}"))
        for heads in (2, 1, 4, 8)
        for mode in ("image", "video")
    ],
)
@pytest.mark.parametrize("moe", [None, MoEConfig(n_replicas=2, segments=2, top_k=2)], ids=["dense", "moe"])
def test_parameter_gradients_are_pinned(mode, moe, heads):
    # every parameter's gradient, llm.tok_emb included, which no stage trains;
    # heads=8 makes the decoder's heads 1 wide (h_llm=8), so q·kᵀ takes mm_data's k == 1 path
    model = FusedModel(tiny_config(mask_mode=mode, moe=moe, heads=heads), seed=21)
    for name, t in model.params.items():
        if name.endswith(("alpha_attn", "alpha_ffn")):
            t.data[0] = 0.3
        if name.endswith("moe.router"):
            t.data[:] = Tensor.randn(t.shape, derive_seed(22, name), 0.5).data
    seq = insert_media_tokens([1, ImageMarker(0), 4, 7, ImageMarker(1), 2, 9], media_len=model.cfg.media_len)
    images = rand_images(model, 2, 23)
    g = Graph()
    nodes = model.param_nodes(g)
    logits = model.forward_nodes(g, seq, model.encode_images(g, images, nodes), nodes)
    g.backward(model.loss_nodes(g, logits, seq))
    grads = repr([(name, g.grad(nodes[name]).data) for name in sorted(model.params)])
    key = f"{mode}-{'dense' if moe is None else 'moe'}" + ("" if heads == 2 else f"-heads{heads}")
    assert hashlib.sha256(grads.encode()).hexdigest() == _GRADIENT_SHA256[key]


_SMOKE_PINS = {
    "dense": (["1.71442822622684", "1.7519631769074575", "1.6371396625691021"], None),
    "moe": (
        ["1.72442822622684", "1.7586583418529314", "1.6309041344508304"],
        [
            (10, [4, 4, 6, 6], ["2.499924327566852", "2.4999241590394687", "2.500074308064926", "2.5000772053287528"]),
            (10, [7, 0, 5, 8], ["2.4991167357863833", "2.4991167357863833", "2.4987614562994076", "2.5030050721278254"]),
        ],
    ),
}


@pytest.mark.parametrize(
    "moe", [None, MoEConfig(n_replicas=2, segments=2, top_k=2, aux_loss_weight=0.01)], ids=["dense", "moe"]
)
def test_train_smoke_runs_one_backward_per_step(monkeypatch, moe):
    backward = Graph.backward
    calls = []

    def counted(self, root):
        calls.append(root)
        return backward(self, root)

    monkeypatch.setattr(Graph, "backward", counted)
    cfg = dataclasses.replace(quick_smoke_cfg(), moe=moe)
    stage = "pretrain_phase1" if moe is None else "sft"  # frozen-vision fast path, in-graph vision
    result = train_smoke(cfg, steps=2, seed=5, stage=stage, classes=2, per_class=1)
    assert len(calls) == 2
    stats = result.model.last_routing_stats
    got_stats = None if stats is None else [(s.tokens, s.assignments, [repr(p) for p in s.prob_sums]) for s in stats]
    assert ([repr(v) for v in result.losses], got_stats) == _SMOKE_PINS["dense" if moe is None else "moe"]


def test_probe_checks_candidates_that_share_a_context():
    model = FusedModel(tiny_config(), seed=2)
    patches = rand_images(model, 1, 3)[0]
    with pytest.raises(SequenceError):  # the out-of-vocabulary token is never embedded
        loss_probe(model, patches, [[0, 1, 2], [0, 1, model.cfg.vocab]])


@pytest.mark.parametrize("media_len", [1, 3])
def test_stream_with_other_media_len_than_the_model_rejected(media_len):
    model = FusedModel(tiny_config(), seed=2)  # media_len=2
    seq = insert_media_tokens([ImageMarker(0), 1, 2], media_len=media_len)
    with pytest.raises(SequenceError) as exc:
        model.loss(seq, rand_images(model, 1, 3))
    assert f"{media_len} media slots" in str(exc.value) and "model 2" in str(exc.value)


# -- checkpoints ---------------------------------------------------------------------


def test_checkpoint_write_failing_partway_keeps_the_previous_file(tmp_path, monkeypatch):
    import evlm.model

    path = tmp_path / "model.ckpt"
    save_checkpoint(FusedModel(tiny_config(), seed=1), str(path))
    before = path.read_bytes()

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(evlm.model, "open", lambda *a, **kw: HalfWrite(open(*a, **kw)), raising=False)
    with pytest.raises(OSError):
        save_checkpoint(FusedModel(tiny_config(), seed=2), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = freeze_test_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.cfg == model.cfg
    assert set(loaded.params) == set(model.params)
    for name, t in model.params.items():
        assert loaded.params[name].data == t.data
        assert loaded.group_of[name] == model.group_of[name]


@pytest.mark.parametrize("moe", [None, MoEConfig(n_replicas=2, segments=2, top_k=2)], ids=["dense", "moe"])
def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch, moe):
    model = open_model(tiny_config(moe=moe), seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    seq, images = caption_sequence(model.cfg, 1), rand_images(model, 1, 13)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random init")

    monkeypatch.setattr(Tensor, "randn", no_draws)
    loaded = load_checkpoint(str(path))
    assert loaded.cfg == model.cfg
    assert {n: t.data for n, t in loaded.params.items()} == {n: t.data for n, t in model.params.items()}
    assert loaded.loss(seq, images) == model.loss(seq, images)  # no stale copy of a parameter survives


def _edit_head_data(edit):
    def corrupt(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("param llm llm.head ")) + 1
        return lines[:i] + [" ".join(edit(lines[i].split()))] + lines[i + 1 :]

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _edit_head_data(lambda values: values[: len(values) // 2]),
        _edit_head_data(lambda values: ["nan", *values[1:]]),
        lambda lines: lines[:-1],  # no trailing end line
        lambda lines: [line for line in lines if not line.startswith("config h_llm=")],
        lambda lines: [line.replace("config heads=2", "config heads=0") for line in lines],
        lambda lines: [line.replace("config moe.enabled=0", "config moe.enabled=true") for line in lines],
        lambda lines: [line.replace("mask_mode=image", "mask_mode=image\nconfig mask_mode=video") for line in lines],
        lambda lines: [lines[0], "meta seed=1", "meta seed=2", *lines[1:]],
    ],
    ids=[
        "short_data",
        "nan",
        "no_end",
        "missing_config_key",
        "zero_heads",
        "flag_not_0_or_1",
        "repeated_config_key",
        "repeated_meta_key",
    ],
)
def test_checkpoint_rejects_malformed(tmp_path, corrupt):
    path = tmp_path / "model.ckpt"
    save_checkpoint(FusedModel(tiny_config(), seed=1), str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(corrupt(lines)) + "\n")
    with pytest.raises(ConfigError):
        load_checkpoint(str(path))


_SMOKE_CONFIG_LINES = [
    "config llm_layers=2",
    "config h_llm=16",
    "config heads=2",
    "config vocab=12",
    "config media_len=8",
    "config r_xc=0.2",
    "config r_xf=0.5",
    "config mask_mode=image",
    "config pad_len=1",
    "config ffn_mult=4",
    "config max_seq=32",
    "config encoder.layers=4",
    "config encoder.patch_count=5",
    "config encoder.feature_dim=8",
    "config encoder.tap_window=4",
    "config encoder.num_taps=2",
    "config moe.enabled=0",
]


@pytest.mark.parametrize(
    "overrides, want",
    [
        ({}, _SMOKE_CONFIG_LINES),
        (
            {"moe": MoEConfig(n_replicas=4, segments=4, top_k=4, aux_loss_weight=0.01)},
            _SMOKE_CONFIG_LINES[:-1]
            + [
                "config moe.enabled=1",
                "config moe.n_replicas=4",
                "config moe.segments=4",
                "config moe.top_k=4",
                "config moe.use_world_expert=1",
                "config moe.aux_loss_weight=0.01",
            ],
        ),
        (
            {"mask_mode": "video", "max_seq": 64},
            [
                line.replace("mask_mode=image", "mask_mode=video").replace("max_seq=32", "max_seq=64")
                for line in _SMOKE_CONFIG_LINES
            ],
        ),
    ],
    ids=["smoke", "moe", "video"],
)
def test_checkpoint_config_lines_are_pinned(tmp_path, overrides, want):
    path = tmp_path / "model.ckpt"
    save_checkpoint(FusedModel(dataclasses.replace(smoke_config(), **overrides), seed=0), str(path))
    assert [line for line in path.read_text().splitlines() if line.startswith("config ")] == want


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ConfigError):
        load_checkpoint(str(path))


# -- decoder block vs a loop-evaluated oracle ---------------------------------------


def decoder_block_oracle(x, p, heads, self_mask, eps=1e-5):
    """Nested-loop pre-norm block: multi-head causal attention then gelu FFN."""

    def mm(a, w):
        return [
            [sum(a[i][t] * w[t][j] for t in range(len(w))) for j in range(len(w[0]))]
            for i in range(len(a))
        ]

    def ln(rows, gain, bias):
        out = []
        for row in rows:
            d = len(row)
            mu = sum(row) / d
            var = sum((v - mu) ** 2 for v in row) / d
            inv = 1.0 / math.sqrt(var + eps)
            out.append([(v - mu) * inv * g + b for v, g, b in zip(row, gain, bias)])
        return out

    n, h = len(x), len(x[0])
    hd = h // heads
    hn = ln(x, p["ln1.gain"], p["ln1.bias"])
    q, k, v = mm(hn, p["wq"]), mm(hn, p["wk"]), mm(hn, p["wv"])
    merged = [[0.0] * h for _ in range(n)]
    for head in range(heads):
        lo = head * hd
        for i in range(n):
            scores = []
            for j in range(n):
                s = sum(q[i][lo + t] * k[j][lo + t] for t in range(hd)) / math.sqrt(hd)
                scores.append(s)
            mx = max(s for s, ok in zip(scores, self_mask[i]) if ok)
            exps = [math.exp(s - mx) if ok else 0.0 for s, ok in zip(scores, self_mask[i])]
            z = sum(exps)
            for t in range(hd):
                merged[i][lo + t] = sum(exps[j] / z * v[j][lo + t] for j in range(n))
    x1 = [[xv + av for xv, av in zip(xr, ar)] for xr, ar in zip(x, mm(merged, p["wo"]))]
    hn = ln(x1, p["ln2.gain"], p["ln2.bias"])
    mid = [
        [0.5 * u * (1.0 + math.erf(u / math.sqrt(2.0))) for u in row]
        for row in mm(hn, p["w_in"])
    ]
    ffn = mm(mid, p["w_out"])
    return [[xv + fv for xv, fv in zip(xr, fr)] for xr, fr in zip(x1, ffn)]


def test_decoder_block_matches_loop_oracle():
    model = FusedModel(tiny_config(), seed=17)
    seq = insert_media_tokens([1, 2, 3, 4], media_len=2)
    self_mask = build_self_mask(seq)
    x = Tensor.randn((4, 8), derive_seed(17, "x"))
    g = Graph()
    nodes = model.param_nodes(g)
    out = block(g, g.param(x), nodes, "llm.block0.", model.cfg.heads, self_mask).t
    nested = lambda t: [t.data[i * t.cols : (i + 1) * t.cols] for i in range(t.rows)]
    p = {
        name.removeprefix("llm.block0."): nested(model.params[name])
        for name in model.params
        if name.startswith("llm.block0.")
    }
    for key in ("ln1.gain", "ln1.bias", "ln2.gain", "ln2.bias"):
        p[key] = p[key][0]
    want = decoder_block_oracle(nested(x), p, heads=2, self_mask=self_mask)
    assert out.shape == (4, 8)
    worst = max(abs(a - b) for gr, wr in zip(nested(out), want) for a, b in zip(gr, wr))
    assert worst < 1e-10


# -- gradients through the whole stack --------------------------------------------------


def test_end_to_end_grad_check_sampled():
    cfg = ModelConfig(
        llm_layers=2,
        h_llm=8,
        heads=2,
        vocab=11,
        media_len=2,
        encoder=EncoderConfig(layers=1, patch_count=2, feature_dim=4, tap_window=1, num_taps=1),
        max_seq=16,
    )
    model = FusedModel(cfg, seed=12)
    for name, t in model.params.items():
        if name.endswith(("alpha_attn", "alpha_ffn")):
            t.data[0] = 0.3
    seq = insert_media_tokens([ImageMarker(0), 4, 7], media_len=2)
    images = rand_images(model, 1, 30)
    names = sorted(model.params)

    def build(g, nodes):
        nmap = dict(zip(names, nodes))
        taps = model.encode_images(g, images, nmap)
        logits = model.forward_nodes(g, seq, taps, nmap)
        return model.loss_nodes(g, logits, seq)

    err = grad_check(build, [model.params[n] for n in names], sample=2, seed=0)
    assert err < 1e-4


def test_model_with_moe_grad_check_sampled():
    cfg = ModelConfig(
        llm_layers=1,
        h_llm=8,
        heads=2,
        vocab=11,
        media_len=2,
        moe=MoEConfig(n_replicas=2, segments=2, top_k=2),
        encoder=EncoderConfig(layers=1, patch_count=2, feature_dim=4, tap_window=1, num_taps=1),
        max_seq=16,
    )
    model = FusedModel(cfg, seed=13)
    for name, t in model.params.items():
        if name.endswith(("alpha_attn", "alpha_ffn")):
            t.data[0] = 0.4
        if name.endswith("moe.router"):
            t.data[:] = Tensor.randn(t.shape, derive_seed(13, name), 0.8).data
    seq = insert_media_tokens([ImageMarker(0), 4, 7], media_len=2)
    images = rand_images(model, 1, 31)
    names = sorted(model.params)

    def build(g, nodes):
        nmap = dict(zip(names, nodes))
        taps = model.encode_images(g, images, nmap)
        logits = model.forward_nodes(g, seq, taps, nmap)
        return model.loss_nodes(g, logits, seq)

    err = grad_check(build, [model.params[n] for n in names], sample=2, seed=1)
    assert err < 1e-4


# -- step memory: backward frees the tape as it sweeps ------------------------------------


def smoke_loss(stage, moe=None):
    """A graph holding _batch_loss on train_smoke's first two samples (one per
    class) of the smoke config under a stage, built as sgd_step builds it."""
    model = FusedModel(dataclasses.replace(smoke_config(), moe=moe), seed=7)
    trainable = freeze_stage(stage)
    frozen = model.frozen_vision_blocks(trainable)
    vision_frozen = frozen == model.cfg.encoder.layers
    batch = []
    for c in range(2):
        patches = synthetic_patches(model.cfg.encoder, c, 0, 7)
        imgs = model.encode_images_tensors([patches]) if vision_frozen else [patches]
        batch.append((caption_sequence(model.cfg, c), imgs))
    g = Graph()
    return g, model._batch_loss(g, model.param_nodes(g), batch, vision_frozen, frozen)


@pytest.mark.parametrize(
    "stage, moe",
    [("pretrain_phase1", None), ("sft", MoEConfig(n_replicas=2, segments=2, top_k=2))],
    ids=["dense", "moe"],
)
def test_closures_hold_no_node_and_backward_keeps_leaf_gradients_only(stage, moe):
    g, loss = smoke_loss(stage, moe)
    cells = [c.cell_contents for fn in g._bwd if fn is not None for c in fn.__closure__ or ()]
    held = [v for c in cells for v in (c if isinstance(c, (list, tuple)) else [c])]
    assert not any(isinstance(v, Node) for v in held)
    leaves = {i for i, fn in enumerate(g._bwd) if fn is None}
    g.backward(loss)
    kept = {i for i, grad in enumerate(g._grads) if grad is not None}
    assert kept and kept <= leaves


def test_backward_frees_the_forward_tape_as_it_sweeps():
    # a tape that keeps every node's gradient and every forward value to the
    # end of backward rises by 0.83x the forward's allocation here; this one
    # by 0.07x
    tracemalloc.start()
    try:
        g, loss = smoke_loss("pretrain_phase1")
        forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - forward <= 0.25 * forward
