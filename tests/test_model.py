"""Assembled model: composed gate-zero identity, loss masking, freezing,
smoke training, the loss-argmin probe, and checkpoint round-trips."""

import dataclasses
import hashlib
import math
import pathlib
import random
import tracemalloc
from array import array

import pytest

from evlm.errors import ConfigError, ContractViolationError, NonFiniteError, SequenceError
from evlm.fusion import ImageMarker, branch_widths, build_cross_mask_image, build_self_mask, insert_media_tokens
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
    param_count,
    save_checkpoint,
    smoke_config,
    synthetic_patches,
    train_smoke,
)
from evlm.moe import MoEConfig
from evlm.numerics import Graph, Node, Tensor, derive_seed
from evlm.vision import EncoderConfig
from test_moe import RecordingNodes
from test_numerics import grad_check


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


def forward(model, seq, images=()):
    """The logits of one stream over its images, in a fresh graph."""
    g = Graph()
    nodes = model.param_nodes(g)
    return model.forward_nodes(g, seq, model.encode_images(g, images, nodes), nodes).t


def stream_loss(model, seq, images=()):
    """The loss of one stream over its images."""
    return model.losses([seq], images)[0]


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
        fused = forward(model, seq, images)
        text_only = decoder_only_logits(model, seq)
        assert fused.data == text_only.data  # bit-exact through zero gates


def test_no_images_reduces_to_text_decoder():
    model = FusedModel(tiny_config(), seed=4)
    seq = insert_media_tokens([1, 2, 3], media_len=model.cfg.media_len)
    fused = forward(model, seq, [])
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
    out_img = forward(model, seq, images)
    out_vid = forward(video_model, seq, images)
    assert out_img.data == out_vid.data


def test_forward_golden_logits():
    # straight-line reference recorded after the oracle-checked first build
    golden_path = pathlib.Path(__file__).parent / "data" / "golden_logits.txt"
    model = FusedModel(tiny_config(), seed=0)
    seq = insert_media_tokens(
        [1, ImageMarker(0), 4, 7, ImageMarker(1), 2], media_len=model.cfg.media_len
    )
    images = rand_images(model, 2, 123)
    logits = forward(model, seq, images)
    assert golden_path.exists(), f"missing reference {golden_path}"
    shape_line, data_line = golden_path.read_text().splitlines()
    assert tuple(int(s) for s in shape_line.split()) == logits.shape
    golden = [float(v) for v in data_line.split()]
    assert len(golden) == math.prod(logits.shape)
    assert max(abs(a - b) for a, b in zip(logits.data, golden)) == 0.0


# -- seeded init ------------------------------------------------------------------

_INIT_CONFIGS = {
    "smoke": smoke_config(),
    # the train_moe_sft benchmark config (N=M=k=4), copied so the tests do not import perfbench
    "moe": dataclasses.replace(
        smoke_config(), moe=MoEConfig(n_replicas=4, segments=4, top_k=4, aux_loss_weight=0.01)
    ),
}


@pytest.mark.parametrize("config", list(_INIT_CONFIGS))
def test_seeded_init_is_pinned_per_tensor(config):
    # one line per tensor: config, parameter name, sha256 of its float bytes at seed 0
    pin_path = pathlib.Path(__file__).parent / "data" / "init_sha256.txt"
    want = {}
    for line in pin_path.read_text().splitlines():
        key, name, digest = line.split()
        if key == config:
            want[name] = digest
    model = FusedModel(_INIT_CONFIGS[config], seed=0)
    got = {name: hashlib.sha256(array("d", t.data).tobytes()).hexdigest() for name, t in model.params.items()}
    assert got == want


def test_init_and_synthetic_images_draw_from_random_alone(monkeypatch):
    # Python keeps Random.random()'s stream across versions, not gauss's
    def no_gauss(self, mu=0.0, sigma=1.0):
        raise AssertionError("Random.gauss called")

    monkeypatch.setattr(random.Random, "gauss", no_gauss)
    for cfg in _INIT_CONFIGS.values():
        FusedModel(cfg, seed=0)
    synthetic_patches(smoke_config().encoder, class_id=1, sample=2, seed=0)


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
    logits = forward(model, seq, images)
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
    got = stream_loss(model, seq, [])
    logits = forward(model, seq, [])
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
    logits = forward(model, seq, images)
    got = stream_loss(model, seq, images)
    row = logits.data[logits.cols : 2 * logits.cols]  # last media slot predicts the lone text token
    top = max(row)
    want = math.log(sum(math.exp(x - top) for x in row)) + top - row[3]
    assert abs(got - want) < 1e-10


def test_loss_requires_text_predictions():
    model = FusedModel(tiny_config(), seed=9)
    seq = insert_media_tokens([ImageMarker(0)], media_len=2)
    with pytest.raises(ContractViolationError):
        stream_loss(model, seq, rand_images(model, 1, 3))


def test_mixed_batch_loss_matches_masked_nll_oracle():
    model = FusedModel(tiny_config(), seed=14)
    rng = random.Random(44)
    for trial in range(3):
        seq = mixed_sequence(model, rng)
        images = rand_images(model, seq.num_images, 50 + trial)
        got = stream_loss(model, seq, images)
        logits = forward(model, seq, images)
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
    stream_loss(model, *batch[0])
    model.losses([seq for seq, _ in batch[1:]], batch[1][1])
    fresh = FusedModel(model.cfg, seed=0)
    for name, t in fresh.params.items():
        t.data[:] = model.params[name].data
    loss = model.sgd_step(batch, lr=0.5, trainable_groups=trainable)
    assert repr(loss) == repr(fresh.sgd_step(batch, lr=0.5, trainable_groups=trainable))
    assert param_digest(model) == param_digest(fresh)


# -- one owner: FusedModel.params holds every parameter tensor --------------------------


def smoke_batch(model, seed, encode):
    """One caption per smoke class over its sample-0 image, passed through `encode`."""
    cfg = model.cfg
    return [(caption_sequence(cfg, c), encode([synthetic_patches(cfg.encoder, c, 0, seed)])) for c in range(4)]


@pytest.mark.parametrize("stage", ["sft", "pretrain_phase1"])
def test_replacing_a_vision_tensor_equals_writing_it_in_place(stage):
    # sft keeps the outputs of vision blocks 0..2 per image (the prefix cache); pretrain_phase1
    # freezes the whole encoder, so its taps come from encode_images_tensors
    trainable, precomputed = freeze_stage(stage), stage == "pretrain_phase1"
    losses = {}
    for how in ("none", "in-place", "new-object"):
        model = FusedModel(smoke_config(), seed=3)
        encode = model.encode_images_tensors if precomputed else list
        model.sgd_step(smoke_batch(model, 3, encode), 0.5, trainable, taps_precomputed=precomputed)
        t = model.params["vision.block0.wq"]  # the step opened the gates, so the taps reach the loss
        new = [0.5 * v + 0.01 for v in t.data]
        if how == "in-place":
            t.data[:] = new
        elif how == "new-object":
            model.params["vision.block0.wq"] = Tensor(t.shape, new)
        loss = model.sgd_step(smoke_batch(model, 3, encode), 0.5, trainable, taps_precomputed=precomputed)
        losses[how] = repr(loss)
    assert losses["in-place"] != losses["none"]
    assert losses["new-object"] == losses["in-place"]


def _tensors(obj):
    """Every Tensor reachable from obj through dict values, lists and tuples."""
    if isinstance(obj, Tensor):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _tensors(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _tensors(value)


@pytest.mark.parametrize("moe", [None, MoEConfig(n_replicas=2, segments=2, top_k=2)], ids=["dense", "moe"])
def test_no_attribute_but_model_params_holds_a_parameter_tensor(moe):
    model = FusedModel(tiny_config(moe=moe), seed=5)
    batch = [(mixed_sequence(model, random.Random(6), num_images=1), rand_images(model, 1, 7))]
    model.sgd_step(batch, lr=0.5, trainable_groups=freeze_stage("sft"))  # keeps vision block 0's outputs
    owned = {id(t) for t in model.params.values()}
    for obj in (model, model.vision, *model.xattn_layers):
        for attr, value in vars(obj).items():
            if obj is model and attr == "params":
                continue
            held = [t for t in _tensors(value) if id(t) in owned]
            assert not held, f"{type(obj).__name__}.{attr} holds {len(held)} parameter tensors"


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
    want = [stream_loss(model, seq, [patches]) for seq in seqs]

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


_BATCH_GRADIENT_SHA256 = {
    "image-dense": "34df9d528c9197a46b006b38f7348dd2f6f1ef5f6954ed7e47c930feeea0bc0b",
    "image-moe": "78f8614062bd2ac067a946e561d2c5c56c1e81ca2b7d259fbfff22f845978879",
    "video-dense": "d264ae98dc2fe12b4245bcdf6845cd2fee5b223a34a1966624468f364010c15f",
    "video-moe": "c3d8a4c42939f11559b29ec7e0acdf273f3afeb12d7adbfac3385899bf42d59c",
}


@pytest.mark.parametrize("mode", ["image", "video"])
@pytest.mark.parametrize(
    "moe", [None, MoEConfig(n_replicas=2, segments=2, top_k=2, aux_loss_weight=0.01)], ids=["dense", "moe"]
)
def test_batch_loss_gradients_are_pinned(mode, moe):
    # the graph sgd_step builds: two samples through _batch_loss, every vision block in it and the
    # aux loss on; media slots and final positions are no targets, so their gradient rows are zeros
    model = open_model(tiny_config(mask_mode=mode, moe=moe), seed=24)
    rng = random.Random(25)
    batch = [
        (mixed_sequence(model, rng, num_images=2), rand_images(model, 2, 26)),
        (mixed_sequence(model, rng, num_images=1), rand_images(model, 1, 27)),
    ]
    g = Graph()
    nodes = model.param_nodes(g)
    g.backward(model._batch_loss(g, nodes, batch, taps_precomputed=False, frozen_blocks=0))
    grads = repr([(name, g.grad(nodes[name]).data) for name in sorted(model.params)])
    key = f"{mode}-{'dense' if moe is None else 'moe'}"
    assert hashlib.sha256(grads.encode()).hexdigest() == _BATCH_GRADIENT_SHA256[key]


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
        stream_loss(model, seq, rand_images(model, 1, 3))
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
    assert stream_loss(loaded, seq, images) == stream_loss(model, seq, images)  # no stale copy of a parameter survives


def reseal(data: bytes) -> bytes:
    """data with its sha256 trailer (if any) replaced by the digest of what
    comes before it, so an edited checkpoint reaches the checks behind the
    digest."""
    head, found, _ = data.rpartition(b"\nsha256 ")
    body = (head if found else data.removesuffix(b"\n")) + b"\n"
    return body + b"sha256 " + hashlib.sha256(body).hexdigest().encode() + b"\n"


def edit_checkpoint(path, edit):
    """Apply edit to the checkpoint's lines before its sha256 trailer and
    write them back under a fresh digest."""
    lines = path.read_text().splitlines()[:-1]
    path.write_bytes(reseal(("\n".join(edit(lines)) + "\n").encode()))


def edit_head_data(edit):
    def corrupt(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("param llm llm.head ")) + 1
        return lines[:i] + [edit(lines[i])] + lines[i + 1 :]

    return corrupt


def edit_ln_f(edit):
    """A corrupt for edit_checkpoint: the four lines of llm.ln_f.bias and
    llm.ln_f.gain (param line, data line, one after the other in name order)
    replaced by edit(those lines). The bias holds few enough floats that a
    file without it still passes the size check."""

    def corrupt(lines):
        i = lines.index("param llm llm.ln_f.bias 1 8")
        return lines[:i] + edit(lines[i : i + 4]) + lines[i + 4 :]

    return corrupt


def insert_before_params(*new):
    def corrupt(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith("param "))
        return lines[:i] + list(new) + lines[i:]

    return corrupt


NAN_HEX, INF_HEX = "000000000000f87f", "000000000000f07f"  # little-endian float64 bit patterns


def spaced(data):
    """Hex data as space-separated digit pairs, which bytes.fromhex reads as the same bytes."""
    return " ".join(data[i : i + 2] for i in range(0, len(data), 2))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (edit_head_data(lambda data: data[: len(data) // 2]), "bad data for llm.head: shape .* does not match"),
        (edit_head_data(lambda data: NAN_HEX + data[16:]), "bad data for llm.head: non-finite"),
        (lambda lines: lines[:-1], "single 'end' line"),  # no trailing end line
        (lambda lines: [line for line in lines if not line.startswith("config h_llm=")], "missing 'h_llm'"),
        (lambda lines: [line.replace("config heads=2", "config heads=0") for line in lines], "heads"),
        (
            lambda lines: [line.replace("config moe.enabled=0", "config moe.enabled=true") for line in lines],
            "flag must be 0 or 1",
        ),
        (
            lambda lines: [line.replace("mask_mode=image", "mask_mode=image\nconfig mask_mode=video") for line in lines],
            "repeats config key mask_mode",
        ),
        (lambda lines: [lines[0], "meta seed=1", "meta seed=2", *lines[1:]], "repeats meta key seed"),
        (edit_head_data(lambda data: data[:-16]), "bad data for llm.head: shape .* does not match"),
        (edit_head_data(lambda data: data[:-1]), "bad data for llm.head: non-hexadecimal"),
        (edit_head_data(lambda data: "zz" + data[2:]), "bad data for llm.head: non-hexadecimal"),
        (edit_head_data(lambda data: data[:-2]), "bad data for llm.head: bytes length"),
        (edit_head_data(lambda data: data[:16] + INF_HEX + data[32:]), "bad data for llm.head: non-finite"),
        (lambda lines: [line.replace("llm llm.head ", "llm llm.hexd ") for line in lines], "llm.hexd"),
        (edit_ln_f(lambda four: four[:2] + four), "llm.ln_f.bias"),
        (lambda lines: [line.replace("llm.head 8 11", "llm.head 11 8") for line in lines], "llm.head"),
        (lambda lines: [line.replace("param llm llm.head ", "param xattn llm.head ") for line in lines], "llm.head"),
        (edit_ln_f(lambda four: four[2:]), "llm.ln_f.bias"),
        (lambda lines: [lines[0], "config bogus=1", *lines[1:]], "bogus"),
        (
            edit_ln_f(lambda four: four[2:] + four[:2]),
            "reads 'param llm llm.ln_f.gain 1 8', where save_checkpoint writes 'param llm llm.ln_f.bias 1 8'",
        ),
        (
            lambda lines: [line.replace("config h_llm=8", "config h_llm=08") for line in lines],
            "reads 'config h_llm=08', where save_checkpoint writes 'config h_llm=8'",
        ),
        (insert_before_params("meta b=1", "meta a=2"), "reads 'meta b=1', where save_checkpoint writes 'meta a=2'"),
        (
            lambda lines: [lines[0], "meta seed=1", *lines[1:]],
            "reads 'meta seed=1', where save_checkpoint writes 'config llm_layers=2'",
        ),
        (lambda lines: [lines[0]] + [line + "\r" for line in lines[1:]], r"got 'image\\r'"),
        (edit_head_data(str.upper), "bad data for llm.head: not 16 lower-case hex digits per float"),
        (edit_head_data(spaced), "bad data for llm.head: not 16 lower-case hex digits per float"),
        (insert_before_params("meta a\u2028b=c"), "would not read back"),
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
        "one_value_short",
        "odd_length_hex",
        "non_hex",
        "partial_value",
        "inf",
        "unknown_parameter",
        "repeated_parameter",
        "swapped_shape",
        "wrong_group",
        "missing_parameter",
        "unknown_config_key",
        "parameters_out_of_order",
        "non_canonical_config_value",
        "unsorted_meta",
        "config_after_meta",
        "crlf_line_ends",
        "upper_case_data",
        "space_separated_data",
        "line_separator_in_meta_key",
    ],
)
def test_checkpoint_rejects_malformed(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(FusedModel(tiny_config(), seed=1), str(path))
    edit_checkpoint(path, corrupt)
    with pytest.raises(ConfigError, match=message):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            lambda lines: [line.replace("config h_llm=8", "config h_llm=08") for line in lines],
            "checkpoint line 3 reads 'config h_llm=08', where save_checkpoint writes 'config h_llm=8'",
        ),
        # the tiny checkpoint has 143 lines before its sha256 trailer, the last one `end`
        (lambda lines: lines + ["end"], "checkpoint line 144 reads 'end', where save_checkpoint writes nothing"),
        (lambda lines: lines[:-2] + ["end"], "checkpoint line 143 reads nothing, where save_checkpoint writes 'end'"),
    ],
    ids=["changed_line", "extra_line", "missing_line"],
)
def test_checkpoint_header_error_names_the_first_differing_line(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(FusedModel(tiny_config(), seed=1), str(path))
    edit_checkpoint(path, corrupt)
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(str(path))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "meta",
    [{"a=b": "c"}, {"note": "x\ny"}, {"a\u2028b": "c"}],
    ids=["equals_in_key", "newline_in_value", "line_separator_in_key"],
)
def test_checkpoint_meta_that_would_not_read_back_is_refused(tmp_path, meta):
    path = tmp_path / "model.ckpt"
    save_checkpoint(FusedModel(tiny_config(), seed=1), str(path))
    before = path.read_bytes()
    model = FusedModel(tiny_config(), seed=2)
    model.meta = meta
    with pytest.raises(ConfigError, match="would not read back"):
        save_checkpoint(model, str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_meta_round_trips(tmp_path):
    model = FusedModel(tiny_config(), seed=1)
    model.meta = {"a": "b=c", "note": "x  y ", "": ""}
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    assert load_checkpoint(str(path)).meta == model.meta


def test_checkpoint_bytes_are_pinned(tmp_path):
    model = FusedModel(smoke_config(), seed=0)
    model.meta = {"seed": "0", "classes": "4"}
    path = tmp_path / "smoke.ckpt"
    save_checkpoint(model, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5b63cdde17eaacdefbb2c7e5bb970e3ed2e9550dbc065a4dea73b2200f073de5"
    )


def _flip_data_digit(data):
    i = data.index(b"\nparam llm llm.head ")
    i = data.index(b"\n", i + 1) + 5  # a hex digit of the head's first value
    return data[:i] + (b"1" if data[i : i + 1] == b"0" else b"0") + data[i + 1 :]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_flip_data_digit, "does not match its sha256 digest"),
        (lambda data: data[: data.rindex(b"sha256 ")], "no sha256 trailer"),
        (lambda data: data + data[data.rindex(b"sha256 ") :], "repeats its sha256 trailer"),
        (lambda data: data[:-10], "truncated or malformed sha256 trailer"),
    ],
    ids=["stale_digest", "missing_trailer", "duplicated_trailer", "truncated_trailer"],
)
def test_checkpoint_rejects_a_bad_sha256_trailer(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(FusedModel(tiny_config(), seed=1), str(path))
    original = path.read_bytes()
    path.write_bytes(corrupt(original))
    assert path.read_bytes() != original
    with pytest.raises(ConfigError, match=message):
        load_checkpoint(str(path))


def test_checkpoint_size_is_checked_before_the_model_is_built(tmp_path, monkeypatch):
    import evlm.model

    path = tmp_path / "smoke.ckpt"
    save_checkpoint(FusedModel(smoke_config(), seed=0), str(path))
    edit_checkpoint(path, lambda lines: [line.replace("config vocab=12", "config vocab=100000") for line in lines])

    def no_build(*args, **kwargs):
        raise AssertionError("load_checkpoint built a model")

    monkeypatch.setattr(evlm.model, "FusedModel", no_build)
    floats = 11_332 + 2 * 16 * (100_000 - 12)  # the smoke model plus the longer embedding and head
    with pytest.raises(ConfigError, match=rf"implies {floats} parameter floats; its data can hold at most \d+"):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "cfg",
    [
        smoke_config(),
        tiny_config(),
        tiny_config(moe=MoEConfig(n_replicas=2, segments=2, top_k=2)),
        tiny_config(moe=MoEConfig(n_replicas=3, segments=2, top_k=1, use_world_expert=False), r_xf=0.25),
        tiny_config(mask_mode="video", r_xc=0.25, ffn_mult=2, vocab=7, max_seq=40, media_len=3),
    ],
    ids=["smoke", "tiny", "moe", "moe_no_world", "video"],
)
def test_param_count_matches_the_built_model(cfg):
    assert param_count(cfg) == sum(t.size for t in FusedModel(cfg, seed=0).params.values())


def random_config(rng, moe_kind, half_way):
    """A small random config with the MoE off, on with the world expert
    (`world`) or on without it (`no_world`). With half_way, r_xc and r_xf
    put r * h_llm at a half, where branch_widths rounds up."""
    heads = rng.choice([1, 2, 4])
    h = heads * rng.randint(1, 4)
    layers = rng.randint(1, 4)
    taps = rng.randint(1, layers)
    enc = EncoderConfig(layers, rng.randint(1, 5), rng.randint(1, 6), rng.randint(taps, layers), taps)
    ratio = lambda: (2 * rng.randrange(h) + 1) / (2 * h) if half_way else rng.uniform(1 / h, 1.0)
    r_xc, r_xf = ratio(), ratio()
    moe = None
    if moe_kind != "dense":
        hidden = branch_widths(h, r_xc, r_xf)[1]
        segments = rng.choice([m for m in range(1, hidden + 1) if hidden % m == 0])
        n_replicas = rng.randint(1, 3)
        top_k = rng.randint(1, n_replicas * segments)
        moe = MoEConfig(n_replicas, segments, top_k, use_world_expert=moe_kind == "world")
    return ModelConfig(
        llm_layers=rng.randint(taps, taps + 2),
        h_llm=h,
        heads=heads,
        vocab=rng.randint(2, 12),
        media_len=rng.randint(1, 4),
        r_xc=r_xc,
        r_xf=r_xf,
        moe=moe,
        encoder=enc,
        ffn_mult=rng.randint(1, 4),
        max_seq=rng.randint(1, 40),
    )


def test_param_count_matches_the_built_model_on_random_configs():
    rng = random.Random(17)
    for i in range(42):
        cfg = random_config(rng, ("dense", "world", "no_world")[i % 3], half_way=i % 2 == 0)
        assert param_count(cfg) == sum(t.size for t in FusedModel(cfg, seed=0).params.values()), cfg


def test_checkpoint_round_trips_every_float_bit(tmp_path):
    model = FusedModel(tiny_config(), seed=3)
    special = [-0.0, 5e-324, 2.2250738585072014e-309, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    model.params["llm.ln_f.bias"].data[: len(special)] = special
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    bits = lambda m: {name: array("d", t.data).tobytes() for name, t in m.params.items()}
    assert bits(loaded) == bits(model)


def test_checkpoint_data_is_little_endian_hex(tmp_path):
    model = FusedModel(tiny_config(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    lines = path.read_text().splitlines()
    gain = lines[lines.index("param llm llm.ln_f.gain 1 8") + 1]
    assert gain == "000000000000f03f" * 8  # the gain starts at 1.0


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
    # a v1 checkpoint (repr'd float data, no digest) must be retrained
    path.write_text("evlm-checkpoint v1\nconfig llm_layers=2\nparam llm llm.head 1 2\n0.5 -0.25\nend\n")
    with pytest.raises(ConfigError, match="not a recognized checkpoint"):
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
