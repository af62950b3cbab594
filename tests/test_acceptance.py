"""Acceptance gate: every exit criterion at its stated tolerance and runtime
budget, one pass/fail line per criterion (run with -s to stream them).

The mask and cost criteria check `evlm` against the brute-force rules of
`test_fusion` (`image_mask_oracle`, `video_mask_oracle`, over an exhaustive
`gen_sequences` enumeration) and `test_flops` (`oracle_full`,
`oracle_cross`). Single-image mode agreement is asserted for every row at
or after the first image run (rows for text with no preceding image differ
by design: video-mode text sees all frames, image-mode text sees only the
pad block). Criterion 7 reads the session's one default `train-smoke` CLI
run (`conftest.default_smoke_run`), and its budget covers that run's time.
"""

import contextlib
import random
import time

from evlm.cli import RunConfig
from evlm.flops import (
    FlopsScenario,
    flops_cross_attention_exact,
    flops_full_attention_exact,
    format_report_record,
    preset,
    ratio,
)
from evlm.fusion import (
    GatedXAttn,
    ImageMarker,
    MediaSlot,
    build_cross_mask_image,
    build_cross_mask_video,
    build_padded_kv,
    insert_media_tokens,
    xattn_params,
)
from evlm.model import (
    FusedModel,
    ModelConfig,
    caption_tokens,
    freeze_stage,
    load_checkpoint,
    loss_probe,
    smoke_config,
    synthetic_patches,
)
from evlm.moe import MoEConfig, moe_forward_nodes, upcycle
from evlm.numerics import Tensor, derive_seed, seeded_init
from evlm.vision import EncoderConfig
from test_cli import parse_record, run_cli
from test_flops import oracle_cross, oracle_full
from test_fusion import gen_sequences, image_mask_oracle, video_mask_oracle
from test_model import decoder_only_logits, forward
from test_moe import apply_ffn, make_dense
from test_numerics import dot, grad_check


@contextlib.contextmanager
def criterion(num, name, limit_s, spent_s=0.0):
    """Times the block; spent_s is time the criterion used before it."""
    start = time.perf_counter() - spent_s
    try:
        yield
    except BaseException:
        print(f"criterion_{num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_s:
        print(f"criterion_{num} {name}: FAIL (runtime {elapsed:.1f}s >= {limit_s}s)")
        raise AssertionError(f"criterion {num} exceeded its {limit_s}s budget: {elapsed:.1f}s")
    print(f"criterion_{num} {name}: PASS ({elapsed:.1f}s < {limit_s}s)")


def toy_model(seed=0):
    return FusedModel(
        ModelConfig(
            llm_layers=2,
            h_llm=8,
            heads=2,
            vocab=11,
            media_len=4,
            encoder=EncoderConfig(layers=2, patch_count=3, feature_dim=4, tap_window=2, num_taps=2),
            max_seq=32,
        ),
        seed=seed,
    )


# -- 1: composed gate-zero identity ----------------------------------------------


def test_criterion_1_gate_zero_identity():
    with criterion(1, "composed gate-zero identity", 10):
        model = toy_model(seed=1)
        enc = model.cfg.encoder
        rng = random.Random(0)
        for trial in range(20):
            items = [rng.randrange(model.cfg.vocab)]
            for i in range(2):
                items.append(ImageMarker(i))
                items.extend(rng.randrange(model.cfg.vocab) for _ in range(rng.randint(1, 3)))
            seq = insert_media_tokens(items, media_len=model.cfg.media_len)
            images = [
                Tensor.randn((enc.patch_count, enc.feature_dim), derive_seed(trial, f"img{i}"))
                for i in range(2)
            ]
            fused = forward(model, seq, images)
            plain = decoder_only_logits(model, seq)
            worst = max(abs(a - b) for a, b in zip(fused.data, plain.data))
            assert worst <= 1e-12, f"trial {trial}: max deviation {worst}"


# -- 2: MoE upcycling identities --------------------------------------------------


def test_criterion_2_upcycling_identities():
    with criterion(2, "MoE upcycling identities", 10):
        for n, m in [(1, 1), (2, 2), (4, 4)]:
            cfg = MoEConfig(n_replicas=n, segments=m, top_k=min(4, n * m))
            dense = make_dense(h=6, hidden=8, seed=40 + n)
            bank = upcycle(*dense, cfg)
            for trial in range(100):
                x = Tensor.randn((1, 6), derive_seed(trial, f"x{n}{m}"))
                want = apply_ffn(x, *dense).data
                for r in range(n):
                    total = [0.0] * 6
                    for seg in range(m):
                        e = f"expert{r * m + seg}"
                        out = apply_ffn(x, bank[f"{e}.w_in"], bank[f"{e}.w_out"])
                        total = [a + b for a, b in zip(total, out.data)]
                    worst = max(abs(a - b) for a, b in zip(total, want))
                    assert worst <= 1e-12, f"slice-sum ({n},{m}) replica {r}: {worst}"
                world = apply_ffn(x, bank["world.w_in"], bank["world.w_out"]).data
                assert max(abs(a - b) for a, b in zip(world, want)) <= 1e-12


# -- 3: mask oracles over exhaustive enumeration -----------------------------------


def test_criterion_3_mask_oracles():
    with criterion(3, "mask rule oracles (exhaustive)", 30):
        checked = 0
        for media_len in (1, 2):
            for seq in gen_sequences(8, 3, media_len):
                if not seq.elements:
                    continue
                for s_img, pad_len in ((1, 1), (2, 2)):
                    img = build_cross_mask_image(seq, s_img, pad_len)
                    vid = build_cross_mask_video(seq, s_img, pad_len)
                    assert img == image_mask_oracle(seq, s_img, pad_len)
                    assert vid == video_mask_oracle(seq, s_img, pad_len)
                    for mask in (img, vid):
                        assert all(any(row) for row in mask)
                    if seq.num_images == 1:
                        first = next(
                            i for i, e in enumerate(seq.elements) if isinstance(e, MediaSlot)
                        )
                        assert img[first:] == vid[first:]
                    checked += 1
        # 254 patterns at media_len=1 plus 86 at media_len=2, twice each
        assert checked == 680, f"enumeration size changed: {checked}"


# -- 4: cost-model fidelity -----------------------------------------------------------


def test_criterion_4_cost_model():
    with criterion(4, "cost-model fidelity", 5):
        # frozen preset expectations, computed independently before the build
        frozen = {
            "pretrain": (203_423_744_000, 58_297_679_872),
            "continual": (708_753_489_920, 64_186_482_688),
        }
        for name, (full_v, cross_v) in frozen.items():
            rep = ratio(preset(name), preset_name=name)
            assert rep.flops_full == float(full_v)
            assert rep.flops_cross == float(cross_v)
            record = format_report_record(rep)
            assert "reference_S=" in record and "abs_diff=" in record  # side-by-side figures
        assert ratio(preset("pretrain"), preset_name="pretrain").reference_ratio == 0.24
        assert ratio(preset("continual"), preset_name="continual").reference_ratio == 0.077

        rng = random.Random(99)
        for _ in range(1000):
            sc = FlopsScenario(
                batch=rng.randint(0, 32),
                s_img=rng.randint(1, 2048),
                s_txt=rng.randint(0, 2048),
                h_llm=rng.randint(1, 8192),
                d_img=rng.randint(1, 2048),
                r_xc=rng.choice([0.2, 0.5, 1.0, rng.uniform(1e-6, 1.0)]),
                r_xf=rng.choice([0.2, 0.5, 1.0, rng.uniform(1e-6, 1.0)]),
                media_len=rng.choice([16, 1, 32]),
            )
            got_full, want_full = float(flops_full_attention_exact(sc)), float(oracle_full(sc))
            got_cross, want_cross = float(flops_cross_attention_exact(sc)), float(oracle_cross(sc))
            for got, want in ((got_full, want_full), (got_cross, want_cross)):
                if got != want:
                    assert abs(got - want) / max(abs(got), abs(want)) < 1e-12

            # B-linearity, exactly
            sc2 = FlopsScenario(
                batch=2 * sc.batch if sc.batch else 2,
                s_img=sc.s_img,
                s_txt=sc.s_txt,
                h_llm=sc.h_llm,
                d_img=sc.d_img,
                r_xc=sc.r_xc,
                r_xf=sc.r_xf,
                media_len=sc.media_len,
            )
            sc1 = FlopsScenario(
                batch=sc2.batch // 2,
                s_img=sc.s_img,
                s_txt=sc.s_txt,
                h_llm=sc.h_llm,
                d_img=sc.d_img,
                r_xc=sc.r_xc,
                r_xf=sc.r_xf,
                media_len=sc.media_len,
            )
            assert float(flops_full_attention_exact(sc2)) == 2.0 * float(flops_full_attention_exact(sc1))
            assert float(flops_cross_attention_exact(sc2)) == 2.0 * float(flops_cross_attention_exact(sc1))

        # s_img asymptotics hold exactly on the rational path
        base = FlopsScenario(batch=3, s_img=10, s_txt=7, h_llm=64, d_img=32)

        def at(s):
            return FlopsScenario(batch=3, s_img=s, s_txt=7, h_llm=64, d_img=32)

        f0, f1, f2 = (flops_full_attention_exact(at(s)) for s in (10, 11, 12))
        assert f2 - 2 * f1 + f0 == 8 * base.batch * base.h_llm
        c0, c1, c2 = (flops_cross_attention_exact(at(s)) for s in (10, 11, 12))
        assert c2 - 2 * c1 + c0 == 0


# -- 5: gradient checks ---------------------------------------------------------------


def test_criterion_5_gradient_checks():
    with criterion(5, "gradient checks vs central differences", 60):
        # (a) gated cross-attention layer, every coordinate
        layer = GatedXAttn("xattn.")
        layer_params = xattn_params(seeded_init(50), "xattn.", 4, 3, 0.5, 0.5)
        layer_params["alpha_attn"] = Tensor((1, 1), [0.4])
        layer_params["alpha_ffn"] = Tensor((1, 1), [-0.3])
        seq = insert_media_tokens([ImageMarker(0), 1, 2], media_len=1)
        mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
        hidden = Tensor.randn((3, 4), derive_seed(50, "hidden"), 0.7)
        feats = Tensor.randn((2, 3), derive_seed(50, "feats"), 0.7)
        names = sorted(layer_params)

        def build_layer(g, nodes):
            h, f = nodes[0], nodes[1]
            pnodes = {layer.prefix + n: node for n, node in zip(names, nodes[2:])}
            kv = build_padded_kv(g, [f], pad_len=1, d_img=3)
            out = layer.forward_nodes(g, h, kv, mask, pnodes)
            return dot(g, out, g.tanh(out))

        err_a = grad_check(build_layer, [hidden, feats] + [layer_params[n] for n in names])
        assert err_a < 1e-4, f"xattn layer grad err {err_a}"

        # (b) moe_forward including the router, every coordinate
        moe_cfg = MoEConfig(n_replicas=2, segments=2, top_k=2)
        bank = upcycle(*make_dense(h=4, hidden=4, seed=51), moe_cfg)
        bank["router"] = Tensor.randn((4, 4), derive_seed(51, "router"), 0.8)
        x = Tensor.randn((2, 4), derive_seed(51, "x"))
        bank_names = [f"moe.{n}" for n in bank]

        def build_moe(g, nodes):
            pnodes = dict(zip(bank_names, nodes[1:]))
            out = moe_forward_nodes(g, nodes[0], moe_cfg, pnodes)
            return dot(g, out, g.tanh(out))

        err_b = grad_check(build_moe, [x] + list(bank.values()))
        assert err_b < 1e-4, f"moe grad err {err_b}"

        # (c) full 2-layer fused model loss, every coordinate
        model = toy_model(seed=52)
        for name, t in model.params.items():
            if name.endswith(("alpha_attn", "alpha_ffn")):
                t.data[0] = 0.3
        seq = insert_media_tokens([ImageMarker(0), 4, ImageMarker(1), 7, 2], media_len=4)
        enc = model.cfg.encoder
        images = [
            Tensor.randn((enc.patch_count, enc.feature_dim), derive_seed(52, f"img{i}"))
            for i in range(2)
        ]
        model_names = sorted(model.params)

        def build_model(g, nodes):
            nmap = dict(zip(model_names, nodes))
            taps = model.encode_images(g, images, nmap)
            logits = model.forward_nodes(g, seq, taps, nmap)
            return model.loss_nodes(g, logits, seq)

        err_c = grad_check(build_model, [model.params[n] for n in model_names])
        assert err_c < 1e-4, f"full model grad err {err_c}"


# -- 6: freezing correctness -------------------------------------------------------------


def test_criterion_6_freezing():
    with criterion(6, "stage freezing correctness", 10):
        cfg = ModelConfig(
            llm_layers=2,
            h_llm=8,
            heads=2,
            vocab=11,
            media_len=2,
            moe=MoEConfig(n_replicas=2, segments=2, top_k=2),
            encoder=EncoderConfig(layers=4, patch_count=3, feature_dim=4, tap_window=4, num_taps=2),
            max_seq=24,
        )
        for stage in ("pretrain_phase1", "pretrain_phase2", "continual", "sft"):
            model = FusedModel(cfg, seed=60)
            # a generic (non-gate-zero) state so gradients reach every group
            for name, t in model.params.items():
                if name.endswith(("alpha_attn", "alpha_ffn")):
                    t.data[0] = 0.5
                if name.endswith("moe.router"):
                    t.data[:] = Tensor.randn(t.shape, derive_seed(61, name), 0.5).data
            seq = insert_media_tokens([ImageMarker(0), 3, 5, 2], media_len=2)
            enc = cfg.encoder
            images = [Tensor.randn((enc.patch_count, enc.feature_dim), derive_seed(62, "img"))]
            before = {name: list(t.data) for name, t in model.params.items()}
            trainable = freeze_stage(stage)
            if stage == "pretrain_phase1":
                assert {g for g, on in trainable.items() if on} == {"xattn", "media_tokens"}
            model.sgd_step([(seq, images)], lr=1.0, trainable_groups=trainable)
            changed = set()
            for name, t in model.params.items():
                group = model.group_of[name]
                if t.data != before[name]:
                    assert trainable[group], f"{stage}: frozen {group} param {name} changed"
                    changed.add(group)
            assert changed == {g for g, on in trainable.items() if on}, (
                f"{stage}: expected every trainable group to move, got {sorted(changed)}"
            )


# -- 7: smoke training + probe --------------------------------------------------------------


def test_criterion_7_smoke_training_and_probe(default_smoke_run):
    out, ckpt, train_s = default_smoke_run
    with criterion(7, "smoke training halves the loss; probe beats chance", 180, spent_s=train_s):
        assert out.returncode == 0, out.stdout + out.stderr
        rec = parse_record(out.stdout)
        # the CLI defaults are this criterion's task
        assert (rec["seed"], rec["steps"], rec["lr"], rec["stage"]) == ("0", "200", "0.5", "pretrain_phase1")
        run = RunConfig(model=smoke_config())
        assert (run.classes, run.per_class) == (4, 2)
        initial, final = float(rec["initial"]), float(rec["final"])
        assert final < 0.5 * initial, f"loss {initial:.4f} -> {final:.4f} did not halve"
        model = load_checkpoint(str(ckpt))  # the trained model, bit for bit
        assert model.cfg == smoke_config()
        candidates = [caption_tokens(c) for c in range(4)]
        hits = 0
        for c in range(4):
            for s in range(100, 110):  # held-out samples
                patches = synthetic_patches(model.cfg.encoder, c, s, seed=0)
                best, _ = loss_probe(model, patches, candidates)
                hits += best == c
        assert hits >= 20, f"probe accuracy {hits}/40 below the 50% bar (chance is 25%)"


# -- 8: CLI determinism ----------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI byte determinism under a fixed seed", 120):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "[model]\nllm_layers = 2\nh_llm = 8\nheads = 2\nvocab = 6\nmedia_len = 2\nmax_seq = 16\n"
            "[encoder]\nlayers = 2\npatch_count = 3\nfeature_dim = 4\ntap_window = 2\nnum_taps = 2\n"
            "[train]\nsteps = 3\nclasses = 2\nper_class = 1\n"
        )
        ckpt_a, ckpt_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        commands = [
            ("cost", "--preset", "pretrain", "--format", "record"),
            ("cost", "--preset", "continual", "--format", "record"),
            ("mask", "--mode", "image", "--seq", "I T T I T", "--s-img", "3", "--pad", "2"),
            ("mask", "--mode", "video", "--seq", "I T I T", "--s-img", "2", "--pad", "1"),
            ("upcycle-check", "--n", "4", "--m", "4", "--width", "6", "--hidden", "8"),
        ]
        for argv in commands:
            a, b = run_cli(*argv), run_cli(*argv)
            assert a.stdout == b.stdout and a.returncode == b.returncode, argv
        ta = run_cli("train-smoke", "--config", str(cfg), "--seed", "5", "--out", str(ckpt_a))
        tb = run_cli("train-smoke", "--config", str(cfg), "--seed", "5", "--out", str(ckpt_b))
        assert ta.stdout.replace(str(ckpt_a), "C") == tb.stdout.replace(str(ckpt_b), "C")
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        pa = run_cli("probe", "--checkpoint", str(ckpt_a), "--image", "1", "--candidates", "0,1")
        pb = run_cli("probe", "--checkpoint", str(ckpt_a), "--image", "1", "--candidates", "0,1")
        assert pa.stdout == pb.stdout and pa.returncode == pb.returncode == 0
