"""End-to-end CLI behavior: exit codes, record parsing, byte determinism."""

import contextlib
import dataclasses
import hashlib
import io
import os
import random
import re
import subprocess
import sys

import pytest

from evlm import cli
from evlm.errors import ConfigError, EvlmError
from evlm.model import FusedModel, load_checkpoint, save_checkpoint, smoke_config, train_smoke
from evlm.moe import MoEConfig
from test_model import edit_head_data, edit_checkpoint, reseal, spaced

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

TINY_CONFIG = """\
[run]
seed = 0

[model]
llm_layers = 2
h_llm = 8
heads = 2
vocab = 6
media_len = 2
max_seq = 16

[encoder]
layers = 2
patch_count = 3
feature_dim = 4
tap_window = 2
num_taps = 2

[train]
steps = 4
lr = 0.5
classes = 2
per_class = 1
"""


def cli_env(env_extra=None):
    """The environment for a CLI subprocess: this one's, with PYTHONPATH set
    and without an EVLM_SEED exported in the shell (it would override the
    seeds the tests expect), plus env_extra."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("EVLM_SEED", None)
    env.update(env_extra or {})
    return env


def run_cli(*args, env_extra=None, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "evlm.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(env_extra),
        timeout=timeout,
    )


def parse_record(stdout):
    return dict(line.split("=", 1) for line in stdout.strip().splitlines())


# -- cost --------------------------------------------------------------------


def test_cost_preset_echoes_scenario():
    out = run_cli("cost", "--preset", "pretrain", "--format", "record")
    assert out.returncode == 0
    rec = parse_record(out.stdout)
    assert rec["s_img"] == "256"
    assert rec["s_txt"] == "64"
    assert rec["reference_S"] == "0.24"


def test_cost_record_round_trip():
    out = run_cli("cost", "--preset", "continual", "--format", "record")
    rec = parse_record(out.stdout)
    assert float(rec["S"]) == float(rec["flops_cross"]) / float(rec["flops_full"])
    assert abs(sum(float(rec[f"term{i}"]) for i in (1, 2, 3, 4)) - float(rec["flops_cross"])) < 1e-6
    assert rec["reference_S"] == "0.077"


def test_cost_zero_batch_is_usage_error():
    out = run_cli("cost", "--scenario", "B=0", "s_img=2", "s_txt=2", "h_llm=4", "d_img=4")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_cost_unknown_scenario_key_rejected():
    out = run_cli("cost", "--scenario", "B=1", "s_img=2", "s_txt=2", "h_llm=4", "d_img=4", "bogus=1")
    assert out.returncode == 2


def test_cost_repeated_scenario_key_rejected():
    out = run_cli("cost", "--scenario", "B=1", "s_img=2", "s_txt=2", "h_llm=4", "d_img=4", "B=8")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and "'B'" in out.stderr


# -- mask --------------------------------------------------------------------


def test_mask_text_only_row():
    out = run_cli("mask", "--mode", "image", "--seq", "T", "--s-img", "4", "--pad", "2")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "1 2 2 image"
    assert lines[1] == "11"  # no images: the pad block is the whole key space


def test_mask_video_text_rows_cover_all_frames():
    out = run_cli("mask", "--mode", "video", "--seq", "I T I T", "--s-img", "2", "--pad", "1")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "4 5 1 video"
    assert lines[2] == "11111"  # text row: both frame blocks + pad
    assert lines[4] == "11111"
    assert lines[1] == "11000"  # frame 0 media row
    assert lines[3] == "00110"  # frame 1 media row


def test_mask_modes_identical_for_single_image_seq():
    img = run_cli("mask", "--mode", "image", "--seq", "I T T", "--s-img", "3", "--pad", "2")
    vid = run_cli("mask", "--mode", "video", "--seq", "I T T", "--s-img", "3", "--pad", "2")
    assert img.stdout.split("\n", 1)[1] == vid.stdout.split("\n", 1)[1]  # body identical
    assert img.returncode == vid.returncode == 0


def test_mask_media_len_replicates_slot_rows():
    out = run_cli("mask", "--mode", "image", "--seq", "I T", "--s-img", "2", "--pad", "1", "--media-len", "3")
    lines = out.stdout.splitlines()
    assert lines[0] == "4 3 1 image"
    assert lines[1] == lines[2] == lines[3] == "110"  # one row per media slot
    assert lines[4] == "111"


def test_mask_media_len_below_one_is_a_usage_error_naming_media_len():
    out = run_cli("mask", "--mode", "image", "--seq", "I T", "--media-len", "0")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and "media_len" in out.stderr and "Traceback" not in out.stderr


def test_mask_malformed_spec_rejected():
    out = run_cli("mask", "--mode", "image", "--seq", "I X T")
    assert out.returncode == 2
    out = run_cli("mask", "--mode", "image", "--seq", "")
    assert out.returncode == 2


# -- train-smoke and probe ---------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = tmp / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    ckpt = tmp / "tiny.ckpt"
    out = run_cli("train-smoke", "--config", str(cfg), "--out", str(ckpt))
    return cfg, ckpt, out


def test_train_smoke_runs_and_writes_checkpoint(tiny_run):
    cfg, ckpt, out = tiny_run
    assert out.returncode in (0, 3)  # convergence not expected in 4 steps
    rec = parse_record(out.stdout)
    assert rec["steps"] == "4"
    assert "loss_0" in rec and "loss_4" in rec
    assert float(rec["final"]) < float(rec["initial"])
    assert ckpt.exists()


def test_train_smoke_zero_steps_unmet_criterion(tiny_run, tmp_path):
    cfg, _, _ = tiny_run
    out = run_cli("train-smoke", "--config", str(cfg), "--steps", "0", "--out", str(tmp_path / "z.ckpt"))
    assert out.returncode == 3
    rec = parse_record(out.stdout)
    assert rec["initial"] == rec["final"]


def test_train_smoke_seed_repeatability(tiny_run, tmp_path):
    cfg, _, _ = tiny_run
    a = run_cli("train-smoke", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "a.ckpt"))
    b = run_cli("train-smoke", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "b.ckpt"))
    sanitize = lambda r: r.stdout.replace(str(tmp_path / "a.ckpt"), "X").replace(
        str(tmp_path / "b.ckpt"), "X"
    )
    assert sanitize(a) == sanitize(b)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_env_seed_override(tiny_run, tmp_path):
    cfg, _, _ = tiny_run
    a = run_cli(
        "train-smoke", "--config", str(cfg), "--out", str(tmp_path / "envseed.ckpt"),
        env_extra={"EVLM_SEED": "9"},
    )
    assert parse_record(a.stdout)["seed"] == "9"


def test_probe_single_candidate(tiny_run):
    _, ckpt, _ = tiny_run
    out = run_cli("probe", "--checkpoint", str(ckpt), "--image", "0", "--candidates", "0")
    assert out.returncode == 0
    rec = parse_record(out.stdout)
    assert rec["argmin"] == "0"
    assert rec["predicted_class"] == "0"


def test_probe_deterministic(tiny_run):
    _, ckpt, _ = tiny_run
    a = run_cli("probe", "--checkpoint", str(ckpt), "--image", "1", "--candidates", "0,1")
    b = run_cli("probe", "--checkpoint", str(ckpt), "--image", "1", "--candidates", "0,1")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_probe_error_paths(tiny_run):
    _, ckpt, _ = tiny_run
    assert run_cli("probe", "--checkpoint", "nope.ckpt", "--image", "0", "--candidates", "0").returncode == 2
    assert run_cli("probe", "--checkpoint", str(ckpt), "--image", "0", "--candidates", "").returncode == 2


@pytest.mark.parametrize(
    "image,candidates", [("-5", "0"), ("0", "-1"), ("1", "0,-1")], ids=["image", "candidate", "second_candidate"]
)
def test_probe_negative_class_id_is_a_usage_error(tiny_run, image, candidates):
    _, ckpt, _ = tiny_run
    out = run_cli("probe", "--checkpoint", str(ckpt), "--image", image, "--candidates", candidates)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1


def test_probe_rejects_truncated_parameter_data(tiny_run, tmp_path):
    _, ckpt, _ = tiny_run
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(ckpt.read_bytes())
    edit_checkpoint(bad, edit_head_data(lambda data: data[: len(data) // 2]))
    out = run_cli("probe", "--checkpoint", str(bad), "--image", "0", "--candidates", "0")
    assert out.returncode == 2 and out.stdout == ""
    assert "llm.head" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "moe, line, hostile",
    [
        (None, "config llm_layers=2", "config llm_layers=1000000000"),
        (None, "config encoder.layers=4", "config encoder.layers=1000000000"),
        (MoEConfig(), "config moe.n_replicas=4", "config moe.n_replicas=1000000000"),
    ],
    ids=["llm_layers", "encoder_layers", "moe_n_replicas"],
)
def test_probe_refuses_a_hostile_size_in_bounded_time(tmp_path, moe, line, hostile):
    # a config of 10**9 layers or replicas must be refused from its first
    # rows, not by walking a table of billions of parameters
    ckpt = tmp_path / "hostile.ckpt"
    save_checkpoint(FusedModel(dataclasses.replace(smoke_config(), moe=moe), seed=0), str(ckpt))
    edit_checkpoint(ckpt, lambda lines: [hostile if text == line else text for text in lines])
    out = run_cli("probe", "--checkpoint", str(ckpt), "--image", "0", "--candidates", "0", timeout=10)
    assert out.returncode == 2 and out.stdout == ""
    assert re.fullmatch(r"error: .* implies .* parameter floats; .*\n", out.stderr), out.stderr


def test_train_smoke_negative_steps_rejected(tiny_run, tmp_path):
    cfg, _, _ = tiny_run
    out = run_cli("train-smoke", "--config", str(cfg), "--steps", "-3", "--out", str(tmp_path / "neg.ckpt"))
    assert out.returncode == 2
    assert not (tmp_path / "neg.ckpt").exists()


def test_probe_checkpoint_that_is_a_directory_is_a_usage_error(tmp_path):
    out = run_cli("probe", "--checkpoint", str(tmp_path), "--image", "0", "--candidates", "0")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1


def test_train_smoke_out_in_a_missing_directory_is_a_usage_error(tmp_path):
    out = run_cli("train-smoke", "--steps", "1", "--out", str(tmp_path / "missing" / "x.ckpt"))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("steps", [[], ["--steps", "0"]], ids=["config_steps", "zero_steps"])
def test_train_smoke_non_finite_lr_is_a_usage_error(tiny_run, tmp_path, steps):
    cfg, _, _ = tiny_run
    out = run_cli("train-smoke", "--config", str(cfg), *steps, "--lr", "nan", "--out", str(tmp_path / "nan.ckpt"))
    assert out.returncode == 2
    assert "lr" in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "nan.ckpt").exists()


# -- upcycle-check --------------------------------------------------------------------


def test_upcycle_check_passes():
    out = run_cli("upcycle-check", "--n", "4", "--m", "4", "--width", "6", "--hidden", "8")
    assert out.returncode == 0
    rec = parse_record(out.stdout)
    assert float(rec["max_deviation"]) < 1e-12
    assert rec["ok"] == "1"


def test_upcycle_check_output_bytes_are_pinned():
    out = run_cli("upcycle-check", "--n", "4", "--m", "4", "--width", "8", "--hidden", "16", "--seed", "0")
    assert out.returncode == 0
    assert parse_record(out.stdout)["max_deviation"] == "4.440892098500626e-16"
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
        "ca2f1ec34bf711722693fb3a0ce351e48e994e25f8c7cc21413f996076b466e1"
    )


def test_upcycle_check_degenerate_exact():
    out = run_cli("upcycle-check", "--n", "1", "--m", "1", "--width", "4", "--hidden", "4")
    assert out.returncode == 0
    assert float(parse_record(out.stdout)["max_deviation"]) == 0.0


def test_upcycle_check_indivisible_hidden():
    out = run_cli("upcycle-check", "--n", "1", "--m", "4", "--width", "4", "--hidden", "6")
    assert out.returncode == 2


@pytest.mark.parametrize("flag,value", [("--width", "0"), ("--hidden", "0"), ("--width", "-2")])
def test_upcycle_check_size_below_one_is_a_usage_error(flag, value):
    out = run_cli("upcycle-check", flag, value)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1


def test_cost_overflow_is_numeric_failure():
    huge = str(10**200)
    out = run_cli("cost", "--scenario", "B=1", f"s_img={huge}", "s_txt=1", f"h_llm={huge}", "d_img=1")
    assert out.returncode == 4
    assert "numeric" in out.stderr


def test_train_smoke_default_config_converges(default_smoke_run):
    """Built-in toy config, 200 steps: the convergence criterion is met and a
    probe on the produced checkpoint recovers a held-out class."""
    out, ckpt, _ = default_smoke_run
    assert out.returncode == 0, out.stdout + out.stderr
    rec = parse_record(out.stdout)
    assert rec["converged"] == "1"
    assert float(rec["final"]) < 0.5 * float(rec["initial"])
    probe = run_cli("probe", "--checkpoint", str(ckpt), "--image", "2", "--candidates", "0,1,2,3")
    assert probe.returncode == 0
    assert parse_record(probe.stdout)["predicted_class"] == "2"


# -- config handling ---------------------------------------------------------------------


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[model]\nllm_layers = 2\nbogus_key = 1\n")
    out = run_cli("train-smoke", "--config", str(cfg), "--steps", "0", "--out", str(tmp_path / "x.ckpt"))
    assert out.returncode == 2
    assert "bogus_key" in out.stderr


def test_invalid_config_value_rejected(tmp_path):
    cfg = tmp_path / "bad2.cfg"
    # llm_layers below the tap count violates a model invariant
    cfg.write_text("[model]\nllm_layers = 1\n")
    out = run_cli("train-smoke", "--config", str(cfg), "--steps", "0", "--out", str(tmp_path / "x.ckpt"))
    assert out.returncode == 2


@pytest.mark.parametrize(
    "section",
    ["[moe]\nenabled = true\n", "[moe]\nenabled = 1\nuse_world_expert = yes\n"],
    ids=["enabled_true", "world_expert_yes"],
)
def test_config_flag_other_than_0_or_1_rejected(tmp_path, section):
    cfg = tmp_path / "flag.cfg"
    cfg.write_text(TINY_CONFIG + section)
    out = run_cli("train-smoke", "--config", str(cfg), "--steps", "0", "--out", str(tmp_path / "x.ckpt"))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize(
    "section",
    [
        "[moe]\nenabled = 0\ntop_k = abc\n",
        "[moe]\nenabled = 0\nn_replicas = -3\n",
        "[moe]\ntop_k = 99\n",
        "[moe]\nenabled = 0\naux_loss_weight = nan\n",
    ],
    ids=["top_k_not_int", "n_replicas_negative", "top_k_above_experts_without_enabled", "aux_loss_weight_nan"],
)
def test_moe_section_is_validated_when_not_enabled(tmp_path, section):
    cfg = tmp_path / "moe.cfg"
    cfg.write_text(TINY_CONFIG + section)
    out = run_cli("train-smoke", "--config", str(cfg), "--steps", "0", "--out", str(tmp_path / "x.ckpt"))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1
    assert not (tmp_path / "x.ckpt").exists()


def test_valid_moe_section_without_enabled_keeps_the_model_dense(tmp_path):
    from evlm.cli import load_run_config

    cfg = tmp_path / "dense.cfg"
    cfg.write_text(TINY_CONFIG + "[moe]\nenabled = 0\ntop_k = 2\n")
    assert load_run_config(str(cfg)).model.moe is None


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nsteps = 1\nbogus = 7\n", "[DEFAULT]\nsteps = 1\n\n[train]\nclasses = 2\n"],
    ids=["alone", "beside_train"],
)
def test_default_section_is_rejected(tmp_path, text):
    # configparser reads [DEFAULT] as keys of every other section, not as a section
    cfg = tmp_path / "default.cfg"
    cfg.write_text(text)
    with pytest.raises(EvlmError, match=r"unknown config section \[DEFAULT\]"):
        cli.load_run_config(str(cfg))


@pytest.mark.parametrize(
    "text",
    [
        "llm_layers = 2\n",
        "[model]\nllm_layers = 2\nllm_layers = 3\n",
        "[model]\nllm_layers = 2\n\n[model]\nh_llm = 8\n",
        "[model]\nllm_layers = 2\nh_llm\n",
    ],
    ids=["no_section_header", "duplicate_key", "duplicate_section", "line_without_equals"],
)
def test_malformed_config_file_is_a_usage_error(tmp_path, text):
    cfg = tmp_path / "malformed.cfg"
    cfg.write_text(text)
    out = run_cli("train-smoke", "--config", str(cfg), "--steps", "0", "--out", str(tmp_path / "x.ckpt"))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and len(out.stderr.splitlines()) == 1
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "x.ckpt").exists()


EVERY_KEY_CONFIG = """\
[run]
seed = 5

[model]
llm_layers = 3
h_llm = 12
heads = 3
vocab = 9
media_len = 3
r_xc = 0.25
r_xf = 0.75
mask_mode = video
pad_len = 2
ffn_mult = 2
max_seq = 40

[encoder]
layers = 5
patch_count = 3
feature_dim = 6
tap_window = 3
num_taps = 3

[moe]
enabled = 1
n_replicas = 2
segments = 3
top_k = 5
use_world_expert = 0
aux_loss_weight = 0.125

[train]
steps = 7
lr = 0.25
stage = sft
classes = 3
per_class = 1
"""


def test_run_config_naming_every_key_builds_the_pinned_run_config(tmp_path):
    from evlm.cli import RunConfig, load_run_config
    from evlm.model import ModelConfig
    from evlm.moe import MoEConfig
    from evlm.vision import EncoderConfig

    path = tmp_path / "every.cfg"
    path.write_text(EVERY_KEY_CONFIG)
    assert load_run_config(str(path)) == RunConfig(
        model=ModelConfig(
            llm_layers=3,
            h_llm=12,
            heads=3,
            vocab=9,
            media_len=3,
            r_xc=0.25,
            r_xf=0.75,
            moe=MoEConfig(n_replicas=2, segments=3, top_k=5, use_world_expert=False, aux_loss_weight=0.125),
            encoder=EncoderConfig(layers=5, patch_count=3, feature_dim=6, tap_window=3, num_taps=3),
            mask_mode="video",
            pad_len=2,
            ffn_mult=2,
            max_seq=40,
        ),
        seed=5,
        steps=7,
        lr=0.25,
        stage="sft",
        classes=3,
        per_class=1,
    )


# -- determinism across commands ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("cost", "--preset", "pretrain", "--format", "record"),
        ("cost", "--preset", "continual", "--format", "table"),
        ("mask", "--mode", "video", "--seq", "I T I T", "--s-img", "2", "--pad", "1"),
        ("upcycle-check", "--n", "2", "--m", "2", "--width", "4", "--hidden", "8"),
    ],
)
def test_repeat_invocations_byte_identical(argv):
    a, b = run_cli(*argv), run_cli(*argv)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode


def test_main_builds_one_parser_and_parses_each_call_afresh():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    argv = ["probe", "--checkpoint", "a.ckpt", "--image", "1", "--candidates", "0"]
    first = parser.parse_args([*argv, "--seed", "3"])
    second = parser.parse_args(argv)
    assert first is not second and (first.seed, second.seed) == (3, None)


# -- fuzzing --------------------------------------------------------------------------


def exit_code(argv):
    """cli.main in process with its output discarded; argparse's SystemExit
    counts as an exit code, any other exception propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def mutate_checkpoint(rng, data):
    """One byte replaced (in the header or anywhere), a truncation, or a line
    repeated. One replaced byte makes a config value at most about ten times
    larger, so no mutant declares a model much larger than the original."""
    kind = rng.randrange(4)
    if kind < 2:
        end = data.index(b"\nparam ") if kind == 0 else len(data)
        i = rng.randrange(end)
        return data[:i] + bytes([rng.choice(b"0123456789 .-=en\nx")]) + data[i + 1 :]
    if kind == 2:
        return data[: rng.randrange(len(data))]
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    return b"\n".join(lines[: i + 1] + lines[i:])


def small_value(rng):
    return rng.choice(["-2", "-1", "0", "1", "1", "2", "2", "3", "3", "x", "0.5", ""])


def mutate_argv(rng):
    command = rng.choice(["cost", "mask", "upcycle-check"])
    if command == "cost":
        if rng.random() < 0.2:
            return ["cost", "--preset", rng.choice(["pretrain", "continual", "other"])]
        keys = ["B", "s_img", "s_txt", "h_llm", "d_img", rng.choice(["r_xc", "r_xf", "media_len", "bogus"])]
        return ["cost", "--scenario", *(f"{k}={small_value(rng)}" for k in keys if rng.random() < 0.9)]
    if command == "mask":
        seq = " ".join(rng.choice("IITTT X") for _ in range(rng.randint(0, 5)))
        argv = ["mask", "--mode", rng.choice(["image", "video", "image", "video", "audio"]), "--seq", seq]
        flags = ["--s-img", "--pad", "--media-len"]
    else:
        argv = ["upcycle-check"]
        flags = ["--n", "--m", "--width", "--hidden"]
    for flag in flags:
        if rng.random() < 0.5:
            argv += [flag, small_value(rng)]
    return argv


def test_fuzzed_checkpoints_and_arguments_end_in_a_documented_exit_code(tmp_path):
    rng = random.Random(2024)
    ckpt = tmp_path / "smoke.ckpt"
    save_checkpoint(train_smoke(smoke_config(), steps=0, seed=0).model, str(ckpt))
    original = ckpt.read_bytes()
    mutant = tmp_path / "mutant.ckpt"
    probe = ["probe", "--checkpoint", str(mutant), "--image", "1", "--candidates", "0,1"]
    for i in range(60):
        data = mutate_checkpoint(rng, original)
        mutant.write_bytes(reseal(data) if i % 2 else data)  # resealed mutants reach the parser
        assert exit_code(probe) in {0, 2, 3, 4, 5}, f"checkpoint mutant {i}"
    for argv in [["upcycle-check", "--width", "0"]] + [mutate_argv(rng) for _ in range(200)]:
        assert exit_code(argv) in {0, 2, 3, 4, 5}, argv


def test_fuzzed_param_header_lines_exit_2(tmp_path):
    # its own generator, so the mutants of the test above stay as they are
    rng = random.Random(2025)
    ckpt = tmp_path / "smoke.ckpt"
    save_checkpoint(train_smoke(smoke_config(), steps=0, seed=0).model, str(ckpt))
    original = ckpt.read_bytes()
    lines = original.split(b"\n")
    heads = [k for k, line in enumerate(lines) if line.startswith(b"param ")]
    mutant = tmp_path / "mutant.ckpt"
    probe = ["probe", "--checkpoint", str(mutant), "--image", "1", "--candidates", "0,1"]
    for i in range(60):
        k = rng.choice(heads)
        j = rng.randrange(len(lines[k]))
        line = lines[k][:j] + bytes([rng.choice(b"0123456789 ._-=abegilmnoprstvx\n\r\xff")]) + lines[k][j + 1 :]
        data = reseal(b"\n".join(lines[:k] + [line] + lines[k + 1 :]))
        mutant.write_bytes(data)
        assert exit_code(probe) == 2 or data == original, f"param header mutant {i}: {line!r}"


def test_a_checkpoint_loads_only_if_saving_it_writes_back_its_bytes(tmp_path):
    rng = random.Random(2026)  # its own generator, so the mutants of the tests above stay as they are
    ckpt, again = tmp_path / "smoke.ckpt", tmp_path / "again.ckpt"
    save_checkpoint(train_smoke(smoke_config(), steps=0, seed=0).model, str(ckpt))
    original = ckpt.read_bytes()
    lines = original.decode().split("\n")[:-2]  # up to `end`, without the sha256 trailer
    named = [  # \r\n line ends, upper-case data and space-separated data: save_checkpoint writes none
        lines[0] + "\n" + "\r\n".join(lines[1:]) + "\r\n",
        "\n".join(edit_head_data(str.upper)(lines)) + "\n",
        "\n".join(edit_head_data(spaced)(lines)) + "\n",
    ]
    mutants = [text.encode() for text in named] + [mutate_checkpoint(rng, original) for _ in range(200)]
    loaded = 0
    for i, data in enumerate(map(reseal, mutants)):
        ckpt.write_bytes(data)
        try:
            model = load_checkpoint(str(ckpt))
        except ConfigError:
            continue
        loaded += 1
        save_checkpoint(model, str(again))
        assert again.read_bytes() == data, f"mutant {i} loads, but saving it writes other bytes"
    assert loaded > 0


FOOTPRINT_PROBE = """\
import sys
before = set(sys.modules)
import evlm.cli
from evlm.model import save_checkpoint, smoke_config, train_smoke
save_checkpoint(train_smoke(smoke_config(), steps=1, seed=0).model, sys.argv[1])
assert evlm.cli.main(["probe", "--checkpoint", sys.argv[1], "--image", "1", "--candidates", "0,1"]) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_and_a_training_step_load_only_stdlib_modules_and_no_openssl(tmp_path):
    # in a fresh interpreter: pytest itself has imported hashlib here; the
    # child also writes a checkpoint and probes it
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, str(tmp_path / "smoke.ckpt")],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    added = done.stdout.splitlines()[-1].split()
    assert "evlm.cli" in added
    assert not {"hashlib", "_hashlib", "_ssl"} & set(added)
    foreign = [m for m in added if m.split(".")[0] not in sys.stdlib_module_names | {"evlm"}]
    assert not foreign
