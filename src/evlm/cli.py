"""Single command-line entry point: cost reports, mask dumps, smoke training,
the loss-argmin probe, and the upcycling identity check.

Exit codes are a stable contract: 0 success, 2 usage/config error,
3 convergence criterion unmet, 4 numeric failure, 5 invariant violation.
All randomness is controlled by the root seed. EVLM_SEED replaces the seed each
command would use (train-smoke's config seed, the seed in a probed checkpoint's
meta, upcycle-check's 0); an explicit --seed flag outranks it.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from dataclasses import dataclass, replace

from .errors import ConfigError, ContractViolationError, EvlmError, NonFiniteError
from .flops import (
    FlopsScenario,
    format_report_record,
    format_report_table,
    preset,
    ratio,
)
from .fusion import ImageMarker, build_cross_mask_image, build_cross_mask_video, format_mask_dump, insert_media_tokens
from .layers import ffn, ffn_params
from .model import (
    STAGE_TRAINABLE,
    ModelConfig,
    caption_tokens,
    config_fields,
    config_values,
    load_checkpoint,
    loss_probe,
    parse_flag,
    save_checkpoint,
    smoke_config,
    synthetic_patches,
    train_smoke,
)
from .moe import MoEConfig, upcycle
from .numerics import Graph, Tensor, derive_seed, seeded_init
from .vision import EncoderConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CRITERION = 3
EXIT_NUMERIC = 4
EXIT_INVARIANT = 5

UPCYCLE_TOL = 1e-12


# -- run configuration --------------------------------------------------------


@dataclass
class RunConfig:
    model: ModelConfig
    seed: int = 0
    steps: int = 200
    lr: float = 0.5
    stage: str = "pretrain_phase1"
    classes: int = 4
    per_class: int = 2


def load_run_config(path: str) -> RunConfig:
    """Sections [run] (seed), [model], [encoder], [moe] (enabled plus the
    MoEConfig fields) and [train] (the other RunConfig fields), one key per
    scalar field of the config dataclasses. A key left out keeps its value in
    RunConfig(model=smoke_config()), or in MoEConfig(). Unknown sections and
    keys are rejected and every dataclass invariant is re-validated, the
    [moe] fields' too when the MoE is not enabled."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise EvlmError(f"cannot read config file {path!r}")
    except configparser.Error as exc:  # its messages can span lines; error output is one
        raise EvlmError(" ".join(str(exc).split())) from exc
    if parser.defaults():  # configparser would spread its keys over every other section
        raise EvlmError("unknown config section [DEFAULT]")
    allowed = {
        "run": {"seed"},
        "model": set(config_fields(ModelConfig)),
        "encoder": set(config_fields(EncoderConfig)),
        "moe": {"enabled", *config_fields(MoEConfig)},
        "train": set(config_fields(RunConfig)) - {"seed"},
    }
    for section in parser.sections():
        if section not in allowed:
            raise EvlmError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - allowed[section]
        if unknown:
            raise EvlmError(f"unknown keys in [{section}]: {sorted(unknown)}")
    given = {section: dict(parser[section]) for section in parser.sections()}
    values = lambda cls, section: config_values(cls, given.get(section, {}), required=False)

    base = smoke_config()
    encoder = replace(base.encoder, **values(EncoderConfig, "encoder"))
    moe = MoEConfig(**values(MoEConfig, "moe"))
    if not parse_flag(given.get("moe", {}).get("enabled", "0")):
        moe = None
    model = replace(base, encoder=encoder, moe=moe, **values(ModelConfig, "model"))
    return RunConfig(model=model, **values(RunConfig, "run"), **values(RunConfig, "train"))


def _resolve_seed(flag_value: int | None, config_value: int) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("EVLM_SEED")
    if env is not None:
        return int(env)
    return config_value


# -- cost ----------------------------------------------------------------------


_SCENARIO_KEYS = {"B", *config_fields(FlopsScenario)} - {"batch"}  # B is the batch size


def cmd_cost(args) -> int:
    if args.preset:
        report = ratio(preset(args.preset), preset_name=args.preset)
    else:
        kv = {}
        for item in args.scenario:
            key, sep, value = item.partition("=")
            if not sep or key not in _SCENARIO_KEYS:
                raise EvlmError(f"bad scenario field {item!r} (keys: {sorted(_SCENARIO_KEYS)})")
            if key in kv:
                raise EvlmError(f"scenario field {key!r} given twice")
            kv[key] = value
        missing = {"B", "s_img", "s_txt", "h_llm", "d_img"} - set(kv)
        if missing:
            raise EvlmError(f"scenario is missing {sorted(missing)}")
        kv["batch"] = kv.pop("B")
        report = ratio(FlopsScenario(**config_values(FlopsScenario, kv, required=False)))
    formatter = format_report_record if args.format == "record" else format_report_table
    sys.stdout.write(formatter(report))
    return EXIT_OK


# -- mask ------------------------------------------------------------------------


def parse_seq_spec(spec: str, media_len: int):
    """Mini-language: whitespace-separated I/T tokens, images auto-indexed."""
    items = []
    image = 0
    tokens = spec.split()
    if not tokens:
        raise EvlmError("empty sequence spec")
    for tok in tokens:
        if tok == "I":
            items.append(ImageMarker(image))
            image += 1
        elif tok == "T":
            items.append(0)
        else:
            raise EvlmError(f"bad sequence token {tok!r} (expected I or T)")
    return insert_media_tokens(items, media_len=media_len)


def cmd_mask(args) -> int:
    seq = parse_seq_spec(args.seq, args.media_len)
    builder = build_cross_mask_image if args.mode == "image" else build_cross_mask_video
    mask = builder(seq, args.s_img, args.pad)
    sys.stdout.write(format_mask_dump(mask, args.pad, args.mode))
    return EXIT_OK


# -- train-smoke --------------------------------------------------------------------


def cmd_train_smoke(args) -> int:
    run = load_run_config(args.config) if args.config else RunConfig(model=smoke_config())
    seed = _resolve_seed(args.seed, run.seed)
    steps = args.steps if args.steps is not None else run.steps
    lr = args.lr if args.lr is not None else run.lr
    result = train_smoke(
        run.model,
        steps=steps,
        seed=seed,
        lr=lr,
        stage=args.stage or run.stage,
        classes=run.classes,
        per_class=run.per_class,
    )
    print(f"seed={seed}")
    print(f"steps={steps}")
    print(f"lr={lr!r}")
    print(f"stage={args.stage or run.stage}")
    for i, value in enumerate(result.losses):
        print(f"loss_{i}={value!r}")
    print(f"initial={result.losses[0]!r}")
    print(f"final={result.losses[-1]!r}")
    print(f"converged={1 if result.converged else 0}")
    if result.model.last_routing_stats:
        for layer, stats in enumerate(result.model.last_routing_stats):
            counts = ",".join(str(c) for c in stats.assignments)
            print(f"routing_layer{layer}={counts}")
    result.model.meta = {"seed": str(seed), "classes": str(run.classes)}
    save_checkpoint(result.model, args.out)
    print(f"checkpoint={args.out}")
    return EXIT_OK if result.converged else EXIT_CRITERION


# -- probe ------------------------------------------------------------------------------


def cmd_probe(args) -> int:
    model = load_checkpoint(args.checkpoint)
    candidates = [c for c in args.candidates.split(",") if c != ""]
    if not candidates:
        raise EvlmError("no candidate classes given")
    class_ids = [int(c) for c in candidates]
    if min(class_ids + [args.image]) < 0:
        raise EvlmError("class ids (--image, --candidates) must be >= 0")
    seed = _resolve_seed(args.seed, int(model.meta.get("seed", "0")))
    patches = synthetic_patches(model.cfg.encoder, args.image, args.sample, seed)
    best, losses = loss_probe(model, patches, [caption_tokens(c) for c in class_ids])
    print(f"image_class={args.image}")
    print(f"sample={args.sample}")
    print(f"seed={seed}")
    for cid, value in zip(class_ids, losses):
        print(f"candidate_{cid}={value!r}")
    print(f"argmin={best}")
    print(f"predicted_class={class_ids[best]}")
    return EXIT_OK


# -- upcycle-check -----------------------------------------------------------------------


def cmd_upcycle_check(args) -> int:
    cfg = MoEConfig(n_replicas=args.n, segments=args.m, top_k=1)  # routing is irrelevant here
    seed = _resolve_seed(args.seed, 0)
    if args.width < 1 or args.hidden < 1:  # the draw takes width**-0.5 and hidden**-0.5
        raise ConfigError(f"width and hidden size must be >= 1, got {args.width} and {args.hidden}")
    dense = ffn_params(seeded_init(seed), "ffn.", args.width, args.hidden)
    bank = upcycle(dense["w_in"], dense["w_out"], cfg)
    worst = 0.0
    for trial in range(100):
        g = Graph()
        x = g.param(Tensor.randn((1, args.width), derive_seed(seed, f"upcycle.x{trial}")))
        apply = lambda w, name="": ffn(g, x, g.param(w[name + "w_in"]), g.param(w[name + "w_out"])).t.data
        want = apply(dense)
        for r in range(cfg.n_replicas):
            total = [0.0] * args.width
            for seg in range(cfg.segments):
                out = apply(bank, f"expert{r * cfg.segments + seg}.")
                total = [a + b for a, b in zip(total, out)]
            worst = max(worst, max(abs(a - b) for a, b in zip(total, want)))
        world = apply(bank, "world.")
        worst = max(worst, max(abs(a - b) for a, b in zip(world, want)))
    print(f"replicas={cfg.n_replicas}")
    print(f"segments={cfg.segments}")
    print(f"width={args.width}")
    print(f"hidden={args.hidden}")
    print(f"trials=100")
    print(f"max_deviation={worst!r}")
    print(f"tolerance={UPCYCLE_TOL!r}")
    ok = worst < UPCYCLE_TOL
    print(f"ok={1 if ok else 0}")
    return EXIT_OK if ok else EXIT_INVARIANT


# -- entry point ---------------------------------------------------------------------------


@functools.cache  # built once per process; parse_args fills a fresh namespace per call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="evlm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cost", help="analytical FLOPs report")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", choices=["pretrain", "continual"])
    g.add_argument("--scenario", nargs="+", metavar="KEY=VALUE")
    c.add_argument("--format", choices=["table", "record"], default="table")
    c.set_defaults(func=cmd_cost)

    m = sub.add_parser("mask", help="dump a cross-attention permission mask")
    m.add_argument("--mode", choices=["image", "video"], required=True)
    m.add_argument("--seq", required=True, help="e.g. 'I T T I T'")
    m.add_argument("--s-img", type=int, default=4, dest="s_img")
    m.add_argument("--pad", type=int, default=1)
    m.add_argument("--media-len", type=int, default=1, dest="media_len")
    m.set_defaults(func=cmd_mask)

    t = sub.add_parser("train-smoke", help="synthetic-task SGD smoke run")
    t.add_argument("--config", help="key=value section config file")
    t.add_argument("--steps", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--stage", choices=list(STAGE_TRAINABLE))
    t.add_argument("--out", default="smoke.ckpt")
    t.set_defaults(func=cmd_train_smoke)

    pr = sub.add_parser("probe", help="loss-argmin classification probe")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--image", type=int, required=True, help="synthetic class id")
    pr.add_argument("--candidates", required=True, help="comma-separated class ids")
    pr.add_argument("--sample", type=int, default=1000, help="held-out sample index")
    pr.add_argument("--seed", type=int)
    pr.set_defaults(func=cmd_probe)

    u = sub.add_parser("upcycle-check", help="verify the replicate-and-segment identities")
    u.add_argument("--n", type=int, default=4, help="replicas")
    u.add_argument("--m", type=int, default=4, help="segments per replica")
    u.add_argument("--width", type=int, default=8, help="token width h")
    u.add_argument("--hidden", type=int, default=16, help="dense FFN hidden width")
    u.add_argument("--seed", type=int)
    u.set_defaults(func=cmd_upcycle_check)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonFiniteError, OverflowError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ContractViolationError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (EvlmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
