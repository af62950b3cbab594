"""The four benchmark workloads and their pinned reference outputs.

Each workload builds its inputs from an input set number (the seed modulo
INPUT_SETS), so every seed the driver may pass has references pinned in
references/<workload>.json. An op is one `FusedModel.sgd_step` or one
in-process `evlm.cli.main(["probe", ...])` call. Training ops cycle: after
CYCLE steps the parameters are restored to their initial values (outside the
timed op), so a run of any length checks every step against a short pinned
loss curve.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
from pathlib import Path

import evlm.cli
import evlm.model
from evlm.fusion import ImageMarker, insert_media_tokens
from evlm.model import (
    TOK_BOS,
    TOK_CLASS_BASE,
    TOK_SHOWS,
    FusedModel,
    ModelConfig,
    caption_sequence,
    freeze_stage,
    smoke_config,
    synthetic_patches,
    train_smoke,
)
from evlm.moe import MoEConfig

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references"
OUT = HERE / "out"

INPUT_SETS = 32
CYCLE = 8  # training steps between parameter restores
PROBE_QUERIES = 16  # distinct probe calls per input set
PROBE_TRAIN_STEPS = 2  # training steps behind the probe checkpoint
LR = 0.5


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


class TrainState:
    """A model, its batch, and the parameter snapshot restored every CYCLE ops."""

    def __init__(self, model: FusedModel, batch, stage: str, frozen_vision: bool):
        self.model = model
        self.cfg = model.cfg
        self.batch = batch
        self.trainable = freeze_stage(stage)
        self.frozen_vision = frozen_vision
        self.positions = sum(len(seq) for seq, _ in batch)
        self.cycle = CYCLE
        self._initial = {name: list(t.data) for name, t in model.params.items()}

    def prepare(self, i: int) -> None:
        if i % CYCLE == 0:
            for name, t in self.model.params.items():
                t.data[:] = self._initial[name]

    def op(self, i: int) -> str:
        loss = self.model.sgd_step(self.batch, LR, self.trainable, taps_precomputed=self.frozen_vision)
        return repr(loss)

    def load_ratio(self) -> float | None:
        """Mean over MoE layers of the busiest expert's routed slots over the
        mean per expert, from the last step's routing stats."""
        stats = self.model.last_routing_stats
        if not stats:
            return None
        ratios = [max(s.assignments) * len(s.assignments) / sum(s.assignments) for s in stats]
        return sum(ratios) / len(ratios)

    def close(self) -> None:
        pass


def _caption_batch(model: FusedModel, classes, per_class: int, seed: int, frozen: bool):
    """The smoke task's batch: one caption per class, `per_class` images each;
    frozen vision is encoded once here, as train_smoke does."""
    cfg = model.cfg
    batch = []
    for c in classes:
        seq = caption_sequence(cfg, c)
        for s in range(per_class):
            patches = synthetic_patches(cfg.encoder, c, s, seed)
            batch.append((seq, model.encode_images_tensors([patches]) if frozen else [patches]))
    return batch


def setup_train_frozen_vit(seed: int) -> TrainState:
    model = FusedModel(smoke_config(), seed)
    return TrainState(model, _caption_batch(model, range(4), 2, seed, frozen=True), "pretrain_phase1", True)


def moe_config() -> ModelConfig:
    return dataclasses.replace(
        smoke_config(), moe=MoEConfig(n_replicas=4, segments=4, top_k=4, aux_loss_weight=0.01)
    )


MOE_SAMPLES = 4


def setup_train_moe_sft(seed: int) -> TrainState:
    model = FusedModel(moe_config(), seed)
    classes = random.Random(seed).sample(range(4), MOE_SAMPLES)
    return TrainState(model, _caption_batch(model, classes, 1, seed, frozen=False), "sft", False)


VIDEO_FRAMES = 4
VIDEO_SEQUENCES = 1


def video_config() -> ModelConfig:
    return dataclasses.replace(smoke_config(), mask_mode="video", max_seq=64)


def video_sequence(cfg: ModelConfig, class_id: int):
    """40 positions: four 8-slot frames, each followed by text, then the
    caption; text after the first frame attends to every frame."""
    items: list = [TOK_BOS]
    for f in range(VIDEO_FRAMES):
        items += [ImageMarker(f), TOK_SHOWS]
    items += [TOK_BOS, TOK_SHOWS, TOK_CLASS_BASE + class_id]
    return insert_media_tokens(items, media_len=cfg.media_len)


def setup_train_video(seed: int) -> TrainState:
    cfg = video_config()
    model = FusedModel(cfg, seed)
    classes = random.Random(seed).sample(range(4), VIDEO_SEQUENCES)
    batch = [
        (video_sequence(cfg, c), [synthetic_patches(cfg.encoder, c, f, seed) for f in range(VIDEO_FRAMES)])
        for c in classes
    ]
    return TrainState(model, batch, "pretrain_phase2", False)


class ProbeState:
    """A checkpoint trained and saved in set-up, and the probe queries."""

    CANDIDATES = "0,1,2,3"
    _ids = itertools.count()  # set-ups spread through a run overlap the live state

    def __init__(self, seed: int):
        self.cfg = smoke_config()
        result = train_smoke(self.cfg, steps=PROBE_TRAIN_STEPS, seed=seed)
        result.model.meta = {"seed": str(seed), "classes": "4"}
        OUT.mkdir(exist_ok=True)
        self.path = str(OUT / f"probe-{os.getpid()}-{next(self._ids)}.ckpt")
        evlm.model.save_checkpoint(result.model, self.path)  # module lookup, so a wrapper is seen
        self.queries = [
            ["probe", "--checkpoint", self.path, "--image", str(j % 4),
             "--candidates", self.CANDIDATES, "--sample", str(1000 + j)]
            for j in range(PROBE_QUERIES)
        ]
        self.positions = 4 * len(caption_sequence(self.cfg, 0))
        self.cycle = PROBE_QUERIES

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = evlm.cli.main(self.queries[i % PROBE_QUERIES])  # module lookup, so a wrapper is seen
        return f"exit={code}\n{out.getvalue()}"

    def load_ratio(self) -> None:
        return None

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)


SETUPS = {
    "train_frozen_vit": setup_train_frozen_vit,
    "train_moe_sft": setup_train_moe_sft,
    "train_video": setup_train_video,
    "probe": ProbeState,
}


def reference_path(workload: str) -> Path:
    return REFERENCES / f"{workload}.json"


def load_reference(workload: str, seed: int) -> list[str]:
    with open(reference_path(workload)) as fh:
        data = json.load(fh)
    if data["input_sets"] != INPUT_SETS:
        raise ValueError(f"{reference_path(workload)} pins {data['input_sets']} input sets, expected {INPUT_SETS}")
    return data["outputs"][input_set(seed)]
