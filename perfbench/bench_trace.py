"""Span tracing of evlm's layers, installed from outside the package.

`Tracer.install()` replaces every binding through which the workloads reach
a layer entry point with a wrapper that records a span (name, start, end,
parent span, op id) or bumps a per-op counter; `Tracer.remove()` puts the
original objects back. Nothing under src/ knows about the tracer. Spans stay
in memory until `write_spans()`.

Graph ops and the matmul kernels run tens of thousands of times per training
step, so they are counters (calls, MACs, floats, busy time), not spans; their
time stays inside the self time of the layer span that issued them. Times
are process CPU seconds, the clock the runner times ops with.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from collections import defaultdict
from time import process_time as clock  # CPU seconds, like the runner's op latency

from evlm.flops import FlopsScenario, flops_cross_attention_terms_exact

SETUP_OP = -1  # op id stamped on spans recorded while a workload sets up

# Span name -> every (module, attribute path) binding a workload calls it
# through. evlm.model and evlm.cli import the mask builders, the MoE block,
# load_checkpoint, save_checkpoint and loss_probe by name, so wrapping only
# the defining module would miss their calls.
SPAN_TARGETS: dict[str, list[tuple[str, str]]] = {
    "cli.main": [("evlm.cli", "main")],
    "model.sgd_step": [("evlm.model", "FusedModel.sgd_step")],
    "model.forward": [("evlm.model", "FusedModel.forward_nodes")],
    "model.loss": [("evlm.model", "FusedModel.loss_nodes")],
    "model.probe": [("evlm.model", "loss_probe"), ("evlm.cli", "loss_probe")],
    "model.checkpoint.load": [("evlm.model", "load_checkpoint"), ("evlm.cli", "load_checkpoint")],
    "model.checkpoint.save": [("evlm.model", "save_checkpoint"), ("evlm.cli", "save_checkpoint")],
    "vision.encode": [("evlm.vision", "VisionEncoder.encode_nodes")],
    "fusion.xattn": [("evlm.fusion", "GatedXAttn.forward_nodes")],
    "fusion.mask": [
        (module, builder)
        for module in ("evlm.fusion", "evlm.model", "evlm.cli")
        for builder in ("build_cross_mask_image", "build_cross_mask_video")
    ]
    + [("evlm.fusion", "build_self_mask"), ("evlm.model", "build_self_mask")],
    "moe.forward": [("evlm.moe", "moe_forward_nodes"), ("evlm.model", "moe_forward_nodes")],
    "moe.aux_loss": [("evlm.moe", "aux_loss_node"), ("evlm.model", "aux_loss_node")],
    "numerics.backward": [("evlm.numerics.graph", "Graph.backward")],
}

# Counter-only bindings. Backward closures look mm_data and mm_abt_data up in
# the globals of evlm.numerics.graph, so that module's bindings are the ones
# that see both forward and backward kernel calls.
KERNEL_TARGETS = [("evlm.numerics.graph", "mm_data"), ("evlm.numerics.graph", "mm_abt_data")]
MATMUL_TARGET = ("evlm.numerics.graph", "Graph.matmul")
OUT_TARGET = ("evlm.numerics.graph", "Graph._out")  # every op result passes here once
FFN_FACTORY_TARGET = ("evlm.fusion", "GatedXAttn.dense_ffn_branch")


class Span:
    """One timed call of a layer entry point; `parent` indexes Tracer.spans."""

    __slots__ = ("name", "start", "end", "parent", "op", "macs", "matmuls", "rows", "kv_rows")

    def __init__(self, name: str, start: float, parent: int | None, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.macs = 0  # forward matmul MACs issued while this span was innermost
        self.matmuls = 0
        self.rows = 0
        self.kv_rows = 0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    A nested span is subtracted once, from its own parent only, so the self
    times of a root and all its descendants add up to the root's duration.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory spans and per-op counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, defaultdict[str, float]] = {}  # op id -> counter -> value
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = SETUP_OP
        self._cur = self._counts_for(SETUP_OP)

    def _counts_for(self, op: int) -> defaultdict[str, float]:
        return self.counts.setdefault(op, defaultdict(int))

    def begin_op(self, op: int) -> None:
        self.op = op
        self._cur = self._counts_for(op)

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, clock(), self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        tracer = self
        note = _NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                if note:
                    note(tracer, span, signature.bind(*args, **kwargs).arguments)
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    # -- counters ----------------------------------------------------------------

    def _kernel_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, m, k, b, n):
            t0 = clock()
            out = fn(a, m, k, b, n)
            c = tracer._cur
            c["kernel.busy_s"] += clock() - t0
            c["kernel.macs"] += m * k * n
            return out

        return wrapper

    def _matmul_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(g, a, b):
            out = fn(g, a, b)
            macs = a.t.shape[0] * a.t.shape[1] * b.t.shape[1]
            c = tracer._cur
            c["matmul.calls"] += 1
            c["matmul.fwd_macs"] += macs
            if tracer._stack:
                span = tracer.spans[tracer._stack[-1]]
                span.macs += macs
                span.matmuls += 1
            return out

        return wrapper

    def _out_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(g, shape, data, bwd):
            node = fn(g, shape, data, bwd)
            c = tracer._cur
            c["ops"] += 1
            c["out_floats"] += len(data)
            return node

        return wrapper

    def _ffn_factory_wrapper(self, fn):
        """dense_ffn_branch returns a closure; wrap that closure in a span so
        the dense FFN is a child of the cross-attention span, like MoE is."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._span_wrapper("fusion.ffn", fn(*args, **kwargs))

        return wrapper

    # -- install / remove -----------------------------------------------------------

    def _patch(self, target: tuple[str, str], make) -> None:
        owner, attr = _resolve(*target)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, targets in SPAN_TARGETS.items():
                for target in targets:
                    self._patch(target, functools.partial(self._span_wrapper, name))
            for target in KERNEL_TARGETS:
                self._patch(target, self._kernel_wrapper)
            self._patch(MATMUL_TARGET, self._matmul_wrapper)
            self._patch(OUT_TARGET, self._out_wrapper)
            self._patch(FFN_FACTORY_TARGET, self._ffn_factory_wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
                    )
                    + "\n"
                )


def all_bindings() -> list[tuple[str, str]]:
    """Every binding install() replaces, for checking that remove() restored it."""
    out = [t for targets in SPAN_TARGETS.values() for t in targets]
    return out + KERNEL_TARGETS + [MATMUL_TARGET, OUT_TARGET, FFN_FACTORY_TARGET]


def snapshot_bindings() -> dict[tuple[str, str], object]:
    out = {}
    for target in all_bindings():
        owner, attr = _resolve(*target)
        out[target] = owner.__dict__[attr]
    return out


# -- argument notes recorded on spans ------------------------------------------------


def _note_xattn(tracer: Tracer, span: Span, arguments) -> None:
    span.rows = arguments["hidden"].t.rows
    span.kv_rows = arguments["kv"].t.rows
    tracer._cur["fusion.kv_rows"] += span.kv_rows


def _note_moe(tracer: Tracer, span: Span, arguments) -> None:
    tracer._cur["moe.tokens"] += arguments["x"].t.rows


_NOTES = {"fusion.xattn": _note_xattn, "moe.forward": _note_moe}


# -- per-layer metrics --------------------------------------------------------------


def counted_over_model(spans: list[Span], children: dict[int, list[int]], first_xattn: int, cfg) -> float:
    """Forward matmul FLOPs counted in one fused layer of one sample, over the
    paper's four cross-attention terms for the same scenario (s_img = key
    rows, media + text = query rows).

    The fused layer is the first cross-attention span with its FFN child, plus
    one decoder block's share of the enclosing forward span's own matmuls once
    the LM head is taken out.
    """
    xattn = spans[first_xattn]
    xattn_macs = xattn.macs + sum(spans[c].macs for c in children.get(first_xattn, ()))
    head_macs = xattn.rows * cfg.h_llm * cfg.vocab
    block_macs, rest = divmod(spans[xattn.parent].macs - head_macs, cfg.llm_layers)
    if rest:
        raise ValueError("decoder blocks issued unequal matmul work")
    scenario = FlopsScenario(
        batch=1,
        s_img=xattn.kv_rows,
        s_txt=xattn.rows - cfg.media_len,
        h_llm=cfg.h_llm,
        d_img=cfg.encoder.feature_dim,
        r_xc=cfg.r_xc,
        r_xf=cfg.r_xf,
        media_len=cfg.media_len,
    )
    return float(2 * (xattn_macs + block_macs) / sum(flops_cross_attention_terms_exact(scenario)))


def layer_metrics(tracer: Tracer, ops: list[int], cfg, extra: dict[int, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics: the median over `ops` of each per-op value, plus the
    set-up spans (checkpoint save). `extra` carries per-op values the runner
    reads from the model, keyed by op id."""
    spans = tracer.spans
    selfs = self_times(spans)
    children: dict[int, list[int]] = defaultdict(list)
    by_op: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
        by_op[s.op].append(i)

    per_op: dict[str, list[float]] = defaultdict(list)
    for op in ops:
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        matmuls: dict[str, int] = defaultdict(int)
        for i in by_op.get(op, ()):
            s = spans[i]
            calls[s.name] += 1
            busy[s.name] += s.end - s.start
            own[s.name] += selfs[i]
            matmuls[s.name] += s.matmuls
        c = tracer.counts.get(op, {})
        first_xattn = next((i for i in by_op.get(op, ()) if spans[i].name == "fusion.xattn"), None)
        dense = cfg.moe is None and first_xattn is not None
        values = {
            "numerics.kernel.macs": c.get("kernel.macs", 0),
            "numerics.kernel.busy_s": c.get("kernel.busy_s", 0.0),
            "numerics.backward.busy_s": busy["numerics.backward"],
            "numerics.matmul.calls": c.get("matmul.calls", 0),
            "numerics.matmul.fwd_macs": c.get("matmul.fwd_macs", 0),
            "numerics.ops": c.get("ops", 0),
            "numerics.out_floats": c.get("out_floats", 0),
            "vision.encode.calls": calls["vision.encode"],
            "vision.encode.busy_s": busy["vision.encode"],
            "fusion.xattn.calls": calls["fusion.xattn"],
            "fusion.xattn.self_s": own["fusion.xattn"],
            "fusion.mask.calls": calls["fusion.mask"],
            "fusion.mask.busy_s": busy["fusion.mask"],
            "fusion.kv_rows": c.get("fusion.kv_rows", 0),
            "moe.forward.self_s": own["moe.forward"],
            "moe.tokens": c.get("moe.tokens", 0),
            "moe.matmul.calls": matmuls["moe.forward"],
            "model.forward.self_s": own["model.forward"],
            "model.loss.busy_s": busy["model.loss"],
            "model.sgd_step.self_s": own["model.sgd_step"],
            "model.checkpoint.load_s": busy["model.checkpoint.load"],
            "cli.main.self_s": own["cli.main"],
            "flops.counted_over_model": counted_over_model(spans, children, first_xattn, cfg) if dense else 0.0,
        }
        values.update(extra.get(op, {}))
        for name, value in values.items():
            per_op[name].append(value)

    out = {name: statistics.median_low(values) for name, values in per_op.items()}
    out["model.checkpoint.save_s"] = sum(
        (s.end - s.start for s in spans if s.op == SETUP_OP and s.name == "model.checkpoint.save"), 0.0
    )
    return out
