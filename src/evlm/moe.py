"""Fine-grained Mixture-of-Experts built by upcycling a dense FFN, the two
tensors layers.ffn_params draws: replicate the FFN N times, slice each
replica's hidden units into M narrow experts, and add an always-on
full-width world expert; every expert runs through layers.ffn. Routing is
token-choice top-k with softmax-renormalized gates. The bank is upcycle's
named tensors, which the model's parameter table owns and moe_forward_nodes
reads under a prefix."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import ConfigError, DimensionError
from .layers import ffn
from .numerics import Graph, Node, Tensor


@dataclass(frozen=True)
class MoEConfig:
    n_replicas: int = 4
    segments: int = 4
    top_k: int = 4
    use_world_expert: bool = True
    aux_loss_weight: float = 0.0

    def __post_init__(self):
        if self.n_replicas < 1 or self.segments < 1:
            raise ConfigError("n_replicas and segments must be >= 1")
        if not 1 <= self.top_k <= self.n_replicas * self.segments:
            raise ConfigError(f"top_k must be in [1, {self.n_replicas * self.segments}]")
        if not math.isfinite(self.aux_loss_weight) or self.aux_loss_weight < 0:
            raise ConfigError("aux_loss_weight must be finite and >= 0")

    @property
    def num_experts(self) -> int:
        return self.n_replicas * self.segments


@dataclass
class RoutingStats:
    """Plain per-batch record of router behavior (CLI-reportable), plus the
    per-token full-softmax probabilities as graph nodes, which keep the aux
    loss differentiable."""

    num_experts: int
    tokens: int = 0
    assignments: list[int] = field(default_factory=list)  # per expert, over tokens*k slots
    prob_sums: list[float] = field(default_factory=list)  # full-softmax prob mass per expert
    prob_nodes: list[Node] = field(default_factory=list)

    def __post_init__(self):
        if not self.assignments:
            self.assignments = [0] * self.num_experts
        if not self.prob_sums:
            self.prob_sums = [0.0] * self.num_experts


def upcycle(w_in: Tensor, w_out: Tensor, cfg: MoEConfig) -> dict[str, Tensor]:
    """Replicate-and-segment the dense FFN w_in (h, H), w_out (H, h) into
    the bank's parameters, by the names moe_forward_nodes reads under its
    prefix: `router` (h, N*M), zero-initialized; `expert<i>.w_in` and
    `expert<i>.w_out` for i = r * segments + m, the m-th hidden slice of
    replica r; and, when cfg.use_world_expert is set, `world.w_in` and
    `world.w_out`, a verbatim copy of the dense FFN.

    Slicing along the hidden dimension is the unique split with the exact
    slice-sum identity sum_m expert_(r,m)(x) == dense(x).
    """
    h, hidden = w_in.shape
    if hidden % cfg.segments != 0:
        raise ConfigError(f"segments={cfg.segments} does not divide hidden width {hidden}")
    sw = hidden // cfg.segments
    bank = {"router": Tensor.zeros(h, cfg.num_experts)}
    for r in range(cfg.n_replicas):
        for m in range(cfg.segments):
            lo, hi = m * sw, (m + 1) * sw
            e = f"expert{r * cfg.segments + m}"
            bank[f"{e}.w_in"] = Tensor(
                (h, sw),
                [w_in.data[i * hidden + j] for i in range(h) for j in range(lo, hi)],
                check=False,
            )
            bank[f"{e}.w_out"] = Tensor((sw, h), w_out.data[lo * h : hi * h].copy(), check=False)
    if cfg.use_world_expert:
        bank["world.w_in"], bank["world.w_out"] = w_in.copy(), w_out.copy()
    return bank


def top_k(logits: Sequence[float], k: int) -> list[int]:
    """The routing rule: indices of the k largest logits in ascending order;
    ties break toward the lower index."""
    order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
    return sorted(order[:k])


def route_nodes(g: Graph, logits: Node, k: int) -> tuple[list[list[int]], Node]:
    """The routing rule for each row of logits (tokens, experts): top_k's
    experts, and gates from one softmax over the row with every other expert
    masked, so they are the softmax of the chosen logits alone and every
    other entry is exactly 0.0."""
    n_exp = logits.t.cols
    ld = logits.t.data
    chosen = [top_k(ld[i : i + n_exp], k) for i in range(0, len(ld), n_exp)]
    return chosen, g.softmax_masked(logits, [[e in c for e in range(n_exp)] for c in chosen])


def moe_forward_nodes(
    g: Graph,
    x: Node,
    cfg: MoEConfig,
    nodes: Mapping[str, Node],
    prefix: str = "moe.",
    stats: RoutingStats | None = None,
) -> Node:
    """Per token: world(x) + sum over top-k of gate_i * expert_i(x), reading
    upcycle's names from nodes as prefix + name.

    Differentiable through the selected gates and every active expert; the
    hard selection itself is treated as locally constant.

    Grouped dispatch: all tokens of x are routed at once (one router matmul,
    one route_nodes call), each active expert runs one FFN on the stacked
    rows of the tokens that chose it and is gated by the gates' entry
    (token, expert), the world expert runs one FFN on all rows, and row t of
    the output is ((slot 0 + slot 1) + ...) + world. Values
    and gradients are bit-identical to running the tokens one at a time:
    matmuls and softmaxes act row by row; the weight gradients are added one
    row at a time, last row first (Graph.matmul_rows), as one call per token
    added them; and the consumers of the gathered rows xs are created in the
    order router, experts by ascending index, world, so each token's input
    gradient sums world, chosen experts highest first, router.
    """
    n_tok, h = x.t.shape
    router = nodes[prefix + "router"]
    if h != router.t.rows:
        raise DimensionError(f"token width {h} != router input {router.t.rows}")
    k, n_exp = cfg.top_k, cfg.num_experts
    xs = g.rows([x])
    logits = g.matmul_rows(xs, router)  # (n_tok, N*M)
    chosen, gates = route_nodes(g, logits, k)
    members: list[list[int]] = [[] for _ in range(n_exp)]  # tokens by expert
    for t, experts in enumerate(chosen):
        for e in experts:
            members[e].append(t)
    stack = [(t, e) for e, m in enumerate(members) for t in m]  # expert outputs by expert, then token
    ex = prefix + "expert"
    outs = [
        ffn(g, g.rows([xs], m), nodes[f"{ex}{e}.w_in"], nodes[f"{ex}{e}.w_out"], per_row_grads=True)
        for e, m in enumerate(members)
        if m
    ]
    gate_rows = g.rows([g.reshape(gates, (n_tok * n_exp, 1))], [t * n_exp + e for t, e in stack])
    gated = g.smul(g.rows(outs), gate_rows)
    row_of = {te: r for r, te in enumerate(stack)}
    out: Node | None = None
    for slot in range(k):
        part = g.rows([gated], [row_of[t, chosen[t][slot]] for t in range(n_tok)])
        out = part if out is None else g.add(out, part)
    if cfg.use_world_expert:
        world = ffn(g, xs, nodes[prefix + "world.w_in"], nodes[prefix + "world.w_out"], per_row_grads=True)
        out = g.add(out, world)
    if stats is not None:
        full = g.softmax_masked(logits, [[True] * n_exp] * n_tok)
        stats.tokens += n_tok
        for e, m in enumerate(members):
            stats.assignments[e] += len(m)
        fd = full.t.data
        for t in range(n_tok):
            for e in range(n_exp):
                stats.prob_sums[e] += fd[t * n_exp + e]
        stats.prob_nodes.append(full)
    return out


def aux_loss_node(g: Graph, stats: RoutingStats) -> Node:
    """Load-balance penalty NM * sum_e f_e * P_e (pre-weight), as a node.

    f_e is expert e's fraction of routing slots and P_e its mean full-softmax
    probability; perfectly uniform routing scores exactly 1. Gradients reach
    the router through the softmax probabilities while the routed fractions
    are treated as locally constant."""
    if not stats.prob_nodes:
        raise ConfigError("stats hold no routing probabilities")
    probs = g.rows(stats.prob_nodes)  # (tokens, N*M)
    mean = g.matmul(g.constant(Tensor.full((1, stats.tokens), 1.0 / stats.tokens)), probs)
    slots = sum(stats.assignments)
    fractions = g.constant(
        Tensor((stats.num_experts, 1), [a / slots for a in stats.assignments])
    )
    return g.scale(g.matmul(mean, fractions), float(stats.num_experts))
