"""Upcycling identities, routing behavior, and the combined expert forward."""

import math
import random
import struct

import pytest

from evlm.errors import ConfigError, DimensionError
from evlm.layers import ffn, ffn_params
from evlm.moe import MoEConfig, RoutingStats, aux_loss_node, moe_forward_nodes, route_nodes, top_k, upcycle
from evlm.numerics import Graph, Tensor, derive_seed
from test_numerics import dot, grad_check


def make_dense(h=6, hidden=8, seed=0):
    """A dense FFN's (w_in, w_out), drawn as upcycle-check draws them."""
    w = ffn_params("ffn.", h, hidden)
    return w["w_in"].draw(seed), w["w_out"].draw(seed)


def apply_ffn(x, w_in, w_out):
    g = Graph()
    return ffn(g, g.param(x), g.param(w_in), g.param(w_out)).t


def rand_input(h, seed, rows=1):
    return Tensor.randn((rows, h), derive_seed(seed, "x"))


def param_items(bank, prefix="moe."):
    """The bank's (name, tensor) pairs under `prefix`, as moe_forward_nodes reads them."""
    return [(prefix + n, t) for n, t in bank.items()]


def expert(bank, name):
    """The named expert of the bank (`expert<i>` or `world`) as its (w_in, w_out)."""
    return bank[f"{name}.w_in"], bank[f"{name}.w_out"]


def expert_names(bank):
    return [n for n in bank if n.startswith("expert") and n.endswith(".w_in")]


# -- upcycle ---------------------------------------------------------------


def test_upcycle_degenerate_single_expert():
    w_in, w_out = make_dense()
    bank = upcycle(w_in, w_out, MoEConfig(n_replicas=1, segments=1, top_k=1))
    assert len(expert_names(bank)) == 1
    assert bank["expert0.w_in"].data == w_in.data
    assert bank["expert0.w_out"].data == w_out.data


def test_upcycle_default_config_counts():
    bank = upcycle(*make_dense(h=6, hidden=16), MoEConfig(n_replicas=4, segments=4, top_k=4))
    assert len(expert_names(bank)) == 16
    assert all(
        bank[f"expert{i}.w_in"].shape == (6, 4) and bank[f"expert{i}.w_out"].shape == (4, 6) for i in range(16)
    )


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (4, 4)])
def test_upcycle_slice_sum_identity(n, m):
    dense = make_dense(h=5, hidden=8 if m != 4 else 8, seed=3)
    bank = upcycle(*dense, MoEConfig(n_replicas=n, segments=m, top_k=1))
    for trial in range(20):
        x = rand_input(5, trial)
        want = apply_ffn(x, *dense)
        for r in range(n):
            total = [0.0] * 5
            for seg in range(m):
                out = apply_ffn(x, *expert(bank, f"expert{r * m + seg}"))
                total = [a + b for a, b in zip(total, out.data)]
            assert max(abs(a - b) for a, b in zip(total, want.data)) < 1e-12


def test_upcycle_world_expert_is_dense_copy():
    w_in, w_out = make_dense(seed=9)
    bank = upcycle(w_in, w_out, MoEConfig())
    assert bank["world.w_in"].data == w_in.data
    assert bank["world.w_out"].data == w_out.data
    x = rand_input(6, 1)
    assert apply_ffn(x, *expert(bank, "world")).data == apply_ffn(x, w_in, w_out).data  # bit-exact


def test_upcycle_router_zero_init():
    bank = upcycle(*make_dense(), MoEConfig())
    assert all(v == 0.0 for v in bank["router"].data)


def test_upcycle_rejects_indivisible_hidden():
    with pytest.raises(ConfigError):
        upcycle(*make_dense(h=4, hidden=6), MoEConfig(n_replicas=1, segments=4, top_k=1))


# -- route ------------------------------------------------------------------


def route(x, router, k):
    """route_nodes for one token x (1, h) under the router (h, N*M): its k
    expert indices and their gates."""
    if x.shape != (1, router.shape[0]):
        raise DimensionError(f"route expects (1, {router.shape[0]}), got {x.shape}")
    g = Graph()
    (chosen,), gates = route_nodes(g, g.matmul(g.param(x), g.param(router)), k)
    return chosen, [gates.t.data[e] for e in chosen]


def test_route_zero_router_ties_break_low():
    bank = upcycle(*make_dense(), MoEConfig(n_replicas=2, segments=2, top_k=3))
    idx, gates = route(rand_input(6, 5), bank["router"], 3)
    assert idx == [0, 1, 2]
    assert gates == [1.0 / 3.0] * 3


def test_route_full_k_is_full_softmax():
    bank = upcycle(*make_dense(), MoEConfig(n_replicas=2, segments=2, top_k=4))
    bank["router"] = Tensor.randn((6, 4), derive_seed(2, "router"))
    x = rand_input(6, 6)
    idx, gates = route(x, bank["router"], 4)
    assert idx == [0, 1, 2, 3]
    g = Graph()
    logits = g.matmul(g.param(x), g.param(bank["router"]))
    full = g.softmax_masked(logits, [[True] * 4]).t.data
    assert gates == full


def test_route_matches_enumeration_oracle():
    rng = random.Random(8)
    bank = upcycle(*make_dense(), MoEConfig(n_replicas=2, segments=2, top_k=2))
    for trial in range(30):
        bank["router"] = Tensor.randn((6, 4), derive_seed(trial, "router"))
        x = rand_input(6, trial + 100)
        idx, gates = route(x, bank["router"], 2)
        # oracle: full enumeration, sort, renormalize
        logits = [
            sum(x.data[t] * bank["router"].data[t * 4 + j] for t in range(6)) for j in range(4)
        ]
        order = sorted(range(4), key=lambda j: (-logits[j], j))[:2]
        order.sort()
        assert idx == order
        mx = max(logits[j] for j in order)
        exps = [math.exp(logits[j] - mx) for j in order]
        z = sum(exps)
        want = [e / z for e in exps]
        assert max(abs(a - b) for a, b in zip(gates, want)) < 1e-15


def test_route_deterministic():
    bank = upcycle(*make_dense(), MoEConfig(n_replicas=2, segments=2, top_k=2))
    bank["router"] = Tensor.randn((6, 4), derive_seed(0, "router"))
    x = rand_input(6, 0)
    assert route(x, bank["router"], 2) == route(x, bank["router"], 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("router", ["zero", "random"])
def test_route_gates_are_the_softmax_of_the_picked_logits_bit_for_bit(k, router):
    bank = upcycle(*make_dense(), MoEConfig(n_replicas=2, segments=2, top_k=k))
    for trial in range(10):
        if router == "random":
            bank["router"] = Tensor.randn((6, 4), derive_seed(trial, "router"))
        x = rand_input(6, trial + 200)
        idx, gates = route(x, bank["router"], k)
        g = Graph()
        logits = g.matmul(g.param(x), g.param(bank["router"])).t.data
        assert idx == top_k(logits, k)
        picked = g.param(Tensor((1, k), [logits[i] for i in idx]))
        assert bits(gates) == bits(g.softmax_masked(picked, [[True] * k]).t.data)


# -- moe_forward_nodes ----------------------------------------------------------


def run_moe(x, cfg, bank, stats=None):
    """The bank's output for the rows of `x`, on a fresh graph."""
    g = Graph()
    return moe_forward_nodes(g, g.param(x), cfg, {n: g.param(t) for n, t in param_items(bank)}, stats=stats).t


def test_route_picks_the_experts_the_forward_pass_counts_per_row():
    cfg = MoEConfig(n_replicas=3, segments=2, top_k=2)
    bank = upcycle(*make_dense(), cfg)
    bank["router"] = Tensor.randn((6, 6), derive_seed(9, "router"))
    x = Tensor.randn((5, 6), derive_seed(9, "tokens"))
    # the last row ties
    rows = [Tensor((1, 6), x.data[i * 6 : (i + 1) * 6]) for i in range(5)] + [Tensor.zeros(1, 6)]
    for row in rows:
        stats = RoutingStats(cfg.num_experts)
        run_moe(row, cfg, bank, stats=stats)
        chosen, _ = route(row, bank["router"], cfg.top_k)
        assert stats.assignments == [int(e in chosen) for e in range(cfg.num_experts)]
    assert route(rows[-1], bank["router"], cfg.top_k)[0] == [0, 1]


def test_forward_one_replica_selected_equals_scaled_dense():
    # router biased so the token picks exactly replica 1's segments (indices
    # 2 and 3) with equal gates 1/M; the slice-sum identity then gives
    # (1/M) * dense(x)
    dense = make_dense(h=4, hidden=8, seed=4)
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2, use_world_expert=False)
    bank = upcycle(*dense, cfg)
    bank["router"] = Tensor((4, 4), [-5.0 if j < 2 else 0.0 for _ in range(4) for j in range(4)])
    x = Tensor.full((1, 4), 0.5)
    out = run_moe(x, cfg, bank)
    want = apply_ffn(x, *dense)
    assert max(abs(a - 0.5 * b) for a, b in zip(out.data, want.data)) < 1e-12


def test_forward_zero_input_bias_free_gives_zero():
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2)
    out = run_moe(Tensor.zeros(2, 6), cfg, upcycle(*make_dense(), cfg))
    assert out.data == [0.0] * 12


def test_forward_world_plus_topk_matches_manual_composition():
    dense = make_dense(h=4, hidden=8, seed=11)
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2)
    bank = upcycle(*dense, cfg)
    bank["router"] = Tensor.randn((4, 4), derive_seed(1, "router"))
    x = rand_input(4, 12)
    out = run_moe(x, cfg, bank)
    idx, gates = route(x, bank["router"], cfg.top_k)
    manual = apply_ffn(x, *expert(bank, "world")).data
    for ei, gate in zip(idx, gates):
        e_out = apply_ffn(x, *expert(bank, f"expert{ei}"))
        manual = [m + gate * v for m, v in zip(manual, e_out.data)]
    assert max(abs(a - b) for a, b in zip(out.data, manual)) < 1e-12


def test_forward_gate_normalization_per_token():
    bank = upcycle(*make_dense(), MoEConfig(n_replicas=2, segments=2, top_k=3))
    bank["router"] = Tensor.randn((6, 4), derive_seed(3, "router"))
    for trial in range(20):
        _, gates = route(rand_input(6, trial + 50), bank["router"], 3)
        assert abs(sum(gates) - 1.0) <= 1e-12


def test_forward_routing_stats_and_determinism():
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2)
    bank = upcycle(*make_dense(), cfg)
    bank["router"] = Tensor.randn((6, 4), derive_seed(4, "router"))
    x = Tensor.randn((5, 6), derive_seed(4, "tokens"))
    s1, s2 = RoutingStats(4), RoutingStats(4)
    out1 = run_moe(x, cfg, bank, stats=s1)
    out2 = run_moe(x, cfg, bank, stats=s2)
    assert out1.data == out2.data
    assert s1.assignments == s2.assignments
    assert s1.tokens == 5
    assert sum(s1.assignments) == 10  # tokens * k


def test_grad_check_through_router_and_experts():
    dense = make_dense(h=4, hidden=4, seed=21)
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2)
    bank = upcycle(*dense, cfg)
    bank["router"] = Tensor.randn((4, 4), derive_seed(5, "router"), 0.8)
    x = Tensor.randn((2, 4), derive_seed(5, "x"))
    names = [n for n, _ in param_items(bank)]

    def build(g, nodes):
        xin = nodes[0]
        pnodes = dict(zip(names, nodes[1:]))
        out = moe_forward_nodes(g, xin, cfg, pnodes)
        return dot(g, out, g.tanh(out))

    params = [x] + [t for _, t in param_items(bank)]
    assert grad_check(build, params) < 1e-4


def test_token_one_column_wider_than_the_router_is_rejected():
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2)
    bank = upcycle(*make_dense(), cfg)
    x = rand_input(7, 1)
    with pytest.raises(DimensionError, match="token width 7 != router input 6"):
        run_moe(x, cfg, bank)
    with pytest.raises(DimensionError, match=r"route expects \(1, 6\)"):
        route(x, bank["router"], cfg.top_k)


class RecordingNodes(dict):
    """A node mapping that records every key it is asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = set()

    def __getitem__(self, key):
        self.asked.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("use_world_expert", [True, False])
def test_forward_reads_exactly_the_names_upcycle_returns(use_world_expert):
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=4, use_world_expert=use_world_expert)  # every expert active
    bank = random_bank(cfg, "random")
    g = Graph()
    nodes = RecordingNodes({n: g.param(t) for n, t in param_items(bank)})
    moe_forward_nodes(g, g.param(Tensor.randn((3, 6), derive_seed(3, "tokens"))), cfg, nodes)
    assert nodes.asked == {f"moe.{n}" for n in upcycle(*make_dense(h=6, hidden=8), cfg)}


# -- grouped dispatch against the per-token loop --------------------------------------


def per_token_moe_forward_nodes(g, x, cfg, nodes, prefix="moe.", stats=None):
    """One token at a time: a one-row gather, a router matmul and k+1 one-row FFNs
    per token. The reference that grouped dispatch must match bit for bit."""
    all_true_k = [[True] * cfg.top_k]
    out_rows = []
    for i in range(x.t.shape[0]):
        row = g.rows([x], [i])
        logits = g.matmul(row, nodes[prefix + "router"])
        chosen = top_k(logits.t.data, cfg.top_k)
        picked = g.rows([g.reshape(logits, (cfg.num_experts, 1))], chosen)
        gates = g.reshape(g.softmax_masked(g.reshape(picked, (1, cfg.top_k)), all_true_k), (cfg.top_k, 1))
        acc = None
        for slot, ei in enumerate(chosen):
            out = ffn(g, row, nodes[f"{prefix}expert{ei}.w_in"], nodes[f"{prefix}expert{ei}.w_out"])
            gated = g.smul(out, g.rows([gates], [slot]))
            acc = gated if acc is None else g.add(acc, gated)
        if cfg.use_world_expert:
            world = ffn(g, row, nodes[prefix + "world.w_in"], nodes[prefix + "world.w_out"])
            acc = world if acc is None else g.add(acc, world)
        out_rows.append(acc)
        if stats is not None:
            stats.tokens += 1
            for ei in chosen:
                stats.assignments[ei] += 1
            full = g.softmax_masked(logits, [[True] * cfg.num_experts])
            for ei in range(cfg.num_experts):
                stats.prob_sums[ei] += full.t.data[ei]
            stats.prob_nodes.append(full)
    return g.rows(out_rows)


def bits(values):
    return [struct.pack("<d", v) for v in values]


def random_bank(cfg, router, seed=31):
    """A bank whose experts all differ (upcycled replicas would be equal)."""
    bank = upcycle(*make_dense(h=6, hidden=8, seed=seed), cfg)
    sw = 8 // cfg.segments
    for i in range(cfg.num_experts):
        bank[f"expert{i}.w_in"], bank[f"expert{i}.w_out"] = make_dense(6, sw, derive_seed(seed, f"e{i}"))
    if router == "random":
        bank["router"] = Tensor.randn((6, cfg.num_experts), derive_seed(seed, "router"), 0.8)
    return bank


def moe_run(forward, cfg, bank, inputs):
    """Each input through `forward` in one graph sharing the bank's parameter
    nodes, plus a residual (so each input has a second consumer), a weighted
    sum and the aux loss; returns everything the backward pass reaches."""
    g = Graph()
    nodes = {name: g.param(t) for name, t in param_items(bank)}
    xs = [g.param(x) for x in inputs]
    stats = RoutingStats(cfg.num_experts)
    loss = None
    outs = []
    for i, x in enumerate(xs):
        out = g.add(x, forward(g, x, cfg, nodes, stats=stats))
        outs.append(out.t.data)
        w = g.constant(Tensor.randn(out.t.shape, derive_seed(i, "weights")))
        term = dot(g, out, w)
        loss = term if loss is None else g.add(loss, term)
    aux = aux_loss_node(g, stats)
    g.backward(g.add(loss, g.scale(aux, 0.1)))
    return {
        "outputs": [bits(o) for o in outs],
        "param_grads": {name: bits(g.grad(n).data) for name, n in nodes.items()},
        "input_grads": [bits(g.grad(x).data) for x in xs],
        "aux": bits(aux.t.data),
        "stats": (stats.tokens, stats.assignments, bits(stats.prob_sums)),
    }


@pytest.mark.parametrize(
    "cfg_kwargs,router,token_counts",
    [
        (dict(top_k=2), "zero", (5,)),
        (dict(top_k=2), "random", (5,)),
        (dict(top_k=1), "random", (6,)),
        (dict(top_k=4), "random", (4,)),
        (dict(top_k=2, use_world_expert=False), "random", (5,)),
        (dict(top_k=2), "random", (1,)),
        (dict(top_k=2), "random", (5, 3)),
    ],
    ids=["zero_router_ties", "random_router", "top_k_1", "top_k_all", "no_world", "one_token",
         "two_calls_share_params"],
)
def test_grouped_dispatch_is_bit_identical_to_the_per_token_loop(cfg_kwargs, router, token_counts):
    cfg = MoEConfig(n_replicas=2, segments=2, **cfg_kwargs)
    bank = random_bank(cfg, router)
    inputs = [Tensor.randn((n, 6), derive_seed(n + 10 * i, "tokens")) for i, n in enumerate(token_counts)]
    want = moe_run(per_token_moe_forward_nodes, cfg, bank, inputs)
    got = moe_run(moe_forward_nodes, cfg, bank, inputs)
    assert got == want


@pytest.mark.parametrize("use_world_expert", [True, False])
@pytest.mark.parametrize("n_tok", [1, 3, 9])
def test_one_call_issues_one_matmul_per_router_expert_weight(monkeypatch, use_world_expert, n_tok):
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2, use_world_expert=use_world_expert)
    bank = random_bank(cfg, "random")
    calls = []
    matmul = Graph.matmul
    monkeypatch.setattr(Graph, "matmul", lambda g, a, b: calls.append(1) or matmul(g, a, b))
    stats = RoutingStats(cfg.num_experts)
    run_moe(Tensor.randn((n_tok, 6), derive_seed(n_tok, "tokens")), cfg, bank, stats=stats)
    active = sum(1 for a in stats.assignments if a)
    assert len(calls) == 1 + 2 * active + 2 * use_world_expert


@pytest.mark.parametrize("use_world_expert", [True, False])
@pytest.mark.parametrize("with_stats", [True, False])
@pytest.mark.parametrize("k,n_tok", [(1, 1), (2, 5), (4, 3)])
def test_one_call_issues_an_exact_number_of_graph_ops(monkeypatch, k, n_tok, with_stats, use_world_expert):
    """Seven ops per call (token gather, router matmul, gate softmax, its
    reshape, the stacked expert outputs, their gates, the gating product),
    four per active expert (row gather and FFN), k row gathers and k - 1 adds
    that sum the slots, four for the world expert (FFN and add) and one for
    the stats softmax."""
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=k, use_world_expert=use_world_expert)
    bank = random_bank(cfg, "random")
    g = Graph()
    nodes = {n: g.param(t) for n, t in param_items(bank)}
    x = g.param(Tensor.randn((n_tok, 6), derive_seed(n_tok, "tokens")))
    stats = RoutingStats(cfg.num_experts)
    ops = []
    out = Graph._out
    monkeypatch.setattr(Graph, "_out", lambda g, *a: ops.append(1) or out(g, *a))
    moe_forward_nodes(g, x, cfg, nodes, stats=stats if with_stats else None)
    monkeypatch.undo()
    if not with_stats:
        run_moe(x.t, cfg, bank, stats=stats)
    active = sum(1 for a in stats.assignments if a)
    assert len(ops) == 6 + 4 * active + 2 * k + 4 * use_world_expert + with_stats


# -- aux loss ----------------------------------------------------------------------


def aux_load_balance_loss(stats):
    """The plain-float value of aux_loss_node's penalty, NM * sum_e f_e * P_e,
    from the stats' routed slots and probability sums alone."""
    if stats.tokens == 0:
        return 0.0
    slots = sum(stats.assignments)
    n = stats.num_experts
    return n * sum(
        (a / slots) * (p / stats.tokens) for a, p in zip(stats.assignments, stats.prob_sums)
    )


def test_aux_loss_uniform_routing_is_one():
    stats = RoutingStats(4, tokens=8, assignments=[4, 4, 4, 4], prob_sums=[2.0, 2.0, 2.0, 2.0])
    assert abs(aux_load_balance_loss(stats) - 1.0) < 1e-12


def test_aux_loss_single_expert_concentration():
    # k=1, every token to expert 0 with mean prob p
    p = 0.83
    stats = RoutingStats(4, tokens=10, assignments=[10, 0, 0, 0], prob_sums=[10 * p, 0.6, 0.7, 0.4])
    assert abs(aux_load_balance_loss(stats) - 4 * p) < 1e-12


def test_aux_loss_weight_zero_contributes_nothing():
    cfg = MoEConfig(aux_loss_weight=0.0)
    assert cfg.aux_loss_weight == 0.0  # training adds the term only when > 0


def test_aux_loss_node_gradient_reaches_router():
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2)
    bank = upcycle(*make_dense(h=4, hidden=4), cfg)
    bank["router"] = Tensor.randn((4, 4), derive_seed(9, "router"), 0.8)
    x = Tensor.randn((3, 4), derive_seed(9, "tokens"))
    names = [n for n, _ in param_items(bank)]

    def build(g, nodes):
        pnodes = dict(zip(names, nodes))
        stats = RoutingStats(4, prob_nodes=[])
        out = moe_forward_nodes(g, g.constant(x), cfg, pnodes, stats=stats)
        main = dot(g, out, g.tanh(out))
        return g.add(main, g.scale(aux_loss_node(g, stats), 0.1))

    assert grad_check(build, [t for _, t in param_items(bank)]) < 1e-4


def test_aux_loss_node_matches_plain_value():
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2)
    bank = upcycle(*make_dense(), cfg)
    bank["router"] = Tensor.randn((6, 4), derive_seed(6, "router"))
    x = Tensor.randn((4, 6), derive_seed(6, "tokens"))
    stats = RoutingStats(4, prob_nodes=[])
    g = Graph()
    nodes = {name: g.param(t) for name, t in param_items(bank)}
    moe_forward_nodes(g, g.param(x), cfg, nodes, stats=stats)
    node_val = aux_loss_node(g, stats).t.item()
    assert abs(node_val - aux_load_balance_loss(stats)) < 1e-12


def test_moe_config_validation():
    with pytest.raises(ConfigError):
        MoEConfig(top_k=17)
    with pytest.raises(ConfigError):
        MoEConfig(n_replicas=0)
    for weight in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            MoEConfig(aux_loss_weight=weight)


# -- MoE inside the gated cross-attention layer ----------------------------------


def fused_block_fixture():
    from evlm.fusion import (
        GatedXAttn,
        ImageMarker,
        build_cross_mask_image,
        build_padded_kv,
        insert_media_tokens,
        xattn_params,
    )

    layer = GatedXAttn("xattn.")
    params = {n: i.draw(71) for n, i in xattn_params("xattn.", 4, 3, 0.5, 1.0).items()}
    cfg = MoEConfig(n_replicas=2, segments=2, top_k=2)
    bank = upcycle(params.pop("ffn.w_in"), params.pop("ffn.w_out"), cfg)
    bank["router"] = Tensor.randn((4, 4), derive_seed(71, "router"), 0.8)
    seq = insert_media_tokens([ImageMarker(0), 1], media_len=1)
    mask = build_cross_mask_image(seq, s_img=2, pad_len=1)
    return layer, params, cfg, bank, mask, build_padded_kv


def test_moe_behind_ffn_gate_preserves_gate_zero_identity():
    layer, params, cfg, bank, mask, build_padded_kv = fused_block_fixture()
    hidden = Tensor.randn((2, 4), derive_seed(72, "hidden"))
    feats = Tensor.randn((2, 3), derive_seed(72, "feats"))
    g = Graph()
    nodes = {layer.prefix + n: g.param(t) for n, t in params.items()}
    bank_nodes = {n: g.param(t) for n, t in param_items(bank)}
    kv = build_padded_kv(g, [g.param(feats)], pad_len=1, d_img=3)
    out = layer.forward_nodes(
        g,
        g.param(hidden),
        kv,
        mask,
        nodes,
        ffn_branch=lambda h1: moe_forward_nodes(g, h1, cfg, bank_nodes),
    )
    assert out.t.data == hidden.data


def test_grad_check_fused_block_with_moe_two_tokens():
    layer, layer_params, cfg, bank, mask, build_padded_kv = fused_block_fixture()
    layer_params["alpha_attn"] = Tensor((1, 1), [0.4])
    layer_params["alpha_ffn"] = Tensor((1, 1), [-0.5])
    hidden = Tensor.randn((2, 4), derive_seed(73, "hidden"), 0.7)
    feats = Tensor.randn((2, 3), derive_seed(73, "feats"), 0.7)
    layer_names = sorted(layer_params)
    bank_names = [n for n, _ in param_items(bank)]

    def build(g, nodes):
        h, f = nodes[0], nodes[1]
        lnodes = {layer.prefix + n: node for n, node in zip(layer_names, nodes[2 : 2 + len(layer_names)])}
        bnodes = dict(zip(bank_names, nodes[2 + len(layer_names) :]))
        kv = build_padded_kv(g, [f], pad_len=1, d_img=3)
        out = layer.forward_nodes(
            g, h, kv, mask, lnodes,
            ffn_branch=lambda h1: moe_forward_nodes(g, h1, cfg, bnodes),
        )
        return dot(g, out, g.tanh(out))

    params = (
        [hidden, feats]
        + [layer_params[n] for n in layer_names]
        + [t for _, t in param_items(bank)]
    )
    assert grad_check(build, params) < 1e-4
