"""The masked attention, the pre-norm transformer block and the gelu FFN
shared by the vision encoder, the decoder, the gated cross-attention layer
and the MoE experts. Every FFN is two tensors, `w_in` and `w_out`, drawn by
the one weight rule ffn_params and run by ffn."""

from __future__ import annotations

from typing import Mapping

from .numerics import Graph, Init, Node, filled, gaussian


def ffn(g: Graph, x: Node, w_in: Node, w_out: Node, per_row_grads: bool = False) -> Node:
    """Bias-free two-matrix FFN: expand, exact gelu, contract. With
    per_row_grads the weight gradients are added one row of x at a time
    (Graph.matmul_rows), as a stack of MoE tokens needs to match one FFN per
    token bit for bit."""
    mm = g.matmul_rows if per_row_grads else g.matmul
    return mm(g.gelu(mm(x, w_in)), w_out)


def ffn_params(name: str, d: int, hidden: int) -> dict[str, Init]:
    """An FFN's `w_in` (d, hidden) and `w_out` (hidden, d), each drawn with
    std fan_in**-0.5 under the init key `name` + its local name."""
    return {
        "w_in": gaussian((d, hidden), name + "w_in", d**-0.5),
        "w_out": gaussian((hidden, d), name + "w_out", hidden**-0.5),
    }


def block_params(name: str, d: int, hidden: int) -> dict[str, Init]:
    """One block's parameters by local name; `name` prefixes their init keys."""
    p = {w: gaussian((d, d), name + w, d**-0.5) for w in ("wq", "wk", "wv", "wo")}
    for ln in ("ln1", "ln2"):
        p[ln + ".gain"] = filled((1, d), 1.0)
        p[ln + ".bias"] = filled((1, d), 0.0)
    return p | ffn_params(name, d, hidden)


def attention(
    g: Graph, xq: Node, xkv: Node, wq: Node, wk: Node, wv: Node, wo: Node, heads: int, mask: list[list[bool]]
) -> Node:
    """Masked softmax attention of xq's rows over xkv's rows, then the output
    projection wo. With heads > 1, q, k and v are each read as heads times as
    many rows of width d / heads, so head h of row i is row i * heads + h; each
    head attends over its own rows, and the head outputs are gathered back into
    that layout and read as full-width rows before wo."""
    q, k, v = g.matmul(xq, wq), g.matmul(xkv, wk), g.matmul(xkv, wv)
    hd = q.t.cols // heads
    if heads > 1:
        q, k, v = (g.reshape(m, (m.t.rows * heads, hd)) for m in (q, k, v))
    heads_out = []
    for head in range(heads):
        qh, kh, vh = (q, k, v) if heads == 1 else (g.rows([m], range(head, m.t.rows, heads)) for m in (q, k, v))
        probs = g.softmax_masked(g.scale(g.matmul(qh, g.transpose(kh)), hd**-0.5), mask)
        heads_out.append(g.matmul(probs, vh))
    if heads == 1:
        return g.matmul(heads_out[0], wo)
    n = xq.t.rows
    merged = g.rows(heads_out, [h * n + i for i in range(n) for h in range(heads)])
    return g.matmul(g.reshape(merged, (n, heads * hd)), wo)


def block(
    g: Graph, x: Node, nodes: Mapping[str, Node], prefix: str, heads: int, mask: list[list[bool]]
) -> Node:
    """x + attention(LN1(x)) over LN1(x) itself, then + FFN(LN2(.)), with the
    block's parameters at nodes[prefix + local name]."""
    p = lambda name: nodes[prefix + name]
    hn = g.layer_norm(x, p("ln1.gain"), p("ln1.bias"))
    x = g.add(x, attention(g, hn, hn, p("wq"), p("wk"), p("wv"), p("wo"), heads, mask))
    return g.add(x, ffn(g, g.layer_norm(x, p("ln2.gain"), p("ln2.bias")), p("w_in"), p("w_out")))
