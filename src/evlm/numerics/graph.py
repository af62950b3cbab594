"""Reverse-mode autodiff over a linear tape of tensor operations.

A Graph instance records every operation in issue order, which is already a
topological order, so the backward pass is a single reverse sweep that visits
each node exactly once. Graphs are single-threaded and cheap; build a fresh
one per forward/backward episode. Parameters are plain Tensors shared across
graphs. A graph runs backward once: the sweep frees each op's closure and
gradient as it passes, so afterwards the graph keeps leaf gradients only.
What closures keep of an op result is one float64 array per node, shared by
every closure that reads it; a leaf's values stay its own list. Leaf
gradients are packed likewise. Every float is unchanged.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, chain, product
from math import isfinite
from operator import add as _opadd, mul as _opmul
from typing import Callable, Iterable, Sequence

from ..errors import ContractViolationError, DimensionError, NonFiniteError
from .tensor import Tensor

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

BoolMatrix = list[list[bool]]


# -- raw data kernels (no graph bookkeeping) ------------------------------

RowPairs = Iterable[tuple[Sequence[float], Sequence[float]]]

# Dot products of up to _DOT_CAP terms run as one compiled expression per
# length; compile time grows with the length (CPython 3.11 raises
# RecursionError compiling a 5,000-term chain), so longer ones call sum().
_DOT_CAP = 128
_DOT_EXPRS: dict[int, Callable[[RowPairs], list[float]]] = {}


def dots(k: int, pairs: RowPairs) -> list[float]:
    """The dot product of each pair of length-k rows, each equal bit for bit
    to sum(map(mul, r, c)): the k products added one at a time, left to
    right, to a sum that starts at 0 (so a lone -0.0 product gives 0.0).

    Up to _DOT_CAP terms that sum is the straight-line expression
    0.0 + r[0]*c[0] + ... + r[k-1]*c[k-1], the same IEEE double operations
    in the same order, without a map object and a sum() call per dot. Its
    source is built from k alone and compiled once per k."""
    if not 0 < k <= _DOT_CAP:
        return [sum(map(_opmul, r, c)) for r, c in pairs]
    expr = _DOT_EXPRS.get(k)
    if expr is None:
        terms = " + ".join(f"r[{i}] * c[{i}]" for i in range(k))
        expr = _DOT_EXPRS[k] = eval(f"lambda pairs: [0.0 + {terms} for r, c in pairs]")
    return expr(pairs)


def zero_runs(d: list[float], w: int) -> list[list[int]]:
    """[start, stop) of each run of all-zero rows of a row-major matrix of
    width w, in order; only rows that start with a zero are scanned."""
    runs: list[list[int]] = []
    firsts = d[::w]
    if 0.0 in firsts:
        for i, v in enumerate(firsts):
            if not v and not any(d[i * w : (i + 1) * w]):
                if runs and runs[-1][1] == i:
                    runs[-1][1] += 1
                else:
                    runs.append([i, i + 1])
    return runs


def mm_data(a: list[float], m: int, k: int, b: list[float], n: int) -> list[float]:
    """Row-major (m,k) @ (k,n): each entry the dots() product of a row of a
    and a column of b. Inner indices whose row of b is all zero are skipped:
    for finite a, as every caller's is, their terms are ±0.0, and adding
    ±0.0 to a sum that starts at 0.0 changes no bit (README, numerics). A
    MAC count read from the arguments stays m*k*n. With k == 1 each entry
    is the one-term dot product 0.0 + x * y, exactly sum([x * y])."""
    if len(a) != m * k or len(b) != k * n:
        raise DimensionError(f"mm_data operands hold {len(a)}, {len(b)} values, not {m}*{k}, {k}*{n}")
    runs = zero_runs(b, n)
    live = k - sum(stop - start for start, stop in runs) if runs else k
    if not live:
        return [0.0] * (m * n)
    if k == 1:
        return [0.0 + x * y for x in a for y in b]
    arows = [a[i * k : (i + 1) * k] for i in range(m)]
    bcols = [b[j::n] for j in range(n)]
    for start, stop in reversed(runs):  # the last run first, so earlier indices hold
        for row in chain(arows, bcols):
            del row[start:stop]
    return dots(live, product(arows, bcols))


def mm_abt_data(a: list[float], m: int, n: int, b: list[float], p: int) -> list[float]:
    """(m,n) @ (p,n)^T -> (m,p); columns of b^T are rows of b. An all-zero
    row of a gives p zeros and no dots, exact for finite b (see mm_data)."""
    if len(a) != m * n or len(b) != p * n:
        raise DimensionError(f"mm_abt_data operands hold {len(a)}, {len(b)} values, not {m}*{n}, {p}*{n}")
    runs = zero_runs(a, n)
    arows = [a[i * n : (i + 1) * n] for i in range(m)]
    for start, stop in reversed(runs):
        del arows[start:stop]
    out = dots(n, product(arows, [b[q * n : (q + 1) * n] for q in range(p)]))
    for start, stop in runs:  # in order, so the rows before each run sit in place
        out[start * p : start * p] = [0.0] * ((stop - start) * p)
    return out


def transpose_data(d: list[float], m: int, n: int) -> list[float]:
    out: list[float] = []
    ext = out.extend
    for col in zip(*(d[i * n : (i + 1) * n] for i in range(m))):
        ext(col)
    return out


# What a backward closure keeps of a node's values: a leaf's own list, or one
# array("d") copy of an op result (8 bytes a value, where a list of floats
# takes 32), which every closure reading that node shares.
Saved = list[float] | array


class Node:
    """A tensor value bound to its position in a graph's tape."""

    __slots__ = ("t", "idx", "saved")

    def __init__(self, t: Tensor, idx: int, saved: Saved | None):
        self.t = t
        self.idx = idx
        self.saved = saved


def _keep(n: Node) -> Saved:
    """n's values as a closure keeps them, packed on the first request."""
    if n.saved is None:
        n.saved = array("d", n.t.data)
    return n.saved


def _unpack(v: Saved) -> list[float]:
    """Kept values as a list, for a closure to index and slice when it runs
    (one that only iterates them reads the array as it is)."""
    return v if isinstance(v, list) else v.tolist()


# Backward closures receive (grad_out_data, accumulate) where accumulate
# adds a gradient contribution to the parent at a tape index. A closure holds
# its parents' indices and only the data its own backward reads, never a Node,
# so forward values no backward reads are freed with their nodes; what it reads
# it keeps packed (see Saved). accumulate keeps a first contribution as is and
# adds later ones into a new list, which is sound only because no closure writes
# into a list it received or passed on. A leaf's gradient lives to the end of
# the sweep, so backward packs it each time a closure that added into it returns
# (a closure that adds many times, as matmul_rows does, adds into a list).
BackwardFn = Callable[[list[float], Callable[[int, list[float]], None]], None]


def _spent(g: list[float], acc: Callable[[int, list[float]], None]) -> None:
    raise ContractViolationError("backward already swept this op; a graph runs backward once")


class Graph:
    """Operation tape plus per-node gradients populated by backward()."""

    def __init__(self) -> None:
        self._bwd: list[BackwardFn | None] = []
        self._grads: list[Saved | None] | None = None

    # -- tape plumbing ----------------------------------------------------

    def _emit(self, t: Tensor, bwd: BackwardFn | None) -> Node:
        self._bwd.append(bwd)
        return Node(t, len(self._bwd) - 1, t.data if bwd is None else None)

    def param(self, t: Tensor) -> Node:
        """Register a leaf tensor; its gradient is available after backward."""
        return self._emit(t, None)

    def constant(self, t: Tensor) -> Node:
        return self._emit(t, None)

    def backward(self, root: Node) -> None:
        """Seed d(root)=1 and sweep the tape once in reverse topological order."""
        if root.t.size != 1:
            raise DimensionError("backward root must be a scalar")
        grads: list[Saved | None] = [None] * (root.idx + 1)
        grads[root.idx] = [1.0]
        leaves: set[int] = set()  # leaves the running closure adds into

        def acc(i: int, delta: list[float]) -> None:
            g = grads[i]
            grads[i] = delta if g is None else list(map(_opadd, g, delta))
            if bwd_fns[i] is None:
                leaves.add(i)

        bwd_fns = self._bwd
        for i in range(root.idx, -1, -1):
            fn = bwd_fns[i]
            if fn is None:  # a leaf keeps its gradient
                continue
            bwd_fns[i] = _spent
            g, grads[i] = grads[i], None
            if g is not None:
                fn(_unpack(g), acc)
                for j in leaves:
                    grads[j] = array("d", grads[j])
                leaves.clear()
        self._grads = grads

    def grad(self, node: Node) -> Tensor:
        """Gradient of the backward() root w.r.t. a param or constant node
        (zeros if unreached). Op results keep no gradient: backward frees
        each as it sweeps, so asking for one violates the contract."""
        if self._grads is None:
            raise ContractViolationError("grad() before backward()")
        if self._bwd[node.idx] is not None:
            raise ContractViolationError("grad() of an op result; only leaf gradients are kept")
        g = self._grads[node.idx] if node.idx < len(self._grads) else None
        if g is None:
            return Tensor.zeros(*node.t.shape)
        return Tensor(node.t.shape, list(g), check=False)

    def _out(self, shape: tuple[int, ...], data: list[float], bwd: BackwardFn | None) -> Node:
        if not all(map(isfinite, data)):
            raise NonFiniteError(f"non-finite result of shape {shape}")
        return self._emit(Tensor(shape, data, check=False), bwd)

    # -- core operations ---------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        (m, k), (k2, n) = a.t.shape, b.t.shape
        if k != k2:
            raise DimensionError(f"matmul {a.t.shape} @ {b.t.shape}")
        ai, bi, ap, bp = a.idx, b.idx, _keep(a), _keep(b)
        out = mm_data(a.t.data, m, k, b.t.data, n)

        def bwd(g: list[float], acc) -> None:
            ad, bd = _unpack(ap), _unpack(bp)
            acc(ai, mm_abt_data(g, m, n, bd, k))  # dA = G @ B^T
            acc(bi, mm_data(transpose_data(ad, m, k), k, m, g, n))  # dB = A^T @ G

        return self._out((m, n), out, bwd)

    def matmul_rows(self, a: Node, b: Node) -> Node:
        """a @ b (issued through matmul) whose weight gradient dB is added to
        b one row of a at a time, last row first: the same additions, in the
        same order, as one matmul per row of a. One A^T @ G would instead sum
        each entry of dB inside one dot product, in row order, before adding
        it to b's gradient, which rounds differently."""
        out = self.matmul(a, b)
        (m, k), n = a.t.shape, b.t.shape[1]
        ai, bi, ap, bp = a.idx, b.idx, _keep(a), _keep(b)  # the copies matmul kept

        def bwd(g: list[float], acc) -> None:
            ad, bd = _unpack(ap), _unpack(bp)
            acc(ai, mm_abt_data(g, m, n, bd, k))
            for i in range(m - 1, -1, -1):
                acc(bi, mm_data(ad[i * k : (i + 1) * k], k, 1, g[i * n : (i + 1) * n], n))

        self._bwd[out.idx] = bwd
        return out

    def add(self, a: Node, b: Node) -> Node:
        if a.t.shape != b.t.shape:
            raise DimensionError(f"add {a.t.shape} + {b.t.shape}")
        ai, bi = a.idx, b.idx
        out = [x + y for x, y in zip(a.t.data, b.t.data)]

        def bwd(g: list[float], acc) -> None:
            acc(ai, g)
            acc(bi, g)

        return self._out(a.t.shape, out, bwd)

    def scale(self, a: Node, c: float) -> Node:
        """Multiply by a Python float constant."""
        ai = a.idx
        out = [c * x for x in a.t.data]

        def bwd(g: list[float], acc) -> None:
            acc(ai, [c * gv for gv in g])

        return self._out(a.t.shape, out, bwd)

    def smul(self, a: Node, s: Node) -> Node:
        """Broadcast-multiply by a (1,1) scalar node (the tanh gates) or by a
        (rows,1) column holding one factor per row of a (the MoE gates). The
        scalar's gradient is one sum over the whole of a, a column entry's
        one sum over its row."""
        rows = s.t.rows
        if s.t.cols != 1 or rows not in (1, a.t.rows):
            raise DimensionError(f"smul {a.t.shape} by {s.t.shape}")
        w = a.t.size // rows
        ai, si, ad, sd = a.idx, s.idx, a.t.data, s.t.data
        out = [sv * x for r, sv in enumerate(sd) for x in ad[r * w : (r + 1) * w]]
        ap, sp = _keep(a), _keep(s)

        def bwd(g: list[float], acc) -> None:
            ad, sd = _unpack(ap), _unpack(sp)
            acc(ai, [sv * gv for r, sv in enumerate(sd) for gv in g[r * w : (r + 1) * w]])
            acc(si, dots(w, [(g[r * w : (r + 1) * w], ad[r * w : (r + 1) * w]) for r in range(rows)]))

        return self._out(a.t.shape, out, bwd)

    def tanh(self, a: Node) -> Node:
        ai = a.idx
        out = list(map(math.tanh, a.t.data))
        yp = array("d", out)

        def bwd(g: list[float], acc) -> None:
            acc(ai, [gv * (1.0 - y * y) for gv, y in zip(g, yp)])

        node = self._out(a.t.shape, out, bwd)
        node.saved = yp  # the output's consumers share this copy
        return node

    def gelu(self, a: Node) -> Node:
        """Exact erf-based gelu."""
        ai, ap = a.idx, _keep(a)
        out = [0.5 * x * (1.0 + math.erf(x * _INV_SQRT2)) for x in a.t.data]

        def bwd(g: list[float], acc) -> None:
            acc(
                ai,
                [
                    gv
                    * (
                        0.5 * (1.0 + math.erf(x * _INV_SQRT2))
                        + x * math.exp(-0.5 * x * x) * _INV_SQRT2PI
                    )
                    for gv, x in zip(g, ap)
                ],
            )

        return self._out(a.t.shape, out, bwd)

    def transpose(self, a: Node) -> Node:
        (m, n), ai = a.t.shape, a.idx
        out = transpose_data(a.t.data, m, n)

        def bwd(g: list[float], acc) -> None:
            acc(ai, transpose_data(g, n, m))

        return self._out((n, m), out, bwd)

    def reshape(self, a: Node, shape: Sequence[int]) -> Node:
        shape = tuple(int(s) for s in shape)
        if math.prod(shape) != a.t.size:
            raise DimensionError(f"reshape {a.t.shape} -> {shape}")
        ai = a.idx

        def bwd(g: list[float], acc) -> None:
            acc(ai, g)

        return self._out(shape, list(a.t.data), bwd)

    # -- row gather over stacked parts --------------------------------------

    def rows(self, parts: Sequence[Node], indices: Sequence[int] | None = None) -> Node:
        """Stack parts top to bottom and pick rows by their index in that
        stack (None: every row, in order): embedding lookup, concatenation
        and row slicing. Backward starts each part's delta at 0.0 and adds
        the picked rows' gradients in output order, so repeated indices keep
        their in-order sums. A part thus receives 0.0 + g where a plain
        concatenation hands on g; that differs only for a -0.0 in g, so it is
        bit-identical as long as the part's gradient reaches every parameter
        only through sums that start at 0 (as matmul's do), which give -0.0
        and 0.0 terms the same result."""
        n = parts[0].t.cols
        if any(p.t.cols != n for p in parts):
            raise DimensionError(f"rows of parts with {[p.t.cols for p in parts]} columns")
        stack = parts[0].t.data if len(parts) == 1 else list(chain.from_iterable(p.t.data for p in parts))
        m = len(stack) // n
        idx = range(m) if indices is None else list(indices)
        if indices is not None and any(not 0 <= i < m for i in idx):
            raise DimensionError(f"index out of range for {m} stacked rows")
        out: list[float] = []
        for i in idx:
            out.extend(stack[i * n : (i + 1) * n])

        spans = [(p.idx, off, p.t.size) for p, off in zip(parts, accumulate([0, *(p.t.size for p in parts)]))]

        def bwd(g: list[float], acc) -> None:
            delta = [0.0] * (m * n)
            for r, i in enumerate(idx):
                delta[i * n : (i + 1) * n] = map(_opadd, delta[i * n : (i + 1) * n], g[r * n : (r + 1) * n])
            for pi, off, size in spans:
                acc(pi, delta if len(spans) == 1 else delta[off : off + size])

        return self._out((len(idx), n), out, bwd)

    # -- normalization, attention and loss ---------------------------------

    def layer_norm(self, x: Node, gain: Node, bias: Node) -> Node:
        """Per-row normalization (eps 1e-5) with learnable (1,d) gain and bias."""
        m, d = x.t.shape
        if gain.t.shape != (1, d) or bias.t.shape != (1, d):
            raise DimensionError(f"layer_norm params must be (1,{d})")
        xd, gd, bd = x.t.data, gain.t.data, bias.t.data
        xi, gi, bi, gp = x.idx, gain.idx, bias.idx, _keep(gain)
        out: list[float] = []
        xhat = array("d")  # packed, as backward keeps it
        inv_sigmas: list[float] = []
        for i in range(m):
            row = xd[i * d : (i + 1) * d]
            mu = sum(row) / d
            var = sum((v - mu) ** 2 for v in row) / d
            inv = 1.0 / math.sqrt(var + 1e-5)
            inv_sigmas.append(inv)
            hrow = [(v - mu) * inv for v in row]
            xhat.extend(hrow)
            out.extend(h * g + b for h, g, b in zip(hrow, gd, bd))

        def bwd(g: list[float], acc) -> None:
            gd, hs = _unpack(gp), xhat.tolist()
            dgain = [0.0] * d
            dbias = [0.0] * d
            dx: list[float] = []
            for i in range(m):
                off = i * d
                grow = g[off : off + d]
                hrow = hs[off : off + d]
                inv = inv_sigmas[i]
                gg = [gv * gm for gv, gm in zip(grow, gd)]
                mean_gg = sum(gg) / d
                mean_ggh = dots(d, [(gg, hrow)])[0] / d
                dx.extend((v - mean_gg - h * mean_ggh) * inv for v, h in zip(gg, hrow))
                dgain = list(map(_opadd, dgain, map(_opmul, grow, hrow)))
                dbias = list(map(_opadd, dbias, grow))
            acc(xi, dx)
            acc(gi, dgain)
            acc(bi, dbias)

        return self._out((m, d), out, bwd)

    def softmax_masked(self, scores: Node, mask: BoolMatrix) -> Node:
        """Row softmax over allowed entries; masked entries are exactly 0.

        Stabilized by subtracting the row max over allowed entries. A fully
        masked row violates the contract (the pad block exists upstream to
        prevent it).
        """
        q, k = scores.t.shape
        if len(mask) != q or any(len(r) != k for r in mask):
            raise DimensionError(f"mask shape does not match scores {scores.t.shape}")
        si, sd = scores.idx, scores.t.data
        out: list[float] = []
        for i in range(q):
            row = sd[i * k : (i + 1) * k]
            mrow = mask[i]
            allowed = [v for v, ok in zip(row, mrow) if ok]
            if not allowed:
                raise ContractViolationError(f"fully masked softmax row {i}")
            top = max(allowed)
            exps = [math.exp(v - top) if ok else 0.0 for v, ok in zip(row, mrow)]
            inv = 1.0 / sum(exps)
            out.extend(e * inv for e in exps)
        pp = array("d", out)

        def bwd(g: list[float], acc) -> None:
            # dL/ds = p * (g - sum(g*p)); masked entries have p == 0.
            out = pp.tolist()
            grows = [g[i * k : (i + 1) * k] for i in range(q)]
            prows = [out[i * k : (i + 1) * k] for i in range(q)]
            ds: list[float] = []
            for prow, grow, dot in zip(prows, grows, dots(k, zip(grows, prows))):
                ds.extend(p * (gv - dot) for p, gv in zip(prow, grow))
            acc(si, ds)

        node = self._out((q, k), out, bwd)
        node.saved = pp  # p·v keeps this copy too
        return node

    def cross_entropy(self, logits: Node, targets: Sequence[int], loss_mask: Sequence[bool]) -> Node:
        """Mean NLL over unmasked positions; log-sum-exp stabilized."""
        t, v = logits.t.shape
        targets = list(targets)
        loss_mask = list(loss_mask)
        if len(targets) != t or len(loss_mask) != t:
            raise DimensionError("targets/loss_mask length must match logit rows")
        if any(loss_mask[i] and not (0 <= targets[i] < v) for i in range(t)):
            raise ContractViolationError("target id out of vocabulary range")
        active = [i for i in range(t) if loss_mask[i]]
        if not active:
            raise ContractViolationError("all positions masked in cross_entropy")
        li, ld = logits.idx, logits.t.data
        probs = array("d")  # the active rows' probabilities, packed
        total = 0.0
        for i in active:
            row = ld[i * v : (i + 1) * v]
            top = max(row)
            exps = [math.exp(x - top) for x in row]
            z = sum(exps)
            total += math.log(z) + top - row[targets[i]]
            probs.extend([e / z for e in exps])
        n_active = len(active)
        out = [total / n_active]

        def bwd(g: list[float], acc) -> None:
            scale = g[0] / n_active
            dl = [0.0] * (t * v)
            ps = probs.tolist()
            for r, i in enumerate(active):
                off = i * v
                dl[off : off + v] = [p * scale for p in ps[r * v : (r + 1) * v]]
                dl[off + targets[i]] -= scale
            acc(li, dl)

        return self._out((1, 1), out, bwd)
