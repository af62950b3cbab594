"""Central finite-difference validation of reverse-mode gradients."""

from __future__ import annotations

import random
from typing import Callable, Sequence

from ..errors import NonFiniteError
from .graph import Graph, Node
from .tensor import Tensor

# Loss builders take a fresh graph plus the parameter nodes and return a
# scalar node. They must be deterministic in the parameter values.
LossBuilder = Callable[[Graph, list[Node]], Node]

H = 1e-5  # central-difference step
FLOOR = 1e-6  # smallest denominator of the relative error


def _eval_loss(build_loss: LossBuilder, params: Sequence[Tensor]) -> float:
    g = Graph()
    nodes = [g.param(p) for p in params]
    value = build_loss(g, nodes).t.item()
    if value != value:
        raise NonFiniteError("loss is NaN")
    return value


def grad_check(
    build_loss: LossBuilder,
    params: Sequence[Tensor],
    sample: int | None = None,
    seed: int = 0,
) -> float:
    """Worst relative error between reverse-mode and central differences.

    Every coordinate of every parameter is perturbed by +-H unless `sample`
    caps the per-tensor coordinate count (sampled deterministically). The
    denominator is floored so coordinates whose true gradient sits below the
    finite-difference noise floor compare absolutely instead of exploding.
    """
    g = Graph()
    nodes = [g.param(p) for p in params]
    g.backward(build_loss(g, nodes))
    analytic = [g.grad(n).data for n in nodes]

    rng = random.Random(seed)
    worst = 0.0
    for t, adg in zip(params, analytic):
        coords = range(t.size)
        if sample is not None and sample < t.size:
            coords = sorted(rng.sample(range(t.size), sample))
        for i in coords:
            orig = t.data[i]
            t.data[i] = orig + H
            fp = _eval_loss(build_loss, params)
            t.data[i] = orig - H
            fm = _eval_loss(build_loss, params)
            t.data[i] = orig
            fd = (fp - fm) / (2.0 * H)
            ad = adg[i]
            err = abs(ad - fd) / max(abs(ad), abs(fd), FLOOR)
            if err > worst:
                worst = err
    return worst
