"""Central-difference gradient verification.

The checker perturbs every parameter entry by ±eps, recomputes the scalar
loss, and compares the resulting slope against the analytic gradient.
Checks should run in float64 (``bound`` makes a network float64): float32
arithmetic alone eats most of a 1e-4 relative tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from microbuild.nn import Layer, Model


def grad_check_fn(
    loss_fn: Callable[[], tuple[float, list[np.ndarray]]],
    param_arrays: list[np.ndarray],
    eps: float = 1e-4,
    max_entries_per_array: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and finite-difference gradients.

    ``loss_fn`` must be a deterministic closure over ``param_arrays``
    returning (loss, gradient arrays aligned with param_arrays). Relative
    error per entry is |a - n| / max(|a|, |n|, 1e-2), which flags wrong
    formulas (O(1) error) without amplifying noise on near-zero gradients.
    Set ``max_entries_per_array`` to spot-check a random subset of entries
    in big arrays instead of all of them.
    """
    _, analytic = loss_fn()
    analytic = [np.array(g, dtype=np.float64, copy=True) for g in analytic]
    worst = 0.0
    for arr, ana in zip(param_arrays, analytic):
        flat = arr.reshape(-1)
        ana_flat = ana.reshape(-1)
        if max_entries_per_array is not None and flat.size > max_entries_per_array:
            if rng is None:
                rng = np.random.default_rng(0)
            entries = rng.choice(flat.size, size=max_entries_per_array, replace=False)
        else:
            entries = range(flat.size)
        for idx in entries:
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = loss_fn()
            flat[idx] = orig - eps
            down, _ = loss_fn()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(ana_flat[idx]), abs(numeric), 1e-2)
            worst = max(worst, abs(ana_flat[idx] - numeric) / denom)
    return worst


def bound(net: Layer | Model, dtype=np.float64):
    """``net`` bound to new flat arrays of ``dtype``, and returned: its
    parameters keep their values and its gradients start at zero.

    A layer or chain a test builds on its own takes its gradients this way,
    and a float64 model is the float32 one it was built as, widened."""
    n = sum(a.size for a in net.param_arrays())
    net.bind(np.empty(n, dtype), np.zeros(n, dtype), 0)
    return net


def zero_grads(net: Layer | Model) -> None:
    for g in grad_arrays(net):
        g.fill(0)


def grad_arrays(net: Layer | Model) -> list[np.ndarray]:
    """The gradient arrays of a layer, or of every layer of a model, aligned with ``net.param_arrays()``."""
    if isinstance(net, Model):
        return [g for l in net.layers for g in grad_arrays(l)]
    return [net.grads[name] for name in net.param_names]


def grad_check(net: Layer, x: np.ndarray, eps: float = 1e-4, rng: np.random.Generator | None = None) -> float:
    """Check a layer/chain's parameter gradients under a fixed linear readout.

    Scalarizes the network output as sum(output * R) for a fixed random R,
    so every output entry contributes to the loss.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    probe: dict[str, np.ndarray] = {}

    def loss_fn() -> tuple[float, list[np.ndarray]]:
        zero_grads(net)
        out = net.forward(x)
        if "r" not in probe:
            probe["r"] = rng.standard_normal(out.shape)
        loss = float((out * probe["r"]).sum())
        net.backward(probe["r"].astype(out.dtype))
        return loss, [g.copy() for g in grad_arrays(net)]

    return grad_check_fn(loss_fn, net.param_arrays(), eps)
