"""Adam on flat parameter vectors."""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates and the denominator's floor


class AdamState:
    """Per-parameter first/second moments plus the step counter.

    Two float32 scratch vectors of the same length hold the update's
    intermediates, so a step allocates nothing of parameter size.
    """

    def __init__(self, n_params: int, lr: float):
        self.lr = float(lr)
        self.m = np.zeros(n_params, dtype=np.float32)
        self.v = np.zeros(n_params, dtype=np.float32)
        self.t = 0
        self.scratch = (np.empty(n_params, dtype=np.float32), np.empty(n_params, dtype=np.float32))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """Bias-corrected Adam update, in place on ``params``.

    A NaN anywhere in ``grads`` aborts the update (parameters and moments
    untouched, step counter not incremented). Every gradient the program
    takes is float32, and each intermediate is rounded to float32 in the
    state's scratch vectors.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, moments {state.m.shape}"
        )
    if not np.isfinite(grads).all():
        bad = int(np.size(grads) - np.isfinite(grads).sum())
        raise FloatingPointError(f"adam_step: {bad} non-finite gradient entries")
    state.t += 1
    a, b = state.scratch
    np.subtract(grads, state.m, out=a)
    a *= 1.0 - BETA1
    state.m += a
    np.multiply(grads, grads, out=a)
    a -= state.v
    a *= 1.0 - BETA2
    state.v += a
    np.divide(state.m, 1.0 - BETA1**state.t, out=a)  # m_hat
    np.divide(state.v, 1.0 - BETA2**state.t, out=b)  # v_hat
    np.sqrt(b, out=b)
    b += EPS
    a *= state.lr
    a /= b
    params -= a
    return params
