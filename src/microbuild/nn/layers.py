"""Layer primitives: forward caches whatever backward needs.

Shapes follow the usual conventions: dense inputs are (B, n_in), conv
inputs are (B, C, H, W), LSTM steps take (B, n_in) plus (B, n_hidden)
state. Every network is float32. A layer's parameters start as arrays of
its own. The model the layer is built into binds it (``bind``): the
parameters move into views of the model's flat array, and ``layer.grads``,
which ``backward`` accumulates into, becomes views of its flat gradients.

A layer's ``saved()`` is what its last forward cached for ``backward``, and
``restore`` caches several forwards' ``saved()`` at once, row after row, as
one forward over all their rows would have. So a caller that kept the
passes it ran one row at a time backpropagates them in one batched
backward without running them again.
"""

from __future__ import annotations

import numpy as np


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Layer:
    """Base class: subclasses define param_names, forward and backward."""

    param_names: tuple[str, ...] = ()
    _saved: tuple = ()  # what the last forward cached for backward, each array one row per input row
    grads: dict[str, np.ndarray]  # views of the flat gradients, set by bind

    def param_arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.param_names]

    def bind(self, params: np.ndarray, grads: np.ndarray, pos: int) -> int:
        """Move the parameters, values kept, into views of the flat
        ``params`` from ``pos``, and take the views of ``grads`` there as
        the gradients; returns the end position."""
        self.grads = {}
        for name in self.param_names:
            p = getattr(self, name)
            end = pos + p.size
            view = params[pos:end].reshape(p.shape)
            view[...] = p
            setattr(self, name, view)
            self.grads[name] = grads[pos:end].reshape(p.shape)
            pos = end
        return pos

    def spec(self) -> dict:
        raise NotImplementedError

    def saved(self) -> tuple:
        """The arrays the last forward cached for ``backward``."""
        return self._saved

    def restore(self, saved: list[tuple]) -> None:
        """Cache the forwards in ``saved`` (each a ``saved()``), in order, as
        one forward over all their rows would have."""
        self._saved = tuple(np.concatenate(rows) for rows in zip(*saved))

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gout: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    param_names = ("weight", "bias")

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None = None):
        self.n_in, self.n_out = n_in, n_out
        if rng is None:
            self.weight = np.zeros((n_in, n_out), dtype=np.float32)
        else:
            self.weight = glorot_uniform(rng, n_in, n_out, (n_in, n_out))
        self.bias = np.zeros(n_out, dtype=np.float32)

    def spec(self) -> dict:
        return {"kind": "dense", "n_in": self.n_in, "n_out": self.n_out}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.n_in:
            raise ValueError(f"dense expects {self.n_in} inputs, got shape {x.shape}")
        self._saved = (x,)
        out = x @ self.weight
        out += self.bias
        return out

    def backward(self, gout: np.ndarray) -> np.ndarray:
        if not self._saved:
            raise RuntimeError("backward called before forward")
        (x,) = self._saved
        self.grads["weight"] += x.T @ gout
        self.grads["bias"] += gout.sum(axis=0)
        return gout @ self.weight.T


class ReLU(Layer):
    def spec(self) -> dict:
        return {"kind": "relu"}

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._saved = (mask,)
        return x * mask

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout * self._saved[0]


class Tanh(Layer):
    def spec(self) -> dict:
        return {"kind": "tanh"}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._saved = (out,)
        return out

    def backward(self, gout: np.ndarray) -> np.ndarray:
        out = self._saved[0]
        return gout * (1.0 - out * out)


class Flatten(Layer):
    def spec(self) -> dict:
        return {"kind": "flatten"}

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape[1:]  # one row's; every row has it
        return x.reshape(x.shape[0], -1)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout.reshape(gout.shape[0], *self._shape)


def _patch_index(c: int, h: int, w: int, k: int, stride: int) -> np.ndarray:
    """(H_out * W_out, C * k * k) offsets into a flat (C, H, W) input: the im2col patch matrix."""
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    patch = (np.arange(c)[:, None, None] * (h * w) + np.arange(k)[:, None] * w + np.arange(k)).ravel()
    starts = (np.arange(ho)[:, None] * (stride * w) + np.arange(wo) * stride).ravel()
    return starts[:, None] + patch


class Conv2d(Layer):
    """2-D convolution (cross-correlation) via im2col, square kernel, no padding.

    The patch matrix is gathered with ``take(index, mode="wrap")``. The index
    comes from ``_patch_index`` on the input's own (C, H, W), so every entry
    lies in [0, C*H*W) and "wrap" never wraps; numpy's default
    ``mode="raise"`` gives the same values but checks every entry first,
    about a quarter of the gather's time. An index bug would not raise
    here, so ``tests/test_nn.py`` checks the index range and the output
    against a sliding-window reference.

    Activations are channel-major: ``forward`` returns (B, c_out, Ho, Wo)
    as one product per observation, ``W (c_out, C*k*k) @ colsᵀ``, whose
    (c_out, Ho*Wo) result is already that layout, so no transposed copy is
    made; the backward reads the output gradient in the same (B, c_out,
    Ho*Wo) layout. The forward stays one product per observation at every
    batch size and is never one GEMM over all B*Ho*Wo patch rows: that
    GEMM's bits differ from the per-observation product's at some batch
    sizes (OpenBLAS: at 7, 8, 16 and 32 of those tried, not at 1, 2 or 4),
    and an observation's features must have the same bits in every batch
    of two or more (the ``mem`` module docstring).

    ``forward`` caches its patch matrix, (B, Ho*Wo, C*k*k), for
    ``backward``, which reads the last forward's. The next ``forward``
    drops that cache before it gathers its own, so the layer never holds
    two patch matrices, and a second call at the same batch size needs no
    more memory than the first.
    """

    param_names = ("weight", "bias")

    def __init__(
        self,
        c_in: int,
        c_out: int,
        k: int,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ):
        self.c_in, self.c_out, self.k, self.stride = c_in, c_out, k, stride
        fan_in = c_in * k * k
        fan_out = c_out * k * k
        if rng is None:
            self.weight = np.zeros((c_out, c_in, k, k), dtype=np.float32)
        else:
            self.weight = glorot_uniform(rng, fan_in, fan_out, (c_out, c_in, k, k))
        self.bias = np.zeros(c_out, dtype=np.float32)
        self._index: tuple[tuple, np.ndarray | None] = ((), None)  # (C, H, W), patch index

    def spec(self) -> dict:
        return {
            "kind": "conv2d",
            "c_in": self.c_in,
            "c_out": self.c_out,
            "k": self.k,
            "stride": self.stride,
            "pad": 0,  # model-file headers carry the key
        }

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        return (h - self.k) // self.stride + 1, (w - self.k) // self.stride + 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise ValueError(f"conv2d expects (B,{self.c_in},H,W), got {x.shape}")
        b, (ho, wo) = x.shape[0], self.out_hw(*x.shape[2:])
        chw, index = self._index
        if chw != x.shape[1:]:
            index = _patch_index(*x.shape[1:], self.k, self.stride)
            self._index = (x.shape[1:], index)
        self._saved = ()  # free the last patch matrix before the next is gathered
        cols = x.reshape(b, -1).take(index, axis=1, mode="wrap")  # (B, Ho*Wo, C*k*k)
        self._saved = (cols,)
        out = np.matmul(self.weight.reshape(self.c_out, -1), cols.transpose(0, 2, 1))  # (B, c_out, Ho*Wo)
        out += self.bias[:, None]
        return out.reshape(b, self.c_out, ho, wo)

    def backward_params(self, gout: np.ndarray) -> np.ndarray:
        """Weight and bias gradients only (no input gradient); returns ``gout`` as (B, c_out, Ho*Wo).

        The weight gradient is one batched product, ``g_b @ cols_b`` for
        every observation b at once, summed over the batch; each product
        reads the observation's (c_out, Ho*Wo) gradient as it comes, so
        nothing is transposed or copied first. It allocates a (B, c_out,
        C*k*k) array, about 0.36 MB for the state encoder's first conv at
        B=32.
        """
        g = gout.reshape(gout.shape[0], self.c_out, -1)
        self.grads["weight"] += np.matmul(g, self._saved[0]).sum(axis=0).reshape(self.weight.shape)
        self.grads["bias"] += g.sum(axis=(0, 2))
        return g

    def backward(self, gout: np.ndarray) -> np.ndarray:
        g = self.backward_params(gout)
        (chw, index), b = self._index, gout.shape[0]
        n = int(np.prod(chw))
        gcols = np.matmul(g.transpose(0, 2, 1), self.weight.reshape(self.c_out, -1))  # (B, Ho*Wo, C*k*k)
        # col2im: sum every patch entry into its input position
        at = (index + n * np.arange(b)[:, None, None]).ravel()
        return np.bincount(at, gcols.ravel(), minlength=b * n).astype(gout.dtype).reshape(b, *chw)


class LSTM(Layer):
    """Standard LSTM cell (input/forget/output gates, tanh candidate).

    Gate pre-activations are ordered (i, f, g, o) along the last axis.
    The forget-gate bias initializes to 1. Every gate comes from one rule
    over the whole 4n block, ``tanh(z * scale) * scale + shift``, with
    constant ``scale`` ½ and ``shift`` ½ on the i, f and o blocks and 1 and 0
    on g: σ(z) = ½·tanh(z/2) + ½ for i, f and o, tanh(z) for g. tanh cannot
    overflow; only a pre-activation whose half is subnormal raises underflow.
    Two forward passes compute the same function:

    - ``step`` runs one timestep of (B, n_in) inputs from state (h, c).
      Acting uses it alone, where each input depends on the last output.
      It keeps its step's arrays (``saved``): the input, the entering
      state, the gates, tanh(c) and the new h. ``restore`` stacks steps
      kept that way into the cache ``forward_seq`` would have left, so a
      rollout's acting steps backpropagate without a second forward.
    - ``forward_seq`` runs a whole (T, B, n_in) sequence known up front, as
      in training and in every command encoding (``MemModel``). The input
      projection of all T*B rows, plus the bias, is one product before the
      loop, which keeps only ``h @ w_h``. It caches the sequence for
      ``backward_seq``.

    The two agree to float rounding: the hoisted product and the bias add
    round in another order. ``backward_seq`` backpropagates through the
    sequence the last ``forward_seq`` or ``restore`` cached.
    """

    param_names = ("w_x", "w_h", "bias")

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator | None = None):
        self.n_in, self.n_hidden = n_in, n_hidden
        if rng is None:
            self.w_x = np.zeros((n_in, 4 * n_hidden), dtype=np.float32)
            self.w_h = np.zeros((n_hidden, 4 * n_hidden), dtype=np.float32)
        else:
            self.w_x = glorot_uniform(rng, n_in, n_hidden, (n_in, 4 * n_hidden))
            self.w_h = glorot_uniform(rng, n_hidden, n_hidden, (n_hidden, 4 * n_hidden))
        self.bias = np.zeros(4 * n_hidden, dtype=np.float32)
        self.bias[n_hidden : 2 * n_hidden] = 1.0  # forget gate
        self._scale = np.full(4 * n_hidden, 0.5, dtype=np.float32)  # the gate rule's constants, not parameters
        self._scale[2 * n_hidden : 3 * n_hidden] = 1.0
        self._shift = 1.0 - self._scale
        # (x, h entering, c entering, gates, tanh c) of the last forward_seq or restore, each (T, B, ...)
        self._cache: tuple | None = None

    def spec(self) -> dict:
        return {"kind": "lstm", "n_in": self.n_in, "n_hidden": self.n_hidden}

    def zero_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.zeros((batch, self.n_hidden), dtype=self.w_x.dtype),
            np.zeros((batch, self.n_hidden), dtype=self.w_x.dtype),
        )

    def _gates(self, z: np.ndarray) -> np.ndarray:
        """The gates of the (..., 4n) pre-activations ``z``, computed in place."""
        z *= self._scale
        np.tanh(z, out=z)
        z *= self._scale
        z += self._shift
        return z

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nh = self.n_hidden
        z = x @ self.w_x
        z += h @ self.w_h
        z += self.bias
        gates = self._gates(z)
        i, f, g, o = gates[:, :nh], gates[:, nh : 2 * nh], gates[:, 2 * nh : 3 * nh], gates[:, 3 * nh :]
        c_new = f * c
        c_new += i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        self._saved = (x, h, c, gates, tc, h_new)
        return h_new, c_new

    def restore(self, saved: list[tuple]) -> np.ndarray:
        """Cache the steps in ``saved`` (each a ``saved()``), in order, as
        ``forward_seq`` over their inputs would have, for ``backward_seq``;
        returns their h_t, (T, B, n_hidden)."""
        xs, hs, cs, gates, tcs, outs = (np.array(a) for a in zip(*saved))
        self._cache = (xs, hs, cs, gates, tcs)
        return outs

    def forward_seq(self, xs: np.ndarray, h0: np.ndarray, c0: np.ndarray) -> np.ndarray:
        """Run a (T, B, n_in) sequence from state (h0, c0); returns every h_t, (T, B, n_hidden).

        Caches the sequence for ``backward_seq``.
        """
        n_steps, batch = xs.shape[:2]
        nh = self.n_hidden
        # x @ w_x + bias for every step at once; step t's row becomes its gates
        gates = (xs.reshape(n_steps * batch, -1) @ self.w_x + self.bias).reshape(n_steps, batch, 4 * nh)
        hs = np.empty((n_steps + 1, batch, nh), gates.dtype)  # hs[t] enters step t
        cs = np.empty_like(hs)
        hs[0], cs[0] = h0, c0
        tcs = np.empty_like(hs[1:])
        i, f, g, o = (gates[..., k * nh : (k + 1) * nh] for k in range(4))
        for t in range(n_steps):
            gates[t] += hs[t] @ self.w_h
            self._gates(gates[t])
            np.multiply(f[t], cs[t], out=cs[t + 1])
            cs[t + 1] += i[t] * g[t]
            np.tanh(cs[t + 1], out=tcs[t])
            np.multiply(o[t], tcs[t], out=hs[t + 1])
        self._cache = (xs, hs[:-1], cs[:-1], gates, tcs)
        return hs[1:]

    def backward_seq(self, gh_seq: np.ndarray) -> np.ndarray:
        """BPTT over the sequence the last ``forward_seq`` or ``restore`` cached.

        ``gh_seq`` (T, B, n_hidden) is the loss gradient flowing into each
        h_t from outside the recurrence (e.g. from heads); a loss on the
        last state alone puts its gradient in ``gh_seq[-1]``.
        Only the state gradients run step by step; the weight and input
        gradients are one product each over all T*B gate-gradient rows.
        Returns the input gradients, (T, B, n_in), and clears the cache.
        """
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError("backward_seq called before forward_seq")
        nh = self.n_hidden
        # (T, B, ...) each; hs and cs are the states entering each step
        xs, hs, cs, gates, tcs = cache
        n_steps, batch = xs.shape[:2]
        i, f, g, o = gates[..., :nh], gates[..., nh : 2 * nh], gates[..., 2 * nh : 3 * nh], gates[..., 3 * nh :]
        # d c_t / d h_t, and d z_t per unit of d c_t (i, f, g blocks) and of d h_t (o block)
        dc_dh = o * (1.0 - tcs * tcs)
        dz_dc = np.stack([g * i * (1.0 - i), cs * f * (1.0 - f), i * (1.0 - g * g)], axis=2)
        dz_dh = tcs * o * (1.0 - o)
        dt = self.w_x.dtype
        dh_next = np.zeros((batch, nh), dtype=dt)
        dc_next = np.zeros((batch, nh), dtype=dt)
        dz = np.empty((n_steps, batch, 4, nh), dtype=dt)
        w_h_t = self.w_h.T
        for t in range(n_steps - 1, -1, -1):
            dh = dh_next + gh_seq[t]
            dc = dh * dc_dh[t] + dc_next
            np.multiply(dc[:, None], dz_dc[t], out=dz[t, :, :3])
            np.multiply(dh, dz_dh[t], out=dz[t, :, 3])
            dh_next = dz[t].reshape(batch, 4 * nh) @ w_h_t
            dc_next = dc * f[t]
        rows = dz.reshape(n_steps * batch, 4 * nh)
        self.grads["w_x"] += xs.reshape(n_steps * batch, -1).T @ rows
        self.grads["w_h"] += hs.reshape(n_steps * batch, nh).T @ rows
        self.grads["bias"] += rows.sum(axis=0)
        return (rows @ self.w_x.T).reshape(n_steps, batch, self.n_in)
