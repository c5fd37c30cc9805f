"""Layer primitives: forward caches whatever backward needs.

Shapes follow the usual conventions: dense inputs are (B, n_in), conv
inputs are (B, C, H, W), LSTM steps take (B, n_in) plus (B, n_hidden)
state. Parameters live in plain numpy arrays owned by the layer; gradient
arrays of matching shape are produced by ``backward`` and accumulated into
``layer.grads``.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float32


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape, dtype=DTYPE):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


class Layer:
    """Base class: subclasses define param_names, forward and backward."""

    param_names: tuple[str, ...] = ()

    def __init__(self):
        self.grads: dict[str, np.ndarray] = {}

    def param_arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.param_names]

    def grad_arrays(self) -> list[np.ndarray]:
        return [self.grads[name] for name in self.param_names]

    def zero_grads(self) -> None:
        for name in self.param_names:
            self.grads[name] = np.zeros_like(getattr(self, name))

    def spec(self) -> dict:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gout: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    param_names = ("weight", "bias")

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None = None, dtype=DTYPE):
        super().__init__()
        self.n_in, self.n_out = n_in, n_out
        if rng is None:
            self.weight = np.zeros((n_in, n_out), dtype=dtype)
        else:
            self.weight = glorot_uniform(rng, n_in, n_out, (n_in, n_out), dtype)
        self.bias = np.zeros(n_out, dtype=dtype)
        self.zero_grads()
        self._x: np.ndarray | None = None

    def spec(self) -> dict:
        return {"kind": "dense", "n_in": self.n_in, "n_out": self.n_out}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.n_in:
            raise ValueError(f"dense expects {self.n_in} inputs, got shape {x.shape}")
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, gout: np.ndarray) -> np.ndarray:
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        self.grads["weight"] += x.T @ gout
        self.grads["bias"] += gout.sum(axis=0)
        return gout @ self.weight.T


class ReLU(Layer):
    def spec(self) -> dict:
        return {"kind": "relu"}

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout * self._mask


class Tanh(Layer):
    def spec(self) -> dict:
        return {"kind": "tanh"}

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout * (1.0 - self._out * self._out)


class Softmax(Layer):
    def spec(self) -> dict:
        return {"kind": "softmax"}

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = softmax(x, axis=-1)
        return self._out

    def backward(self, gout: np.ndarray) -> np.ndarray:
        p = self._out
        return p * (gout - (gout * p).sum(axis=-1, keepdims=True))


class Flatten(Layer):
    def spec(self) -> dict:
        return {"kind": "flatten"}

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout.reshape(self._shape)


def _im2col(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """(B, C, H, W) -> (B, H_out * W_out, C * k * k) patch matrix."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]  # (B, C, Ho, Wo, k, k)
    b, c, ho, wo, _, _ = windows.shape
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k), ho, wo


class Conv2d(Layer):
    """2-D convolution (cross-correlation) via im2col, square kernel."""

    param_names = ("weight", "bias")

    def __init__(
        self,
        c_in: int,
        c_out: int,
        k: int,
        stride: int = 1,
        pad: int = 0,
        rng: np.random.Generator | None = None,
        dtype=DTYPE,
    ):
        super().__init__()
        self.c_in, self.c_out, self.k, self.stride, self.pad = c_in, c_out, k, stride, pad
        fan_in = c_in * k * k
        fan_out = c_out * k * k
        if rng is None:
            self.weight = np.zeros((c_out, c_in, k, k), dtype=dtype)
        else:
            self.weight = glorot_uniform(rng, fan_in, fan_out, (c_out, c_in, k, k), dtype)
        self.bias = np.zeros(c_out, dtype=dtype)
        self.zero_grads()

    def spec(self) -> dict:
        return {
            "kind": "conv2d",
            "c_in": self.c_in,
            "c_out": self.c_out,
            "k": self.k,
            "stride": self.stride,
            "pad": self.pad,
        }

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.k, self.stride, self.pad
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise ValueError(f"conv2d expects (B,{self.c_in},H,W), got {x.shape}")
        if self.pad:
            x = np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)))
        self._x_padded_shape = x.shape
        cols, ho, wo = _im2col(x, self.k, self.stride)
        self._cols = cols
        self._ho, self._wo = ho, wo
        w_mat = self.weight.reshape(self.c_out, -1)
        out = cols @ w_mat.T + self.bias  # (B, Ho*Wo, c_out)
        return out.transpose(0, 2, 1).reshape(x.shape[0], self.c_out, ho, wo)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        b = gout.shape[0]
        ho, wo, k, s = self._ho, self._wo, self.k, self.stride
        g = gout.reshape(b, self.c_out, ho * wo).transpose(0, 2, 1)  # (B, L, c_out)
        w_mat = self.weight.reshape(self.c_out, -1)
        gw = np.einsum("blo,blc->oc", g, self._cols)
        self.grads["weight"] += gw.reshape(self.weight.shape)
        self.grads["bias"] += g.sum(axis=(0, 1))
        gcols = g @ w_mat  # (B, L, c_in*k*k)
        gcols = gcols.reshape(b, ho, wo, self.c_in, k, k)
        gx = np.zeros(self._x_padded_shape, dtype=gout.dtype)
        # col2im: one strided slice-add per kernel offset
        for i in range(k):
            for j in range(k):
                gx[:, :, i : i + ho * s : s, j : j + wo * s : s] += gcols[
                    :, :, :, :, i, j
                ].transpose(0, 3, 1, 2)
        if self.pad:
            gx = gx[:, :, self.pad : -self.pad, self.pad : -self.pad]
        return gx


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LSTM(Layer):
    """Standard LSTM cell (input/forget/output gates, tanh candidate).

    Gate pre-activations are ordered (i, f, g, o) along the last axis.
    ``step`` runs one timestep and pushes a cache; ``backward_seq`` walks
    the cached steps in reverse. The forget-gate bias initializes to 1.
    """

    param_names = ("w_x", "w_h", "bias")

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator | None = None, dtype=DTYPE):
        super().__init__()
        self.n_in, self.n_hidden = n_in, n_hidden
        if rng is None:
            self.w_x = np.zeros((n_in, 4 * n_hidden), dtype=dtype)
            self.w_h = np.zeros((n_hidden, 4 * n_hidden), dtype=dtype)
        else:
            self.w_x = glorot_uniform(rng, n_in, n_hidden, (n_in, 4 * n_hidden), dtype)
            self.w_h = glorot_uniform(rng, n_hidden, n_hidden, (n_hidden, 4 * n_hidden), dtype)
        self.bias = np.zeros(4 * n_hidden, dtype=dtype)
        self.bias[n_hidden : 2 * n_hidden] = 1.0  # forget gate
        self.zero_grads()
        self._caches: list[tuple] = []

    def spec(self) -> dict:
        return {"kind": "lstm", "n_in": self.n_in, "n_hidden": self.n_hidden}

    def zero_state(self, batch: int, dtype=None) -> tuple[np.ndarray, np.ndarray]:
        dt = dtype if dtype is not None else self.w_x.dtype
        return (
            np.zeros((batch, self.n_hidden), dtype=dt),
            np.zeros((batch, self.n_hidden), dtype=dt),
        )

    def reset_cache(self) -> None:
        self._caches = []

    def take_cache(self) -> list[tuple]:
        """Detach the accumulated step caches (for interleaved sequences)."""
        caches, self._caches = self._caches, []
        return caches

    def set_cache(self, caches: list[tuple]) -> None:
        self._caches = caches

    def step(
        self, x: np.ndarray, h: np.ndarray, c: np.ndarray, cache: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        nh = self.n_hidden
        z = x @ self.w_x + h @ self.w_h + self.bias
        i = _sigmoid(z[:, :nh])
        f = _sigmoid(z[:, nh : 2 * nh])
        g = np.tanh(z[:, 2 * nh : 3 * nh])
        o = _sigmoid(z[:, 3 * nh :])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        if cache:
            self._caches.append((x, h, c, i, f, g, o, tc))
        return h_new, c_new

    def backward_seq(
        self,
        gh_seq: list[np.ndarray] | np.ndarray,
        gh_final: np.ndarray | None = None,
        gc_final: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """BPTT over all cached steps.

        ``gh_seq[t]`` is the loss gradient flowing into h_t from outside the
        recurrence (e.g. from heads); ``gh_final``/``gc_final`` add to the
        last step's state gradients. Returns per-step input gradients and
        clears the cache.
        """
        n_steps = len(self._caches)
        if n_steps == 0:
            raise RuntimeError("backward called before forward")
        nh = self.n_hidden
        batch = self._caches[0][0].shape[0]
        dt = self.w_x.dtype
        dh_next = np.zeros((batch, nh), dtype=dt) if gh_final is None else gh_final.copy()
        dc_next = np.zeros((batch, nh), dtype=dt) if gc_final is None else gc_final.copy()
        gx_seq: list[np.ndarray] = [None] * n_steps  # type: ignore[list-item]
        for t in range(n_steps - 1, -1, -1):
            x, h_prev, c_prev, i, f, g, o, tc = self._caches[t]
            dh = dh_next + (gh_seq[t] if gh_seq is not None else 0.0)
            do = dh * tc
            dc = dh * o * (1.0 - tc * tc) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            self.grads["w_x"] += x.T @ dz
            self.grads["w_h"] += h_prev.T @ dz
            self.grads["bias"] += dz.sum(axis=0)
            gx_seq[t] = dz @ self.w_x.T
            dh_next = dz @ self.w_h.T
            dc_next = dc * f
        self._caches = []
        return gx_seq

    # single-step convenience used by grad checks
    def forward(self, x: np.ndarray) -> np.ndarray:
        h, c = self.zero_state(x.shape[0], dtype=x.dtype)
        self.reset_cache()
        h_new, _ = self.step(x, h, c)
        return h_new

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return self.backward_seq([gout])[0]
