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


class Flatten(Layer):
    def spec(self) -> dict:
        return {"kind": "flatten"}

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout.reshape(self._shape)


def _patch_index(c: int, h: int, w: int, k: int, stride: int) -> np.ndarray:
    """(H_out * W_out, C * k * k) offsets into a flat (C, H, W) input: the im2col patch matrix."""
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    patch = (np.arange(c)[:, None, None] * (h * w) + np.arange(k)[:, None] * w + np.arange(k)).ravel()
    starts = (np.arange(ho)[:, None] * (stride * w) + np.arange(wo) * stride).ravel()
    return starts[:, None] + patch


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
        self._index: tuple[tuple, np.ndarray | None] = ((), None)  # (padded C, H, W), patch index

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
        b, (ho, wo) = x.shape[0], self.out_hw(*x.shape[2:])
        if self.pad:
            x = np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)))
        chw, index = self._index
        if chw != x.shape[1:]:
            index = _patch_index(*x.shape[1:], self.k, self.stride)
            self._index = (x.shape[1:], index)
        self._x_padded_shape = x.shape
        self._cols = x.reshape(b, -1).take(index, axis=1)  # (B, Ho*Wo, C*k*k)
        w_mat = self.weight.reshape(self.c_out, -1)
        out = self._cols @ w_mat.T + self.bias  # (B, Ho*Wo, c_out)
        return out.transpose(0, 2, 1).reshape(b, self.c_out, ho, wo)

    def backward_params(self, gout: np.ndarray) -> np.ndarray:
        """Weight and bias gradients only (no input gradient); returns ``gout`` as (B*Ho*Wo, c_out)."""
        g = gout.reshape(gout.shape[0], self.c_out, -1).transpose(0, 2, 1).reshape(-1, self.c_out)
        self.grads["weight"] += (g.T @ self._cols.reshape(g.shape[0], -1)).reshape(self.weight.shape)
        self.grads["bias"] += g.sum(axis=0)
        return g

    def backward(self, gout: np.ndarray) -> np.ndarray:
        g = self.backward_params(gout)
        b, n = gout.shape[0], int(np.prod(self._x_padded_shape[1:]))
        gcols = g @ self.weight.reshape(self.c_out, -1)  # (B*Ho*Wo, C*k*k)
        # col2im: sum every patch entry into its input position
        at = (self._index[1] + n * np.arange(b)[:, None, None]).ravel()
        gx = np.bincount(at, gcols.ravel(), minlength=b * n).astype(gout.dtype).reshape(self._x_padded_shape)
        if self.pad:
            gx = gx[:, :, self.pad : -self.pad, self.pad : -self.pad]
        return gx


@np.errstate(under="ignore")  # exp(-|z|) reaching 0 is the right limit
def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; exp only sees -|z|, so it cannot overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
        gates = _sigmoid(z)  # i, f and o; the g block then takes its tanh
        np.tanh(z[:, 2 * nh : 3 * nh], out=gates[:, 2 * nh : 3 * nh])
        i, f, g, o = gates[:, :nh], gates[:, nh : 2 * nh], gates[:, 2 * nh : 3 * nh], gates[:, 3 * nh :]
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        if cache:
            self._caches.append((x, h, c, gates, tc))
        return h_new, c_new

    def backward_seq(
        self,
        gh_seq: np.ndarray | None,
        gh_final: np.ndarray | None = None,
        gc_final: np.ndarray | None = None,
    ) -> np.ndarray:
        """BPTT over all cached steps.

        ``gh_seq`` (T, B, n_hidden) or None is the loss gradient flowing into
        each h_t from outside the recurrence (e.g. from heads);
        ``gh_final``/``gc_final`` add to the last step's state gradients.
        Only the state gradients run step by step; the weight and input
        gradients are one product each over all T*B gate-gradient rows.
        Returns the input gradients, (T, B, n_in), and clears the cache.
        """
        caches, self._caches = self._caches, []
        if not caches:
            raise RuntimeError("backward called before forward")
        nh = self.n_hidden
        xs, hs, cs, gates, tcs = (np.stack(a) for a in zip(*caches))  # (T, B, ...)
        n_steps, batch = xs.shape[:2]
        i, f, g, o = gates[..., :nh], gates[..., nh : 2 * nh], gates[..., 2 * nh : 3 * nh], gates[..., 3 * nh :]
        # d c_t / d h_t, and d z_t per unit of d c_t (i, f, g blocks) and of d h_t (o block)
        dc_dh = o * (1.0 - tcs * tcs)
        dz_dc = np.stack([g * i * (1.0 - i), cs * f * (1.0 - f), i * (1.0 - g * g)], axis=2)
        dz_dh = tcs * o * (1.0 - o)
        dt = self.w_x.dtype
        dh_next = np.zeros((batch, nh), dtype=dt) if gh_final is None else gh_final
        dc_next = np.zeros((batch, nh), dtype=dt) if gc_final is None else gc_final
        dz = np.empty((n_steps, batch, 4, nh), dtype=dt)
        w_h_t = self.w_h.T
        for t in range(n_steps - 1, -1, -1):
            dh = dh_next if gh_seq is None else dh_next + gh_seq[t]
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

    # single-step convenience used by grad checks
    def forward(self, x: np.ndarray) -> np.ndarray:
        h, c = self.zero_state(x.shape[0], dtype=x.dtype)
        self.reset_cache()
        h_new, _ = self.step(x, h, c)
        return h_new

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return self.backward_seq(gout[None])[0]
