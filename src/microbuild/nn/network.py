"""Models, layer chains, flat parameter arrays, and the model file format.

``Model`` owns the parameter plumbing for anything built from a list of
layers: ``Sequential`` chains, the ``StateEncoder`` and the agent and
embedding networks built on it. A model's parameters live in one flat
array and its gradients in another; every layer holds views into them.

Model files are versioned binaries: magic, format version, a JSON header
describing the architecture, then one little-endian float32 block holding
all parameters in declaration order. Loading verifies the header against
the expected spec and the parameter count against the payload size.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .layers import Conv2d, Dense, Flatten, Layer, ReLU, Tanh

_MAGIC = b"MBNET\x00"
_VERSION = 1


class Model:
    """Parameters and gradients of the layers in ``self.layers``, each held
    in one flat array: ``flat_params`` and ``flat_grads``.

    A model is built, then bound to them: the outermost model's
    constructor ends with ``_own_params``, which makes both arrays and
    binds every layer, in declaration order, to views into them; a model
    among the layers takes its slice of the outer arrays. So a write to
    ``flat_params`` (``set_flat`` or an in-place optimizer step) is a write
    to the layers, and the gradients ``backward`` accumulates read out as
    ``flat_grads``. A layer belongs to one model: binding another model
    built from it moves its arrays into the new one, and the old model no
    longer sees them.
    """

    layers: list
    flat_params: np.ndarray
    flat_grads: np.ndarray

    def _own_params(self) -> None:
        """Bind the layers to new float32 flat arrays: the parameters keep
        their values, the gradients start at zero."""
        n = sum(a.size for a in self.param_arrays())
        self.bind(np.empty(n, np.float32), np.zeros(n, np.float32), 0)

    def bind(self, params: np.ndarray, grads: np.ndarray, pos: int) -> int:
        """Rebind every layer, in order, to views of ``params`` and ``grads``
        from ``pos``, and take the slice they fill; returns its end."""
        start = pos
        for l in self.layers:
            pos = l.bind(params, grads, pos)
        self.flat_params, self.flat_grads = params[start:pos], grads[start:pos]
        return pos

    def param_arrays(self) -> list[np.ndarray]:
        return [a for l in self.layers for a in l.param_arrays()]

    def zero_grads(self) -> None:
        self.flat_grads.fill(0)

    def get_flat(self) -> np.ndarray:
        """A float32 copy of the parameters."""
        return self.flat_params.astype(np.float32)

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.shape != self.flat_params.shape:
            raise ValueError(f"expected {self.flat_params.size} parameters, got shape {flat.shape}")
        self.flat_params[...] = flat

    def n_params(self) -> int:
        return self.flat_params.size


class Sequential(Model, Layer):
    """A chain of layers applied in order; backward runs them in reverse."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def spec(self) -> dict:
        return {"kind": "sequential", "layers": [l.spec() for l in self.layers]}

    def forward(self, x: np.ndarray) -> np.ndarray:
        for l in self.layers:
            x = l.forward(x)
        return x

    def backward(self, gout: np.ndarray) -> np.ndarray:
        for l in reversed(self.layers):
            gout = l.backward(gout)
        return gout

    def saved(self) -> tuple:
        return tuple([l.saved() for l in self.layers])

    def restore(self, saved: list[tuple]) -> None:
        for k, l in enumerate(self.layers):
            l.restore([s[k] for s in saved])


class StateEncoder(Model):
    """Observation features: a two-layer conv trunk over the spatial planes,
    flattened, beside a tanh dense layer over the scalar features.

    The agent and the embedding model both start with one; it draws its
    initial weights from ``rng`` before anything else in them.

    A one-row forward reuses the conv trunk's last one-row output when the
    trunk would see the same thing again. The memo's key is the input's
    dtype, shape and bytes plus the bytes of the trunk's flat parameters,
    so a new frame, ``set_flat``, an optimizer step or an in-place write to
    a weight never returns a stale value; within one game most steps leave
    the spatial planes as they were. Invariant: every call that runs the
    trunk replaces the memo and a batched call clears it, so the layer
    caches a later ``backward`` reads always belong to the memoised input.
    Run the trunk only through this class, or a memo hit may pair with
    another input's caches.

    Memo runs are also the backward's runs. A run is consecutive one-row
    calls on which the memo returned the same trunk output; their
    ``saved()`` share the trunk's cached arrays. ``restore`` of such calls
    caches the trunk once per run, and ``backward`` with the run starts it
    returns takes the trunk back once per run, on the summed gradient of
    the calls that reused it.
    """

    def __init__(self, channels: int, grid: int, n_scalars: int, hidden: int, rng):
        conv1 = Conv2d(channels, 8, k=5, stride=2, rng=rng)
        conv2 = Conv2d(8, 16, k=3, stride=2, rng=rng)
        h, w = conv2.out_hw(*conv1.out_hw(grid, grid))
        self.spatial_net = Sequential([conv1, ReLU(), conv2, ReLU(), Flatten()])
        self.nonspatial_net = Sequential([Dense(n_scalars, hidden, rng), Tanh()])
        self.layers = [self.spatial_net, self.nonspatial_net]
        self.n_spatial = conv2.c_out * h * w
        self.out_dim = self.n_spatial + hidden
        self._memo: tuple[tuple, np.ndarray] | None = None  # (key, trunk output) of the last one-row run

    def forward(self, spatial: np.ndarray, nonspatial: np.ndarray, *extra: np.ndarray) -> np.ndarray:
        """(B, out_dim + widths of ``extra``): the features, then ``extra`` appended as given."""
        return np.concatenate(
            [self._spatial(spatial), self.nonspatial_net.forward(nonspatial), *extra], axis=1
        )

    def _spatial(self, spatial: np.ndarray) -> np.ndarray:
        if spatial.shape[0] != 1:
            self._memo = None
            return self.spatial_net.forward(spatial)
        key = (spatial.dtype, spatial.shape, spatial.tobytes(), self.spatial_net.flat_params.tobytes())
        memo = self._memo
        if memo is not None and memo[0] == key:
            return memo[1]
        out = self.spatial_net.forward(spatial)
        self._memo = (key, out)
        return out

    def saved(self) -> tuple:
        """(trunk caches, scalar-layer caches) of the last forward."""
        return self.spatial_net.saved(), self.nonspatial_net.saved()

    def restore(self, saved: list[tuple]) -> np.ndarray:
        """Cache the one-row forwards in ``saved`` (each a ``saved()``), in
        order, for ``backward``: the scalar layers one row per forward, the
        trunk one row per memo run. Every trunk run gathers a new conv1
        patch matrix, so a run starts where that array changes. Clears the
        memo, as a batched call does; returns the row each run starts at."""
        cols = [s[0][0][0] for s in saved]  # each forward's conv1 patch matrix
        starts = [t for t in range(len(cols)) if t == 0 or cols[t] is not cols[t - 1]]
        self._memo = None
        self.spatial_net.restore([saved[t][0] for t in starts])
        self.nonspatial_net.restore([s[1] for s in saved])
        return np.array(starts)

    def backward(self, g: np.ndarray, run_starts: np.ndarray | None = None) -> None:
        """Backpropagate the first ``out_dim`` columns; those of ``extra`` are
        dropped. With the ``run_starts`` of ``restore``, the trunk takes the
        sum of each run's rows."""
        conv1, *above = self.spatial_net.layers  # the observation takes no gradient
        g_spatial = g[:, : self.n_spatial]
        if run_starts is not None:
            g_spatial = np.add.reduceat(g_spatial, run_starts, axis=0)
        for l in reversed(above):
            g_spatial = l.backward(g_spatial)
        conv1.backward_params(g_spatial)
        self.nonspatial_net.backward(g[:, self.n_spatial : self.out_dim])


def save_model(path, spec: dict, flat: np.ndarray) -> None:
    header = json.dumps(spec, sort_keys=True).encode("utf-8")
    flat = flat.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<Q", flat.size))
        fh.write(flat.tobytes())


def _read_exact(fh, n: int, path, part: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"{path}: truncated {part} ({len(data)} of {n} bytes)")
    return data


def load_model(path, expected_spec: dict | None = None) -> tuple[dict, np.ndarray]:
    """Read (spec, flat float32 params); a malformed or mismatched file
    (truncated anywhere, a header that is not a UTF-8 JSON object, a wrong
    parameter count or spec) raises ``ValueError``."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a model file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "format version"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, path, "header length"))
        header = _read_exact(fh, hlen, path, "header")
        (n,) = struct.unpack("<Q", _read_exact(fh, 8, path, "parameter count"))
        payload = fh.read()
    try:
        spec = json.loads(header.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{path}: undecodable header ({exc})") from exc
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if len(payload) != 4 * n:
        raise ValueError(f"{path}: truncated parameter block ({len(payload)} bytes, expected {4 * n})")
    if expected_spec is not None and spec != expected_spec:
        raise ValueError(f"{path}: architecture spec mismatch")
    return spec, np.frombuffer(payload, dtype="<f4").copy()
