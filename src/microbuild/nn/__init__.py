"""Minimal dense/conv/recurrent network core with hand-derived gradients.

Everything is numpy, float32 by default, and deliberately small: static
layer chains with cached activations, a ``Model`` base that owns the
parameter plumbing, the ``StateEncoder`` shared by the agent and the
embedding model, an Adam optimizer on flat parameter vectors, and a
finite-difference gradient checker. No general autodiff.
"""

from .layers import (
    Conv2d,
    Dense,
    Flatten,
    LSTM,
    Layer,
    ReLU,
    Tanh,
    glorot_uniform,
)
from .network import (
    Model,
    Sequential,
    StateEncoder,
    flatten_arrays,
    load_model,
    param_count,
    save_model,
    unflatten_into,
)
from .optim import AdamState, adam_step
from .gradcheck import grad_check, grad_check_fn

__all__ = [
    "AdamState",
    "Conv2d",
    "Dense",
    "Flatten",
    "LSTM",
    "Layer",
    "Model",
    "ReLU",
    "Sequential",
    "StateEncoder",
    "Tanh",
    "adam_step",
    "flatten_arrays",
    "glorot_uniform",
    "grad_check",
    "grad_check_fn",
    "load_model",
    "param_count",
    "save_model",
    "unflatten_into",
]
