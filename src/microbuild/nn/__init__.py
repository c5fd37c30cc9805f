"""Minimal dense/conv/recurrent network core with hand-derived gradients.

Everything is numpy and float32, and deliberately small: static
layer chains with cached activations, a ``Model`` base that owns the
parameter plumbing, the ``StateEncoder`` shared by the agent and the
embedding model, and an Adam optimizer on flat parameter vectors. No
general autodiff.

A model is built, then bound: the agent's and the embedding model's
constructors end by making two flat arrays, ``flat_params`` and
``flat_grads``, and binding every layer's parameters and gradients to
views into them. So an optimizer updates a model in place and a loss
reads its gradient from one array. A layer belongs to one model: the last
model bound to it holds its arrays.
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
    load_model,
    save_model,
)
from .optim import AdamState, adam_step
