"""MicroBuild: a desk-scale build-order mini-game with narration-guided,
subtask-shaped, and unshaped actor-critic agents, plus the mutual
state/command embedding that grounds natural-language commands in game
states."""

import numpy as np

__version__ = "0.1.0"


def check_int(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` naming the setting ``name`` unless ``value`` is an
    integer (Python or numpy, not ``bool``) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def check_rate(name: str, value, zero_ok: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and positive (or zero, with ``zero_ok``)."""
    if not (np.isfinite(value) and (value > 0 or zero_ok and value == 0)):
        raise ValueError(f"{name} must be finite and {'non-negative' if zero_ok else 'positive'}, got {value!r}")
