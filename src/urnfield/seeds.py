"""Deterministic seed derivation.

One master 64-bit seed identifies an experiment; the stream for run ``i``
is seeded with ``derive_seed(master, i)``.  Derivation runs the pair
through a splitmix64-style avalanche so that neighbouring run indices get
statistically unrelated streams, and a run's stream depends only on
``(master, index)`` -- never on how many runs share the ensemble.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _avalanche(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def derive_seed(master: int, index: int) -> int:
    """Mix a master seed and a stream index into a fresh 64-bit seed."""
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    return _avalanche((master + (index + 1) * _GOLDEN) & _MASK)


def check_seed(seed: int) -> int:
    """A 64-bit seed, as given: anything outside [0, 2**64) is a ValueError."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def stream(seed: int) -> np.random.Generator:
    """The PCG64 stream of a 64-bit seed; every simulator draws from one."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def make_rng(master: int, index: int = 0) -> np.random.Generator:
    """PCG64 generator for stream ``index`` of experiment ``master``."""
    return stream(derive_seed(master, index))
