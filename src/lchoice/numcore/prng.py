"""Counter-based pseudo-random numbers, and the weight draws built on them.

The generator is splitmix64 in counter form: draw ``k`` of a stream seeded
with ``s`` is ``mix64(s + (k + 1) * GAMMA)``.  Each draw is addressed by its
index, so any block of a stream can be drawn on its own and equals the same
slice of a longer draw; `trainer` states how a fit consumes its stream.
"""

from __future__ import annotations

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / 9007199254740992.0  # 2**-53


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 values (arrays or scalars)."""
    with np.errstate(over="ignore"):
        z = np.uint64(z) if np.isscalar(z) else z.astype(np.uint64)  # a copy, mixed in place
        for shift, mul in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= mul
        z ^= z >> np.uint64(31)
        return z


def derive_seed(seed: int, stream: int) -> int:
    """Decorrelated child seed for a named stream of a user seed."""
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        salted = base + GAMMA * np.uint64(0x10000 + stream)
    return int(mix64(salted))


def uniforms(seed: int, start: int, n: int) -> np.ndarray:
    """Draws ``start .. start+n-1`` of the stream, as float64 in [0, 1)."""
    states = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        states *= GAMMA
        states += np.uint64(seed)
    u = (mix64(states) >> np.uint64(11)).astype(np.float64)
    u *= _U53
    return u


def glorot_uniform(d_in: int, d_out: int, seed: int, start: int = 0) -> np.ndarray:
    """Glorot-uniform weight draw on the package PRNG stream ``seed``."""
    limit = np.sqrt(6.0 / (d_in + d_out))
    u = uniforms(seed, start, d_in * d_out)
    return ((2.0 * u - 1.0) * limit).reshape(d_in, d_out)
