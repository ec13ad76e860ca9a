"""Counter-based pseudo-random numbers, the stream table, and the stream reader.

The generator is splitmix64 in counter form: draw ``k`` of a stream seeded
with ``s`` is ``mix64(s + (k + 1) * GAMMA)``.  Each draw is addressed by its
index, so any block of a stream can be drawn on its own and equals the same
slice of a longer draw.

A dropout keep-mask is drawn without forming the uniforms: draw u is
(z >> 11) * 2**-53 of the mixed state z, so u >= rate exactly when
z >= ceil(rate * 2**53) << 11, one integer comparison (`Stream.keep_mask`).

Every use of a user seed has its own stream, ``derive_seed(seed, id)``, with
an id from `StreamId`, the one table of them: changing an id changes every
output drawn from it.  `Stream` reads one stream in order, so no caller keeps
a draw counter; `trainer` states how a fit consumes its stream.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / 9007199254740992.0  # 2**-53


class StreamId(IntEnum):
    FIT = 1  # trainer: per-epoch permutation keys, then dropout masks
    NET_INIT = 2  # representation-net weights, layer by layer
    BETA_INIT = 3  # starting linear coefficients
    SPLIT = 7  # row-shuffle keys of `dataio.split`
    BINARY = 10  # binary-scenario variables, then the choice draws
    UNOBSERVED = 11  # the unobserved utility term
    GUEVARA = 12  # the endogenous-price scenario
    ATTRIBUTE_TABLE = 13  # the sampled stand-in attribute table
    SEMI_SYNTH_NOISE = 14  # Gumbel noise of the semi-synthetic choices
    REPLICATION = 100  # + r: the seed of replication r; a one-off study uses r = 0


def mix64(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer on uint64 values; a uint64 array is mixed in place,
    through one scratch array (``t`` when given), any other input in a copy."""
    z = np.asarray(z, dtype=np.uint64)
    t = np.empty_like(z) if t is None else t
    with np.errstate(over="ignore"):
        for shift, mul in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, np.uint64(shift), out=t)
            z *= mul
        z ^= np.right_shift(z, np.uint64(31), out=t)
    return z[()]


def derive_seed(seed: int, stream: int) -> int:
    """Decorrelated child seed for a named stream of a user seed."""
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        salted = base + GAMMA * np.uint64(0x10000 + stream)
    return int(mix64(salted))


def _states(seed: int, start: int, n: int, t: np.ndarray | None = None) -> np.ndarray:
    """The mixed states of draws ``start .. start+n-1`` of the stream (`mix64`'s ``t``)."""
    states = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        states *= GAMMA
        states += np.uint64(seed)
    return mix64(states, t)


def uniforms(seed: int, start: int, n: int) -> np.ndarray:
    """Draws ``start .. start+n-1`` of the stream, as float64 in [0, 1)."""
    u = (_states(seed, start, n) >> np.uint64(11)).astype(np.float64)
    u *= _U53
    return u


class Stream:
    """Sequential reader of stream ``stream`` of a user seed: each call takes the next draws."""

    def __init__(self, seed: int, stream: int):
        self.seed, self.count = derive_seed(seed, stream), 0

    def draw(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms in [0, 1)."""
        self.count += n
        return uniforms(self.seed, self.count - n, n)

    def keep_mask(self, n: int, rate: float, out: np.ndarray | None = None) -> np.ndarray:
        """``(draw(n) >= rate) / (1 - rate)`` for ``rate`` in [0, 1), bit for bit, into
        ``out`` (n contiguous float64, the mixing scratch too) when given."""
        self.count += n
        z_min = np.uint64(math.ceil(rate * 2.0**53) << 11)  # u >= rate iff z >= z_min
        out = np.empty(n) if out is None else out
        keep = _states(self.seed, self.count - n, n, out.view(np.uint64)) >= z_min
        out[...] = keep
        out *= 1.0 / (1.0 - rate)  # 1.0 * (1 / (1 - rate)) is the kept unit the division gives
        return out

    def uniform(self, n: int, low: float, high: float) -> np.ndarray:
        return low + (high - low) * self.draw(n)

    def gumbel(self, n: int) -> np.ndarray:
        u = np.clip(self.draw(n), 1e-300, 1.0 - 1e-16)
        return -np.log(-np.log(u))

    def glorot(self, d_in: int, d_out: int) -> np.ndarray:
        """Glorot-uniform (d_in, d_out) weights from the next d_in * d_out draws."""
        limit = np.sqrt(6.0 / (d_in + d_out))
        return ((2.0 * self.draw(d_in * d_out) - 1.0) * limit).reshape(d_in, d_out)
