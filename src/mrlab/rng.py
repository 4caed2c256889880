"""Deterministic randomness: every draw a map or reduce task makes is a
counter-based hash of (key, counter) (Salmon et al., SC 2011), a record's
by (seed, record index), a tree's stream key by (seed, tree), a node's
features by (node key, feature index). The same coordinate sees the same
draw however the data is split. ``counter_hash`` is the one place the rule
is written; ``record_draws`` keeps the top 53 bits of a block of counters'
hashes, and ``record_uniforms`` scales them by 2**-53.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# As numpy scalars, built once: the array kernel runs once per tree level.
_GAMMA, _MIX1, _MIX2 = (np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_SHIFTS = tuple(np.uint64(s) for s in (30, 27, 31, 11))


def _u64(values) -> np.ndarray:
    """Integers mod 2**64 as a uint64 array of at least one dimension: numpy
    refuses a Python int outside [0, 2**64), and its scalar arithmetic warns
    on the overflow that array arithmetic wraps silently."""
    if isinstance(values, int):
        return np.array([values & _MASK64], dtype=np.uint64)
    return np.atleast_1d(np.asarray(values).astype(np.uint64, copy=False))


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """One splitmix64 finalizer round (Steele/Lea/Flood mixing constants)
    of each element of a uint64 array, as a new array, wrapping mod 2**64."""
    x = x + _GAMMA
    x ^= x >> _SHIFTS[0]
    x *= _MIX1
    x ^= x >> _SHIFTS[1]
    x *= _MIX2
    x ^= x >> _SHIFTS[2]
    return x


def counter_hash(keys, counters) -> np.ndarray:
    """splitmix64(splitmix64(key) ^ counter) of ints or integer arrays,
    taken mod 2**64 and broadcast against each other."""
    return splitmix64_array(splitmix64_array(_u64(keys)) ^ _u64(counters))


def record_draws(keys, start: int, count: int) -> np.ndarray:
    """The 53-bit integer draws (top bits of ``counter_hash``) of counters
    start..start+count-1: shape (count,) for an int key, else the keys'
    shape plus (count,)."""
    if not isinstance(keys, int):
        keys = np.asarray(keys)[..., None]
    return counter_hash(keys, np.arange(start, start + count, dtype=np.uint64)) >> _SHIFTS[3]


def record_uniforms(keys, start: int, count: int) -> np.ndarray:
    """``record_draws`` as uniforms on [0, 1), each draw times 2**-53 exactly."""
    return record_draws(keys, start, count) * 2.0**-53
