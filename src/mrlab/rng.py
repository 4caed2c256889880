"""Deterministic randomness helpers.

Every draw a map or reduce task makes is a counter-based hash of (key,
counter): a record's by (seed, global record index), a tree node's
feature draw by (node key, feature index). The same coordinate always
sees the same draw, however the dataset is cut into splits and in
whatever order the work runs.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# As numpy scalars, built once: the array kernel runs once per tree level.
_U64 = {c: np.uint64(c) for c in (_GAMMA, _MIX1, _MIX2, 30, 27, 31, 11)}


def splitmix64(x: int) -> int:
    """One splitmix64 finalizer round (Steele/Lea/Flood mixing constants)."""
    x = (x + _GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def record_uniform(seed: int, index: int) -> float:
    """Uniform on [0, 1) for one record, from (seed, index) alone."""
    h = splitmix64(splitmix64(seed & _MASK64) ^ (index & _MASK64))
    return (h >> 11) * 2.0**-53


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` of every element of a uint64 array, as a new array.

    Bit-identical to the scalar version: array arithmetic on uint64 wraps
    silently, as the mask does there.
    """
    x = x + _U64[_GAMMA]
    x ^= x >> _U64[30]
    x *= _U64[_MIX1]
    x ^= x >> _U64[27]
    x *= _U64[_MIX2]
    x ^= x >> _U64[31]
    return x


def record_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized ``record_uniform`` for indices start..start+count-1,
    bit-identical to the scalar version."""
    x = np.arange(start, start + count, dtype=np.uint64)
    x ^= np.uint64(splitmix64(seed & _MASK64))
    return (splitmix64_array(x) >> _U64[11]) * 2.0**-53
