"""Deterministic randomness helpers.

Record-level draws are keyed by (seed, global record index) so that the
same record always sees the same draw no matter how the dataset is cut
into splits, and no matter in which order splits execute.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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


def record_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized ``record_uniform`` for indices start..start+count-1.

    Bit-identical to the scalar version; the scalar one is used inside
    mappers, this one inside single-pass vectorized scans.
    """
    with np.errstate(over="ignore"):
        x = np.arange(start, start + count, dtype=np.uint64)
        x ^= np.uint64(splitmix64(seed & _MASK64))
        x += np.uint64(_GAMMA)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX2)
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)) * 2.0**-53


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (seed, *path) coordinate.

    Distinct paths give statistically independent streams; the same path
    always reproduces the same stream.
    """
    return np.random.default_rng((seed & _MASK64, *path))
