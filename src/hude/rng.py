"""Seeded randomness: Philox streams keyed by stable 64-bit hashes.

Every random choice in the package flows through a counter-based Philox
generator.  Independent sub-streams (per dataset, per query, per probe) are
derived by hashing ``(seed, *tags)`` with FNV-1a and a splitmix64 finalizer,
so results are reproducible across runs and platforms and do not depend on
any parallel execution schedule.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance by the golden-ratio gamma and finalize."""
    x = (x + SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def stream_key(seed: int, *tags: int | str) -> int:
    """Collapse (seed, tags...) into a 64-bit key for one sub-stream.

    The seed must lie in [0, 2**64): a wider one would alias a seed in range.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64) (got {seed!r})")
    state = splitmix64(seed)
    for tag in tags:
        if isinstance(tag, str):
            tag = _fnv1a64(tag)
        state = splitmix64(state ^ (int(tag) & _MASK64))
    return state


def substream(seed: int, *tags: int | str) -> np.random.Generator:
    """Independent Philox generator for one (seed, purpose) pair."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *tags)))


# Vectorized splitmix64 finalizer, used where one key per array row is needed
# (probe sampling) without constructing one Generator per row.

_MIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C2 = np.uint64(0x94D049BB133111EB)
_GAMMA_U64 = np.uint64(SPLITMIX_GAMMA)


def mix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied elementwise to a uint64 array."""
    z = values.astype(np.uint64, copy=True)
    z += _GAMMA_U64
    z ^= z >> np.uint64(30)
    z *= _MIX_C1
    z ^= z >> np.uint64(27)
    z *= _MIX_C2
    z ^= z >> np.uint64(31)
    return z


def keyed_uniform(keys: np.ndarray, step: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1): one per key, at the given step index.

    Uses the top 53 bits of the mixed counter, so values are exact dyadic
    rationals and identical on every IEEE-754 platform.
    """
    offset = np.uint64((SPLITMIX_GAMMA * step) & _MASK64)
    mixed = mix64(keys + offset)
    return (mixed >> np.uint64(11)).astype(np.float64) * (2.0**-53)
