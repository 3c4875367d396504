"""Deterministic pseudo-random streams built on SplitMix64.

SplitMix64 (Steele, Lea & Flood's mixing of the Weyl sequence with constant
0x9E3779B97F4A7C15) is used in counter mode: the i-th draw from a stream is
mix64(seed + (i + 1) * GAMMA), so streams are stateless, vectorizable, and
independent draws can be generated in any order.  Derived seeds for
sub-streams (replicates, per-model seeds) fold a tag into the state with a
second mixing round so sibling streams do not overlap.  Replicate k's numpy
generator is `default_rng(derive_seed(seed, k))` in state, built for a range of
k at once without `SeedSequence` hashing, in array and integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["mix64", "stream", "derive_seed", "replicate_generators", "uniform_thresholds_index"]

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TAG = 0xD1B54A32D192ED03
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's 128-bit LCG multiplier
_STATE_BLOCK = 1 << 12  # replicate states computed together by `replicate_generators`


def mix64(x: int) -> int:
    """Finalizer of SplitMix64 on a 64-bit integer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def stream(seed: int, n: int, offset: int = 0) -> np.ndarray:
    """Draws offset..offset+n-1 of the stream for `seed`, as uint64."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    idx = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
    return _mix64_array(np.uint64(seed & _MASK) + idx * np.uint64(GAMMA))


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """Finalizer of SplitMix64 on a uint64 array, in place."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def derive_seed(seed: int, *tags: int) -> int:
    """Stable sub-stream seed: folds each tag in with an extra mixing round."""
    state = mix64(seed)
    for t in tags:
        state = mix64(state ^ mix64((t * _TAG) & _MASK))
    return state


def _derive_seeds(seed: int, ks: range) -> np.ndarray:
    """`derive_seed(seed, k)` for every k >= 0 in `ks`, as uint64."""
    t = _mix64_array(np.arange(ks.start, ks.stop, ks.step, dtype=np.uint64) * np.uint64(_TAG))
    return _mix64_array(t ^ np.uint64(mix64(seed)))


def _hasher(h: int, mult: int):
    """SeedSequence's hash of a uint32 word, its running constant starting at h."""
    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = (v ^ np.uint32(h)) * np.uint32(h := h * mult & 0xFFFFFFFF)
        return v ^ (v >> np.uint32(16))
    return hashmix


def _pcg64_states(seeds: np.ndarray) -> Iterator[dict]:
    """`np.random.PCG64(s).state` for each uint64 seed s."""
    # SeedSequence(s): s's two uint32 words and two zeros hashed into the pool, then mixed
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    lo, hi = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(w) for w in (lo, hi, np.zeros_like(lo), np.zeros_like(lo))]
    for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashmix(pool[src])
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    # generate_state(4, np.uint64): eight hashed uint32 words read as four little-endian uint64
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    words = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1).astype("<u4")
    # PCG64's seeding: initstate from words 0-1, increment 2 * words 2-3 + 1, two LCG steps
    for v0, v1, v2, v3 in words.view("<u8").tolist():
        inc = ((v2 << 64 | v3) * 2 + 1) % (1 << 128)
        state = {"state": ((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) % (1 << 128), "inc": inc}
        yield {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


def replicate_generators(seed: int, ks: range) -> Iterator[np.random.Generator]:
    """One Generator, reset in turn to the state of `default_rng(derive_seed(seed, k))`.

    The states are computed `_STATE_BLOCK` replicates at a time, so one call
    serves any range with bounded memory and a single set-up.
    """
    rng = np.random.Generator(np.random.PCG64())
    for first in range(0, len(ks), _STATE_BLOCK):
        for state in _pcg64_states(_derive_seeds(seed, ks[first:first + _STATE_BLOCK])):
            rng.bit_generator.state = state
            yield rng


def uniform_thresholds_index(thresholds: np.ndarray, seed: int, n: int) -> np.ndarray:
    """Inverse-CDF lookup: index of the cell each uniform draw lands in.

    `thresholds` holds ceil(cdf_k * 2**64) as uint64 for every cell except
    the last (whose threshold would be 2**64).  With u = z / 2**64 for a
    stream draw z, the returned index is the smallest k with u < cdf_k,
    which is an exact inverse-CDF over the dyadic uniform; draws beyond the
    final listed threshold fall into the last cell.
    """
    z = stream(seed, n)
    return np.searchsorted(thresholds, z, side="right")
