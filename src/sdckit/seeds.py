"""Deterministic stream derivation from one 64-bit master seed.

A master seed plus a path of small integers (group index, trial index, a
stage tag) is expanded through numpy's SeedSequence counter construction.
Streams derived from distinct paths are independent, and the derivation does
not depend on call order, which is what makes runs byte-reproducible.
``derive_rngs`` yields the streams of sibling paths from one batch: it mirrors
numpy's SeedSequence hashing, on all pools at once, and PCG64's seeding; the
oracle test in ``tests/test_seeds.py`` pins every draw to ``derive_rng``.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

import numpy as np

# stage tags keep streams for different purposes disjoint even when the
# numeric path components collide
_TAGS = {
    "mechanism": 0x6D656368,
    "permute": 0x7065726D,
    "anatomy": 0x616E6174,
    "attack": 0x61747463,
    "trial": 0x7472696C,
    "noise": 0x6E6F6973,
    "data": 0x64617461,
}
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
# _ROUNDS[src, dst]: the constant, 4 + 3 * src + 0..2 over dst != src ascending, that mixes word src into dst
_ROUNDS = np.array([[4 + 3 * src + dst - (dst > src) if dst != src else 0 for dst in range(4)] for src in range(4)])


def _entropy(seed: int, path) -> list[int]:
    ints = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in path:
        ints.append(_TAGS[part] if isinstance(part, str) else int(part) & 0xFFFFFFFFFFFFFFFF)
    return ints


def derive_rng(seed: int, *path: int | str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, path)))


def derive_rngs(seed: int, *path: int | str, count: int) -> Iterator[np.random.Generator]:
    """``derive_rng(seed, *path, i)`` for i < count, in order: one Generator, reseeded for each."""
    if not 0 <= count < 2**32:
        raise ValueError(f"count must be in [0, 2**32), got {count}")
    # SeedSequence splits each entropy integer (below 2**64) into one or two little-endian uint32 words
    words = [v >> 32 * j & 0xFFFFFFFF for v in _entropy(seed, path) for j in range(1 + (v >> 32 > 0))]
    entropy = np.zeros((max(len(words) + 1, 4), count), dtype=np.uint32)  # word j of stream i, zero-padded
    entropy[: len(words)] = np.asarray(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(count)
    c = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy))
    rounds = c[:, _ROUNDS]
    pool = _hashmix(entropy[:4], c[:, :4])
    for src in range(4):  # every word takes pool[src]'s hash; then pool[src] is put back
        row = pool[src]
        pool = _mix(pool, _hashmix(row, rounds[:, src]))
        pool[src] = row
    for j in range(4, len(entropy)):
        pool = _mix(pool, _hashmix(entropy[j], c[:, 4 * j : 4 * j + 4]))
    generated = _hashmix(pool[[0, 1, 2, 3] * 2], _hash_constants(_INIT_B, _MULT_B, 8))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    # stream i's words as little-endian pairs: its state (hi, lo) and sequence (hi, lo)
    for hi, lo, seq_hi, seq_lo in generated.T.astype("<u4", order="C").view("<u8").tolist():
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((hi << 64 | lo) + inc) * _PCG_MULT + inc & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


@cache
def _hash_constants(const: int, mult: int, n: int) -> np.ndarray:
    """The (xor, multiplier) pairs, 2 x n x 1, of n successive SeedSequence hashes; memoized, so read-only."""
    steps = np.uint32(const) * np.cumprod(np.full(n, mult, dtype=np.uint32), dtype=np.uint32)
    constants = np.stack([np.concatenate([[np.uint32(const)], steps[:-1]]), steps])[..., None]
    constants.flags.writeable = False
    return constants


def _hashmix(values: np.ndarray, c: np.ndarray) -> np.ndarray:
    v = (values ^ c[0]) * c[1]
    return v ^ v >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> _SHIFT


def derive_seed(seed: int, *path: int | str) -> int:
    """A fresh 63-bit integer seed derived from the master seed and path."""
    return int(derive_rng(seed, *path).integers(0, 2**63 - 1))
