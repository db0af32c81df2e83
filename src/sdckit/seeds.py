"""Deterministic stream derivation from one 64-bit master seed.

A master seed plus a path of small integers (trial index, a stage tag) is
expanded through numpy's SeedSequence counter construction. Streams derived
from distinct paths are independent, and the derivation does not depend on
call order, which is what makes runs byte-reproducible. A permutation release
takes one stream per call and shuffles every class from it at once.
"""

from __future__ import annotations

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


def derive_rng(seed: int, *path: int | str) -> np.random.Generator:
    # SeedSequence takes nonnegative integers: the seed and numeric parts are taken mod 2**64
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy += [_TAGS[part] if isinstance(part, str) else int(part) & 0xFFFFFFFFFFFFFFFF for part in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *path: int | str) -> int:
    """A fresh 63-bit integer seed derived from the master seed and path."""
    return int(derive_rng(seed, *path).integers(0, 2**63 - 1))
