import numpy as np
import pytest

from sdckit.seeds import derive_rng, derive_rngs, derive_seed


def test_same_path_same_stream():
    a = derive_rng(42, "attack", 3).random(8)
    b = derive_rng(42, "attack", 3).random(8)
    assert np.array_equal(a, b)


def test_different_paths_different_streams():
    a = derive_rng(42, "attack", 3).random(8)
    b = derive_rng(42, "attack", 4).random(8)
    c = derive_rng(42, "trial", 3).random(8)
    d = derive_rng(43, "attack", 3).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_seed_is_deterministic_and_bounded():
    s1 = derive_seed(7, "trial", 0, 1)
    s2 = derive_seed(7, "trial", 0, 1)
    assert s1 == s2
    assert 0 <= s1 < 2**63
    assert derive_seed(7, "trial", 0, 2) != s1


def test_negative_and_huge_seeds_accepted():
    assert derive_seed(-5, "noise") == derive_seed(-5, "noise")
    derive_rng(2**70 + 1, "data").random()


# -- the batched form against derive_rng ------------------------------------------

ORACLE_SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, -1, -(2**63), 2**70 + 1]


def _draws(rng, i):
    """Floats, bounded integers and two successive permutations: the second
    starts from the 32-bit half the first may leave buffered, as the
    per-attribute mode of cluster_and_permute does."""
    n = 2 + i % 9
    return rng.random(4).tolist(), rng.integers(0, 1000, 5).tolist(), rng.permutation(n).tolist(), rng.permutation(n).tolist()


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("tag", ["permute", "anatomy"])
def test_derive_rngs_gives_the_derive_rng_streams(seed, tag):
    batched = [_draws(rng, i) for i, rng in enumerate(derive_rngs(seed, tag, count=301))]
    assert batched == [_draws(derive_rng(seed, tag, i), i) for i in range(301)]


@pytest.mark.parametrize("path", [(), (7,), ("trial", 2**40, 3), ("trial", 2**64 - 1, 2**33, 4, 5)])
def test_derive_rngs_gives_the_derive_rng_streams_of_any_path(path):
    # four or more entropy words before the index: the pool mixes in the words past its own four
    batched = [_draws(rng, i) for i, rng in enumerate(derive_rngs(2**64 - 3, *path, count=40))]
    assert batched == [_draws(derive_rng(2**64 - 3, *path, i), i) for i in range(40)]


def test_derive_rngs_takes_a_count_below_two_to_the_32():
    assert list(derive_rngs(3, "permute", count=0)) == []
    for count in (2**32, 2**40, -1):
        with pytest.raises(ValueError, match="count"):
            next(derive_rngs(3, "permute", count=count))
