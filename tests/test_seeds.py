import numpy as np
import pytest

from sdckit.seeds import derive_rng, derive_seed


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


# -- every path part taken mod 2**64 ------------------------------------------


def _draws(rng):
    """Floats, bounded integers and two successive permutations."""
    return rng.random(4).tolist(), rng.integers(0, 1000, 5).tolist(), rng.permutation(7).tolist(), rng.permutation(7).tolist()


@pytest.mark.parametrize("path", [(), (7,), ("trial", 2**40, 3), ("trial", 2**64 - 1, 2**33, 4, 5)])
def test_derive_rng_takes_every_path_part_mod_two_to_the_64(path):
    # four or more entropy words past the seed: SeedSequence mixes in the words past its pool of four
    shifted = tuple(part if isinstance(part, str) else part - 2**64 for part in path)
    want = _draws(derive_rng(2**64 - 3, *path))
    assert _draws(derive_rng(2**64 - 3, *path)) == want
    assert _draws(derive_rng(-3, *shifted)) == want
