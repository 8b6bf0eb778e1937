import hashlib

import numpy as np
import pytest

from svo_mapf import rng
from svo_mapf.rng import _GOLDEN, _MASK64, SplitMix64, derive_seed


def test_known_sequence():
    # Reference values for seed 0 (standard SplitMix64 test vector).
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_streams_reproducible():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_random_unit_interval():
    g = SplitMix64(7)
    xs = [g.random() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_randrange_bounds_and_coverage():
    g = SplitMix64(3)
    seen = {g.randrange(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        g.randrange(0)


def test_randint_inclusive():
    g = SplitMix64(3)
    vals = {g.randint(2, 4) for _ in range(100)}
    assert vals == {2, 3, 4}


def test_shuffle_and_sample_deterministic():
    a, b = SplitMix64(99), SplitMix64(99)
    xs, ys = list(range(20)), list(range(20))
    a.shuffle(xs)
    b.shuffle(ys)
    assert xs == ys and sorted(xs) == list(range(20))
    assert SplitMix64(5).sample(range(10), 4) == SplitMix64(5).sample(range(10), 4)
    with pytest.raises(ValueError):
        SplitMix64(5).sample(range(3), 4)


def test_derive_seed_is_pure_and_spread():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    seeds = {derive_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(42, 1) != derive_seed(43, 1)


def test_shuffle_draws_are_golden():
    # recorded while every swap drew through randrange
    g = SplitMix64(12345)
    xs = list(range(2048))
    g.shuffle(xs)
    assert (hashlib.sha256(np.array(xs, dtype=np.int64).tobytes()).hexdigest()
            == "e9ecca9aeb9d3e781b2afe1bed1653113ef039c5a0ff361974c4f75f722e4636")
    assert g.state == 2131981912004516900


def test_shuffle_matches_randrange_swaps():
    for seed in range(20):
        a, b = SplitMix64(seed), SplitMix64(seed)
        xs, ys = list(range(seed + 1)), list(range(seed + 1))
        a.shuffle(xs)
        for i in range(len(ys) - 1, 0, -1):
            j = b.randrange(i + 1)
            ys[i], ys[j] = ys[j], ys[i]
        assert xs == ys and a.state == b.state


@pytest.mark.parametrize("word", [None, 0, 1, 6, 7])
def test_normals_match_normal_draws(word):
    # word k of the stream is exactly 0 when the state starts k + 1 golden
    # steps before zero: a zero u1 (even k) is redrawn, a zero u2 (odd k) kept
    seed = 99 if word is None else (-(word + 1) * _GOLDEN) & _MASK64
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert a.normals(9).tolist() == [b.normal() for _ in range(9)]
    assert a.state == b.state
    assert a.normals(0).size == 0 and a.state == b.state


def test_normals_cross_block_boundaries_like_normal_draws(monkeypatch):
    # a zero u1 in the second of four blocks: that block is drawn through
    # normal() and the later blocks start from the state it leaves
    monkeypatch.setattr(rng, "_NORMALS_BLOCK", 3)
    seed = (-(2 * 4 + 1) * _GOLDEN) & _MASK64
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert a.normals(11).tolist() == [b.normal() for _ in range(11)]
    assert a.state == b.state


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, -1])
def test_derived_uniforms_match_per_id_draws(seed):
    # ids past 1024 (the normals block size); -1 and 2**64 - 1 are one seed
    want = [SplitMix64(derive_seed(seed, k)).random() for k in range(1030)]
    got = rng.derived_uniforms(seed, 1030)
    assert all(type(u) is float for u in got)
    assert [u.hex() for u in got] == [u.hex() for u in want]
    assert rng.derived_uniforms(seed, 0) == []
