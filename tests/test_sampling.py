"""The seeded sampler: numpy's draws for the calls the engines make, a
stream pinned by literal values, and a key that needs no OpenSSL."""

import hashlib
import random

import numpy as np
import pytest

from bfk.claims import catalog_groups
from bfk.sampling import Stream, group_key

# entropy as the engines build it: seed, group key, engine salt
_ENTROPIES = [[0, 0, 0], [3, 0x0123456789ABCDEF, 2], [15, 2**64 - 1, 7],
              [2**40 + 5, 1, 1], [7, 2**63, 3, 2**70 + 9]]


def _calls(r):
    """One mixed sequence of every call the engines make, and the edge
    cases of each, on either generator."""
    draw = getattr(r, "sample", None)

    def sample(n, k):
        got = draw(n, k) if draw else r.choice(n, size=k, replace=False)
        return [int(i) for i in got]

    out = [int(r.integers(n)) for n in (1, 2, 3, 7, 1000, 1, 2**31, 2**32 - 1)]
    out += [int(c) for c in r.integers(-4, 5, 6)]
    for rank in (0, 1, 3):
        mix = r.integers(-3, 4, rank * 40) if draw else \
            r.integers(-3, 4, size=(rank, 40)).ravel()
        out += [int(c) for c in mix] + [int(r.integers(5))]
    for n, k in ((1, 0), (5, 0), (1, 1), (5, 5), (40, 4), (10000, 201),
                 (10001, 200), (10001, 201), (12000, 12000), (20000, 3)):
        out += sample(n, k) + [int(r.integers(9))]
    return out


@pytest.mark.parametrize("entropy", _ENTROPIES)
def test_stream_matches_numpy_default_rng(entropy):
    assert _calls(Stream(entropy)) == _calls(np.random.default_rng(entropy))


def test_stream_matches_numpy_on_random_interleavings():
    R = random.Random(11)
    for _ in range(200):
        entropy = [R.randrange(16), R.randrange(2**64), R.randrange(1, 8)]
        ours, theirs = Stream(entropy), np.random.default_rng(entropy)
        for _ in range(12):
            n = R.choice([1, 2, R.randrange(1, 300), R.randrange(1, 2**31)])
            if R.random() < 0.5:
                assert ours.integers(n) == int(theirs.integers(n))
            else:
                k = R.randrange(min(n, 300) + 1)
                assert ours.sample(n, k) == \
                    theirs.choice(n, size=k, replace=False).tolist()


def test_stream_is_pinned_by_literal_draws():
    # the first draws of one entropy, fixed here whatever numpy is installed
    r = Stream([3, 0x0123456789ABCDEF, 2])
    got = [r.integers(1000) for _ in range(6)]
    got += r.integers(-4, 5, 6) + r.sample(100, 5) + r.sample(12000, 300)[:6]
    assert got == [915, 646, 890, 564, 424, 379, 0, -4, -4, -2, -3, -3,
                   3, 7, 58, 14, 86, 8922, 1844, 9435, 2658, 11721, 6032]


def test_range_of_one_draws_nothing():
    r = Stream([1, 2, 3])
    assert [r.integers(1), r.integers(5, 6), r.sample(4, 0)] == [0, 5, []]
    assert r.integers(2**20) == Stream([1, 2, 3]).integers(2**20)


@pytest.mark.parametrize("call", [
    lambda r: r.integers(2**32),
    lambda r: r.integers(-1, 2**32 - 1),
    lambda r: r.integers(0, 2**40, 3),
    lambda r: r.integers(0),
    lambda r: r.sample(3, 4),
    lambda r: r.sample(3, -1),
])
def test_unsupported_draws_raise(call):
    with pytest.raises(ValueError):
        call(Stream([0]))


@pytest.mark.parametrize("p,max_order", [(3, 81), (5, 125)])
def test_group_key_is_the_sha256_prefix(p, max_order):
    for _, desc in catalog_groups(p, max_order):
        want = int.from_bytes(hashlib.sha256(desc.encode()).digest()[:8], "big")
        assert group_key(desc) == want, desc

