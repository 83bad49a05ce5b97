"""Seeded draws for the sampled engines, pinned in the package.

`Stream(entropy)` draws exactly what numpy's `default_rng(entropy)` draws
for the calls the appendix engines make, in pure Python:

- SeedSequence: the entropy's 32-bit words are hashed into a pool of four
  words, which is expanded into the 256 bits that seed the generator;
- PCG64: a 128-bit linear congruential generator with the XSL-RR output,
  whose 64-bit outputs are split into two 32-bit halves, low half first;
- `integers`: Lemire's bounded draws on those halves (Lemire, "Fast Random
  Integer Generation in an Interval", ACM TOMACS 29(1), 2019);
- `sample`: numpy's `choice(n, k, replace=False)`, which is Floyd's
  sample followed by a shuffle of it, or a partial shuffle of all n
  indices when n > 10000 and k > n // 50.

numpy does not pin the streams of its generator methods across versions,
so holding the algorithm here keeps a seed's report bytes the same on any
numpy.  `group_key` hashes a group descriptor with CPython's builtin
sha256 module, so a seeded run maps no OpenSSL.  Nothing imports this
module at load time: only the seeded engines read it.
"""

from __future__ import annotations

try:                        # CPython's own sha256: _sha2 from 3.12 on
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:     # a build without the builtin modules
        from hashlib import sha256

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence hashing constants and pool size
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# numpy's choice shuffles all n indices past this population size
_TAIL_SHUFFLE_ABOVE = 10000


def group_key(desc: str) -> int:
    """The first 8 bytes of the descriptor's sha256, as a big-endian int."""
    return int.from_bytes(sha256(desc.encode()).digest()[:8], "big")


def _words(n: int) -> list[int]:
    """A non-negative int as 32-bit words, least significant first."""
    if n < 0:
        raise ValueError("entropy must be non-negative")
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _seed_state(entropy) -> tuple[int, int]:
    """SeedSequence(entropy).generate_state(4, uint64), read as PCG64's
    128-bit initial state and stream."""
    words = [w for e in entropy for w in _words(int(e))]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        out = (_MIX_L * x - _MIX_R * y) & _MASK32
        return out ^ out >> 16

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    # four 64-bit words, each two 32-bit words low first: the first two
    # make the state, the last two the stream, high word first
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    return s0 << 64 | s1, s2 << 64 | s3


class Stream:
    """numpy's default_rng(entropy), for bounded ints and samples."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy):
        seed, seq = _seed_state(entropy)
        self._inc = (seq << 1 | 1) & _MASK128
        self._state = (((self._inc + seed) * _PCG_MULT + self._inc)
                       & _MASK128)
        self._half = None           # the high half of the last output

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        r = s >> 122
        x = (x >> r | x << (64 - r)) & _MASK64
        self._half = x >> 32
        return x & _MASK32

    def _bounded(self, top: int) -> int:
        """Lemire's draw from [0, top]; top = 0 draws nothing."""
        if top == 0:
            return 0
        if top >= _MASK32:
            raise ValueError("ranges of 2**32 - 1 or more are not supported")
        span = top + 1
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (_MASK32 - top) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def integers(self, low: int, high: int | None = None,
                 size: int | None = None):
        """numpy's integers(low, high, size) over [low, high), or [0, low)
        with one bound: one int, or a list of size ints (a shaped numpy
        draw is the same list in C order)."""
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError("high must exceed low")
        top = high - 1 - low
        if size is None:
            return low + self._bounded(top)
        return [low + self._bounded(top) for _ in range(size)]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices below n, as numpy's choice(n, k,
        replace=False) gives them, order included."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        if n > _TAIL_SHUFFLE_ABOVE and k > n // 50:
            # the last k places of a shuffle that stops there
            out = list(range(n))
            lo = n - k
        else:
            # Floyd: at each j, a drawn value already taken gives j itself
            out, taken = [], set()
            for j in range(n - k, n):
                v = self._bounded(j)
                if v in taken:
                    v = j
                taken.add(v)
                out.append(v)
            lo = 0
        for i in range(len(out) - 1, max(lo, 1) - 1, -1):
            j = self._bounded(i)
            out[i], out[j] = out[j], out[i]
        return out[lo:]
