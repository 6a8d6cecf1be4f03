"""Counter-based deterministic random numbers.

Every random quantity in this package is a pure function of
``(seed, stream label, counter)`` so that runs are bit-identical across
processes and platforms with IEEE-754 doubles.  The generator is the
splitmix64 finalizer applied at counter offsets:

    mix64(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
               z ^= z >> 27;  z *= 0x94D049BB133111EB
               z ^= z >> 31                     (all mod 2**64)

    base      = mix64(seed) XOR mix64(hash64(stream) * GOLDEN + 1)
    word(k)   = mix64(base + (k + 1) * GOLDEN)  for k = 0, 1, 2, ...

with GOLDEN = 0x9E3779B97F4A7C15.  ``hash64`` of an integer stream label
is the label itself mod 2**64; a string label is hashed with
blake2b(digest_size=8), little-endian.

Uniform doubles take the top 53 bits, offset by half a ulp so the open
interval (0, 1) is hit exactly:  u(k) = ((word(k) >> 11) + 0.5) * 2**-53.

Gaussians use the Box-Muller transform: n normals take m = ceil(n/2)
uniforms u1 = u(0..m-1) and m more u2 = u(m..2m-1); with r = sqrt(-2 ln
u1), the pairs (r cos(2 pi u2), r sin(2 pi u2)) interleave into the n
values.  The 53-bit uniforms truncate the tails at about 8.6 standard
deviations, which is immaterial at the sample sizes used here.

Many step seeds at once.  ``derive_seed(seed, t)`` for an integer label t
is mix64(seed + t * GOLDEN + 1), elementwise in t, and so is everything
after it.  ``step_normals(seed, first, count, n, stream)`` therefore draws
the normals of ``count`` consecutive step seeds in one vectorized call:
its row i equals ``CounterRng(derive_seed(seed, first + i),
stream).normals(n)`` bit for bit.  Both run the same words -> uniforms ->
Box-Muller helper over the last axis.
"""

from __future__ import annotations

try:
    # hashlib takes blake2b from here too; importing hashlib itself would
    # load OpenSSL's libcrypto (about 3.6 MB of resident memory) for nothing
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - a Python built without _blake2
    from hashlib import blake2b

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_TWO_NEG53 = 2.0 ** -53


def _mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays.  With
    ``scratch``, a uint64 array of z's shape, it mixes z in place through
    that one buffer; without, a copy of z through a new one (fresh
    temporaries cost more than the arithmetic)."""
    if scratch is None:
        z = np.array(z, dtype=np.uint64)
        scratch = np.empty_like(z)
    with np.errstate(over="ignore"):
        for shift, factor in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.bitwise_xor(z, np.right_shift(z, _U64(shift), out=scratch), out=z)
            if factor is not None:
                np.multiply(z, factor, out=z)
    return z


def _uniforms(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """((word >> 11) + 0.5) * 2**-53, shifting ``words`` in place, into
    ``out`` (float64, of words' shape) or a new array; the shifted words fit
    in 53 bits, so their int64 view converts exactly (and faster than
    uint64)."""
    words >>= _U64(11)
    u = np.add(words.view(np.int64), 0.5, out=out)
    u *= _TWO_NEG53
    return u


def _hash64(label) -> np.uint64:
    if isinstance(label, (int, np.integer)):
        return _U64(int(label) & 0xFFFFFFFFFFFFFFFF)
    if isinstance(label, str):
        digest = blake2b(label.encode("utf-8"), digest_size=8).digest()
        return _U64(int.from_bytes(digest, "little"))
    raise TypeError(f"stream label must be int or str, got {type(label).__name__}")


def _stream_word(stream) -> np.uint64:
    """mix64(hash64(stream) * GOLDEN + 1), the stream's half of ``base``."""
    with np.errstate(over="ignore"):
        return _mix64(np.array([_hash64(stream) * _GOLDEN + _U64(1)], dtype=np.uint64))[0]


def _normals_from_words(words: np.ndarray, n: int,
                        spare: np.ndarray | None = None) -> np.ndarray:
    """Box-Muller over the last axis of ``words`` (2m mixed counter words per
    row, m = ceil(n/2)): the first m give u1, the next m u2.  The uniforms go
    into ``spare`` (float64, of words' shape) or a new buffer, and the
    normals over the spent words."""
    m = words.shape[-1] // 2
    u = _uniforms(words, np.empty(words.shape) if spare is None else spare)
    r = u[..., :m]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    angle = u[..., m:]
    angle *= 2.0 * np.pi
    out = words.view(np.float64)
    np.multiply(r, np.cos(angle), out=out[..., 0::2])
    np.multiply(r, np.sin(angle, out=angle), out=out[..., 1::2])
    return out[..., :n]


def derive_seed(seed: int, *labels) -> int:
    """Derive a child seed from a parent seed and labels (e.g. a step index).

    Used for per-step Monte-Carlo seeds: every algorithm run under the same
    experiment seed receives the same seed at step t (common random numbers).
    """
    z = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    for label in labels:
        with np.errstate(over="ignore"):
            z = _mix64(np.array([z + _hash64(label) * _GOLDEN + _U64(1)], dtype=np.uint64))[0]
    return int(z)


def step_normals(seed: int, first: int, count: int, n: int, stream=0) -> np.ndarray:
    """(count, n) normals whose row i is ``CounterRng(derive_seed(seed,
    first + i), stream).normals(n)``, bit for bit, for integer steps
    ``first + i >= 0``."""
    if n < 0 or count < 0 or first < 0:
        raise ValueError("n, count and first must be nonnegative")
    steps = np.arange(first, first + count, dtype=np.uint64)
    k = np.arange(1, 2 * ((n + 1) // 2) + 1, dtype=np.uint64)
    # uint64 arrays wrap mod 2**64 without a warning
    seeds = _mix64(_U64(int(seed) & 0xFFFFFFFFFFFFFFFF) + steps * _GOLDEN + _U64(1))
    words = (_mix64(seeds) ^ _stream_word(stream))[:, None] + k * _GOLDEN
    # one scratch buffer: for the mixing, then for the uniforms
    scratch = np.empty_like(words)
    return _normals_from_words(_mix64(words, scratch), n, scratch.view(np.float64))


class CounterRng:
    """Stateful cursor over the counter stream defined in the module docstring.

    The state is only the integer counter; two instances with the same
    (seed, stream) produce the same values in the same order.
    """

    def __init__(self, seed: int, stream=0):
        seed_word = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self._base = np.uint64(_mix64(seed_word)[0] ^ _stream_word(stream))
        self._counter = 0

    def _words(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be nonnegative")
        k = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self._base + k * _GOLDEN)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in the open interval (0, 1)."""
        return _uniforms(self._words(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return _normals_from_words(self._words(2 * ((n + 1) // 2)), n)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers uniform on {0, ..., bound-1} (53-bit slicing; the
        O(2**-53) modulo bias is irrelevant at our scales)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        vals = np.floor(self.uniforms(n) * bound).astype(np.int64)
        return np.minimum(vals, bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), one uniform per swap."""
        idx = np.arange(n)
        if n <= 1:
            return idx
        # swaps through memoryviews, which read and write Python numbers: a
        # numpy item access per swap takes about three times as long, and
        # Python lists of the n values would raise the peak memory
        view = memoryview(idx)
        for u, i in zip(memoryview(self.uniforms(n - 1)), range(n - 1, 0, -1)):
            j = min(int(u * (i + 1)), i)
            view[i], view[j] = view[j], view[i]
        return idx
