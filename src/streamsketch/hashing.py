"""Pairwise-independent hashing shared by every sketch in the package.

Each hash row is ((a * x + b) mod P) mod n_buckets with P the Mersenne
prime 2^61 - 1, a random odd multiplier and a random offset. A seeded
``HashFamily`` draws its rows with ``_Pcg64``, the package's own copy of
numpy's ``default_rng(seed).integers`` on 64-bit ranges: the rows equal
numpy's for the same seed, and they are fixed for all time, whatever later
numpy releases do to their streams, so results are reproducible across
runs, platforms and versions. MStream's hyperplane record hash keeps that
promise too: it sums each projection in a fixed order, not BLAS's.
Keys are canonicalised to integers in [0, 2^64) first, by the caller: one
key with ``canonical_key``, a column of them with ``canonical_keys``.
Strings go through blake2b so bucket choices never depend on Python's
per-process hash randomisation; ``hashlib``, and with it OpenSSL, loads
with the first string or bytes key, so a run on integer ids never loads it.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

MERSENNE_P = (1 << 61) - 1
DEFAULT_SEED = 42

_MIX_SEED = 0x2545F4914F6CDD1D
_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio constant for tuple mixing
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence: hashmix's multiplier starts at INIT_A and steps by
# MULT_A per hashed word, generate_state's at INIT_B by MULT_B, and mix
# combines two words with MIX_L and MIX_R; PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)
_P64 = np.uint64(MERSENNE_P)
_U3, _U29, _U32, _U61 = (np.uint64(n) for n in (3, 29, 32, 61))
# Keys per pass of bucket_indexes.
HASH_BLOCK = 1024


def _mod_mersenne(y: np.ndarray) -> np.ndarray:
    """y mod (2^61 - 1) for uint64 arrays, by folding the high bits."""
    y = (y & _P64) + (y >> _U61)
    return np.minimum(y, y - _P64)  # y - P wraps above y when y < P


def mix_keys(parts):
    """The canonical key of a tuple whose parts have the canonical keys ``parts``.

    Each part is an int, or every part a uint64 array of one shape; the
    arithmetic wraps mod 2^64 either way, so an array mixes elementwise to
    exactly what the ints would.
    """
    acc = _MIX_SEED
    for part in parts:
        acc = ((acc ^ part) * _MIX) & _MASK64
    return acc


def _blake2b(data: bytes, digest_size: int):
    """``hashlib.blake2b``, imported by the first call, which rebinds this
    name to it: later string keys call it directly."""
    global _blake2b
    from hashlib import blake2b as _blake2b

    return _blake2b(data, digest_size=digest_size)


def canonical_key(key) -> int:
    """Map an arbitrary identifier to a stable nonnegative integer.

    Integers map to themselves (mod 2^64), strings and bytes through an
    8-byte blake2b digest, and tuples by mixing their parts; a subclass of
    str, bytes or tuple (numpy's ``str_`` and ``bytes_``, a namedtuple) maps
    as the plain value it equals. The mapping is fixed for all time:
    sketches hashed on one run agree with any other run.
    """
    kind = type(key)
    if kind is int:
        return key & _MASK64
    if kind is str:
        digest = _blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    if kind is bytes:
        digest = _blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little")
    if kind is tuple:
        return mix_keys([canonical_key(part) for part in key])
    if isinstance(key, (bool, np.integer)):
        return int(key) & _MASK64
    for plain in (str, bytes, tuple):
        if isinstance(key, plain):
            return canonical_key(plain(key))
    raise TypeError(f"unhashable stream key type: {type(key).__name__}")


class _Pcg64:
    """``np.random.default_rng(seed)`` for ``integers(low, high)`` over more
    than 2^32 values, in integer arithmetic: numpy's ``SeedSequence`` hashes
    the seed's 32-bit words into a pool of four and expands it into the
    128-bit state and increment of PCG64, an LCG whose output xors the
    state's halves and rotates them by its top six bits (XSL-RR);
    ``integers`` is numpy's 64-bit Lemire draw. (numpy draws over at most
    2^32 values from 32-bit halves, which this class does not reproduce.)
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length() or 1, 32)]
        words += [0] * (4 - len(words))
        mult = _INIT_A

        def hashmix(value):
            nonlocal mult
            value ^= mult
            mult = mult * _MULT_A & _MASK32
            value = value * mult & _MASK32
            return value ^ value >> 16

        def mix(x, y):
            value = (_MIX_L * x - _MIX_R * hashmix(y)) & _MASK32
            return value ^ value >> 16

        # The first four words fill the pool, each pool word is mixed into
        # every other, then each later word into every pool word.
        pool = [hashmix(word) for word in words[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], pool[src])
        for word in words[4:]:
            pool = [mix(value, word) for value in pool]
        # generate_state(4, uint64): the pool hashed twice over, read as
        # little-endian 64-bit words w0..w3; the state is seeded from w0:w1,
        # the increment from w2:w3.
        mult, out = _INIT_B, []
        for value in pool + pool:
            value ^= mult
            mult = mult * _MULT_B & _MASK32
            value = value * mult & _MASK32
            out.append(value ^ value >> 16)
        w0, w1, w2, w3 = (low | high << 32 for low, high in zip(out[::2], out[1::2]))
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        folded, rotation = (state >> 64 ^ state) & _MASK64, state >> 122
        return (folded >> rotation | folded << (64 - rotation)) & _MASK64

    def integers(self, low: int, high: int) -> int:
        """An integer in ``[low, high)``; ``high - low`` is more than 2^32 and at most 2^64."""
        span = high - low
        product = self._next64() * span
        if product & _MASK64 < span:
            threshold = (1 << 64) % span
            while product & _MASK64 < threshold:
                product = self._next64() * span
        return low + (product >> 64)


def draw_rows(rng, n_rows: int) -> tuple[tuple[int, int], ...]:
    """``n_rows`` hash rows ``(a, b)`` from ``rng``: a random odd multiplier and offset mod P.

    ``rng`` is a numpy ``Generator`` or a ``_Pcg64``; for one seed both give
    the same rows. MStream passes its numpy generator, whose stream its
    hyperplanes then continue.
    """
    return tuple(
        ((int(rng.integers(1, MERSENNE_P)) | 1) % MERSENNE_P, int(rng.integers(0, MERSENNE_P)))
        for _ in range(n_rows)
    )


@lru_cache(maxsize=32)
def _seeded_rows(seed: int, n_rows: int) -> tuple[tuple[int, int], ...]:
    """``draw_rows`` from the seed; anograph builds a family of one seed per window."""
    return draw_rows(_Pcg64(seed), n_rows)


def check_shape(n_rows: int, n_buckets: int) -> None:
    """Reject a table shape with no row or no bucket."""
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")


def canonical_keys(values) -> np.ndarray:
    """``canonical_key`` of each value as a uint64 array. A column of str and
    bytes values, where equal values have equal keys, takes one call per
    distinct value; any other column one call per value."""
    convert = canonical_key
    if set(map(type, values)) <= {str, bytes}:
        convert = {value: canonical_key(value) for value in dict.fromkeys(values)}.__getitem__
    return np.fromiter(map(convert, values), np.uint64, len(values))


def bucket_indexes(rows: np.ndarray, keys, n_buckets: int) -> np.ndarray:
    """Bucket indexes ``[row, key]`` of integer keys under hash rows, in array passes.

    ``rows[r]`` is row r's ``(a, b)`` as uint64 and each of the 1-d ``keys``
    is read mod 2^64; each index is what ``HashFamily.indexes`` gives for
    that row. The 122-bit products are evaluated in 32-bit limbs so
    everything stays inside uint64 arithmetic, on ``HASH_BLOCK`` keys at a
    time: the temporaries hold a few blocks however many keys there are.
    """
    keys = np.asarray(keys).astype(np.uint64, copy=False)
    a, b = rows[:, :1], rows[:, 1:]  # columns: the products are [row, key]
    a_hi, a_lo = a >> _U32, a & _LOW32
    indexes = np.empty((len(rows), len(keys)), dtype=np.int64)
    for lo in range(0, len(keys), HASH_BLOCK):
        x = _mod_mersenne(keys[lo : lo + HASH_BLOCK])
        x_hi, x_lo = x >> _U32, x & _LOW32
        # a*x = a_hi*x_hi*2^64 + (a_hi*x_lo + a_lo*x_hi)*2^32 + a_lo*x_lo,
        # reduced with 2^61 = 1 (mod P), so 2^64 = 8 and
        # m*2^32 = (m >> 29) + (m & (2^29-1)) << 32.
        top = (a_hi * x_hi) << _U3
        mid = a_hi * x_lo + a_lo * x_hi
        mid = (mid >> _U29) + ((mid & _LOW29) << _U32)
        total = _mod_mersenne(top + mid + _mod_mersenne(a_lo * x_lo) + b)
        indexes[:, lo : lo + HASH_BLOCK] = total % np.uint64(n_buckets)
    return indexes


class HashFamily:
    """A bank of pairwise-independent hash rows over a fixed bucket count.

    Families of one shape and seed hash every key alike, so tables built from
    them correspond bucket for bucket (for conditional merges or score caches).
    The seed is a nonnegative integer (anything ``operator.index`` takes, such
    as a numpy int): the rows are ``draw_rows(np.random.default_rng(seed),
    n_rows)``, drawn in the package, so they stay fixed whatever numpy does.
    A negative seed raises ``ValueError``; a float, str, ``None`` or sequence
    raises ``TypeError``.
    """

    def __init__(self, n_rows: int, n_buckets: int, seed: int = DEFAULT_SEED):
        check_shape(n_rows, n_buckets)
        self.n_rows = n_rows
        self.n_buckets = n_buckets
        self.seed = seed
        self._params = _seeded_rows(operator.index(seed), n_rows)

    @classmethod
    def from_rows(cls, rows, n_buckets: int) -> "HashFamily":
        """A family over ``(a, b)`` rows its caller drew; it has no seed."""
        rows = tuple(rows)
        check_shape(len(rows), n_buckets)
        family = cls.__new__(cls)
        family.n_rows, family.n_buckets, family.seed = len(rows), n_buckets, None
        family._params = rows
        return family

    def indexes(self, x: int) -> tuple[int, ...]:
        """Bucket index of the canonical key ``x`` in every row; see ``canonical_key``."""
        n_b = self.n_buckets
        params = self._params
        if len(params) == 2:  # unrolled: the overwhelmingly common shape
            (a0, b0), (a1, b1) = params
            return (
                ((a0 * x + b0) % MERSENNE_P) % n_b,
                ((a1 * x + b1) % MERSENNE_P) % n_b,
            )
        return tuple(((a * x + b) % MERSENNE_P) % n_b for a, b in params)

    def indexes_many(self, keys: np.ndarray) -> np.ndarray:
        """Bucket indexes for a batch of integer keys, shape (n_rows, n).

        Bit-exact with :meth:`indexes` of each key's canonical key (integers
        are read mod 2^64); see ``bucket_indexes``.
        """
        return bucket_indexes(np.array(self._params, dtype=np.uint64), keys, self.n_buckets)

    def same_layout(self, other: "HashFamily") -> bool:
        return (
            self.n_rows == other.n_rows
            and self.n_buckets == other.n_buckets
            and self._params == other._params
        )
