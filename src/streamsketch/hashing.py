"""Pairwise-independent hashing shared by every sketch in the package.

Each hash row is ((a * x + b) mod P) mod n_buckets with P the Mersenne
prime 2^61 - 1, a random odd multiplier and a random offset, drawn from a
seeded generator so results are reproducible across runs and platforms.
Keys are canonicalised to integers first; strings go through blake2b so
bucket choices never depend on Python's per-process hash randomisation.
"""

from __future__ import annotations

import hashlib

import numpy as np

MERSENNE_P = (1 << 61) - 1
DEFAULT_SEED = 42

_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio constant for tuple mixing
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)
_P64 = np.uint64(MERSENNE_P)


def _mod_mersenne(y: np.ndarray) -> np.ndarray:
    """y mod (2^61 - 1) for uint64 arrays, by folding the high bits."""
    y = (y & _P64) + (y >> np.uint64(61))
    return np.where(y >= _P64, y - _P64, y)


def canonical_key(key) -> int:
    """Map an arbitrary identifier to a stable nonnegative integer.

    Integers map to themselves (mod 2^64), strings and bytes through an
    8-byte blake2b digest, and tuples by mixing their parts. The mapping is
    fixed for all time: sketches hashed on one run agree with any other run.
    """
    kind = type(key)
    if kind is int:
        return key & _MASK64
    if kind is str:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    if kind is bytes:
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little")
    if kind is tuple:
        acc = 0x2545F4914F6CDD1D
        for part in key:
            acc = ((acc ^ canonical_key(part)) * _MIX) & _MASK64
        return acc
    if isinstance(key, (bool, np.integer)):
        return int(key) & _MASK64
    raise TypeError(f"unhashable stream key type: {type(key).__name__}")


def draw_rows(rng: np.random.Generator, n_rows: int) -> tuple[tuple[int, int], ...]:
    """``n_rows`` hash rows ``(a, b)`` from ``rng``: a random odd multiplier and offset mod P."""
    return tuple(
        ((int(rng.integers(1, MERSENNE_P)) | 1) % MERSENNE_P, int(rng.integers(0, MERSENNE_P)))
        for _ in range(n_rows)
    )


def check_shape(n_rows: int, n_buckets: int) -> None:
    """Reject a table shape with no row or no bucket."""
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")


class HashFamily:
    """A bank of pairwise-independent hash rows over a fixed bucket count.

    Sketches that must correspond bucket-for-bucket (for conditional merges
    or score caches) share one family instance.
    """

    def __init__(self, n_rows: int, n_buckets: int, seed: int = DEFAULT_SEED):
        check_shape(n_rows, n_buckets)
        self.n_rows = n_rows
        self.n_buckets = n_buckets
        self.seed = seed
        self._params = draw_rows(np.random.default_rng(seed), n_rows)

    @classmethod
    def from_rows(cls, rows, n_buckets: int) -> "HashFamily":
        """A family over ``(a, b)`` rows its caller drew; it has no seed."""
        family = cls(len(rows), n_buckets)
        family.seed, family._params = None, tuple(rows)
        return family

    def indexes(self, key) -> tuple[int, ...]:
        """Bucket index of ``key`` in every row."""
        x = canonical_key(key)
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

        Bit-exact with :meth:`indexes`; the 122-bit products are evaluated
        in 32-bit limbs so everything stays inside uint64 arithmetic.
        """
        x = np.asarray(keys).astype(np.uint64, copy=False)
        x = _mod_mersenne(x)
        x_hi = x >> np.uint64(32)
        x_lo = x & _LOW32
        out = np.empty((self.n_rows, x.shape[0]), dtype=np.int64)
        n_b = np.uint64(self.n_buckets)
        for row, (a, b) in enumerate(self._params):
            a_hi = np.uint64(a >> 32)
            a_lo = np.uint64(a & 0xFFFFFFFF)
            # a*x = a_hi*x_hi*2^64 + (a_hi*x_lo + a_lo*x_hi)*2^32 + a_lo*x_lo,
            # reduced with 2^61 = 1 (mod P), so 2^64 = 8 and
            # m*2^32 = (m >> 29) + (m & (2^29-1)) << 32.
            top = (a_hi * x_hi) << np.uint64(3)
            mid = a_hi * x_lo + a_lo * x_hi
            mid = (mid >> np.uint64(29)) + ((mid & _LOW29) << np.uint64(32))
            low = _mod_mersenne(a_lo * x_lo)
            total = _mod_mersenne(top + mid + low + np.uint64(b))
            out[row] = (total % n_b).astype(np.int64)
        return out

    def same_layout(self, other: "HashFamily") -> bool:
        return (
            self.n_rows == other.n_rows
            and self.n_buckets == other.n_buckets
            and self._params == other._params
        )
