"""Bloom filter for SSTable key lookups.

Uses double hashing (Kirsch-Mitzenmacher) over two independent digests so
probe positions are deterministic across runs regardless of PYTHONHASHSEED.
Default 10 bits/key with 7 probes gives ~1% false positives, matching the
LevelDB/RocksDB defaults the paper's engines run with.
"""

import zlib
from typing import Iterable

__all__ = ["BloomFilter"]


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class BloomFilter:
    def __init__(self, n_keys: int, bits_per_key: int = 10, n_probes: int = 7):
        if bits_per_key < 1:
            raise ValueError("bits_per_key must be >= 1")
        self.n_bits = max(64, n_keys * bits_per_key)
        self.n_probes = n_probes
        self._bits = bytearray((self.n_bits + 7) // 8)

    @classmethod
    def from_keys(cls, keys: Iterable[bytes], bits_per_key: int = 10) -> "BloomFilter":
        keys = list(keys)
        bf = cls(len(keys), bits_per_key)
        for key in keys:
            bf.add(key)
        return bf

    def _positions(self, key: bytes):
        h1 = zlib.crc32(key) & 0xFFFFFFFF
        h2 = _fnv1a(key) | 1  # odd so all positions are distinct mod n_bits
        for i in range(self.n_probes):
            yield (h1 + i * h2) % self.n_bits

    def add(self, key: bytes) -> None:
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def may_contain(self, key: bytes) -> bool:
        # Probe loop inlined (no _positions generator): same double-hashing
        # positions, early exit on the first clear bit.
        bits = self._bits
        n_bits = self.n_bits
        h1 = zlib.crc32(key) & 0xFFFFFFFF
        h2 = _fnv1a(key) | 1
        for i in range(self.n_probes):
            pos = (h1 + i * h2) % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    @property
    def nbytes(self) -> int:
        return len(self._bits)
