"""A Bloom filter over string keys, for the SQLite store's front.

:class:`repro.store.sqlite_store.SqlitePostings` keeps one filter
per term slot over the doc ids it holds: a negative answer proves a
doc id absent, so a point insert or lookup skips its SQL round trip.
The filter may say "present" for an absent key (a false positive, at
most ``error_rate`` at ``capacity`` insertions) but never says "absent"
for an inserted one.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Iterator


class BloomFilter:
    """A classic Bloom filter over string keys.

    Parameters
    ----------
    capacity:
        Expected number of inserted keys.
    error_rate:
        Target false-positive probability at *capacity* insertions.

    Bit count and hash count follow the standard optima:
    ``m = -n·ln(p) / ln(2)²`` and ``k = (m/n)·ln(2)``.
    """

    def __init__(self, capacity: int, error_rate: float = 0.01) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        self.capacity = capacity
        self.error_rate = error_rate
        self.num_bits = max(
            8, int(math.ceil(-capacity * math.log(error_rate) / (math.log(2) ** 2)))
        )
        self.num_hashes = max(1, int(round((self.num_bits / capacity) * math.log(2))))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0

    # -- hashing ------------------------------------------------------------

    def _positions(self, key: str) -> Iterator[int]:
        """k bit positions via double hashing of one MD5 digest."""
        digest = hashlib.md5(key.encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    # -- core operations --------------------------------------------------------

    def add(self, key: str) -> None:
        """Insert a key."""
        for pos in self._positions(key):
            self._bits[pos // 8] |= 1 << (pos % 8)
        self._count += 1

    def update(self, keys: Iterable[str]) -> None:
        """Insert many keys."""
        for key in keys:
            self.add(key)

    def __contains__(self, key: str) -> bool:
        return all(
            self._bits[pos // 8] & (1 << (pos % 8)) for pos in self._positions(key)
        )

    def __len__(self) -> int:
        """Number of insertions performed (not distinct keys)."""
        return self._count
