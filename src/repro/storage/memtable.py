"""Skiplist-backed MemTable.

The MemTable stores multi-versioned entries ``(key, seq, vtype, value)``
ordered by ``(key asc, seq desc)`` — the same internal-key ordering LevelDB
and RocksDB use, so the newest visible version of a key is the first match.
Deletes are tombstone entries (``VTYPE_DELETE``) that shadow older versions
and survive until compaction drops them at the bottom level.

The paper's Figure 6 attributes ~2.9 us of each write to "inserting key-value
pairs into MemTable, of which more than 90% is updating the skiplist index";
the engine charges that cost from its cost model, while this module provides
the *functional* skiplist (a real probabilistic skiplist, property-tested
against a sorted-dict model).
"""

import random
from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "MemTable",
    "SkipList",
    "TOMBSTONE",
    "VTYPE_DELETE",
    "VTYPE_VALUE",
    "NOT_FOUND",
    "FOUND",
    "DELETED",
]

VTYPE_DELETE = 0
VTYPE_VALUE = 1

# Lookup outcomes.
NOT_FOUND = "not_found"
FOUND = "found"
DELETED = "deleted"

MAX_SEQ = 2**63 - 1


class _Tombstone:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<TOMBSTONE>"


TOMBSTONE = _Tombstone()

_MAX_LEVEL = 12
_BRANCHING = 4  # P(level promotion) = 1/4, as in LevelDB


class SkipList:
    """A probabilistic skiplist mapping orderable keys to values.

    Deterministic given the seed, so simulation runs are reproducible.
    Supports insert (no overwrite of equal keys expected by the memtable,
    which encodes uniqueness via the sequence number), exact ``get``, and
    ``iter_from`` for ordered range traversal.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        # Node: [key, value, forward_0, forward_1, ...]
        self._head: List = [None, None] + [None] * _MAX_LEVEL
        self._level = 1
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.randrange(_BRANCHING) == 0:
            level += 1
        return level

    def insert(self, key, value) -> None:
        update = [self._head] * _MAX_LEVEL
        node = self._head
        for i in range(self._level - 1, -1, -1):
            while node[2 + i] is not None and node[2 + i][0] < key:
                node = node[2 + i]
            update[i] = node
        level = self._random_level()
        if level > self._level:
            self._level = level
        new_node = [key, value] + [None] * level
        for i in range(level):
            new_node[2 + i] = update[i][2 + i]
            update[i][2 + i] = new_node
        self._len += 1

    def get(self, key):
        """Return the value for an exactly-equal key, else None."""
        node = self._find_ge(key)
        if node is not None and node[0] == key:
            return node[1]
        return None

    def _find_ge(self, key) -> Optional[List]:
        node = self._head
        for i in range(self._level - 1, -1, -1):
            while node[2 + i] is not None and node[2 + i][0] < key:
                node = node[2 + i]
        return node[2]

    def iter_from(self, key=None) -> Iterator[Tuple]:
        """Yield (key, value) pairs in key order, starting at >= key."""
        node = self._head[2] if key is None else self._find_ge(key)
        while node is not None:
            yield node[0], node[1]
            node = node[2]

    def __iter__(self) -> Iterator[Tuple]:
        return self.iter_from(None)


# Per-entry bookkeeping overhead used for the memtable's approximate size —
# sequence number, type tag and skiplist node pointers.
ENTRY_OVERHEAD = 24


class MemTable:
    """Multi-version sorted write buffer, flushed to an SSTable when full.

    Internally a bisect-maintained sorted array of internal keys with a
    parallel value array: identical ordering and visibility semantics to the
    reference :class:`SkipList` (which remains the property-tested model),
    but inserts and probes are C-level ``bisect``/``memmove`` operations —
    the memtable's *simulated* skiplist cost is charged by the engine's cost
    model, not by host-side pointer chasing.
    """

    def __init__(self, seed: int = 0, sim=None, track: str = ""):
        # ``seed`` is accepted for API compatibility with the SkipList-backed
        # implementation (its RNG was private, so dropping the draws cannot
        # perturb any other seeded stream).
        self._keys: List[Tuple[bytes, int]] = []
        self._vals: List[Tuple[int, bytes]] = []
        # Simulator handle (optional) so inserts can emit trace instants.
        self._sim = sim
        self._track = track
        self.approximate_size = 0
        self.entry_count = 0
        self.first_seq: Optional[int] = None
        self.last_seq: Optional[int] = None

    def add(self, seq: int, vtype: int, key: bytes, value: bytes) -> None:
        if self._sim is not None:
            tracer = self._sim.tracer
            if tracer is not None:
                tracer.instant(
                    "memtable:add",
                    "memtable",
                    self._track,
                    args={"seq": seq, "bytes": len(key) + len(value)},
                )
        # Internal key (key, MAX_SEQ - seq) sorts newer versions first.
        ikey = (key, MAX_SEQ - seq)
        i = bisect_left(self._keys, ikey)
        self._keys.insert(i, ikey)
        self._vals.insert(i, (vtype, value))
        self.approximate_size += len(key) + len(value) + ENTRY_OVERHEAD
        self.entry_count += 1
        if self.first_seq is None:
            self.first_seq = seq
        self.last_seq = seq

    def get(self, key: bytes, snapshot_seq: int = MAX_SEQ) -> Tuple[str, Optional[bytes]]:
        """Find the newest version of ``key`` visible at ``snapshot_seq``.

        Returns (state, value): (FOUND, value), (DELETED, None) or
        (NOT_FOUND, None).
        """
        keys = self._keys
        i = bisect_left(keys, (key, MAX_SEQ - snapshot_seq))
        if i == len(keys) or keys[i][0] != key:
            return NOT_FOUND, None
        vtype, value = self._vals[i]
        if vtype == VTYPE_DELETE:
            return DELETED, None
        return FOUND, value

    def entries(self) -> Iterator[Tuple[bytes, int, int, bytes]]:
        """All versions, ordered (key asc, seq desc): (key, seq, vtype, value)."""
        for (key, inv_seq), (vtype, value) in zip(self._keys, self._vals):
            yield key, MAX_SEQ - inv_seq, vtype, value

    def iter_from(self, key: bytes) -> Iterator[Tuple[bytes, int, int, bytes]]:
        keys = self._keys
        vals = self._vals
        for i in range(bisect_left(keys, (key, 0)), len(keys)):
            k, inv_seq = keys[i]
            vtype, value = vals[i]
            yield k, MAX_SEQ - inv_seq, vtype, value

    def __len__(self) -> int:
        return self.entry_count

    @property
    def empty(self) -> bool:
        return self.entry_count == 0
