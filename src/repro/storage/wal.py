"""Write-ahead-log record format.

Each record is::

    [u32 payload_len][u32 crc32(payload)][u8 record_type][u64 gsn][payload]

``gsn`` is p2KVS's Global Sequence Number (paper Section 4.5): the framework
stamps every write request with a strictly increasing GSN and writes it "as a
prefix of the original log sequence number".  Standalone writes use record
type STANDALONE; the WriteBatches split from a multi-instance transaction use
type TXN and are kept at recovery only if the transaction committed.

The reader distinguishes the two ways a log can end badly.  A *crash tail* —
the record framing runs past the end of the data — is the expected signature
of losing an unsynced (or torn) suffix and is reported via ``truncated`` /
``tail_bytes`` so recovery can count it and move on.  A CRC mismatch on a
*fully-present* record can never be produced by truncating an append-only
log; it means the bytes themselves are wrong, and raises ``Corruption``.
"""

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, Union

from repro.errors import Corruption

__all__ = ["LogReader", "LogWriter", "WalRecord", "RECORD_STANDALONE", "RECORD_TXN"]

_HEADER = struct.Struct("<IIBQ")
HEADER_SIZE = _HEADER.size  # 17 bytes

RECORD_STANDALONE = 0
RECORD_TXN = 1


@dataclass(frozen=True)
class WalRecord:
    rtype: int
    gsn: int
    payload: bytes

    @property
    def encoded_size(self) -> int:
        return HEADER_SIZE + len(self.payload)


def encode_record(payload: bytes, rtype: int = RECORD_STANDALONE, gsn: int = 0) -> bytes:
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(len(payload), crc, rtype, gsn) + payload


class LogWriter:
    """Appends records to a :class:`~repro.storage.vfs.VirtualFile`.

    Appends are buffered; the engine flushes to the device when the pending
    buffer exceeds its flush threshold (async logging) or on explicit sync.
    """

    def __init__(self, vfile):
        self.vfile = vfile
        self._track = "storage:%s" % vfile.path

    def append(self, payload: bytes, rtype: int = RECORD_STANDALONE, gsn: int = 0) -> int:
        """Append one record; returns its encoded size in bytes."""
        data = encode_record(payload, rtype, gsn)
        tracer = self.vfile.disk.sim.tracer
        if tracer is not None:
            tracer.instant(
                "wal:append",
                "wal",
                self._track,
                args={"bytes": len(data), "gsn": gsn, "rtype": rtype},
            )
        self.vfile.append(data)
        return len(data)

    @property
    def pending_bytes(self) -> int:
        return self.vfile.pending_bytes

    def flush(self, category: str = "wal"):
        tracer = self.vfile.disk.sim.tracer
        if tracer is not None:
            return self._traced_flush(tracer, category)
        return self.vfile.flush(category)

    def _traced_flush(self, tracer, category: str):
        span = tracer.begin(
            "wal:flush",
            "wal",
            self._track,
            args={"bytes": self.vfile.pending_bytes},
        )
        result = yield from self.vfile.flush(category)
        span.finish()
        return result


class LogReader:
    """Iterates records out of raw log bytes.

    Stops cleanly at a crash tail (``truncated=True``, with the dropped
    byte count in ``tail_bytes``); raises :class:`~repro.errors.Corruption`
    on a checksum mismatch inside a fully-present record.
    """

    def __init__(self, data: Union[bytes, bytearray], source: str = ""):
        self.data = bytes(data)
        self.source = source
        self.truncated = False
        self.tail_bytes = 0
        self.records_read = 0

    def __iter__(self) -> Iterator[WalRecord]:
        offset = 0
        data = self.data
        n = len(data)
        while offset + HEADER_SIZE <= n:
            length, crc, rtype, gsn = _HEADER.unpack_from(data, offset)
            start = offset + HEADER_SIZE
            end = start + length
            if end > n:
                # The record body runs past the data: a lost/torn suffix.
                self.truncated = True
                self.tail_bytes = n - offset
                return
            payload = data[start:end]
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                # Truncation of an append-only log can only remove a suffix,
                # never alter bytes inside a complete record — this is real
                # corruption, not a crash artifact.
                raise Corruption(
                    "log record CRC mismatch at offset %d" % offset,
                    site=self.source or None, offset=offset, gsn=gsn)
            yield WalRecord(rtype, gsn, payload)
            self.records_read += 1
            offset = end
        if offset != n:
            # Fewer than HEADER_SIZE bytes left: a mid-header crash tail.
            self.truncated = True
            self.tail_bytes = n - offset
