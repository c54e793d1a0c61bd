"""Device-side value log.

KV-SSDs in the iLSM/PinK lineage separate keys from values: values are
appended to a log (the "designated buffer" the paper names as a ByteExpress
landing zone, §3.3.1), and the LSM index maps keys to log pointers.  The
log accumulates entries in a DRAM segment buffer and flushes full segments
to NAND through the FTL — which is what lets small PUTs complete at DRAM
speed while NAND programs pipeline in the background (Figure 6 runs with
NAND enabled).

Entry format: ``key_len u16 | value_len u32 | key | value``.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Tuple

from repro.ssd.dram import DeviceDram, DramRegion
from repro.ssd.ftl import PageMappingFtl

_ENTRY_HEADER = struct.Struct("<HI")
#: High bit of key_len marks a durable tombstone record.
_TOMBSTONE_FLAG = 0x8000
#: Maximum key length once the flag bit is reserved.
MAX_LOG_KEY = 0x7FFF


class LogPointer(NamedTuple):
    """Location of one value-log entry.

    A tuple, so the index's pointer comparisons (``== TOMBSTONE``, GC's
    liveness check) run in C.
    """

    segment: int      # log segment number (== logical page for flushed)
    offset: int       # byte offset within the segment
    length: int       # total entry length (header + key + value)


class ValueLog:
    """Append-only, segment-buffered value log."""

    def __init__(self, dram: DeviceDram, ftl: PageMappingFtl,
                 segment_bytes: Optional[int] = None,
                 lpn_base: int = 0) -> None:
        self.ftl = ftl
        self.segment_bytes = segment_bytes or ftl.nand.geometry.page_bytes
        self.lpn_base = lpn_base
        self._buffer: DramRegion = dram.carve("kv.value_log",
                                              self.segment_bytes)
        self._segment = 0
        self._offset = 0
        #: Flushed segments are reachable through the FTL; the active
        #: segment lives in the DRAM buffer.
        self._flushed: Dict[int, bool] = {}
        #: Per-segment live bytes (dead space is GC's target) and the
        #: number of bytes actually used before padding.
        self._live: Dict[int, int] = {}
        self._used: Dict[int, int] = {}
        self.appends = 0
        self.flushes = 0
        self.gc_runs = 0
        self.gc_relocated = 0

    # ------------------------------------------------------------------
    def entry_size(self, key: bytes, value: bytes) -> int:
        return _ENTRY_HEADER.size + len(key) + len(value)

    def append(self, key: bytes, value: bytes,
               tombstone: bool = False) -> LogPointer:
        """Append one entry; flushes the active segment first if needed.

        *tombstone* writes a durable deletion record (empty value, flag
        bit set in the key length) so crash recovery replays deletes.
        """
        if not key:
            raise ValueError("empty key")
        if len(key) > MAX_LOG_KEY:
            raise ValueError(f"key exceeds {MAX_LOG_KEY} bytes")
        if tombstone and value:
            raise ValueError("tombstones carry no value")
        size = self.entry_size(key, value)
        if size > self.segment_bytes:
            raise ValueError(
                f"entry of {size} B exceeds segment size {self.segment_bytes}")
        if self._offset + size > self.segment_bytes:
            self.flush()
        ptr = LogPointer(self._segment, self._offset, size)
        key_field = len(key) | (_TOMBSTONE_FLAG if tombstone else 0)
        record = _ENTRY_HEADER.pack(key_field, len(value)) + key + value
        self._buffer.write(self._offset, record)
        self._offset += size
        self._live[self._segment] = self._live.get(self._segment, 0) + size
        self.appends += 1
        return ptr

    def flush(self) -> None:
        """Persist the active segment to NAND (pipelined program)."""
        if self._offset == 0:
            return
        data = self._buffer.read(0, self._offset)
        self.ftl.write(self.lpn_base + self._segment, data)
        self._flushed[self._segment] = True
        self._used[self._segment] = self._offset
        self.flushes += 1
        self._segment += 1
        self._offset = 0

    def read(self, ptr: LogPointer) -> Tuple[bytes, bytes]:
        """Fetch (key, value) for a pointer, from DRAM or NAND."""
        return self._decode(ptr, self.ftl.read)

    def peek(self, ptr: LogPointer) -> Tuple[bytes, bytes]:
        """Timing-free :meth:`read` for verification oracles.

        Identical decoding, but flushed segments are fetched through the
        FTL/NAND ``peek`` chain so the shadow read charges no simulated
        time and perturbs no counters.
        """
        return self._decode(ptr, self.ftl.peek)

    def _decode(self, ptr: LogPointer,
                fetch_page: Callable[[int], bytes]) -> Tuple[bytes, bytes]:
        if self._flushed.get(ptr.segment):
            page = fetch_page(self.lpn_base + ptr.segment)
            raw = page[ptr.offset:ptr.offset + ptr.length]
        elif ptr.segment == self._segment:
            raw = self._buffer.read(ptr.offset, ptr.length)
        else:
            raise KeyError(f"stale log pointer {ptr}")
        key_len, value_len = _ENTRY_HEADER.unpack_from(raw)
        key_len &= ~_TOMBSTONE_FLAG
        body = raw[_ENTRY_HEADER.size:]
        return body[:key_len], body[key_len:key_len + value_len]

    @property
    def active_bytes(self) -> int:
        return self._offset

    @property
    def flushed_segments(self) -> Tuple[int, ...]:
        """Flushed (NAND-durable) segment numbers, in flush order."""
        return tuple(sorted(self._flushed))

    def parse_segment(
            self, segment: int
    ) -> Iterator[Tuple[LogPointer, bytes, bytes, bool]]:
        """Public replay iterator over one flushed segment."""
        return self._parse_segment(segment)

    # ------------------------------------------------------------------
    # persistence (repro.durability)
    # ------------------------------------------------------------------
    # The log's *metadata* (segment counters, flushed map) and its active
    # DRAM buffer are DEVICE_VOLATILE; flushed segments live behind the
    # FTL in the persistent NAND domain.  The log registers as
    # *checkpointed*: real firmware journals this metadata alongside the
    # mapping table at flush boundaries.  The durable watermark after a
    # crash is exactly the flushed-segment set in the restored snapshot.

    def snapshot(self) -> object:
        return {
            "segment": self._segment,
            "offset": self._offset,
            "flushed": dict(self._flushed),
            "live": dict(self._live),
            "used": dict(self._used),
            "buffer": self._buffer.read(0, self.segment_bytes),
            "counters": (self.appends, self.flushes,
                         self.gc_runs, self.gc_relocated),
        }

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        self._segment = state["segment"]
        self._offset = state["offset"]
        self._flushed = dict(state["flushed"])
        self._live = dict(state["live"])
        self._used = dict(state["used"])
        self._buffer.write(0, state["buffer"])
        (self.appends, self.flushes,
         self.gc_runs, self.gc_relocated) = state["counters"]

    def scrub(self) -> None:
        """Power cut: the active segment and all metadata vanish.

        The DRAM buffer region itself survives (same carve, zeroed) so
        the log keeps its identity across a controller reset instead of
        re-carving — which would raise on the duplicate region name.
        """
        self._segment = 0
        self._offset = 0
        self._flushed.clear()
        self._live.clear()
        self._used.clear()
        self._buffer.scrub()

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def mark_dead(self, ptr: LogPointer) -> None:
        """Account an entry as dead (overwritten or deleted)."""
        live = self._live.get(ptr.segment, 0) - ptr.length
        self._live[ptr.segment] = max(0, live)

    def mark_live(self, ptr: LogPointer) -> None:
        """Undo :meth:`mark_dead` for an entry that is current again."""
        self._live[ptr.segment] = self._live.get(ptr.segment, 0) + ptr.length

    @property
    def dead_bytes(self) -> int:
        """Dead space across *flushed* segments (GC's reclaimable pool)."""
        total = 0
        for seg in self._flushed:
            total += self._used.get(seg, 0) - self._live.get(seg, 0)
        return total

    def _parse_segment(
            self, segment: int
    ) -> Iterator[Tuple[LogPointer, bytes, bytes, bool]]:
        """Yield (ptr, key, value, is_tombstone) for a flushed segment."""
        page = self.ftl.read(self.lpn_base + segment)
        used = self._used[segment]
        offset = 0
        while offset + _ENTRY_HEADER.size <= used:
            key_field, value_len = _ENTRY_HEADER.unpack_from(page, offset)
            if key_field == 0:
                break
            is_tomb = bool(key_field & _TOMBSTONE_FLAG)
            key_len = key_field & ~_TOMBSTONE_FLAG
            size = _ENTRY_HEADER.size + key_len + value_len
            body = page[offset + _ENTRY_HEADER.size:offset + size]
            yield (LogPointer(segment, offset, size),
                   bytes(body[:key_len]), bytes(body[key_len:]), is_tomb)
            offset += size

    def collect(
            self,
            is_live: Callable[[bytes, LogPointer], bool],
            on_relocate: Callable[[bytes, LogPointer, LogPointer], None],
            keep_tombstone: Optional[Callable[[bytes], bool]] = None,
    ) -> bool:
        """One GC pass: reclaim the flushed segment with the most garbage.

        *is_live(key, ptr)* asks the index whether *ptr* is still current;
        *on_relocate(key, old_ptr, new_ptr)* updates the index after a
        live entry is re-appended.  *keep_tombstone(key)*, when given,
        decides whether a durable deletion record must be carried forward
        (it must while any older segment may still hold the key).
        Returns False when nothing is worth collecting.
        """
        candidates = [seg for seg in self._flushed
                      if self._used.get(seg, 0) > self._live.get(seg, 0)]
        if not candidates:
            return False
        victim = max(candidates,
                     key=lambda s: self._used[s] - self._live.get(s, 0))
        # Streamed: the victim page is read once, before the first
        # relocation, and relocations only append to the active segment.
        for old_ptr, key, value, is_tomb in self._parse_segment(victim):
            if is_tomb:
                if keep_tombstone is not None and keep_tombstone(key):
                    self.append(key, b"", tombstone=True)
                    self.gc_relocated += 1
                continue
            if not is_live(key, old_ptr):
                continue
            new_ptr = self.append(key, value)
            on_relocate(key, old_ptr, new_ptr)
            self.gc_relocated += 1
        self.ftl.trim(self.lpn_base + victim)
        del self._flushed[victim]
        self._used.pop(victim, None)
        self._live.pop(victim, None)
        self.gc_runs += 1
        return True
