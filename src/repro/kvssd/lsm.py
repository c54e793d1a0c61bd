"""LSM-tree key index for the KV-SSD.

An iLSM/PinK-style in-storage LSM tree mapping keys to value-log pointers:
a sorted memtable absorbs writes; full memtables flush to immutable,
sorted SSTables (serialised to NAND through the FTL, so flush/compaction
I/O is charged to the NAND model); L0 tables may overlap; deeper levels
are kept as one non-overlapping sorted run each and are merged by
whole-level compaction when the level above overflows.  Following PinK,
the key/pointer entries of every level are pinned in device DRAM, so
lookups never touch NAND for index data, only for values.

Point lookups are served by one live-key map (each key's newest pointer,
deleted keys absent) that the write path keeps current; the levels model
the flush and compaction NAND traffic and serve ordered scans.  Lookup
cost is charged by the personality (``kv_get_logic_ns``), not derived
from how the host finds the pointer.

Tombstones implement deletion; iterators (SYSTOR '23's extension) walk a
merged view of memtable + all levels.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.kvssd.value_log import LogPointer
from repro.ssd.ftl import PageMappingFtl
from repro.ssd.nand import NandError

#: Serialised index entry: key_len u16 | tombstone u8 | segment u32 |
#: offset u32 | length u32 | key bytes.
_ENTRY = struct.Struct("<HBIII")

#: Marker pointer stored for deletions.
TOMBSTONE = LogPointer(segment=0xFFFFFFFF, offset=0xFFFFFFFF, length=0)


def _serialize_run(keys: List[bytes], ptrs: List[LogPointer]) -> bytes:
    out = bytearray()
    for key, ptr in zip(keys, ptrs):
        tomb = 1 if ptr == TOMBSTONE else 0
        out += _ENTRY.pack(len(key), tomb, ptr.segment & 0xFFFFFFFF,
                           ptr.offset & 0xFFFFFFFF, ptr.length & 0xFFFFFFFF)
        out += key
    return bytes(out)


class SsTable:
    """One immutable sorted run, pinned in DRAM, persisted to NAND pages.

    The run is two parallel lists — sorted keys and their pointers — so
    a scan slices it with :func:`bisect.bisect_left` over the keys.
    """

    __slots__ = ("keys", "ptrs", "lpns")

    def __init__(self, keys: List[bytes], ptrs: List[LogPointer],
                 lpns: Optional[List[int]] = None) -> None:
        if len(keys) != len(ptrs):
            raise ValueError("SSTable keys and pointers differ in length")
        if keys != sorted(keys):
            raise ValueError("SSTable entries must be sorted")
        self.keys = keys
        self.ptrs = ptrs
        self.lpns: List[int] = [] if lpns is None else lpns

    def __len__(self) -> int:
        return len(self.keys)


def _merge(tables: Iterable[SsTable], start: bytes = b"",
           end: Optional[bytes] = None) -> Dict[bytes, LogPointer]:
    """Merge runs given oldest first: newer runs overwrite older mappings.

    Tombstones are kept; only keys in [start, end) are taken (no upper
    bound when *end* is None).
    """
    merged: Dict[bytes, LogPointer] = {}
    for table in tables:
        keys = table.keys
        lo = bisect_left(keys, start)
        hi = len(keys) if end is None else bisect_left(keys, end, lo)
        merged.update(zip(keys[lo:hi], table.ptrs[lo:hi]))
    return merged


class LsmIndex:
    """The in-device LSM tree."""

    def __init__(self, ftl: PageMappingFtl, lpn_base: int,
                 memtable_entries: int = 4096,
                 l0_tables: int = 4, level_ratio: int = 4) -> None:
        if memtable_entries < 1:
            raise ValueError("memtable must hold at least one entry")
        self.ftl = ftl
        self.lpn_base = lpn_base
        self.memtable_entries = memtable_entries
        self.l0_tables = l0_tables
        self.level_ratio = level_ratio
        self._memtable: Dict[bytes, LogPointer] = {}
        #: Every live key's newest pointer; deleted keys are absent.
        self._live: Dict[bytes, LogPointer] = {}
        #: levels[0] is L0 (list of possibly-overlapping tables, newest
        #: last); levels[i>0] hold at most one sorted run each.
        self.levels: List[List[SsTable]] = [[]]
        self._next_lpn = lpn_base
        self.flushes = 0
        self.compactions = 0
        #: Flushes and compactions a NAND program fault put off.
        self.deferred_flushes = 0
        self.deferred_compactions = 0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, key: bytes, ptr: LogPointer) -> None:
        if not key:
            raise ValueError("empty key")
        self._live[key] = ptr
        self._memtable[key] = ptr
        if len(self._memtable) >= self.memtable_entries:
            self.flush_memtable()

    def delete(self, key: bytes) -> None:
        if not key:
            raise ValueError("empty key")
        self._live.pop(key, None)
        self._memtable[key] = TOMBSTONE
        if len(self._memtable) >= self.memtable_entries:
            self.flush_memtable()

    def flush_memtable(self) -> None:
        """Persist the memtable as an L0 table, then publish it.

        A NAND program fault defers the flush (counted in
        ``deferred_flushes``): the memtable keeps every mapping, so
        scans still see them, and the next write retries the flush.  A
        fault in the compaction a flush triggers is deferred the same
        way.
        """
        if not self._memtable:
            return
        memtable = self._memtable
        keys = sorted(memtable)
        table = SsTable(keys, [memtable[k] for k in keys])
        try:
            self._persist(table)
        except NandError:
            self.deferred_flushes += 1
            return
        memtable.clear()
        self.levels[0].append(table)
        self.flushes += 1
        if len(self.levels[0]) > self.l0_tables:
            try:
                self._compact(0)
            except NandError:
                # A failed compaction publishes nothing; the next flush
                # retries it.
                self.deferred_compactions += 1

    def _persist(self, table: SsTable) -> SsTable:
        """Write the table's serialised form to NAND pages via the FTL.

        On a :class:`NandError` the pages already written are trimmed
        and their LPNs handed back before the error propagates; the
        caller does not publish the table.
        """
        raw = _serialize_run(table.keys, table.ptrs)
        page_bytes = self.ftl.nand.geometry.page_bytes
        first_lpn = self._next_lpn
        try:
            for off in range(0, len(raw), page_bytes):
                lpn = self._next_lpn
                self._next_lpn += 1
                self.ftl.write(lpn, raw[off:off + page_bytes])
                table.lpns.append(lpn)
        except NandError:
            for lpn in table.lpns:
                self.ftl.trim(lpn)
            self._next_lpn = first_lpn
            raise
        return table

    def _compact(self, level: int) -> None:
        """Merge *level* into *level*+1 as one fresh sorted run."""
        while len(self.levels) <= level + 1:
            self.levels.append([])
        # L0 is ordered oldest→newest; the deeper level holds one older run.
        sources = self.levels[level + 1] + self.levels[level]
        merged = _merge(sources)
        for table in sources:
            for lpn in table.lpns:
                self.ftl.trim(lpn)
        if level + 1 == len(self.levels) - 1:
            # The last level is the oldest data: tombstones can go.
            keys = sorted(k for k, p in merged.items() if p != TOMBSTONE)
        else:
            keys = sorted(merged)
        # Persist, then publish: a fault leaves both levels in place.
        run = ([self._persist(SsTable(keys, [merged[k] for k in keys]))]
               if keys else [])
        self.levels[level] = []
        self.levels[level + 1] = run
        self.compactions += 1
        # Cascade when the level run grows beyond the size ratio.
        limit = self.memtable_entries * (self.level_ratio ** (level + 1))
        run = self.levels[level + 1]
        if run and len(run[0]) > limit:
            self._compact(level + 1)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[LogPointer]:
        """Lookup; returns None for missing or deleted keys."""
        return self._live.get(key)

    def _oldest_first(self) -> Iterator[SsTable]:
        """Every run, oldest first: deepest level first, L0 oldest to
        newest."""
        for level in reversed(self.levels):
            yield from level

    def scan(self, start: bytes, end: bytes) -> Iterator[Tuple[bytes, LogPointer]]:
        """Merged in-order iteration over [start, end) (SYSTOR '23 API)."""
        if start >= end:
            return
        view = _merge(self._oldest_first(), start, end)
        for key, ptr in self._memtable.items():
            if start <= key < end:
                view[key] = ptr
        for key in sorted(view):
            if view[key] != TOMBSTONE:
                yield key, view[key]

    # ------------------------------------------------------------------
    # persistence (repro.durability) — the memtable and the DRAM-pinned
    # level entries are DEVICE_VOLATILE: a power cut loses them all, and
    # recovery rebuilds the index by replaying the value log.
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        return {
            "memtable": dict(self._memtable),
            # Runs are immutable, so the image shares their lists.
            "levels": [[(t.keys, t.ptrs, list(t.lpns)) for t in level]
                       for level in self.levels],
            "next_lpn": self._next_lpn,
            "counters": (self.flushes, self.compactions),
        }

    def restore(self, state: object) -> None:
        assert isinstance(state, dict)
        self._memtable = dict(state["memtable"])
        self.levels = [
            [SsTable(keys, ptrs, list(lpns)) for keys, ptrs, lpns in level]
            for level in state["levels"]]
        self._next_lpn = state["next_lpn"]
        self.flushes, self.compactions = state["counters"]
        live = _merge(self._oldest_first())
        live.update(self._memtable)
        self._live = {k: p for k, p in live.items() if p != TOMBSTONE}

    def scrub(self) -> None:
        """Drop every in-DRAM structure; the LPN window resets too.

        The index keeps its identity (ftl, lpn_base, tuning) so replay
        re-persists SSTables into the same logical window the stale
        pre-crash tables occupied — those were trimmed or are simply
        overwritten as replay flushes.
        """
        for level in self.levels:
            for table in level:
                for lpn in table.lpns:
                    self.ftl.trim(lpn)  # no-op when the FTL was scrubbed
        self._memtable = {}
        self._live = {}
        self.levels = [[]]
        self._next_lpn = self.lpn_base

    # ------------------------------------------------------------------
    @property
    def memtable_size(self) -> int:
        return len(self._memtable)

    @property
    def total_entries(self) -> int:
        """Live index entries across memtable and all levels (with dups)."""
        total = len(self._memtable)
        for level in self.levels:
            for table in level:
                total += len(table)
        return total
