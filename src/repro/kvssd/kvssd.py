"""KV-SSD device personality.

Implements the NVMe Key-Value command set on top of the OpenSSD model,
in the style of the iterator-extended LSM KV-SSD the paper evaluates on
(Figure 6): a value log absorbs PUT payloads (the ByteExpress landing
buffer), an LSM index maps keys to log pointers, and NAND I/O proceeds
pipelined underneath.

The personality is transfer-method agnostic: the payload reaches the
handler identically whether it travelled by PRP, SGL, BandSlim fragments,
MMIO or ByteExpress — which is precisely the compatibility property the
paper claims for ByteExpress.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.kvssd.commands import (
    KvEncodingError,
    decode_batch_payload,
    decode_store_payload,
    unpack_key_fields,
)
from repro.durability.domains import DEVICE_VOLATILE
from repro.kvssd.lsm import LsmIndex
from repro.kvssd.value_log import ValueLog
from repro.nvme.constants import KvOpcode, StatusCode, VendorOpcode
from repro.sim.config import TimingModel
from repro.ssd.controller import CommandContext, CommandResult
from repro.ssd.device import OpenSsd
from repro.ssd.nand import NandError

#: Logical-page range reserved for the value log (the LSM index gets the
#: upper half of the logical space).
VLOG_LPN_BASE = 0


class KvSsdPersonality:
    """Firmware handlers for STORE / RETRIEVE / DELETE / EXIST / LIST."""

    def __init__(self, ssd: OpenSsd,
                 memtable_entries: int = 4096) -> None:
        self.ssd = ssd
        self.vlog = ValueLog(ssd.dram, ssd.ftl, lpn_base=VLOG_LPN_BASE)
        lsm_base = ssd.ftl.logical_capacity_pages // 2
        self.index = LsmIndex(ssd.ftl, lpn_base=lsm_base,
                              memtable_entries=memtable_entries)
        ctl = ssd.controller
        ctl.register_handler(KvOpcode.STORE, self._on_store)
        ctl.register_handler(KvOpcode.RETRIEVE, self._on_retrieve,
                             data_phase=False)
        ctl.register_handler(KvOpcode.DELETE, self._on_delete,
                             data_phase=False)
        ctl.register_handler(KvOpcode.EXIST, self._on_exist,
                             data_phase=False)
        ctl.register_handler(KvOpcode.LIST, self._on_list, data_phase=False)
        ctl.register_handler(VendorOpcode.KV_BATCH_STORE, self._on_batch_store)
        # Persistence domains: the log's metadata checkpoints at flush
        # boundaries (its flushed-segment set *is* the durable
        # watermark); the DRAM-pinned index is rebuilt by replay.
        ssd.durability.register("kv.value_log", DEVICE_VOLATILE, self.vlog,
                                checkpointed=True)
        ssd.durability.register("kv.index", DEVICE_VOLATILE, self.index)
        #: Run value-log GC once dead space exceeds this many segments.
        self.gc_threshold_bytes = 2 * self.vlog.segment_bytes
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.lists = 0

    # ------------------------------------------------------------------
    @property
    def _timing(self) -> TimingModel:
        return self.ssd.config.timing

    def _on_store(self, ctx: CommandContext) -> CommandResult:
        if ctx.data is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        try:
            key, value = decode_store_payload(ctx.data)
        except KvEncodingError:
            return CommandResult(StatusCode.INVALID_FIELD)
        if ctx.cmd.cdw14 and ctx.cmd.cdw14 != len(key):
            return CommandResult(StatusCode.INVALID_FIELD)
        self.ssd.clock.advance(self._timing.kv_put_logic_ns)
        old = self.index.get(key)
        try:
            ptr = self.vlog.append(key, value)
        except (ValueError, NandError):
            return CommandResult(StatusCode.MEDIA_WRITE_FAULT)
        self.index.put(key, ptr)
        if old is not None:
            self.vlog.mark_dead(old)
        self.puts += 1
        self.maybe_collect()
        return CommandResult(result=len(value))

    def _on_batch_store(self, ctx: CommandContext) -> CommandResult:
        """Compound STORE (§2.2.1's bulk-PUT): all-or-nothing semantics.

        Protocol overhead amortises over the batch, but the per-pair
        engine work (log append + index insert) remains — and the pairs
        share one durability point, which is exactly why the paper notes
        batching "may not always be applicable" for fine-grained
        persistence workloads.
        """
        if ctx.data is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        try:
            pairs = decode_batch_payload(ctx.data)
        except KvEncodingError:
            return CommandResult(StatusCode.INVALID_FIELD)
        # One command-level parse plus per-pair engine work.
        self.ssd.clock.advance(self._timing.kv_put_logic_ns * len(pairs))
        stored = 0
        for key, value in pairs:
            old = self.index.get(key)
            try:
                ptr = self.vlog.append(key, value)
            except (ValueError, NandError):
                self.puts += stored
                return CommandResult(StatusCode.MEDIA_WRITE_FAULT,
                                     result=stored)
            self.index.put(key, ptr)
            if old is not None:
                self.vlog.mark_dead(old)
            stored += 1
        self.puts += stored
        self.maybe_collect()
        return CommandResult(result=stored)

    def maybe_collect(self) -> bool:
        """Run one value-log GC pass if dead space crossed the threshold."""
        if self.vlog.dead_bytes < self.gc_threshold_bytes:
            return False
        return self.vlog.collect(
            is_live=lambda key, ptr: self.index.get(key) == ptr,
            on_relocate=lambda key, _old, new: self.index.put(key, new),
            keep_tombstone=lambda key: self.index.get(key) is None)

    def _lookup(self, ctx: CommandContext) -> Tuple[Optional[bytes],
                                                    Optional[bytes]]:
        try:
            key = unpack_key_fields(ctx.cmd)
        except KvEncodingError:
            return None, None
        ptr = self.index.get(key)
        if ptr is None:
            return key, None
        stored_key, value = self.vlog.read(ptr)
        if stored_key != key:  # pragma: no cover - index corruption guard
            return key, None
        return key, value

    def _on_retrieve(self, ctx: CommandContext) -> CommandResult:
        self.ssd.clock.advance(self._timing.kv_get_logic_ns)
        key, value = self._lookup(ctx)
        if key is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        self.gets += 1
        if value is None:
            return CommandResult(StatusCode.KV_KEY_NOT_FOUND)
        return CommandResult(result=len(value), read_data=value)

    def _on_delete(self, ctx: CommandContext) -> CommandResult:
        self.ssd.clock.advance(self._timing.kv_put_logic_ns)
        try:
            key = unpack_key_fields(ctx.cmd)
        except KvEncodingError:
            return CommandResult(StatusCode.INVALID_FIELD)
        old = self.index.get(key)
        if old is None:
            return CommandResult(StatusCode.KV_KEY_NOT_FOUND)
        self.index.delete(key)
        self.vlog.mark_dead(old)
        # Durable deletion record, so crash recovery replays the delete.
        try:
            tomb = self.vlog.append(key, b"", tombstone=True)
        except NandError:
            # No record, no delete: the key keeps its value, as a failed
            # STORE keeps the old one.
            self.index.put(key, old)
            self.vlog.mark_live(old)
            return CommandResult(StatusCode.MEDIA_WRITE_FAULT)
        self.vlog.mark_dead(tomb)  # tombstones are immediately dead space
        self.deletes += 1
        return CommandResult()

    def _on_exist(self, ctx: CommandContext) -> CommandResult:
        self.ssd.clock.advance(self._timing.kv_get_logic_ns)
        key, value = self._lookup(ctx)
        if key is None:
            return CommandResult(StatusCode.INVALID_FIELD)
        if value is None:
            return CommandResult(StatusCode.KV_KEY_NOT_FOUND)
        return CommandResult(result=len(value))

    def _on_list(self, ctx: CommandContext) -> CommandResult:
        """NVMe-KV LIST: keys ≥ the given key, in order, bounded by CDW15.

        Returns the spec-style key list: u32 count followed by
        (u16 key_len | key) records.
        """
        self.ssd.clock.advance(self._timing.kv_get_logic_ns)
        try:
            start = unpack_key_fields(ctx.cmd)
        except KvEncodingError:
            return CommandResult(StatusCode.INVALID_FIELD)
        max_keys = ctx.cmd.cdw15 or 64
        keys = []
        for key, _ptr in self.index.scan(start, b"\xff" * 255):
            keys.append(key)
            if len(keys) >= max_keys:
                break
        out = bytearray(len(keys).to_bytes(4, "little"))
        for key in keys:
            out += len(key).to_bytes(2, "little") + key
        self.lists += 1
        # Like RETRIEVE, the CQE result reports the *byte* length of the
        # data return, so the host can trim its read buffer exactly.
        return CommandResult(result=len(out), read_data=bytes(out))

    def peek(self, key: bytes) -> Optional[bytes]:
        """Timing-free ground-truth lookup for verification oracles.

        The cache-coherence invariant shadow-reads every cache hit from
        the device; going through :meth:`_lookup` would advance the
        simulated clock and skew the NAND counters, so this walks the
        DRAM-pinned index and the value log's ``peek`` chain instead.
        Returns None for missing/deleted keys.
        """
        ptr = self.index.get(key)
        if ptr is None:
            return None
        stored_key, value = self.vlog.peek(ptr)
        if stored_key != key:  # pragma: no cover - index corruption guard
            return None
        return value

    # ------------------------------------------------------------------
    # device-local iteration (used by tests and the example applications)
    # ------------------------------------------------------------------
    def scan(self, start: bytes, end: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Range scan over [start, end): the SYSTOR '23 iterator API."""
        for key, ptr in self.index.scan(start, end):
            stored_key, value = self.vlog.read(ptr)
            yield stored_key, value

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def replay_value_log(self) -> int:
        """Replay flushed value-log segments into the (empty) index.

        Walks the durable watermark — the flushed-segment set — in
        segment order: last-writer-wins falls out of replay order, and
        durable tombstone records make deletions survive the crash.
        Returns the number of live keys replayed.
        """
        restored: dict = {}
        for segment in self.vlog.flushed_segments:
            for ptr, key, value, is_tomb in self.vlog.parse_segment(segment):
                if is_tomb:
                    restored.pop(key, None)
                else:
                    restored[key] = ptr
        for key, ptr in restored.items():
            self.index.put(key, ptr)
        return len(restored)

    def recover(self) -> int:
        """Boot-time recovery: scrub the volatile index, replay the log.

        The index object *survives* (same LPN window, same tuning) —
        ``Persistable.scrub()`` resets its contents in place, so device
        identity persists across a controller reset instead of leaking
        a fresh index at a shifted LPN base per recovery.
        """
        self.index.scrub()
        return self.replay_value_log()

    def crash_and_recover(self) -> int:
        """Simulate power loss and rebuild the KV state from NAND.

        Enterprise KV-SSDs back their DRAM write buffer with capacitors
        (power-loss protection): on power fail the active value-log
        segment is flushed to NAND, but the volatile index state — the
        memtable and DRAM-pinned LSM levels — is gone.  Recovery then
        rebuilds the index by replaying the log (:meth:`recover`).

        Returns the number of live keys after recovery.
        """
        # Power-loss protection: the capacitor-backed flush.
        self.vlog.flush()
        self.ssd.nand.drain()
        return self.recover()
