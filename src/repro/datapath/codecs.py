"""Host-side transfer codecs: how the driver encodes SQE + payload.

Each codec owns one wire encoding — PRP staging, SGL segments, inline
chunk append, tagged chunks.  The driver's generic
:meth:`~repro.host.driver.NvmeDriver.submit` looks the codec up through
the registry and delegates; it is the only write-submission entry point.
:meth:`InlineWriteCodec.encode` is the paper's <30-line
``nvme_queue_rq`` patch: while holding the per-SQ lock it writes the
command (payload length in a reserved field) and appends the payload as
64-byte chunks into the *following* SQ entries, ringing the doorbell
once at the end.  Holding the lock across the whole sequence is what
guarantees the chunks land consecutively after their command (paper
§3.3.2, host half).

A codec that cannot insert its entries (the SQ is full) releases the CID
it allocated, and any pages pinned for it, before raising: the command
never reached the queue, so no completion will ever retire them.

Codecs hold no state: they operate on the driver instance passed in, so
one codec singleton serves every driver in the process.  The protocol
monitor's instrumentation keeps working unchanged because codecs reach
queue objects and the CID allocator through the same driver attributes
(``driver._alloc_cid``, ``res.sq.push_raw``, ...) it wraps per instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.chunking import CHUNK_SIZE, chunk_count, split_payload
from repro.core.inline_command import make_inline_command
from repro.core.reassembly import split_tagged
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import PAGE_SIZE
from repro.nvme.prp import build_prps
from repro.nvme.queues import QueueFullError, SubmissionQueue
from repro.nvme.sgl import build_sgl
from repro.sim.clock import SimClock
from repro.sim.config import TimingModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.driver import NvmeDriver


def submit_plain(sq: SubmissionQueue, cmd: NvmeCommand, clock: SimClock,
                 timing: TimingModel) -> int:
    """Insert a normal (non-inline) command — the unmodified driver path.

    The caller holds ``sq.lock`` and rings the doorbell afterwards.
    Returns the slot used.
    """
    slot = sq.push_raw(cmd.pack())
    clock.advance(timing.sqe_submit_ns)
    return slot


def _driver_error(message: str) -> Exception:
    """The driver's own exception type (imported late: the driver module
    imports the registry, and eager cross-imports here would make the
    package order-sensitive)."""
    from repro.host.driver import DriverError

    return DriverError(message)


class HostCodec:
    """One write-path encoding; stateless, shared across drivers."""

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        """Stage *data*, fill the SQE's data pointer, insert the SQE (and
        any payload chunks) under the SQ lock, optionally ring, and
        return the allocated CID."""
        raise NotImplementedError


class PrpWriteCodec(HostCodec):
    """Stock write path: stage data, build PRPs, insert SQE, doorbell.

    *private_buffer* allocates a dedicated DMA buffer for this command
    instead of reusing the queue's scratch area.  Mandatory at QD>1:
    concurrent in-flight writes staged into the shared scratch would
    overwrite each other before the device fetches them.  The buffer
    is freed automatically when the command's CID retires.
    """

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        if not data:
            raise _driver_error("PRP write requires a payload")
        res = driver.queue(qid)
        data_pages: List[int] = []
        if private_buffer:
            data_pages = driver.memory.alloc_pages(
                max(1, (len(data) + PAGE_SIZE - 1) // PAGE_SIZE))
            addr = data_pages[0]
            driver.memory.write(addr, data)
        else:
            addr = driver._stage_data(res, data)
        mapping = build_prps(driver.memory, addr, len(data))
        cmd.cid = driver._alloc_cid(res)
        res.pending_pages.setdefault(cmd.cid, []).extend(
            list(mapping.list_pages) + data_pages)
        cmd.prp1 = mapping.prp1
        cmd.prp2 = mapping.prp2
        cmd.cdw12 = len(data)
        with res.sq.lock:
            try:
                with driver.clock.span("drv.sq_submit"):
                    submit_plain(res.sq, cmd, driver.clock, driver.timing)
            except QueueFullError:
                driver._retire_cid(res, cmd.cid)
                raise
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


class SglWriteCodec(HostCodec):
    """SGL write path (§5 comparison): byte-granular data pointer."""

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        if not data:
            raise _driver_error("SGL write requires a payload")
        res = driver.queue(qid)
        addr = driver._stage_data(res, data)
        mapping = build_sgl(driver.memory, [(addr, len(data))])
        cmd.cid = driver._alloc_cid(res)
        res.pending_pages.setdefault(cmd.cid, []).extend(mapping.segment_pages)
        cmd.use_sgl()
        desc = mapping.inline.pack()
        cmd.prp1 = int.from_bytes(desc[:8], "little")
        cmd.prp2 = int.from_bytes(desc[8:], "little")
        cmd.cdw12 = len(data)
        with res.sq.lock:
            try:
                with driver.clock.span("drv.sq_submit"):
                    submit_plain(res.sq, cmd, driver.clock, driver.timing)
            except QueueFullError:
                driver._retire_cid(res, cmd.cid)
                raise
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


class InlineWriteCodec(HostCodec):
    """ByteExpress path: command + payload chunks under one SQ lock.

    Refused when the controller's Identify page does not advertise
    ByteExpress support — on stock firmware the chunks would be
    misparsed as commands, so feature detection is mandatory.
    """

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        if not driver.identify.byteexpress:
            raise _driver_error(
                "controller firmware does not support ByteExpress "
                "(Identify vendor capability byte is clear)")
        n = len(data)
        if not n:
            raise ValueError("inline submission requires a non-empty payload")
        res = driver.queue(qid)
        cmd.cid = driver._alloc_cid(res)
        cmd.cdw12 = n
        clock = driver.clock
        timing = driver.timing
        sq = res.sq
        with sq.lock:
            _start = clock.now
            try:
                # The space check comes first: a torn sequence would
                # violate the protocol, so nothing is inserted unless the
                # command and every chunk fit.
                if n <= CHUNK_SIZE:
                    # Dominant case: one command + one chunk.
                    if (sq.head - sq.tail - 1) % sq.depth < 2:
                        raise QueueFullError(
                            f"SQ{sq.qid}: need 2 slots for inline "
                            f"submit, have {sq.space()}")
                    make_inline_command(cmd, n)
                    sq.push_raw(cmd.pack())
                    clock.advance(timing.sqe_submit_ns)
                    sq.push_raw(data if n == CHUNK_SIZE
                                else data + b"\x00" * (CHUNK_SIZE - n))
                    clock.advance(timing.chunk_submit_ns)
                else:
                    needed = 1 + chunk_count(n)
                    if (sq.head - sq.tail - 1) % sq.depth < needed:
                        raise QueueFullError(
                            f"SQ{sq.qid}: need {needed} slots for inline "
                            f"submit, have {sq.space()}")
                    make_inline_command(cmd, n)
                    sq.push_raw(cmd.pack())
                    clock.advance(timing.sqe_submit_ns)
                    # Chunks land per slot (the monitor's ``push_raw``
                    # wrapper sees every one); their CPU cost is charged
                    # in one repeated advance — ``push_raw`` never reads
                    # the clock, so the arithmetic is bit-identical to
                    # advancing after each insert.
                    chunks = split_payload(data)
                    push = sq.push_raw
                    for chunk in chunks:
                        push(chunk)
                    clock.advance_repeat(timing.chunk_submit_ns,
                                         len(chunks))
            except QueueFullError:
                driver._retire_cid(res, cmd.cid)
                raise
            finally:
                clock.span_end("drv.sq_submit", _start)
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


class TaggedInlineWriteCodec(HostCodec):
    """ByteExpress tagged mode (§3.3.2 future work): self-describing
    chunks that the controller may fetch interleaved across queues."""

    def encode(self, driver: "NvmeDriver", cmd: NvmeCommand, data: bytes,
               qid: int, *, ring: bool = True, private_buffer: bool = False,
               payload_id: Optional[int] = None) -> int:
        if payload_id is None:
            raise _driver_error("tagged inline submission needs a payload_id")
        if not data:
            raise _driver_error("inline submission requires a payload")
        if not driver.identify.byteexpress:
            raise _driver_error(
                "controller firmware does not support ByteExpress")
        res = driver.queue(qid)
        cmd.cdw12 = len(data)
        cmd.cdw3 = payload_id
        make_inline_command(cmd, len(data))
        chunks = split_tagged(data, payload_id)
        cmd.cid = driver._alloc_cid(res)
        with res.sq.lock:
            with driver.clock.span("drv.sq_submit"):
                if res.sq.space() < 1 + len(chunks):
                    driver._retire_cid(res, cmd.cid)
                    raise _driver_error(
                        f"SQ{qid} cannot hold tagged submission")
                res.sq.push_raw(cmd.pack())
                driver.clock.advance(driver.timing.sqe_submit_ns)
                for chunk in chunks:
                    res.sq.push_raw(chunk)
                    driver.clock.advance(driver.timing.chunk_submit_ns)
            if ring:
                driver._ring_sq_doorbell(res)
        return cmd.cid


#: Shared codec singletons (codecs are stateless).
PRP_WRITE_CODEC = PrpWriteCodec()
SGL_WRITE_CODEC = SglWriteCodec()
INLINE_WRITE_CODEC = InlineWriteCodec()
TAGGED_INLINE_WRITE_CODEC = TaggedInlineWriteCodec()
