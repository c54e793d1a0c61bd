"""Load/store comparators over a BAR byte window (paper §3.1, Figure 3(b)).

Two designs bypass the NVMe queues entirely and move the payload with CPU
stores into a BAR-mapped device buffer, then store the length to a
commit register and poll a status register:

* ``mmio`` — the 2B-SSD / ByteFS byte interface.  Payload lines are
  write-combined cacheline stores, the commit is a doorbell-class posted
  write, and the status poll is an uncached MMIO *read*: a full link
  round trip.
* ``pio_coherent`` — coherent-link PIO (arXiv 2409.08141 style).  The
  buffer is mapped cacheably over a CXL.mem-class link, so stores
  pipeline instead of serialising at the write-combining buffer, the
  commit is one more store, and the coherence protocol keeps the status
  word fresh (``pio_poll_ns``, not a round trip).  Every access is
  charged to ``CAT_PIO_DATA``: the method produces zero doorbell,
  command-fetch and CQE traffic by construction, which the crash harness
  relies on (a ``pio_coherent`` run only offers TLP cut opportunities).

Both stay fast beyond 1 KB (the property §4.2 concedes to such designs),
but the paper rejects them for compatibility: they need a new host
interface layer and device buffer management outside NVMe.  They differ
only in the constants of one :class:`BarWindowPath` record; one host
body (:class:`BarWindowTransfer`) and one device body
(:class:`BarWindowDevice`) serve both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datapath import names as dp_names
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, StatusCode
from repro.pcie.mmio import BYTE_WINDOW_SIZE
from repro.pcie.traffic import CAT_DOORBELL, CAT_MMIO_DATA, CAT_PIO_DATA
from repro.ssd.controller import CommandContext
from repro.ssd.device import OpenSsd
from repro.transfer.base import TransferMethod, TransferStats

_CACHELINE = 64


@dataclass(frozen=True)
class BarWindowPath:
    """Everything that distinguishes one BAR-window comparator."""

    #: Registry method name.
    method: str
    #: ``CommandContext.transport`` tag the firmware handlers see.
    transport: str
    #: BAR register the host stores the payload length to, committing it.
    commit_reg: int
    #: Status register the host polls: 0 while in progress, then
    #: status + 1 (the register is write-once per op).
    status_reg: int
    #: Traffic category of the payload line stores.
    data_category: str
    #: Traffic category of the commit store and the status poll.
    control_category: str
    #: ``TimingModel`` field charged per payload line store.
    line_ns: str
    #: ``TimingModel`` field charged for the commit store.
    commit_ns: str
    #: ``TimingModel`` field the device charges per latched line.
    latch_ns: str
    #: ``TimingModel`` field charged for the status poll; ``None``
    #: charges the link's uncached-read round trip instead.
    poll_ns: Optional[str]


MMIO_WINDOW = BarWindowPath(
    method=dp_names.MMIO, transport=dp_names.TRANSPORT_MMIO,
    commit_reg=0x2000, status_reg=0x2004,
    data_category=CAT_MMIO_DATA, control_category=CAT_DOORBELL,
    line_ns="mmio_cacheline_ns", commit_ns="doorbell_write_ns",
    latch_ns="mmio_latch_ns", poll_ns=None)

PIO_WINDOW = BarWindowPath(
    method=dp_names.PIO_COHERENT, transport=dp_names.TRANSPORT_PIO,
    commit_reg=0x3000, status_reg=0x3004,
    data_category=CAT_PIO_DATA, control_category=CAT_PIO_DATA,
    line_ns="pio_store_ns", commit_ns="pio_store_ns",
    latch_ns="pio_latch_ns", poll_ns="pio_poll_ns")


class BarWindowDevice:
    """Device half: latch window stores, dispatch to firmware handlers."""

    def __init__(self, ssd: OpenSsd, path: BarWindowPath,
                 target_opcode: int = IoOpcode.WRITE) -> None:
        self.ssd = ssd
        self.path = path
        self.target_opcode = target_opcode
        self.payloads = 0
        ssd.bar.on_write(path.commit_reg, self._on_commit)

    def _on_commit(self, length: int) -> None:
        path = self.path
        if length == 0 or length > BYTE_WINDOW_SIZE:
            self.ssd.bar.write32(path.status_reg, StatusCode.INVALID_FIELD)
            return
        lines = (length + _CACHELINE - 1) // _CACHELINE
        self.ssd.clock.advance(
            getattr(self.ssd.config.timing, path.latch_ns) * lines)
        payload = self.ssd.bar.window_read(0, length)
        ctx = CommandContext(
            cmd=NvmeCommand(opcode=self.target_opcode, cdw12=length),
            qid=0, data=payload, transport=path.transport)
        result = self.ssd.controller.dispatch_local(ctx)
        self.payloads += 1
        self.ssd.bar.write32(path.status_reg, result.status + 1)


class BarWindowTransfer(TransferMethod):
    """Host half: cacheline stores + commit store + status poll."""

    def __init__(self, ssd: OpenSsd, path: BarWindowPath) -> None:
        self.ssd = ssd
        self.path = path
        self.name = path.method
        self.interface = BarWindowDevice(ssd, path)

    def write(self, payload: bytes, opcode: int = IoOpcode.WRITE,
              cdw10: int = 0, cdw11: int = 0, nsid: int = 1,
              qid: Optional[int] = None) -> TransferStats:
        if not payload:
            raise ValueError(f"{self.name} transfer requires a payload")
        if len(payload) > BYTE_WINDOW_SIZE:
            raise ValueError(
                f"payload exceeds the {BYTE_WINDOW_SIZE} B byte window")
        path = self.path
        bar = self.ssd.bar
        clock = self.ssd.clock
        timing = self.ssd.config.timing
        link = self.ssd.link
        counter = link.counter
        start_ns, start_bytes = clock.now, counter.total_bytes

        self.interface.target_opcode = opcode
        bar.write32(path.status_reg, 0)
        line_ns = getattr(timing, path.line_ns)
        for off in range(0, len(payload), _CACHELINE):
            line = payload[off:off + _CACHELINE]
            bar.window_write(off, line)
            link.host_mmio_write(len(line), path.data_category)
            clock.advance(line_ns)
        # The commit store triggers device-side processing.
        bar.write32(path.commit_reg, len(payload))
        link.host_mmio_write(4, path.control_category)
        clock.advance(getattr(timing, path.commit_ns))
        round_trip_ns = link.host_mmio_read(4, path.control_category)
        clock.advance(round_trip_ns if path.poll_ns is None
                      else getattr(timing, path.poll_ns))
        raw_status = bar.read32(path.status_reg)
        status = (raw_status - 1) if raw_status else StatusCode.INTERNAL_ERROR

        return TransferStats(method=self.name, payload_len=len(payload),
                             latency_ns=clock.now - start_ns,
                             pcie_bytes=counter.total_bytes - start_bytes,
                             commands=0, status=status)
