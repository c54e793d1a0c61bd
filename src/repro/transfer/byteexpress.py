"""ByteExpress tagged transfer (§3.3.2 future work).

The queue-local design the paper implements needs nothing beyond the
generic codec adapter (:mod:`repro.transfer.codec_transfer`).  The tagged
relaxation does: each write carries a payload id that the self-describing
chunks quote, so the controller can reassemble chunks fetched out of
order across SQs.  This method hands out those ids.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.datapath import names as dp_names
from repro.host.driver import NvmeDriver
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.transfer.base import TransferMethod, TransferStats


class TaggedByteExpressTransfer(TransferMethod):
    """Out-of-order reassembly variant; requires a controller built in
    ``MODE_TAGGED``.  Chunk capacity drops to 56 B (8 B header), which the
    reassembly ablation quantifies against the queue-local design."""

    name = dp_names.BYTEEXPRESS_TAGGED

    def __init__(self, driver: NvmeDriver) -> None:
        self.driver = driver
        self._ids = itertools.count(1)

    def write(self, payload: bytes, opcode: int = IoOpcode.WRITE,
              cdw10: int = 0, cdw11: int = 0, nsid: int = 1,
              qid: Optional[int] = None) -> TransferStats:
        qid = qid if qid is not None else self.driver.io_qids[0]
        clock = self.driver.clock
        counter = self.driver.link.counter
        start_ns, start_bytes = clock.now, counter.total_bytes
        clock.advance(self.driver.timing.passthrough_ns)

        cmd = NvmeCommand(opcode=opcode, nsid=nsid, cdw10=cdw10, cdw11=cdw11)
        payload_id = next(self._ids) & 0xFFFFFFFF
        self.driver.submit(self.name, cmd, payload, qid,
                           payload_id=payload_id)
        cqe = self.driver.wait(qid)
        return TransferStats(method=self.name, payload_len=len(payload),
                             latency_ns=clock.now - start_ns,
                             pcie_bytes=counter.total_bytes - start_bytes,
                             commands=1, status=cqe.status)
