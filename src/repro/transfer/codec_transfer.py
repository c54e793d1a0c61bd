"""The generic adapter for every registry method with a host codec.

PRP (the paper's baseline, Figure 3(a)), SGL (§5) and ByteExpress (the
paper's contribution, Figure 3(d)) differ only in how the driver encodes
the SQE and moves the payload, and that lives in their host codec
(:mod:`repro.datapath.codecs`).  Seen from a benchmark, each is one
synchronous passthrough command, so one class serves them all, keyed by
the registry name.
"""

from __future__ import annotations

from typing import Optional

from repro.host.driver import NvmeDriver
from repro.nvme.constants import IoOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.transfer.base import TransferMethod, TransferStats


class CodecTransfer(TransferMethod):
    """One ``driver.passthru`` per write, encoded by *name*'s host codec."""

    def __init__(self, driver: NvmeDriver, name: str) -> None:
        self.driver = driver
        self.name = name

    def write(self, payload: bytes, opcode: int = IoOpcode.WRITE,
              cdw10: int = 0, cdw11: int = 0, nsid: int = 1,
              qid: Optional[int] = None) -> TransferStats:
        req = PassthruRequest(opcode=opcode, nsid=nsid, data=payload,
                              cdw10=cdw10, cdw11=cdw11)
        result = self.driver.passthru(req, method=self.name, qid=qid)
        return TransferStats(method=self.name, payload_len=len(payload),
                             latency_ns=result.latency_ns,
                             pcie_bytes=result.pcie_bytes,
                             commands=1, status=result.status)
