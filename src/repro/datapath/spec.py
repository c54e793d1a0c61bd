"""Datapath specifications: one registration per transfer method.

A :class:`DatapathSpec` bundles everything the stack needs to know about
one transfer method, so adding a method means writing *one* registration
instead of editing the driver, the controller, the engine, the CLI and
the benchmarks:

* a **host codec** — how the driver encodes the SQE and moves the
  payload (PRP staging, SGL segments, inline chunk append, tagged
  chunks).  Primitive write paths have one; layered methods (BandSlim,
  the BAR window, hybrid) orchestrate primitives and leave it ``None``;
* **capability flags** (:class:`DatapathCaps`) — what the rest of the
  stack may ask of the method (reads, inline transport, tag reassembly,
  async-engine support, batched submission, Figure-5 membership);
* a **factory** — builds the :class:`~repro.transfer.base.TransferMethod`
  benchmark object for :func:`repro.transfer.make_methods`.  Only
  layered methods (and the tagged variant, which hands out payload ids)
  need one: a spec with just a host codec is wrapped in the generic
  :class:`~repro.transfer.codec_transfer.CodecTransfer`.

The device half is not part of the spec: the controller picks the PRP or
SGL decoder from the command's PSDT field
(:func:`~repro.datapath.decoders.decoder_for_psdt`) and recognises inline
payloads by their command marker.

Specs are plain data; behaviour lives in the codec and factory they
reference.  The registry (:mod:`repro.datapath.registry`) is the single
source of truth for which methods exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.chunking import chunk_count
from repro.core.reassembly import tagged_chunk_count
from repro.nvme.constants import BANDSLIM_FRAGMENT_CAPACITY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datapath.codecs import HostCodec


@dataclass(frozen=True)
class DatapathCaps:
    """What a transfer method supports, declared once at registration."""

    #: The driver can move host→device payloads with this method.
    supports_write: bool = True
    #: The method has a dedicated device→host read encoding.
    supports_read: bool = False
    #: The payload rides the submission queue itself (ByteExpress family):
    #: subject to the circuit breaker and the firmware capability bit.
    inline: bool = False
    #: Chunks are self-describing and reassembled out of order; requires
    #: a controller built in ``MODE_TAGGED``.
    tag_reassembly: bool = False
    #: The payload is split across multiple NVMe commands (BandSlim).
    fragmented: bool = False
    #: The asynchronous multi-queue engine can drive this method.
    engine_capable: bool = False
    #: Submission is a single command sequence that ``write_batch`` can
    #: amortise under one doorbell.
    batchable: bool = False
    #: Swept by the Figure-5 benchmark and the CLI sweep default.
    figure5: bool = False
    #: Uses the MMIO BAR byte window instead of the queue protocol; only
    #: built when a testbed asks for the window (``include_mmio``).
    bar_window: bool = False

    def slots_needed(self, payload_len: int, tagged: bool = False) -> int:
        """Worst-case SQ slots one submission of *payload_len* occupies."""
        if self.inline:
            if tagged or self.tag_reassembly:
                return 1 + tagged_chunk_count(payload_len)
            return 1 + chunk_count(payload_len)
        if self.fragmented:
            cap = BANDSLIM_FRAGMENT_CAPACITY
            return max(1, (payload_len + cap - 1) // cap)
        return 1


#: Builds the benchmark-facing TransferMethod: ``factory(ssd, driver,
#: built)`` where *built* maps already-constructed method names to their
#: instances (layered methods compose earlier primitives).
MethodFactory = Callable[[Any, Any, dict], Any]


@dataclass(frozen=True)
class DatapathSpec:
    """One transfer method's complete datapath registration."""

    name: str
    caps: DatapathCaps = field(default_factory=DatapathCaps)
    #: Driver-side encoder; ``None`` for layered/orchestrated methods.
    host_codec: Optional["HostCodec"] = None
    factory: Optional[MethodFactory] = None
    #: One-line description for ``repro info`` style listings.
    summary: str = ""

    @property
    def buildable(self) -> bool:
        """``make_methods`` can build this method: it has a factory, or a
        host codec the generic adapter drives."""
        return self.factory is not None or self.host_codec is not None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("datapath spec needs a non-empty name")
        if self.caps.tag_reassembly and not self.caps.inline:
            raise ValueError(
                f"{self.name}: tag reassembly implies the inline transport")
