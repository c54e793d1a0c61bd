"""Transfer methods: every mechanism the paper compares, one interface.

Use :func:`make_methods` to build the full comparison suite over a fresh
device + driver pair — this is what the Figure 5/6/7 benchmarks sweep.
The suite is built from the datapath registry
(:mod:`repro.datapath.registry`): registering a new method there makes
it appear here (and in the CLI, engine, and sweeps) automatically.
"""

from typing import Dict

from repro.datapath import registry as datapath_registry
from repro.host.driver import NvmeDriver
from repro.ssd.context import MODE_TAGGED
from repro.ssd.device import OpenSsd
from repro.transfer.bandslim import (
    BandSlimDeviceLayer,
    BandSlimTransfer,
    FragmentView,
    pack_fragment,
    unpack_fragment,
)
from repro.transfer.bar_window import (
    MMIO_WINDOW,
    PIO_WINDOW,
    BarWindowDevice,
    BarWindowPath,
    BarWindowTransfer,
)
from repro.transfer.base import AggregateStats, TransferMethod, TransferStats
from repro.transfer.byteexpress import TaggedByteExpressTransfer
from repro.transfer.codec_transfer import CodecTransfer
from repro.transfer.hybrid_transfer import HybridTransfer


def make_methods(ssd: OpenSsd, driver: NvmeDriver,
                 include_mmio: bool = True) -> Dict[str, TransferMethod]:
    """Build the standard method suite bound to one device/driver pair.

    Every buildable registry spec contributes: its factory builds it, or,
    for a spec with only a host codec, the generic :class:`CodecTransfer`.
    Caps gate the roster: ``bar_window`` methods only when *include_mmio*
    (the BAR byte window is an opt-in testbed feature),
    ``tag_reassembly`` methods only when the device controller actually
    runs in tagged mode (a queue-local controller would misparse
    self-describing chunks).
    """
    methods: Dict[str, TransferMethod] = {}
    for spec in datapath_registry.specs():
        if not spec.buildable:
            continue
        if spec.caps.bar_window and not include_mmio:
            continue
        if spec.caps.tag_reassembly and ssd.controller.mode != MODE_TAGGED:
            continue
        if spec.factory is None:
            methods[spec.name] = CodecTransfer(driver, spec.name)
        else:
            methods[spec.name] = spec.factory(ssd, driver, methods)
    return methods


__all__ = [
    "TransferMethod",
    "TransferStats",
    "AggregateStats",
    "CodecTransfer",
    "TaggedByteExpressTransfer",
    "BandSlimTransfer",
    "BandSlimDeviceLayer",
    "pack_fragment",
    "unpack_fragment",
    "FragmentView",
    "BarWindowPath",
    "BarWindowTransfer",
    "BarWindowDevice",
    "MMIO_WINDOW",
    "PIO_WINDOW",
    "HybridTransfer",
    "make_methods",
]
