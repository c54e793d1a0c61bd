"""Golden traffic-fingerprint guard for the datapath refactor (ISSUE 5).

The datapath-registry refactor moves the PRP and ByteExpress encode /
decode logic out of the driver and controller monoliths.  It must be a
pure code motion: the wire traffic (TLP counts and bytes per category),
the simulated clock, and the completion order must not change by a
single TLP or nanosecond.

``benchmarks/results/golden_datapath_parity.json`` was captured from the
pre-refactor tree with exactly the workload below, for every registered
transfer method; this test regenerates the fingerprint on every
benchmark (smoke) run and asserts equality.
Regenerate deliberately (a *justified* protocol change) with::

    PYTHONPATH=src python benchmarks/test_golden_datapath_parity.py
"""

from __future__ import annotations

import json
import pathlib

from repro.datapath import registry
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, PAGE_SIZE
from repro.ssd.context import MODE_QUEUE_LOCAL, MODE_TAGGED
from repro.testbed import make_block_testbed

GOLDEN_PATH = (pathlib.Path(__file__).parent / "results"
               / "golden_datapath_parity.json")

#: Boundary-heavy payload sizes (1 B, chunk edges, page edges).
SIZES = (1, 32, 63, 64, 65, 256, 1024, 4095, 4096)
#: Methods the guard pins: every registered transfer method.
METHODS = registry.method_names()
#: Ops in the queue-depth>1 completion-order phase.
BATCH_OPS = 8


def _payload(i: int, size: int) -> bytes:
    return bytes((i * 7 + j) & 0xFF for j in range(size))


def _fingerprint_method(method: str) -> dict:
    # Each method gets the rig it needs: the BAR byte window for the
    # load/store comparators, a tagged controller for tag reassembly.
    caps = registry.resolve(method).caps
    tb = make_block_testbed(
        include_mmio=caps.bar_window,
        mode=MODE_TAGGED if caps.tag_reassembly else MODE_QUEUE_LOCAL)
    # Phase 1: synchronous passthrough sweep over boundary sizes.
    statuses = []
    for i, size in enumerate(SIZES):
        stats = tb.method(method).write(
            _payload(i, size), cdw10=(i * PAGE_SIZE) & 0xFFFFFFFF)
        statuses.append(stats.status)
    # Phase 2: QD>1 batch — one doorbell, reap all — pins completion
    # order.  Only methods with a host codec submit as one command
    # sequence; the layered ones (BandSlim, BAR window, hybrid) skip it.
    qid = tb.driver.io_qids[0]
    cids = []
    if registry.resolve(method).host_codec is not None:
        for i in range(BATCH_OPS):
            cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1,
                              cdw10=(i * PAGE_SIZE) & 0xFFFFFFFF)
            cids.append(tb.driver.submit(
                method, cmd, _payload(i, 96), qid, ring=False,
                private_buffer=True, payload_id=0x1000 + i))
        tb.driver.kick(qid)
        tb.ssd.controller.process_all()
    completion_order = [cqe.cid for cqe in tb.driver.reap(qid)]
    counter = tb.traffic
    return {
        "statuses": statuses,
        "submit_cids": cids,
        "completion_order": completion_order,
        "clock_ns": round(tb.clock.now, 6),
        "total_bytes": counter.total_bytes,
        "tlp_breakdown": counter.tlp_breakdown(),
        "byte_breakdown": counter.breakdown(),
    }


def capture_fingerprint() -> dict:
    return {method: _fingerprint_method(method) for method in METHODS}


def test_golden_datapath_parity():
    assert GOLDEN_PATH.exists(), (
        f"golden fingerprint missing: {GOLDEN_PATH} — capture it on a "
        f"known-good tree with `python {pathlib.Path(__file__).name}`")
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = capture_fingerprint()
    for method in METHODS:
        assert fresh[method] == golden[method], (
            f"{method}: wire fingerprint diverged from the pre-refactor "
            f"golden capture")


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture_fingerprint(), indent=2,
                                      sort_keys=True) + "\n")
    print(f"captured {GOLDEN_PATH}")
