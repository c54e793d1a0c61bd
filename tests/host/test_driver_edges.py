"""Remaining driver edge cases."""

import pytest

from repro.datapath import names
from repro.host.driver import BatchResult
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode, StatusCode
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed


def test_batch_result_ok_flags_failures():
    good = BatchResult(ops=2, elapsed_ns=10.0, pcie_bytes=1,
                       statuses=[0, 0])
    bad = BatchResult(ops=2, elapsed_ns=10.0, pcie_bytes=1,
                      statuses=[0, StatusCode.INTERNAL_ERROR])
    assert good.ok and not bad.ok
    assert good.mean_latency_ns == 5.0


def test_wait_handles_back_to_back_completions():
    tb = make_block_testbed()
    for i in range(3):
        tb.driver.submit(names.BYTEEXPRESS,
            NvmeCommand(opcode=IoOpcode.WRITE, cdw10=i * 4096),
            bytes([i]) * 64, qid=1)
    # One process_all happens inside the first wait; the other two
    # completions must be reaped without reprocessing.
    processed_before = None
    for i in range(3):
        cqe = tb.driver.wait(1)
        assert cqe.ok
        if processed_before is None:
            processed_before = tb.ssd.controller.commands_processed
    assert tb.ssd.controller.commands_processed == processed_before


def test_scratch_boundary_exact_fit():
    from repro.nvme.passthrough import PassthruRequest

    tb = make_block_testbed()
    payload = b"e" * (64 * 1024)  # exactly the scratch size
    res = tb.driver.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                             data=payload, cdw10=0))
    assert res.ok
    assert tb.personality.read_back(0, len(payload)) == payload


def test_small_queue_depth_config_still_boots():
    cfg = SimConfig(sq_depth=8, cq_depth=8, num_io_queues=2).nand_off()
    tb = make_block_testbed(config=cfg)
    assert tb.driver.io_qids == [1, 2]
    assert tb.method("byteexpress").write(b"x" * 64).ok


def test_deep_inline_payload_respects_queue_capacity():
    """An inline payload needing more slots than a shallow SQ holds is
    rejected up-front by the space check."""
    from repro.nvme.queues import QueueFullError

    cfg = SimConfig(sq_depth=8).nand_off()
    tb = make_block_testbed(config=cfg)
    with pytest.raises(QueueFullError):
        tb.driver.submit(names.BYTEEXPRESS, NvmeCommand(opcode=IoOpcode.WRITE),
                         b"x" * (64 * 10), qid=1)
