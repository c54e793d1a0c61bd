"""Burst-mode device path (ISSUE 3): multi-SQE burst DMA fetch and
coalesced completion posting.

Both mechanisms are opt-in (``burst_limit`` / ``cq_coalesce`` > 1) and
must be invisible when off; when on they must preserve data and command
semantics while measurably shrinking the TLP counts of their category.
"""

from repro.datapath import names
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.pcie.mmio import sq_doorbell_offset
from repro.pcie.traffic import CAT_CMD_FETCH, CAT_CQE, CAT_MSIX
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed


def _rig(burst=1, coalesce=1, queues=1):
    cfg = SimConfig(num_io_queues=queues, burst_limit=burst,
                    cq_coalesce=coalesce).nand_off()
    return make_block_testbed(config=cfg)


def _stage_inline(tb, n, qid=1):
    """Insert *n* 64 B ByteExpress writes without ringing, then one
    doorbell for the whole batch (2 SQEs per command: CMD + chunk)."""
    payloads = [bytes([i + 1]) * 64 for i in range(n)]
    for i, payload in enumerate(payloads):
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=i * 4096)
        tb.driver.submit(names.BYTEEXPRESS, cmd, payload, qid, ring=False)
    tb.driver.kick(qid)
    return payloads


# ----------------------------------------------------------------------
# multi-SQE burst fetch
# ----------------------------------------------------------------------

def test_burst_fetch_preserves_data_and_cuts_cmd_fetch_tlps():
    stock, burst = _rig(burst=1), _rig(burst=8)
    tlps = {}
    for name, tb in (("stock", stock), ("burst", burst)):
        before = tb.traffic.category(CAT_CMD_FETCH).tlp_count
        payloads = _stage_inline(tb, 6)
        assert tb.ssd.controller.process_all() == 6
        for i, payload in enumerate(payloads):
            assert tb.personality.read_back(i * 4096, 64) == payload
        tlps[name] = tb.traffic.category(CAT_CMD_FETCH).tlp_count - before
    assert burst.ssd.controller.burst_fetches >= 1
    assert stock.ssd.controller.burst_fetches == 0
    # 12 SQEs: stock pays one MRd+CplD pair each; an 8-then-4 burst pays
    # one MRd per window (+ CplD splits), far fewer TLPs.
    assert tlps["burst"] < tlps["stock"] / 2


def test_burst_faster_than_per_sqe_fetch():
    elapsed = {}
    for limit in (1, 8):
        tb = _rig(burst=limit)
        _stage_inline(tb, 8)
        t0 = tb.clock.now
        tb.ssd.controller.process_all()
        elapsed[limit] = tb.clock.now - t0
    assert elapsed[8] < elapsed[1]


def test_burst_clamps_to_published_tail():
    """The device services exactly the doorbell'd window — a tail that
    publishes only part of the inserted entries bounds the burst."""
    tb = _rig(burst=16)
    ctrl = tb.ssd.controller
    payloads = [bytes([0x10 + i]) * 64 for i in range(6)]
    for i, payload in enumerate(payloads):
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=i * 4096)
        tb.driver.submit(names.PRP, cmd, payload, 1, ring=False,
                         private_buffer=True)
    before = ctrl.commands_processed
    # publish only the first 4 entries
    tb.ssd.bar.write32(sq_doorbell_offset(1), 4)
    ctrl.process_all()
    assert ctrl.commands_processed - before == 4
    assert tb.personality.read_back(3 * 4096, 64) == payloads[3]
    assert tb.personality.read_back(4 * 4096, 64) == bytes(64)  # unserviced
    # publishing the full tail releases the remainder
    tb.driver.kick(1)
    ctrl.process_all()
    assert ctrl.commands_processed - before == 6
    assert tb.personality.read_back(5 * 4096, 64) == payloads[5]


def test_burst_window_never_wraps_the_ring_end():
    """A window that would cross the ring end is split: the fetch stays
    one contiguous MRd and every command still executes correctly."""
    cfg = SimConfig(num_io_queues=1, sq_depth=16, cq_depth=16,
                    burst_limit=8).nand_off()
    tb = make_block_testbed(config=cfg)
    ctrl = tb.ssd.controller
    # walk the ring near its end, then stage a batch across the wrap
    for i in range(6):
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=i * 4096)
        tb.driver.submit(names.PRP, cmd, bytes([i + 1]) * 64, 1,
                         private_buffer=True)
    ctrl.process_all()
    tb.driver.reap(1)  # retire the CQEs so the host SQ head advances
    payloads = _stage_inline(tb, 6)  # 12 SQEs from slot 6: wraps at 16
    assert ctrl.process_all() == 6
    for i, payload in enumerate(payloads):
        assert tb.personality.read_back(i * 4096, 64) == payload


def test_burst_off_by_default_no_stat_movement():
    tb = make_block_testbed(config=SimConfig(num_io_queues=1).nand_off())
    _stage_inline(tb, 6)
    tb.ssd.controller.process_all()
    assert tb.ssd.controller.burst_fetches == 0
    assert tb.ssd.controller.cqe_flushes == 0


# ----------------------------------------------------------------------
# coalesced completion posting
# ----------------------------------------------------------------------

def test_cqe_coalescing_batches_dma_writes_and_interrupts():
    tb = _rig(coalesce=4)
    ctrl = tb.ssd.controller
    cqe_before = tb.traffic.category(CAT_CQE).tlp_count
    msix_before = tb.traffic.category(CAT_MSIX).tlp_count
    _stage_inline(tb, 8)
    ctrl.process_all()
    assert ctrl.cqe_flushes == 2  # two full batches of 4
    assert tb.traffic.category(CAT_MSIX).tlp_count - msix_before == 2
    assert tb.traffic.category(CAT_CQE).tlp_count - cqe_before == 2
    # the completions themselves are all present and well-formed
    cqes = tb.driver.reap(1)
    assert len(cqes) == 8 and all(c.ok for c in cqes)


def test_partial_cqe_batch_flushed_at_quiescence():
    """Coalescing must never strand a completion: a batch smaller than
    ``cq_coalesce`` is posted when the firmware loop runs dry."""
    tb = _rig(coalesce=8)
    ctrl = tb.ssd.controller
    msix_before = tb.traffic.category(CAT_MSIX).tlp_count
    _stage_inline(tb, 3)
    ctrl.process_all()  # quiesce() flushes the partial batch
    assert ctrl.cqe_flushes == 1
    assert tb.traffic.category(CAT_MSIX).tlp_count - msix_before == 1
    cqes = tb.driver.reap(1)
    assert len(cqes) == 3 and all(c.ok for c in cqes)


def test_coalescing_with_burst_is_sync_correct_end_to_end():
    """Belt and braces: the full burst configuration still round-trips
    through the synchronous passthrough path one command at a time."""
    tb = _rig(burst=4, coalesce=4)
    from repro.nvme.passthrough import PassthruRequest

    for i in range(5):
        payload = bytes([0xA0 + i]) * 100
        res = tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE, data=payload,
                            cdw10=i * 4096),
            method="byteexpress")
        assert res.ok
        assert tb.personality.read_back(i * 4096, 100) == payload
