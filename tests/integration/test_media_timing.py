"""Media timing effects visible at the API: DRAM-hot vs NAND-cold reads,
round-robin fairness across queues."""


from repro.datapath import names
from repro.kvssd import KVStore
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.testbed import make_block_testbed, make_kv_testbed


def test_nand_resident_value_reads_slower_than_dram_hot():
    """GET of a value still in the DRAM segment buffer is fast; once the
    segment flushed to NAND, the read pays the media latency."""
    tb = make_kv_testbed()
    store = KVStore(tb.driver, tb.method("byteexpress"))
    store.put(b"hot-value-key-01", b"h" * 100)

    t0 = tb.clock.now
    store.get(b"hot-value-key-01")
    hot_ns = tb.clock.now - t0

    tb.personality.vlog.flush()
    tb.ssd.nand.drain()
    t0 = tb.clock.now
    store.get(b"hot-value-key-01")
    cold_ns = tb.clock.now - t0

    nand_read = tb.ssd.config.timing.nand_page_read_ns
    assert cold_ns > hot_ns + nand_read * 0.9


def test_round_robin_serves_queues_fairly():
    """With work pending on every queue, completions interleave instead
    of draining one queue first."""
    tb = make_block_testbed()
    qids = tb.driver.io_qids
    per_queue = 3
    for i in range(per_queue):
        for qid in qids:
            tb.driver.submit(names.BYTEEXPRESS,
                NvmeCommand(opcode=IoOpcode.WRITE, cdw10=0),
                bytes([qid]) * 64, qid=qid)
    order = []
    original_complete = tb.ssd.controller._complete

    def tracking_complete(qid, cmd, result):
        order.append(qid)
        return original_complete(qid, cmd, result)

    tb.ssd.controller._complete = tracking_complete
    tb.ssd.controller.process_all()
    # The first len(qids) completions hit distinct queues (one RR sweep).
    assert sorted(order[:len(qids)]) == sorted(qids)
    # And every queue got all its completions.
    for qid in qids:
        assert order.count(qid) == per_queue


def test_flush_latency_reflects_pending_nand_work():
    """FLUSH after writes waits for outstanding NAND programs."""
    from repro.nvme.passthrough import PassthruRequest
    from repro.sim.config import SimConfig

    tb = make_block_testbed(config=SimConfig())  # NAND on

    tb.driver.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                       data=b"f" * 4096, cdw10=0))
    t0 = tb.ssd.clock.now
    tb.driver.passthru(PassthruRequest(opcode=IoOpcode.FLUSH))
    flush_ns = tb.ssd.clock.now - t0
    # The program takes 350 us; the flush must have absorbed most of it.
    assert flush_ns > 100_000
