"""Shadow-doorbell mode under faults (ISSUE 3 satellites).

Shadow mode turns doorbell publication into a plain host-memory store;
the fault surface moves with it.  DROP_DOORBELL now models a tail store
that never became visible to the device — the timeout re-ring, which
repeats the store (and escalates to a BAR wake on a parked device), must
still recover it at both the passthrough and engine levels.  Torn or
garbage shadow values must be rejected exactly like malformed BAR
doorbells: the fetch path may never chase an unpublished tail.
"""

from repro.datapath import names
from repro.engine import LoadGenerator, StreamSpec
from repro.faults import DROP_DOORBELL, FaultPlan
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import IoOpcode
from repro.nvme.passthrough import PassthruRequest
from repro.pcie.traffic import CAT_DOORBELL, CAT_SHADOW_SYNC, EVT_TIMEOUT
from repro.sim.config import SimConfig
from repro.testbed import make_block_testbed, make_engine_testbed


def _shadow_cfg(queues=2, **kw):
    return SimConfig(num_io_queues=queues, doorbell_mode="shadow",
                     **kw).nand_off()


def _wreq(payload, offset=0):
    return PassthruRequest(opcode=IoOpcode.WRITE, data=payload, cdw10=offset)


# Tests below forge torn hardware stores: the forged values *are*
# shadow-invariant violations (the REPRO_VERIFY monitor flagging them
# is correct), but here they model a fault below the host protocol
# layer — so those rigs run unmonitored via Testbed.unmonitor().


def _bringup_opportunities(kind, config):
    """Fault opportunities of *kind* consumed by bring-up under *config*
    (same probe idiom as the PR 1 recovery tests)."""
    probe_plan = FaultPlan.scheduled({kind: [10 ** 9]})
    probe = make_block_testbed(config=config, fault_plan=probe_plan)
    return probe.ssd.faults.opportunities[kind]


# ----------------------------------------------------------------------
# bring-up + steady-state traffic shape
# ----------------------------------------------------------------------

def test_dbbuf_config_arms_both_sides():
    tb = make_block_testbed(config=_shadow_cfg())
    assert tb.driver.shadow is not None
    res = tb.driver.passthru(_wreq(b"\x11" * 64), method="byteexpress")
    assert res.ok
    assert tb.personality.read_back(0, 64) == b"\x11" * 64
    assert tb.ssd.controller.shadow_syncs >= 1
    assert tb.driver.shadow_rings >= 1


def test_shadow_mode_halves_doorbell_tlps():
    """The tentpole acceptance shape at QD 1 already: almost every
    doorbell TLP disappears once the device polls the shadow page."""
    deltas = {}
    for mode in ("mmio", "shadow"):
        tb = make_block_testbed(
            config=SimConfig(num_io_queues=2, doorbell_mode=mode).nand_off())
        before = tb.traffic.category(CAT_DOORBELL).tlp_count
        for i in range(20):
            res = tb.driver.passthru(_wreq(bytes([i + 1]) * 64,
                                           offset=i * 4096),
                                     method="byteexpress")
            assert res.ok
        deltas[mode] = tb.traffic.category(CAT_DOORBELL).tlp_count - before
    assert deltas["shadow"] <= deltas["mmio"] * 0.5
    # and the replacement traffic exists but is far cheaper
    assert deltas["shadow"] < 20


# ----------------------------------------------------------------------
# DROP_DOORBELL: a tail store that never became visible
# ----------------------------------------------------------------------

def test_dropped_shadow_store_recovered_by_timeout_rering():
    cfg = _shadow_cfg()
    idx = _bringup_opportunities(DROP_DOORBELL, cfg)
    plan = FaultPlan.scheduled({DROP_DOORBELL: [idx]})
    tb = make_block_testbed(config=cfg, fault_plan=plan)
    payload = b"\x5A" * 64
    res = tb.driver.passthru(_wreq(payload), method="byteexpress")
    assert res.ok
    assert tb.personality.read_back(0, 64) == payload
    # re-ringing (repeating the store) recovered it without resubmission
    assert tb.driver.timeouts == 1
    assert tb.driver.retries == 0
    assert tb.traffic.event_count(EVT_TIMEOUT) == 1


def test_engine_recovers_dropped_shadow_store_at_depth():
    cfg = _shadow_cfg(queues=2)
    probe_plan = FaultPlan.scheduled({DROP_DOORBELL: [10 ** 9]})
    probe = make_engine_testbed(queues=2, config=cfg,
                                fault_plan=probe_plan)
    first_io = probe.ssd.faults.opportunities[DROP_DOORBELL]

    plan = FaultPlan.scheduled({DROP_DOORBELL: [first_io]})
    tb = make_engine_testbed(queues=2, config=_shadow_cfg(queues=2),
                             fault_plan=plan)
    eng = tb.make_engine(queues=2, qd=4)
    futs = [eng.submit(b"d" * 64, cdw10=i * 4096) for i in range(8)]
    eng.drain()
    assert all(f.ok for f in futs)
    assert eng.stats.re_rings >= 1
    # The re-ring fully recovered the stalled commands; the reactor
    # must not charge them as timeouts (they never lost a CQE).
    assert eng.stats.timeouts == 0
    # re-ring suffices: no resubmission needed for a lost tail update
    assert all(f.attempts == 1 for f in futs)


# ----------------------------------------------------------------------
# torn / garbage shadow values
# ----------------------------------------------------------------------

def test_torn_shadow_tail_is_ignored_not_fetched():
    """An out-of-range tail in the shadow page (torn 32-bit store) must
    look like garbage, not like work: no fetch, no head movement."""
    tb = make_block_testbed(config=_shadow_cfg()).unmonitor()
    ctrl = tb.ssd.controller
    before = ctrl.commands_processed
    tb.driver.shadow.write_sq_tail(1, 0x4000_0000)  # >> sq_depth
    assert ctrl.process_all() == 0
    assert ctrl.commands_processed == before
    # a real command on the other queue forces a charged sync, which
    # must reject (and count) the garbage value while serving q2
    res = tb.driver.passthru(_wreq(b"\x77" * 64), method="byteexpress",
                             qid=2)
    assert res.ok
    assert ctrl.shadow_rejects >= 1
    # q1 recovers as soon as a valid tail is published
    tb.driver.shadow.write_sq_tail(1, 0)
    res = tb.driver.passthru(_wreq(b"\x66" * 64, offset=4096),
                             method="byteexpress", qid=1)
    assert res.ok
    assert tb.personality.read_back(4096, 64) == b"\x66" * 64


def test_burst_fetch_never_reads_past_torn_shadow_tail():
    """Burst mode + shadow mode: a garbage published tail must not let
    the burst window fetch unwritten SQE slots."""
    tb = make_block_testbed(
        config=_shadow_cfg(queues=1, burst_limit=8)).unmonitor()
    ctrl = tb.ssd.controller
    # stage two inline writes (4 SQEs) but never publish them
    for i in range(2):
        cmd = NvmeCommand(opcode=IoOpcode.WRITE, nsid=1, cdw10=i * 4096)
        tb.driver.submit(names.BYTEEXPRESS, cmd, bytes([i + 1]) * 64, 1,
                         ring=False)
    before = ctrl.commands_processed
    tb.driver.shadow.write_sq_tail(1, 77777)  # torn: out of range
    assert ctrl.process_all() == 0
    assert ctrl.commands_processed == before
    # the real publication releases exactly the staged window
    tb.driver.kick(1)
    assert ctrl.process_all() == 2
    assert tb.personality.read_back(0, 64) == b"\x01" * 64
    assert tb.personality.read_back(4096, 64) == b"\x02" * 64


# ----------------------------------------------------------------------
# end-to-end load under shadow + burst + coalescing
# ----------------------------------------------------------------------

def test_full_burst_configuration_serves_engine_load():
    cfg = _shadow_cfg(queues=4, burst_limit=4, cq_coalesce=4)
    tb = make_engine_testbed(queues=4, config=cfg)
    engine = tb.make_engine(queues=4, qd=8)
    streams = [StreamSpec(stream_id=i, ops=50, size="fixed:64",
                          concurrency=8) for i in range(4)]
    rep = LoadGenerator(engine, streams, seed=0x5EED,
                        method="byteexpress").run()
    assert rep.total_ok == rep.total_ops == 200
    ctrl = tb.ssd.controller
    assert ctrl.burst_fetches > 0
    assert ctrl.cqe_flushes > 0
    assert ctrl.shadow_syncs > 0
    assert tb.traffic.category(CAT_SHADOW_SYNC).tlp_count > 0
