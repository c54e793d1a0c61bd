"""Host-side inline submission (the inline codec behind
``driver.submit``): consecutive slots, lock discipline, all-or-nothing
space check, Table-1 submit costs."""

import pytest

from repro.datapath import names
from repro.datapath.codecs import submit_plain
from repro.host.memory import HostMemory
from repro.nvme.command import NvmeCommand
from repro.nvme.constants import SQE_SIZE
from repro.nvme.queues import LockNotHeldError, QueueFullError, SubmissionQueue
from repro.sim.clock import SimClock
from repro.sim.config import SimConfig, TimingModel
from repro.testbed import make_block_testbed

TIMING = TimingModel()
QID = 1


def _tb(sq_depth=16):
    return make_block_testbed(config=SimConfig(sq_depth=sq_depth).nand_off(),
                              include_mmio=False)


def _submit_inline(tb, payload):
    return tb.driver.submit(names.BYTEEXPRESS, NvmeCommand(opcode=1),
                            payload, QID, ring=False)


def test_command_then_chunks_consecutive():
    tb = _tb()
    sq = tb.driver.queue(QID).sq
    tail = sq.tail
    payload = bytes(range(130))
    _submit_inline(tb, payload)
    assert sq.tail == tail + 4  # cmd + 3 chunks
    # Chunk bytes really landed in the following slots.
    slot1 = sq.memory.read(sq.slot_addr(tail + 1), SQE_SIZE)
    assert slot1 == payload[:64]


def test_inline_length_encoded():
    tb = _tb()
    sq = tb.driver.queue(QID).sq
    tail = sq.tail
    _submit_inline(tb, b"x" * 100)
    cmd = NvmeCommand.unpack(sq.memory.read(sq.slot_addr(tail), SQE_SIZE))
    assert cmd.inline_length == 100


def test_submit_cost_matches_table1():
    """Table 1 driver column: 60 ns base + ~30 ns per chunk."""
    for size, chunks in ((64, 1), (128, 2), (256, 4)):
        tb = _tb()
        t0 = tb.clock.now
        _submit_inline(tb, b"x" * size)
        assert tb.clock.now - t0 == pytest.approx(
            TIMING.sqe_submit_ns + chunks * TIMING.chunk_submit_ns)


def test_queue_full_is_all_or_nothing():
    tb = _tb(sq_depth=4)  # 3 usable slots
    sq = tb.driver.queue(QID).sq
    tail_before = sq.tail
    with pytest.raises(QueueFullError):
        _submit_inline(tb, b"x" * 256)
    assert sq.tail == tail_before  # nothing partially inserted
    assert tb.driver.inflight(QID) == 0


def test_empty_payload_rejected():
    tb = _tb()
    with pytest.raises(ValueError):
        _submit_inline(tb, b"")
    assert tb.driver.inflight(QID) == 0


def _rig(depth=16):
    sq = SubmissionQueue(qid=1, depth=depth, memory=HostMemory())
    return sq, SimClock()


def test_requires_lock():
    sq, clock = _rig()
    with pytest.raises(LockNotHeldError):
        submit_plain(sq, NvmeCommand(opcode=1), clock, TIMING)


def test_submit_plain_cost():
    sq, clock = _rig()
    with sq.lock:
        slot = submit_plain(sq, NvmeCommand(opcode=1), clock, TIMING)
    assert clock.now == pytest.approx(TIMING.sqe_submit_ns)
    assert slot == 0
