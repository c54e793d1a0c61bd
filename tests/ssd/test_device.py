"""OpenSSD assembly + block personality behaviour."""


import tracemalloc

from repro.nvme.constants import IoOpcode, StatusCode
from repro.nvme.passthrough import PassthruRequest
from repro.sim.config import PAGE_SIZE, SimConfig
from repro.ssd import device
from repro.ssd.device import OpenSsd
from repro.testbed import make_engine_testbed


def test_assembly_shares_clock_and_counter():
    ssd = OpenSsd(SimConfig().nand_off())
    assert ssd.link.counter is ssd.traffic
    assert ssd.nand.clock is ssd.clock


def test_nand_flag_reflected():
    assert OpenSsd(SimConfig()).nand_enabled
    assert not OpenSsd(SimConfig().nand_off()).nand_enabled


class TestBlockWritesNandOff:
    def test_write_read_cycle(self, block_tb):
        drv, blk = block_tb.driver, block_tb.personality
        data = bytes(range(200))
        res = drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE, data=data,
                                           cdw10=8192))
        assert res.ok
        r = drv.passthru(PassthruRequest(opcode=IoOpcode.READ, read_len=200,
                                         cdw10=8192))
        assert r.data == data

    def test_sub_page_offsets(self, block_tb):
        drv, blk = block_tb.driver, block_tb.personality
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE, data=b"AB",
                                     cdw10=4094))  # spans page boundary
        assert blk.read_back(4094, 2) == b"AB"

    def test_write_without_data_fails(self, block_tb):
        res = block_tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE))
        assert res.status == StatusCode.INVALID_FIELD

    def test_read_of_unwritten_is_zeroes(self, block_tb):
        r = block_tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.READ, read_len=16, cdw10=1 << 20))
        assert r.ok and r.data == b"\x00" * 16

    def test_zero_length_read_rejected(self, block_tb):
        r = block_tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.FLUSH))
        assert r.ok  # flush has no data, distinct from a 0-length read


class TestBlockWritesNandOn:
    def test_write_goes_through_ftl(self, block_tb_nand):
        drv = block_tb_nand.driver
        res = drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                           data=b"\xaa" * 4096, cdw10=0))
        assert res.ok
        assert block_tb_nand.ssd.nand.programs >= 1

    def test_sub_page_rmw(self, block_tb_nand):
        drv, blk = block_tb_nand.driver, block_tb_nand.personality
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                     data=b"\x11" * 4096, cdw10=0))
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE, data=b"\x22" * 10,
                                     cdw10=100))
        page = blk.read_back(0, 4096)
        assert page[100:110] == b"\x22" * 10
        assert page[:100] == b"\x11" * 100

    def test_media_fault_surfaces_to_host(self, block_tb_nand):
        ssd = block_tb_nand.ssd
        for die in range(ssd.nand.geometry.dies):
            ssd.nand.inject_program_failures(die, count=2)
        res = block_tb_nand.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE, data=b"x" * 4096, cdw10=0))
        assert res.status == StatusCode.MEDIA_WRITE_FAULT

    def test_read_back_is_timing_free(self, block_tb_nand):
        drv, blk = block_tb_nand.driver, block_tb_nand.personality
        nand, clock = block_tb_nand.ssd.nand, block_tb_nand.ssd.clock
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                     data=b"\x33" * 100, cdw10=0))
        now, reads = clock.now, nand.reads
        assert blk.read_back(0, 100) == b"\x33" * 100
        # A never-written range reads as zeros, as the READ command does.
        assert blk.read_back(64 * PAGE_SIZE, 100) == b"\x00" * 100
        # Straddles the written page's zero tail and an unwritten page.
        assert blk.read_back(PAGE_SIZE - 50, 100) == b"\x00" * 100
        assert (clock.now, nand.reads) == (now, reads)

    def _lose_page_zero(self, tb):
        """Write 4 KB of ``A`` at LPN 0, then erase the NAND under the
        FTL: the mapping still points at a page that no longer exists."""
        res = tb.driver.passthru(PassthruRequest(
            opcode=IoOpcode.WRITE, data=b"A" * PAGE_SIZE, cdw10=0))
        assert res.ok
        tb.ssd.nand.scrub()

    def test_nand_read_failure_fails_the_read(self, block_tb_nand):
        self._lose_page_zero(block_tb_nand)
        r = block_tb_nand.driver.passthru(
            PassthruRequest(opcode=IoOpcode.READ, read_len=16, cdw10=0))
        assert r.status == StatusCode.INTERNAL_ERROR

    def test_nand_read_failure_fails_the_rmw_write(self, block_tb_nand):
        self._lose_page_zero(block_tb_nand)
        programs = block_tb_nand.ssd.nand.programs
        res = block_tb_nand.driver.passthru(PassthruRequest(
            opcode=IoOpcode.WRITE, data=b"B" * 16, cdw10=16))
        assert res.status == StatusCode.MEDIA_WRITE_FAULT
        # Nothing was programmed over the acknowledged data.
        assert block_tb_nand.ssd.nand.programs == programs

    def test_flush_drains_nand(self, block_tb_nand):
        drv = block_tb_nand.driver
        drv.passthru(PassthruRequest(opcode=IoOpcode.WRITE,
                                     data=b"x" * 4096, cdw10=0))
        before = block_tb_nand.ssd.clock.now
        res = drv.passthru(PassthruRequest(opcode=IoOpcode.FLUSH))
        assert res.ok
        assert block_tb_nand.ssd.clock.now >= before


def test_staging_buffer_wraps(block_tb):
    """Long write streams recycle the staging region without error."""
    blk = block_tb.personality
    total = blk.staging.size + 8192
    written = 0
    offset = 0
    while written < total:
        res = block_tb.driver.passthru(
            PassthruRequest(opcode=IoOpcode.WRITE, data=b"y" * 4096,
                            cdw10=offset))
        assert res.ok
        written += 4096
        offset += 4096


def test_medium_stores_the_bytes_written():
    """64 B writes at page stride grow the medium by the bytes written
    and its index entry, not by a zero-filled 4 KB page each."""
    writes, payload = 4000, bytes(range(64))
    tb = make_engine_testbed(queues=4)
    assert not tb.ssd.nand_enabled
    engine = tb.make_engine(queues=4, qd=8)
    only_medium = [tracemalloc.Filter(True, device.__file__)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_medium)
        for i in range(writes):
            engine.submit(payload, cdw10=i * PAGE_SIZE)
        engine.drain()
        after = tracemalloc.take_snapshot().filter_traces(only_medium)
    finally:
        tracemalloc.stop()
    growth = sum(s.size_diff for s in after.compare_to(before, "filename"))
    assert growth <= 256 * writes, f"{growth / writes:.0f} B per write"
    blk = tb.personality
    # The medium holds exactly the bytes written; the rest reads as zero.
    assert sum(len(page) for page in blk._pages.values()) == (
        writes * len(payload))
    assert blk.read_back((writes - 1) * PAGE_SIZE, PAGE_SIZE) == (
        payload + bytes(PAGE_SIZE - len(payload)))
