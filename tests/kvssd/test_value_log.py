"""Value log: append/read, segment flush, pointer validity."""

import pytest

from repro.kvssd.value_log import MAX_LOG_KEY, ValueLog
from repro.sim.clock import SimClock
from repro.sim.config import TimingModel
from repro.ssd.dram import DeviceDram
from repro.ssd.ftl import PageMappingFtl
from repro.ssd.nand import NandArray, NandGeometry


def _vlog(segment_bytes=512):
    nand = NandArray(SimClock(), TimingModel(),
                     NandGeometry(channels=2, ways=2, blocks_per_die=16,
                                  pages_per_block=16, page_bytes=segment_bytes))
    ftl = PageMappingFtl(nand)
    dram = DeviceDram(1 << 20)
    return ValueLog(dram, ftl, segment_bytes=segment_bytes)


def test_append_read_roundtrip():
    vlog = _vlog()
    ptr = vlog.append(b"key1", b"value1")
    assert vlog.read(ptr) == (b"key1", b"value1")


def test_multiple_entries_distinct_pointers():
    vlog = _vlog()
    p1 = vlog.append(b"k1", b"v1")
    p2 = vlog.append(b"k2", b"v2")
    assert p1 != p2
    assert vlog.read(p1) == (b"k1", b"v1")
    assert vlog.read(p2) == (b"k2", b"v2")


def test_empty_value_allowed_empty_key_not():
    vlog = _vlog()
    ptr = vlog.append(b"k", b"")
    assert vlog.read(ptr) == (b"k", b"")
    with pytest.raises(ValueError):
        vlog.append(b"", b"v")


def test_segment_flush_on_overflow():
    vlog = _vlog(segment_bytes=128)
    ptrs = [vlog.append(bytes([i]) * 8, b"v" * 40) for i in range(10)]
    assert vlog.flushes > 0
    # Flushed entries remain readable through the FTL.
    for i, ptr in enumerate(ptrs):
        key, value = vlog.read(ptr)
        assert key == bytes([i]) * 8


def test_oversized_entry_rejected():
    vlog = _vlog(segment_bytes=128)
    with pytest.raises(ValueError):
        vlog.append(b"k", b"v" * 200)


def test_explicit_flush_idempotent_when_empty():
    vlog = _vlog()
    vlog.flush()
    assert vlog.flushes == 0
    vlog.append(b"k", b"v")
    vlog.flush()
    vlog.flush()
    assert vlog.flushes == 1


def test_appends_counted():
    vlog = _vlog()
    vlog.append(b"a", b"1")
    vlog.append(b"b", b"2")
    assert vlog.appends == 2


@pytest.mark.parametrize("key, value, tombstone", [
    (b"", b"v", False),
    (b"k" * (MAX_LOG_KEY + 1), b"", False),
    (b"k", b"v", True),
    (b"k", b"v" * 512, False),
], ids=["empty-key", "long-key", "tombstone-with-value", "oversize"])
def test_rejected_append_changes_nothing(key, value, tombstone):
    vlog = _vlog(segment_bytes=512)
    vlog.append(b"a", b"1" * 40)
    before = (vlog.active_bytes, vlog.snapshot()["live"], vlog.appends,
              vlog.snapshot()["buffer"])
    with pytest.raises(ValueError):
        vlog.append(key, value, tombstone=tombstone)
    assert (vlog.active_bytes, vlog.snapshot()["live"], vlog.appends,
            vlog.snapshot()["buffer"]) == before


def test_collect_copies_live_records_verbatim_in_victim_order():
    vlog = _vlog()
    index = {}

    def put(key, value):
        old = index.get(key)
        index[key] = vlog.append(key, value)
        if old is not None:
            vlog.mark_dead(old)

    put(b"a", b"1" * 40)
    put(b"b", b"2" * 40)
    put(b"c", b"3" * 40)
    # Delete b: a durable tombstone, dead on arrival.
    vlog.mark_dead(index.pop(b"b"))
    vlog.mark_dead(vlog.append(b"b", b"", tombstone=True))
    put(b"d", b"4" * 40)
    put(b"a", b"5" * 40)
    vlog.flush()
    page = vlog.ftl.peek(0)
    # Live: c, b's tombstone (b is deleted), d and the newer a.
    survivors = [ptr for ptr, key, tomb in vlog.parse_segment(0)
                 if (key not in index if tomb else index.get(key) == ptr)]
    assert [vlog.peek(ptr)[0] for ptr in survivors] == [b"c", b"b", b"d",
                                                         b"a"]
    moved = []

    def relocate(key, ptr):
        moved.append(ptr)
        index[key] = ptr

    assert vlog.collect(index.get, relocate)
    assert vlog.gc_relocated == len(survivors)
    assert 0 not in vlog.flushed_segments
    buffer = vlog.snapshot()["buffer"]
    assert len(buffer) == vlog.segment_bytes
    offset = 0
    expected = []
    for ptr in survivors:
        # Header (tombstone flag included), key and value, byte for byte.
        assert (buffer[offset:offset + ptr.length]
                == page[ptr.offset:ptr.offset + ptr.length])
        if not page[ptr.offset + 1] & 0x80:
            expected.append((1, offset, ptr.length))
        offset += ptr.length
    assert vlog.active_bytes == offset
    # Relocated pointers are contiguous around the tombstone, in order.
    assert moved == expected
    for key in (b"a", b"c", b"d"):
        assert vlog.read(index[key])[0] == key
