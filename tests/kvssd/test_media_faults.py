"""KV commands under NAND program faults: a failed command reports
MEDIA_WRITE_FAULT and leaves the key as it was; a fault in value-log GC
or in an index flush or compaction fails no command."""

import random

from repro.kvssd import KVStore
from repro.kvssd.commands import make_delete_command
from repro.nvme.constants import StatusCode
from repro.testbed import make_kv_testbed

#: A tombstone for an 8-byte key: 6 B header + key.
TOMB_BYTES = 6 + 8


def fill_active_segment(tb, store, room: int) -> None:
    """PUT fillers until the active value-log segment has fewer than
    *room* bytes left, without flushing it."""
    vlog = tb.personality.vlog
    flushes = vlog.flushes
    i = 0
    while vlog.segment_bytes - vlog.active_bytes >= room:
        left = vlog.segment_bytes - vlog.active_bytes
        # 6 B header + 8 B key; land at room - 1 bytes left at the end.
        size = max(0, min(2048, left - 14 - (room - 1)))
        store.put(f"fill{i:04d}".encode(), b"f" * size)
        i += 1
    assert vlog.flushes == flushes


def poison_every_die(tb) -> None:
    for die in range(tb.ssd.nand.geometry.dies):
        tb.ssd.nand.inject_program_failures(die, count=1)


def test_delete_under_program_fault_keeps_the_key():
    tb = make_kv_testbed()
    store = KVStore(tb.driver, tb.method("byteexpress"))
    store.put(b"victim00", b"still here")
    fill_active_segment(tb, store, TOMB_BYTES)
    kv = tb.personality
    live_before = kv.vlog.snapshot()["live"]
    poison_every_die(tb)

    tb.driver.submit_raw(make_delete_command(b"victim00"), qid=1)
    assert tb.driver.wait(1).status == StatusCode.MEDIA_WRITE_FAULT

    assert kv.deletes == 0
    assert kv.peek(b"victim00") == b"still here"
    assert store.get(b"victim00") == b"still here"
    assert kv.vlog.snapshot()["live"] == live_before


def test_delete_after_a_failed_delete_succeeds():
    tb = make_kv_testbed()
    store = KVStore(tb.driver, tb.method("byteexpress"))
    store.put(b"victim00", b"v")
    fill_active_segment(tb, store, TOMB_BYTES)
    # Only the die the next segment flush lands on fails, and only once.
    tb.ssd.nand.inject_program_failures(tb.ssd.ftl._next_die, count=1)
    tb.driver.submit_raw(make_delete_command(b"victim00"), qid=1)
    assert tb.driver.wait(1).status == StatusCode.MEDIA_WRITE_FAULT

    store.delete(b"victim00")
    assert tb.personality.deletes == 1
    tb.personality.crash_and_recover()
    assert not store.exists(b"victim00")
    assert store.get(b"fill0000") == b"f" * 2048


def live_bytes_by_segment(kv) -> dict:
    """Bytes of each flushed segment's records the index still points
    at (no deletes here, so no carried tombstones)."""
    return {seg: sum(ptr.length
                     for ptr, key, _tomb in kv.vlog.parse_segment(seg)
                     if kv.index.get(key) == ptr)
            for seg in kv.vlog.flushed_segments}


def test_gc_program_fault_does_not_fail_the_store():
    """A NAND program fault inside value-log GC abandons the GC pass;
    the STORE that triggered it has stored its pair and succeeds, and
    GC resumes on later STOREs."""
    tb = make_kv_testbed()
    store = KVStore(tb.driver, tb.method("byteexpress"))
    kv = tb.personality
    vlog = kv.vlog
    model = {}
    # Seeded overwrite churn: GC victims keep some live entries.
    order = list(range(200)) + random.Random(1).choices(range(200), k=2000)

    def put(n, value=None):
        key = b"key%05d" % order[n]
        model[key] = value or bytes([n % 256]) * 300
        store.put(key, model[key])

    for n in range(200):
        put(n)
    # Churn until the next PUT, an overwrite of an entry in a flushed
    # segment, pushes dead space to the GC threshold.
    n = 200
    while True:
        key = b"key%05d" % order[n]
        old = kv.index.get(key)
        room = vlog.segment_bytes - vlog.active_bytes - 6 - len(key) - 700
        if (old.segment in vlog.flushed_segments and room > 0
                and vlog.dead_bytes + old.length >= kv.gc_threshold_bytes):
            break
        put(n)
        n += 1
    # Sized to leave 700 B in the active segment: GC relocates two
    # 314 B entries, then the third flushes the segment onto a die that
    # fails the program.
    runs, relocated = vlog.gc_runs, vlog.gc_relocated
    tb.ssd.nand.inject_program_failures(tb.ssd.ftl._next_die, count=1)
    put(n, b"t" * room)

    assert kv.gc_aborts == 1
    assert (vlog.gc_runs, vlog.gc_relocated) == (runs, relocated + 2)
    # The abandoned victim's live count lost the two relocated entries.
    live = vlog.snapshot()["live"]
    for segment, nbytes in live_bytes_by_segment(kv).items():
        assert live[segment] == nbytes, segment
    for n in range(n + 1, n + 400):
        put(n)
    assert vlog.gc_runs > runs
    for key, value in model.items():
        assert store.get(key, max_value_len=16384) == value, key
    assert kv.crash_and_recover() == len(model)
    for key, value in model.items():
        assert kv.peek(key) == value, key


def test_memtable_flush_under_program_fault_is_deferred():
    """A NAND program fault in the memtable flush fails no STORE and
    drops no mapping: the flush is deferred with the memtable intact,
    and the next PUT retries it."""
    tb = make_kv_testbed(memtable_entries=4)
    store = KVStore(tb.driver, tb.method("byteexpress"))
    kv = tb.personality
    model = {b"key%05d" % i: bytes([65 + i]) * 100 for i in range(5)}
    keys = sorted(model)
    for key in keys[:3]:
        store.put(key, model[key])
    # The flush's first SSTable page lands on the next die.
    tb.ssd.nand.inject_program_failures(tb.ssd.ftl._next_die, count=1)
    assert store.put(keys[3], model[keys[3]]).status == StatusCode.SUCCESS

    assert kv.index.deferred_flushes == 1
    assert kv.index.flushes == 0
    assert [k for k, _ptr in kv.index.scan(b"\x00", b"\xff")] == keys[:4]
    assert store.list_keys() == keys[:4]
    # The next PUT retries the flush, which now succeeds.
    store.put(keys[4], model[keys[4]])
    assert kv.index.flushes == 1 and kv.index.memtable_size == 0
    assert store.list_keys() == keys
    assert kv.crash_and_recover() == len(model)
    assert store.list_keys() == keys
    for key, value in model.items():
        assert store.get(key) == value, key


def test_compaction_under_program_fault_is_deferred():
    """A program fault in the compaction a flush triggers leaves both
    levels in place; the next flush compacts."""
    tb = make_kv_testbed(memtable_entries=4)
    store = KVStore(tb.driver, tb.method("byteexpress"))
    index = tb.personality.index
    keys = [b"key%05d" % i for i in range(24)]
    for key in keys[:19]:
        store.put(key, key)
    assert (index.flushes, index.compactions) == (4, 0)
    # The next flush programs one page on the next die; the compaction
    # it triggers programs the die after that.
    dies = tb.ssd.nand.geometry.dies
    tb.ssd.nand.inject_program_failures((tb.ssd.ftl._next_die + 1) % dies,
                                        count=1)
    store.put(keys[19], keys[19])

    assert (index.flushes, index.compactions) == (5, 0)
    assert index.deferred_compactions == 1
    assert store.list_keys() == keys[:20]
    for key in keys[20:]:
        store.put(key, key)
    assert index.flushes == 6 and index.compactions > 0
    assert not index.levels[0]
    assert store.list_keys() == keys
    assert tb.personality.crash_and_recover() == len(keys)
    assert store.list_keys() == keys
