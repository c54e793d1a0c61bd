"""KV commands under NAND program faults: a failed command reports
MEDIA_WRITE_FAULT and leaves the key as it was."""

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
