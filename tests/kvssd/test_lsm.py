"""LSM index: get-after-put, tombstones, flush/compaction, scans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvssd import KVStore
from repro.kvssd.lsm import LsmIndex, SsTable
from repro.kvssd.value_log import LogPointer
from repro.sim.clock import SimClock
from repro.sim.config import TimingModel
from repro.ssd.ftl import FtlError, PageMappingFtl
from repro.ssd.nand import NandArray, NandGeometry
from repro.testbed import make_kv_testbed


def _index(memtable_entries=4):
    nand = NandArray(SimClock(), TimingModel(),
                     NandGeometry(channels=2, ways=2, blocks_per_die=32,
                                  pages_per_block=32, page_bytes=2048))
    ftl = PageMappingFtl(nand)
    return LsmIndex(ftl, lpn_base=ftl.logical_capacity_pages // 2,
                    memtable_entries=memtable_entries)


def _ptr(n):
    return LogPointer(segment=n, offset=n * 8, length=8)


def test_put_get_from_memtable():
    idx = _index()
    idx.put(b"key", _ptr(1))
    assert idx.get(b"key") == _ptr(1)


def test_missing_key_is_none():
    assert _index().get(b"nope") is None


def test_overwrite_in_memtable():
    idx = _index()
    idx.put(b"k", _ptr(1))
    idx.put(b"k", _ptr(2))
    assert idx.get(b"k") == _ptr(2)


def test_flush_preserves_lookups():
    idx = _index(memtable_entries=4)
    for i in range(4):  # triggers a flush
        idx.put(f"key{i}".encode(), _ptr(i))
    assert idx.flushes == 1
    assert idx.memtable_size == 0
    for i in range(4):
        assert idx.get(f"key{i}".encode()) == _ptr(i)


def test_newer_table_wins_over_older():
    idx = _index(memtable_entries=2)
    idx.put(b"k1", _ptr(1))
    idx.put(b"k2", _ptr(2))   # flush 1: k1 -> 1
    idx.put(b"k1", _ptr(9))
    idx.put(b"k3", _ptr(3))   # flush 2: k1 -> 9
    assert idx.get(b"k1") == _ptr(9)


def test_compaction_triggered_and_correct():
    idx = _index(memtable_entries=2)
    for i in range(24):
        idx.put(f"key{i:03d}".encode(), _ptr(i))
    assert idx.compactions > 0
    for i in range(24):
        assert idx.get(f"key{i:03d}".encode()) == _ptr(i)


def test_delete_via_tombstone():
    idx = _index(memtable_entries=2)
    idx.put(b"k1", _ptr(1))
    idx.put(b"kx", _ptr(0))  # flush
    idx.delete(b"k1")
    idx.put(b"ky", _ptr(0))  # flush the tombstone
    assert idx.get(b"k1") is None


def test_scan_merged_and_sorted():
    idx = _index(memtable_entries=3)
    keys = [b"a", b"c", b"e", b"b", b"d"]
    for i, k in enumerate(keys):
        idx.put(k, _ptr(i))
    result = list(idx.scan(b"a", b"e"))
    assert [k for k, _ in result] == [b"a", b"b", b"c", b"d"]


def test_scan_excludes_tombstones():
    idx = _index(memtable_entries=100)
    idx.put(b"a", _ptr(1))
    idx.put(b"b", _ptr(2))
    idx.delete(b"a")
    assert [k for k, _ in idx.scan(b"a", b"z")] == [b"b"]


def test_scan_empty_range():
    idx = _index()
    idx.put(b"m", _ptr(1))
    assert list(idx.scan(b"x", b"a")) == []


def test_sstable_requires_sorted_entries():
    with pytest.raises(ValueError):
        SsTable([b"b", b"a"], [_ptr(1), _ptr(2)])


def test_flush_fault_trims_written_pages_and_keeps_the_memtable():
    idx = _index(memtable_entries=200)
    ftl, nand = idx.ftl, idx.ftl.nand
    for i in range(199):
        idx.put(b"key%05d" % i, _ptr(i))
    # The flush programs three pages on consecutive dies: fail the second.
    nand.inject_program_failures((ftl._next_die + 1) % nand.geometry.dies,
                                 count=1)
    writes = ftl.host_writes
    idx.put(b"key00199", _ptr(199))

    assert (idx.flushes, idx.deferred_flushes) == (0, 1)
    assert idx.memtable_size == 200 and idx.levels == [[]]
    assert ftl.host_writes == writes + 1
    with pytest.raises(FtlError):  # the page that was written is trimmed
        ftl.peek(idx.lpn_base)
    assert [k for k, _p in idx.scan(b"\x00", b"\xff")] == [
        b"key%05d" % i for i in range(200)]
    # The retry reuses the LPNs the failed flush handed back.
    idx.put(b"key00200", _ptr(200))
    assert idx.flushes == 1 and idx.memtable_size == 0
    assert idx.levels[0][0].lpns == [idx.lpn_base + n for n in range(3)]


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        _index().put(b"", _ptr(1))


@given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                          st.integers(0, 1000)),
                min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_model_equivalence(ops):
    """Property: the LSM agrees with a plain dict under put churn."""
    idx = _index(memtable_entries=5)
    model = {}
    for key, n in ops:
        idx.put(key, _ptr(n))
        model[key] = _ptr(n)
    for key, expected in model.items():
        assert idx.get(key) == expected


@given(st.lists(st.tuples(st.booleans(), st.binary(min_size=1, max_size=4)),
                min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_model_equivalence_with_deletes(ops):
    idx = _index(memtable_entries=4)
    model = {}
    for is_put, key in ops:
        if is_put:
            idx.put(key, _ptr(len(model)))
            model[key] = True
        else:
            idx.delete(key)
            model.pop(key, None)
    for key in {k for _, k in ops}:
        assert (idx.get(key) is not None) == (key in model)


#: Put (True) or delete (False) of a short key: short keys collide often,
#: so runs overlap, tombstones shadow older values and compaction drops
#: them at the last level.
_churn = st.lists(st.tuples(st.booleans(), st.binary(min_size=1, max_size=3)),
                  min_size=1, max_size=120)


def _apply(idx, model, ops, start=0):
    for n, (is_put, key) in enumerate(ops, start):
        if is_put:
            idx.put(key, _ptr(n))
            model[key] = _ptr(n)
        else:
            idx.delete(key)
            model.pop(key, None)


def _assert_agrees(idx, model, probe_keys):
    for key in probe_keys:
        assert idx.get(key) == model.get(key)
    assert list(idx.scan(b"\x00", b"\xff" * 4)) == sorted(model.items())


@given(_churn, st.binary(max_size=3), st.binary(max_size=3))
@settings(max_examples=40, deadline=None)
def test_model_scan(ops, start, end):
    """Property: a scan is the dict's sorted items within [start, end)."""
    idx = _index(memtable_entries=4)
    model = {}
    _apply(idx, model, ops)
    assert list(idx.scan(start, end)) == sorted(
        (k, p) for k, p in model.items() if start <= k < end)
    _assert_agrees(idx, model, {k for _, k in ops})


@given(_churn, _churn)
@settings(max_examples=40, deadline=None)
def test_model_snapshot_restore(before, after):
    """Property: restore() brings back exactly the snapshotted mapping,
    whatever flushes and compactions ran in between."""
    idx = _index(memtable_entries=4)
    model = {}
    _apply(idx, model, before)
    image = idx.snapshot()
    counters = (idx.flushes, idx.compactions)
    _apply(idx, dict(model), after, start=len(before))
    idx.restore(image)
    assert (idx.flushes, idx.compactions) == counters
    _assert_agrees(idx, model, {k for _, k in before + after})
    # The restored index keeps working as an LSM.
    _apply(idx, model, after, start=len(before))
    _assert_agrees(idx, model, {k for _, k in before + after})


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 11),
                          st.binary(max_size=24)),
                min_size=1, max_size=60))
@settings(max_examples=25, deadline=None)
def test_model_scrub_and_value_log_replay(ops):
    """Property: after the index is scrubbed and rebuilt from the value
    log (power loss), every key reads as the dict says."""
    tb = make_kv_testbed(memtable_entries=4)
    store = KVStore(tb.driver, tb.method("byteexpress"))
    kv = tb.personality
    model = {}
    for is_put, k, value in ops:
        key = b"key%02d" % k
        if is_put:
            store.put(key, value)
            model[key] = value
        elif key in model:
            store.delete(key)
            del model[key]
    assert kv.crash_and_recover() == len(model)
    for k in range(12):
        key = b"key%02d" % k
        assert kv.peek(key) == model.get(key)
    assert [key for key, _ in kv.scan(b"\x00", b"\xff")] == sorted(model)
    assert kv.index.total_entries >= len(model)
