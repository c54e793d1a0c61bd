"""The KV-SSD device against a plain dict, with value-log GC running.

Values are large enough that overwrite and delete churn pushes the log's
dead space past the two-segment GC threshold, so relocation, carried
tombstones and the index updates GC makes are all under the model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvssd import KeyNotFoundError, KVStore
from repro.testbed import make_kv_testbed

KEYS = 10
#: Big enough for an 8 KiB GET buffer, small enough to stay one inline
#: ByteExpress payload.
MAX_VALUE = 6000

#: (is_put, key index, value length).
_ops = st.lists(st.tuples(st.booleans(), st.integers(0, KEYS - 1),
                          st.integers(500, MAX_VALUE)),
                min_size=40, max_size=80)


def _key(k):
    return b"model-key-%02d" % k


def _run(ops):
    tb = make_kv_testbed(memtable_entries=4)
    store = KVStore(tb.driver, tb.method("byteexpress"))
    model = {}
    for n, (is_put, k, size) in enumerate(ops):
        key = _key(k)
        if is_put:
            value = bytes([n % 256]) * size
            store.put(key, value)
            model[key] = value
        elif key in model:
            store.delete(key)
            del model[key]
        else:
            with pytest.raises(KeyNotFoundError):
                store.delete(key)
    return tb, store, model


def _assert_agrees(tb, store, model):
    kv = tb.personality
    for k in range(KEYS):
        key = _key(k)
        assert kv.peek(key) == model.get(key)
        if key in model:
            assert store.get(key, max_value_len=8192) == model[key]
        else:
            with pytest.raises(KeyNotFoundError):
                store.get(key, max_value_len=8192)
    assert list(kv.scan(b"\x00", b"\xff")) == sorted(model.items())


@given(_ops)
@settings(max_examples=40, deadline=None)
def test_model_churn_gc_and_recovery(ops):
    """Property: under churn, GC and a power cut, the device reads back
    exactly what the dict holds."""
    tb, store, model = _run(ops)
    _assert_agrees(tb, store, model)
    assert tb.personality.crash_and_recover() == len(model)
    _assert_agrees(tb, store, model)


def test_model_churn_reaches_gc():
    """The property's op shapes do reach value-log GC: a fixed churn
    that writes every key, then churns all but three, runs GC passes
    that relocate live entries, and still agrees with the model."""
    ops = [(n % 7 != 3, n % KEYS if n < 30 else 3 + n % 7,
            500 + 97 * n % (MAX_VALUE - 500)) for n in range(60)]
    tb, store, model = _run(ops)
    assert tb.personality.vlog.gc_runs > 0
    assert tb.personality.vlog.gc_relocated > 0
    assert tb.personality.crash_and_recover() == len(model)
    _assert_agrees(tb, store, model)
