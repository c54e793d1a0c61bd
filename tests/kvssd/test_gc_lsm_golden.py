"""Golden pin of the KV-SSD's index and value-log GC behaviour.

A seeded PUT / overwrite / DELETE / GET churn on ``make_kv_testbed()``
drives memtable flushes, level compactions (cascading into L2) and
value-log GC.  The fingerprint below — GC counters, the order of GC victim
segments, LSM counters, NAND and FTL traffic, the final simulated clock
and a digest of every key's value — must not move when the index or
the GC change only in how fast they run on the host.

``golden_gc_lsm.json`` next to this file holds the fingerprint.
Regenerate it only for a deliberate behaviour change::

    PYTHONPATH=src python tests/kvssd/test_gc_lsm_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.kvssd import KVStore
from repro.testbed import make_kv_testbed

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_gc_lsm.json")

SEED = 0x6C5
#: Small enough to flush every few dozen PUTs and compact into L2.
MEMTABLE_ENTRIES = 64
KEYS = 400
OPS = 4000
DELETE_RATE = 0.2
GET_RATE = 0.1


def fingerprint() -> dict:
    tb = make_kv_testbed(memtable_entries=MEMTABLE_ENTRIES)
    store = KVStore(tb.driver, tb.method("byteexpress"))
    kv = tb.personality
    victims = []
    collect = kv.vlog.collect

    def recording_collect(*args, **kwargs):
        before = set(kv.vlog.flushed_segments)
        ran = collect(*args, **kwargs)
        if ran:
            # Segments flushed during the pass are new; only the victim
            # leaves the flushed set.
            victims.extend(sorted(before - set(kv.vlog.flushed_segments)))
        return ran

    kv.vlog.collect = recording_collect
    rng = random.Random(SEED)
    keys = [f"churn{i:08d}".encode() for i in range(KEYS)]
    model = {}
    for _ in range(OPS):
        key = rng.choice(keys)
        roll = rng.random()
        if key in model and roll < GET_RATE:
            assert store.get(key) == model[key]
        elif key in model and roll < GET_RATE + DELETE_RATE:
            store.delete(key)
            del model[key]
        else:
            model[key] = rng.randbytes(rng.randint(64, 900))
            store.put(key, model[key])
    digest = hashlib.sha256()
    for key in keys:
        value = kv.peek(key)
        assert value == model.get(key)
        digest.update(key + (b"-" if value is None else b"+" + value))
    return {
        "gc_runs": kv.vlog.gc_runs,
        "gc_relocated": kv.vlog.gc_relocated,
        "gc_victims": victims,
        "lsm_flushes": kv.index.flushes,
        "lsm_compactions": kv.index.compactions,
        "lsm_levels": len(kv.index.levels),
        "nand_programs": tb.ssd.nand.programs,
        "nand_reads": tb.ssd.nand.reads,
        "ftl_host_writes": tb.ssd.ftl.host_writes,
        "clock_ns": round(tb.clock.now, 6),
        "live_keys": len(model),
        "value_digest": digest.hexdigest(),
    }


def test_churn_exercises_every_mechanism():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["gc_runs"] > 100 and golden["gc_relocated"] > 0
    assert golden["lsm_compactions"] > 0 and golden["lsm_levels"] >= 3


def test_gc_and_lsm_match_golden():
    assert fingerprint() == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    fields = (f" {json.dumps(k)}: {json.dumps(v)}"
              for k, v in fingerprint().items())
    GOLDEN_PATH.write_text("{\n" + ",\n".join(fields) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
