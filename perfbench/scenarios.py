"""The benchmark's four closed-loop workloads.

Each workload builds a fresh rig from its seed, runs one timed pass
over a fixed op stream, and checks the program's outputs.  A pass
returns a :class:`Round`: host-clock timings, plus a dict of
simulated-clock and counter metrics that must repeat exactly for a
given seed (``Round.sim``).

The workloads call only the program's public API.  Where a check needs
to see each op (to read it back afterwards), a recorder wraps the
public call for the length of the pass, in traced and untraced runs
alike, so both pay the same small cost.
"""

from __future__ import annotations

import hashlib
import time
from unittest import mock
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import measure

#: TLP categories reported per op (``pcie.tlps_per_op.<category>``).
TLP_CATEGORIES = ("doorbell", "shadow_sync", "cmd_fetch", "inline_chunk",
                  "data", "cqe", "msix", "pio_data")

#: Clock spans of the five QD1 datapath phases, by reporting layer.
PHASE_SPANS = {
    "host.sim_submit_ns_per_op": "drv.sq_submit",
    "ssd.sim_fetch_ns_per_op": "ctrl.sq_fetch",
    "ssd.sim_data_ns_per_op": "ctrl.data_transfer",
    "ssd.sim_completion_ns_per_op": "ctrl.completion",
    "host.sim_completion_ns_per_op": "drv.completion",
}


class WorkloadError(Exception):
    """A pass could not complete (the program raised mid-run)."""


@dataclass
class Round:
    """One set-up plus one timed pass of a workload."""

    ops: int
    setup_s: float
    host_window: Tuple[float, float]
    sim_window: Tuple[float, float]
    #: Deterministic metrics: simulated clock, counts and ratios.
    sim: Dict[str, float]
    #: Public counter deltas over the timed window.
    counters: Dict[str, float]
    #: Ops issued outside the timed window (the KV preload).
    untimed_ops: int = 0
    errors: int = 0
    timeouts: int = 0
    failed_checks: int = 0
    #: Digest of the op stream as issued (sizes, payloads, keys).
    inputs_digest: str = ""

    @property
    def run_s(self) -> float:
        return self.host_window[1] - self.host_window[0]

    @property
    def attempted(self) -> int:
        return self.ops + self.untimed_ops

    @property
    def failed(self) -> int:
        return self.errors + self.timeouts + self.failed_checks


class Window:
    """The timed window of one pass: host and simulated start/end plus
    the public counters at each edge."""

    def __init__(self, clock, snapshot: Callable[[], Dict[str, float]],
                 tracer=None) -> None:
        self.clock = clock
        self.snapshot = snapshot
        #: Records spans while the window is open (traced passes only).
        self.tracer = tracer
        self.opened = False

    def open(self) -> None:
        self.before = self.snapshot()
        self.sim0 = self.clock.now
        self.opened = True
        if self.tracer is not None:
            self.tracer.clock = self.clock
            self.tracer.recording = True
        self.host0 = time.perf_counter()

    def close(self) -> None:
        self.host1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.recording = False
        self.sim1 = self.clock.now
        self.after = self.snapshot()

    def deltas(self) -> Dict[str, float]:
        return {k: self.after[k] - self.before[k] for k in self.after}


def counters(tb, engine=None, service=None) -> Dict[str, float]:
    """The program's own counters that the benchmark reports or checks."""
    ssd = tb.ssd
    traffic = tb.traffic
    c = {
        "traffic.bytes": traffic.total_bytes,
        "ctrl.commands": ssd.controller.commands_processed,
        "nand.programs": ssd.nand.programs,
        "nand.reads": ssd.nand.reads,
        "nand.erases": ssd.nand.erases,
        "ftl.host_writes": ssd.ftl.host_writes,
        "ftl.gc_migrations": ssd.ftl.gc_migrations,
        "faults.injected": sum(ssd.faults.injected.values()),
    }
    for cat in TLP_CATEGORIES:
        c[f"tlps.{cat}"] = traffic.category(cat).tlp_count
    if engine is not None:
        for name in ("submitted", "retries", "timeouts", "re_rings"):
            c[f"engine.{name}"] = getattr(engine.stats, name)
    if service is not None:
        st = service.stats
        cache = service.cache_stats
        kv = service.personality
        c.update({
            "service.ops": st.puts + st.gets + st.deletes,
            "service.batches": st.batches,
            "service.batched_pairs": st.batched_pairs,
            "service.deferred_ops": st.deferred_ops,
            "cache.hits": cache.hits,
            "cache.misses": cache.misses,
            "cache.evictions": cache.evictions,
            "lsm.flushes": kv.index.flushes,
            "vlog.appends": kv.vlog.appends,
            "vlog.gc_runs": kv.vlog.gc_runs,
        })
    return c


def common_sim(tb, win: Window, ops: int, completed: int,
               latencies_ns: Sequence[float],
               per_client_ns: Sequence[Sequence[float]]) -> Dict[str, float]:
    """Simulated metrics every workload reports."""
    d = win.deltas()
    elapsed = win.sim1 - win.sim0
    sim = {
        "sim_kiops": completed / elapsed * 1e6,
        "pcie_bytes_per_op": d["traffic.bytes"] / ops,
        "ssd.nand.programs_per_op": d["nand.programs"] / ops,
        "ssd.nand.reads_per_op": d["nand.reads"] / ops,
        "ssd.nand.erases": d["nand.erases"],
        "ssd.ftl.write_amplification": (
            (d["ftl.host_writes"] + d["ftl.gc_migrations"])
            / d["ftl.host_writes"] if d["ftl.host_writes"] else 0.0),
        "faults.fired": d["faults.injected"],
    }
    sim.update(measure.latency_summary(latencies_ns))
    pct, worst = measure.worst_client_tail(per_client_ns)
    sim["sim_worst_client_tail_pct"] = pct
    sim["sim_worst_client_tail_us"] = worst
    for cat in TLP_CATEGORIES:
        sim[f"pcie.tlps_per_op.{cat}"] = d[f"tlps.{cat}"] / ops
    # Clock spans recorded inside the window (a span's start is its
    # open time, so spans opened before the window are left out).
    spans = [s for s in tb.clock.spans() if s.start_ns >= win.sim0]
    totals: Dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.duration_ns
    for metric, span in PHASE_SPANS.items():
        sim[metric] = totals.get(span, 0.0) / ops
    phases = set(PHASE_SPANS.values())
    covered = measure.union_length((s.start_ns, s.end_ns) for s in spans
                                   if s.name in phases)
    sim["sim.unattributed_ns_per_op"] = (elapsed - covered) / ops
    sim["sim.retained_spans_per_op"] = len(spans) / ops
    return sim


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# fig5_qd1
# ----------------------------------------------------------------------
#: Figure 5's methods, minus ``pio_coherent``: its transfer drops the
#: write offset (every PIO write lands at byte 0), so its writes fail
#: the read-back check and overwrite other methods' data.  See README.md.
FIG5_METHODS = ("prp", "bandslim", "byteexpress")


#: Payload bytes per Figure-5 cell: ops per cell fall with size, so the
#: large BandSlim cells (many fragment commands each) do not take the
#: whole run.
FIG5_CELL_BYTES = 57344
FIG5_MIN_CELL_OPS = 20


def fig5_cell_ops(size: int) -> int:
    return max(FIG5_MIN_CELL_OPS, FIG5_CELL_BYTES // size)


def run_fig5_qd1(seed: int, tracer=None) -> Round:
    """QD1 synchronous writes: every method in :data:`FIG5_METHODS` x
    every Figure-5 size, one ``run_workload`` call per write so that
    each write lands at its own offset and can be read back."""
    from repro.testbed import make_block_testbed
    from repro.workloads import FIGURE5_SIZES, fixed_size_payloads

    t0 = time.perf_counter()
    tb = make_block_testbed()
    cells = [(m, size, list(fixed_size_payloads(
                 size, fig5_cell_ops(size), seed=seed)))
             for m in FIG5_METHODS for size in FIGURE5_SIZES]
    win = Window(tb.clock, lambda: counters(tb), tracer)
    done: List[Tuple[str, int, int, bytes, float, int]] = []
    offset = 0
    t_setup = time.perf_counter() - t0
    win.open()
    for method_name, size, payloads in cells:
        method = tb.method(method_name)
        for payload in payloads:
            agg = method.run_workload([payload], cdw10=offset & 0xFFFFFFFF,
                                      cdw11=offset >> 32)
            done.append((method_name, size, offset, payload,
                         agg.total_latency_ns, agg.pcie_bytes))
            offset += size
    win.close()

    ops = len(done)
    latencies = [d[4] for d in done]
    sim = common_sim(tb, win, ops, ops, latencies, [latencies])
    by_cell: Dict[Tuple[str, int], List[Tuple[float, int]]] = {}
    for method_name, size, _off, _p, lat, pcie in done:
        by_cell.setdefault((method_name, size), []).append((lat, pcie))
    lat_mean = {k: sum(v[0] for v in vs) / len(vs)
                for k, vs in by_cell.items()}
    pcie_mean = {k: sum(v[1] for v in vs) / len(vs)
                 for k, vs in by_cell.items()}
    sim["paper_gap_pct"] = measure.paper_gap_pct(pcie_mean, lat_mean)
    for m in FIG5_METHODS:
        mine = [d for d in done if d[0] == m]
        sim[f"transfer.{m}.sim_mean_us"] = (
            sum(d[4] for d in mine) / len(mine) / 1000.0)
        sim[f"transfer.{m}.pcie_bytes_per_op"] = (
            sum(d[5] for d in mine) / len(mine))
    sim["nand_bytes_per_user_byte"] = 0.0

    bad = sum(1 for _m, _s, off, payload, _l, _b in done
              if tb.personality.read_back(off, len(payload)) != payload)
    return Round(ops=ops, setup_s=t_setup,
                 host_window=(win.host0, win.host1),
                 sim_window=(win.sim0, win.sim1), sim=sim,
                 counters=win.deltas(), failed_checks=bad,
                 inputs_digest=digest(d[3] for d in done))


# ----------------------------------------------------------------------
# engine_inline
# ----------------------------------------------------------------------
ENGINE_QUEUES = 4
ENGINE_QD = 8
ENGINE_STREAMS = 4
ENGINE_OPS = 16000


def run_engine_inline(seed: int, tracer=None) -> Round:
    """Four closed-loop MixGraph-sized ByteExpress write streams over
    the async engine (4 queues x QD 8, 8-op window per stream)."""
    from repro.engine import LoadGenerator, StreamSpec
    from repro.testbed import make_engine_testbed

    t0 = time.perf_counter()
    tb = make_engine_testbed(queues=ENGINE_QUEUES)
    engine = tb.make_engine(queues=ENGINE_QUEUES, qd=ENGINE_QD)
    streams = [StreamSpec(stream_id=i, ops=ENGINE_OPS // ENGINE_STREAMS, size="mixgraph",
                          concurrency=ENGINE_QUEUES * ENGINE_QD
                          // ENGINE_STREAMS)
               for i in range(ENGINE_STREAMS)]
    gen = LoadGenerator(engine, streams, seed=seed, method="byteexpress")
    submitted: List[Tuple[bytes, int, int, object]] = []
    submit = engine.submit

    def recording_submit(payload, *args, **kwargs):
        future = submit(payload, *args, **kwargs)
        submitted.append((payload, kwargs["cdw10"], kwargs["stream"],
                          future))
        return future

    engine.submit = recording_submit
    win = Window(tb.clock, lambda: counters(tb, engine=engine), tracer)
    t_setup = time.perf_counter() - t0
    win.open()
    report = gen.run()
    win.close()

    ops = len(submitted)
    per_client: Dict[int, List[float]] = {}
    for _p, _off, stream, future in submitted:
        if future.ok:
            per_client.setdefault(stream, []).append(future.latency_ns)
    latencies = [lat for lats in per_client.values() for lat in lats]
    sim = common_sim(tb, win, ops, report.total_ok, latencies,
                     list(per_client.values()))
    sim.update(engine_sim(win, engine))
    sim["paper_gap_pct"] = 0.0
    sim["nand_bytes_per_user_byte"] = 0.0
    bad = sum(1 for payload, off, _s, future in submitted
              if future.ok
              and tb.personality.read_back(off, len(payload)) != payload)
    return Round(ops=ops, setup_s=t_setup,
                 host_window=(win.host0, win.host1),
                 sim_window=(win.sim0, win.sim1), sim=sim,
                 counters=win.deltas(), errors=report.total_errors,
                 timeouts=report.total_timeouts, failed_checks=bad,
                 inputs_digest=digest(s[0] for s in submitted))


def engine_sim(win: Window, engine) -> Dict[str, float]:
    d = win.deltas()
    return {
        "engine.retries": d["engine.retries"],
        "engine.timeouts": d["engine.timeouts"],
        "engine.re_rings": d["engine.re_rings"],
        "engine.inflight_high_water": engine.table.high_water,
    }


# ----------------------------------------------------------------------
# kv_read / kv_write
# ----------------------------------------------------------------------
KV_SESSIONS = 256
KV_OPS_PER_SESSION = 40
KV_WINDOW_NS = 4000.0
KV_BATCH_PAIRS = 32
KV_CACHE_ENTRIES = 8192
#: Per-opportunity rates of the recoverable link faults armed on
#: kv_write: LCRC-caught TLP corruption (replayed) and late CQEs.
KV_FAULT_RATES = {"corrupt_tlp": 1e-3, "delay_cqe": 1e-3}


def run_kv(seed: int, read_ratio: float, keys_per_session: int,
           faults: bool, tracer=None) -> Round:
    """Closed-loop sessions over ``KvService`` (group commit + read
    cache) on the KV rig, NAND on.  ``run_serving`` preloads every key
    (counted as set-up), then runs the timed mix, checking
    read-your-writes on every GET."""
    from repro.faults import FaultPlan
    from repro.kvssd.service import KvSession
    from repro.testbed import make_kv_testbed
    from repro.workloads import run_serving
    from repro.workloads.serving import ServingConsistencyError

    t0 = time.perf_counter()
    plan = FaultPlan(seed=seed, rates=KV_FAULT_RATES) if faults else None
    tb = make_kv_testbed(fault_plan=plan)
    service = tb.make_service(qd=32, method="byteexpress",
                              batch_window_ns=KV_WINDOW_NS,
                              batch_max_pairs=KV_BATCH_PAIRS,
                              cache_entries=KV_CACHE_ENTRIES)
    engine = service.engine
    win = Window(tb.clock,
                 lambda: counters(tb, engine=engine, service=service),
                 tracer)
    if tracer is not None:
        # Spans of the preload are recorded too, then clipped away.
        tracer.clock = tb.clock
        tracer.recording = True
        run_serving = tracer.wrap_function("workloads", "run_serving",
                                           run_serving)
    #: (op, key, value, future, in_window) in call order.
    issued: List[Tuple[str, bytes, Optional[bytes], object, bool]] = []
    put, get = KvSession.put, KvSession.get

    def recording_put(session, key, value):
        future = put(session, key, value)
        issued.append(("put", key, value, future, win.opened))
        return future

    def recording_get(session, key):
        future = get(session, key)
        issued.append(("get", key, None, future, win.opened))
        return future

    drain = service.drain

    def drain_then_open():
        # run_serving drains once, after the untimed preload: the
        # timed window opens there.  The preload's burst would otherwise
        # set the in-flight high-water mark.
        resolved = drain()
        if not win.opened:
            engine.table.high_water = len(engine.table)
            win.open()
        return resolved

    service.drain = drain_then_open
    try:
        with mock.patch.object(KvSession, "put", recording_put), \
                mock.patch.object(KvSession, "get", recording_get):
            report = run_serving(
                service, sessions=KV_SESSIONS,
                ops_per_session=KV_OPS_PER_SESSION, read_ratio=read_ratio,
                keys_per_session=keys_per_session, fan_in=1, seed=seed)
    except ServingConsistencyError as exc:
        raise WorkloadError(f"read-your-writes violated: {exc}") from exc
    finally:
        if tracer is not None:
            tracer.recording = False
    win.close()
    t_setup = win.host0 - t0

    timed = [i for i in issued if i[4]]
    ops = len(timed)
    # The preload is attempted too: its failures count as errors.
    preload = [i for i in issued if not i[4]]
    preload_errors = sum(1 for i in preload if not i[3].ok)
    per_client: Dict[int, List[float]] = {}
    user_bytes = 0
    for op, key, value, future, _w in timed:
        per_client.setdefault(future.session_id, []).append(
            future.latency_ns)
        if op == "put" and future.ok:
            user_bytes += len(key) + len(value)
    latencies = [lat for lats in per_client.values() for lat in lats]
    sim = common_sim(tb, win, ops, report.ok + report.not_found, latencies,
                     list(per_client.values()))
    sim.update(engine_sim(win, engine))
    d = win.deltas()
    lookups = d["cache.hits"] + d["cache.misses"]
    page_bytes = tb.ssd.nand.geometry.page_bytes
    sim.update({
        "kvssd.cache.hit_rate": d["cache.hits"] / lookups if lookups else 0,
        "kvssd.cache.evictions": d["cache.evictions"],
        "kvssd.service.pairs_per_commit": (
            d["service.batched_pairs"] / d["service.batches"]
            if d["service.batches"] else 0.0),
        "kvssd.service.deferred_ops": d["service.deferred_ops"],
        "kvssd.lsm.flushes": d["lsm.flushes"],
        "kvssd.value_log.collects": d["vlog.gc_runs"],
        "nand_bytes_per_user_byte": (
            d["nand.programs"] * page_bytes / user_bytes),
        "paper_gap_pct": 0.0,
    })

    # Every acknowledged key must hold its last acknowledged value.
    expected: Dict[bytes, bytes] = {}
    for op, key, value, future, _w in issued:
        if op == "put" and future.ok:
            expected[key] = value
    kv = tb.personality
    bad = sum(1 for key, value in expected.items() if kv.peek(key) != value)
    if report.rw_checks == 0:
        raise WorkloadError("run_serving verified no GET")
    return Round(ops=ops, setup_s=t_setup,
                 host_window=(win.host0, win.host1),
                 sim_window=(win.sim0, win.sim1), sim=sim,
                 counters=d, untimed_ops=len(preload),
                 errors=report.errors + preload_errors, failed_checks=bad,
                 inputs_digest=digest((i[0], i[1], i[2]) for i in issued))


def run_kv_read(seed: int, tracer=None) -> Round:
    """90 % GET over 8 keys/session: the working set fits the cache."""
    return run_kv(seed, read_ratio=0.9, keys_per_session=8, faults=False,
                  tracer=tracer)


def run_kv_write(seed: int, tracer=None) -> Round:
    """90 % PUT over 64 keys/session (twice the cache), with seeded
    recoverable link faults armed."""
    return run_kv(seed, read_ratio=0.1, keys_per_session=64, faults=True,
                  tracer=tracer)


#: Workload name → pass function, in the order the doc lists them.
WORKLOADS: Dict[str, Callable[..., Round]] = {
    "fig5_qd1": run_fig5_qd1,
    "engine_inline": run_engine_inline,
    "kv_read": run_kv_read,
    "kv_write": run_kv_write,
}
