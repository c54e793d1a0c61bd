"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer *from outside*
the program: it swaps class attributes for timing wrappers while it is
installed and puts the originals back afterwards.  Every wrapped call
made while recording becomes one span with its host-clock and
simulated-clock start and end and the span that called it.  Spans stay
in memory; :meth:`Tracer.write_chrome_trace` writes them out at the
end as Chrome Trace Event JSON, which Perfetto opens.

Calls the program makes around a wrapper (an inlined hot loop, a bound
method cached before installation) are not seen; the benchmark compares
wrapped call counts against the program's own counters to expose them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import measure

#: Result observers: called with (args, kwargs, result) after a wrapped
#: call returns; the number they give is kept with the span.
Observer = Callable[[tuple, dict, Any], float]

#: (name, host_start, host_end, sim_start, sim_end, parent, observed).
Span = Tuple[str, float, float, float, float, int, float]


class Tracer:
    """Records spans around wrapped calls while :attr:`recording`."""

    def __init__(self) -> None:
        #: Span name → layer, in the order names were first wrapped.
        self.layer_of: Dict[str, str] = {}
        self.spans: List[Span] = []
        #: The simulated clock spans read; set once the rig exists.
        self.clock: Any = None
        self.recording = False
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap_function(self, layer: str, name: str, fn: Callable,
                      observe: Optional[Observer] = None) -> Callable:
        """A span-recording wrapper around *fn*."""
        self.layer_of.setdefault(name, layer)
        tracer = self
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            parent = stack[-1] if stack else -1
            stack.append(idx)
            clock = tracer.clock
            sim0 = clock.now
            host0 = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                host1 = perf()
                stack.pop()
                seen = (observe(args, kwargs, result)
                        if observe is not None else 0.0)
                spans[idx] = (name, host0, host1, sim0, clock.now, parent,
                              seen)

        return traced

    def wrap(self, layer: str, owner: type, attr: str,
             observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until
        :meth:`uninstall`."""
        original = owner.__dict__[attr]
        name = f"{owner.__name__}.{attr}"
        setattr(owner, attr,
                self.wrap_function(layer, name, original, observe))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def per_name(self, host_window: Tuple[float, float]
                 ) -> Dict[str, Tuple[int, float]]:
        """Name → (calls, sum of what the observer saw), over the spans
        that started inside *host_window*.  Names never called are 0."""
        lo, hi = host_window
        out = {name: (0, 0.0) for name in self.layer_of}
        for name, h0, _h1, _s0, _s1, _parent, seen in self.spans:
            if lo <= h0 <= hi:
                calls, total = out[name]
                out[name] = (calls + 1, total + seen)
        return out

    def layer_self_times(self, host_window: Tuple[float, float],
                         sim_window: Tuple[float, float]
                         ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-layer host seconds and simulated ns of self time, both
        clipped to their window."""
        host = measure.self_times([(s[1], s[2], s[5]) for s in self.spans],
                                  host_window)
        sim = measure.self_times([(s[3], s[4], s[5]) for s in self.spans],
                                 sim_window)
        host_by: Dict[str, float] = defaultdict(float)
        sim_by: Dict[str, float] = defaultdict(float)
        for span, h, s in zip(self.spans, host, sim):
            layer = self.layer_of[span[0]]
            host_by[layer] += h
            sim_by[layer] += s
        return dict(host_by), dict(sim_by)

    def write_chrome_trace(self, path, host_window: Tuple[float, float]
                           ) -> int:
        """Write the spans that overlap *host_window* as Chrome Trace
        Event JSON; returns how many.

        Host time is the timeline, in microseconds from the window's
        start; each event carries its simulated start and end in
        ``args``.
        """
        lo, hi = host_window
        events = [
            {"name": name, "cat": self.layer_of[name], "ph": "X",
             "pid": 1, "tid": 1,
             "ts": round((h0 - lo) * 1e6, 3),
             "dur": round((h1 - h0) * 1e6, 3),
             "args": {"sim_start_ns": s0, "sim_end_ns": s1}}
            for name, h0, h1, s0, s1, _parent, _seen in self.spans
            if h1 >= lo and h0 <= hi
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"},
                      fh, separators=(",", ":"))
        return len(events)


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------
def is_zero(_args, _kwargs, result) -> float:
    """IoEngine.poll: 1 for a poll that resolved nothing."""
    return 1.0 if result == 0 else 0.0


def result_value(_args, _kwargs, result) -> float:
    """NvmeController.poll_once: commands the sweep serviced."""
    return float(result or 0)


def is_true(_args, _kwargs, result) -> float:
    """FaultInjector.fire: 1 for an injection."""
    return 1.0 if result else 0.0


def traffic_bytes(args, kwargs, _result) -> float:
    """TrafficCounter.record/record_batch: the bytes accounted, to
    compare against the counter's own total."""
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    count = args[3] if len(args) > 3 else kwargs.get("count", 1)
    return float((batch.downstream_bytes + batch.upstream_bytes) * count)


def all_subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced entry point (see :data:`LAYERS`).

    The layer names are the repository's module names, except that the
    workload harness (load generator, serving loop, ``run_workload``)
    is its own layer.
    """
    from repro.engine.engine import IoEngine
    from repro.engine.loadgen import LoadGenerator
    from repro.faults.plan import FaultInjector
    from repro.host.driver import NvmeDriver
    from repro.kvssd.lsm import LsmIndex
    from repro.kvssd.service import KvService, KvSession
    from repro.kvssd.value_log import ValueLog
    from repro.pcie.traffic import TrafficCounter
    from repro.ssd.controller import NvmeController
    from repro.ssd.ftl import PageMappingFtl
    from repro.ssd.nand import NandArray
    from repro.transfer import base as transfer_base

    w = tracer.wrap
    w("workloads", LoadGenerator, "run")
    w("workloads", transfer_base.TransferMethod, "run_workload")
    for attr in ("put", "get", "delete"):
        w("kvssd.service", KvSession, attr)
    for attr in ("poll", "drain"):
        w("kvssd.service", KvService, attr)
    for attr in ("submit", "submit_read", "drain"):
        w("engine", IoEngine, attr)
    w("engine", IoEngine, "poll", is_zero)
    for attr in ("submit", "kick", "reap", "wait"):
        w("host", NvmeDriver, attr)
    for cls in all_subclasses(transfer_base.TransferMethod):
        if "write" in cls.__dict__:
            w("transfer", cls, "write")
    w("ssd", NvmeController, "poll_once", result_value)
    for attr in ("put", "get", "flush_memtable"):
        w("kvssd.device", LsmIndex, attr)
    for attr in ("append", "read", "collect"):
        w("kvssd.device", ValueLog, attr)
    for attr in ("write", "read"):
        w("ssd.ftl", PageMappingFtl, attr)
    for attr in ("program", "read", "erase"):
        w("ssd.nand", NandArray, attr)
    for attr in ("record", "record_batch"):
        w("pcie", TrafficCounter, attr, traffic_bytes)
    w("faults", FaultInjector, "fire", is_true)


#: Every layer :func:`install_layers` wraps, in stack order.
LAYERS = ("workloads", "kvssd.service", "engine", "host", "transfer", "ssd",
          "kvssd.device", "ssd.ftl", "ssd.nand", "pcie", "faults")
