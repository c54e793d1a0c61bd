#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv_read --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` repeats set-up + timed pass of the workload until
``--seconds`` of wall time are used and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes for the same time
and prints the per-layer metrics, the tracing overhead, and writes the
first traced pass's spans to ``perfbench/out/`` as Chrome Trace Event
JSON.  Every metric printed is declared, with its unit, in
``BENCHMARK.json``.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.

The benchmark runs in this one process, with no extra threads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import measure
import tracer as tracing
from scenarios import WORKLOADS, WorkloadError

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "benchmarks"))
try:
    import repro  # noqa: F401  (the program under test)
    # Host-clock metrics are scaled by the interpreter-speed calibration
    # the wall-clock perf smoke uses.
    from perf_smoke import CALIB_ANCHOR, calibrate
except ImportError as exc:  # reported by main()
    MISSING: Optional[ImportError] = exc
else:
    MISSING = None

#: The seed a later claim must also pass on, beside the seeds it was
#: developed against (see README.md).
HELD_OUT_SEED = 0x5EED5

#: Name prefixes of layers a workload never runs: a declared metric
#: there that nothing measured reads 0.
NOT_RUN = {
    "fig5_qd1": ("kvssd.", "engine."),
    "engine_inline": ("kvssd.", "transfer."),
    "kv_read": ("transfer.",),
    "kv_write": ("transfer.",),
}

#: Traced call counts that must equal the program's own counters.
EXACT_CHECKS = (
    (("NandArray.program",), "nand.programs"),
    (("NandArray.read",), "nand.reads"),
    (("NandArray.erase",), "nand.erases"),
    (("PageMappingFtl.write",), "ftl.host_writes"),
    (("ValueLog.append",), "vlog.appends"),
    (("ValueLog.collect",), "vlog.gc_runs"),
    (("IoEngine.submit", "IoEngine.submit_read"), "engine.submitted"),
    (("KvSession.put", "KvSession.get", "KvSession.delete"), "service.ops"),
    (("IoEngine.submit",), "service.batches"),
)


class BenchError(Exception):
    """The benchmark cannot run here (bad environment or declaration)."""


def load_declaration() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=lambda s: int(s, 0), default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_pass(workload: str, seed: int,
             tracer: Optional[tracing.Tracer] = None):
    """One set-up + timed pass, traced when *tracer* is given."""
    gc.collect()
    if tracer is None:
        return WORKLOADS[workload](seed)
    # Install before the rig exists, so no bound method is cached
    # around a wrapper.
    tracing.install_layers(tracer)
    try:
        return WORKLOADS[workload](seed, tracer=tracer)
    finally:
        tracer.uninstall()


def fill_not_run(workload: str, measured: Dict[str, float],
                 declared: List[str]) -> Dict[str, float]:
    """*measured* plus a 0 for each declared metric, not measured, of a
    layer the workload never runs."""
    out = dict(measured)
    for name in declared:
        if name not in out and name.startswith(NOT_RUN[workload]):
            out[name] = 0.0
    return out


def layer_metrics(tracer, rnd) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer host metrics of one traced pass, and any mismatch
    between traced call counts and the program's counters."""
    host_self, sim_self = tracer.layer_self_times(rnd.host_window,
                                                  rnd.sim_window)
    by_name = tracer.per_name(rnd.host_window)
    ops = rnd.ops
    m: Dict[str, float] = {f"{layer}.host_self_s": host_self.get(layer, 0.0)
                           for layer in tracing.LAYERS}
    m["kvssd.device.sim_self_ns_per_op"] = (
        sim_self.get("kvssd.device", 0.0) / ops)
    polls, empty = by_name["IoEngine.poll"]
    m["engine.empty_poll_frac"] = empty / polls if polls else 0.0
    m["trace.spans_per_op"] = sum(c for c, _ in by_name.values()) / ops

    # Work a layer did outside its wrapper is unattributed: the caller's
    # self time holds it.  Report the share, never a free layer.
    c = rnd.counters
    commands = c["ctrl.commands"]
    seen_cmds = by_name["NvmeController.poll_once"][1]
    m["ssd.bypassed_frac"] = (1.0 - seen_cmds / commands) if commands else 0.0
    host_cmds = by_name["NvmeDriver.submit"][0]
    m["host.bypassed_frac"] = (max(0.0, 1.0 - host_cmds / commands)
                               if commands else 0.0)
    seen_bytes = (by_name["TrafficCounter.record"][1]
                  + by_name["TrafficCounter.record_batch"][1])
    total_bytes = c["traffic.bytes"]
    m["pcie.bypassed_frac"] = (1.0 - seen_bytes / total_bytes
                               if total_bytes else 0.0)

    problems = []
    for names, counter in EXACT_CHECKS:
        if counter not in c:
            continue
        calls = sum(by_name[n][0] for n in names)
        if calls != c[counter]:
            problems.append(f"{'+'.join(names)} traced {calls} calls, "
                            f"counter {counter} moved {c[counter]}")
    fired = by_name["FaultInjector.fire"][1]
    if fired != c["faults.injected"]:
        problems.append(f"FaultInjector.fire returned True {fired} times, "
                        f"{c['faults.injected']} injections counted")
    if seen_cmds > commands:
        problems.append(f"poll_once reported {seen_cmds} commands, "
                        f"controller counted {commands}")
    return m, problems


@dataclass
class Passes:
    """Everything one invocation measured, before it is summarised."""

    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    #: layer_metrics() of each traced pass.
    layer_runs: List[Dict[str, float]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    trace_file: Optional[pathlib.Path] = None
    #: calibrate() before every pass and once after the last.
    calibrations: List[float] = field(default_factory=list)

    @property
    def host_speed(self) -> float:
        """This run's interpreter speed relative to CALIB_ANCHOR: all
        calibration loops over all calibration time."""
        return statistics.harmonic_mean(self.calibrations) / CALIB_ANCHOR


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> Passes:
    """Repeat passes until *seconds* of wall time are used (at least
    one); with *trace*, each untraced pass is followed by a traced one."""

    out = Passes()
    start = time.perf_counter()
    while not out.untraced or time.perf_counter() - start < seconds:
        out.calibrations.append(calibrate())
        out.untraced.append(one_pass(workload, seed))
        if not trace:
            continue
        t = tracing.Tracer()
        rnd = one_pass(workload, seed, tracer=t)
        out.traced.append(rnd)
        metrics, bad = layer_metrics(t, rnd)
        out.layer_runs.append(metrics)
        out.problems += bad
        if out.trace_file is None:
            OUT_DIR.mkdir(exist_ok=True)
            out.trace_file = OUT_DIR / f"{workload}-seed{seed}.trace.json"
            t.write_chrome_trace(out.trace_file, rnd.host_window)
    out.calibrations.append(calibrate())
    return out


def throughput(rounds) -> float:
    """All timed ops over all timed seconds of *rounds*."""
    return sum(r.ops for r in rounds) / sum(r.run_s for r in rounds)


def summarize(workload: str, passes: Passes, trace: bool,
              decl: dict) -> dict:
    """The result object: host metrics over all passes, the (identical)
    simulated metrics of the passes, and every check."""

    group = decl["per_layer" if trace else "end_to_end"]
    declared = [m["name"] for m in group]
    problems = list(passes.problems)
    first = passes.untraced[0]
    for rnd in passes.untraced[1:] + passes.traced:
        if rnd.sim != first.sim or rnd.inputs_digest != first.inputs_digest:
            diff = sorted(k for k in first.sim
                          if rnd.sim.get(k) != first.sim[k])
            problems.append(f"simulated metrics differ between passes of "
                            f"one seed: {diff[:5]}")
            break
    everything = passes.untraced + passes.traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    sim = first.sim
    # Host-clock metrics are scaled by the run's interpreter speed: on a
    # shared machine that speed drifts by 2x over minutes, and the ratio
    # cancels the drift.
    speed = passes.host_speed
    rate = throughput(passes.untraced) / speed
    if trace:
        metrics = {name: statistics.median(m[name]
                                           for m in passes.layer_runs)
                   for name in passes.layer_runs[0]}
        traced_rate = throughput(passes.traced) / speed
        metrics["trace.host_ops_per_s"] = traced_rate
        metrics["trace.overhead_x"] = rate / traced_rate
        metrics["failed_frac"] = measure.failed_frac(
            attempted, sum(r.errors for r in everything),
            sum(r.timeouts for r in everything),
            sum(r.failed_checks for r in everything))
        metrics.update({k: v for k, v in sim.items() if k in declared})
        # Only names neither the tracer nor the simulator produced: a
        # layer that did run shows its measured time, never a 0.
        metrics = fill_not_run(workload, metrics, declared)
    else:
        metrics = {
            "setup_s": statistics.median(r.setup_s
                                         for r in passes.untraced) * speed,
            "host_ops_per_s": rate,
            "host_peak_rss_mb": peak_rss_mb(),
            "sim_kiops": sim["sim_kiops"],
            "pcie_bytes_per_op": sim["pcie_bytes_per_op"],
        }
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise BenchError(f"declared metrics not produced: {missing}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in group},
        "_passes": len(everything),
        "_host_speed": speed,
        "_notes": problems,
        "_trace_file": passes.trace_file,
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("REPRO_VERIFY"):
        print("REPRO_VERIFY is set: the protocol monitor's wrappers would "
              "be timed; unset it to benchmark", file=sys.stderr)
        return 2
    if MISSING is not None:
        print(f"cannot import the program from {ROOT}: {MISSING}",
              file=sys.stderr)
        return 2
    try:
        decl = load_declaration()
        trace = bool(args.trace)
        result = summarize(args.workload,
                           run_passes(args.workload, args.seed,
                                      args.seconds, trace),
                           trace, decl)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except WorkloadError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{result['_passes']} passes, trace {args.trace}, host speed "
          f"{result['_host_speed']:.3f} x the calibration anchor")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  attempted = {result['attempted']}, failed = "
          f"{result['failed']}, failed_frac = "
          f"{result['failed'] / result['attempted']!r}")
    for note in result["_notes"]:
        print(f"  CHECK FAILED: {note}")
    if result["_trace_file"] is not None:
        print(f"  spans written to "
              f"{result['_trace_file'].relative_to(ROOT)}")
    print(json.dumps({k: v for k, v in result.items()
                      if not k.startswith("_")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
