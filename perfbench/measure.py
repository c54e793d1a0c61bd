"""Pure metric arithmetic for the benchmark: no simulator imports.

Everything here is a function of plain numbers, so the benchmark's own
tests can pin each rule on fixed inputs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail is chosen from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: Samples that must rank above a percentile before it is reported.
MIN_BEYOND = 10

#: Figure 5's headline ratios in the paper, in percent.
PAPER_TRAFFIC_CUT_64B = 96.3      # ByteExpress vs PRP traffic at 64 B
PAPER_LATENCY_CUT_SMALL = 40.4    # best ByteExpress vs PRP latency, 32-128 B
PAPER_LATENCY_CUT_BANDSLIM = 72.0  # ByteExpress vs BandSlim latency at 128 B


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* sorted samples sit above the *pct*
    percentile's interpolation index."""
    if count <= 0:
        return 0
    # round() first: the index can land an ulp below an integer.
    return count - 1 - math.floor(round((count - 1) * pct / 100.0, 9))


def reportable(count: int, pct: float) -> bool:
    """Whether *pct* has at least :data:`MIN_BEYOND` samples beyond it."""
    return samples_beyond(count, pct) >= MIN_BEYOND


def tail(samples: Iterable[float]) -> Tuple[float, float, int]:
    """The highest reportable percentile: ``(pct, value, count)``.

    Raises ``ValueError`` when not even the median has ten samples
    beyond it (fewer than 20 samples).
    """
    values = list(samples)
    best: Optional[float] = None
    for pct in TAIL_LADDER:
        if reportable(len(values), pct):
            best = pct
    if best is None:
        raise ValueError(f"{len(values)} samples: no percentile has "
                         f"{MIN_BEYOND} samples beyond it")
    return best, float(np.percentile(values, best)), len(values)


def latency_summary(samples_ns: Sequence[float]) -> Dict[str, float]:
    """p50/p99/p99.9 in microseconds plus the sample count.

    A percentile without :data:`MIN_BEYOND` samples beyond it is left
    out rather than reported from too few samples.
    """
    out: Dict[str, float] = {"sim_samples": float(len(samples_ns))}
    for pct, name in ((50.0, "sim_p50_us"), (99.0, "sim_p99_us"),
                      (99.9, "sim_p999_us")):
        if reportable(len(samples_ns), pct):
            out[name] = float(np.percentile(samples_ns, pct)) / 1000.0
    return out


def worst_client_tail(per_client_ns: Iterable[Sequence[float]]
                      ) -> Tuple[float, float]:
    """Worst client's tail at the highest percentile every client can
    report: ``(pct, value_us)``."""
    clients = list(per_client_ns)
    if not clients:
        raise ValueError("no clients")
    pct = min(tail(c)[0] for c in clients)
    return pct, max(float(np.percentile(c, pct)) for c in clients) / 1000.0


def failed_frac(attempted: int, errors: int, timeouts: int,
                failed_checks: int) -> float:
    """(errors + timeouts + failed output checks) / ops attempted.

    An op that both errored and failed its check counts once per
    cause; the callers count each op under one cause only.
    """
    if attempted <= 0:
        raise ValueError("no ops attempted")
    return (errors + timeouts + failed_checks) / attempted


def reduction_pct(baseline: float, improved: float) -> float:
    return (1.0 - improved / baseline) * 100.0


def paper_gap_pct(traffic_b: Dict[Tuple[str, int], float],
                  latency_ns: Dict[Tuple[str, int], float]) -> float:
    """Mean absolute gap, in percentage points, to Figure 5's three
    headline ratios.  Inputs map ``(method, size)`` to per-op means."""
    traffic_cut = reduction_pct(traffic_b[("prp", 64)],
                                traffic_b[("byteexpress", 64)])
    latency_cut = max(reduction_pct(latency_ns[("prp", s)],
                                    latency_ns[("byteexpress", s)])
                      for s in (32, 64, 128))
    bandslim_cut = reduction_pct(latency_ns[("bandslim", 128)],
                                 latency_ns[("byteexpress", 128)])
    return (abs(traffic_cut - PAPER_TRAFFIC_CUT_64B)
            + abs(latency_cut - PAPER_LATENCY_CUT_SMALL)
            + abs(bandslim_cut - PAPER_LATENCY_CUT_BANDSLIM)) / 3.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def clip(lo: float, hi: float, window: Tuple[float, float]
         ) -> Tuple[float, float]:
    """*[lo, hi]* clipped to *window*; empty intervals have hi <= lo."""
    return max(lo, window[0]), min(hi, window[1])


def self_times(spans: Sequence[Tuple[float, float, int]],
               window: Tuple[float, float]) -> List[float]:
    """Self time of each span: its clipped duration minus the part of
    that interval its direct children cover.

    *spans* are ``(start, end, parent_index)`` with ``-1`` for roots.
    Children may overlap each other or stick out of their parent; only
    the covered part of the parent's own clipped interval counts.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _parent) in enumerate(spans):
        lo, hi = clip(start, end, window)
        if hi <= lo:
            out.append(0.0)
            continue
        covered = union_length(clip(c_lo, c_hi, (lo, hi))
                               for c_lo, c_hi in children.get(i, ()))
        out.append((hi - lo) - covered)
    return out

