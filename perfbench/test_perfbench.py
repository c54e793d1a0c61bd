"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run as bench  # noqa: E402
import scenarios  # noqa: E402
import tracer as tracing  # noqa: E402

DECL = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_samples_beyond_counts_ranks_above_the_interpolation_index():
    assert measure.samples_beyond(20, 50.0) == 10
    assert measure.samples_beyond(19, 50.0) == 9
    assert measure.samples_beyond(100, 90.0) == 10
    assert measure.samples_beyond(10000, 99.9) == 10
    assert measure.samples_beyond(9000, 99.9) == 9


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert measure.tail(range(100)) == (90.0, pytest.approx(89.1), 100)
    assert measure.tail(range(20))[0] == 50.0
    assert measure.tail(range(1000))[0] == 99.0
    assert measure.tail(range(10000))[0] == 99.9
    with pytest.raises(ValueError):
        measure.tail(range(19))


def test_latency_summary_leaves_out_unsupported_percentiles():
    small = measure.latency_summary([1000.0] * 5000)
    assert small == {"sim_samples": 5000.0, "sim_p50_us": 1.0,
                     "sim_p99_us": 1.0}
    big = measure.latency_summary([float(i) for i in range(10000)])
    assert big["sim_samples"] == 10000.0
    assert big["sim_p999_us"] == pytest.approx(9989.001 / 1000.0)


def test_worst_client_tail_uses_a_percentile_every_client_supports():
    quiet = [100.0] * 200
    starved = [100.0] * 30 + [5000.0] * 10
    pct, worst = measure.worst_client_tail([quiet, starved])
    assert pct == 75.0  # 40 samples: p75 is the highest with 10 beyond
    # p75 of 40 samples sits at rank 29.25: a quarter of the way from
    # 100 (rank 29) to 5000 (rank 30).
    assert worst == pytest.approx(1.325)


# ----------------------------------------------------------------------
# failed_frac accounting
# ----------------------------------------------------------------------
def test_failed_frac_counts_errors_timeouts_and_failed_checks():
    assert measure.failed_frac(200, 1, 2, 3) == pytest.approx(0.03)
    with pytest.raises(ValueError):
        measure.failed_frac(0, 0, 0, 0)


def _fake_round(failed: int = 0, kiops: float = 1.0) -> scenarios.Round:
    return scenarios.Round(
        ops=100, setup_s=0.1, host_window=(0.0, 0.5),
        sim_window=(0.0, 1e6),
        sim={"sim_kiops": kiops, "pcie_bytes_per_op": 64.0},
        counters={}, errors=failed, timeouts=failed, failed_checks=failed)


def _passes(*rounds) -> bench.Passes:
    return bench.Passes(untraced=list(rounds),
                        calibrations=[bench.CALIB_ANCHOR])


def test_summary_sums_failures_over_passes():
    passes = _passes(_fake_round(), _fake_round(failed=1))
    result = bench.summarize("fig5_qd1", passes, False, DECL)
    assert (result["attempted"], result["failed"]) == (200, 3)
    assert result["correct"] is False
    clean = _passes(_fake_round(), _fake_round())
    assert bench.summarize("fig5_qd1", clean, False, DECL)["correct"]


def test_host_metrics_are_scaled_by_the_host_speed():
    slow = _fake_round()
    slow.host_window = (0.0, 1.0)  # 100 ops in 1 s; the others in 0.5 s
    passes = bench.Passes(untraced=[slow, _fake_round(), _fake_round()],
                          calibrations=[2 * bench.CALIB_ANCHOR] * 4)
    metrics = bench.summarize("fig5_qd1", passes, False, DECL)["metrics"]
    # 300 ops in 2 s, on a host running at twice the anchor speed.
    assert metrics["host_ops_per_s"]["value"] == 75.0
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)


def test_untimed_preload_ops_count_as_attempted():
    preloaded = _fake_round()
    preloaded.untimed_ops = 50
    result = bench.summarize("kv_read", _passes(preloaded), False, DECL)
    assert result["attempted"] == 150


def test_not_run_zero_never_hides_a_measured_layer():
    # kv_read never runs the transfer layer: its transfer.* simulated
    # metrics read 0, but host time the tracer saw there is reported.
    derived = {"trace.host_ops_per_s", "trace.overhead_x", "failed_frac"}
    rnd = _fake_round()
    rnd.sim.update({m["name"]: 1.0 for m in DECL["per_layer"]
                    if not m["name"].startswith("transfer.")
                    and m["name"] not in derived})
    passes = _passes(rnd)
    passes.traced = [rnd]
    passes.layer_runs = [{"transfer.host_self_s": 0.5}]
    metrics = bench.summarize("kv_read", passes, True, DECL)["metrics"]
    assert metrics["transfer.host_self_s"]["value"] == 0.5
    assert metrics["transfer.prp.sim_mean_us"]["value"] == 0.0


def test_summary_fails_passes_of_one_seed_that_disagree():
    passes = _passes(_fake_round(), _fake_round(kiops=2.0))
    result = bench.summarize("fig5_qd1", passes, False, DECL)
    assert result["correct"] is False
    assert "sim_kiops" in result["_notes"][0]


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
#: root [0,10] with children [1,4], [3,6] (overlapping) and [7,8];
#: [1,4] has a nested child [2,3].
SPANS = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (7.0, 8.0, 0),
         (2.0, 3.0, 1)]


def test_self_time_subtracts_the_union_of_direct_children():
    assert measure.self_times(SPANS, (0.0, 10.0)) == [4.0, 2.0, 3.0, 1.0,
                                                      1.0]


def test_self_time_is_clipped_to_the_window():
    # Window [5, 10]: the root keeps [5,10] minus [5,6] and [7,8].
    assert measure.self_times(SPANS, (5.0, 10.0)) == [3.0, 0.0, 1.0, 1.0,
                                                      0.0]


def test_union_length_merges_overlaps_and_ignores_empty_intervals():
    assert measure.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4


class _Clock:
    now = 0.0


class _Layer:
    def outer(self, clock):
        clock.now += 10
        self.inner(clock)
        return 0

    def inner(self, clock):
        clock.now += 5
        return 7


def test_tracer_links_nested_calls_and_restores_the_class():
    original = _Layer.__dict__["outer"]
    t = tracing.Tracer()
    t.wrap("a", _Layer, "outer", tracing.is_zero)
    t.wrap("b", _Layer, "inner", tracing.result_value)
    t.clock = clock = _Clock()
    t.recording = True
    _Layer().outer(clock)
    t.recording = False
    t.uninstall()
    assert _Layer.__dict__["outer"] is original
    outer, inner = t.spans  # outer opens first
    assert inner[5] == t.spans.index(outer)
    assert (outer[3], outer[4], inner[3], inner[4]) == (0.0, 15.0, 10.0,
                                                        15.0)
    window = (outer[1], outer[2])
    host, sim = t.layer_self_times(window, (0.0, 15.0))
    assert sim == {"a": 10.0, "b": 5.0}
    assert host["a"] + host["b"] == pytest.approx(outer[2] - outer[1])
    assert t.per_name(window) == {"_Layer.outer": (1, 1.0),
                                  "_Layer.inner": (1, 7.0)}


# ----------------------------------------------------------------------
# paper gap
# ----------------------------------------------------------------------
def test_paper_gap_on_the_archived_figure5_means():
    lat = {("prp", s): 6210.0 for s in (32, 64, 128)}
    lat.update({("byteexpress", 32): 3840.0, ("byteexpress", 64): 3840.0,
                ("byteexpress", 128): 4270.0, ("bandslim", 128): 11990.0})
    traffic = {("prp", 64): 5148.0, ("byteexpress", 64): 412.0}
    # |92.00 - 96.3| + |38.16 - 40.4| + |64.39 - 72| over 3.
    assert measure.paper_gap_pct(traffic, lat) == pytest.approx(4.7173,
                                                                abs=1e-4)


def test_paper_gap_is_zero_on_the_paper_numbers():
    lat = {("prp", s): 100.0 for s in (32, 64, 128)}
    lat.update({("byteexpress", s): 59.6 for s in (32, 64, 128)})
    lat[("bandslim", 128)] = 59.6 / 0.28
    traffic = {("prp", 64): 1000.0, ("byteexpress", 64): 37.0}
    assert measure.paper_gap_pct(traffic, lat) == pytest.approx(0.0,
                                                                abs=1e-9)


# ----------------------------------------------------------------------
# seeds, determinism and traced-run integrity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_seed_decides_the_op_stream_and_repeats_exactly(workload):
    a = bench.one_pass(workload, 1)
    b = bench.one_pass(workload, 1)
    held_out = bench.one_pass(workload, bench.HELD_OUT_SEED)
    assert a.failed == 0 and held_out.failed == 0
    assert a.sim == b.sim and a.inputs_digest == b.inputs_digest
    assert held_out.inputs_digest != a.inputs_digest


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_traced_pass_matches_untraced_and_the_counters(workload):
    plain = bench.one_pass(workload, 1)
    t = tracing.Tracer()
    traced = bench.one_pass(workload, 1, tracer=t)
    assert traced.sim == plain.sim
    metrics, problems = bench.layer_metrics(t, traced)
    assert problems == []
    assert metrics["workloads.host_self_s"] > 0
    # The engine's batched hot loop encodes commands without calling
    # NvmeDriver.submit: the host layer shows as bypassed, not free.
    if workload != "fig5_qd1":
        assert metrics["host.bypassed_frac"] == 1.0


def test_faults_fire_only_on_kv_write():
    quiet = bench.one_pass("kv_read", 1)
    assert quiet.sim["faults.fired"] == 0
    armed = bench.one_pass("kv_write", 1)
    assert armed.sim["faults.fired"] > 0 and armed.failed == 0


# ----------------------------------------------------------------------
# the command and its declaration
# ----------------------------------------------------------------------
def test_declaration_is_complete():
    assert sorted(w["name"] for w in DECL["workloads"]) == sorted(
        scenarios.WORKLOADS)
    for group in ("end_to_end", "per_layer"):
        for m in DECL[group]:
            assert m["unit"] and m["better"] in ("higher", "lower"), m
    bounds = {m["name"]: m["bound"] for m in DECL["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_every_printed_metric_is_declared_with_its_unit(workload, trace):
    out = _run(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                "--trace", trace])
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    group = DECL["end_to_end" if trace == "0" else "per_layer"]
    declared = {m["name"]: m["unit"] for m in group}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = [line.split() for line in lines if line.startswith("  ")
               and " = " in line and not line.startswith("  attempted")]
    assert {p[0]: p[-1] for p in printed} == declared


def test_refuses_to_time_a_monitored_run():
    env = dict(os.environ, REPRO_VERIFY="1")
    out = _run(["--workload", "kv_read", "--seconds", "0.1"], env=env)
    assert out.returncode != 0 and "{" not in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(["--workload", "kv_read", "--seconds", "0.1"], cwd=tmp_path)
    assert out.returncode != 0 and "{" not in out.stdout


# ----------------------------------------------------------------------
# known defect, left failing (see README.md "Findings")
# ----------------------------------------------------------------------
@pytest.mark.xfail(strict=True, reason="pio_coherent drops the write "
                   "offset; fig5_qd1 leaves it out until it is fixed")
def test_pio_coherent_write_lands_at_its_offset():
    from repro.testbed import make_block_testbed

    tb = make_block_testbed()
    payload = bytes(range(64))
    tb.method("pio_coherent").run_workload([payload], cdw10=4096)
    assert tb.personality.read_back(4096, 64) == payload
