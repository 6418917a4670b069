"""Tests of the benchmark harness itself (not of doesim's behaviour)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from common import ROOT, use_source_tree  # noqa: E402

use_source_tree()

import tracing  # noqa: E402
import workloads  # noqa: E402
from feeder136 import feeder136_text  # noqa: E402
from tracing import ROOT as ROOT_SPAN, Span, Tracer, layer_metrics, self_times  # noqa: E402
from worker import digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNTRACED_NAMES = ("setup_s", "study_s", "study_rel", "peak_rss_mb", "failed_share",
                  "tracking_error_max_kw", "v_margin_min_pu")


def _bench(*args) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke",
                           "--seconds", "0.2", *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_unit(trace):
    lines, result = _bench("--workload", "all", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    metrics = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    for w in SPEC["workloads"]:
        for m in metrics:
            got = result["metrics"][f"{w['name']}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    assert sum(line == "outputs correct" for line in lines) == len(SPEC["workloads"])
    if trace == "0":
        for name in UNTRACED_NAMES:
            assert sum(line.split()[:1] == [name] for line in lines) == len(SPEC["workloads"])


def test_single_workload_prints_exactly_the_contract_metrics():
    _, result = _bench("--workload", "binding")
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_self_times_on_synthetic_tree():
    spans = [
        Span(ROOT_SPAN, 0.0, 10.0, -1),
        Span("envelopes.build", 1.0, 6.0, 0),
        Span("envelopes.screen", 1.5, 4.0, 1),
        Span("powerflow.screen", 2.0, 3.5, 2),
        Span("envelopes.hull", 4.0, 5.0, 1),
        Span("scenarios.write", 7.0, 7.5, 0),
    ]
    assert self_times(spans) == pytest.approx([4.5, 1.5, 1.0, 1.5, 1.0, 0.5])
    tracer = Tracer()
    tracer.spans.extend(spans)
    # Timed writer calls: 0.75 s directly under the root, none elsewhere.
    tracer.timed["scenarios.write"] = [0.75, 3]
    tracer.nested[0] = 0.75
    m = layer_metrics(tracer)
    assert m["orchestrator.self_s"] == pytest.approx(3.75)
    assert m["envelopes.screen_self_s"] == pytest.approx(1.0)
    assert m["powerflow.screen_s"] == pytest.approx(1.5)
    assert m["envelopes.build_s"] == pytest.approx(5.0)
    assert m["scenarios.write_s"] == pytest.approx(1.25)
    assert m["scenarios.write_calls"] == 4
    assert m["trace.spans"] == len(spans)
    assert sum(m[k] for k in tracing.TOP_LEVEL_TIMES) == pytest.approx(m["trace.study_s"])


def _originals():
    out = []
    for _, path, _, _ in tracing.PLAN:
        owner, attr = tracing._resolve(path)
        out.append(owner.__dict__[attr])
    return out


def test_traced_run_restores_wrappers_and_outputs(tmp_path):
    from doesim import load_study_config, run_study

    cfg = load_study_config(workloads.write_study(ROOT, tmp_path, "study34", 7, smoke=True))
    before = _originals()
    run_study(cfg, tmp_path / "plain1")
    tracer = Tracer()
    with tracer.installed(), tracer.span(ROOT_SPAN):
        run_study(cfg, tmp_path / "traced")
    assert _originals() == before
    run_study(cfg, tmp_path / "plain2")

    hashes = {digest(tmp_path / d)[0] for d in ("plain1", "traced", "plain2")}
    assert len(hashes) == 1
    m = layer_metrics(tracer)
    assert m["powerflow.batch_elems"] == workloads.SMOKE_SCENARIOS
    assert tracer.timed["scenarios.write"][1] > 0

    timing = Tracer(tracing.TIMING_PLAN)
    with timing.installed(), timing.span(ROOT_SPAN):
        run_study(cfg, tmp_path / "timed")
    assert _originals() == before and not timing.calls
    merged = layer_metrics(timing, counting=tracer)
    for name in ("thermal.calls", "scenarios.value_at_calls", "scenarios.static_limits_calls",
                 "powerflow.sweeps", "scenarios.write_calls"):
        assert merged[name] == m[name]
    assert m["thermal.calls"] > 0 and m["scenarios.value_at_calls"] > 0
    assert sum(m[k] for k in tracing.TOP_LEVEL_TIMES) == pytest.approx(m["trace.study_s"])


def test_feeder136_generator_is_deterministic_and_loads(tmp_path):
    from doesim import assemble_admittance, load_feeder

    text = (ROOT / "configs" / "feeder34.cfg").read_text(encoding="utf-8")
    assert feeder136_text(text) == feeder136_text(text)
    path = tmp_path / "feeder136.cfg"
    path.write_text(feeder136_text(text), encoding="utf-8")
    feeder = load_feeder(path)  # radiality and impedance checks
    assert feeder.n_bus == 137 and len(feeder.household_map) == 408
    assert assemble_admittance(feeder).ybus.shape == (411, 411)


def test_binding_v_hi_keeps_exactly_the_survivors_at_the_tightest_step():
    peaks = [[1.00 + 0.001 * i for i in range(30)],
             [1.02 + 0.001 * i for i in range(29)] + [float("inf")]]
    v_hi = workloads.binding_v_hi(peaks)
    assert [sum(p <= v_hi for p in step) for step in peaks] == [30, 10]


def test_tabled_binding_seed_needs_no_program_run(tmp_path, monkeypatch):
    def calibrate(*args, **kwargs):
        raise AssertionError("calibrated although the seed is in the table")

    monkeypatch.setattr(workloads, "calibrate_v_hi", calibrate)
    table = workloads.v_hi_table()
    assert 7 in table
    assert workloads.binding_v_hi_for(ROOT, tmp_path, 7, smoke=False) == table[7]
