"""The measured process of one workload, and the set-up probe.

``worker.py setup --config STUDY`` imports doesim, runs the set-up chain up
to the first control step, and prints the CLOCK_MONOTONIC time at which it
got there; the caller subtracts its spawn time.

``worker.py study ...`` runs ``run_study`` back to back for a time budget,
traced or not, hashes each run's result files, reads the outcome back
from them, and prints one JSON line.  Run by run.py; not meant to be used
by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from common import Yardstick, cap_threads, use_source_tree

cap_threads()
use_source_tree()


def cmd_setup(args) -> None:
    from doesim import (assemble_admittance, build_reference, load_feeder, load_profiles,
                        load_study_config, simulate_baseline, synthesize_households)

    cfg = load_study_config(args.config)
    feeder = load_feeder(cfg.feeder_path)
    assemble_admittance(feeder)
    specs = synthesize_households(feeder, cfg.households, cfg.dt_control_h, cfg.seed)
    profiles = load_profiles(cfg, specs)
    baseline = simulate_baseline(specs, profiles, cfg)
    build_reference(baseline, cfg.regulation_fraction, cfg.reference_shape, cfg.seed,
                    cfg.window_start_s, cfg.control_step_s, cfg.reference_period_s)
    print(repr(time.monotonic()))


class UnconvergedLog(logging.Handler):
    """Collects the sub-step times the orchestrator reports as not converged."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.times: set[int] = set()

    def emit(self, record):
        if "did not converge" in record.msg:
            self.times.add(int(record.args[0]))


def digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every result file but manifest.txt, and total bytes written."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        size += path.stat().st_size
        rel = path.relative_to(out).as_posix()
        if rel == "manifest.txt":
            continue
        h.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest(), size


def _column(path: Path, name: str) -> list[float]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        col = fh.readline().rstrip("\n").split(",").index(name)
        return [float(ln.rstrip("\n").split(",")[col]) for ln in fh]


def read_outcome(out: Path, cfg, n_bus: int, unconverged: set[int]) -> dict:
    """Replay records, guarantees and tracking as the result files report them.

    A record is one (sub-step, bus, phase) voltage.  It fails when it is out
    of [v_lo, v_hi], when its sub-step did not converge, or when the run
    aborted before producing it.
    """
    attempted = cfg.n_control_steps * cfg.substeps_per_control * 3 * n_bus
    produced = failed = 0
    margin = float("inf")
    with open(out / "gridlog" / "voltages.csv", encoding="utf-8") as fh:
        fh.readline()
        for ln in fh:
            t_s, _, _, v_txt = ln.split(",")
            v = float(v_txt)
            produced += 1
            margin = min(margin, v - cfg.v_lo, cfg.v_hi - v)
            if v < cfg.v_lo or v > cfg.v_hi or int(t_s) in unconverged:
                failed += 1
    violations = len(_column(out / "gridlog" / "violations.csv", "v_mag_pu"))
    summary = dict(ln.split(" = ", 1) for ln in
                   (out / "summary.txt").read_text(encoding="utf-8").splitlines())
    tracking = _column(out / "dispatch" / "convergence.csv", "tracking_error_kw")
    t_in = _column(out / "dispatch" / "dispatch.csv", "t_in_next_c")
    return {
        "records_attempted": attempted,
        "records_failed": failed + attempted - produced,
        "v_margin_min_pu": margin,
        "violation_rows": violations,
        "unconverged_substeps": len(unconverged),
        "failed_guarantee_events": int(summary["failed_guarantee_events"]),
        "tracking_error_max_kw": max(tracking, default=float("nan")),
        "t_in_min_c": min(t_in, default=float("nan")),
        "t_in_max_c": max(t_in, default=float("nan")),
        "comfort_c": list(cfg.households.comfort_c),
    }


def cmd_study(args) -> None:
    from doesim import DoesimError, load_feeder, load_study_config, run_study
    from tracing import PLAN, ROOT, TIMING_PLAN, Tracer, layer_metrics

    cfg = load_study_config(args.config)
    n_bus = load_feeder(cfg.feeder_path).n_bus
    unconverged = UnconvergedLog()
    logging.getLogger("doesim").addHandler(unconverged)

    runs = []
    outcome = None
    # (seconds, tracer, bytes written) per traced run; only the first one runs
    # the hot-call counters, the others are timed without them.
    traced = []
    yardstick = Yardstick()
    begin = time.perf_counter()
    while True:
        tracer = None
        if args.trace and len(runs) % 2 == 1:
            tracer = Tracer(TIMING_PLAN if traced else PLAN)
        out = Path(args.out) / "run"
        shutil.rmtree(out, ignore_errors=True)
        unconverged.times.clear()
        aborted = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                run_study(cfg, out, envelope_dir=args.envelopes)
            else:
                with tracer.installed(), tracer.span(ROOT):
                    run_study(cfg, out, envelope_dir=args.envelopes)
        except DoesimError as exc:
            aborted = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        reference = yardstick.around()
        sha, size = digest(out)
        runs.append({"seconds": seconds, "reference_s": reference, "traced": tracer is not None,
                     "aborted": aborted, "sha256": sha})
        if outcome is None:
            outcome = read_outcome(out, cfg, n_bus, unconverged.times)
        if tracer is not None:
            traced.append((seconds, tracer, size))
        shutil.rmtree(out)
        elapsed = time.perf_counter() - begin
        pair_done = not args.trace or len(runs) % 2 == 0
        typical = statistics.median(r["seconds"] for r in runs)
        if pair_done and elapsed + typical * (2 if args.trace else 1) > args.seconds:
            break

    result = {
        "runs": runs,
        "outcome": outcome,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        # Times come from the timed run with the median time; a run too short
        # for one falls back on the counting run, counter overhead included.
        timed = sorted(traced[1:] or traced, key=lambda item: item[0])
        _, tracer, size = timed[(len(timed) - 1) // 2]
        layers = layer_metrics(tracer, counting=traced[0][1])
        layers["scenarios.bytes_written"] = size
        untraced = [r["seconds"] for r in runs if not r["traced"]]
        layers["trace.overhead_s"] = (statistics.median(t[0] for t in timed)
                                      - statistics.median(untraced))
        result["layers"] = layers
        spans = tracer.spans
        t_root = spans[0].start
        (Path(args.out) / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"],
             "spans": [[s.name, s.start - t_root, s.end - t_root, s.parent]
                       for s in spans]}), encoding="utf-8")
    print(json.dumps(result))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p = sub.add_parser("study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--envelopes")
    args = parser.parse_args(argv)
    (cmd_setup if args.mode == "setup" else cmd_study)(args)


if __name__ == "__main__":
    sys.exit(main())
