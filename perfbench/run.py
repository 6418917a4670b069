"""doesim benchmark: one closed-loop study workload per process, one at a time.

    python3 perfbench/run.py --workload study34 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, untraced

Per workload it builds the inputs from the seed (untimed), starts the
set-up probe several times for ``setup_s``, then one worker process that
runs the study back to back for ``--seconds``.  It prints every metric by
name with its unit, the correctness verdict, and as its last line one JSON
object.  ``--trace 1`` instead alternates untraced and traced runs and
reports the per-layer metrics.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from common import BENCH_DIR, ROOT, Yardstick, cap_threads, nproc, use_source_tree

cap_threads()  # numpy is imported later, so the caps reach OpenBLAS

# Set-up probes per run, half before and half after the study worker, so the
# samples straddle the machine's speed swings like the study runs do.
SETUP_PROBES = 10
# The yardstick's wall time on the 2-vCPU host that made baseline.json.
# setup_s is each probe's time scaled by this over the yardstick's time
# around that probe: seconds at the baseline host's speed.
YARDSTICK_S = 0.097
WORKER_TIMEOUT_S = 150
TRACKING_GATE_KW = 0.01
# The acceptance suite's tolerance on the comfort band: dispatch lands indoor
# temperatures on the band's edges in closed form, up to rounding.
COMFORT_TOL_C = 1e-6
WORK_DIR = ROOT / ".perfbench_work"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": openblas}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _python(*args: str, timeout: float) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} {args[1]} failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(study_cfg: Path, probes: int, yardstick: Yardstick) -> list[tuple]:
    """(wall, yardstick) seconds from process start to first control step, per probe."""
    samples = []
    for _ in range(probes):
        spawned = time.monotonic()
        reached = float(_python(str(BENCH_DIR / "worker.py"), "setup",
                                "--config", str(study_cfg), timeout=60))
        samples.append((reached - spawned, yardstick.around()))
    return samples


def verdict(name: str, runs: list[dict], outcome: dict) -> list[str]:
    """Reasons the outputs are wrong; empty when they are correct."""
    problems = []
    if len({r["sha256"] for r in runs}) != 1:
        problems.append("result files differ between repeats of the same inputs")
    if any(r["aborted"] for r in runs):
        problems.append(f"study aborted: {next(r['aborted'] for r in runs if r['aborted'])}")
    if outcome["failed_guarantee_events"] != (outcome["violation_rows"]
                                              + outcome["unconverged_substeps"]):
        problems.append("summary's failed-guarantee count disagrees with the logged records")
    if name in workloads.GATED:
        if not outcome["tracking_error_max_kw"] <= TRACKING_GATE_KW:
            problems.append(f"tracking error {outcome['tracking_error_max_kw']!r} kW "
                            f"exceeds {TRACKING_GATE_KW} kW")
        if outcome["records_failed"]:
            problems.append(f"{outcome['records_failed']} replay records failed")
        lo, hi = outcome["comfort_c"]
        if not (lo - COMFORT_TOL_C <= outcome["t_in_min_c"]
                and outcome["t_in_max_c"] <= hi + COMFORT_TOL_C):
            problems.append(f"DOE indoor temperature left [{lo}, {hi}] C: "
                            f"[{outcome['t_in_min_c']!r}, {outcome['t_in_max_c']!r}]")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; returns the result record (also written to the work dir)."""
    workdir = WORK_DIR / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.prepare(ROOT, workdir, name, seed, smoke=smoke)

    probes = 0 if trace else 1 if smoke else SETUP_PROBES // 2
    yardstick = Yardstick()
    setup = setup_seconds(inputs.study_cfg, probes, yardstick)
    cmd = [str(BENCH_DIR / "worker.py"), "study", "--config", str(inputs.study_cfg),
           "--out", str(workdir), "--seconds", repr(seconds), "--trace", str(int(trace))]
    if inputs.envelope_dir is not None:
        cmd += ["--envelopes", str(inputs.envelope_dir)]
    worker = json.loads(_python(*cmd, timeout=WORKER_TIMEOUT_S))
    setup += setup_seconds(inputs.study_cfg, probes, yardstick)

    runs, outcome = worker["runs"], worker["outcome"]
    untraced = [r["seconds"] for r in runs if not r["traced"]]
    relative = [r["seconds"] / r["reference_s"] for r in runs if not r["traced"]]
    failed_share = outcome["records_failed"] / outcome["records_attempted"]
    setup_wall = [wall for wall, _ in setup]
    setup_scaled = [wall * YARDSTICK_S / ref for wall, ref in setup]
    values = {
        "setup_s": quartiles(setup_scaled) + (len(setup),) if setup else None,
        "setup_wall_s": quartiles(setup_wall) + (len(setup),) if setup else None,
        "study_s": quartiles(untraced) + (len(untraced),),
        "study_rel": quartiles(relative) + (len(relative),),
        "peak_rss_mb": worker["peak_rss_mb"],
        "failed_share": failed_share,
        "in_band_share": 1.0 - failed_share,
        "tracking_error_max_kw": outcome["tracking_error_max_kw"],
        "v_margin_min_pu": outcome["v_margin_min_pu"],
    }
    layers = dict(worker.get("layers", {}))
    if trace:
        layers["powerflow.replay_failed_records"] = outcome["records_failed"]
    problems = verdict(name, runs, outcome)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "v_hi": inputs.v_hi,
        "correct": not problems, "problems": problems,
        "attempted": len(runs), "failed": sum(1 for r in runs if r["aborted"]),
        "values": values, "outcome": outcome, "layers": layers,
    }
    for bulky in (p for p in workdir.iterdir() if p.is_dir()):  # generated envelopes, outputs
        shutil.rmtree(bulky)
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    report(record)
    return record


UNITS = {"setup_s": "s", "setup_wall_s": "s", "study_s": "s", "study_rel": "ref", "peak_rss_mb": "MB",
         "failed_share": "ratio", "in_band_share": "ratio", "tracking_error_max_kw": "kW",
         "v_margin_min_pu": "pu"}


def report(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} blas={env['blas']}")
    if record["v_hi"] is not None:
        print(f"#   calibrated v_hi = {record['v_hi']!r} pu")
    for name, value in record["values"].items():
        if value is None:
            continue
        if isinstance(value, tuple):
            q1, med, q3, n = value
            print(f"{name:<24} {med:.6g} {UNITS[name]}  (q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
        else:
            print(f"{name:<24} {value:.6g} {UNITS[name]}")
    o = record["outcome"]
    print(f"#   replay records failed {o['records_failed']} of {o['records_attempted']}; "
          f"violations {o['violation_rows']}, unconverged sub-steps {o['unconverged_substeps']}")
    for name, value in sorted(record["layers"].items()):
        print(f"{name:<32} {value:.6g}")
    print("outputs correct" if record["correct"] else
          "outputs NOT correct: " + "; ".join(record["problems"]))


def contract_metrics(record: dict, metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        value = record["layers"].get(m["name"]) if record["trace"] else record["values"][m["name"]]
        if isinstance(value, tuple):
            value = value[1]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *(w["name"] for w in bench["workloads"])])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one control step, few scenarios: checks the harness, measures nothing")
    parser.add_argument("--baseline", metavar="FILE",
                        help="run untraced and traced, and write every record to FILE")
    args = parser.parse_args(argv)
    use_source_tree()

    names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
             else [args.workload])
    modes = (False, True) if args.baseline else (bool(args.trace),)
    records = [run_workload(n, args.seed, args.seconds, trace, smoke=args.smoke)
               for n in names for trace in modes]
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")

    def metrics(record):
        return contract_metrics(record, bench["per_layer" if record["trace"] else "end_to_end"])

    if len(records) == 1:
        summary = metrics(records[0])
    else:
        summary = {f"{r['workload']}.{k}": v for r in records for k, v in metrics(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
