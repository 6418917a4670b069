"""Command-line front end.

Subcommands: run (full study), envelopes (envelope stage only), track
(dispatch stage against precomputed envelopes), pf (one-shot load flow), report (summarise
a results directory).  Exit codes: 0 success, 2 usage, 3 bad config or
input, 4 simulation failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DoesimError, PowerFlowDivergence, ProfileError
from .feeder import assemble_admittance, load_feeder
from .orchestrator import run_study
from .powerflow import DEFAULT_MAXITER, solve_batch
from .scenarios import load_study_config, parse_hms

EXIT_CONFIG = 3
EXIT_RUNTIME = 4


def _add_common(p):
    p.add_argument("--config", required=True, help="study or feeder config file")
    p.add_argument("--verbose", action="store_true", help="debug logging")


def _study_overrides(args, cfg):
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.scenarios is not None:
        cfg = replace(cfg, n_scenarios=args.scenarios)
    if args.rho is not None or args.maxiter is not None:
        admm = cfg.admm
        try:
            admm = replace(admm, rho=admm.rho if args.rho is None else args.rho,
                           maxiter=admm.maxiter if args.maxiter is None else args.maxiter)
        except ValueError as exc:
            raise ConfigError(f"--rho/--maxiter: {exc}") from None
        cfg = replace(cfg, admm=admm)
    if args.window is not None:
        try:
            start_txt, end_txt = args.window.split("-")
        except ValueError:
            raise ConfigError("--window expects HH:MM-HH:MM")
        cfg = replace(cfg, window_start_s=parse_hms(start_txt), window_end_s=parse_hms(end_txt))
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="doesim",
        description="Operating-envelope construction and envelope-constrained DR tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (("run", "run the full two-stage study"),
                       ("envelopes", "envelope stage only: write per-step envelope segments"),
                       ("track", "dispatch stage only, against precomputed envelopes")):
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        p.add_argument("--out", required=True, help="results directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--scenarios", type=int)
        p.add_argument("--rho", type=float)
        p.add_argument("--maxiter", type=int)
        p.add_argument("--window", help="override DR window, HH:MM-HH:MM")
        if name == "track":
            p.add_argument("--envelopes", required=True, help="directory of step_***.csv files")

    p = sub.add_parser("pf", help="one-shot three-phase load flow")
    _add_common(p)
    p.add_argument("--injections", default="zero",
                   help="'zero' or a file of 'bus phase p_kw q_kvar' rows")

    p = sub.add_parser("report", help="summarise a results directory")
    p.add_argument("--results", required=True)
    p.add_argument("--verbose", action="store_true")
    return parser


def _cmd_pf(args) -> int:
    feeder = load_feeder(args.config)
    adm = assemble_admittance(feeder)
    p = np.zeros((feeder.n_bus, 3))
    q = np.zeros((feeder.n_bus, 3))
    if args.injections != "zero":
        with open(args.injections, "r", encoding="utf-8") as fh:
            for line_no, ln in enumerate(fh, 1):
                fields = ln.split("#", 1)[0].split()
                if not fields:
                    continue
                where = f"{args.injections}, line {line_no}"
                try:
                    bus, phase, pk, qk = fields
                    p_kw, q_kvar = float(pk), float(qk)
                except ValueError:
                    raise ConfigError(f"{where}: expected 'bus phase p_kw q_kvar'") from None
                if bus not in feeder.bus_index:
                    raise ConfigError(f"{where}: unknown bus '{bus}'")
                if phase not in ("0", "1", "2"):
                    raise ConfigError(f"{where}: phase must be 0, 1 or 2, got '{phase}'")
                if not np.isfinite((p_kw, q_kvar)).all():
                    raise ConfigError(f"{where}: p_kw and q_kvar must be finite")
                node = feeder.bus_index[bus], int(phase)
                sums = float(p[node]) + p_kw, float(q[node]) + q_kvar
                if not np.isfinite(sums).all():
                    raise ConfigError(f"{where}: the injections at {bus} phase {phase} "
                                      "sum past the float range")
                p[node], q[node] = sums
    v, iterations, mism, converged = solve_batch(adm, feeder.base.kw_to_pu(p + 1j * q)[None])
    if not converged[0]:
        raise PowerFlowDivergence(
            f"load flow did not converge in {DEFAULT_MAXITER} iterations "
            f"(last mismatch {mism[0]:.3e} pu)")
    print(f"converged in {iterations} iterations, max mismatch {mism[0]:.3e} pu")
    print(f"{'bus':<10}{'|Va|':>10}{'|Vb|':>10}{'|Vc|':>10}")
    mags = np.abs(v[0])
    for bi, bus in enumerate(feeder.buses):
        print(f"{bus:<10}{mags[bi, 0]:>10.5f}{mags[bi, 1]:>10.5f}{mags[bi, 2]:>10.5f}")
    return 0


def _cmd_report(args) -> int:
    root = Path(args.results)
    summary_path = root / "summary.txt"
    if not summary_path.exists():
        raise ProfileError(f"{root}: no summary.txt, not a results directory")
    print(summary_path.read_text(), end="")

    conv = root / "dispatch" / "convergence.csv"
    if conv.exists():
        rows = conv.read_text().strip().splitlines()[1:]
        print(f"\n{'t_index':>8}{'p_ref_kw':>12}{'p_total_kw':>12}{'error_kw':>12}{'iters':>7}")
        for row in rows:
            f = row.split(",")
            print(f"{f[0]:>8}{float(f[6]):>12.4f}{float(f[7]):>12.4f}{float(f[8]):>12.6f}{f[2]:>7}")

    volt = root / "gridlog" / "voltages.csv"
    if volt.exists():
        series: dict[int, list[float]] = {}
        with open(volt, "r", encoding="utf-8") as fh:
            fh.readline()
            for ln in fh:
                t_s, _, _, v = ln.rstrip("\n").split(",")
                series.setdefault(int(t_s), []).append(float(v))
        out = root / "report_voltage_range.csv"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("t_s,v_min_pu,v_max_pu\n")
            for t_s in sorted(series):
                fh.write(f"{t_s},{min(series[t_s])!r},{max(series[t_s])!r}\n")
        print(f"\nwrote plot-ready voltage range series to {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "pf":
            return _cmd_pf(args)
        if args.command == "report":
            return _cmd_report(args)
        cfg = load_study_config(args.config)
        cfg = _study_overrides(args, cfg)
        summary = run_study(
            cfg, args.out,
            envelopes_only=(args.command == "envelopes"),
            envelope_dir=args.envelopes if args.command == "track" else None)
        print(f"control steps: {summary.control_steps}")
        if args.command != "envelopes":
            print(f"max tracking error: {summary.max_tracking_error_kw:.6f} kW")
            print(f"voltage range: [{summary.v_min_pu:.5f}, {summary.v_max_pu:.5f}] pu")
            print(f"indoor temperature range: [{summary.t_in_min_c:.4f}, {summary.t_in_max_c:.4f}] C")
            print(f"failed-guarantee events: {summary.failed_guarantee_events}")
        print(f"mean step wall time: {summary.mean_step_seconds:.3f} s")
        return 0
    except (ConfigError, ProfileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DoesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
