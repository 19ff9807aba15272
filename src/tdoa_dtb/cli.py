"""Batch command line front-end.

Subcommands wire the pipeline end to end:

    simulate -> fit-noise -> calibrate -> position -> evaluate

plus ``rereference`` for switching a correction table to another reference
node. Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; data only ever goes to files. Every successful run writes a
manifest describing the invocation beside its output: ``<out>.manifest.json``,
or ``run_manifest.json`` in simulate's output directory.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections import Counter
from datetime import datetime, timezone

from . import __version__
from .dtb import calibrate, read_dtb, rereference_dtb, select_reference, write_dtb
from .ekf import (read_residuals_csv, read_track_csv, run_filter, write_residuals_csv,
                  write_track_csv)
from .errors import TdoaDtbError
from .geometry import read_nodes, write_nodes
from .ingestion import (DEFAULT_EPOCH_TOL, load_toa_session, load_trajectory,
                        write_toa_csv, write_trajectory_csv)
from .metrics import session_metrics
from .noise import (estimate_noise_points, fit_noise_model, read_noise_model,
                    write_noise_model, write_noise_points)
from .table import write_csv, write_json

RESIDUAL_HIST_BIN_M = 0.25


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite_float(text: str, zero_ok: bool = False) -> float:
    """argparse type: a number > 0 whose square is finite and > 0, or 0 with zero_ok."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0 < value and 0 < value * value < math.inf or (zero_ok and value == 0)):
        raise argparse.ArgumentTypeError(f"expected {'0 or ' if zero_ok else ''}a number > 0 "
                                         f"with a finite, nonzero square, got {text!r}")
    return value


def _write_manifest(args: argparse.Namespace) -> None:
    """Describe a successful run beside its output, so that no other command's
    manifest replaces it: <out>.manifest.json, or run_manifest.json in
    simulate's output directory."""
    path = (os.path.join(args.out_dir, "run_manifest.json") if args.subcommand == "simulate"
            else f"{args.out}.manifest.json")
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "parameters": params,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    write_json(path, manifest)


def _add_session_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--unit", choices=["meters", "seconds"], default="meters",
                   help="unit of the toa column (seconds are converted via c)")
    p.add_argument("--epoch-tol", type=lambda text: _finite_float(text, zero_ok=True),
                   default=DEFAULT_EPOCH_TOL,
                   help="timestamps within this many seconds share an epoch")


def _cmd_simulate(args) -> None:
    # imported here, not at the top: the simulator's array and YAML libraries
    # are the slowest part of start-up, and no other command needs them
    from .synthetic import generate, load_scenario, truth_dtb

    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    sim = generate(scenario)
    truth = truth_dtb(scenario, sim.catalog.ids()[0])
    os.makedirs(args.out_dir, exist_ok=True)
    write_toa_csv(sim.toa, os.path.join(args.out_dir, "toa.csv"))
    write_nodes(sim.catalog, os.path.join(args.out_dir, "nodes.csv"))
    write_trajectory_csv(sim.trajectory, os.path.join(args.out_dir, "trajectory.csv"))
    write_dtb(truth, os.path.join(args.out_dir, "truth_dtb.csv"))


def _cmd_fit_noise(args) -> None:
    session = load_toa_session(args.toa, args.unit, args.epoch_tol)
    points = estimate_noise_points(session)
    model = fit_noise_model(points)
    write_noise_model(model, args.out)
    if args.points:
        write_noise_points(points, args.points)
    print(f"fitted noise model k={model.k:.3f} rsrp0={model.rsrp0:.2f} "
          f"from {len(points)} points", file=sys.stderr)


def _cmd_calibrate(args) -> None:
    catalog = read_nodes(args.nodes)
    session = load_toa_session(args.toa, args.unit, args.epoch_tol)
    traj = load_trajectory(args.traj)
    ref = select_reference(session) if args.ref_node == "auto" else args.ref_node
    table, samples = calibrate(session, traj, catalog, ref,
                               trim_sigma=args.trim_sigma, label=args.session)
    write_dtb(table, args.out)
    if args.samples:
        write_csv(args.samples, ["time", "node_id", "ref_node", "dtb_m"],
                  ((t, node_id, ref, value) for t, node_id, value in samples))
    print(f"calibrated {len(table.entries)} nodes against reference {ref!r} "
          f"from {len(samples)} samples", file=sys.stderr)


def _cmd_position(args) -> None:
    session = load_toa_session(args.toa, args.unit, args.epoch_tol)
    catalog = read_nodes(args.nodes)
    dtb = read_dtb(args.dtb)
    noise = read_noise_model(args.noise)
    track, residuals = run_filter(session, dtb, catalog, noise)
    write_track_csv(track, args.out)
    write_residuals_csv(residuals, args.residuals)
    n_upd = sum(1 for p in track if p.n_obs > 0)
    print(f"filtered {len(track)} epochs ({n_upd} with updates)", file=sys.stderr)


def _cmd_evaluate(args) -> None:
    track = read_track_csv(args.track)
    traj = load_trajectory(args.traj)
    residuals = [v for _, _, v in read_residuals_csv(args.residuals)]
    metrics = session_metrics(track, traj, residuals)
    write_json(args.out, metrics)
    if args.residual_hist:
        _write_residual_hist(residuals, args.residual_hist)
    print(f"true error mean {metrics['true_error_mean_m']:.3f} m, "
          f"formal {metrics['sigma_formal_m']:.3f} m, "
          f"postfits {metrics['sigma_postfits_m']:.3f} m", file=sys.stderr)


def _write_residual_hist(residuals: list[float], path) -> None:
    """Plot-ready histogram of postfit residuals with fixed 0.25 m bins."""
    counts = Counter(math.floor(v / RESIDUAL_HIST_BIN_M) for v in residuals)
    write_csv(path, ["bin_left_m", "bin_right_m", "count"],
              ((idx * RESIDUAL_HIST_BIN_M, (idx + 1) * RESIDUAL_HIST_BIN_M, counts[idx])
               for idx in sorted(counts)))


def _cmd_rereference(args) -> None:
    table = rereference_dtb(read_dtb(args.dtb), args.new_ref)
    write_dtb(table, args.out)


@functools.cache   # one parser per process, shared by every main call: parsing leaves it as built
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tdoa-dtb",
                     description="DTB calibration and TDoA Kalman positioning")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic session from a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-noise", help="fit the received-power noise model")
    p.add_argument("--toa", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--points", default=None, help="optional scatter CSV output")
    _add_session_flags(p)
    p.set_defaults(func=_cmd_fit_noise)

    p = sub.add_parser("calibrate", help="estimate a DTB table from a reference track")
    p.add_argument("--toa", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--ref-node", type=str.strip, default="auto",
                   help="'auto' picks the most visible node; epochs missing the "
                        "reference are dropped")
    p.add_argument("--out", required=True)
    p.add_argument("--session", type=str.strip, default="",
                   help="session label stored in the table")
    p.add_argument("--trim-sigma", type=_finite_float, default=None,
                   help="optional outlier trim factor (off by default)")
    p.add_argument("--samples", default=None, help="optional DTB time-series CSV output")
    _add_session_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("position", help="run the TDoA filter with DTB corrections")
    p.add_argument("--toa", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--dtb", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--out", required=True, help="track CSV output")
    p.add_argument("--residuals", required=True, help="postfit residual CSV output")
    _add_session_flags(p)
    p.set_defaults(func=_cmd_position)

    p = sub.add_parser("evaluate", help="compute session metrics from a track")
    p.add_argument("--track", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--residuals", required=True)
    p.add_argument("--out", required=True, help="metrics JSON output")
    p.add_argument("--residual-hist", default=None,
                   help="optional residual histogram CSV (0.25 m bins)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rereference", help="switch a DTB table to another reference node")
    p.add_argument("--dtb", required=True)
    p.add_argument("--new-ref", type=str.strip, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rereference)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        args.func(args)
        _write_manifest(args)
        return 0
    except (TdoaDtbError, OSError) as exc:
        print(f"tdoa-dtb {args.subcommand}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
