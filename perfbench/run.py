"""End-to-end and per-layer benchmark of the tdoa-dtb CLI pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense-8n --seed 1 --seconds 15 --trace 0

One process drives everything. It simulates the workload's sessions with
``tdoa-dtb simulate`` (perturbing them for ragged-8n), runs one warm-up
pipeline, then repeats

    fit-noise -> calibrate -> position -> evaluate

over the sessions by calling ``tdoa_dtb.cli.main(argv)`` in process, which is
what the console script runs; the package keeps no caches, so repeated calls
are faithful. Every output is checked against the generator's truth. Fresh
subprocesses are used only for interpreter start-up and peak memory. Times
are normalised to a nominal CPU speed (see ``timing.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced pipelines and prints the per-layer metrics. The last
line of standard output is one JSON object; the full record, with raw
seconds, output fingerprints and per-session accuracy, goes to
``perfbench/results/BENCH_<workload>[_trace].json``, replaced by the next run.
"""

from __future__ import annotations

import os
import sys

HYGIENE_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in HYGIENE_ENV.items()):
    # restart under a fixed hash seed and single-threaded BLAS before numpy loads
    os.environ.update(HYGIENE_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import re
import shutil
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import yaml

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"

sys.path.insert(0, str(BENCH_DIR))
import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUTPUTS = ("noise.csv", "dtb.csv", "track.csv", "residuals.csv", "metrics.json")
SIM_OUTPUTS = ("toa.csv", "nodes.csv", "trajectory.csv", "truth_dtb.csv")
CLI_START_CODE = "import tdoa_dtb.cli"
START_REF_CODE = "pass"
CLI_MAIN_CODE = "import sys; from tdoa_dtb.cli import main; sys.exit(main(sys.argv[1:]))"
CLI_START_SAMPLES = 12
NOISE_POINTS = re.compile(r"from (\d+) points")
MIN_TRACE_COVERAGE = 0.9

END_TO_END_UNITS = {
    "setup_s": "s", "cli_start_s": "s", "pipeline_s": "s", "calibrate_s": "s",
    "position_s": "s", "peak_rss_mb": "MB", "dtb_err_rms_m": "m",
    "true_error_rms_m": "m", "sigma_consistency": "ln_ratio",
}
# Spans reported per layer, mapped to whether their call count is reported
# too. SETUP_SPANS come from the traced simulate calls, the rest from pipelines.
SPANS = {
    "ingestion.load_toa_rows": False, "ingestion.group_epochs": False,
    "ingestion.load_trajectory": False, "ingestion.write_toa_csv": False,
    "synthetic.generate": False,
    "differencing.form_tdoa": True, "differencing.select_reference": False,
    "dtb.instantaneous_dtb": True, "dtb.aggregate_dtb": False,
    "noise.estimate_noise_points": False, "noise.detrend_toa": False,
    "noise.fit_noise_model": False,
    "ekf.run_filter": True, "ekf.predict": True, "ekf.update": True,
    "ekf.measurement_model": True, "ekf.write_track_csv": False,
    "ekf.read_track_csv": False, "ekf.write_residuals_csv": False,
    "ekf.read_residuals_csv": False,
    "metrics.session_metrics": False, "metrics.true_error": False,
    "cli.main": False,
}
SETUP_SPANS = ("ingestion.write_toa_csv", "synthetic.generate")
COUNTED = ("noise.sigma_for", "geometry.range_between")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, with_calls in SPANS.items():
        if with_calls:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    units.update({
        "ingestion.rows": "count", "ingestion.epochs": "count",
        "ingestion.toa_bytes": "bytes", "synthetic.rows": "count",
        "dtb.samples": "count", "dtb.kept_ratio": "ratio", "noise.points": "count",
        "ekf.accepted_obs": "count", "ekf.rejected_obs": "count",
        "ekf.update_ratio": "ratio",
        "trace_overhead_frac": "ratio", "trace_coverage": "ratio",
        "pipeline_raw_s": "s", "calibrate_raw_s": "s", "position_raw_s": "s",
    })
    return units


PER_LAYER_UNITS = per_layer_units()


class Operations:
    """Every command and every check is one operation, attempted and maybe failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok


@dataclass
class Session:
    index: int
    seed: int
    dir: Path
    workload: workloads.Workload
    perturbation: dict | None = None
    epochs: int = 0
    rows: int = 0
    toa_bytes: int = 0
    sim_rows: int = 0
    epoch_nodes: list = field(default_factory=list)
    fingerprint: dict | None = None      # sha256 of each output, first pipeline
    accuracy: dict | None = None

    @property
    def sim(self) -> Path:
        return self.dir / "sim"

    @property
    def toa(self) -> Path:
        return self.dir / "toa_ragged.csv" if self.workload.ragged else self.sim / "toa.csv"

    def argv(self) -> dict[str, list[str]]:
        d, s, toa = str(self.dir), str(self.sim), str(self.toa)
        calibrate = ["calibrate", "--toa", toa, "--nodes", f"{s}/nodes.csv",
                     "--traj", f"{s}/trajectory.csv", "--ref-node", "auto",
                     "--out", f"{d}/dtb.csv"]
        if self.workload.trim_sigma is not None:
            calibrate += ["--trim-sigma", repr(self.workload.trim_sigma)]
        return {
            "fit-noise": ["fit-noise", "--toa", toa, "--out", f"{d}/noise.csv"],
            "calibrate": calibrate,
            "position": ["position", "--toa", toa, "--nodes", f"{s}/nodes.csv",
                         "--dtb", f"{d}/dtb.csv", "--noise", f"{d}/noise.csv",
                         "--out", f"{d}/track.csv", "--residuals", f"{d}/residuals.csv"],
            "evaluate": ["evaluate", "--track", f"{d}/track.csv",
                         "--traj", f"{s}/trajectory.csv",
                         "--residuals", f"{d}/residuals.csv", "--out", f"{d}/metrics.json"],
        }


@dataclass
class PipelineRun:
    """Exit code, diagnostics and timing of each command of one pipeline."""

    codes: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    parts: dict = field(default_factory=dict)     # command -> timing.Measurement
    noise_points: int | None = None               # as fit-noise reports it

    @property
    def total(self) -> timing.Measurement:
        return timing.Measurement.total(self.parts.values())


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run one command in process; return its exit code and diagnostics.

    ``cli.main`` is looked up per call, so an installed tracer sees it.
    """
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # noqa: BLE001 - a crashing command is a failed operation
        return -1, err.getvalue() + traceback.format_exc(limit=3)
    return code, err.getvalue()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def truth_against(truth_rows: list[dict], ref: str) -> dict[str, float]:
    """Analytic DTB re-referenced to ``ref``: bias of n against ref."""
    first_ref = truth_rows[0]["ref_node"]
    against_first = {r["node_id"]: float(r["mean_m"]) for r in truth_rows}
    against_first[first_ref] = 0.0
    return {n: v - against_first[ref] for n, v in against_first.items() if n != ref}


def run_child(args: list[str], cwd: Path) -> tuple[int, float, float]:
    """Run a fresh interpreter on the package; return (exit code, wall s, max RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def timing_summary(name: str, scaled: list[float], raw: list[float]) -> dict:
    """Median and tail of a timing, the tail being the highest percentile with
    at least ten samples beyond it."""
    q = math.floor(100 * (1 - 10 / len(scaled))) / 100 if len(scaled) > 10 else None
    return {"metric": name, "samples": len(scaled), "median_s": timing.median(scaled),
            "raw_median_s": timing.median(raw), "tail_quantile": q,
            "tail_s": timing.quantile(scaled, q) if q else None}


class Bench:
    """One run: the sessions of one workload and seed, and what was measured."""

    def __init__(self, package, workload: workloads.Workload, seed: int, seconds: float):
        self.package = package
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = WORK_ROOT / workload.name
        self.ops = Operations()
        self.clock = timing.ScaledClock()
        self.sessions: list[Session] = []
        self.setup_parts: list[timing.Measurement] = []
        self.setup_tracers: list[tracing.Tracer] = []
        self.record: dict = {}

    # ---------------------------------------------------------------- set-up

    def simulate(self, session: Session) -> tuple[int, str]:
        """Write the session's scenario, simulate it, and perturb it if ragged."""
        session.dir.mkdir(parents=True)
        scenario_path = session.dir / "scenario.yaml"
        scenario_path.write_text(yaml.safe_dump(workloads.scenario(self.workload, session.seed)))
        code, err = call_cli(self.package.cli, ["simulate", "--scenario", str(scenario_path),
                                                "--out-dir", str(session.sim)])
        if code == 0 and self.workload.ragged:
            try:
                session.perturbation = workloads.perturb_toa(
                    self.workload, session.sim / "toa.csv", session.toa, session.seed)
            except (OSError, KeyError, ValueError) as exc:
                return -1, f"cannot perturb the simulated ToA file: {exc!r}"
        return code, err

    def set_up(self, traced: bool) -> None:
        """Simulate every session, timing (and, if asked, tracing) each."""
        for index, session_seed in enumerate(workloads.session_seeds(self.workload, self.seed)):
            session = Session(index, session_seed, self.work / f"s{index:03d}", self.workload)
            tracer = tracing.Tracer(self.package) if traced else contextlib.nullcontext()
            with tracer:
                (code, err), m = self.clock.measure(self.simulate, session)
            if self.ops.record(code == 0, f"session {index}: simulate exit {code}: {err[-2000:]}"):
                describe_input(session)
                self.sessions.append(session)
            self.setup_parts.append(m)
            if traced:
                self.setup_tracers.append(tracer)

    # -------------------------------------------------------------- pipeline

    def pipeline(self, session: Session) -> PipelineRun:
        """The four commands on one session, each timed between reference
        loops, because the host's speed changes within one pipeline."""
        run = PipelineRun()
        for name, argv in session.argv().items():
            (code, err), run.parts[name] = self.clock.measure(call_cli, self.package.cli, argv)
            run.codes[name] = code
            if code != 0:
                run.errors[name] = err[-2000:]
            elif name == "fit-noise":
                found = NOISE_POINTS.search(err)
                run.noise_points = int(found.group(1)) if found else None
        return run

    def check(self, session: Session, run: PipelineRun) -> dict | None:
        """Check one pipeline's outputs; return its accuracy figures when readable."""
        ops, workload, tag = self.ops, self.workload, f"session {session.index}"
        for name, code in run.codes.items():
            ops.record(code == 0, f"{tag}: {name} exit {code}: {run.errors.get(name, '')}")
        if any(code != 0 for code in run.codes.values()):
            return None
        try:
            track = read_rows(session.dir / "track.csv")
            with open(session.dir / "residuals.csv") as f:
                residual_rows = sum(1 for _ in f) - 1
            table = read_rows(session.dir / "dtb.csv")
            ref = table[0]["ref_node"]
            truth = truth_against(read_rows(session.sim / "truth_dtb.csv"), ref)
            metrics = json.loads((session.dir / "metrics.json").read_text())
            noise = read_rows(session.dir / "noise.csv")[0]
            errors = [float(r["mean_m"]) - truth[r["node_id"]] for r in table]
            n_obs = sum(int(r["n_obs"]) for r in track)
            kept = sum(int(r["n_samples"]) for r in table)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            ops.record(False, f"{tag}: unreadable output: {exc!r}")
            return None

        ops.record(len(track) == session.epochs,
                   f"{tag}: {len(track)} track rows for {session.epochs} epochs")
        ops.record(residual_rows == n_obs,
                   f"{tag}: {residual_rows} residual rows for {n_obs} accepted observations")
        samples = sum(len(nodes) - 1 for nodes in session.epoch_nodes if ref in nodes)
        ops.record(kept == samples if workload.trim_sigma is None else 0 < kept <= samples,
                   f"{tag}: DTB table holds {kept} samples of {samples}")
        dtb_err = math.sqrt(sum(e * e for e in errors) / len(errors))
        true_err = metrics["true_error_rms_m"]
        ops.record(dtb_err <= workload.max_dtb_err_m,
                   f"{tag}: DTB error {dtb_err:.3f} m above {workload.max_dtb_err_m} m")
        ops.record(true_err <= workload.max_true_err_m,
                   f"{tag}: true error {true_err:.3f} m above {workload.max_true_err_m} m")
        fingerprint = {name: sha256(session.dir / name) for name in OUTPUTS}
        if session.fingerprint is None:
            session.fingerprint = fingerprint
        else:
            ops.record(fingerprint == session.fingerprint, f"{tag}: rerun outputs differ")
        accuracy = {
            "ref_node": ref, "dtb_err_rms_m": dtb_err, "true_error_rms_m": true_err,
            "sigma_formal_m": metrics["sigma_formal_m"],
            "k": float(noise["k"]), "rsrp0": float(noise["rsrp0"]),
            "samples": samples, "kept": kept, "epochs": len(track), "accepted_obs": n_obs,
            "rejected_obs": sum(int(r["n_rejected"]) for r in track),
            "updated_epochs": sum(1 for r in track if int(r["n_obs"]) > 0),
        }
        if session.accuracy is None:
            session.accuracy = accuracy
        return accuracy

    # ------------------------------------------------------- fresh processes

    def cli_start(self) -> list[tuple[float, float]]:
        """(scaled, raw) seconds of fresh-interpreter imports of the CLI, each
        alternating with a bare interpreter start as its reference."""
        def start(code):
            status, wall, _ = run_child(["-c", code], self.work)
            self.ops.record(status == 0, f"fresh interpreter {code!r} exit {status}")
            return wall

        samples = []
        ref = start(START_REF_CODE)
        for _ in range(CLI_START_SAMPLES):
            raw = start(CLI_START_CODE)
            before, ref = ref, start(START_REF_CODE)
            samples.append((raw / ((before + ref) / 2.0) * timing.START_REF_NOMINAL_S, raw))
        return samples

    def peak_rss(self, session: Session) -> float:
        """Largest max-RSS over every command of one session, each a fresh process."""
        steps = [["simulate", "--scenario", str(session.dir / "scenario.yaml"),
                  "--out-dir", str(self.work / "rss")]]
        steps += list(session.argv().values())
        peak = 0.0
        for argv in steps:
            code, _, mb = run_child(["-c", CLI_MAIN_CODE, *argv], self.work)
            self.ops.record(code == 0, f"fresh-process {argv[0]} exit {code}")
            peak = max(peak, mb)
        return peak

    # ------------------------------------------------------------ the modes

    def end_to_end(self) -> dict[str, float]:
        """A warm-up, then pipelines until every session ran once and the time
        is up, then fresh-process start-up and memory."""
        warm = self.pipeline(self.sessions[0])
        self.check(self.sessions[0], warm)
        runs = []
        order = itertools.cycle(self.sessions[1:] + self.sessions[:1])
        deadline = time.perf_counter() + self.seconds
        while len(runs) < len(self.sessions) or time.perf_counter() < deadline:
            session = next(order)
            run = self.pipeline(session)
            self.check(session, run)
            runs.append(run)
        starts = self.cli_start()
        rss = self.peak_rss(self.sessions[0])

        def part(name):
            return [r.parts[name].scaled for r in runs], [r.parts[name].raw for r in runs]

        totals = [r.total for r in runs]
        setup_scaled = [p.scaled for p in self.setup_parts]
        timings = [
            timing_summary("pipeline_s", [m.scaled for m in totals], [m.raw for m in totals]),
            timing_summary("calibrate_s", *part("calibrate")),
            timing_summary("position_s", *part("position")),
            timing_summary("cli_start_s", [s for s, _ in starts], [r for _, r in starts]),
        ]
        metrics = {t["metric"]: t["median_s"] for t in timings}
        metrics["setup_s"] = (timing.median(setup_scaled) * len(setup_scaled)
                              + warm.total.scaled)
        metrics["peak_rss_mb"] = rss
        metrics.update(self.accuracy_metrics())
        self.record["timings"] = timings
        self.record["setup"] = {
            "sessions": len(setup_scaled), "median_session_s": timing.median(setup_scaled),
            "warm_up_s": warm.total.scaled,
            "raw_total_s": sum(p.raw for p in self.setup_parts) + warm.total.raw}
        return metrics

    def accuracy_metrics(self) -> dict[str, float]:
        done = [s.accuracy for s in self.sessions if s.accuracy]
        if not done:
            return {}
        te = sum(a["true_error_rms_m"] for a in done) / len(done)
        sf = sum(a["sigma_formal_m"] for a in done) / len(done)
        return {"dtb_err_rms_m": sum(a["dtb_err_rms_m"] for a in done) / len(done),
                "true_error_rms_m": te, "sigma_consistency": abs(math.log(te / sf))}

    def per_layer(self) -> dict[str, float]:
        """Untraced and traced pipelines alternate over the sessions until the
        time is up; at least one pair runs, whether or not it passes."""
        untraced, traced = [], []
        order = itertools.cycle(self.sessions)
        deadline = time.perf_counter() + self.seconds
        while not untraced or time.perf_counter() < deadline:
            session = next(order)
            run = self.pipeline(session)
            self.check(session, run)
            untraced.append(run)
            tracer = tracing.Tracer(self.package)
            with tracer:
                run = self.pipeline(session)
            accuracy = self.check(session, run)
            if accuracy is not None:
                # cli.main's own time holds argparse and the _cmd_* bodies,
                # so only the spans below it count as covered by a layer
                covered = tracer.top_s - tracer.self_s.get("cli.main", 0.0)
                coverage = covered / run.total.raw
                self.ops.record(coverage >= MIN_TRACE_COVERAGE, f"session {session.index}: "
                                f"spans below cli.main cover {coverage:.3f} of the pipeline")
                traced.append((run, tracer, accuracy, session, coverage))

        med = timing.median
        setup_source = list(zip(self.setup_parts, self.setup_tracers))
        pipeline_source = [(run.total, t) for run, t, *_ in traced]
        metrics = {}
        for name, with_calls in SPANS.items():
            source = setup_source if name in SETUP_SPANS else pipeline_source
            if with_calls:
                metrics[f"{name}.calls"] = med([t.calls.get(name, 0) for _, t in source])
            metrics[f"{name}.self_s"] = med([m.factor * t.self_s.get(name, 0.0)
                                             for m, t in source])
        for name in COUNTED:
            metrics[f"{name}.calls"] = med([t.calls.get(name, 0) for _, t in pipeline_source])

        accs = [(a, s) for _, _, a, s, _ in traced]
        points = [run.noise_points for run, *_ in traced if run.noise_points is not None]
        metrics.update({
            "ingestion.rows": med([s.rows for _, s in accs]),
            "ingestion.epochs": med([s.epochs for _, s in accs]),
            "ingestion.toa_bytes": med([s.toa_bytes for _, s in accs]),
            "synthetic.rows": med([s.sim_rows for s in self.sessions]),
            "dtb.samples": med([a["samples"] for a, _ in accs]),
            "dtb.kept_ratio": med([a["kept"] / a["samples"] for a, _ in accs]),
            "noise.points": med(points),
            "ekf.accepted_obs": med([a["accepted_obs"] for a, _ in accs]),
            "ekf.rejected_obs": med([a["rejected_obs"] for a, _ in accs]),
            "ekf.update_ratio": med([a["updated_epochs"] / a["epochs"] for a, _ in accs]),
            "trace_overhead_frac": (med([m.scaled for m, _ in pipeline_source])
                                    / med([r.total.scaled for r in untraced]) - 1.0),
            "trace_coverage": med([c for *_, c in traced]),
            "pipeline_raw_s": med([r.total.raw for r in untraced]),
            "calibrate_raw_s": med([r.parts["calibrate"].raw for r in untraced]),
            "position_raw_s": med([r.parts["position"].raw for r in untraced]),
        })
        self.record["samples"] = {"untraced": len(untraced), "traced": len(traced)}
        self.record["all_spans"] = {
            name: {"calls": med([t.calls.get(name, 0) for _, t in pipeline_source]),
                   "self_s": med([m.factor * t.self_s.get(name, 0.0)
                                  for m, t in pipeline_source])}
            for name in sorted({n for _, t in pipeline_source for n in t.calls})}
        return metrics

    def session_summary(self) -> dict:
        done = [s for s in self.sessions if s.accuracy]
        info = {
            "sessions": len(self.sessions),
            "sessions_checked": len(done),
            "duration_s": self.workload.duration_s,
            "epochs_per_session": timing.median([s.epochs for s in self.sessions]),
            "rows_per_session": timing.median([s.rows for s in self.sessions]),
        }
        for key in ("ref_node", "k", "rsrp0", "dtb_err_rms_m", "true_error_rms_m",
                    "sigma_formal_m"):
            info[key] = [s.accuracy[key] for s in done]
        # one digest per file name over the run's sessions, in session order
        info["output_sha256"] = {}
        for name in SIM_OUTPUTS + OUTPUTS:
            h = hashlib.sha256()
            for s in self.sessions:
                digest = (sha256(s.sim / name) if name in SIM_OUTPUTS
                          else (s.fingerprint or {}).get(name, ""))
                h.update(digest.encode())
            info["output_sha256"][name] = h.hexdigest()
        if self.workload.ragged and self.sessions:
            info["perturbation"] = {key: sum(s.perturbation[key] for s in self.sessions)
                                    for key in self.sessions[0].perturbation}
        return info


def describe_input(session: Session) -> None:
    """Rows, bytes and per-epoch node sets of the ToA file the pipeline reads."""
    by_time: dict[str, set] = {}
    for row in read_rows(session.toa):
        by_time.setdefault(row["time"], set()).add(row["node_id"])
    session.epoch_nodes = list(by_time.values())
    session.epochs = len(by_time)
    session.rows = sum(len(n) for n in session.epoch_nodes)
    session.toa_bytes = session.toa.stat().st_size
    with open(session.sim / "toa.csv") as f:
        session.sim_rows = sum(1 for _ in f) - 1


def load_package():
    """Import tdoa_dtb from this checkout's src/, never from elsewhere."""
    if not (SRC / "tdoa_dtb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'tdoa_dtb'}; "
                 "run from the root of a tdoa-dtb checkout")
    sys.path.insert(0, str(SRC))
    import tdoa_dtb
    import tdoa_dtb.cli
    if Path(tdoa_dtb.__file__).resolve().parent != (SRC / "tdoa_dtb").resolve():
        sys.exit(f"perfbench: imported tdoa_dtb from {tdoa_dtb.__file__}, not {SRC}")
    return tdoa_dtb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = load_package()
    cpu = timing.pin_to_one_cpu()
    bench = Bench(package, workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    record = bench.record
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, cpu=cpu, ref_nominal_s=timing.REF_NOMINAL_S)
    started = time.perf_counter()
    try:
        bench.set_up(traced=bool(args.trace))
        if not bench.sessions:
            metrics = {}
        elif args.trace:
            metrics = bench.per_layer()
        else:
            metrics = bench.end_to_end()
        record["sessions"] = bench.session_summary()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    record["elapsed_s"] = time.perf_counter() - started

    ops = bench.ops
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = [name for name in units
               if name not in metrics or not math.isfinite(metrics[name])]
    for name in missing:
        ops.record(False, f"metric {name} not measured")
    record.update(attempted=ops.attempted, failed=ops.failed, failures=ops.failures,
                  metrics=metrics)
    RESULTS_DIR.mkdir(exist_ok=True)
    label = args.workload + ("_trace" if args.trace else "")
    (RESULTS_DIR / f"BENCH_{label}.json").write_text(json.dumps(record, indent=2) + "\n")

    info = record["sessions"]
    print(f"perfbench: {args.workload} seed {args.seed}: {info['sessions']} sessions of "
          f"{info['rows_per_session']} rows, fitted k {timing.median(info['k'])} "
          f"rsrp0 {timing.median(info['rsrp0'])}, perturbation "
          f"{info.get('perturbation')}, {record['elapsed_s']:.1f} s", file=sys.stderr)
    for failure in ops.failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": 0.0 if name in missing else metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
