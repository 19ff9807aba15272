"""Workload definitions: scenario files, the ragged perturbation, accuracy bounds.

Every workload is a family of synthetic sessions on one node layout. The
benchmark seed picks the per-session seeds and node biases, so the same seed
gives the same files.

Sessions are shortened from the full-length shape (about 80k ToA rows) to
keep one pipeline near a third of a second. Node count and epoch rate are
kept, because they set the balance between per-epoch and per-observation
costs:

==========  =====  =======  ========  ======  ==========================
workload    nodes  rate Hz  duration  epochs  ToA rows per session
==========  =====  =======  ========  ======  ==========================
dense-8n    8      10       75 s      751     6,008 (full: 10,001 epochs)
ragged-8n   8      10       75 s      751     about 5,400 after thinning
wide-64n    64     2        40 s      81      5,184 (full: 1,251 epochs)
==========  =====  =======  ========  ======  ==========================

A run simulates 32 sessions of one workload, 40 of the cheaper wide-64n
ones. The accuracy figures need that many: the DTB error of one session is
an RMS over nodes whose errors share the reference node's noise, so it
spreads by 35-40% between seeds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

# Shared radio model: the reciprocal power noise model of fit-noise with a
# log-distance path loss, so fit-noise has a power range to fit against.
NOISE = {"k": 60.0, "rsrp0": -110.0}
PATH_LOSS = {"p0": -40.0, "gamma": 2.5}
# The README's receiver clock: a drift with 50 m resets every 5 s.
SAWTOOTH = {"kind": "sawtooth", "drift_rate": 10.0, "reset_period": 5.0,
            "reset_magnitude": 50.0}
# ragged-8n alone drifts without resets: with resets, fit-noise's
# moving-average detrend smears every reset into its residuals, and on thinned
# sessions the fit then ends in FitError, which would fail operations.
DRIFT_ONLY = dict(SAWTOOTH, reset_magnitude=0.0)
BIAS_SPAN_M = 25.0
SPEED_M_S = 1.0
SIDE_M = 120.0
# The rover starts at the centre of the node field, where the filter's prior
# (the node centroid) sits. Started from a corner, 71 m away, the first joint
# update can leave the filter 10-15 m off with a 1 m sigma, after which the
# 5-sigma gate rejects every difference for the rest of the session: 1 of
# about 2,200 such dense-8n sessions did, and about a quarter of 64-node ones.
# From the centre, none of 150 sessions of any workload did.
_A, _B, _C = 10.0, SIDE_M - 10.0, SIDE_M / 2.0
WAYPOINTS = [[_C, _C], [_C, _A], [_B, _A], [_B, _B], [_A, _B], [_A, _A], [_C, _A]]

RING_8 = ((0.0, 0.0), (60.0, 0.0), (120.0, 0.0), (120.0, 60.0),
          (120.0, 120.0), (60.0, 120.0), (0.0, 120.0), (0.0, 60.0))
GRID_64 = tuple((SIDE_M * i / 7, SIDE_M * j / 7) for j in range(8) for i in range(8))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    node_xy: tuple
    epoch_rate_hz: float
    duration_s: float
    sessions: int
    clock: dict
    ragged: bool
    trim_sigma: float | None
    # per-session accuracy bounds: about twice the largest of 150 measured sessions
    max_dtb_err_m: float
    max_true_err_m: float

    @property
    def node_ids(self) -> list[str]:
        return [str(i + 1) for i in range(len(self.node_xy))]


WORKLOADS = {w.name: w for w in (
    Workload("dense-8n", "the paper's session shape: per-epoch costs dominate",
             RING_8, 10.0, 75.0, 32, SAWTOOTH, ragged=False, trim_sigma=None,
             max_dtb_err_m=0.6, max_true_err_m=7.0),
    Workload("ragged-8n", "outages, drops, blank rsrp and blunders drive the "
             "reject, default-sigma and trim paths",
             RING_8, 10.0, 75.0, 32, DRIFT_ONLY, ragged=True, trim_sigma=3.0,
             max_dtb_err_m=0.8, max_true_err_m=5.0),
    Workload("wide-64n", "64 nodes at 2 Hz: per-observation work and the n-by-n "
             "update dominate",
             GRID_64, 2.0, 40.0, 40, SAWTOOTH, ragged=False, trim_sigma=None,
             max_dtb_err_m=1.8, max_true_err_m=6.0),
)}


def session_seeds(workload: Workload, seed: int) -> list[int]:
    """Per-session seeds derived from the benchmark seed.

    dense-8n and ragged-8n draw the same sessions, so ragged-8n differs from
    dense-8n only by its clock and perturbation.
    """
    state = np.random.SeedSequence(seed).generate_state(workload.sessions)
    return [int(s) for s in state]


def scenario(workload: Workload, session_seed: int) -> dict:
    """Scenario mapping for ``tdoa-dtb simulate``."""
    rng = np.random.default_rng(session_seed)
    ids = workload.node_ids
    biases = rng.uniform(-BIAS_SPAN_M, BIAS_SPAN_M, len(ids))
    return {
        "seed": session_seed,
        "epoch_rate": workload.epoch_rate_hz,
        "speed": SPEED_M_S,
        "duration": workload.duration_s,
        "nodes": {i: [x, y] for i, (x, y) in zip(ids, workload.node_xy)},
        "biases": {i: float(v) for i, v in zip(ids, biases)},
        "waypoints": WAYPOINTS,
        "clock": dict(workload.clock),
        "noise": dict(NOISE),
        "path_loss": dict(PATH_LOSS),
    }


# Ragged perturbation. Each node is out of view once for OUTAGE_FRACTION of
# the session, the outages staggered over the session so that every node,
# whichever becomes the reference, loses some epochs. Blunders model
# non-line-of-sight paths: a positive range excess on observations weaker
# than BLUNDER_BELOW_DBM (about 70% of rows), so about 0.5% of all rows.
# A blunder on a strong row can make fit-noise fail with "noise does not
# decrease with power" (3 of 300 sessions did), which would fail operations.
OUTAGE_FRACTION = 0.08
P_DROP = 0.02
P_BLANK_RSRP = 0.01
P_BLUNDER = 0.007
BLUNDER_BELOW_DBM = -85.0
BLUNDER_M = (20.0, 60.0)


def perturb_toa(workload: Workload, src, dst, session_seed: int) -> dict:
    """Write a thinned, perturbed copy of a ToA CSV; return the counts applied.

    Every row consumes the same four uniform draws (drop, blank, blunder,
    blunder size) whichever branch fires, so the output depends only on the
    seed and the input rows.
    """
    with open(src, newline="") as f:
        reader = csv.DictReader(f)
        header, body = reader.fieldnames, list(reader)
    rng = np.random.default_rng([session_seed, 1])
    ids = workload.node_ids
    slot = workload.duration_s / len(ids)
    length = OUTAGE_FRACTION * workload.duration_s
    starts = {n: (i + rng.uniform(0.0, 1.0)) * slot for i, n in enumerate(ids)}
    draws = rng.random((len(body), 4)).tolist()
    counts = {"rows_in": len(body), "outage": 0, "dropped": 0,
              "blank_rsrp": 0, "blunders": 0}
    out = []
    for row, (u_drop, u_blank, u_blunder, u_size) in zip(body, draws):
        start = starts[row["node_id"]]
        if start <= float(row["time"]) < start + length:
            counts["outage"] += 1
            continue
        if u_drop < P_DROP:
            counts["dropped"] += 1
            continue
        weak = row["rsrp"] != "" and float(row["rsrp"]) < BLUNDER_BELOW_DBM
        if u_blank < P_BLANK_RSRP:
            row["rsrp"] = ""
            counts["blank_rsrp"] += 1
        if u_blunder < P_BLUNDER and weak:
            lo, hi = BLUNDER_M
            row["toa"] = repr(float(row["toa"]) + lo + (hi - lo) * u_size)
            counts["blunders"] += 1
        out.append(row)
    with open(dst, "w", newline="") as f:
        writer = csv.DictWriter(f, header)
        writer.writeheader()
        writer.writerows(out)
    counts["rows_out"] = len(out)
    return counts
