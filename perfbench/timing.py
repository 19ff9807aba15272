"""Speed-normalised timing on a host whose CPU speed drifts.

The vCPU's speed switches between regimes up to 2x apart within seconds, so
raw seconds of one run do not repeat within a tenth. Each timed unit is
therefore bracketed by a fixed reference workload run on the same pinned CPU,
never concurrently with the unit, and reported as

    scaled = raw / mean(reference before, reference after) * nominal

that is, in seconds at the speed where the reference takes its nominal time.
The in-process reference mirrors the pipeline's mix in four equal parts: a
pure-Python loop, small-object allocation and sorting, a CSV round trip and
small numpy operations. Measured over 10 s blocks on a 2-vCPU VM, pipeline
time divided by this mix varied by 2.2% while raw time varied by 18% and
time divided by the pure-Python loop alone by 4.9%. Fresh-interpreter units
use a bare interpreter start as reference, because start-up is dominated by
loading and page faults. Raw seconds are reported alongside.
"""

from __future__ import annotations

import csv
import gc
import io
import os
import statistics
import time

import numpy as np

# Nominal seconds of each reference: about its median on a 2-vCPU x86-64 VM
# under Python 3.11, so scaled figures read close to raw ones there.
REF_NOMINAL_S = 0.028
START_REF_NOMINAL_S = 0.060

_CSV_TEXT = "time,node_id,toa,rsrp\n" + "".join(
    f"{i * 0.1!r},{i % 8 + 1},{1000.0 + i * 0.37!r},{-70.0 - (i % 13) * 0.5!r}\n"
    for i in range(1500))
_H = np.array([0.3, 0.7])


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_loop() -> float:
    """Seconds of the fixed reference work, about 6 ms in each part."""
    t0 = time.perf_counter()
    acc, total, table = 0, 0.0, {}
    for i in range(25_000):
        acc = (acc * 31 + i) & 0xFFFF
        total += (acc % 97) * 0.5
        table[acc & 0xFF] = total

    rows = [(i * 0.5, str(i % 8), i * 1.5) for i in range(8_000)]
    rows.sort(key=lambda r: (r[1], r[0]))
    groups: dict[str, list[float]] = {}
    for _, node, value in rows:
        groups.setdefault(node, []).append(value)

    parsed = [(float(r["time"]), r["node_id"].strip(), float(r["toa"]))
              for r in csv.DictReader(io.StringIO(_CSV_TEXT))]
    writer = csv.writer(io.StringIO())
    for t, node, toa in parsed:
        writer.writerow([repr(t), node, repr(toa)])

    p = np.eye(2)
    for _ in range(300):
        p = 0.5 * (p + p.T) + np.diag([0.01, 0.02])
        gain = p @ _H / float(_H @ p @ _H + 1.0)
        p = p - np.outer(gain, _H) @ p
        np.linalg.eigvalsh(p)
    return time.perf_counter() - t0


class Measurement:
    """Raw seconds of one unit and the factor that scales them to nominal speed."""

    __slots__ = ("raw", "factor")

    def __init__(self, raw: float, factor: float):
        self.raw, self.factor = raw, factor

    @property
    def scaled(self) -> float:
        return self.raw * self.factor

    @classmethod
    def total(cls, parts) -> "Measurement":
        """Several units measured one after another, taken as one."""
        raw = sum(p.raw for p in parts)
        return cls(raw, sum(p.scaled for p in parts) / raw)


class ScaledClock:
    """Times units between reference loops; consecutive units share a loop."""

    def __init__(self):
        self._last_ref = reference_loop()

    def measure(self, fn, *args):
        """Run fn once; return (its result, Measurement)."""
        gc.collect()
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        before, self._last_ref = self._last_ref, reference_loop()
        return result, Measurement(raw, REF_NOMINAL_S / ((before + self._last_ref) / 2.0))


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def quantile(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule."""
    values = sorted(values)
    return float(values[min(len(values) - 1, int(q * len(values)))]) if values else float("nan")
