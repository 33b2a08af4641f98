"""Pieces shared by the workloads: timed operations, the speed calibration,
in-process CLI calls and the output checker."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time

import numpy as np


# Fixed work whose time tracks the machine's current speed: an interpreter
# loop over dicts and tuples, and numpy allocation, random draws and
# counting. It takes about CAL_REF_S on an idle core of the reference machine
# (2.1 GHz Xeon, Python 3.11, numpy 2.4).
CAL_ITERATIONS = 20_000
CAL_ARRAY = 100_000
CAL_REF_S = 0.008


def calibrate() -> float:
    """Seconds one fixed pass of the calibration work takes now."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += (i % 13) * 0.5
    gen = np.random.Generator(np.random.Philox(key=0))
    for _ in range(4):
        draw = gen.integers(0, 256, size=CAL_ARRAY)
        np.bincount(draw, minlength=256)
    return time.perf_counter() - t0


class Op:
    """One operation of a round: a model analysed, a CLI command or an
    estimate call, with its latency, the latency scaled to the reference
    speed, and its output or error."""

    __slots__ = ("key", "seconds", "scaled", "output", "error")

    def __init__(self, key):
        self.key = key
        self.seconds = 0.0
        self.scaled = 0.0
        self.output = None
        self.error = None


class Clock:
    """Times operations and scales them to the reference speed.

    Time accrues in laps: the end of an operation, and any point inside a
    long operation where it calls lap(). Once the unscaled laps since the
    last calibration pass reach `interval` seconds, another pass runs, and
    those laps are scaled by CAL_REF_S over the mean of the passes before
    and after them. Calibration time and the time `bench()` reports (the
    tracer's own counting) stay out of every latency.
    """

    def __init__(self, interval: float, bench=lambda: 0.0):
        self.interval = interval
        self._bench = bench
        self._before = calibrate()
        self._laps: list = []
        self._laps_s = 0.0
        self._op: Op | None = None

    def run(self, key, fn) -> Op:
        """Run fn() as one operation. An exception marks the operation
        failed and the round goes on."""
        op = self._op = Op(key)
        self._mark, self._bench_mark = time.perf_counter(), self._bench()
        try:
            op.output = fn()
        except Exception as exc:  # noqa: BLE001 - any error of the program fails the operation
            op.error = f"{type(exc).__name__}: {exc}"
        self.lap()
        self._op = None
        return op

    def lap(self) -> None:
        dt = (time.perf_counter() - self._mark) - (self._bench() - self._bench_mark)
        self._op.seconds += dt
        self._laps.append((self._op, dt))
        self._laps_s += dt
        if self._laps_s >= self.interval:
            self.flush()
        self._mark, self._bench_mark = time.perf_counter(), self._bench()

    def flush(self) -> None:
        after = calibrate()
        factor = CAL_REF_S / ((self._before + after) / 2.0)
        for op, dt in self._laps:
            op.scaled += dt * factor
        self._before, self._laps, self._laps_s = after, [], 0.0


def cli(argv: list[str]) -> str:
    """Run `medscm <argv>` in-process and return its standard output; a
    nonzero exit code raises, so the operation counts as failed."""
    import medscm.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = medscm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise RuntimeError(f"medscm {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Checker:
    """Compares outputs with references and collects the failures of the
    current operation.

    perturb names one check whose reference is moved just past its
    tolerance (by 1e-6, or by twice the tolerance when that is larger); the
    self-test uses it to show that each check can fail.
    """

    def __init__(self, perturb: str | None = None):
        self.perturb = perturb
        self.messages: list[str] = []

    def begin(self) -> None:
        self.messages = []

    def _fail(self, name: str, text: str) -> bool:
        self.messages.append(f"{name}: {text}")
        return False

    def close(self, name: str, got: float, ref: float, tol: float) -> bool:
        if name == self.perturb:
            ref += max(1e-6, 2.0 * tol)
        if math.isfinite(got) and abs(got - ref) <= tol:
            return True
        return self._fail(name, f"got {got!r}, reference {ref!r}, tolerance {tol:g}")

    def equal(self, name: str, got, ref) -> bool:
        if name == self.perturb:
            ref = ("perturbed", ref)
        if got == ref:
            return True
        return self._fail(name, f"got {str(got)[:120]!r}, expected {str(ref)[:120]!r}")

    def ordered(self, name: str, lo: float, hi: float) -> bool:
        if name == self.perturb:
            lo = hi + 1e-6
        if lo <= hi:
            return True
        return self._fail(name, f"{lo!r} > {hi!r}")


def csv_rows(text: str) -> dict[str, str]:
    """key -> value of a `--format csv` key/value listing."""
    return dict(list(csv.reader(io.StringIO(text)))[1:])


def grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]
