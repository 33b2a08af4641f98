"""medscm benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is exact-large, grid-small or estimate-bootstrap. A run builds its
inputs from --seed, then repeats whole rounds of the workload's fixed batch
of operations until --seconds have passed (at least two rounds), in one
process and one thread. After the timed loop every operation's output is
checked against the numpy reference, the paper's closed forms or the
properties the workload names. The last line of standard output is one JSON
object: correct, attempted, failed and metrics.

Times are scaled to a reference machine speed: a fixed pass of pure-Python
calibration work runs before and after every stretch of about a quarter
second of work (long operations are split into stages for this), and each
stretch is multiplied by CAL_REF_S over the mean of those two passes. On a
shared host whose speed drifts by tens of percent from minute to minute this
keeps runs comparable; the unscaled round time is printed too.

--trace 0 reports the end-to-end metrics: setup_s (a fresh interpreter that
imports medscm, plus building the inputs; median of five), wall_s (one round
with every operation at the lower quartile of its latencies over the run's
rounds: contention on a shared host only ever slows an operation down, and
the quartile is steadier than the minimum) and peak_rss_mb (peak resident
memory after the first two rounds, so that runs of different lengths
compare). --trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds, per round, with trace.overhead, the
ratio of the traced to the untraced quartile round.

--tiny shrinks every input for the self-test; --perturb CHECK moves one
check's reference past its tolerance; --spans FILE writes the raw spans of a
traced run as JSON lines.
"""

import os

# one process, one thread: numpy reads these when it is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from common import CAL_REF_S, Checker, Clock, calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {
    "exact-large": "exact_large",
    "grid-small": "grid_small",
    "estimate-bootstrap": "estimate_bootstrap",
}
SETUP_REPEATS = 5
MIN_ROUNDS = 2
CAL_INTERVAL_S = 0.25
MAX_MESSAGES = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--perturb", default=None)
    parser.add_argument("--spans", default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "medscm" / "__init__.py").is_file():
        print(f"error: the medscm sources are missing ({SRC}/medscm)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import medscm.cli  # noqa: F401  (the workloads drive the CLI in-process)
    import medscm.engine

    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.perturb is not None and args.perturb not in workload.CHECKS:
        print(f"error: {args.workload} has no check {args.perturb!r}; "
              f"expected one of {', '.join(workload.CHECKS)}", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result = run(args, workload, workdir, medscm.engine)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


def measure_setup(args, workload, workdir: Path):
    """Set up SETUP_REPEATS times: a fresh interpreter that imports medscm,
    then the workload's inputs. Returns the median scaled set-up time and
    the inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    imports, gens = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import medscm.cli"], env=env, check=True)
        t1 = time.perf_counter()
        inputs = workload.setup(args.seed, args.tiny, workdir)
        t2 = time.perf_counter()
        factor = CAL_REF_S / ((before + calibrate()) / 2.0)
        imports.append((t1 - t0) * factor)
        gens.append((t2 - t1) * factor)
    return statistics.median(imports) + statistics.median(gens), inputs


def run_round(workload, inputs, tracer) -> list:
    """Run every operation of one round on a fresh clock."""
    clock = Clock(CAL_INTERVAL_S, (lambda: tracer.bench_s) if tracer else (lambda: 0.0))
    finish = getattr(workload, "finish", None)
    ops = []
    for key, fn in workload.operations(inputs, clock.lap):
        op = clock.run(key, fn)
        if finish:
            finish(op)
        ops.append(op)
    clock.flush()
    return ops


def run(args, workload, workdir: Path, engine) -> dict:
    setup_s, inputs = measure_setup(args, workload, workdir)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []   # (ops, traced)
    t_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_start < args.seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        # every round times fresh models; no hit left by an earlier round
        clear = getattr(engine.profiles, "cache_clear", None)
        if clear:
            clear()
        if traced:
            tracer.begin_round()
        rounds.append((run_round(workload, inputs, tracer if traced else None), traced))
        if traced:
            tracer.end_round()
        if len(rounds) == MIN_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, wrong, refs = check(args, workload, inputs, rounds)

    def quartile_round(traced: bool, attr: str = "scaled") -> float:
        """A round with every operation at the lower quartile of its
        latencies over the rounds."""
        chosen = [ops for ops, t in rounds if t == traced]
        return sum(_lower_quartile([getattr(op, attr) for op in same]) for same in zip(*chosen))

    wall_s = quartile_round(False)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_ops = [op for ops, t in rounds if t for op in ops]
        factor = sum(op.scaled for op in traced_ops) / sum(op.seconds for op in traced_ops)
        metrics = {name: (value * factor if unit == "s" else value, unit)
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.overhead"] = (quartile_round(True) / wall_s, "ratio")
        missing = [name for name in workload.TRACE_REQUIRED if not metrics[name][0] > 0]
        if missing:
            print(f"span coverage: zero on {args.workload}: {', '.join(missing)}",
                  file=sys.stderr)
            wrong += 1
        if args.spans:
            tracer.write_spans(args.spans)

    plain_ops = [op for ops, t in rounds if not t for op in ops]
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed")
    lines = list(metrics.items())
    lines.append(("unscaled_wall_s", (quartile_round(False, "seconds"), "s")))
    lines += [(name, (value, unit))
              for name, value, unit in workload.rates(inputs, wall_s, refs, plain_ops)]
    for name, (value, unit) in lines:
        print(f"  {name:<32} {value:.6g} {unit}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def check(args, workload, inputs, rounds):
    """Check every operation; an operation fails when it raised or when any
    of its checks fails."""
    checker = Checker(args.perturb)
    refs: dict = {}
    attempted = failed = wrong = 0
    messages = []
    first_ops = rounds[0][0]
    for ops, _traced in rounds:
        for op, first in zip(ops, first_ops):
            attempted += 1
            if op.error is not None:
                failed += 1
                messages.append(f"{op.key}: {op.error}")
                continue
            checker.begin()
            try:
                workload.check(inputs, op, first if first.error is None else op, checker, refs)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                checker.messages.append(f"unreadable output: {type(exc).__name__}: {exc}")
            if checker.messages:
                failed += 1
                wrong += 1
                messages.append(f"{op.key}: {checker.messages[0]}")
    for text in messages[:MAX_MESSAGES]:
        print(f"failed: {text}", file=sys.stderr)
    if len(messages) > MAX_MESSAGES:
        print(f"failed: ... {len(messages) - MAX_MESSAGES} more", file=sys.stderr)
    return attempted, failed, wrong, refs


if __name__ == "__main__":
    sys.exit(main())
