"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Every workload, traced and untraced, runs at a tiny size within seconds and
with no failed operation; the traced run writes its spans. Every check, with
its reference moved past its tolerance (by 1e-6 for the exact checks),
reports failed operations. A copy of the benchmark without the medscm
sources exits nonzero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TINY_LIMIT_S = 30.0


def run(script: Path, workload: str, *extra: str) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--tiny", *extra],
        capture_output=True, text=True, timeout=170,
    )
    return proc, time.perf_counter() - t0


def result_of(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from run import WORKLOADS

    problems = []
    for workload, module_name in WORKLOADS.items():
        module = __import__(module_name)
        spans = HERE / "_work" / f"spans-{workload}.jsonl"
        for trace in ("0", "1"):
            extra = ("--spans", str(spans)) if trace == "1" else ()
            proc, elapsed = run(HERE / "run.py", workload, "--trace", trace, *extra)
            res = result_of(proc)
            ok = res["correct"] and res["failed"] == 0 and elapsed < TINY_LIMIT_S
            if trace == "1":
                lines = spans.read_text().splitlines()
                spans.unlink()
                ok = ok and bool(lines) and all(
                    json.loads(line).keys() >= {"name", "start", "end", "parent"}
                    for line in lines)
            print(f"{workload} trace {trace}: {elapsed:.1f} s, {res['attempted']} operations, "
                  f"{res['failed']} failed", flush=True)
            if not ok:
                problems.append(f"{workload} trace {trace}: {res} in {elapsed:.1f} s")
        for check in module.CHECKS:
            res = result_of(run(HERE / "run.py", workload, "--trace", "0", "--perturb", check)[0])
            print(f"{workload} perturb {check}: {res['failed']} of {res['attempted']} failed",
                  flush=True)
            if res["failed"] == 0 or res["correct"]:
                problems.append(f"{workload}: perturbing {check} went unnoticed")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    try:
        proc, _ = run(bare / HERE.name / "run.py", "grid-small", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a run of the benchmark still uses it
    print(f"without sources: exit {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a copy without the medscm sources did not fail")

    for text in problems:
        print(f"PROBLEM: {text}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
