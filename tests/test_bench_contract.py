"""The benchmark harness runs every workload to a checked, traced result.

A tiny traced run of each workload must exit 0 with every output correct and
no failed operation; a traced run also fails when a per-layer metric its
workload requires reads zero, so a renamed or unreached layer shows here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["exact-large", "grid-small", "estimate-bootstrap"])
def test_tiny_traced_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "0",
         "--tiny", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout[-2000:]
    assert result["failed"] == 0
