"""The benchmark runs end to end on this checkout.

Each workload of ``perfbench/run.py`` runs shrunk (``--tiny``) and traced
(``--trace 1``), which runs it on both kernel backends, checks every output
against its gates and wraps the package's entry points and recognizers in
timing spans.  So a change under ``src/`` that breaks what the benchmark
reaches into (a traced function, a recognizer attribute that has to survive
``functools.wraps``, a pinned count) fails here.  Each run takes a second or
two.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["count", "verify", "query"])
def test_traced_tiny_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--tiny", "--trace", "1", "--seconds", "0.5"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
