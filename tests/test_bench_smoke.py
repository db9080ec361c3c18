"""The benchmark runs end to end on the program as it stands.

``bench/run.py`` checks the protocols' outputs (and, traced, that the
traced and untraced outputs are equal); a program change that breaks one
of those checks fails here, where the package's tests run. One smoke run
on the small workload takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_smoke_run_is_correct(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scale", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
