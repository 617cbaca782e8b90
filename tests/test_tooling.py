import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_run_finds_every_target(tmp_path):
    # traced.py stops when a callable it traces is renamed or deleted
    trace = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace),
         "omega", "--order", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(trace.read_text())["exit_code"] == 0
