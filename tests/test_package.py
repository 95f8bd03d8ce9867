"""The package surface: every exported name resolves and every demo runs."""

import os
import subprocess
import sys
from pathlib import Path

import strandgroups

ROOT = Path(__file__).resolve().parents[1]


def test_exports_resolve_and_demos_run():
    assert [name for name in strandgroups.__all__ if not hasattr(strandgroups, name)] == []
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ, PYTHONPATH="src")
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
