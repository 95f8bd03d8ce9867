"""The package surface: every exported name resolves, every demo runs,
and the benchmark in ``perfbench/`` still finds what it imports."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import strandgroups
from strandgroups import cli

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


def _load(monkeypatch, name):
    """Import ``perfbench/<name>.py`` under a name of its own, registered
    for the test only (dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_imports_resolve_and_traced_decisions_run(capsys, monkeypatch):
    # the benchmark reads the package from outside; removing a name it
    # imports should fail here, not only when the benchmark runs
    _load(monkeypatch, "workloads")
    tracing = _load(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    for argv in (
        ["eq", "-g", "F", "x0 x1", "x1 x0"],
        ["conj", "-g", "F", "x1", "x0^-1 x1 x0"],
        ["conj", "-g", "T", "c x0", "x0 c"],
        ["conj", "-g", "V", "pi0", "x0 pi0"],
        ["rotnum", "x0^-1 c x0"],
    ):
        assert cli.main(argv) == 0
        untraced = capsys.readouterr().out
        tracer.begin()
        decision = tracing.Decision(tracer, argv)
        assert decision.run() == 0
        assert capsys.readouterr().out == untraced
        counts = decision.probe()
        assert counts["words.vertices_built"] > 0
    assert {span[4] for span in tracer.spans} == set(range(5))
