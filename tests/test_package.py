"""The public surface: every exported name exists, and ``python3 -m nsgl``
runs the command line."""

import importlib
import os
import subprocess
import sys

import pytest

MODULES = ["nsgl", "nsgl.grid", "nsgl.operators", "nsgl.noise", "nsgl.stepper",
           "nsgl.diagnostics", "nsgl.experiments", "nsgl.checks", "nsgl.io_cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_python_m_nsgl_runs_the_cli_without_warnings(tmp_path):
    """``python3 -m nsgl`` is the CLI: exit 0 and nothing on stderr."""
    import nsgl

    ini = tmp_path / "run.ini"
    ini.write_text("[grid]\nn_modes = 16\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsgl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "nsgl", "dump-config", "-c", str(ini)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "n_modes = 16" in done.stdout
