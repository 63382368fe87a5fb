"""The public surface: every exported name exists, the modules import as
one chain, and ``python3 -m nsgl`` runs the command line."""

import importlib
import os
import subprocess
import sys

import pytest

MODULES = ["nsgl", "nsgl.grid", "nsgl.noise", "nsgl.stepper", "nsgl.diagnostics",
           "nsgl.experiments", "nsgl.checks", "nsgl.io_cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def child_env():
    """The environment of a child interpreter that imports the package
    from the tree under test."""
    import nsgl

    src = os.path.dirname(os.path.dirname(os.path.abspath(nsgl.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_the_modules_import_as_one_chain():
    """In a fresh interpreter, each module in the chain grid -> noise ->
    stepper -> checks -> diagnostics -> experiments -> io_cli loads no nsgl
    module after it: ``import nsgl`` loads no submodule, ``nsgl.grid`` no
    other nsgl module, and ``nsgl.noise`` only ``nsgl.grid``."""
    chain = ["nsgl.grid", "nsgl.noise", "nsgl.stepper", "nsgl.checks", "nsgl.diagnostics",
             "nsgl.experiments", "nsgl.io_cli"]
    script = ("import importlib, sys\n"
              "for name in sys.argv[1:]:\n"
              "    importlib.import_module(name)\n"
              "    print(*sorted(m for m in sys.modules if m.startswith('nsgl.')))\n")
    done = subprocess.run([sys.executable, "-c", script, "nsgl", *chain], capture_output=True,
                          text=True, env=child_env(), timeout=120, check=True)
    loaded = [line.split() for line in done.stdout.splitlines()]
    assert loaded == [sorted(chain[:i]) for i in range(len(chain) + 1)]


def nsgl_command(tmp_path, command, ini_text):
    """``python3 -m nsgl COMMAND -c INI`` argv and environment, the package
    taken from the tree under test."""
    ini = tmp_path / "run.ini"
    ini.write_text(ini_text, encoding="utf-8")
    return [sys.executable, "-m", "nsgl", command, "-c", str(ini)], child_env()


def test_python_m_nsgl_runs_the_cli_without_warnings(tmp_path):
    """``python3 -m nsgl`` and ``python3 -m nsgl.io_cli`` are the CLI: exit 0
    and nothing on stderr (runpy warns when the package has imported the
    module it is asked to run)."""
    argv, env = nsgl_command(tmp_path, "dump-config", "[grid]\nn_modes = 16\n")
    for module in ("nsgl", "nsgl.io_cli"):
        argv[2] = module
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ""
        assert "n_modes = 16" in done.stdout


def test_single_path_ensemble_reports_nan_se_without_warnings(tmp_path):
    """One path has no sample standard deviation: se = nan, stderr empty."""
    ini = ("[grid]\nn_modes = 16\n[stepper]\ndt = 5e-3\nt_end = 0.01\n"
           "[ensemble]\nn_paths = 1\n")
    argv, env = nsgl_command(tmp_path, "ensemble", ini)
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "paths = 1" in done.stdout and "se = nan" in done.stdout


def test_a_closed_stdout_ends_in_one_stderr_line(tmp_path):
    """``nsgl run | head -1`` with the reader gone before the first row:
    exit 1, one stderr line, no traceback and nothing from the interpreter's
    flush at exit."""
    ini = "[grid]\nn_modes = 16\n[stepper]\ndt = 5e-3\nt_end = 0.02\n"
    argv, env = nsgl_command(tmp_path, "run", ini)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err.startswith("output error: ") and err.count("\n") == 1


def test_a_deterministic_config_command_imports_neither_random_nor_hashlib(tmp_path):
    """``dump-config`` of a config with no random initial data leaves
    ``numpy.random`` (the generator is built on the first draw) and
    ``hashlib`` (imported inside ``config_hash``) unimported: together about
    24 ms and 6 MB of peak RSS at every CLI start."""
    ini = "[grid]\nn_modes = 16\n[initial]\nu0 = zero\nn0 = constant_e3\n"
    argv, env = nsgl_command(tmp_path, "dump-config", ini)
    script = ("import sys\nfrom nsgl.io_cli import main\ncode = main(sys.argv[1:])\n"
              "print(*(m for m in ('numpy.random', 'hashlib', '_hashlib') if m in sys.modules),"
              " sep=',', file=sys.stderr)\nsys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", script, *argv[3:]], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert "n0 = constant_e3" in done.stdout
    assert done.stderr == "\n"


def test_a_grid_too_large_to_allocate_ends_in_one_line(tmp_path):
    """``n_modes = 200000`` asks for a 149 GiB wavenumber table: exit 1 with
    one ``out of memory`` line.  The child caps its own address space at
    about 3 GB before it runs the CLI, so the allocation fails there
    instead of being attempted."""
    pytest.importorskip("resource")
    argv, env = nsgl_command(tmp_path, "dump-config", "[grid]\nn_modes = 200000\n")
    script = ("import resource, sys\nlimit = 3_000_000 * 1024\n"
              "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
              "from nsgl.io_cli import main\nsys.exit(main(sys.argv[1:]))\n")
    done = subprocess.run([sys.executable, "-c", script, *argv[3:]], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("out of memory: ") and done.stderr.count("\n") == 1


def test_a_numerical_failure_ends_in_one_stderr_line(tmp_path):
    """``ensemble`` at ``gl.epsilon = 1e-160``: the first roundoff defect of
    |n| makes the report's D overflow while the state stays finite.  Exit 2
    with one stderr line that names D, and no numpy warning before it."""
    ini = ("[grid]\nn_modes = 16\n[stepper]\nt_end = 0.02\n[gl]\nepsilon = 1e-160\n"
           "[ensemble]\nn_paths = 2\n")
    argv, env = nsgl_command(tmp_path, "ensemble", ini)
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("numerical failure: report enstrophy_D = inf at t=0.003, "
                           "from a finite state\n")


def test_converge_holds_one_path_of_member_streams_open(tmp_path):
    """``converge`` with 40 paths of 2 members writes 80 member streams in
    a child whose open-file limit is 64: a path's first row closes the
    streams of the path before it, so the run never holds more than one
    path's members open."""
    resource = pytest.importorskip("resource")
    ini = ("[grid]\nn_modes = 16\n[stepper]\ndt = 5e-3\nt_end = 0.01\n"
           "[convergence]\neps_family = 0.4, 0.2\nn_paths = 40\noutput_dir = out\n")
    argv, env = nsgl_command(tmp_path, "converge", ini)

    def limit_open_files():
        hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
        resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))

    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120,
                          cwd=tmp_path, preexec_fn=limit_open_files)
    assert done.returncode == 0, done.stderr
    assert len(list((tmp_path / "out").iterdir())) == 80
