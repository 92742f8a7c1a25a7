"""Where the package loads ``numpy.random``, and that it never loads scipy,
checked in fresh interpreters.

``numpy.random`` (the Philox streams of the Brownian levels) is imported at
first use, on the main thread: commands that never draw paths leave it
unloaded.  No command loads any ``scipy`` module: the regressions factor on the
LAPACK numpy already loads, the normals are numpy's, and so is the affine
quadrature; scipy is a test dependency only.  The test session itself has
imported both long before these tests run, so every check starts a new
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bsdelab

SRC = str(Path(bsdelab.__file__).resolve().parents[1])
LAZY = ("numpy.random",)

# Runs the CLI with the given argv and prints its exit code, which of LAZY it
# left loaded, every scipy module it left loaded, and for each of LAZY whether
# its first import ran on the main thread (a finder that declines every module
# records the thread).
PROBE = """
import json, sys, threading
LAZY = {lazy!r}
first = {{}}

class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name in LAZY and name not in first:
            first[name] = threading.current_thread() is threading.main_thread()
        return None

sys.meta_path.insert(0, Recorder())
from bsdelab import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
print(json.dumps({{"code": code, "loaded": [m for m in LAZY if m in sys.modules],
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "main_thread": first}}))
"""


def _probe(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE.format(lazy=LAZY), *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_lazy_subpackage():
    result = _probe()
    assert result["loaded"] == []
    assert result["scipy"] == []


@pytest.mark.parametrize("argv", [
    ["list"],
    ["run", "ek_red"],
    ["run", "affine_minus_family", "--n-grid", "33"],
    ["run", "affine_plus", "--terminal", "1", "--n-grid", "33"],
    ["run", "nonlinear_exp", "--n-grid", "21", "--schedule", "2,4", "--tol", "0.5"],
    ["run", "affine_plus"],
    ["run", "ode_trichotomy"],
], ids=["list", "ek_red", "affine_minus_family", "affine_plus_terminal_1",
        "nonlinear_exp_ode", "affine_plus", "ode_trichotomy"])
def test_deterministic_commands_load_no_lazy_subpackage(tmp_path, argv):
    if argv[0] == "run":
        argv = argv + ["--out", str(tmp_path / "out")]
    result = _probe(*argv)
    assert result["code"] == 0
    assert result["loaded"] == []
    assert result["scipy"] == []


def test_monte_carlo_loads_only_numpy_random_on_the_main_thread(tmp_path):
    # 40000 paths are two chunks of the sweep, on two threads
    result = _probe("run", "nonlinear_exp", "--mode", "mc", "--m-paths", "40000",
                    "--n-grid", "9", "--schedule", "2,4", "--tol", "0.5",
                    "--threads", "2", "--out", str(tmp_path / "mc"))
    assert result["code"] == 0
    assert result["loaded"] == ["numpy.random"]
    assert result["scipy"] == []
    assert result["main_thread"] == {"numpy.random": True}


def test_threaded_first_run_matches_one_thread_bytes(tmp_path):
    # 40000 paths are two path blocks of the sweep (SWEEP_BLOCK = 2^14): at
    # --threads 2 the pool runs, in a process whose first draw imports
    # numpy.random and whose regressions factor on numpy's LAPACK
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        result = _probe("run", "nonlinear_exp", "--mode", "mc", "--m-paths", "40000",
                        "--n-grid", "21", "--schedule", "2,4", "--tol", "0.1",
                        "--threads", str(threads), "--out", str(out))
        assert result["code"] == 0
        assert result["main_thread"] == {"numpy.random": True}
        assert result["scipy"] == []
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert sorted(outputs[1]) == ["scheme.csv", "solution.csv"]
    assert outputs[1] == outputs[2]
