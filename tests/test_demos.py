"""Each demo runs to completion against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = ("quadrature_and_pivots", "small_operator_anatomy", "bounds_vs_spectrum",
         "preconditioner_race", "reproduce_published_tables --quick")


def _run(name):
    script, *args = name.split()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{script}.py"), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    _run(name)


def test_race_prints_the_same_stdout_twice():
    # wall times go to stderr; stdout holds only kind, bound and iterations
    assert _run("preconditioner_race") == _run("preconditioner_race")
