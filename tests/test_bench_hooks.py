"""The benchmark reaches into the package by dotted paths and operator
attributes; a rename must fail here rather than turn a traced layer into a
missing value."""

import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgprecond.basis import MultiIndexSet
from sgprecond.config import parse_config
from sgprecond.experiments import run_verify
from sgprecond.fem import build_mesh, sample_coefficients
from sgprecond.operator import DiscreteProblem
from sgprecond.orthopoly import legendre

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import tracing
    import workload

    return workload, tracing, checks


def test_every_wrapped_path_resolves(bench):
    workload, tracing, _ = bench
    paths = list(workload.SETUP.values()) + [path for path, _, _ in workload.LAYERS.values()]
    for path in paths:
        owner, attr = tracing._resolve(path)
        inspect.getattr_static(owner, attr)  # AttributeError on a rename


SPLIT_AND_GS2 = """sgp-config v1

[problem]
dim = 1
elements = 8
family = legendre
basis = complete
degree = 1 2
K = 2

[coefficients]
a0 = 1
a1 = 0.4*chi(0,1/2)
a2 = 0.3*sin(pi*x1)

[run]
preconditioners = splitting_complete gs2
kappa_A = false
"""


def test_precond_solve_span_sees_every_pencil_solve(bench, monkeypatch):
    # a Lanczos run solves once for its start vector and twice per step:
    # with the other color inside the pencil's product, and with this color;
    # each run solves once more on the other color for its eigenvector of
    # M^-1 A, which splitting_complete shares with sigma^2 at its Ritz vector
    workload, tracing, _ = bench
    tracer = tracing.Tracer()
    for name in ("operator.precond_solve", "eigsolve.lanczos"):
        path, counter, _aliases = workload.LAYERS[name]
        owner, attr = tracing._resolve(path)
        monkeypatch.setattr(owner, attr, inspect.getattr_static(owner, attr))
        assert tracing.wrap(tracer, path, name, counter, aliases=False)
    run_verify(parse_config(SPLIT_AND_GS2))

    # counted by name: the two kinds of a degree run on two threads, and the
    # tracer's one span stack can nest one thread's spans in the other's
    def spans(name):
        return sum(span[0] == name for span in tracer.spans)

    runs = spans("eigsolve.lanczos")
    steps = tracer.counts["eigsolve.lanczos"]["steps"]
    assert runs == 4 and steps > 0  # two kinds at two degrees
    assert spans("operator.precond_solve") == runs + 2 * steps + runs


def test_residual_check_reads_the_operator_terms(bench):
    _, _, checks = bench
    mesh = build_mesh(1, 4)
    field = sample_coefficients(["1", "0.3"], mesh)
    a = DiscreteProblem.build(legendre(), MultiIndexSet.complete(1, 2), mesh, field).operator
    assert len(a.gs) == len(a.fs) == 2
    x = np.random.default_rng(3).standard_normal(a.shape[0])
    assert checks.relative_residual(a, a.matvec(x), x) <= 1e-14


def test_bench_selftest_passes():
    # the selftest builds a GalerkinOperator from plain scipy.sparse terms
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
