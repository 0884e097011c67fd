"""One repetition of a benchmark workload, in a process of its own.

Started by ``run.py`` with one BLAS thread in the environment and the
checkout's ``src`` on ``PYTHONPATH``.  Prints one JSON line: wall time of the
runner calls, set-up time, peak resident set, the effective OpenBLAS thread
counts, failed operations, correctness messages and, when traced, the
per-layer figures.

    python3 bench/workload.py --workload verify_2d --seed 42 [--trace-file PATH]
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import resource
import sys
import time
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent

# name -> (runner, configs); every repetition runs all of its configs
WORKLOADS = {
    "verify_1d": ("run_verify", ("table3_setting1", "table3_setting2", "table3_setting3")),
    "verify_2d": ("run_verify", ("table4",)),
    "solve_2d": ("run_solve", ("table4",)),
}

# The set-up entry points: they build the problem before any iteration and
# stay wrapped in the untraced run: 6 to 33 calls per repetition.
SETUP = {
    "setup.build_mesh": "sgprecond.fem.build_mesh",
    "setup.sample_coefficients": "sgprecond.fem.sample_coefficients",
    "fem.mu": "sgprecond.fem.mu_from_exprs",
    "operator.build_problem": "sgprecond.operator.DiscreteProblem.build",
    "setup.build_preconditioner": "sgprecond.operator.build_preconditioner",
}


def _lu_fill(lu):
    return {"lu_fill_nnz": int(lu.L.nnz + lu.U.nnz)}


def _lanczos_steps(estimate):
    return {"steps": int(estimate.iterations)}


def _pcg_iterations(result):
    return {"iterations": int(result[1])}


# Layers wrapped in the traced run only: span name -> (path, counter, aliases).
# The two private paths are the only way into their layer.
LAYERS = {
    "fem.assemble_F": ("sgprecond.fem.assemble_F", None, True),
    "basis.assemble_G": ("sgprecond.basis.assemble_G", None, True),
    "operator.assemble_sparse": ("sgprecond.operator.GalerkinOperator.assemble_sparse", None, True),
    "operator.factor": ("sgprecond.operator.spla.splu", _lu_fill, False),
    "operator.precond_solve": ("sgprecond.operator.Preconditioner.solve", None, True),
    "operator.matvec": ("sgprecond.operator.GalerkinOperator.matvec", None, True),
    "eigsolve.ritz": ("sgprecond.eigsolve._tridiag_eig", None, False),
    "eigsolve.lanczos": ("sgprecond.eigsolve.extreme_eigs_generalized", _lanczos_steps, True),
    "eigsolve.kappa_A": ("sgprecond.eigsolve.extreme_eigs", None, True),
    "eigsolve.pcg": ("sgprecond.eigsolve.pcg", _pcg_iterations, True),
}

# per-layer metric -> (span name, what to read, unit)
PER_LAYER = {
    "fem.mu_s": ("fem.mu", "total", "s"),
    "fem.assemble_F_s": ("fem.assemble_F", "total", "s"),
    "basis.assemble_G_s": ("basis.assemble_G", "total", "s"),
    "operator.build_problem_s": ("operator.build_problem", "total", "s"),
    "operator.assemble_sparse_s": ("operator.assemble_sparse", "total", "s"),
    "operator.factor_s": ("operator.factor", "total", "s"),
    "operator.factor_count": ("operator.factor", "count", "count"),
    "operator.lu_fill_nnz": ("operator.factor", "lu_fill_nnz", "count"),
    "operator.precond_solve_s": ("operator.precond_solve", "total", "s"),
    "operator.precond_solve_count": ("operator.precond_solve", "count", "count"),
    "operator.matvec_s": ("operator.matvec", "total", "s"),
    "operator.matvec_count": ("operator.matvec", "count", "count"),
    "eigsolve.ritz_s": ("eigsolve.ritz", "total", "s"),
    "eigsolve.ritz_count": ("eigsolve.ritz", "count", "count"),
    "eigsolve.lanczos_s": ("eigsolve.lanczos", "total", "s"),
    "eigsolve.lanczos_self_s": ("eigsolve.lanczos", "self", "s"),
    "eigsolve.lanczos_steps": ("eigsolve.lanczos", "steps", "count"),
    "eigsolve.kappa_A_s": ("eigsolve.kappa_A", "total", "s"),
    "eigsolve.pcg_s": ("eigsolve.pcg", "total", "s"),
    "eigsolve.pcg_count": ("eigsolve.pcg", "count", "count"),
    "eigsolve.pcg_iterations": ("eigsolve.pcg", "iterations", "count"),
}


def blas_threads():
    """Thread counts in effect in the OpenBLAS copies bundled with numpy and
    with scipy, read through their own getters."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    found = {}
    for package, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                            (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        paths = sorted(glob.glob(str(libs / "libscipy_openblas*.so")))
        if not paths:
            raise RuntimeError(f"no bundled OpenBLAS under {libs}")
        getter = getattr(ctypes.CDLL(paths[0]), symbol)
        getter.argtypes = []
        getter.restype = ctypes.c_int
        found[package.__name__] = getter()
    return found


def import_package():
    import sgprecond

    src = (ROOT / "src").resolve()
    if src not in Path(sgprecond.__file__).resolve().parents:
        raise RuntimeError(f"sgprecond imported from {sgprecond.__file__}, not from {src}")
    from sgprecond import experiments
    from sgprecond.config import load_config
    from sgprecond.errors import SgprecondError

    return experiments, load_config, SgprecondError


def run_ops(runner, cfgs, tracer, error_type):
    """Call the runner on every config; an error of the package counts as a
    failed operation.  Returns the tables (None where failed) and messages."""
    tables, failures = [], []
    for name, cfg in cfgs:
        try:
            tables.append(tracer.span("workload", runner, cfg))
        except error_type as exc:
            tables.append(None)
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return tables, failures


def check(workload, cfgs, tables, solves):
    errors = []
    for (name, cfg), table in zip(cfgs, tables):
        if table is None:
            continue
        errors += checks.check_sizes(table, cfg, name)
        if workload == "verify_1d":
            errors += checks.check_table3(table, name)
        elif workload == "verify_2d":
            errors += checks.check_table4(table, name)
            errors += checks.check_cbs(table, name)
        else:
            if len(solves) != len(cfg.preconditioners):
                errors.append(f"{name}: {len(solves)} solves, expected {len(cfg.preconditioners)}")
            for i, (a, b, x) in enumerate(solves):
                errors += checks.check_solution(a, b, x, cfg.tol, f"{name} solve {i}")
    return errors


def capture_solves(solves):
    """Keep (A, b, x) of every conjugate gradient solve for the residual
    check."""
    from sgprecond import eigsolve

    pcg = eigsolve.pcg

    def capturing(a, m, b, *args, **kwargs):
        result = pcg(a, m, b, *args, **kwargs)
        solves.append((a, b, result[0]))
        return result

    eigsolve.pcg = capturing


def layer_metrics(tracer, missing):
    out = {}
    for metric, (span, what, unit) in PER_LAYER.items():
        if span in missing:
            value = None
        elif what in ("total", "self", "count"):
            total, own, count = tracer.durations(span)
            value = {"total": total, "self": own, "count": count}[what]
        else:
            value = tracer.counts.get(span, {}).get(what, 0)
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the Lanczos start vectors")
    parser.add_argument("--trace-file", help="trace the layers and write the spans here")
    args = parser.parse_args(argv)

    experiments, load_config, error_type = import_package()
    threads = blas_threads()
    if any(n != 1 for n in threads.values()):
        raise SystemExit(f"refusing to report: OpenBLAS threads in effect {threads}, not 1")

    tracer = tracing.Tracer()
    missing = []
    for name, path in SETUP.items():
        if not tracing.wrap(tracer, path, name):
            raise SystemExit(f"set-up entry point {path} not found")
    if args.trace_file:
        for name, (path, counter, aliases) in LAYERS.items():
            if not tracing.wrap(tracer, path, name, counter, aliases):
                missing.append(name)
                print(f"not measured: {name} ({path} not found)", file=sys.stderr)
    solves = []
    runner_name, config_names = WORKLOADS[args.workload]
    if runner_name == "run_solve":
        capture_solves(solves)
    # the shipped configs; the seed replaces their seed = 42, which only sets
    # the Lanczos start vectors (run_solve draws nothing at random)
    cfgs = [(name, load_config(ROOT / "configs" / f"{name}.cfg").with_overrides(seed=args.seed))
            for name in config_names]
    runner = getattr(experiments, runner_name)

    start, cpu_start = time.perf_counter(), time.process_time()
    tables, failures = run_ops(runner, cfgs, tracer, error_type)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = check(args.workload, cfgs, tables, solves)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": tracer.outermost_total(set(SETUP)),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(cfgs),
        "failed": len(failures),
        "failures": failures,
        "errors": errors,
        "blas_threads": threads,
    }
    if args.trace_file:
        result["layers"] = layer_metrics(tracer, missing)
        tracer.dump(args.trace_file, workload=args.workload, seed=args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
