"""Command line front end.

Subcommands: bounds (analytic tables, no assembly), verify (assemble, run
the eigenvalue estimators and assert the enclosure chain), solve (conjugate
gradient comparison), quadrature (print nodes, weights and the pivot
sequence) and dump-matrix (coordinate-triplet text of an assembled matrix).

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 enclosure violation during verify.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np
import scipy

from . import experiments
from .basis import assemble_G
from .config import load_config
from .errors import (
    ConfigError,
    ConvergenceError,
    DominanceError,
    EnclosureError,
    FactorizationError,
    SgprecondError,
)
from .fem import assemble_F
from .operator import SPLITTING_OF_BASIS, kept_blocks
from .orthopoly import family_from_name

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ENCLOSURE = 4


_FLAGS = {
    "config": dict(help="path to an sgp-config file"),
    "out": dict(help="write output to this path instead of stdout"),
    "format": dict(choices=("csv", "md", "raw"), default="csv"),
    "seed": dict(type=int, help="override the configured random seed"),
    "tol": dict(type=float, help="override the configured tolerance"),
    "threads": dict(type=int, help="set the thread count of the bundled OpenBLAS"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sgp",
        description="Spectral bounds and preconditioners for parameter-dependent diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    # each subcommand takes only the flags it reads
    for name, flags in (("bounds", "config out format threads"),
                        ("verify", "config out format seed tol threads"),
                        ("solve", "config out format tol threads"),
                        ("quadrature", "out format threads"),
                        ("dump-matrix", "config out threads")):
        commands[name] = sub.add_parser(name)
        for flag in flags.split():
            commands[name].add_argument(f"--{flag}", **_FLAGS[flag])
    q = commands["quadrature"]
    q.add_argument("--family", required=True)
    q.add_argument("--gamma", type=float)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--mu", type=float, required=True)
    commands["dump-matrix"].add_argument(
        "--matrix",
        required=True,
        help="which matrix: G<k>, Gt<k> (annihilated) or F<k>, e.g. G1, Gt2, F0",
    )
    return parser


def _resolve_threads(args):
    n = args.threads
    if n is not None:
        if n < 1:
            raise ConfigError("--threads must be >= 1")
        libs = bundled_openblas()
        if not libs:
            print("sgp: --threads has no effect: no bundled OpenBLAS found", file=sys.stderr)
        for lib, suffix in libs:
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(n)
    return n


def bundled_openblas():
    """(library, symbol suffix) for each OpenBLAS copy bundled with the numpy
    and scipy wheels.  The BLAS is already loaded by the time a flag is read,
    so OPENBLAS_NUM_THREADS would come too late; its own setter does not."""
    found = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        paths = sorted(libs.glob("libscipy_openblas*.so"))
        if paths:
            found.append((ctypes.CDLL(str(paths[0])), suffix))
    return found


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _config_for(args):
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg = load_config(args.config)
    return cfg.with_overrides(seed=getattr(args, "seed", None), tol=getattr(args, "tol", None))


def coordinate_text(mat) -> str:
    """A 'rows cols nnz' line, then '<row> <col> <value>' per stored entry of
    the sparse ``mat`` in row-major order (1-based, 17 significant digits)."""
    coo = mat.tocoo()
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    order = np.lexsort((coo.col, coo.row))
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        lines.append(f"{r + 1} {c + 1} {v:.17g}")
    return "\n".join(lines) + "\n"


def _dump_matrix(args) -> str:
    cfg = _config_for(args)
    name = args.matrix.strip()
    kind, digits = name.rstrip("0123456789"), name[len(name.rstrip("0123456789")):]
    if kind not in ("G", "Gt", "F") or not digits:
        raise ConfigError(f"unknown matrix name {args.matrix!r} (use G<k>, Gt<k> or F<k>)")
    k = int(digits)
    iset = experiments.index_set(cfg, experiments.degree_sweep(cfg)[-1])
    if kind == "G":
        return coordinate_text(assemble_G(cfg.family, iset, k))
    if kind == "Gt":
        gt = kept_blocks(SPLITTING_OF_BASIS[iset.kind], iset, assemble_G(cfg.family, iset, k))
        gt.eliminate_zeros()
        return coordinate_text(gt)
    mesh, field, _mu, _mu_class = experiments.mesh_and_field(cfg)
    return coordinate_text(assemble_F(mesh, field, k))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _resolve_threads(args)
        if args.command == "quadrature":
            family = family_from_name(args.family, args.gamma)
            text = experiments.quadrature_report(family, args.s, args.mu, raw=args.format == "raw")
        elif args.command == "dump-matrix":
            text = _dump_matrix(args)
        else:
            cfg = _config_for(args)
            runner = {
                "bounds": experiments.run_bounds,
                "verify": experiments.run_verify,
                "solve": experiments.run_solve,
            }[args.command]
            text = runner(cfg).render(args.format)
        _emit(text, args.out)
    except ConfigError as exc:
        print(f"sgp: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnclosureError as exc:
        print(f"sgp: enclosure violation: {exc}", file=sys.stderr)
        return EXIT_ENCLOSURE
    except (DominanceError, FactorizationError, ConvergenceError) as exc:
        print(f"sgp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SgprecondError as exc:
        print(f"sgp: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
