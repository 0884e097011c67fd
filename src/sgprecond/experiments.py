"""Experiment runners: turn a configuration into result tables.

``run_bounds`` evaluates only the analytic quantities (no assembly).
``run_verify`` additionally assembles the problem and estimates the true
extremes of each requested preconditioner with ``operator.ColoredPencil``,
the Schur-complement pencil of the kind's two-coloring.  It asserts the
guaranteed enclosure chain, failing with EnclosureError if any computed
eigenvalue escapes its bounds beyond a small slack, if A and M differ
inside one color of the coloring, if a pencil's top Ritz value exceeds 1,
or if the splitting and two-block Gauss-Seidel conditions, computed on
opposite sides of the coloring, break the CBS identity that ties them.  On
a complete basis A of one degree is the leading block of A of the next, and
a kind with a coarse group (``PreconditionerKind.coarse``: the splitting
and gs2) takes the whole basis one degree below as that group, so those
kinds run at every degree from 1 up, each pencil's Lanczos run started from
the same kind's eigenvector of M^-1 A one degree below, and each degree's
problem shares the F_k and the factor of F0 of the one before.  The runs of
one degree are concurrent (``_in_kind_order``): its pencils are built
first, then the first kind runs on the calling thread and the others are
mapped over one worker thread, sharing the problem's factors, whose solves
release the GIL.  At a listed degree with several kinds whose pencils
factor a band (a leading block of more than one index), kappa(A) goes to
the worker first, ahead of those runs, while the calling thread factors the
band, whose dpbtrf also releases the GIL.  Rows, messages and exit codes are those of one loop over
the kinds in order, with kappa(A) last.
With ``oracle`` set it also fails if the per-element constants of a
block-diagonal kind do not sit between its bounds and its extremes.
``run_solve`` compares conjugate gradient iteration counts across
preconditioners at the largest listed degree, its solves concurrent in the
same way, after every preconditioner is built.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import eigsolve, fem, operator
from .basis import COMPLETE, MultiIndexSet, check_kind
from .config import ExperimentConfig
from .errors import EnclosureError, SgprecondError, UsageError
from .operator import (GAUSS_SEIDEL_2, MEAN_BASED, PRECONDITIONER_KINDS, SPLITTING_OF_BASIS,
                       TRUNCATED_TP)
from .orthopoly import gauss_rule, d_sequence, d_last_via_quadrature

__all__ = ["Cell", "ResultTable", "run_bounds", "run_verify", "run_solve", "quadrature_report"]

ENCLOSURE_SLACK = 1e-8

ANALYTIC = "analytic"
LANCZOS = "lanczos"
CG = "cg"
DENSE = "dense"
VACUOUS = "vacuous"

# csv/md formats of a table's numbers; raw prints every non-integer one with .17g
_INT, _SCI, _FIXED = ".0f", ".2e", ".2f"

# every column a runner writes, in output order, with its format; a string
# cell (every "preconditioner" cell) prints as it is, whatever the format
_COLUMNS = {
    "preconditioner": _FIXED, "degree": _INT, "K": _INT, "N": _INT, "kappa_A": _FIXED,
    "c_lower_class": _FIXED, "c_lower": _FIXED, "lambda_min": _FIXED, "lambda_max": _FIXED,
    "c_upper": _FIXED, "c_upper_class": _FIXED,
    "ratio": _FIXED, "ratio_SB": _FIXED, "ratio_class": _FIXED,
    "kappa_SB": _FIXED, "kappa_GS2": _FIXED, "inv_d_t": _FIXED, "t": _INT,
    "c_lower_tr": _FIXED, "c_upper_tr": _FIXED, "ratio_tr": _FIXED, "kappa_TR": _FIXED,
    "kappa_MB": _FIXED, "oracle_min": _FIXED, "oracle_max": _FIXED,
    "mu": _FIXED, "mu_class": _FIXED,
    "iterations": _INT, "residual": _SCI, "seconds": _SCI, "kappa_bound": _FIXED,
}


@dataclass(frozen=True)
class Cell:
    value: float | None
    source: str = ANALYTIC


class ResultTable:
    """Rows of named cells.  The columns are those of the rows: the
    declared ones in ``_COLUMNS`` order, then any other in order of first
    appearance.  ``render`` writes csv, aligned md, or raw: csv with every
    non-integer number to 17 significant digits and each column followed
    by its ``<column>_src``."""

    def __init__(self):
        self.rows = []

    @property
    def columns(self):
        present = dict.fromkeys(name for row in self.rows for name in row)
        return [c for c in _COLUMNS if c in present] + [c for c in present if c not in _COLUMNS]

    def add_row(self, cells: dict):
        self.rows.append(cells)

    def value(self, row: int, column: str):
        cell = self.rows[row].get(column)
        return None if cell is None else cell.value

    def render(self, fmt: str) -> str:
        if fmt not in ("csv", "raw", "md"):
            raise UsageError(f"unknown output format {fmt!r}")
        raw = fmt == "raw"
        header, body = [], [[] for _ in self.rows]
        for column in self.columns:
            spec = _COLUMNS.get(column, _FIXED)
            if raw and spec != _INT:
                spec = ".17g"
            header += [column, column + "_src"] if raw else [column]
            for row, out in zip(self.rows, body):
                cell = row.get(column)
                if cell is None:
                    text = ""
                elif isinstance(cell.value, str):
                    text = cell.value
                elif cell.source == VACUOUS or cell.value is None or math.isinf(cell.value):
                    text = "-"
                else:
                    text = format(cell.value, spec)
                out += [text, "" if cell is None else cell.source] if raw else [text]
        if fmt == "md":
            widths = [max(map(len, texts)) for texts in zip(header, *body)]

            def line(texts):
                return "| " + " | ".join(t.rjust(w) for t, w in zip(texts, widths)) + " |\n"

            rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|\n"
            return line(header) + rule + "".join(map(line, body))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *body])
        return buf.getvalue()


def index_set(cfg: ExperimentConfig, degree):
    """The basis of ``cfg``: complete of total degree ``degree``, or tensor."""
    check_kind(cfg.basis)
    if cfg.basis == COMPLETE:
        return MultiIndexSet.complete(cfg.nterms, degree + 1)
    return MultiIndexSet.tensor(tuple(d + 1 for d in cfg.degrees))


def degree_sweep(cfg: ExperimentConfig):
    """The degree of each row: the swept total degrees, or the largest tensor one."""
    if cfg.basis == COMPLETE:
        return list(cfg.degrees)
    return [max(cfg.degrees)]


def mesh_and_field(cfg: ExperimentConfig):
    """(mesh, coefficient field, mu, mu_class) of ``cfg``."""
    mesh = fem.build_mesh(cfg.dim, cfg.elements, cfg.element)
    if cfg.table_path is not None:
        field = fem.load_coefficient_table(cfg.table_path)
        if field.nterms != cfg.nterms:
            raise UsageError(
                f"coefficient table has {field.nterms} fluctuation columns, config says {cfg.nterms}"
            )
        if field.n_elements != mesh.n_elements:
            raise UsageError(
                f"coefficient table has {field.n_elements} rows, the mesh has {mesh.n_elements} elements"
            )
        mu, mu_class = fem.compute_mu(field)
    else:
        field = fem.sample_coefficients(cfg.coefficients, mesh)
        mu, mu_class = fem.mu_from_exprs(cfg.coefficients, mesh)
    return mesh, field, mu, mu_class


def _analytic_cells(cfg, degree, iset, mu, mu_class):
    """Cells shared by the bounds-only and verify paths, plus the bounds
    records keyed by preconditioner kind.  With mean_based requested the
    classical record, the mean_based formula for mu_class, rides along
    under "classical"."""
    cells = {"degree": Cell(float(degree)), "K": Cell(float(cfg.nterms)), "mu": Cell(mu)}
    kinds = list(cfg.preconditioners)
    # the basis's splitting and gs2 both write the splitting columns
    split_kind = SPLITTING_OF_BASIS[cfg.basis]
    if {split_kind, GAUSS_SEIDEL_2} & set(kinds):
        kinds += [split_kind, GAUSS_SEIDEL_2]
    by_kind = {kind: bnd.bounds_for(kind, cfg.family, iset, mu) for kind in dict.fromkeys(kinds)}
    if MEAN_BASED in by_kind:
        by_kind["classical"] = bnd.bounds_for(MEAN_BASED, cfg.family, iset, mu_class)
        cells["mu_class"] = Cell(mu_class)
    for kind, tag in ((MEAN_BASED, ""), (TRUNCATED_TP, "_tr"), ("classical", "_class")):
        if kind in by_kind:
            b = by_kind[kind]
            cells["c_lower" + tag] = Cell(b.c_lower)
            cells["c_upper" + tag] = Cell(b.c_upper)
            cells["ratio" + tag] = Cell(b.kappa_bound, VACUOUS if b.vacuous else ANALYTIC)
    if GAUSS_SEIDEL_2 in by_kind:
        split = by_kind[split_kind]
        # "ratio" belongs to the mean-based bound whenever both appear
        key = "ratio_SB" if MEAN_BASED in by_kind else "ratio"
        cells[key] = Cell(split.kappa_bound)
        cells["inv_d_t"] = Cell(by_kind[GAUSS_SEIDEL_2].kappa_bound)
        cells["t"] = Cell(float(split.t_arg))
    return cells, by_kind


def run_bounds(cfg: ExperimentConfig) -> ResultTable:
    """Analytic and classical bounds only; no matrix assembly."""
    mesh, _field, mu, mu_class = mesh_and_field(cfg)
    table = ResultTable()
    for degree in degree_sweep(cfg):
        iset = index_set(cfg, degree)
        cells, _ = _analytic_cells(cfg, degree, iset, mu, mu_class)
        table.add_row(cells)
    return table


def _check_enclosure(label, lo, hi, est):
    if est.lambda_min < lo - ENCLOSURE_SLACK or est.lambda_max > hi + ENCLOSURE_SLACK:
        raise EnclosureError(
            f"{label}: computed extremes ({est.lambda_min:.12g}, {est.lambda_max:.12g}) "
            f"escape the guaranteed interval ({lo:.12g}, {hi:.12g})"
        )


def _check_cbs_identity(degree, kappa_sb, kappa_gs2, tol):
    """The two-block CBS identity (Eijkhout-Vassilevski 1991): with
    gamma = (kappa_SB-1)/(kappa_SB+1), kappa_GS2 = 1/(1-gamma^2).

    Lanczos stops once each extreme Ritz value theta is within relative
    ``tol`` of an eigenvalue, so each computed kappa is within a factor
    (1+tol)/(1-tol) of the true one.  The map kappa_SB -> 1/(1-gamma^2) has
    logarithmic slope gamma < 1, so the logarithms of the two sides differ
    by at most twice log((1+tol)/(1-tol)).
    """
    gamma = (kappa_sb - 1.0) / (kappa_sb + 1.0)
    expect = 1.0 / (1.0 - gamma * gamma)
    if abs(math.log(kappa_gs2 / expect)) > 2.0 * math.log((1.0 + tol) / (1.0 - tol)):
        raise EnclosureError(
            f"degree {degree}: two-block Gauss-Seidel condition {kappa_gs2:.12g} breaks the "
            f"CBS identity 1/(1-gamma^2) = {expect:.12g} of the splitting condition {kappa_sb:.12g}"
        )


def _check_oracle(label, b, lo, hi, est):
    """c_lower <= lo <= lambda_min and lambda_max <= hi <= c_upper for the
    sharp per-element constants (lo, hi); a vacuous record drops its links."""
    links = [(lo, est.lambda_min), (est.lambda_max, hi)]
    if not b.vacuous:
        links += [(b.c_lower, lo), (hi, b.c_upper)]
    if any(small > large + ENCLOSURE_SLACK for small, large in links):
        raise EnclosureError(f"{label}: per-element constants ({lo:.12g}, {hi:.12g}) are not between "
                             f"({b.c_lower:.12g}, {b.c_upper:.12g}) and the computed extremes "
                             f"({est.lambda_min:.12g}, {est.lambda_max:.12g})")


def _check_pencil_top(label, top):
    """A Ritz value never exceeds the largest eigenvalue, and every pencil's
    eigenvalues are 1 - sigma_i^2 <= 1, so a top Ritz value above 1 is a
    fault of the operator, the preconditioner or the coloring."""
    if top > 1.0 + ENCLOSURE_SLACK:
        raise EnclosureError(
            f"{label}: the top Ritz value {top:.12g} of its Schur-complement pencil exceeds 1"
        )


def run_verify(cfg: ExperimentConfig) -> ResultTable:
    """Assemble, precondition, estimate true extremes and verify the
    enclosure chain for every degree of the sweep.

    On a complete basis the kinds with a coarse group, which at each degree
    is the whole basis one degree below (``PreconditionerKind.coarse``), are
    estimated at every degree from 1 to the largest listed, in ascending
    order, each started from its own eigenvector one degree below (degree 1
    from the seeded draw), so a row depends only on its own problem
    whichever degrees are listed.  A degree not listed gives no row, no
    check and no kappa(A); the rows follow the listed order.  Every other
    kind, and kappa(A), starts from the seed.  A largest degree whose basis
    exceeds the size cap fails before any degree runs.  A coloring fault
    names the degree it is found at, like every other enclosure message.
    Each degree's problem is built ``like`` the one before, so F_0..F_K are
    assembled and F0 is factored with the first degree's problem, and
    shared by every later one.

    With several kinds at a degree, the first kind's Lanczos run goes on
    this thread and the others are mapped, in order, over the single worker
    of a thread pool held open over the sweep (``_in_kind_order``); a
    degree with one run submits nothing and starts no thread.  kappa(A)
    goes to that worker at a listed degree with kappa(A) on, two or more
    kinds and a leading block of more than one index among the kinds'
    blocks: its mean-based preconditioner is built here and its run
    submitted before the pencils are built, so it runs while this thread
    factors the band and ahead of the worker's Lanczos runs.  Only there
    has it GIL-free work to overlap.  Elsewhere (every Table-3 row, every
    degree 1, every one-kind degree) it would only contend for the GIL with
    Python-bound Lanczos loops, which measured slower, so it runs here,
    after the checks.  Results and errors are taken in the configured kind
    order, and kappa(A)'s in its place after the checks, so the error
    raised is the one the serial loop would raise.  Each run uses the
    OpenBLAS thread count in effect.
    """
    mesh, field, mu, mu_class = mesh_and_field(cfg)
    lanczos_tol = min(cfg.tol, 1e-6)
    lanczos = {"tol": lanczos_tol, "max_iter": cfg.max_iter, "seed": cfg.seed}
    listed = degree_sweep(cfg)
    index_set(cfg, max(listed))  # a basis over the size cap fails before any degree runs
    chained = tuple(kind for kind in cfg.preconditioners
                    if cfg.basis == COMPLETE and PRECONDITIONER_KINDS[kind].coarse)
    rows, previous, problem = {}, {}, None
    with ThreadPoolExecutor(max_workers=1) as pool:
        for degree in range(1, max(listed) + 1) if chained else listed:
            iset = index_set(cfg, degree)
            # F_0..F_K and F0's factor, taken once for every degree
            problem = operator.DiscreteProblem.build(cfg.family, iset, mesh, field,
                                                     like=problem)
            kinds = cfg.preconditioners if degree in listed else chained
            # kappa(A) goes ahead of the worker's runs while this thread factors a band
            ahead = (cfg.kappa_a and degree in listed and len(kinds) > 1
                     and max(max(operator.block_layout(kind, iset)) for kind in kinds) > 1)
            kappa_a = _kappa_a(cfg, problem, pool if ahead else None)
            try:
                results = _in_kind_order(
                    pool, kinds, lambda kind: operator.ColoredPencil(problem, kind),
                    lambda pencil: pencil.extremes(previous.get(pencil.kind), **lanczos))
            except EnclosureError as err:  # a coloring fault, possibly at a degree with no row
                raise EnclosureError(f"degree {degree}: {err}") from None
            estimates = dict(zip(kinds, results))
            previous.update((kind, estimates[kind][0].vector_min) for kind in chained)
            if degree not in listed:
                continue
            rows[degree] = _verified_row(cfg, degree, problem, estimates, mu, mu_class,
                                         lanczos_tol, kappa_a)
    table = ResultTable()
    for degree in listed:
        table.add_row(rows[degree])
    return table


def _in_kind_order(pool, kinds, build, run):
    """``run(build(kind))`` for each of ``kinds``, in kind order, with the
    error that one loop over ``kinds`` would raise first.

    Every object is built here first, in kind order, so each factor a build
    takes is taken once and on this thread: ``DiscreteProblem.factor`` takes
    no lock.  The first kind then runs on this thread while ``pool.map``
    runs the others, one after another, on the pool's worker, behind
    whatever is already queued there; the runs share the problem's factors,
    whose banded solves release the GIL.  A map over no objects submits
    nothing, so one kind starts no thread.  A package error of a build
    stops the builds and is raised after the runs of the kinds before it,
    whose errors come first, in kind order.  When this thread's run raises,
    the worker's runs end before the caller's pool closes.
    """
    built, fault = [], None
    for kind in kinds:
        try:
            built.append(build(kind))
        except SgprecondError as err:
            fault = err
            break
    later = pool.map(run, built[1:])
    results = [run(item) for item in built[:1]] + list(later)
    if fault is not None:
        raise fault
    return results


def _kappa_a(cfg, problem, pool=None):
    """A function that returns kappa(A)'s estimate, ``eigsolve.extreme_eigs``
    of A with the mean-based preconditioner.  Without ``pool`` the function
    builds the preconditioner and runs it.  With ``pool`` the preconditioner
    is built and the run submitted now, from this thread, and the function
    waits for the run's result or error."""
    options = {"tol": cfg.tol, "max_iter": cfg.max_iter, "seed": cfg.seed}
    if pool is None:
        def run():
            accel = operator.build_preconditioner(problem, MEAN_BASED)
            return eigsolve.extreme_eigs(problem.operator, accel, **options)

        return run
    accel = operator.build_preconditioner(problem, MEAN_BASED)
    problem.operator.matrix  # assembled on this thread, before the worker's products need it
    return pool.submit(eigsolve.extreme_eigs, problem.operator, accel, **options).result


def _verified_row(cfg, degree, problem, estimates, mu, mu_class, lanczos_tol, kappa_a):
    """The row of a listed degree from its estimates, with every check of
    the enclosure chain, the oracle when asked for, and kappa(A) from the
    function ``kappa_a`` of ``_kappa_a``."""
    iset, field = problem.index_set, problem.field
    cells, by_kind = _analytic_cells(cfg, degree, iset, mu, mu_class)
    cells["N"] = Cell(float(problem.operator.shape[0]))
    for kind in cfg.preconditioners:
        est, top = estimates[kind]
        kappa = est.lambda_max / est.lambda_min
        cells[PRECONDITIONER_KINDS[kind].column] = Cell(kappa, LANCZOS)
        b = by_kind[kind]
        if not b.vacuous:
            _check_enclosure(f"{kind} (degree {degree})", b.c_lower, b.c_upper, est)
        _check_pencil_top(f"{kind} (degree {degree})", top)
        if kind == MEAN_BASED:
            cells["lambda_min"] = Cell(est.lambda_min, LANCZOS)
            cells["lambda_max"] = Cell(est.lambda_max, LANCZOS)
            cb = by_kind["classical"]
            if not cb.vacuous:
                if cb.c_lower > b.c_lower + 1e-12 or cb.c_upper < b.c_upper - 1e-12:
                    raise EnclosureError(
                        "classical bounds are tighter than the local ones; "
                        "this contradicts their derivation"
                    )
    if "kappa_SB" in cells and "kappa_GS2" in cells:
        _check_cbs_identity(degree, cells["kappa_SB"].value, cells["kappa_GS2"].value, lanczos_tol)
    if cfg.oracle:
        # every block-diagonal kind is checked; the columns show the first
        for kind in cfg.preconditioners:
            if not PRECONDITIONER_KINDS[kind].block_diagonal:
                continue
            lo, hi = bnd.element_equivalence_oracle(cfg.family, iset, field, kind)
            _check_oracle(f"{kind} (degree {degree})", by_kind[kind], lo, hi,
                          estimates[kind][0])
            cells.setdefault("oracle_min", Cell(lo, DENSE))
            cells.setdefault("oracle_max", Cell(hi, DENSE))
    if cfg.kappa_a:
        est_a = kappa_a()
        cells["kappa_A"] = Cell(est_a.lambda_max / est_a.lambda_min, LANCZOS)
    return cells


def run_solve(cfg: ExperimentConfig) -> ResultTable:
    """Conjugate gradient comparison across the configured preconditioners,
    one row per kind in the configured order, at the largest listed degree.

    Every preconditioner is built first, on this thread, then the first
    kind's ``eigsolve.pcg`` runs on this thread and the others on the one
    worker of a pool opened here (``_in_kind_order``); one kind starts no
    thread.  Each row's ``seconds`` is that solve's own wall time, so with
    the solves overlapping they do not add up to the run's.  Rows, messages
    and exit codes are those of one loop over the kinds in order."""
    mesh, field, mu, _mu_class = mesh_and_field(cfg)
    degree = max(degree_sweep(cfg))
    iset = index_set(cfg, degree)
    problem = operator.DiscreteProblem.build(cfg.family, iset, mesh, field)
    f_fe = fem.load_vector(mesh, cfg.rhs)
    rhs = np.zeros(problem.operator.shape[0])
    rhs[: f_fe.size] = f_fe  # constant-polynomial block only
    by_kind = {kind: bnd.bounds_for(kind, cfg.family, iset, mu) for kind in cfg.preconditioners}

    def solve(m):
        start = time.perf_counter()
        _x, iterations, history = eigsolve.pcg(
            problem.operator, m, rhs, tol=cfg.tol, max_iter=cfg.max_iter * 10
        )
        return iterations, history[-1], time.perf_counter() - start

    with ThreadPoolExecutor(max_workers=1) as pool:
        solves = _in_kind_order(pool, cfg.preconditioners,
                                lambda kind: operator.build_preconditioner(problem, kind), solve)
    table = ResultTable()
    for kind, (iterations, residual, elapsed) in zip(cfg.preconditioners, solves):
        bound = by_kind[kind].kappa_bound
        row = {
            "preconditioner": Cell(kind),
            "degree": Cell(float(degree)),
            "N": Cell(float(problem.operator.shape[0])),
            "iterations": Cell(float(iterations), CG),
            "residual": Cell(residual, CG),
            "seconds": Cell(elapsed, CG),
            "kappa_bound": Cell(bound, VACUOUS if math.isinf(bound) else ANALYTIC),
        }
        table.add_row(row)
    return table


def quadrature_report(family, s: int, mu: float, raw=False) -> str:
    """Printable nodes/weights and pivot sequence for one family and order."""
    rule = gauss_rule(family, s)
    pivots = d_sequence(family, mu, s)
    fmt = (lambda x: f"{x:.17g}") if raw else (lambda x: f"{x:.10g}")
    lines = [f"family {family.label}  order {s}  mu {fmt(mu)}"]
    lines.append("j  node  weight")
    for j in range(s):
        lines.append(f"{j + 1}  {fmt(rule.nodes[j])}  {fmt(rule.weights[j])}")
    lines.append("j  d_j")
    for j, d in enumerate(pivots, start=1):
        lines.append(f"{j}  {fmt(d)}")
    quad = d_last_via_quadrature(family, mu, s)
    lines.append(f"1/d_{s} (recursion)  {fmt(1.0 / pivots[-1])}")
    lines.append(f"1/d_{s} (quadrature)  {fmt(1.0 / quad)}")
    return "\n".join(lines) + "\n"
