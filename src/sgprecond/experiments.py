"""Experiment runners: turn a configuration into result tables.

``run_bounds`` evaluates only the analytic quantities (no assembly).
``run_verify`` additionally assembles the problem, builds the requested
preconditioners, estimates the true extreme eigenvalues and asserts the
guaranteed enclosure chain, failing with EnclosureError if any computed
eigenvalue escapes its bounds beyond a small slack or if the splitting and
two-block Gauss-Seidel conditions break the CBS identity that ties them.
``run_solve`` compares conjugate gradient iteration counts across
preconditioners.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import eigsolve, fem, operator
from .basis import MultiIndexSet
from .config import ExperimentConfig
from .errors import EnclosureError, UsageError
from .operator import (
    GAUSS_SEIDEL_2,
    MEAN_BASED,
    SPLITTING_COMPLETE,
    SPLITTING_TP,
    TRUNCATED_TP,
)
from .orthopoly import gauss_rule, d_sequence, d_last_via_quadrature

__all__ = ["Cell", "ResultTable", "run_bounds", "run_verify", "run_solve", "quadrature_report"]

ENCLOSURE_SLACK = 1e-8

ANALYTIC = "analytic"
LANCZOS = "lanczos"
DENSE = "dense"
VACUOUS = "vacuous"

_INT_COLUMNS = {"degree", "K", "t", "iterations", "N"}
_SCI_COLUMNS = {"residual", "seconds"}


@dataclass(frozen=True)
class Cell:
    value: float | None
    source: str = ANALYTIC


class ResultTable:
    """Rows of named cells; column order follows first appearance."""

    def __init__(self):
        self.columns = []
        self.rows = []

    def add_row(self, cells: dict):
        for name in cells:
            if name not in self.columns:
                self.columns.append(name)
        self.rows.append(cells)

    def value(self, row: int, column: str):
        cell = self.rows[row].get(column)
        return None if cell is None else cell.value

    def _format(self, cell, column, raw):
        if cell is None:
            return ""
        if isinstance(cell.value, str):
            return cell.value
        if cell.source == VACUOUS or cell.value is None or math.isinf(cell.value):
            return "-"
        if column in _INT_COLUMNS:
            return str(int(round(cell.value)))
        if raw:
            return f"{cell.value:.17g}"
        if column in _SCI_COLUMNS:
            return f"{cell.value:.2e}"
        return f"{cell.value:.2f}"

    def to_csv(self, raw=False) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        if raw:
            header = []
            for c in self.columns:
                header += [c, c + "_src"]
            writer.writerow(header)
            for row in self.rows:
                out = []
                for c in self.columns:
                    cell = row.get(c)
                    out.append(self._format(cell, c, True))
                    out.append("" if cell is None else cell.source)
                writer.writerow(out)
        else:
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([self._format(row.get(c), c, False) for c in self.columns])
        return buf.getvalue()

    def to_markdown(self) -> str:
        cells = [[self._format(row.get(c), c, False) for c in self.columns] for row in self.rows]
        widths = [
            max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(self.columns)
        ]
        def fmt(values):
            return "| " + " | ".join(v.rjust(w) for v, w in zip(values, widths)) + " |"
        lines = [fmt(self.columns), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        lines += [fmt(r) for r in cells]
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv(raw=False)
        if fmt == "raw":
            return self.to_csv(raw=True)
        if fmt == "md":
            return self.to_markdown()
        raise UsageError(f"unknown output format {fmt!r}")


def _index_set(cfg: ExperimentConfig, degree):
    if cfg.basis == "complete":
        return MultiIndexSet.complete(cfg.nterms, degree + 1)
    return MultiIndexSet.tensor(tuple(d + 1 for d in cfg.degrees))


def _degree_sweep(cfg: ExperimentConfig):
    if cfg.basis == "complete":
        return list(cfg.degrees)
    return [max(cfg.degrees)]


def _mesh_and_field(cfg: ExperimentConfig):
    mesh = fem.build_mesh(cfg.dim, cfg.elements, cfg.element)
    if cfg.table_path is not None:
        field = fem.load_coefficient_table(cfg.table_path)
        if field.nterms != cfg.nterms:
            raise UsageError(
                f"coefficient table has {field.nterms} fluctuation columns, config says {cfg.nterms}"
            )
        mu, mu_class = fem.compute_mu(field)
    else:
        field = fem.sample_coefficients(cfg.coefficients, mesh)
        mu, mu_class = fem.mu_from_exprs(cfg.coefficients, mesh, refine=cfg.mu_refine)
    return mesh, field, mu, mu_class


def _analytic_cells(cfg, degree, iset, mu, mu_class):
    """Cells shared by the bounds-only and verify paths, plus the bounds
    objects keyed by preconditioner kind."""
    cells = {"degree": Cell(float(degree)), "K": Cell(float(cfg.nterms)), "mu": Cell(mu)}
    by_kind = {}
    for kind in cfg.preconditioners:
        if kind == MEAN_BASED:
            b = bnd.mean_based_bounds(cfg.family, iset, mu)
            by_kind[kind] = b
            cells["c_lower"] = Cell(b.c_lower)
            cells["c_upper"] = Cell(b.c_upper)
            cells["ratio"] = Cell(b.kappa_bound, VACUOUS if b.vacuous else ANALYTIC)
        elif kind == TRUNCATED_TP:
            b = bnd.truncated_bounds(cfg.family, cfg.degrees[-1] + 1, mu)
            by_kind[kind] = b
            cells["c_lower_tr"] = Cell(b.c_lower)
            cells["c_upper_tr"] = Cell(b.c_upper)
            cells["ratio_tr"] = Cell(b.kappa_bound, VACUOUS if b.vacuous else ANALYTIC)
        elif kind in (SPLITTING_TP, SPLITTING_COMPLETE, GAUSS_SEIDEL_2):
            if cfg.basis == "tensor":
                b = bnd.splitting_bounds_tp(cfg.family, cfg.degrees[-1] + 1, mu)
            else:
                b = bnd.splitting_bounds_complete(cfg.family, degree + 1, mu)
            by_kind[kind] = b
            # "ratio" belongs to the mean-based bound whenever both appear
            key = "ratio_SB" if MEAN_BASED in cfg.preconditioners else "ratio"
            cells[key] = Cell(b.kappa_bound)
            cells["inv_d_t"] = Cell(b.gs2_kappa_bound)
            cells["t"] = Cell(float(b.t_arg))
    if cfg.classical:
        cb = bnd.classical_bounds(cfg.family, iset, mu_class)
        cells["mu_class"] = Cell(mu_class)
        cells["c_lower_class"] = Cell(cb.c_lower)
        cells["c_upper_class"] = Cell(cb.c_upper)
        cells["ratio_class"] = Cell(cb.kappa_bound, VACUOUS if cb.vacuous else ANALYTIC)
        by_kind["classical"] = cb
    return cells, by_kind


def _ordered(cells: dict) -> dict:
    order = [
        "degree", "K", "N", "kappa_A",
        "c_lower_class", "c_lower", "lambda_min", "lambda_max", "c_upper", "c_upper_class",
        "ratio", "ratio_SB", "ratio_class",
        "kappa_SB", "kappa_GS2", "inv_d_t", "t",
        "c_lower_tr", "c_upper_tr", "ratio_tr", "kappa_TR", "kappa_MB",
        "oracle_min", "oracle_max",
        "mu", "mu_class",
    ]
    out = {k: cells[k] for k in order if k in cells}
    for k, v in cells.items():
        if k not in out:
            out[k] = v
    return out


def run_bounds(cfg: ExperimentConfig) -> ResultTable:
    """Analytic and classical bounds only; no matrix assembly."""
    mesh, _field, mu, mu_class = _mesh_and_field(cfg)
    table = ResultTable()
    for degree in _degree_sweep(cfg):
        iset = _index_set(cfg, degree)
        cells, _ = _analytic_cells(cfg, degree, iset, mu, mu_class)
        table.add_row(_ordered(cells))
    return table


def _check_enclosure(label, lo, hi, est, slack=ENCLOSURE_SLACK):
    if est.lambda_min < lo - slack or est.lambda_max > hi + slack:
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


_EIG_COLUMN = {MEAN_BASED: "kappa_MB", TRUNCATED_TP: "kappa_TR",
               SPLITTING_TP: "kappa_SB", SPLITTING_COMPLETE: "kappa_SB",
               GAUSS_SEIDEL_2: "kappa_GS2"}


def run_verify(cfg: ExperimentConfig) -> ResultTable:
    """Assemble, precondition, estimate true extremes and verify the
    enclosure chain for every degree of the sweep."""
    mesh, field, mu, mu_class = _mesh_and_field(cfg)
    lanczos_tol = min(cfg.tol, 1e-6)
    table = ResultTable()
    for degree in _degree_sweep(cfg):
        iset = _index_set(cfg, degree)
        cells, by_kind = _analytic_cells(cfg, degree, iset, mu, mu_class)
        problem = operator.DiscreteProblem.build(cfg.family, iset, mesh, field)
        cells["N"] = Cell(float(problem.operator.shape[0]))
        for kind in cfg.preconditioners:
            m = operator.build_preconditioner(problem, kind)
            est = eigsolve.extreme_eigs_generalized(
                problem.operator, m, tol=lanczos_tol, max_iter=cfg.max_iter, seed=cfg.seed
            )
            kappa = est.lambda_max / est.lambda_min
            cells[_EIG_COLUMN[kind]] = Cell(kappa, LANCZOS)
            if kind == MEAN_BASED:
                cells["lambda_min"] = Cell(est.lambda_min, LANCZOS)
                cells["lambda_max"] = Cell(est.lambda_max, LANCZOS)
            b = by_kind.get(kind)
            if b is not None and not b.vacuous:
                if kind == GAUSS_SEIDEL_2:
                    if kappa > b.gs2_kappa_bound * (1.0 + 1e-6) + ENCLOSURE_SLACK:
                        raise EnclosureError(
                            f"two-block Gauss-Seidel condition {kappa:.6g} exceeds its bound "
                            f"{b.gs2_kappa_bound:.6g}"
                        )
                else:
                    _check_enclosure(f"{kind} (degree {degree})", b.c_lower, b.c_upper, est)
            if kind == MEAN_BASED and cfg.classical:
                cb = by_kind["classical"]
                if not cb.vacuous and b is not None:
                    if cb.c_lower > b.c_lower + 1e-12 or cb.c_upper < b.c_upper - 1e-12:
                        raise EnclosureError(
                            "classical bounds are tighter than the local ones; "
                            "this contradicts their derivation"
                        )
        if "kappa_SB" in cells and "kappa_GS2" in cells:
            _check_cbs_identity(degree, cells["kappa_SB"].value, cells["kappa_GS2"].value, lanczos_tol)
        if cfg.oracle:
            okind = next(
                (k for k in cfg.preconditioners if k in bnd._SPLITTING_KINDS or k in (MEAN_BASED, TRUNCATED_TP)),
                None,
            )
            if okind is not None:
                lo, hi = bnd.element_equivalence_oracle(cfg.family, iset, field, okind)
                cells["oracle_min"] = Cell(lo, DENSE)
                cells["oracle_max"] = Cell(hi, DENSE)
        if cfg.kappa_a:
            accel = operator.build_preconditioner(problem, MEAN_BASED)
            est_a = eigsolve.extreme_eigs(
                problem.operator, accel, tol=cfg.tol, max_iter=cfg.max_iter, seed=cfg.seed
            )
            cells["kappa_A"] = Cell(est_a.lambda_max / est_a.lambda_min, LANCZOS)
        table.add_row(_ordered(cells))
    return table


def run_solve(cfg: ExperimentConfig) -> ResultTable:
    """Conjugate gradient comparison across the configured preconditioners."""
    mesh, field, mu, mu_class = _mesh_and_field(cfg)
    table = ResultTable()
    degree = _degree_sweep(cfg)[-1]
    iset = _index_set(cfg, degree)
    problem = operator.DiscreteProblem.build(cfg.family, iset, mesh, field)
    f_fe = fem.load_vector(mesh, cfg.rhs)
    rhs = np.zeros(problem.operator.shape[0])
    rhs[: f_fe.size] = f_fe  # constant-polynomial block only
    _cells, by_kind = _analytic_cells(cfg, degree, iset, mu, mu_class)
    for kind in cfg.preconditioners:
        m = operator.build_preconditioner(problem, kind)
        start = time.perf_counter()
        _x, iterations, history = eigsolve.pcg(
            problem.operator, m, rhs, tol=cfg.tol, max_iter=cfg.max_iter * 10
        )
        elapsed = time.perf_counter() - start
        b = by_kind.get(kind)
        row = {
            "preconditioner": Cell(kind),
            "degree": Cell(float(degree)),
            "N": Cell(float(problem.operator.shape[0])),
            "iterations": Cell(float(iterations), LANCZOS),
            "residual": Cell(history[-1], LANCZOS),
            "seconds": Cell(elapsed, LANCZOS),
        }
        if b is not None:
            bound = b.gs2_kappa_bound if kind == GAUSS_SEIDEL_2 else b.kappa_bound
            row["kappa_bound"] = Cell(bound, VACUOUS if math.isinf(bound) else ANALYTIC)
        table.add_row(row)
    return table


def quadrature_report(family, s: int, mu: float, raw=False) -> str:
    """Printable nodes/weights and pivot sequence for one family and order."""
    rule = gauss_rule(family, s)
    seq = d_sequence(family, mu, s)
    fmt = (lambda x: f"{x:.17g}") if raw else (lambda x: f"{x:.10g}")
    lines = [f"family {family.label}  order {s}  mu {fmt(mu)}"]
    lines.append("j  node  weight")
    for j in range(s):
        lines.append(f"{j + 1}  {fmt(rule.nodes[j])}  {fmt(rule.weights[j])}")
    lines.append("j  d_j")
    for j, d in enumerate(seq.values, start=1):
        lines.append(f"{j}  {fmt(d)}")
    quad = d_last_via_quadrature(family, mu, s)
    lines.append(f"1/d_{s} (recursion)  {fmt(1.0 / seq.values[-1])}")
    lines.append(f"1/d_{s} (quadrature)  {fmt(1.0 / quad)}")
    return "\n".join(lines) + "\n"
