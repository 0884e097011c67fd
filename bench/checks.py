"""Correctness checks on the workloads' outputs, against references the
program does not compute: the paper's printed Tables 3 and 4, the two-block
CBS identity, the size of the basis and a residual taken with a matrix the
benchmark assembles itself.

Every check returns a list of messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

# Printed rows of the paper, the same figures the acceptance tests hold; kept
# here so that the benchmark's references stay fixed while the tests change.
# Table 3 per setting: degree, kappa_A, c_lower_class, c_lower, lambda_min,
# lambda_max, c_upper, c_upper_class, ratio, ratio_class (None where the
# paper prints '-').  The lambda_max and c_upper of setting 3 at degree 1
# read 1.55, the value its own mu, ratio and lower columns imply (the source
# prints 1.56).
TABLE3 = {
    "table3_setting1": [
        (1, 458.42, 0.76, 0.80, 0.83, 1.17, 1.20, 1.24, 1.51, 1.62),
        (2, 498.47, 0.68, 0.73, 0.76, 1.24, 1.27, 1.32, 1.75, 1.92),
        (6, 546.55, 0.61, 0.67, 0.69, 1.31, 1.33, 1.39, 2.00, 2.26),
        (7, 550.80, 0.61, 0.66, 0.68, 1.32, 1.34, 1.39, 2.02, 2.29),
    ],
    "table3_setting2": [
        (1, 542.75, 0.48, 0.71, 0.71, 1.29, 1.29, 1.52, 1.81, 3.16),
        (2, 629.41, 0.30, 0.61, 0.61, 1.39, 1.39, 1.70, 2.26, 5.60),
        (6, 739.40, 0.15, 0.53, 0.53, 1.47, 1.47, 1.85, 2.81, 12.72),
        (7, 749.57, 0.14, 0.52, 0.52, 1.48, 1.48, 1.86, 2.85, 13.73),
    ],
    "table3_setting3": [
        (1, 947.79, -0.65, 0.45, 0.45, 1.55, 1.55, 2.65, 3.43, None),
        (2, 1596.34, -1.21, 0.26, 0.26, 1.74, 1.74, 3.21, 6.57, None),
        (6, 4576.93, -1.71, 0.10, 0.10, 1.90, 1.90, 3.71, 19.34, None),
        (7, 5294.63, -1.74, 0.09, 0.09, 1.91, 1.91, 3.74, 21.80, None),
    ],
}
TABLE3_COLUMNS = ("c_lower_class", "c_lower", "lambda_min", "lambda_max", "c_upper",
                  "c_upper_class")

# Table 4: degree, kappa_A, kappa_SB, ratio, kappa_GS2, inv_d_t, t
TABLE4 = [
    (1, 265.65, 1.76, 2.83, 1.08, 1.30, 2),
    (2, 334.62, 2.13, 2.90, 1.15, 1.31, 3),
    (3, 384.58, 2.36, 2.90, 1.20, 1.31, 3),
    (4, 420.15, 2.50, 2.90, 1.22, 1.31, 3),
    (5, 446.06, 2.56, 2.90, 1.24, 1.31, 3),
]

# The acceptance suite's tolerance on kappa(A); the other columns are
# compared at its absolute tolerances, given where they are used.
KAPPA_A_REL = 0.02
# The CBS identity holds to within 5e-9 at every degree of Table 4; a 1%
# error in either column breaks it.
CBS_REL = 1e-6


def _close(got, want, abs_tol=None, rel_tol=None):
    if got is None or not math.isfinite(got):
        return False
    if abs_tol is not None:
        return abs(got - want) <= abs_tol
    return abs(got - want) <= rel_tol * abs(want)


def _compare(table, row, column, want, errors, label, abs_tol=None, rel_tol=None):
    got = table.value(row, column)
    if not _close(got, want, abs_tol, rel_tol):
        tol = f"abs {abs_tol}" if abs_tol is not None else f"rel {rel_tol}"
        errors.append(f"{label} row {row} {column}: {got} is not {want} ({tol})")


def _degrees(table, want, label):
    got = [table.value(i, "degree") for i in range(len(table.rows))]
    if got != [float(d) for d in want]:
        return [f"{label}: degrees {got}, expected {list(want)}"]
    return []


def check_table3(table, name):
    """A verify table of a Table-3 setting against the printed rows."""
    rows = TABLE3[name]
    errors = _degrees(table, [r[0] for r in rows], name)
    if errors:
        return errors
    for i, (_deg, kappa_a, *bounds, ratio, ratio_class) in enumerate(rows):
        for column, want in zip(TABLE3_COLUMNS, bounds):
            _compare(table, i, column, want, errors, name, abs_tol=0.01)
        _compare(table, i, "ratio", ratio, errors, name, abs_tol=0.02)
        if ratio_class is None:
            # the paper prints '-': the classical bound is vacuous
            got = table.value(i, "ratio_class")
            if got is None or not math.isinf(got):
                errors.append(f"{name} row {i} ratio_class: {got} is not vacuous")
        else:
            _compare(table, i, "ratio_class", ratio_class, errors, name, abs_tol=0.02)
        _compare(table, i, "kappa_A", kappa_a, errors, name, rel_tol=KAPPA_A_REL)
    return errors


def check_table4(table, name="table4"):
    """A verify table of Table 4 against the printed rows."""
    errors = _degrees(table, [r[0] for r in TABLE4], name)
    if errors:
        return errors
    for i, (_deg, kappa_a, ksb, ratio, kgs2, inv_dt, t) in enumerate(TABLE4):
        _compare(table, i, "inv_d_t", inv_dt, errors, name, abs_tol=0.01)
        _compare(table, i, "ratio", ratio, errors, name, abs_tol=0.01)
        _compare(table, i, "t", t, errors, name, abs_tol=0)
        _compare(table, i, "kappa_SB", ksb, errors, name, abs_tol=0.02)
        _compare(table, i, "kappa_GS2", kgs2, errors, name, abs_tol=0.03)
        _compare(table, i, "kappa_A", kappa_a, errors, name, rel_tol=KAPPA_A_REL)
    return errors


def check_cbs(table, name="table4"):
    """Two-block CBS identity (Eijkhout-Vassilevski 1991): the symmetric
    Gauss-Seidel condition number is 1/(1 - gamma^2) with
    gamma = (kappa_SB - 1)/(kappa_SB + 1), row by row."""
    errors = []
    for i in range(len(table.rows)):
        ksb = table.value(i, "kappa_SB")
        if ksb is None:
            errors.append(f"{name} row {i}: no kappa_SB")
            continue
        gamma = (ksb - 1.0) / (ksb + 1.0)
        _compare(table, i, "kappa_GS2", 1.0 / (1.0 - gamma * gamma), errors,
                 f"{name} CBS identity", rel_tol=CBS_REL)
    return errors


def check_sizes(table, cfg, name):
    """N equals the number of basis polynomials times the number of
    interior finite-element nodes, row by row."""
    n_fe = math.prod(e - 1 for e in cfg.elements)
    errors = []
    for i in range(len(table.rows)):
        degree = int(table.value(i, "degree"))
        want = math.comb(cfg.nterms + degree, degree) * n_fe
        if table.value(i, "N") != want:
            errors.append(f"{name} row {i}: N = {table.value(i, 'N')}, expected {want}")
    return errors


def relative_residual(a, b, x):
    """||b - A x|| / ||b|| with A = sum_k kron(G_k, F_k) assembled here from
    the operator's terms, not through its matrix-free product."""
    total = sum(sp.kron(g, f, format="csr") for g, f in zip(a.gs, a.fs))
    return float(np.linalg.norm(b - total @ x) / np.linalg.norm(b))


def check_solution(a, b, x, tol, label):
    res = relative_residual(a, b, x)
    if not res <= tol:
        return [f"{label}: true relative residual {res:.3e} exceeds tolerance {tol:g}"]
    return []
