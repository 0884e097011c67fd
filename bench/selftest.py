"""Tests of the benchmark's own checks and tracing: each correctness check
passes on the right table and fails on a wrong one.

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from sgprecond.config import load_config  # noqa: E402
from sgprecond.errors import EnclosureError, SgprecondError  # noqa: E402
from sgprecond.experiments import Cell, ResultTable  # noqa: E402
from sgprecond.operator import GalerkinOperator  # noqa: E402

CONFIGS = BENCH.parent / "configs"


def cbs_gs2(ksb):
    gamma = (ksb - 1.0) / (ksb + 1.0)
    return 1.0 / (1.0 - gamma * gamma)


def table4(**moved):
    """Printed Table 4 with kappa_GS2 taken from the CBS identity; ``moved``
    maps a column to (row, factor)."""
    table = ResultTable()
    for deg, ka, ksb, ratio, _kgs2, inv_dt, t in checks.TABLE4:
        row = {"degree": deg, "kappa_A": ka, "kappa_SB": ksb, "ratio": ratio,
               "kappa_GS2": cbs_gs2(ksb), "inv_d_t": inv_dt, "t": t}
        for column, (at, factor) in moved.items():
            if at == deg:
                row[column] *= factor
        table.add_row({k: Cell(float(v)) for k, v in row.items()})
    return table


def table3(name, **moved):
    table = ResultTable()
    for deg, ka, *bounds, ratio, ratio_class in checks.TABLE3[name]:
        row = {"degree": deg, "kappa_A": ka, "ratio": ratio,
               "ratio_class": float("inf") if ratio_class is None else ratio_class}
        row.update(zip(checks.TABLE3_COLUMNS, bounds))
        for column, (at, shift) in moved.items():
            if at == deg:
                row[column] += shift
        table.add_row({k: Cell(float(v)) for k, v in row.items()})
    return table


class Table4Checks(unittest.TestCase):
    def test_printed_table_passes(self):
        self.assertEqual(checks.check_table4(table4()), [])
        self.assertEqual(checks.check_cbs(table4()), [])

    def test_gs2_moved_by_one_percent_breaks_the_cbs_identity(self):
        wrong = table4(kappa_GS2=(3, 1.01))
        self.assertEqual(checks.check_table4(wrong), [])  # within the printed 0.03
        self.assertEqual(len(checks.check_cbs(wrong)), 1)

    def test_kappa_a_off_by_three_percent_fails(self):
        self.assertEqual(len(checks.check_table4(table4(kappa_A=(5, 1.03)))), 1)

    def test_kappa_sb_off_fails(self):
        self.assertTrue(checks.check_table4(table4(kappa_SB=(1, 1.02))))

    def test_missing_degree_fails(self):
        table = table4()
        table.rows.pop()
        self.assertTrue(checks.check_table4(table))


class Table3Checks(unittest.TestCase):
    def test_printed_tables_pass(self):
        for name in checks.TABLE3:
            self.assertEqual(checks.check_table3(table3(name), name), [])

    def test_moved_eigenvalue_fails(self):
        name = "table3_setting2"
        self.assertEqual(len(checks.check_table3(table3(name, lambda_min=(6, 0.02)), name)), 1)

    def test_vacuous_classical_ratio_must_stay_vacuous(self):
        name = "table3_setting3"
        wrong = table3(name)
        wrong.rows[0]["ratio_class"] = Cell(3.5)
        self.assertEqual(len(checks.check_table3(wrong, name)), 1)


class SizeCheck(unittest.TestCase):
    def test_basis_size_times_interior_nodes(self):
        cfg = load_config(CONFIGS / "table4.cfg")
        table = ResultTable()
        for degree, n in ((1, 1600), (5, 22400)):
            table.add_row({"degree": Cell(float(degree)), "N": Cell(float(n))})
        self.assertEqual(checks.check_sizes(table, cfg, "table4"), [])
        table.rows[1]["N"] = Cell(22000.0)
        self.assertEqual(len(checks.check_sizes(table, cfg, "table4")), 1)


class SolutionCheck(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(1)
        f0 = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(6, 6))
        f1 = sp.diags(rng.uniform(0.1, 0.3, 6))
        g1 = sp.diags([0.5, 0.5], [-1, 1], shape=(3, 3))
        self.a = GalerkinOperator([sp.identity(3), g1], [f0, f1])
        self.b = rng.standard_normal(18)
        full = sp.kron(sp.identity(3), f0) + sp.kron(g1, f1)
        self.x = spla.spsolve(full.tocsc(), self.b)

    def test_exact_solution_passes(self):
        self.assertEqual(checks.check_solution(self.a, self.b, self.x, 1e-10, "s"), [])

    def test_perturbed_solution_fails(self):
        x = self.x * (1 + 1e-4)
        self.assertEqual(len(checks.check_solution(self.a, self.b, x, 1e-6, "s")), 1)


class FailedOperations(unittest.TestCase):
    def test_enclosure_violation_counts_as_failed(self):
        def runner(cfg):
            if cfg == "bad":
                raise EnclosureError("escaped")
            return cfg

        cfgs = [("one", "ok"), ("two", "bad")]
        tables, failures = workload.run_ops(runner, cfgs, tracing.Tracer(), SgprecondError)
        self.assertEqual(tables, ["ok", None])
        self.assertEqual(len(failures), 1)


class Spans(unittest.TestCase):
    def test_self_time_and_nesting(self):
        tracer = tracing.Tracer()
        tracer.spans[:] = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0],
                           ["inner", 6.0, 7.0, 0]]
        self.assertEqual(tracer.durations("outer"), (10.0, 6.0, 1))
        self.assertEqual(tracer.durations("inner"), (4.0, 4.0, 2))
        self.assertEqual(tracer.outermost_total({"outer", "inner"}), 10.0)

    def test_missing_path_is_not_measured(self):
        tracer = tracing.Tracer()
        self.assertFalse(tracing.wrap(tracer, "sgprecond.eigsolve._no_such_thing", "x"))
        self.assertFalse(tracing.wrap(tracer, "sgprecond.no_module.f", "x"))

    def test_wrapped_classmethod_and_counter(self):
        class Owner:
            @classmethod
            def build(cls, n):
                return cls, n

        module = type(sys)("sgprecond_selftest_owner")
        module.Owner = Owner
        sys.modules[module.__name__] = module
        try:
            tracer = tracing.Tracer()
            self.assertTrue(tracing.wrap(tracer, f"{module.__name__}.Owner.build", "build",
                                         lambda result: {"n": result[1]}))
            self.assertEqual(Owner.build(3), (Owner, 3))
            Owner.build(4)
        finally:
            del sys.modules[module.__name__]
        self.assertEqual(tracer.durations("build")[2], 2)
        self.assertEqual(tracer.counts["build"], {"n": 7})


if __name__ == "__main__":
    unittest.main()
