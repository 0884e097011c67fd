"""Acceptance suite: every criterion runs at its stated tolerance and
reports one pass/fail line in the terminal summary.

The published 2D tables come from linear triangles (``element = p1``) on
21x21 squares, a 20x20 grid of interior nodes; the shipped Table-4 and
Table-5 configs use that discretization, and the printed condition numbers
of the unpreconditioned operator are checked at their stated tolerance like
every other column.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from conftest import CONFIG_DIR, GOLDEN_DIR, record_criterion
from helpers import dense_h_matrix, dense_preconditioner_matrix, random_instance
from sgprecond.basis import MultiIndexSet
from sgprecond.bounds import bounds_for, element_equivalence_oracle
from sgprecond.config import load_config
from sgprecond.eigsolve import pcg
from sgprecond.experiments import run_bounds, run_solve
from sgprecond.fem import build_mesh, compute_mu, load_vector, sample_coefficients
from sgprecond.operator import (
    GAUSS_SEIDEL_2,
    MEAN_BASED,
    SPLITTING_COMPLETE,
    SPLITTING_TP,
    TRUNCATED_TP,
    DiscreteProblem,
    build_preconditioner,
)
from sgprecond.orthopoly import (
    chebyshev_u,
    d_last_via_quadrature,
    d_sequence,
    gauss_rule,
    gegenbauer,
    hermite,
    legendre,
    mu_bar,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        record_criterion(number, label, "FAIL")
        raise
    record_criterion(number, label, "PASS")


def cell(table, row, name):
    value = table.value(row, name)
    assert value is not None, f"missing {name} in row {row}"
    return value


# printed reference rows; the lambda_max/c_upper pair of setting 3 at degree 1
# is 1.55 (the value implied by its own mu, ratio and lower columns), see the
# project notes on the source's printed 1.56
TABLE3 = {
    1: [
        (1, 458.42, 0.76, 0.80, 0.83, 1.17, 1.20, 1.24, 1.51, 1.62),
        (2, 498.47, 0.68, 0.73, 0.76, 1.24, 1.27, 1.32, 1.75, 1.92),
        (6, 546.55, 0.61, 0.67, 0.69, 1.31, 1.33, 1.39, 2.00, 2.26),
        (7, 550.80, 0.61, 0.66, 0.68, 1.32, 1.34, 1.39, 2.02, 2.29),
    ],
    2: [
        (1, 542.75, 0.48, 0.71, 0.71, 1.29, 1.29, 1.52, 1.81, 3.16),
        (2, 629.41, 0.30, 0.61, 0.61, 1.39, 1.39, 1.70, 2.26, 5.60),
        (6, 739.40, 0.15, 0.53, 0.53, 1.47, 1.47, 1.85, 2.81, 12.72),
        (7, 749.57, 0.14, 0.52, 0.52, 1.48, 1.48, 1.86, 2.85, 13.73),
    ],
    3: [
        (1, 947.79, -0.65, 0.45, 0.45, 1.55, 1.55, 2.65, 3.43, None),
        (2, 1596.34, -1.21, 0.26, 0.26, 1.74, 1.74, 3.21, 6.57, None),
        (6, 4576.93, -1.71, 0.10, 0.10, 1.90, 1.90, 3.71, 19.34, None),
        (7, 5294.63, -1.74, 0.09, 0.09, 1.91, 1.91, 3.74, 21.80, None),
    ],
}

TABLE4 = [
    # degree, kappa_A, kappa_SB, ratio, kappa_GS2, inv_d_t, t
    (1, 265.65, 1.76, 2.83, 1.08, 1.30, 2),
    (2, 334.62, 2.13, 2.90, 1.15, 1.31, 3),
    (3, 384.58, 2.36, 2.90, 1.20, 1.31, 3),
    (4, 420.15, 2.50, 2.90, 1.22, 1.31, 3),
    (5, 446.06, 2.56, 2.90, 1.24, 1.31, 3),
]

TABLE5 = [
    # K, kappa_A, kappa_SB, ratio, kappa_GS2, inv_d_t, t, mu
    (1, 580.00, 3.36, 3.38, 1.41, 1.42, 3, 0.90),
    (2, 437.88, 2.74, 3.38, 1.28, 1.42, 3, 0.90),
    (3, 334.62, 2.13, 2.90, 1.15, 1.31, 3, 0.83),
    (4, 293.51, 1.88, 2.70, 1.10, 1.27, 3, 0.79),
    (5, 272.26, 1.73, 2.59, 1.08, 1.24, 2, 0.77),
    (6, 258.72, 1.63, 2.52, 1.06, 1.23, 2, 0.75),
    (7, 247.96, 1.56, 2.48, 1.05, 1.22, 2, 0.74),
]


class TestCriterion1Table3:
    def test_table3_reproduction(self, table3_results):
        with criterion(1, "1D mean-based table: bounds, eigenvalues, kappa(A)"):
            for setting, rows in TABLE3.items():
                table = table3_results[setting]
                for i, row in enumerate(rows):
                    (deg, ka, clc, cl, lmin, lmax, cu, cuc, ratio, ratio_c) = row
                    assert cell(table, i, "degree") == deg
                    assert cell(table, i, "c_lower") == pytest.approx(cl, abs=0.01)
                    assert cell(table, i, "c_upper") == pytest.approx(cu, abs=0.01)
                    assert cell(table, i, "c_lower_class") == pytest.approx(clc, abs=0.01)
                    assert cell(table, i, "c_upper_class") == pytest.approx(cuc, abs=0.01)
                    assert cell(table, i, "lambda_min") == pytest.approx(lmin, abs=0.01)
                    assert cell(table, i, "lambda_max") == pytest.approx(lmax, abs=0.01)
                    assert cell(table, i, "ratio") == pytest.approx(ratio, abs=0.02)
                    got_rc = table.value(i, "ratio_class")
                    if ratio_c is None:
                        # the source prints '-' exactly here
                        assert math.isinf(got_rc)
                        assert cell(table, i, "c_lower_class") < 0.0
                    else:
                        assert got_rc == pytest.approx(ratio_c, abs=0.02)
                    assert cell(table, i, "kappa_A") == pytest.approx(ka, rel=0.02)


class TestCriterion2Table4:
    def test_table4_bounds_and_preconditioned_spectra(self, table4_result):
        with criterion(2, "2D splitting table: 1/d_t, ratio, t, kappa_SB, kappa_GS2"):
            for i, (deg, _ka, ksb, ratio, kgs2, inv_dt, t) in enumerate(TABLE4):
                assert cell(table4_result, i, "degree") == deg
                assert cell(table4_result, i, "inv_d_t") == pytest.approx(inv_dt, abs=0.01)
                assert cell(table4_result, i, "ratio") == pytest.approx(ratio, abs=0.01)
                assert cell(table4_result, i, "t") == t
                assert cell(table4_result, i, "kappa_SB") == pytest.approx(ksb, abs=0.02)
                assert cell(table4_result, i, "kappa_GS2") == pytest.approx(kgs2, abs=0.03)

    def test_table4_kappa_A_matches_print(self, table4_result):
        # needs the published discretization: linear triangles with 20x20
        # interior nodes; bilinear squares on any nearby mesh miss by > 2%
        with criterion(2, "2D splitting table: kappa(A) against printed values"):
            for i, (deg, ka, *_rest) in enumerate(TABLE4):
                assert cell(table4_result, i, "kappa_A") == pytest.approx(ka, rel=0.02), (
                    f"degree {deg}"
                )


class TestCriterion3Table5:
    def test_table5_reproduction(self, table5_result):
        with criterion(3, "2D expansion-length sweep: mu, bounds, eigenvalue columns"):
            for i, (k, _ka, ksb, ratio, kgs2, inv_dt, t, mu) in enumerate(TABLE5):
                assert cell(table5_result, i, "K") == k
                assert cell(table5_result, i, "mu") == pytest.approx(mu, abs=0.005)
                assert cell(table5_result, i, "inv_d_t") == pytest.approx(inv_dt, abs=0.01)
                assert cell(table5_result, i, "ratio") == pytest.approx(ratio, abs=0.01)
                assert cell(table5_result, i, "t") == t
                assert cell(table5_result, i, "kappa_SB") == pytest.approx(ksb, abs=0.03)
                assert cell(table5_result, i, "kappa_GS2") == pytest.approx(kgs2, abs=0.03)

    def test_table5_K3_row_is_table4_degree2_row(self, table4_result, table5_result):
        # the source prints the same row twice, so both configs state one problem
        with criterion(3, "2D expansion-length sweep: K=3 row equals the degree-2 row of Table 4"):
            i4 = [row[0] for row in TABLE4].index(2)
            i5 = [row[0] for row in TABLE5].index(3)
            columns = ("degree", "K", "N", "kappa_A", "ratio", "kappa_SB", "kappa_GS2",
                       "inv_d_t", "t", "mu")
            for name in columns:
                assert cell(table5_result, i5, name) == pytest.approx(
                    cell(table4_result, i4, name), rel=1e-9
                ), name


class TestCriterion4ClosedForms:
    def test_single_variable_closed_forms(self):
        with criterion(4, "closed-form condition bounds and sharp element constants"):
            iset = MultiIndexSet.complete(1, 3)
            full = bounds_for(MEAN_BASED, legendre(), iset, 1.0)
            assert full.kappa_bound == pytest.approx(4.0 + math.sqrt(15.0), abs=1e-12)
            half = bounds_for(MEAN_BASED, legendre(), iset, 0.5)
            assert half.kappa_bound == pytest.approx(
                (23.0 + 4.0 * math.sqrt(15.0)) / 17.0, abs=1e-12
            )
            mesh = build_mesh(1, 2)
            field = sample_coefficients(["1", "1"], mesh)
            lo, hi = element_equivalence_oracle(legendre(), iset, field, MEAN_BASED)
            assert lo == pytest.approx(1.0 - math.sqrt(15.0) / 5.0, abs=1e-12)
            assert hi == pytest.approx(1.0 + math.sqrt(15.0) / 5.0, abs=1e-12)


class TestCriterion5PivotIdentities:
    def test_full_dominance_identity_and_quadrature_agreement(self):
        with criterion(5, "pivot recursion vs closed form and quadrature route"):
            for fam, g in ((gegenbauer(0.5), 0.5), (gegenbauer(1.0), 1.0), (gegenbauer(2.0), 2.0)):
                for s in range(2, 51):
                    d_last = float(d_sequence(fam, 1.0, s)[-1])
                    closed = (s + 2 * g - 1) / (2 * s + 2 * g - 2)
                    assert abs(d_last - closed) <= 1e-12
            for fam in (hermite(), legendre(), chebyshev_u(), gegenbauer(2.0)):
                for s in range(2, 31):
                    top = min(mu_bar(fam, "complete", s), 1.0)
                    for mu in (0.1, 0.5, 0.9 * top):
                        if mu >= top:
                            continue
                        rec = float(d_sequence(fam, mu, s)[-1])
                        quad = d_last_via_quadrature(fam, mu, s)
                        assert abs(rec - quad) <= 1e-11


class TestCriterion6RandomizedPropertySuite:
    ORACLE_KINDS = {
        "complete": (MEAN_BASED, SPLITTING_COMPLETE),
        "tensor": (MEAN_BASED, TRUNCATED_TP, SPLITTING_TP),
    }

    def test_hundred_random_instances(self):
        with criterion(6, "randomized matvec/sandwich/comparison-matrix suite"):
            from sgprecond.fem import CoefficientField

            rng = np.random.default_rng(20250808)
            families = [legendre(), chebyshev_u(), gegenbauer(2.0), hermite()]
            for trial in range(100):
                family = families[trial % len(families)]
                mesh, iset, field = random_instance(rng, family, target_mu=1.0)
                if iset.kind == "tensor":
                    top = mu_bar(family, "tensor", iset.orders)
                else:
                    top = mu_bar(family, "complete", iset.order)
                cap = 0.9 * min(top, 1.0)
                mu_target = rng.uniform(0.1, 1.0) * cap
                values = field.values.copy()
                values[1:] *= mu_target  # the raw field is normalized to ratio 1
                field = CoefficientField(values)
                problem = DiscreteProblem.build(family, iset, mesh, field)
                mu, _ = compute_mu(field)
                assert mu == pytest.approx(mu_target, rel=1e-12)

                # (a) product against densely assembled operator
                dense = problem.operator.matrix.toarray()
                scale = np.abs(dense).max()
                v = rng.standard_normal(dense.shape[0])
                err = np.linalg.norm(problem.operator.matvec(v) - dense @ v)
                assert err <= 1e-12 * scale * max(1.0, np.linalg.norm(v))

                # (b) analytic bounds enclose oracle constants enclose spectrum
                for kind in self.ORACLE_KINDS[iset.kind]:
                    bound = bounds_for(kind, family, iset, mu)
                    lo, hi = element_equivalence_oracle(family, iset, field, kind)
                    m_dense = dense_preconditioner_matrix(problem, kind)
                    x = build_preconditioner(problem, kind).solve(m_dense @ v)
                    assert np.allclose(x, v, rtol=1e-10, atol=1e-10)
                    w = scipy.linalg.eigh(dense, m_dense, eigvals_only=True)
                    slack = 1e-8
                    assert bound.c_lower - slack <= lo + slack
                    assert lo - slack <= w[0] + slack
                    assert w[-1] - slack <= hi + slack
                    assert hi - slack <= bound.c_upper + slack

                # GS2 spectrum lies in [1 - gamma^2, 1]
                gb = bounds_for(GAUSS_SEIDEL_2, family, iset, mu)
                g_dense = dense_preconditioner_matrix(problem, GAUSS_SEIDEL_2)
                x = build_preconditioner(problem, GAUSS_SEIDEL_2).solve(g_dense @ v)
                assert np.allclose(x, v, rtol=1e-10, atol=1e-10)
                wg = scipy.linalg.eigh(dense, g_dense, eigvals_only=True)
                assert gb.c_lower - 1e-8 <= wg[0]
                assert wg[-1] <= gb.c_upper + 1e-8
                assert wg[-1] / wg[0] <= gb.kappa_bound * (1 + 1e-8) + 1e-8

                # (c) dense comparison matrix: unit eigenvalue count and
                # sign-independent extremes
                s = iset.max_order
                if s >= 2:
                    mu_h = min(mu, 0.95 * min(mu_bar(family, "complete", s), 1.0))
                    if mu_h >= 1e-6:
                        h_plus = dense_h_matrix(family, mu_h, s, +1)
                        w_h = np.sort(np.linalg.eigvals(h_plus).real)
                        assert np.sum(np.abs(w_h - 1.0) <= 1e-10) == s - 2
                        b_h = bounds_for(SPLITTING_TP, family, MultiIndexSet.tensor((s,)), mu_h)
                        assert w_h[0] == pytest.approx(b_h.c_lower, abs=1e-10)
                        assert w_h[-1] == pytest.approx(b_h.c_upper, abs=1e-10)
                        w_minus = np.sort(
                            np.linalg.eigvals(dense_h_matrix(family, mu_h, s, -1)).real
                        )
                        assert w_minus[0] == pytest.approx(w_h[0], abs=1e-10)
                        assert w_minus[-1] == pytest.approx(w_h[-1], abs=1e-10)


class TestCriterion7SpectralInvariants:
    def test_interlacing_support_and_weights(self):
        with criterion(7, "interlacing, support containment, weight normalization"):
            for fam in (hermite(), legendre(), chebyshev_u(), gegenbauer(0.5), gegenbauer(2.0)):
                prev = gauss_rule(fam, 1).nodes
                for s in range(2, 101):
                    rule = gauss_rule(fam, s)
                    cur = rule.nodes
                    assert np.all(cur[:-1] < prev) and np.all(prev < cur[1:])
                    if fam.kind == "hermite":
                        top = math.sqrt(2.0 * (s - 1) ** 2 / (s + 2))
                        assert np.abs(cur).max() <= top * (1 + 1e-12) + 1e-12
                    else:
                        assert np.abs(cur).max() < 1.0
                    assert np.all(rule.weights > 0.0)
                    assert abs(float(rule.weights.sum()) - 1.0) <= 1e-12
                    prev = cur


class TestCriterion8ConjugateGradients:
    def test_iteration_bound_from_analytic_condition(self):
        with criterion(8, "conjugate gradient iteration bound and energy decay"):
            mesh = build_mesh(1, 30)
            field = sample_coefficients(
                ["1", "0.5*chi(0,1/3)", "0.3*chi(1/3,2/3)", "0.1*chi(2/3,1)"], mesh
            )
            iset = MultiIndexSet.complete(3, 3)
            problem = DiscreteProblem.build(legendre(), iset, mesh, field)
            m = build_preconditioner(problem, MEAN_BASED)
            mu, _ = compute_mu(field)
            kappa_hat = bounds_for(MEAN_BASED, legendre(), iset, mu).kappa_bound
            rhs = np.zeros(problem.operator.shape[0])
            rhs[: mesh.n_interior] = load_vector(mesh, "1")
            tol = 1e-8
            x, iterations, history = pcg(problem.operator, m, rhs, tol=tol)
            limit = math.ceil(0.5 * math.sqrt(kappa_hat) * math.log(2.0 / tol)) + 5
            assert iterations <= limit
            assert history[-1] <= tol

            # energy norm decreases monotonically on a dense-checkable instance
            small_mesh = build_mesh(1, 8)
            small_field = sample_coefficients(["1", "0.5*chi(0,1/2)", "0.3"], small_mesh)
            small_iset = MultiIndexSet.complete(2, 3)
            small = DiscreteProblem.build(legendre(), small_iset, small_mesh, small_field)
            a = small.operator.matrix.toarray()
            b = np.zeros(a.shape[0])
            b[: small_mesh.n_interior] = load_vector(small_mesh, "1")
            x_star = np.linalg.solve(a, b)
            iterates = []
            pcg(
                small.operator,
                build_preconditioner(small, MEAN_BASED),
                b,
                tol=1e-12,
                callback=iterates.append,
            )
            errors = [np.sqrt((x_star - xk) @ (a @ (x_star - xk))) for xk in iterates]
            assert all(e1 <= e0 * (1 + 1e-12) for e0, e1 in zip(errors, errors[1:]))


class TestCriterion9Parser:
    def test_grammar_and_setting_expressions(self):
        with criterion(9, "expression grammar against the reference evaluator"):
            from test_coeffexpr import TestAgainstShuntingYard

            suite = TestAgainstShuntingYard()
            suite.test_thousand_random_expressions()
            suite.test_benchmark_setting_expressions_parse_and_evaluate()


def _match_goldens(tables, fmt):
    for name, table in tables.items():
        stored = (GOLDEN_DIR / f"{name}.{fmt}").read_text()
        assert table.render(fmt) == stored, f"{name}.{fmt} drifted from its golden copy"


class TestGoldenTables:
    @pytest.fixture
    def tables(self, table3_results, table4_result, table5_result):
        return {
            "table3_setting1": table3_results[1],
            "table3_setting2": table3_results[2],
            "table3_setting3": table3_results[3],
            "table4": table4_result,
            "table5": table5_result,
        }

    def test_csv_outputs_match_goldens(self, tables):
        _match_goldens(tables, "csv")

    def test_md_outputs_match_goldens(self, tables):
        _match_goldens(tables, "md")

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.cfg")))
    def test_bounds_match_goldens(self, name):
        # the bounds-only rows carry no kappa or lambda columns
        table = run_bounds(load_config(CONFIG_DIR / f"{name}.cfg"))
        for fmt in ("csv", "md"):
            _match_goldens({f"bounds_{name}": table}, fmt)

    @pytest.mark.parametrize("name", ("table4", "table3_setting2"))
    def test_solve_matches_goldens(self, name):
        # every raw cell but each solve's wall time, which varies from run to run
        table = run_solve(load_config(CONFIG_DIR / f"{name}.cfg"))
        for row in table.rows:
            del row["seconds"]
        assert table.render("raw") == (GOLDEN_DIR / f"solve_{name}.csv").read_text()
