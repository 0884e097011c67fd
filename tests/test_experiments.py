import math
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from conftest import CONFIG_DIR
from helpers import (
    dense_gs2_matrix,
    dense_pencil_extremes,
    dense_preconditioner_matrix,
    kinds_on,
)
from sgprecond import eigsolve, experiments, operator
from sgprecond.basis import MultiIndexSet
from sgprecond.config import parse_config
from sgprecond.eigsolve import EigEstimate
from sgprecond.errors import (ConvergenceError, DominanceError, EnclosureError,
                               FactorizationError, SizeError)
from sgprecond.experiments import (
    _COLUMNS,
    Cell,
    ResultTable,
    _check_enclosure,
    degree_sweep,
    index_set,
    mesh_and_field,
    quadrature_report,
    run_bounds,
    run_solve,
    run_verify,
)
from sgprecond.fem import build_mesh, sample_coefficients
from sgprecond.orthopoly import legendre

CFG = """sgp-config v1

[problem]
dim = 1
elements = 10
family = legendre
basis = complete
degree = 1 2
K = 2

[coefficients]
a0 = 1
a1 = 0.4*chi(0,1/2)
a2 = 0.3*sin(pi*x1)

[run]
preconditioners = mean_based splitting_complete gs2
kappa_A = true
tol = 1e-8
max_iter = 300
seed = 42
"""


@pytest.fixture(scope="module")
def cfg():
    return parse_config(CFG)


@pytest.fixture(scope="module")
def verify_table(cfg):
    return run_verify(cfg)


class TestResultTable:
    def test_column_order_and_formats(self):
        t = ResultTable()
        t.add_row({"degree": Cell(2.0), "x": Cell(1.23456), "bad": Cell(float("inf"), "vacuous")})
        t.add_row({"degree": Cell(3.0), "extra": Cell(0.5)})
        csv_text = t.render("csv")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "degree,x,bad,extra"
        assert lines[1] == "2,1.23,-,"
        assert lines[2] == "3,,,0.50"

    def test_raw_mode_carries_sources(self):
        t = ResultTable()
        t.add_row({"x": Cell(1.0 / 3.0, "lanczos")})
        raw = t.render("raw")
        assert "x,x_src" in raw
        assert "0.33333333333333331,lanczos" in raw

    def test_markdown_alignment(self):
        t = ResultTable()
        t.add_row({"alpha": Cell(1.0), "b": Cell(2.0)})
        md = t.render("md")
        lines = md.strip().splitlines()
        assert lines[0].startswith("| alpha |")
        assert set(lines[1]) <= {"|", "-"}


    def test_every_written_column_is_declared_in_output_order(self):
        # the complete and the tensor basis with every kind of each, the
        # oracle and kappa(A): between them the runners write every column
        tensor = CFG.replace("basis = complete\ndegree = 1 2", "basis = tensor\ndegrees = 2 1")
        tensor = tensor.replace("mean_based splitting_complete gs2",
                                "mean_based truncated_tp splitting_tp gs2")
        headers = [run(parse_config(text.replace("kappa_A = true", "kappa_A = true\noracle = true")))
                   .render("csv").splitlines()[0].split(",")
                   for run in (run_bounds, run_verify, run_solve) for text in (CFG, tensor)]
        bounds = ["degree", "K", "c_lower_class", "c_lower", "c_upper", "c_upper_class",
                  "ratio", "ratio_SB", "ratio_class", "inv_d_t", "t"]
        tr = ["c_lower_tr", "c_upper_tr", "ratio_tr"]
        verify = ["degree", "K", "N", "kappa_A", "c_lower_class", "c_lower", "lambda_min",
                  "lambda_max", "c_upper", "c_upper_class", "ratio", "ratio_SB", "ratio_class",
                  "kappa_SB", "kappa_GS2", "inv_d_t", "t"]
        oracle = ["oracle_min", "oracle_max", "mu", "mu_class"]
        solve = ["preconditioner", "degree", "N", "iterations", "residual", "seconds", "kappa_bound"]
        assert headers == [
            bounds + ["mu", "mu_class"],
            bounds + tr + ["mu", "mu_class"],
            verify + ["kappa_MB"] + oracle,
            verify + tr + ["kappa_TR", "kappa_MB"] + oracle,
            solve,
            solve,
        ]
        assert {c for header in headers for c in header} == set(_COLUMNS)


class TestRunBounds:
    def test_rows_per_degree_without_eigen_columns(self, cfg):
        from sgprecond.fem import build_mesh, mu_from_exprs

        t = run_bounds(cfg)
        assert len(t.rows) == 2
        assert "kappa_A" not in t.columns and "lambda_min" not in t.columns
        mu, _ = mu_from_exprs(cfg.coefficients, build_mesh(1, 10))
        assert t.value(0, "c_lower") == pytest.approx(1 - mu / np.sqrt(3), abs=1e-12)
        assert t.value(1, "t") in (2.0, 3.0)

    def test_zero_fluctuation_gives_unit_columns(self):
        text = CFG.replace("a1 = 0.4*chi(0,1/2)", "a1 = 0").replace(
            "a2 = 0.3*sin(pi*x1)", "a2 = 0"
        )
        t = run_bounds(parse_config(text))
        for row in range(2):
            assert t.value(row, "c_lower") == 1.0
            assert t.value(row, "c_upper") == 1.0
            assert t.value(row, "inv_d_t") == 1.0


class TestRunVerify:
    def test_enclosure_columns_consistent(self, verify_table):
        t = verify_table
        for row in range(2):
            assert t.value(row, "c_lower") - 1e-8 <= t.value(row, "lambda_min")
            assert t.value(row, "lambda_max") <= t.value(row, "c_upper") + 1e-8
            assert t.value(row, "kappa_GS2") <= t.value(row, "inv_d_t") + 1e-6
            assert t.value(row, "kappa_SB") <= t.value(row, "ratio_SB") + 1e-6
            assert t.value(row, "kappa_A") > 1.0

    def test_check_enclosure_raises(self):
        est = EigEstimate(0.4, 1.2, (0.0, 0.0), 5)
        with pytest.raises(EnclosureError):
            _check_enclosure("demo", 0.5, 1.5, est)
        _check_enclosure("demo", 0.4, 1.2, est)  # boundary passes

    def test_oracle_columns_when_requested(self, cfg):
        from dataclasses import replace

        t = run_verify(replace(cfg, oracle=True, degrees=(2,), kappa_a=False))
        lo = t.value(0, "oracle_min")
        hi = t.value(0, "oracle_max")
        assert t.value(0, "c_lower") - 1e-10 <= lo
        assert lo <= t.value(0, "lambda_min") + 1e-10
        assert t.value(0, "lambda_max") <= hi + 1e-10
        assert hi <= t.value(0, "c_upper") + 1e-10

    def test_oracle_runs_for_every_block_diagonal_kind(self, cfg, monkeypatch):
        from dataclasses import replace

        from sgprecond import bounds

        oracle = bounds.element_equivalence_oracle
        calls = []

        def counted(family, iset, field, kind):
            calls.append((kind, oracle(family, iset, field, kind)))
            return calls[-1][1]

        monkeypatch.setattr(bounds, "element_equivalence_oracle", counted)
        kinds = ("gs2", "splitting_complete", "mean_based")
        t = run_verify(replace(cfg, preconditioners=kinds, oracle=True, degrees=(3,),
                               kappa_a=False))
        assert [kind for kind, _ in calls] == ["splitting_complete", "mean_based"]
        # the columns report the first block-diagonal kind
        assert (t.value(0, "oracle_min"), t.value(0, "oracle_max")) == calls[0][1]

    def test_tensor_basis_with_every_tensor_kind(self):
        # orders (3, 2): the truncated block and the coarse block are both A
        # on the first three indices, so truncated_tp and splitting_tp are
        # the same preconditioner
        text = CFG.replace("basis = complete\ndegree = 1 2", "basis = tensor\ndegrees = 2 1")
        text = text.replace("mean_based splitting_complete gs2",
                            "mean_based truncated_tp splitting_tp gs2\noracle = true")
        t = run_verify(parse_config(text))
        assert len(t.rows) == 1
        for column in ("kappa_TR", "kappa_SB", "kappa_GS2", "oracle_min", "oracle_max"):
            assert t.value(0, column) is not None
        assert t.value(0, "kappa_TR") == pytest.approx(t.value(0, "kappa_SB"), rel=1e-12)


def count_lanczos_runs(monkeypatch):
    """(steps, solves) of every Lanczos run, in order: its steps, and the
    solves with banded factors of leading blocks from its start to the next
    run's start."""
    solve = operator._BandCholesky.solve
    generalized = eigsolve.extreme_eigs_generalized
    steps, solves = [], []

    def counted(self, b):
        if solves:
            solves[-1] += 1
        return solve(self, b)

    def stepped(a, m, **kwargs):
        solves.append(0)
        est = generalized(a, m, **kwargs)
        steps.append(est.iterations)
        return est

    monkeypatch.setattr(operator._BandCholesky, "solve", counted)
    monkeypatch.setattr(eigsolve, "extreme_eigs_generalized", stepped)
    return steps, solves


class TestGs2SchurPath:
    @pytest.mark.parametrize("iset", (MultiIndexSet.complete(2, 3), MultiIndexSet.complete(2, 4),
                                      MultiIndexSet.tensor((3, 2)), MultiIndexSet.tensor((2, 3))),
                             ids=("complete3", "complete4", "tensor32", "tensor23"))
    def test_extremes_match_the_dense_pencil(self, iset):
        mesh = build_mesh(1, 5)
        field = sample_coefficients(["1", "0.4*chi(0,1/2)", "0.3*sin(pi*x1)"], mesh)
        prob = operator.DiscreteProblem.build(legendre(), iset, mesh, field)
        m = operator.build_preconditioner(prob, operator.GAUSS_SEIDEL_2)
        a = prob.operator.matrix.toarray()
        w = scipy.linalg.eigh(a, dense_gs2_matrix(a, m.split_index), eigvals_only=True)
        pencil = operator.ColoredPencil(prob, operator.GAUSS_SEIDEL_2)
        est, _top = pencil.extremes(tol=1e-10, max_iter=300, seed=42)
        assert est.lambda_min == pytest.approx(w[0], rel=1e-8)
        assert est.lambda_max == pytest.approx(w[-1], rel=1e-12)

    def test_one_coarse_solve_per_lanczos_step(self, cfg, monkeypatch):
        # complete order 3: A11 is A on the three indices of total degree at
        # most 1, the only banded factor of the run; the run's eigenvector of
        # M^-1 A takes one more A11 solve.  The degree-1 start run solves only
        # with F0, which SuperLU factors
        from dataclasses import replace

        steps, solves = count_lanczos_runs(monkeypatch)
        run_verify(replace(cfg, preconditioners=("gs2",), degrees=(2,), kappa_a=False))
        assert len(steps) == 2 and steps[-1] > 0
        assert solves[-1] == steps[-1] + 1


class TestColoredPencilPath:
    ISETS = [MultiIndexSet.tensor(orders) for orders in ((3, 2, 4), (2, 3, 3), (4, 4, 2))] + [
        MultiIndexSet.complete(3, order) for order in (2, 3, 6)]

    @staticmethod
    def _problem(iset):
        mesh = build_mesh(1, 4)
        exprs = ["1", "0.3*sin(pi*x1)", "0.2*chi(0,1/2)", "0.25*x1"][: iset.nvars + 1]
        return operator.DiscreteProblem.build(legendre(), iset, mesh, sample_coefficients(exprs, mesh))

    @pytest.mark.parametrize("iset", ISETS, ids=lambda i: f"{i.kind}{i.orders or i.order}")
    def test_every_kind_matches_the_dense_spectrum(self, iset):
        prob = self._problem(iset)
        a = prob.operator.matrix.toarray()
        for kind in kinds_on(iset.kind):
            m = dense_preconditioner_matrix(prob, kind)
            w = np.sort(scipy.linalg.eigvals(a, m).real)
            pencil = operator.ColoredPencil(prob, kind)
            est, top = pencil.extremes(tol=1e-12, max_iter=500, seed=42)
            assert est.lambda_min == pytest.approx(w[0], rel=1e-8), kind
            assert est.lambda_max == pytest.approx(w[-1], rel=1e-8), kind
            assert top <= 1.0 + 1e-12
            # vector_min is the eigenvector of M^-1 A at lambda_min, on every dof
            mv = m @ est.vector_min
            residual = np.linalg.norm(a @ est.vector_min - est.lambda_min * mv)
            assert residual <= 1e-10 * np.linalg.norm(mv), kind

    @pytest.mark.parametrize("iset", (MultiIndexSet.tensor((2, 2, 1)), MultiIndexSet.tensor((1,)),
                                      MultiIndexSet.complete(2, 1)),
                             ids=("tensor221", "tensor1", "complete1"))
    def test_an_empty_color_is_the_unit_spectrum_without_lanczos(self, iset, monkeypatch):
        prob = self._problem(iset)
        runs = []
        generalized = eigsolve.extreme_eigs_generalized

        def counted(a, m, **kwargs):
            runs.append(m.kind)
            return generalized(a, m, **kwargs)

        monkeypatch.setattr(eigsolve, "extreme_eigs_generalized", counted)
        for kind in kinds_on(iset.kind):
            pencil = operator.ColoredPencil(prob, kind)
            est, top = pencil.extremes(tol=1e-10, max_iter=300, seed=42)
            sizes = np.bincount(operator.coloring(kind, iset), minlength=2)
            if 0 in sizes:
                assert (est.lambda_min, est.lambda_max, est.iterations, top) == (1.0, 1.0, 0, 1.0)
                assert kind not in runs
            else:  # mean_based on (2, 2, 1): both parities of the total degree occur
                assert (iset.size, kind) == (4, operator.MEAN_BASED) and runs == [kind]
        if iset.size > 1:
            assert runs

    def test_one_coarse_solve_per_lanczos_step_of_the_splitting(self, cfg, monkeypatch):
        # complete order 3: the splitting runs on its coarse side, with one
        # A11 solve per step and one for the start vector; the other color's
        # solves are with F0, which SuperLU factors
        from dataclasses import replace

        steps, solves = count_lanczos_runs(monkeypatch)
        run_verify(replace(cfg, preconditioners=("splitting_complete",), degrees=(2,),
                           kappa_a=False))
        assert len(steps) == 2 and steps[-1] > 0  # the degree-1 start run, then degree 2
        assert solves[-1] == steps[-1] + 1


class TestWarmStart:
    """The splitting and gs2 on a complete basis start from their own
    eigenvector of M^-1 A one degree below."""

    NESTED = (operator.SPLITTING_COMPLETE, operator.GAUSS_SEIDEL_2)

    def test_warm_run_matches_the_dense_spectrum(self):
        mesh = build_mesh(1, 4)
        field = sample_coefficients(["1", "0.3*sin(pi*x1)", "0.2*chi(0,1/2)", "0.25*x1"], mesh)
        previous = {}
        for order in (2, 3, 4):  # order 2 starts from the seed: order 1 has one color
            prob = operator.DiscreteProblem.build(legendre(), MultiIndexSet.complete(3, order),
                                                  mesh, field)
            a = prob.operator.matrix.toarray()
            for kind in (operator.MEAN_BASED, *self.NESTED):
                m = dense_preconditioner_matrix(prob, kind)
                w = np.sort(scipy.linalg.eigvals(a, m).real)
                start = previous.get(kind)
                assert (start is None) == (order == 2 or kind == operator.MEAN_BASED)
                est, top = operator.ColoredPencil(prob, kind).extremes(
                    start, tol=1e-12, max_iter=500, seed=42)
                assert est.lambda_min == pytest.approx(w[0], rel=1e-8), (order, kind)
                assert est.lambda_max == pytest.approx(w[-1], rel=1e-8), (order, kind)
                assert top <= 1.0 + 1e-12
                # vector_min is the eigenvector of M^-1 A at lambda_min, on every dof
                v = est.vector_min
                mv = m @ v
                assert np.linalg.norm(a @ v - est.lambda_min * mv) <= 1e-10 * np.linalg.norm(mv)
                if kind in self.NESTED:
                    previous[kind] = v

    def test_warm_start_takes_fewer_steps_than_the_seed(self):
        # a 1D complete sweep over degrees 1..5 on 30 elements
        cfg = parse_config(CFG.replace("elements = 10", "elements = 30").replace(
            "degree = 1 2", "degree = 1 2 3 4 5"))
        mesh, field, _mu, _mu_class = mesh_and_field(cfg)
        previous = {}
        for degree in range(1, 6):
            prob = operator.DiscreteProblem.build(cfg.family, index_set(cfg, degree), mesh, field)
            for kind in self.NESTED:
                pencil = operator.ColoredPencil(prob, kind)
                seeded, _ = pencil.extremes(tol=1e-6, max_iter=400, seed=42)
                warm, _ = pencil.extremes(previous.get(kind), tol=1e-6, max_iter=400, seed=42)
                if degree == 1:
                    assert warm == seeded
                elif degree >= 3:
                    assert warm.iterations < seeded.iterations, (degree, kind)
                assert warm.lambda_min == pytest.approx(seeded.lambda_min, rel=1e-5)
                previous[kind] = warm.vector_min

    @pytest.mark.parametrize("dim", (1, 2))
    def test_the_start_is_a_x_on_the_pencils_color_bit_for_bit(self, dim, monkeypatch):
        # x, a vector of the degree below zero-padded, lies on the coarse
        # color, so the pencil's own blocks sum (A x) on its color as A does:
        # for a random x and for the eigenvector of the degree below, the
        # start the run passes to Lanczos is A x on the record's side
        mesh = build_mesh(1, 6) if dim == 1 else build_mesh(2, (3, 3), "p1")
        field = sample_coefficients(["1", "0.3*x1", "0.2*sin(pi*x1)"], mesh)
        generalized = eigsolve.extreme_eigs_generalized
        starts = []

        def recorded(a, m, **kwargs):
            starts.append(kwargs["start"])
            return generalized(a, m, **kwargs)

        monkeypatch.setattr(eigsolve, "extreme_eigs_generalized", recorded)
        lanczos = {"tol": 1e-8, "max_iter": 300, "seed": 42}
        rng = np.random.default_rng(5)
        below = {}
        for degree in range(1, 5):
            prob = operator.DiscreteProblem.build(legendre(), MultiIndexSet.complete(2, degree + 1),
                                                  mesh, field)
            n_fe = prob.operator.n_fe
            for kind in self.NESTED:
                pencil = operator.ColoredPencil(prob, kind)
                previous = below.get(kind)
                if previous is not None:
                    side = operator.PRECONDITIONER_KINDS[kind].side
                    color = np.flatnonzero(operator.coloring(kind, prob.index_set) == side)
                    this = (color[:, None] * n_fe + np.arange(n_fe)).ravel()
                    for v in (rng.standard_normal(previous.size), previous):
                        x = np.zeros(prob.operator.shape[0])
                        x[: v.size] = v
                        starts.clear()
                        est, _top = pencil.extremes(v, **lanczos)
                        assert np.array_equal(starts[0], prob.operator.matvec(x)[this]), (
                            degree, kind)
                else:
                    est, _top = pencil.extremes(**lanczos)
                below[kind] = est.vector_min  # the run from the degree below's eigenvector

    @pytest.mark.parametrize("listed", ("3", "1 2 3", "3 1"))
    def test_rows_do_not_depend_on_the_listed_degrees(self, listed):
        text = CFG.replace("mean_based splitting_complete gs2", "splitting_complete gs2")
        full = run_verify(parse_config(text.replace("degree = 1 2", "degree = 1 2 3")))
        table = run_verify(parse_config(text.replace("degree = 1 2", f"degree = {listed}")))
        degrees = [int(d) for d in listed.split()]
        assert [table.value(i, "degree") for i in range(len(table.rows))] == degrees
        for i, degree in enumerate(degrees):
            assert table.rows[i] == full.rows[degree - 1]


# Two configs on which a warm start perturbed by 1e-3 stopped on the second
# eigenvalue of a near-degenerate lowest pair: config A at degree 2 (its CBS
# check then failed), config B at degree 3 (kappa_GS2 low by 1.4e-6).
WARM_MISS = {
    "A": """sgp-config v1
[problem]
dim = 1
elements = 8
family = gegenbauer
gamma = 2.5
basis = complete
degree = 2
K = 2
[coefficients]
a0 = 1
a1 = 0.0301*sin(1*pi*x1)
a2 = 0.0343*sin(2*pi*x1)
[run]
preconditioners = mean_based splitting_complete gs2
kappa_A = false
tol = 1e-10
max_iter = 2000
seed = 41
""",
    "B": """sgp-config v1
[problem]
dim = 2
elements = 5 5
element = p1
family = legendre
basis = complete
degree = 2 3
K = 2
[coefficients]
a0 = 1
a1 = 0.0494*chi(0.380,0.552)
a2 = 0.0323*sin(2*pi*x2)
[run]
preconditioners = mean_based gs2
kappa_A = false
tol = 1e-10
max_iter = 2000
seed = 158
""",
}


@pytest.mark.parametrize("name", sorted(WARM_MISS))
def test_warm_started_rows_match_the_dense_spectrum(name):
    cfg = parse_config(WARM_MISS[name])
    table = run_verify(cfg)
    mesh, field, _mu, _mu_class = mesh_and_field(cfg)
    for row, degree in enumerate(cfg.degrees):
        prob = operator.DiscreteProblem.build(cfg.family, index_set(cfg, degree), mesh, field)
        a = prob.operator.matrix.toarray()
        for kind in cfg.preconditioners:
            w = np.sort(scipy.linalg.eigvals(a, dense_preconditioner_matrix(prob, kind)).real)
            kappa = table.value(row, operator.PRECONDITIONER_KINDS[kind].column)
            assert kappa == pytest.approx(w[-1] / w[0], rel=1e-7), (degree, kind)


@pytest.mark.parametrize("name, rows", (("table3_setting1", 4), ("table4", 5)))
def test_each_f_is_assembled_once_per_config(name, rows, monkeypatch):
    # table3_setting1 lists degrees 1 2 6 7 and builds a problem at each of
    # 1..7; table4 builds one at each of 1..5.  The estimates, which read
    # the problems but build none, are stubbed with the spectrum {1}.
    from dataclasses import replace

    from sgprecond.config import load_config

    assemble = operator.assemble_F
    calls = []

    def counted(mesh, field, k):
        calls.append(k)
        return assemble(mesh, field, k)

    monkeypatch.setattr(operator, "assemble_F", counted)
    monkeypatch.setattr(operator.ColoredPencil, "extremes",
                        lambda *args, **kwargs: (EigEstimate(1.0, 1.0, (0.0, 0.0), 0), 1.0))
    cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    assert len(run_verify(replace(cfg, kappa_a=False)).rows) == rows
    assert calls == list(range(cfg.nterms + 1))


class TestConcurrentRuns:
    """At each degree the first kind's Lanczos run goes on the calling
    thread and the others on one worker, over factors taken once."""

    KINDS = ("splitting_complete", "gs2")

    @pytest.mark.parametrize("failing", (KINDS, KINDS[1:]), ids=("both", "worker"))
    def test_the_error_raised_is_the_serial_loops(self, cfg, monkeypatch, failing):
        # capped at 3 steps, a run stops at max_iter; the splitting's run is
        # held back, so the worker's gs2 run fails first in time
        from dataclasses import replace

        generalized = eigsolve.extreme_eigs_generalized
        on_main = {}

        def capped(a, m, **kwargs):
            on_main[m.kind] = threading.current_thread() is threading.main_thread()
            if m.kind == self.KINDS[0]:
                time.sleep(0.05)
            if m.kind in failing:
                kwargs["max_iter"] = 3
            return generalized(a, m, **kwargs)

        monkeypatch.setattr(eigsolve, "extreme_eigs_generalized", capped)
        one = replace(cfg, preconditioners=self.KINDS, degrees=(1,), kappa_a=False)
        mesh, field, _mu, _mu_class = mesh_and_field(one)
        prob = operator.DiscreteProblem.build(one.family, index_set(one, 1), mesh, field)
        serial = {}
        for kind in failing:
            with pytest.raises(ConvergenceError) as err:
                operator.ColoredPencil(prob, kind).extremes(tol=1e-8, max_iter=300, seed=42)
            serial[kind] = err.value
        if len(failing) == 2:
            assert serial[self.KINDS[0]].estimate != serial[self.KINDS[1]].estimate
        on_main.clear()
        with pytest.raises(ConvergenceError) as err:
            run_verify(one)
        assert on_main == {self.KINDS[0]: True, self.KINDS[1]: False}
        assert str(err.value) == str(serial[failing[0]])
        assert err.value.estimate == serial[failing[0]].estimate

    @pytest.mark.parametrize("capped", (True, False), ids=("run", "build"))
    def test_a_later_kinds_build_error_waits_for_the_earlier_runs(self, cfg, monkeypatch,
                                                                 capped):
        # at degree 2 the splitting's pencil factors the band of its 3 coarse
        # indices, forced to fail, after the mean_based pencil is built; the
        # mean_based run, capped at 3 steps, fails first in the serial loop
        from dataclasses import replace

        generalized = eigsolve.extreme_eigs_generalized
        fault = FactorizationError("forced: the band is not positive definite")

        def capped_run(a, m, **kwargs):
            if capped and m.kind == operator.MEAN_BASED:
                kwargs["max_iter"] = 3
            return generalized(a, m, **kwargs)

        def indefinite(band, block, count):
            raise fault

        monkeypatch.setattr(eigsolve, "extreme_eigs_generalized", capped_run)
        monkeypatch.setattr(operator._BandCholesky, "__init__", indefinite)
        two = replace(cfg, preconditioners=(operator.MEAN_BASED, self.KINDS[0]), degrees=(2,),
                      kappa_a=False)
        with pytest.raises((ConvergenceError, FactorizationError)) as err:
            run_verify(two)
        if capped:
            assert isinstance(err.value, ConvergenceError)
            assert str(err.value) == "Lanczos did not reach tolerance 1e-08 in 3 iterations"
        else:
            assert err.value is fault

    def test_each_leading_block_is_factored_once_per_degree(self, cfg, monkeypatch):
        # K = 2: the coarse group at degree d is the basis of degree d - 1,
        # 3 indices at degree 2 and 6 at degree 3; degree 1's is F0 alone.
        # Each degree's problem is built like the one before and takes its
        # factor of F0, which every kind and kappa(A) use: once per sweep
        from dataclasses import replace

        factor, band_init = operator._factor, operator._BandCholesky.__init__
        blocks, counts = [], []

        def factored(block):
            blocks.append(block.shape)
            return factor(block)

        def counted(self, block, count):
            counts.append(count)
            band_init(self, block, count)

        monkeypatch.setattr(operator, "_factor", factored)
        monkeypatch.setattr(operator._BandCholesky, "__init__", counted)
        table = run_verify(replace(cfg, degrees=(1, 2, 3)))
        assert cfg.kappa_a and len(table.rows) == 3
        assert counts == [3, 6]
        assert blocks == [(9, 9)]  # F0 on the 9 interior nodes of 10 elements

    def test_kappa_a_runs_on_the_worker_while_the_band_is_factored(self, cfg, monkeypatch):
        # K = 2: degree 1 (3 indices) factors F0 alone, so its kappa(A) runs
        # on this thread; degree 2 (6 indices) factors the band of its 3
        # coarse indices, and its kappa(A) is submitted to the worker first.
        # Every factor and each degree's A are taken on this thread
        extreme_eigs, factor = eigsolve.extreme_eigs, operator._factor
        band_init, submit = operator._BandCholesky.__init__, ThreadPoolExecutor.submit
        assemble = operator.GalerkinOperator.assemble_sparse
        caller, events, kappa = threading.current_thread(), [], {}

        def eigs(a, accel, **kwargs):
            kappa[a.n_p] = threading.current_thread()
            return extreme_eigs(a, accel, **kwargs)

        def submitted(pool, fn, *args, **kwargs):
            events.append(("submit", fn is eigs, threading.current_thread()))
            return submit(pool, fn, *args, **kwargs)

        def factored(block):
            events.append(("factor", 1, threading.current_thread()))
            return factor(block)

        def banded(band, block, count):
            events.append(("factor", count, threading.current_thread()))
            band_init(band, block, count)

        def assembled(a):
            events.append(("assemble", a.n_p, threading.current_thread()))
            return assemble(a)

        monkeypatch.setattr(eigsolve, "extreme_eigs", eigs)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", submitted)
        monkeypatch.setattr(operator, "_factor", factored)
        monkeypatch.setattr(operator._BandCholesky, "__init__", banded)
        monkeypatch.setattr(operator.GalerkinOperator, "assemble_sparse", assembled)
        table = run_verify(cfg)
        assert kappa[3] is caller and kappa[6] is not caller
        assert all(thread is caller for _, _, thread in events)
        steps = [event[:2] for event in events]
        assert steps.count(("submit", True)) == 1
        assert steps.index(("submit", True)) < steps.index(("factor", 3))
        assert [count for step, count in steps if step == "factor"] == [1, 3]
        assert [n_p for step, n_p in steps if step == "assemble"] == [3, 6]
        mesh, field, _mu, _mu_class = mesh_and_field(cfg)
        for row, degree in enumerate(degree_sweep(cfg)):
            prob = operator.DiscreteProblem.build(cfg.family, index_set(cfg, degree), mesh, field)
            accel = operator.build_preconditioner(prob, operator.MEAN_BASED)
            est = extreme_eigs(prob.operator, accel, tol=cfg.tol, max_iter=cfg.max_iter,
                               seed=cfg.seed)
            assert table.value(row, "kappa_A") == est.lambda_max / est.lambda_min

    @pytest.mark.parametrize("enclosure", (False, True), ids=("kappa_A", "enclosure"))
    def test_a_kappa_a_error_on_the_worker_is_raised_where_the_loop_raised_it(
            self, cfg, monkeypatch, enclosure):
        # degree 2's kappa(A) fails on the worker; a check of the row ahead
        # of kappa(A), forced to fail, wins as in the serial loop
        extreme_eigs, cbs = eigsolve.extreme_eigs, experiments._check_cbs_identity
        failure = ConvergenceError("kappa(A) failed at degree 2")
        fault = EnclosureError("degree 2: forced CBS fault")
        failed_on = []

        def failing(a, accel, **kwargs):
            if a.n_p == 6:
                failed_on.append(threading.current_thread())
                raise failure
            return extreme_eigs(a, accel, **kwargs)

        def check(degree, *args):
            if degree == 2:
                raise fault
            cbs(degree, *args)

        monkeypatch.setattr(eigsolve, "extreme_eigs", failing)
        if enclosure:
            monkeypatch.setattr(experiments, "_check_cbs_identity", check)
        before = threading.active_count()
        with pytest.raises((EnclosureError, ConvergenceError)) as err:
            run_verify(cfg)
        assert err.value is (fault if enclosure else failure)
        assert str(err.value) == str(fault if enclosure else failure)
        assert failed_on and failed_on[0] is not threading.current_thread()
        assert threading.active_count() == before

    @pytest.mark.parametrize("text", (
        CFG.replace("mean_based splitting_complete gs2", "mean_based"),
        CFG.replace("basis = complete\ndegree = 1 2", "basis = tensor\ndegrees = 2 1")
           .replace("mean_based splitting_complete gs2", "splitting_tp"),
    ), ids=("mean_based", "tensor"))
    def test_a_one_kind_degree_starts_no_thread(self, text, monkeypatch):
        extremes = operator.ColoredPencil.extremes
        runs = []

        def recorded(*args, **kwargs):
            runs.append((threading.current_thread(), threading.active_count()))
            return extremes(*args, **kwargs)

        monkeypatch.setattr(operator.ColoredPencil, "extremes", recorded)
        before = threading.active_count()
        run_verify(parse_config(text))
        assert runs and all(thread is threading.main_thread() for thread, _ in runs)
        assert {count for _, count in runs} == {before} == {threading.active_count()}


def test_a_top_degree_over_the_size_cap_fails_before_any_degree_runs(cfg, monkeypatch):
    # K = 2 at degree 1999 holds 2001000 indices, over the cap of 2000000
    from dataclasses import replace

    built = []
    monkeypatch.setattr(operator.DiscreteProblem, "build", lambda *args: built.append(args))
    for kinds in (("mean_based",), ("splitting_complete", "gs2")):
        with pytest.raises(SizeError, match="complete basis size 2001000 exceeds cap"):
            run_verify(replace(cfg, degrees=(1, 1999), preconditioners=kinds))
    assert built == []


DIFFERENTIAL_CONFIGS = 40


def differential_config(rng) -> str:
    """A small random config for the sweep against dense spectra: one of
    four families (Gegenbauer at gamma -0.3, 0 or 2.5), a 1D mesh of 3-11
    elements or a 2D q1/p1 mesh of 3x3 to 5x5, a complete basis with a
    random list of degrees within 1-4 or a tensor one with degrees 1-3, a
    random nonempty subset of the admissible kinds in random order, and K
    terms of amplitude below 0.9/K."""
    family = str(rng.choice(["legendre", "hermite", "chebyshev_u", "gegenbauer"]))
    if family == "gegenbauer":
        family += f"\ngamma = {rng.choice([-0.3, 0.0, 2.5])}"
    nterms = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        mesh, variables = f"dim = 1\nelements = {rng.integers(3, 12)}", ("x1",)
    else:
        side = rng.integers(3, 6)
        mesh = f"dim = 2\nelements = {side} {side}\nelement = {rng.choice(['q1', 'p1'])}"
        variables = ("x1", "x2")
    if rng.random() < 0.5:
        degrees = rng.permutation(np.arange(1, 5))[: rng.integers(1, 4)]
        basis = "basis = complete\ndegree = " + " ".join(str(d) for d in degrees)
        kinds = kinds_on("complete")
    else:
        basis = "basis = tensor\ndegrees = " + " ".join(
            str(rng.integers(1, 4)) for _ in range(nterms))
        kinds = kinds_on("tensor")
    kinds = rng.permutation(kinds)[: rng.integers(1, len(kinds) + 1)]
    terms = []
    for k in range(1, nterms + 1):
        x = rng.choice(variables)
        low = rng.uniform(0.0, 0.8)
        shape = rng.choice([f"sin({rng.integers(1, 4)}*pi*{x})", f"cos({rng.integers(1, 3)}*pi*{x})",
                            f"chi({low:.3f},{low + 0.2:.3f})", x])
        terms.append(f"a{k} = {rng.uniform(0.05, 0.9) / nterms:.4f}*{shape}")
    return "\n".join([
        "sgp-config v1", "[problem]", mesh, f"family = {family}", basis, f"K = {nterms}",
        "[coefficients]", "a0 = 1", *terms,
        "[run]", "preconditioners = " + " ".join(kinds), "kappa_A = false", "tol = 1e-10",
        "max_iter = 2000", f"seed = {rng.integers(0, 1000)}", ""])


def test_run_verify_matches_dense_spectra_on_random_configs():
    # every row of every kind against the dense pencil (A, M); a config
    # whose mu the bounds reject counts as a DominanceError, not a failure
    rng = np.random.default_rng(2030)
    rejected, concurrent = 0, set()
    for _ in range(DIFFERENTIAL_CONFIGS):
        text = differential_config(rng)
        cfg = parse_config(text)
        try:
            table = run_verify(cfg)
        except DominanceError:
            rejected += 1
            continue
        first, *others = cfg.preconditioners  # the first on this thread, the others on the worker
        concurrent.update((first, other) for other in others)
        mesh, field, _mu, _mu_class = mesh_and_field(cfg)
        for row, degree in enumerate(degree_sweep(cfg)):
            prob = operator.DiscreteProblem.build(cfg.family, index_set(cfg, degree), mesh, field)
            for kind in cfg.preconditioners:
                lo, hi = dense_pencil_extremes(prob, dense_preconditioner_matrix(prob, kind))
                kappa = table.value(row, operator.PRECONDITIONER_KINDS[kind].column)
                assert kappa == pytest.approx(hi / lo, rel=1e-7), (text, degree, kind)
                if kind == operator.MEAN_BASED:
                    assert table.value(row, "lambda_min") == pytest.approx(lo, rel=1e-7), text
                    assert table.value(row, "lambda_max") == pytest.approx(hi, rel=1e-7), text
    assert rejected <= DIFFERENTIAL_CONFIGS // 4
    # every ordered pair of kinds that share a basis ran side by side
    assert concurrent == {(a, b) for basis in ("complete", "tensor")
                          for a in kinds_on(basis) for b in kinds_on(basis) if a != b}


class TestRunSolve:
    def test_solver_comparison_rows(self, cfg):
        t = run_solve(cfg)
        assert len(t.rows) == 3
        names = [t.rows[i]["preconditioner"].value for i in range(3)]
        assert names == ["mean_based", "splitting_complete", "gs2"]
        for i in range(3):
            assert t.value(i, "iterations") >= 1
            assert t.value(i, "residual") <= 1e-8
        # tighter conditioning never needs more iterations up to noise
        its = {n: t.value(i, "iterations") for i, n in enumerate(names)}
        assert its["gs2"] <= its["mean_based"] + 2
        # iterations print as integers, residual and seconds with .2e
        for line in t.render("csv").splitlines()[1:]:
            iterations, residual, seconds = line.split(",")[3:6]
            assert re.fullmatch(r"\d+", iterations)
            assert re.fullmatch(r"\d\.\d\de-\d\d", residual)
            assert re.fullmatch(r"\d\.\d\de[-+]\d\d", seconds)


    def test_solves_at_the_largest_listed_degree(self, cfg):
        # K = 2 at degree 2: C(4, 2) = 6 indices on the 9 interior nodes
        from dataclasses import replace

        t = run_solve(replace(cfg, degrees=(2, 1), preconditioners=("mean_based",)))
        mesh = mesh_and_field(cfg)[0]
        assert t.value(0, "degree") == 2
        assert t.value(0, "N") == math.comb(cfg.nterms + 2, 2) * mesh.n_interior == 54


class TestConcurrentSolves:
    """The preconditioners are built on the calling thread, then the first
    kind's CG solve runs there and the others on one worker."""

    def test_the_first_solve_runs_here_and_the_others_on_one_worker(self, cfg, monkeypatch):
        pcg, build = eigsolve.pcg, operator.build_preconditioner
        factor, band_init = operator._factor, operator._BandCholesky.__init__
        caller, kinds, solves, events = threading.current_thread(), {}, [], []

        def built(problem, kind):
            events.append(("build", threading.current_thread()))
            m = build(problem, kind)
            kinds[id(m)] = kind
            return m

        def factored(block):
            events.append(("factor", threading.current_thread()))
            return factor(block)

        def banded(band, block, count):
            events.append(("factor", threading.current_thread()))
            band_init(band, block, count)

        def solved(a, m, b, **kwargs):
            solves.append((kinds[id(m)], threading.current_thread()))
            return pcg(a, m, b, **kwargs)

        monkeypatch.setattr(operator, "build_preconditioner", built)
        monkeypatch.setattr(operator, "_factor", factored)
        monkeypatch.setattr(operator._BandCholesky, "__init__", banded)
        monkeypatch.setattr(eigsolve, "pcg", solved)
        table = run_solve(cfg)
        assert [row["preconditioner"].value for row in table.rows] == list(cfg.preconditioners)
        threads = dict(solves)
        assert set(threads) == set(cfg.preconditioners)
        first, *others = cfg.preconditioners
        assert threads[first] is caller
        assert len({threads[kind] for kind in others}) == 1
        assert threads[others[0]] is not caller
        steps = [step for step, _ in events]
        assert steps.count("build") == 3 and steps.count("factor") == 2  # F0 and one band
        assert all(thread is caller for _, thread in events)

    def test_one_kind_starts_no_thread(self, cfg, monkeypatch):
        from dataclasses import replace

        pcg = eigsolve.pcg
        solves = []

        def solved(*args, **kwargs):
            solves.append((threading.current_thread(), threading.active_count()))
            return pcg(*args, **kwargs)

        monkeypatch.setattr(eigsolve, "pcg", solved)
        before = threading.active_count()
        run_solve(replace(cfg, preconditioners=("mean_based",)))
        assert [thread for thread, _ in solves] == [threading.main_thread()]
        assert {count for _, count in solves} == {before} == {threading.active_count()}

    def test_the_error_raised_is_the_first_kinds(self, cfg, monkeypatch):
        # the first kind's solve, held back and capped at 2 iterations, fails
        # after the worker's, capped at 3; the serial loop raises the first
        from dataclasses import replace

        pcg, build = eigsolve.pcg, operator.build_preconditioner
        two = replace(cfg, preconditioners=("splitting_complete", "gs2"))
        kinds, failed = {}, []

        def built(problem, kind):
            m = build(problem, kind)
            kinds[id(m)] = kind
            return m

        def capped(a, m, b, **kwargs):
            first = kinds[id(m)] == two.preconditioners[0]
            if first:
                time.sleep(0.05)
            try:
                return pcg(a, m, b, **dict(kwargs, max_iter=2 if first else 3))
            except ConvergenceError:
                failed.append(kinds[id(m)])
                raise

        monkeypatch.setattr(operator, "build_preconditioner", built)
        monkeypatch.setattr(eigsolve, "pcg", capped)
        before = threading.active_count()
        with pytest.raises(ConvergenceError) as err:
            run_solve(two)
        assert failed == ["gs2", "splitting_complete"]
        assert str(err.value) == "conjugate gradients did not reach 1e-08 in 2 iterations"
        assert threading.active_count() == before


class TestCoefficientTableConfigs:
    def test_verify_from_table_file(self, tmp_path):
        rows = "\n".join("1.0 0.3 -0.2" for _ in range(10))
        table_path = tmp_path / "coeffs.txt"
        table_path.write_text(rows + "\n")
        text = CFG.replace(
            "a0 = 1\na1 = 0.4*chi(0,1/2)\na2 = 0.3*sin(pi*x1)", f"table = {table_path}"
        )
        t = run_verify(parse_config(text))
        assert t.value(0, "mu") == pytest.approx(0.5)
        assert t.value(0, "c_lower") - 1e-8 <= t.value(0, "lambda_min")

    def test_table_column_mismatch(self, tmp_path):
        table_path = tmp_path / "coeffs.txt"
        table_path.write_text("\n".join("1.0 0.3" for _ in range(10)) + "\n")
        text = CFG.replace(
            "a0 = 1\na1 = 0.4*chi(0,1/2)\na2 = 0.3*sin(pi*x1)", f"table = {table_path}"
        )
        from sgprecond.errors import UsageError

        with pytest.raises(UsageError):
            run_verify(parse_config(text))


class TestFamilyEquivalence:
    def test_gegenbauer_gamma_one_matches_chebyshev(self):
        cheb = parse_config(CFG.replace("family = legendre", "family = chebyshev_u"))
        geg = parse_config(
            CFG.replace("family = legendre", "family = gegenbauer\ngamma = 1.0")
        )
        a = run_bounds(cheb)
        b = run_bounds(geg)
        for row in range(2):
            for col in ("c_lower", "c_upper", "inv_d_t", "ratio", "t"):
                assert a.value(row, col) == pytest.approx(b.value(row, col), abs=1e-12)


class TestSolveTolerances:
    def test_coarse_tolerance_stops_earlier(self, cfg):
        from dataclasses import replace

        coarse = run_solve(replace(cfg, tol=1e-2, preconditioners=("mean_based",)))
        fine = run_solve(replace(cfg, tol=1e-10, preconditioners=("mean_based",)))
        assert coarse.value(0, "iterations") < fine.value(0, "iterations")


class TestQuadratureReport:
    def test_report_contents(self):
        text = quadrature_report(legendre(), 4, 1.0)
        assert "0.5714285714" in text
        assert "1/d_4 (recursion)  1.75" in text

    def test_raw_digits(self):
        text = quadrature_report(legendre(), 2, 0.5, raw=True)
        assert "0.91666666666666663" in text  # d_2 = 1 - 0.25/3
