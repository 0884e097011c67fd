from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, lobpcg

from helpers import dense_preconditioner_matrix
from sgprecond import eigsolve
from sgprecond.basis import MultiIndexSet
from sgprecond.config import load_config
from sgprecond.eigsolve import CHECK_EVERY, extreme_eigs, extreme_eigs_generalized, pcg
from sgprecond.errors import ConvergenceError
from sgprecond.fem import build_mesh, load_vector, sample_coefficients
from sgprecond.operator import MEAN_BASED, DiscreteProblem, build_preconditioner
from sgprecond.orthopoly import legendre

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def make_problem(exprs, n=6, order=3, nvars=None):
    mesh = build_mesh(1, n)
    field = sample_coefficients(list(exprs), mesh)
    iset = MultiIndexSet.complete(nvars or (len(exprs) - 1), order)
    return DiscreteProblem.build(legendre(), iset, mesh, field)


class _DenseOp:
    def __init__(self, mat):
        self.mat = mat
        self.shape = mat.shape

    def matvec(self, v):
        return self.mat @ v


class _DenseSolve:
    def __init__(self, mat):
        self.factor = scipy.linalg.cho_factor(mat)

    def solve(self, r):
        return scipy.linalg.cho_solve(self.factor, r)


class _NoSolve:
    """M = I: the plain Lanczos pencil, or LOBPCG without a preconditioner."""

    def solve(self, r):
        return np.array(r, dtype=float)


class TestGeneralizedLanczos:
    def test_exact_preconditioner_gives_unit_spectrum(self):
        prob = make_problem(["1", "0.4"])
        a = prob.operator.matrix.toarray()
        est = extreme_eigs_generalized(prob.operator, _DenseSolve(a), tol=1e-10)
        assert est.lambda_min == pytest.approx(1.0, abs=1e-10)
        assert est.lambda_max == pytest.approx(1.0, abs=1e-10)

    def test_random_pencils_match_dense(self):
        rng = np.random.default_rng(123)
        for n in (40, 120, 200):
            q = rng.standard_normal((n, n))
            a = q @ q.T + n * np.eye(n)
            q2 = rng.standard_normal((n, n))
            m = q2 @ q2.T + n * np.eye(n)
            w = scipy.linalg.eigh(a, m, eigvals_only=True)
            est = extreme_eigs_generalized(_DenseOp(a), _DenseSolve(m), tol=1e-10, max_iter=n)
            assert est.lambda_min == pytest.approx(w[0], rel=1e-8)
            assert est.lambda_max == pytest.approx(w[-1], rel=1e-8)

    def test_low_end_alone_meets_tol_in_no_more_steps(self):
        # the run stops at the first Ritz check where the low end meets tol
        rng = np.random.default_rng(5)
        for n in (60, 150):
            q = rng.standard_normal((n, n))
            a = q @ q.T + n * np.eye(n)
            q2 = rng.standard_normal((n, n))
            m = q2 @ q2.T + n * np.eye(n)
            w = scipy.linalg.eigh(a, m, eigvals_only=True)
            low = extreme_eigs_generalized(_DenseOp(a), _DenseSolve(m), tol=1e-8, max_iter=n)
            assert low.residual_norms[0] <= 1e-8
            assert low.lambda_min == pytest.approx(w[0], rel=1e-7)
            assert low.iterations % CHECK_EVERY == 0 and low.iterations < n
            with pytest.raises(ConvergenceError) as err:
                extreme_eigs_generalized(_DenseOp(a), _DenseSolve(m), tol=1e-8,
                                         max_iter=low.iterations - CHECK_EVERY)
            assert err.value.estimate.residual_norms[0] > 1e-8

    def test_dgks_reorthogonalization_keeps_the_basis_m_orthonormal(self):
        # the first pencil of test_random_pencils_match_dense, run to exhaustion
        rng = np.random.default_rng(123)
        n = 40
        q = rng.standard_normal((n, n))
        a = q @ q.T + n * np.eye(n)
        q2 = rng.standard_normal((n, n))
        m = q2 @ q2.T + n * np.eye(n)
        _, (qs, ps) = extreme_eigs_generalized(_DenseOp(a), _DenseSolve(m), tol=1e-14,
                                               max_iter=n, return_basis=True)
        assert np.abs(qs.T @ ps - np.eye(qs.shape[1])).max() <= 1e-12

    def test_problem_pencil_matches_dense(self):
        prob = make_problem(["1", "0.3*sin(pi*x1)", "0.2*x1"], n=7, order=3)
        m = build_preconditioner(prob, MEAN_BASED)
        a = prob.operator.matrix.toarray()
        md = dense_preconditioner_matrix(prob, MEAN_BASED)
        w = scipy.linalg.eigh(a, md, eigvals_only=True)
        est = extreme_eigs_generalized(prob.operator, m, tol=1e-9)
        assert est.lambda_min == pytest.approx(w[0], rel=1e-8)
        assert est.lambda_max == pytest.approx(w[-1], rel=1e-8)

    def test_residuals_below_tolerance(self):
        prob = make_problem(["1", "0.5*chi(0,1/2)"], n=10, order=4)
        m = build_preconditioner(prob, MEAN_BASED)
        est = extreme_eigs_generalized(prob.operator, m, tol=1e-8)
        assert max(est.residual_norms) <= 1e-8

    def test_basis_stays_m_orthonormal(self):
        prob = make_problem(["1", "0.4", "0.2"], n=6, order=3)
        m = build_preconditioner(prob, MEAN_BASED)
        est, (qs, ps) = extreme_eigs_generalized(
            prob.operator, m, tol=1e-9, return_basis=True
        )
        gram = qs.T @ ps  # q_i^T M q_j
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-8
        assert np.allclose(np.diag(gram), 1.0, atol=1e-8)

    def test_nonconvergence_carries_estimate(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((60, 60))
        a = q @ q.T + 60 * np.eye(60)
        with pytest.raises(ConvergenceError) as err:
            extreme_eigs_generalized(_DenseOp(a), _NoSolve(), tol=1e-14, max_iter=4)
        assert err.value.estimate is not None
        assert err.value.estimate.iterations == 4

    def test_nan_operator_is_a_convergence_failure(self):
        a = np.eye(30)
        a[3, 7] = np.nan
        with pytest.raises(ConvergenceError):
            extreme_eigs_generalized(_DenseOp(a), _NoSolve(), tol=1e-8)

    def test_negative_definite_m_degenerates_the_start_vector(self):
        # a solve that returns -r makes M negative definite at every start
        class _Negated:
            def solve(self, r):
                return -np.asarray(r, dtype=float)

        with pytest.raises(ConvergenceError, match="Lanczos start vector degenerated"):
            extreme_eigs_generalized(_DenseOp(np.eye(8)), _Negated(), tol=1e-8)


class TestExtremeEigs:
    @staticmethod
    def _assert_matches_eigvalsh(prob):
        m = build_preconditioner(prob, MEAN_BASED)
        w = np.linalg.eigvalsh(prob.operator.matrix.toarray())
        est = extreme_eigs(prob.operator, m, tol=1e-8)
        assert est.lambda_min == pytest.approx(w[0], rel=1e-8)
        assert est.lambda_max == pytest.approx(w[-1], rel=1e-8)
        assert max(est.residual_norms) <= 1e-8

    def test_matches_eigvalsh_1d(self):
        self._assert_matches_eigvalsh(make_problem(["1", "0.4"], n=5, order=2))

    def test_matches_eigvalsh_2d_p1(self):
        mesh = build_mesh(2, (5, 5), element="p1")
        field = sample_coefficients(["1", "0.3*x1", "0.2*x2"], mesh)
        prob = DiscreteProblem.build(legendre(), MultiIndexSet.complete(2, 2), mesh, field)
        self._assert_matches_eigvalsh(prob)

    def test_accelerated_inverse_path(self):
        prob = make_problem(["1", "0.3", "0.2"], n=12, order=3)
        m = build_preconditioner(prob, MEAN_BASED)
        a = prob.operator.matrix.toarray()
        w = np.linalg.eigvalsh(a)
        est = extreme_eigs(prob.operator, tol=1e-8, accel=m)
        assert est.lambda_min == pytest.approx(w[0], rel=1e-7)
        assert est.lambda_max == pytest.approx(w[-1], rel=1e-7)

    def test_stopping_short_raises_with_estimate(self):
        prob = make_problem(["1", "0.3", "0.2"], n=12, order=3)
        w = np.linalg.eigvalsh(prob.operator.matrix.toarray())
        with pytest.raises(ConvergenceError) as err:
            extreme_eigs(prob.operator, _NoSolve(), tol=1e-8, max_iter=40)
        est = err.value.estimate
        assert est is not None
        assert est.residual_norms[0] > 1e-8 >= est.residual_norms[1]
        assert est.lambda_max == pytest.approx(w[-1], rel=1e-8)
        assert est.lambda_min >= w[0]
        assert est.iterations > 40
        assert "after 40 iterations" in str(err.value) and "residual" in str(err.value)

    def test_nan_operator_is_a_convergence_failure(self, capfd):
        a = np.eye(30)
        a[3, 7] = np.nan
        with pytest.raises(ConvergenceError, match="NaN"):
            extreme_eigs(_DenseOp(a), _NoSolve(), tol=1e-8)
        # raised before ARPACK's LAPACK complains about the NaN on fd 1
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out + captured.err

    def test_separable_start_bounds_the_iterations(self):
        # table3_setting1 at degree 7 (N = 3480): the start M^-1 1 took 302-313
        cfg = load_config(CONFIG_DIR / "table3_setting1.cfg")
        mesh = build_mesh(cfg.dim, cfg.elements, cfg.element)
        field = sample_coefficients(cfg.coefficients, mesh)
        prob = DiscreteProblem.build(cfg.family, MultiIndexSet.complete(cfg.nterms, 8), mesh, field)
        assert prob.operator.shape == (3480, 3480)
        m = build_preconditioner(prob, MEAN_BASED)
        for seed in (42, 1, 7, 8101):
            est = extreme_eigs(prob.operator, m, tol=cfg.tol, max_iter=cfg.max_iter, seed=seed)
            assert est.iterations <= 220, seed
            assert est.residual_norms[0] <= cfg.tol, seed

    def test_carried_residual_at_the_rounding_floor_is_checked_afresh(self):
        # table3_setting1 at degree 2 (N = 290, ||A||_inf = 162) at tol 1e-13:
        # the carried image of x drifted from A x, so its residual passed the
        # rule while a fresh product read 1.14e-13, above tol; the run now
        # goes on from x whenever a fresh product fails the rule
        cfg = load_config(CONFIG_DIR / "table3_setting1.cfg")
        mesh = build_mesh(cfg.dim, cfg.elements, cfg.element)
        field = sample_coefficients(cfg.coefficients, mesh)
        prob = DiscreteProblem.build(cfg.family, MultiIndexSet.complete(cfg.nterms, 3), mesh, field)
        assert prob.operator.shape == (290, 290)
        w = np.linalg.eigvalsh(prob.operator.matrix.toarray())
        est = extreme_eigs(prob.operator, build_preconditioner(prob, MEAN_BASED), tol=1e-13,
                           max_iter=cfg.max_iter, seed=cfg.seed)
        assert est.residual_norms[0] <= 1e-13
        assert est.lambda_min == pytest.approx(w[0], rel=1e-13)

    @pytest.mark.parametrize("tol", (1e-13, 1e-14))
    def test_lobpcg_stops_at_the_rounding_floor(self, tol):
        # table3_setting1 at degree 2: fresh relative residuals stall near
        # 3e-14, far above the stopping rule's 1e-2 tol; the run used to
        # spend all 400 iterations there.  It now stops once a fresh residual
        # is no smaller than the one before, and extreme_eigs judges it; at
        # 1e-14 a fresh product once the carried residual stalls at the
        # floor ends it after 81 iterations, against 159 without.
        cfg = load_config(CONFIG_DIR / "table3_setting1.cfg")
        mesh = build_mesh(cfg.dim, cfg.elements, cfg.element)
        field = sample_coefficients(cfg.coefficients, mesh)
        prob = DiscreteProblem.build(cfg.family, MultiIndexSet.complete(cfg.nterms, 3), mesh, field)
        m = build_preconditioner(prob, MEAN_BASED)
        solves = []

        class _Counted:
            def solve(self, r):
                solves.append(1)
                return m.solve(r)

        assert cfg.max_iter == 400
        if tol == 1e-13:
            est = extreme_eigs(prob.operator, _Counted(), tol=tol, max_iter=cfg.max_iter,
                               seed=cfg.seed)
            assert est.residual_norms[0] <= tol
            assert len(solves) < 100
        else:
            with pytest.raises(ConvergenceError, match="above tolerance"):
                extreme_eigs(prob.operator, _Counted(), tol=tol, max_iter=cfg.max_iter,
                             seed=cfg.seed)
            assert len(solves) < 100

    def test_nan_preconditioner_is_a_convergence_failure(self):
        prob = make_problem(["1", "0.3", "0.2"], n=12, order=3)

        class _NanSolve:
            def solve(self, r):
                return np.full(np.shape(r), np.nan)

        with pytest.raises(ConvergenceError):
            extreme_eigs(prob.operator, _NanSolve(), tol=1e-8)

    def test_overflowing_start_is_a_convergence_failure(self):
        # a finite but huge M^-1 1 makes u^T F_k u overflow
        prob = make_problem(["1", "0.3", "0.2"], n=12, order=3)

        class _HugeSolve:
            def solve(self, r):
                return 1e300 * np.asarray(r)

        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="Rayleigh quotient"):
            extreme_eigs(prob.operator, _HugeSolve(), tol=1e-8)

    def test_one_unknown_is_answered_directly(self):
        # ARPACK needs more unknowns than wanted eigenvalues
        mesh = build_mesh(1, 2)
        field = sample_coefficients(["1", "0.3"], mesh)
        prob = DiscreteProblem.build(legendre(), MultiIndexSet.tensor((1,)), mesh, field)
        assert prob.operator.shape == (1, 1)
        est = extreme_eigs(prob.operator, build_preconditioner(prob, MEAN_BASED), tol=1e-8)
        assert est.lambda_min == pytest.approx(4.0, rel=1e-12)
        assert est.lambda_max == pytest.approx(4.0, rel=1e-12)

    def test_arpack_out_of_restarts_is_a_convergence_failure(self):
        prob = make_problem(["1", "0.3", "0.2"], n=30, order=4)
        assert prob.operator.shape == (290, 290)
        m = build_preconditioner(prob, MEAN_BASED)
        with pytest.raises(ConvergenceError, match="ARPACK") as err:
            extreme_eigs(prob.operator, m, tol=1e-8, max_iter=1)
        assert isinstance(err.value.__cause__, ArpackNoConvergence)

    def test_identity_like_problem(self):
        # single interior node: blocks are scalars, operator is diagonal;
        # n = 3, so LOBPCG's basis spans the space by its second iteration
        prob = make_problem(["1", "0"], n=2, order=3)
        m = build_preconditioner(prob, MEAN_BASED)
        est = extreme_eigs(prob.operator, m, tol=1e-10)
        assert est.lambda_min == pytest.approx(est.lambda_max, rel=1e-12)

    @pytest.mark.parametrize("order", (2, 3))
    def test_basis_that_fills_the_space_gives_the_exact_minimum(self, order):
        # one interior node, so n = order: the Rayleigh-Ritz basis spans the
        # space after n - 1 iterations, and 1e-2 tol lies below rounding
        prob = make_problem(["1", "0.4"], n=2, order=order)
        assert prob.operator.shape == (order, order)
        w = np.linalg.eigvalsh(prob.operator.matrix.toarray())
        est = extreme_eigs(prob.operator, build_preconditioner(prob, MEAN_BASED), tol=1e-14)
        assert est.lambda_min == pytest.approx(w[0], rel=1e-14)
        assert est.lambda_max == pytest.approx(w[-1], rel=1e-14)


class TestLobpcgAgainstScipy:
    """The LOBPCG loop of ``extreme_eigs`` against scipy's lobpcg from the
    same start, at the same tolerance, with the same preconditioner."""

    @staticmethod
    def _compare(prob, monkeypatch, tol=1e-8, max_iter=400):
        m = build_preconditioner(prob, MEAN_BASED)
        calls = []
        own = eigsolve._lobpcg_min

        def recorded(a, x, precondition, stop, cap):
            solves = []

            def counted(r):
                solves.append(1)
                return precondition(r)

            result = own(a, x, counted, stop, cap)
            calls.append((x.copy(), stop, cap, len(solves)))
            return result

        monkeypatch.setattr(eigsolve, "_lobpcg_min", recorded)
        est = extreme_eigs(prob.operator, m, tol=tol, max_iter=max_iter)
        (x0, stop, cap, steps), = calls
        assert stop == 1e-2 * tol and cap == max_iter
        ref_steps = []

        def ref_solve(r):
            ref_steps.append(1)
            return m.solve(r)

        shape = prob.operator.shape
        lam, _ = lobpcg(LinearOperator(shape, matvec=prob.operator.matvec, dtype=float),
                        x0[:, None], M=LinearOperator(shape, matvec=ref_solve, dtype=float),
                        largest=False, tol=stop, maxiter=max_iter)
        assert est.lambda_min == pytest.approx(lam[0], rel=1e-12)
        assert abs(steps - len(ref_steps)) <= 1, (steps, len(ref_steps))

    def test_1d(self, monkeypatch):
        self._compare(make_problem(["1", "0.3", "0.2"], n=12, order=3), monkeypatch)

    def test_2d_p1(self, monkeypatch):
        mesh = build_mesh(2, (5, 5), element="p1")
        field = sample_coefficients(["1", "0.3*x1", "0.2*x2"], mesh)
        prob = DiscreteProblem.build(legendre(), MultiIndexSet.complete(2, 3), mesh, field)
        self._compare(prob, monkeypatch)


class TestPcg:
    def test_zero_rhs(self):
        prob = make_problem(["1", "0.4"])
        m = build_preconditioner(prob, MEAN_BASED)
        x, its, hist = pcg(prob.operator, m, np.zeros(prob.operator.shape[0]))
        assert np.all(x == 0.0) and its == 0 and hist == [0.0]

    def test_exact_preconditioner_one_iteration(self):
        prob = make_problem(["1", "0.4"])
        a = prob.operator.matrix.toarray()
        b = np.linspace(1, 2, a.shape[0])
        x, its, hist = pcg(prob.operator, _DenseSolve(a), b, tol=1e-12)
        assert its == 1
        assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)

    def test_converges_and_residual_tolerance_holds(self):
        prob = make_problem(["1", "0.3*sin(pi*x1)"], n=20, order=4)
        m = build_preconditioner(prob, MEAN_BASED)
        b = np.zeros(prob.operator.shape[0])
        b[: prob.mesh.n_interior] = load_vector(prob.mesh, "1")
        x, its, hist = pcg(prob.operator, m, b, tol=1e-10)
        res = np.linalg.norm(b - prob.operator.matvec(x)) / np.linalg.norm(b)
        assert res <= 1e-10 and hist[-1] <= 1e-10

    def test_energy_norm_monotone(self):
        prob = make_problem(["1", "0.5*chi(0,1/2)", "0.2"], n=8, order=3)
        m = build_preconditioner(prob, MEAN_BASED)
        a = prob.operator.matrix.toarray()
        b = np.zeros(a.shape[0])
        b[: prob.mesh.n_interior] = load_vector(prob.mesh, "1")
        x_star = np.linalg.solve(a, b)
        iterates = []
        pcg(prob.operator, m, b, tol=1e-12, callback=iterates.append)
        errs = [np.sqrt((x_star - x) @ (a @ (x_star - x))) for x in iterates]
        assert all(e1 <= e0 * (1 + 1e-12) for e0, e1 in zip(errs, errs[1:]))

    def test_indefinite_operator_is_a_convergence_failure(self):
        # A = diag(1, -1) with b = (1, 1): the first direction b has zero
        # curvature, so CG stops before dividing by it
        a = _DenseOp(np.diag([1.0, -1.0]))
        with pytest.raises(ConvergenceError,
                           match="nonpositive curvature direction") as err:
            pcg(a, _NoSolve(), np.ones(2))
        assert err.value.history == []

    def test_max_iter_error_carries_history(self):
        prob = make_problem(["1", "0.3"], n=30, order=3)
        m = _DenseSolve(np.eye(prob.operator.shape[0]))  # unpreconditioned
        b = np.ones(prob.operator.shape[0])
        with pytest.raises(ConvergenceError) as err:
            pcg(prob.operator, m, b, tol=1e-14, max_iter=3)
        assert len(err.value.history) == 3
