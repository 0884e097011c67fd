import numpy as np
import pytest
import scipy.linalg

from helpers import dense_preconditioner_matrix
from sgprecond.basis import MultiIndexSet
from sgprecond.eigsolve import extreme_eigs, extreme_eigs_generalized, pcg
from sgprecond.errors import ConvergenceError
from sgprecond.fem import build_mesh, load_vector, sample_coefficients
from sgprecond.operator import MEAN_BASED, DiscreteProblem, build_preconditioner
from sgprecond.orthopoly import legendre


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


class TestGeneralizedLanczos:
    def test_exact_preconditioner_gives_unit_spectrum(self):
        prob = make_problem(["1", "0.4"])
        a = prob.operator.assemble_dense()
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

    def test_problem_pencil_matches_dense(self):
        prob = make_problem(["1", "0.3*sin(pi*x1)", "0.2*x1"], n=7, order=3)
        m = build_preconditioner(prob, MEAN_BASED)
        a = prob.operator.assemble_dense()
        md = dense_preconditioner_matrix(prob, m)
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
            extreme_eigs_generalized(_DenseOp(a), None, tol=1e-14, max_iter=4)
        assert err.value.estimate is not None
        assert err.value.estimate.iterations == 4

    def test_nan_operator_is_a_convergence_failure(self):
        a = np.eye(30)
        a[3, 7] = np.nan
        with pytest.raises(ConvergenceError):
            extreme_eigs_generalized(_DenseOp(a), None, tol=1e-8)


class _NoSolve:
    """M = I: LOBPCG without a preconditioner."""

    def solve(self, r):
        return np.array(r, dtype=float)


class TestExtremeEigs:
    @staticmethod
    def _assert_matches_eigvalsh(prob):
        m = build_preconditioner(prob, MEAN_BASED)
        w = np.linalg.eigvalsh(prob.operator.assemble_dense())
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
        a = prob.operator.assemble_dense()
        w = np.linalg.eigvalsh(a)
        est = extreme_eigs(prob.operator, tol=1e-8, accel=m)
        assert est.lambda_min == pytest.approx(w[0], rel=1e-7)
        assert est.lambda_max == pytest.approx(w[-1], rel=1e-7)

    def test_stopping_short_raises_with_estimate(self):
        prob = make_problem(["1", "0.3", "0.2"], n=12, order=3)
        w = np.linalg.eigvalsh(prob.operator.assemble_dense())
        with pytest.raises(ConvergenceError) as err:
            extreme_eigs(prob.operator, _NoSolve(), tol=1e-8, max_iter=40)
        est = err.value.estimate
        assert est is not None
        assert est.residual_norms[0] > 1e-8 >= est.residual_norms[1]
        assert est.lambda_max == pytest.approx(w[-1], rel=1e-8)
        assert est.lambda_min >= w[0]
        assert est.iterations > 40
        assert "iterations" in str(err.value) and "residual" in str(err.value)

    def test_nan_operator_is_a_convergence_failure(self):
        a = np.eye(30)
        a[3, 7] = np.nan
        with pytest.raises(ConvergenceError):
            extreme_eigs(_DenseOp(a), _NoSolve(), tol=1e-8)

    def test_nan_preconditioner_is_a_convergence_failure(self):
        prob = make_problem(["1", "0.3", "0.2"], n=12, order=3)

        class _NanSolve:
            def solve(self, r):
                return np.full(np.shape(r), np.nan)

        with pytest.raises(ConvergenceError):
            extreme_eigs(prob.operator, _NanSolve(), tol=1e-8)

    def test_identity_like_problem(self):
        # single interior node: blocks are scalars, operator is diagonal;
        # n = 3 is below LOBPCG's minimum, so scipy solves it densely
        prob = make_problem(["1", "0"], n=2, order=3)
        m = build_preconditioner(prob, MEAN_BASED)
        est = extreme_eigs(prob.operator, m, tol=1e-10)
        assert est.lambda_min == pytest.approx(est.lambda_max, rel=1e-12)


class TestPcg:
    def test_zero_rhs(self):
        prob = make_problem(["1", "0.4"])
        m = build_preconditioner(prob, MEAN_BASED)
        x, its, hist = pcg(prob.operator, m, np.zeros(prob.operator.shape[0]))
        assert np.all(x == 0.0) and its == 0 and hist == [0.0]

    def test_exact_preconditioner_one_iteration(self):
        prob = make_problem(["1", "0.4"])
        a = prob.operator.assemble_dense()
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
        a = prob.operator.assemble_dense()
        b = np.zeros(a.shape[0])
        b[: prob.mesh.n_interior] = load_vector(prob.mesh, "1")
        x_star = np.linalg.solve(a, b)
        iterates = []
        pcg(prob.operator, m, b, tol=1e-12, callback=iterates.append)
        errs = [np.sqrt((x_star - x) @ (a @ (x_star - x))) for x in iterates]
        assert all(e1 <= e0 * (1 + 1e-12) for e0, e1 in zip(errs, errs[1:]))

    def test_max_iter_error_carries_history(self):
        prob = make_problem(["1", "0.3"], n=30, order=3)
        m = None
        b = np.ones(prob.operator.shape[0])
        with pytest.raises(ConvergenceError) as err:
            pcg(prob.operator, m, b, tol=1e-14, max_iter=3)
        assert len(err.value.history) == 3
