import math
import os
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse
from scipy.sparse.linalg import aslinearoperator

from helpers import (
    dense_gs2_matrix,
    dense_preconditioner_matrix,
    first_coloring_fault,
    indefinite_shift,
    kept_mask,
    kinds_on,
    random_instance,
)
from sgprecond import operator
from sgprecond.basis import MultiIndexSet, assemble_G
from sgprecond.errors import EnclosureError, FactorizationError, UsageError
from sgprecond.experiments import Cell, ResultTable
from sgprecond.fem import assemble_F, build_mesh, sample_coefficients
from sgprecond.operator import (
    GAUSS_SEIDEL_2,
    MEAN_BASED,
    SPLITTING_COMPLETE,
    SPLITTING_TP,
    TRUNCATED_TP,
    DiscreteProblem,
    GalerkinOperator,
    build_preconditioner,
)
from sgprecond.orthopoly import chebyshev_u, hermite, legendre

B1 = 1 / math.sqrt(3)
B2 = 2 / math.sqrt(15)


def small_problem(basis="complete", exprs=("1", "0.5"), n=2, order=3):
    mesh = build_mesh(1, n)
    field = sample_coefficients(list(exprs), mesh)
    if basis == "complete":
        iset = MultiIndexSet.complete(len(exprs) - 1, order)
    else:
        orders = order if isinstance(order, tuple) else (order,) * (len(exprs) - 1)
        iset = MultiIndexSet.tensor(orders)
    return DiscreteProblem.build(legendre(), iset, mesh, field)


def small_2d_problem(basis="complete", elements=5, nvars=2, order=3):
    mesh = build_mesh(2, (elements, elements), "p1")
    exprs = ["1", "0.4*x1", "0.3*sin(pi*x2)", "0.2*x1*x2"][: nvars + 1]
    field = sample_coefficients(exprs, mesh)
    if basis == "complete":
        iset = MultiIndexSet.complete(nvars, order)
    else:
        iset = MultiIndexSet.tensor((order,) * nvars)
    return DiscreteProblem.build(legendre(), iset, mesh, field)


def kron_reference(prob) -> np.ndarray:
    """sum_k G_k (x) F_k formed densely from the problem's terms."""
    return sum(np.kron(g.toarray(), f.toarray()) for g, f in zip(prob.operator.gs, prob.operator.fs))


class TestMatvec:
    def test_univariate_block_tridiagonal_structure(self):
        prob = small_problem()
        f0 = assemble_F(prob.mesh, prob.field, 0).toarray()
        f1 = assemble_F(prob.mesh, prob.field, 1).toarray()
        z = np.zeros_like(f0)
        expect = np.block([[f0, B1 * f1, z], [B1 * f1, f0, B2 * f1], [z, B2 * f1, f0]])
        assert np.allclose(prob.operator.matrix.toarray(), expect, atol=1e-14)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            mesh, iset, field = random_instance(rng, legendre())
            prob = DiscreteProblem.build(legendre(), iset, mesh, field)
            dense = kron_reference(prob)
            scale = np.abs(dense).max()
            for _ in range(3):
                v = rng.standard_normal(dense.shape[0])
                err = np.linalg.norm(prob.operator.matvec(v) - dense @ v)
                assert err <= 1e-12 * scale * np.linalg.norm(v)

    def test_zero_vector(self):
        prob = small_problem()
        assert np.all(prob.operator.matvec(np.zeros(prob.operator.shape[0])) == 0.0)

    def test_mean_only_operator_acts_blockwise(self):
        mesh = build_mesh(1, 5)
        field = sample_coefficients(["1+x1"], mesh)
        iset = MultiIndexSet.complete(1, 3)
        gs = [assemble_G(legendre(), iset, 0)]
        fs = [assemble_F(mesh, field, 0)]
        op = GalerkinOperator(gs, fs)
        v = np.arange(op.shape[0], dtype=float)
        out = op.matvec(v)
        f0 = fs[0].toarray()
        for block in range(3):
            seg = slice(block * 4, block * 4 + 4)
            assert np.allclose(out[seg], f0 @ v[seg], atol=1e-14)

    def test_dimension_mismatch(self):
        prob = small_problem()
        n = prob.operator.shape[0]
        for bad in (np.zeros(5), np.zeros((n, 2)), np.zeros((1, n))):
            with pytest.raises(ValueError):
                prob.operator.matvec(bad)

    def test_linear_operator_matmat_matches_sparse(self):
        # scipy's LinearOperator hands matvec (n, 1) columns
        rng = np.random.default_rng(31)
        prob = small_problem(exprs=("1", "0.4", "0.3"), n=5, order=3)
        x = rng.standard_normal((prob.operator.shape[0], 2))
        expect = kron_reference(prob) @ x
        lin = aslinearoperator(prob.operator)
        assert np.allclose(lin.matmat(x), expect, rtol=0, atol=1e-13)
        column = prob.operator.matvec(x[:, :1])
        assert column.shape == (x.shape[0], 1)
        assert np.array_equal(column[:, 0], prob.operator.matvec(x[:, 0]))

    def test_symmetry_of_dense(self):
        rng = np.random.default_rng(5)
        mesh, iset, field = random_instance(rng, legendre())
        prob = DiscreteProblem.build(legendre(), iset, mesh, field)
        a = prob.operator.matrix.toarray()
        assert np.allclose(a, a.T, atol=1e-14)


class TestBuild:
    def test_build_assembles_its_own_terms_unless_given(self, monkeypatch):
        calls = []

        def counted(mesh, field, k):
            calls.append(k)
            return assemble_F(mesh, field, k)

        monkeypatch.setattr(operator, "assemble_F", counted)
        mesh = build_mesh(2, (5, 5), "p1")
        field = sample_coefficients(["1", "0.4*x1", "0.3*sin(pi*x2)"], mesh)
        first = DiscreteProblem.build(legendre(), MultiIndexSet.complete(2, 2), mesh, field)
        assert calls == [0, 1, 2]
        alone = DiscreteProblem.build(legendre(), MultiIndexSet.complete(2, 3), mesh, field)
        assert calls == [0, 1, 2] * 2
        shared = DiscreteProblem.build(legendre(), MultiIndexSet.complete(2, 3), mesh, field,
                                       like=first)
        assert calls == [0, 1, 2] * 2
        for f, g in zip(first.operator.fs, shared.operator.fs):
            assert np.shares_memory(f.data, g.data)
        assert shared.factor(1) is first.factor(1)
        for a, b in ((alone, shared), (first, alone)):
            for f, g in zip(a.operator.fs, b.operator.fs):
                assert (f != g).nnz == 0
        difference = alone.operator.matrix != shared.operator.matrix
        assert difference.nnz == 0

    def test_like_must_be_on_an_equal_mesh_and_field(self):
        exprs = ["1", "0.4*x1", "0.3*sin(pi*x2)"]
        mesh = build_mesh(2, (4, 4), "p1")
        first = DiscreteProblem.build(legendre(), MultiIndexSet.complete(2, 2), mesh,
                                      sample_coefficients(exprs, mesh))
        iset = MultiIndexSet.complete(2, 3)
        other_field = sample_coefficients(["1", "0.4*x1", "0.2*sin(pi*x2)"], mesh)
        # q1 on the same 4 x 4 squares takes the same field, with other F_k
        for other in ((build_mesh(2, (4, 4), "q1"), first.field), (mesh, other_field)):
            with pytest.raises(UsageError, match="like is a problem on another mesh"):
                DiscreteProblem.build(legendre(), iset, *other, like=first)
        # an equal but distinct mesh and field are accepted, and shared
        twin_mesh = build_mesh(2, (4, 4), "p1")
        twin_field = sample_coefficients(exprs, twin_mesh)
        assert twin_mesh is not mesh and twin_field is not first.field
        twin = DiscreteProblem.build(legendre(), iset, twin_mesh, twin_field, like=first)
        for f, g in zip(first.operator.fs, twin.operator.fs):
            assert np.shares_memory(f.data, g.data)
        assert twin.factor(1) is first.factor(1)
        alone = DiscreteProblem.build(legendre(), iset, twin_mesh, twin_field)
        assert (alone.operator.matrix != twin.operator.matrix).nnz == 0


class TestPreconditioners:

    def test_mean_based_is_block_diagonal_f0(self):
        prob = small_problem()
        dense = dense_preconditioner_matrix(prob, MEAN_BASED)
        f0 = assemble_F(prob.mesh, prob.field, 0).toarray()
        expect = np.kron(np.eye(3), f0)
        assert np.allclose(dense, expect, atol=1e-12)

    def test_splitting_complete_block_sizes(self):
        prob = small_problem(order=3)  # degrees 0,1 vs degree 2 over one variable
        m = build_preconditioner(prob, SPLITTING_COMPLETE)
        assert m.split_index == 2 * prob.operator.n_fe

    def test_solve_inverts_matvec(self):
        rng = np.random.default_rng(23)
        for basis in ("complete", "tensor"):
            prob = small_problem(basis=basis, exprs=("1", "0.4", "0.3"), n=4, order=3)
            for kind in kinds_on(basis):
                m = build_preconditioner(prob, kind)
                dense = dense_preconditioner_matrix(prob, kind)
                v = rng.standard_normal(prob.operator.shape[0])
                assert np.allclose(m.solve(dense @ v), v, rtol=1e-10, atol=1e-10)
                assert np.allclose(dense @ m.solve(v), v, rtol=1e-10, atol=1e-10)

    def test_solve_accepts_a_column(self):
        rng = np.random.default_rng(37)
        for basis in ("complete", "tensor"):
            prob = small_problem(basis=basis, exprs=("1", "0.4", "0.3"), n=4, order=3)
            v = rng.standard_normal(prob.operator.shape[0])
            for kind in kinds_on(basis):
                m = build_preconditioner(prob, kind)
                column = m.solve(v[:, None])
                assert column.shape == (v.size, 1)
                assert np.array_equal(column[:, 0], m.solve(v))
                with pytest.raises(ValueError):
                    m.solve(np.zeros((v.size, 2)))

    def test_solve_is_self_adjoint(self):
        rng = np.random.default_rng(29)
        for basis in ("complete", "tensor"):
            prob = small_problem(basis=basis, exprs=("1", "0.4", "0.3"), n=4, order=3)
            for kind in kinds_on(basis):
                m = build_preconditioner(prob, kind)
                u = rng.standard_normal(prob.operator.shape[0])
                v = rng.standard_normal(prob.operator.shape[0])
                assert u @ m.solve(v) == pytest.approx(v @ m.solve(u), rel=1e-10)

    def test_block_kinds_differ_from_operator_only_at_cut_couplings(self):
        for basis, kind in (("complete", SPLITTING_COMPLETE), ("tensor", SPLITTING_TP)):
            prob = small_problem(basis=basis, exprs=("1", "0.4", "0.3"), n=3, order=3)
            a = prob.operator.matrix.toarray()
            dense = dense_preconditioner_matrix(prob, kind)
            cut = build_preconditioner(prob, kind).split_index
            diff = a - dense
            assert np.allclose(diff[:cut, :cut], 0.0, atol=1e-12)
            assert np.allclose(diff[cut:, cut:], 0.0, atol=1e-12)
            assert np.abs(diff[cut:, :cut]).max() > 0.0

    def test_truncated_blocks_repeat_leading_operator(self):
        prob = small_problem(basis="tensor", exprs=("1", "0.4", "0.3"), n=3, order=2)
        m = build_preconditioner(prob, TRUNCATED_TP)
        a = prob.operator.matrix.toarray()
        dense = dense_preconditioner_matrix(prob, TRUNCATED_TP)
        bn = operator.block_layout(TRUNCATED_TP, prob.index_set)[0] * prob.operator.n_fe
        block = prob.operator.matrix[:bn, :bn].toarray()
        assert m.shape[0] == m.count * bn
        for b in range(m.count):
            seg = slice(b * bn, (b + 1) * bn)
            assert np.allclose(dense[seg, seg], a[seg, seg], atol=1e-12)
            assert np.allclose(dense[seg, seg], block, atol=1e-12)
        off = dense.copy()
        for b in range(m.count):
            seg = slice(b * bn, (b + 1) * bn)
            off[seg, seg] = 0.0
        assert np.abs(off).max() == 0.0

    def test_gs2_matches_factored_formula(self):
        for basis in ("complete", "tensor"):
            prob = small_problem(basis=basis, exprs=("1", "0.5", "0.2"), n=3, order=3)
            a = prob.operator.matrix.toarray()
            m = build_preconditioner(prob, GAUSS_SEIDEL_2)
            expect = dense_gs2_matrix(a, m.split_index)
            inverse = np.column_stack([m.solve(col) for col in np.eye(a.shape[0])])
            assert np.allclose(expect @ inverse, np.eye(a.shape[0]), atol=1e-10)

    def test_gs2_condition_follows_cbs_identity(self):
        # two-block theory: kappa_GS2 = 1/(1 - gamma^2) with
        # gamma = (kappa_SB - 1)/(kappa_SB + 1), on exact pencil extremes
        for basis, split in (("complete", SPLITTING_COMPLETE), ("tensor", SPLITTING_TP)):
            prob = small_problem(basis=basis, exprs=("1", "0.4", "0.3"), n=4, order=3)
            a = prob.operator.matrix.toarray()
            kappas = []
            for kind in (split, GAUSS_SEIDEL_2):
                m_dense = dense_preconditioner_matrix(prob, kind)
                w = scipy.linalg.eigh(a, m_dense, eigvals_only=True)
                kappas.append(w[-1] / w[0])
            gamma = (kappas[0] - 1.0) / (kappas[0] + 1.0)
            assert kappas[1] == pytest.approx(1.0 / (1.0 - gamma * gamma), rel=1e-8)

    def test_each_block_is_factored_once_per_problem(self, monkeypatch):
        # F0 by SuperLU, every larger leading block by banded Cholesky
        calls = []
        splu, band_init = operator.spla.splu, operator._BandCholesky.__init__

        def counting(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        def counting_band(self, *args):
            calls.append(1)
            band_init(self, *args)

        monkeypatch.setattr(operator.spla, "splu", counting)
        monkeypatch.setattr(operator._BandCholesky, "__init__", counting_band)
        for basis, order, factors in (
            ("complete", 3, 2),  # F0 and A11
            ("tensor", 3, 3),  # F0, the truncated block and A11
            ("tensor", (3, 2), 2),  # F0; the truncated block is A11
            ("tensor", (1, 3), 2),  # A11; the truncated block is F0
            ("complete", 2, 1),  # A11 is F0: the constant index alone
        ):
            calls.clear()
            prob = small_problem(basis=basis, exprs=("1", "0.4", "0.3"), n=4, order=order)
            for kind in kinds_on(basis):
                build_preconditioner(prob, kind)
            assert len(calls) == factors

    def test_factor_slices_f0_from_a_and_caches_factors_only(self):
        # F0 is A's leading block bit for bit, so factoring the slice keeps
        # the factors of F0 itself
        for prob in (small_problem(basis="tensor", exprs=("1", "0.4", "0.3"), n=4, order=3),
                     small_2d_problem("tensor")):
            for kind in kinds_on("tensor"):
                m = build_preconditioner(prob, kind)
                assert m.shape == prob.operator.shape
            n_fe = prob.operator.n_fe
            f0, lead = prob.operator.fs[0], prob.operator.matrix[:n_fe, :n_fe]
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(f0, field), getattr(lead, field))
            assert sorted(prob._factors) == [1, 3, 6]  # F0, the truncated block and A11
            for count, lu in prob._factors.items():
                assert not scipy.sparse.issparse(lu) and lu.shape == (count * n_fe,) * 2
                assert prob.factor(count) is lu

    def test_ordered_solves_match_dense_solves_in_2d(self):
        # the blocks are factored in a reordered numbering that solve undoes;
        # the tensor basis adds a truncated block with several stochastic
        # indices per node
        rng = np.random.default_rng(41)
        for basis in ("complete", "tensor"):
            prob = small_2d_problem(basis)
            v = rng.standard_normal(prob.operator.shape[0])
            for kind in kinds_on(basis):
                m = build_preconditioner(prob, kind)
                expect = np.linalg.solve(dense_preconditioner_matrix(prob, kind), v)
                atol = 1e-12 * np.abs(expect).max()
                assert np.allclose(m.solve(v), expect, rtol=0, atol=atol)
                column = m.solve(v[:, None])
                assert column.shape == (v.size, 1)
                assert np.allclose(column[:, 0], expect, rtol=0, atol=atol)
            for count, factor in prob._factors.items():
                if count > 1:  # node-major: a narrower band than the block's own numbering
                    n = count * prob.operator.n_fe
                    own = scipy.sparse.tril(prob.operator.matrix[:n, :n])
                    assert factor.band.shape[0] - 1 < (own.row - own.col).max()

    @pytest.mark.parametrize("element", (None, "q1", "p1"), ids=("1d", "q1", "p1"))
    def test_node_major_band_is_at_most_count_times_that_of_f0(self, element):
        # F0 of bandwidth w joins nodes at most w apart, and node i's indices
        # sit at i*count .. i*count + count - 1
        mesh = build_mesh(1, 9) if element is None else build_mesh(2, (6, 6), element)
        field = sample_coefficients(["1", "0.4*x1", "0.3*x1*x1"], mesh)
        prob = DiscreteProblem.build(legendre(), MultiIndexSet.complete(2, 4), mesh, field)
        f0 = scipy.sparse.tril(prob.operator.fs[0])
        w = (f0.row - f0.col).max()
        for count in (3, 6, 10):
            assert prob.factor(count).band.shape[0] - 1 <= count * (w + 1) - 1

    def test_mean_block_on_a_path_factors_without_fill(self):
        # in 1D F0 is tridiagonal: L and U each hold 2n - 1 entries
        for elements in (2, 5, 30):
            prob = small_problem(n=elements)
            n = prob.operator.n_fe
            lu = build_preconditioner(prob, MEAN_BASED)._lu
            assert lu.L.nnz + lu.U.nnz == 4 * n - 2

    def test_fe_order_is_deterministic(self):
        # the node-major numbering follows the mesh's own node numbering, so
        # two builds factor and solve bit for bit alike
        first, second = (small_2d_problem(elements=7).factor(6) for _ in range(2))
        assert np.array_equal(first.band, second.band)
        v = np.random.default_rng(5).standard_normal(first.shape[0])
        assert np.array_equal(first.solve(v), second.solve(v))

    @pytest.mark.parametrize("columns", (None, 1, 3), ids=("vector", "column", "columns"))
    def test_band_solve_is_scipys_dpbtrs_bit_for_bit(self, columns):
        # the band solve calls LAPACK's dpbtrs through ctypes, without the
        # GIL; scipy's wrapper of the same routine gives the same bits
        factor = small_2d_problem(elements=7).factor(6)
        n = factor.shape[0]
        shape = (n,) if columns is None else (n, columns)
        b = np.random.default_rng(7).standard_normal(shape)
        m = b.size // n
        node_major = b.reshape(factor.count, -1, m).transpose(2, 1, 0).reshape(m, -1).T
        x, info = scipy.linalg.lapack.dpbtrs(factor.band, node_major, lower=1)
        assert info == 0
        expect = x.T.reshape(m, -1, factor.count).transpose(2, 1, 0).reshape(shape)
        assert np.array_equal(factor.solve(b), expect)

    def test_band_solve_rejected_by_lapack_raises(self, capfd):
        factor = small_2d_problem().factor(3)
        factor.band = factor.band[:0]  # no diagonal row: kd = -1
        with pytest.raises(ValueError, match="dpbtrs rejected its argument 3"):
            factor.solve(np.ones(factor.shape[0]))
        capfd.readouterr()  # LAPACK's own message on standard output

    def test_threads_sharing_the_factors_solve_bit_for_bit(self):
        # run_verify runs two pencils of one problem at once, and both solve
        # with its banded factor and with the SuperLU factor of F0
        prob = small_2d_problem(elements=7)
        rng = np.random.default_rng(11)
        rhs = [(factor, rng.standard_normal(factor.shape[0]))
               for factor in (prob.factor(6), prob.factor(1)) for _ in range(5)]
        expect = [factor.solve(b) for factor, b in rhs]
        workers, solves = min((os.cpu_count() or 1) + 1, 8), 200
        done, wrong = [0] * workers, [0] * workers

        def work(i):
            for step in range(solves):
                k = (i + step) % len(rhs)
                factor, b = rhs[k]
                wrong[i] += not np.array_equal(factor.solve(b), expect[k])
                done[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert done == [solves] * workers and wrong == [0] * workers

    def test_indefinite_block_is_a_factorization_error(self):
        # no pivoting: the signs of SuperLU's pivots are the guard
        f0 = small_problem(n=8).operator.fs[0]
        block = indefinite_shift(f0)
        w = np.linalg.eigvalsh(block.toarray())
        assert w[0] < 0.0 < w[-1]
        with pytest.raises(FactorizationError):
            operator._factor(block)

    def test_singular_mean_block_is_a_factorization_error(self):
        # SuperLU's own RuntimeError on an exactly singular F0 becomes the
        # error class that the command line maps to exit 3
        block = scipy.sparse.csr_matrix(np.ones((3, 3)))
        with pytest.raises(FactorizationError,
                           match="factorization of the mean block failed: .*singular"):
            operator._factor(block)

    def test_one_negative_eigenvalue_of_f0_is_a_factorization_error(self):
        # F0 shifted midway between its two smallest eigenvalues: random
        # vectors see a positive quadratic form, the pivots of the symmetric
        # factorization count the one negative eigenvalue
        f0 = small_problem(n=8).operator.fs[0]
        w = np.linalg.eigvalsh(f0.toarray())
        block = (f0 - 0.5 * (w[0] + w[1]) * scipy.sparse.identity(f0.shape[0])).tocsr()
        assert np.count_nonzero(np.linalg.eigvalsh(block.toarray()) < 0.0) == 1
        v = np.random.default_rng(0).standard_normal((2, f0.shape[0]))
        assert (v * (block @ v.T).T).sum(axis=1).min() > 0.0
        with pytest.raises(FactorizationError, match="the mean block is not positive definite"):
            operator._factor(block)

    def test_barely_indefinite_leading_block_is_a_factorization_error(self):
        # the count-4 leading block shifted to one eigenvalue at -6.5e-5:
        # random vectors see a positive quadratic form, Cholesky does not
        prob = small_2d_problem(elements=7, nvars=3, order=4)
        a, n = prob.operator, 4 * prob.operator.n_fe
        assert (a.gs[0] != scipy.sparse.identity(a.n_p)).nnz == 0  # so F0 - sI shifts by -sI
        shift = np.linalg.eigvalsh(a.matrix[:n, :n].toarray())[0] + 6.5e-5
        fs = [a.fs[0] - shift * scipy.sparse.identity(a.n_fe), *a.fs[1:]]
        shifted = DiscreteProblem(prob.index_set, prob.mesh, prob.field,
                                  GalerkinOperator(a.gs, fs))
        block = shifted.operator.matrix[:n, :n]
        assert np.linalg.eigvalsh(block.toarray())[0] == pytest.approx(-6.5e-5, rel=1e-6)
        v = np.random.default_rng(0).standard_normal((n, 2))
        assert (v * (block @ v)).sum(axis=0).min() > 0.0
        with pytest.raises(FactorizationError,
                           match="leading block of 4 stochastic indices is not positive definite"):
            shifted.factor(4)

    def test_mean_only_field_makes_every_kind_exact(self):
        mesh = build_mesh(1, 4)
        field = sample_coefficients(["1+x1", "0"], mesh)
        iset = MultiIndexSet.complete(1, 3)
        prob = DiscreteProblem.build(legendre(), iset, mesh, field)
        a = prob.operator.matrix.toarray()
        v = np.linspace(1, 2, a.shape[0])
        for kind in (MEAN_BASED, SPLITTING_COMPLETE, GAUSS_SEIDEL_2):
            assert np.allclose(dense_preconditioner_matrix(prob, kind), a, atol=1e-12)
            assert np.allclose(build_preconditioner(prob, kind).solve(a @ v), v, atol=1e-10)

    def test_degenerate_order_one_splitting(self):
        prob = small_problem(exprs=("1", "0.5"), order=1)
        a = prob.operator.matrix.toarray()
        v = np.linspace(1, 2, a.shape[0])
        for kind in (SPLITTING_COMPLETE, GAUSS_SEIDEL_2):
            assert np.allclose(dense_preconditioner_matrix(prob, kind), a, atol=1e-12)
            assert np.allclose(build_preconditioner(prob, kind).solve(a @ v), v, atol=1e-10)

    def test_kind_basis_mismatch(self):
        comp = small_problem(exprs=("1", "0.5", "0.2"))
        tens = small_problem(basis="tensor", exprs=("1", "0.5", "0.2"))
        with pytest.raises(UsageError):
            build_preconditioner(comp, TRUNCATED_TP)
        with pytest.raises(UsageError):
            build_preconditioner(comp, SPLITTING_TP)
        with pytest.raises(UsageError):
            build_preconditioner(tens, SPLITTING_COMPLETE)
        with pytest.raises(UsageError):
            build_preconditioner(comp, "jacobi")


def test_each_kind_has_one_consistent_record():
    kinds = operator.PRECONDITIONER_KINDS
    with pytest.raises(UsageError) as err:
        operator.check_basis("jacobi", "complete")
    assert str(err.value) == ("unknown preconditioner 'jacobi' (choose from mean_based, "
                              "truncated_tp, splitting_tp, splitting_complete, gs2)")
    for name, record in kinds.items():
        assert record.name == name
        for basis in ("complete", "tensor"):
            if record.basis in (None, basis):
                assert operator.check_basis(name, basis) is record
            else:
                with pytest.raises(UsageError) as err:
                    operator.check_basis(name, basis)
                assert str(err.value) == f"{name} requires a {record.basis} basis"
        # a column missing from the output order would render after any other
        table = ResultTable()
        table.add_row({"zz": Cell(0.0), record.column: Cell(1.0)})
        assert table.columns == [record.column, "zz"]
    for basis in ("complete", "tensor"):
        assert list(kinds_on(basis)) == [name for name, record in kinds.items()
                                         if record.basis in (None, basis)]


@pytest.mark.parametrize("nvars", (1, 2, 3))
def test_kinds_with_a_coarse_group_chain_across_complete_degrees(nvars):
    # run_verify warm-starts exactly the kinds with a coarse group: at each
    # degree that group is the whole complete basis one degree below
    for degree in range(1, 6):
        iset = MultiIndexSet.complete(nvars, degree + 1)
        below = MultiIndexSet.complete(nvars, degree).size
        for kind in kinds_on("complete"):
            chained = operator.block_layout(kind, iset)[1] == below
            assert operator.PRECONDITIONER_KINDS[kind].coarse == chained, (degree, kind)


# the two colors of each kind, as a coloring fault names them
COLOR_NAMES = {
    "mean_based": ("even total degree", "odd total degree"),
    "truncated_tp": ("even last degree", "odd last degree"),
    "splitting_tp": ("coarse", "detail"),
    "splitting_complete": ("coarse", "detail"),
    "gs2": ("coarse", "detail"),
}


class TestSchurPencil:
    ISETS = [MultiIndexSet.complete(3, order) for order in (2, 3, 6)] + [
        MultiIndexSet.tensor(orders) for orders in ((3, 2, 4), (2, 3, 3), (4, 1), (1, 3))
    ]

    @pytest.mark.parametrize("family", (legendre(), hermite(), chebyshev_u()),
                             ids=("legendre", "hermite", "chebyshev_u"))
    def test_detail_block_is_the_repeated_block(self, family):
        # every kind's M agrees with A inside each color of its coloring
        mesh = build_mesh(1, 2)
        for iset in self.ISETS:
            field = sample_coefficients(["1"] + ["0.1"] * iset.nvars, mesh)
            prob = DiscreteProblem.build(family, iset, mesh, field)
            for kind in kinds_on(iset.kind):
                operator._check_coloring(prob, kind)

    @pytest.mark.parametrize("basis", ("complete", "tensor"))
    def test_pencil_is_the_schur_complement(self, basis):
        prob = small_2d_problem(basis=basis, elements=4, nvars=2, order=3)
        a = prob.operator.matrix.toarray()
        for kind in (GAUSS_SEIDEL_2, operator.SPLITTING_OF_BASIS[basis]):
            pencil = operator.ColoredPencil(prob, kind)
            cut = operator.block_layout(kind, prob.index_set)[1] * prob.operator.n_fe
            # gs2 on the detail side, the splitting on the coarse side
            side, other = ((slice(cut, None), slice(None, cut)) if kind == GAUSS_SEIDEL_2
                           else (slice(None, cut), slice(cut, None)))
            schur = a[side, side] - a[side, other] @ np.linalg.solve(a[other, other],
                                                                      a[other, side])
            v = np.random.default_rng(3).standard_normal(pencil.shape[0])
            assert pencil.shape == schur.shape
            assert np.allclose(pencil.matvec(v), schur @ v, atol=1e-12)
            assert np.allclose(a[side, side] @ pencil.solve(v), v, atol=1e-10)

    def test_the_pencil_shows_its_kind_shape_and_three_methods(self):
        pencil = operator.ColoredPencil(small_problem(), MEAN_BASED)
        public = {name for name in dir(pencil) if not name.startswith("_")}
        assert public == {"kind", "shape", "matvec", "solve", "extremes"}

    @pytest.mark.parametrize("orders", ((3, 2, 4), (2, 3, 3)))
    def test_block_diagonal_pencils_are_on_the_smaller_color(self, orders):
        prob = small_problem(basis="tensor", exprs=("1", "0.3", "0.2", "0.1"), order=orders)
        a = prob.operator.matrix.toarray()
        n_fe = prob.operator.n_fe
        for kind in (MEAN_BASED, TRUNCATED_TP):
            color = operator.coloring(kind, prob.index_set)
            pencil = operator.ColoredPencil(prob, kind)
            small = int(np.count_nonzero(color == 1) < np.count_nonzero(color == 0))
            side = np.repeat(color == small, n_fe)
            schur = a[np.ix_(side, side)] - a[np.ix_(side, ~side)] @ np.linalg.solve(
                a[np.ix_(~side, ~side)], a[np.ix_(~side, side)])
            v = np.random.default_rng(4).standard_normal(pencil.shape[0])
            assert pencil.shape == schur.shape and 2 * side.sum() <= side.size
            assert np.allclose(pencil.matvec(v), schur @ v, atol=1e-12)
            assert np.allclose(a[np.ix_(side, side)] @ pencil.solve(v), v, atol=1e-10)

    def test_colorings(self):
        tensor = MultiIndexSet.tensor((2, 3))
        degrees = tensor.indices
        assert np.array_equal(operator.coloring(MEAN_BASED, tensor), degrees.sum(axis=1) % 2)
        assert np.array_equal(operator.coloring(TRUNCATED_TP, tensor), degrees[:, -1] % 2)
        assert np.array_equal(operator.coloring(SPLITTING_TP, tensor), degrees[:, -1] == 2)
        complete = MultiIndexSet.complete(2, 3)
        for kind in (SPLITTING_COMPLETE, GAUSS_SEIDEL_2):
            assert np.array_equal(operator.coloring(kind, complete),
                                  complete.total_degrees() == 2)

    @pytest.mark.parametrize("iset, k, i, j", (
        (MultiIndexSet.complete(2, 3), 2, 1, 2),
        (MultiIndexSet.complete(2, 3), 1, 4, 5),
        (MultiIndexSet.tensor((2, 2, 3)), 1, 0, 8),
        (MultiIndexSet.tensor((2, 2, 3)), 3, 5, 6),
    ), ids=("complete-odd", "complete-detail", "tensor-even-groups", "tensor-one-group"))
    def test_a_coupling_inside_one_color_is_an_enclosure_failure(self, iset, k, i, j):
        # a fault inside one color, outside the coarse group, is caught
        mesh = build_mesh(1, 2)
        field = sample_coefficients(["1"] + ["0.1"] * iset.nvars, mesh)
        prob = DiscreteProblem.build(legendre(), iset, mesh, field)
        g = prob.operator.gs[k].tolil()
        g[i, j] = g[j, i] = 0.05
        prob.operator.gs[k] = g.tocsr()
        caught = []
        for kind in kinds_on(iset.kind):
            color = operator.coloring(kind, iset)
            _lead, cut = operator.block_layout(kind, iset)
            if color[i] != color[j] or max(i, j) < cut:
                operator._check_coloring(prob, kind)  # joins two colors, or is in A11
                continue
            name = COLOR_NAMES[kind][color[i]]
            with pytest.raises(EnclosureError, match=f"{kind}: G_{k} on the {name} indices joins"):
                operator._check_coloring(prob, kind)
            caught.append(kind)
        assert caught

    def test_first_fault_matches_the_dense_difference(self):
        # seeded faults in the G_k; the reference forms what M keeps of each
        # G_k densely and reports the first same-color difference row by row
        rng = np.random.default_rng(28)
        mesh = build_mesh(1, 2)
        for iset in self.ISETS:
            field = sample_coefficients(["1"] + ["0.1"] * iset.nvars, mesh)
            for _ in range(8):
                prob = DiscreteProblem.build(legendre(), iset, mesh, field)
                gs = prob.operator.gs
                for _ in range(rng.integers(1, 3)):
                    k, (i, j) = rng.integers(len(gs)), rng.integers(iset.size, size=2)
                    g = gs[k].tolil()
                    g[i, j] = g[j, i] = rng.choice([0.0, 0.05, g[i, j] + 1e-15])
                    gs[k] = g.tocsr()
                for kind in kinds_on(iset.kind):
                    lead, cut = operator.block_layout(kind, iset)
                    color = operator.coloring(kind, iset)
                    faults = []
                    for k, g in enumerate(gs):
                        d = g.toarray()
                        copies = np.kron(np.eye((iset.size - cut) // lead), d[:lead, :lead])
                        kept = scipy.linalg.block_diag(d[:cut, :cut], copies)
                        i, j = np.nonzero((d != kept) & (color[:, None] == color[None, :]))
                        faults += [(k, i[0], j[0])] if i.size else []
                    if not faults:
                        operator._check_coloring(prob, kind)
                        continue
                    k, i, j = faults[0]
                    name = COLOR_NAMES[kind][color[i]]
                    with pytest.raises(EnclosureError, match=f"{kind}: G_{k} on the {name} "
                                                             f"indices joins {i} and {j} "):
                        operator._check_coloring(prob, kind)

    def test_seeded_faults_are_reported_as_the_dense_reference_finds_them(self):
        # one G_k entry changed inside a color, or dropped from a repeated
        # group's copy of G_k[:lead, :lead], for every kind on both bases;
        # the check reports the dense reference's first fault, or none
        rng = np.random.default_rng(37)
        mesh = build_mesh(1, 2)
        caught = dict.fromkeys(COLOR_NAMES, 0)
        for iset in self.ISETS:
            field = sample_coefficients(["1"] + ["0.1"] * iset.nvars, mesh)
            kinds = kinds_on(iset.kind)
            for trial in range(12):
                prob = DiscreteProblem.build(legendre(), iset, mesh, field)
                gs = prob.operator.gs
                kind = kinds[trial % len(kinds)]
                lead, cut = operator.block_layout(kind, iset)
                tops = [k for k, g in enumerate(gs) if g[:lead, :lead].nnz]
                if trial % 2 and tops:  # drop one entry of a repeated group
                    k = int(rng.choice(tops))
                    top = gs[k][:lead, :lead].tocoo()
                    e = rng.integers(top.nnz)
                    start = cut + lead * rng.integers((iset.size - cut) // lead)
                    (i, j), value = start + np.array([top.row[e], top.col[e]]), 0.0
                else:  # change one entry inside a color
                    color = operator.coloring(kind, iset)
                    k = int(rng.integers(len(gs)))
                    i, j = rng.choice(np.flatnonzero(color == color[rng.integers(iset.size)]), 2)
                    value = gs[k][i, j] + rng.choice([0.05, -0.25])
                g = gs[k].tolil()
                g[i, j] = g[j, i] = value
                gs[k] = g.tocsr()
                for other in kinds:
                    fault = first_coloring_fault(other, iset, gs)
                    if fault is None:
                        operator._check_coloring(prob, other)
                        continue
                    k, i, j = fault
                    name = COLOR_NAMES[other][operator.coloring(other, iset)[i]]
                    with pytest.raises(EnclosureError) as err:
                        operator._check_coloring(prob, other)
                    assert str(err.value) == (f"{other}: G_{k} on the {name} indices joins {i} "
                                              f"and {j} unlike the preconditioner, so A and M "
                                              f"differ inside one color")
                    caught[other] += 1
        assert min(caught.values()) > 0, caught

    @staticmethod
    def _faulted(iset, k, drop, add, value):
        """A problem whose G_k loses the symmetric pairs ``drop`` and gains
        ``add`` at ``value``."""
        mesh = build_mesh(1, 2)
        field = sample_coefficients(["1"] + ["0.1"] * iset.nvars, mesh)
        prob = DiscreteProblem.build(legendre(), iset, mesh, field)
        g = prob.operator.gs[k].tolil()
        for (i, j), v in [(pair, 0.0) for pair in drop] + [(pair, value) for pair in add]:
            g[i, j] = g[j, i] = v
        prob.operator.gs[k] = g.tocsr()
        return prob

    @pytest.mark.parametrize("iset", (MultiIndexSet.complete(2, 4), MultiIndexSet.tensor((2, 2, 3))),
                             ids=("complete", "tensor"))
    def test_a_coupling_moved_into_one_color_is_an_enclosure_failure(self, iset):
        # a coupling of the last G_k between the two colors moves inside the
        # first one's color, off the coarse group and off G_k[:lead, :lead],
        # which M copies, to where M keeps another value
        k = iset.nvars
        g = assemble_G(legendre(), iset, k)
        dense = g.toarray()
        for kind in kinds_on(iset.kind):
            color = operator.coloring(kind, iset)
            lead, cut = operator.block_layout(kind, iset)
            local = (np.arange(iset.size) - cut) % lead
            kept = np.where(kept_mask(kind, iset), dense[np.ix_(local, local)], 0.0)
            moves = [(i, j, other) for i, j in zip(*g.nonzero()) if color[i] != color[j]
                     for other in range(iset.size) if other != i and color[other] == color[i]
                     and max(i, other) >= max(cut, lead) and kept[i, other] != dense[i, j]]
            i, j, other = moves[0]
            prob = self._faulted(iset, k, [(i, j)], [(i, other)], dense[i, j])
            first, second = sorted((i, other))
            name = COLOR_NAMES[kind][color[i]]
            with pytest.raises(EnclosureError,
                               match=f"{kind}: G_{k} on the {name} indices joins {first} and "
                                     f"{second} "):
                operator._check_coloring(prob, kind)

    @pytest.mark.parametrize("iset", (MultiIndexSet.complete(2, 4), MultiIndexSet.tensor((2, 2, 3))),
                             ids=("complete", "tensor"))
    def test_an_entry_left_out_of_a_repeated_group_is_an_enclosure_failure(self, iset):
        # the last repeated group loses one stored entry of its copy of
        # G_k[:lead, :lead], the last G_k that has one
        gs = [assemble_G(legendre(), iset, k) for k in range(iset.nvars + 1)]
        for kind in kinds_on(iset.kind):
            lead, _cut = operator.block_layout(kind, iset)
            k, top = [(k, g[:lead, :lead].tocoo()) for k, g in enumerate(gs)
                      if g[:lead, :lead].count_nonzero()][-1]
            a, b = sorted((top.row[0], top.col[0]))
            start = iset.size - lead
            prob = self._faulted(iset, k, [(start + a, start + b)], [], 0.0)
            name = COLOR_NAMES[kind][operator.coloring(kind, iset)[start + a]]
            with pytest.raises(EnclosureError, match=f"{kind}: G_{k} on the {name} indices joins "
                                                     f"{start + a} and {start + b} "):
                operator._check_coloring(prob, kind)

    @pytest.mark.parametrize("kind", COLOR_NAMES)
    def test_a_fault_names_the_color_it_is_in(self, kind):
        # G_1 gains one coupling off the kept value inside each color, off
        # the coarse group and off G_1[:lead, :lead], which M copies; a
        # splitting's coarse color is its coarse group, kept as it is
        iset = MultiIndexSet.complete(2, 4) if kind == "splitting_complete" else \
            MultiIndexSet.tensor((2, 2, 3))
        dense = assemble_G(legendre(), iset, 1).toarray()
        color = operator.coloring(kind, iset)
        lead, cut = operator.block_layout(kind, iset)
        local = (np.arange(iset.size) - cut) % lead
        kept = np.where(kept_mask(kind, iset), dense[np.ix_(local, local)], 0.0)
        named = []
        for c, name in enumerate(COLOR_NAMES[kind]):
            free = np.flatnonzero((color == c) & (np.arange(iset.size) >= max(cut, lead)))
            if free.size < 2:
                continue
            i, j = free[:2]
            prob = self._faulted(iset, 1, [], [(i, j)], kept[i, j] + 0.05)
            with pytest.raises(EnclosureError) as err:
                operator._check_coloring(prob, kind)
            assert str(err.value) == (f"{kind}: G_1 on the {name} indices joins {i} and {j} "
                                      f"unlike the preconditioner, so A and M differ inside "
                                      f"one color")
            named.append(name)
        assert named == [n for n in COLOR_NAMES[kind] if n != "coarse"]
