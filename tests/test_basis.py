import math

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import masked_G, raises_before_allocating
from sgprecond.basis import MultiIndexSet, assemble_G
from sgprecond.cli import coordinate_text
from sgprecond.errors import ParameterDomainError, SizeError
from sgprecond.fem import assemble_F, build_mesh, sample_coefficients
from sgprecond.orthopoly import chebyshev_u, gegenbauer, hermite, jacobi_matrix, legendre

B1 = 1 / math.sqrt(3)
B2 = 2 / math.sqrt(15)


class TestIndexSets:
    def test_tensor_ordering_first_coordinate_fastest(self):
        s = MultiIndexSet.tensor((3, 3))
        assert s.size == 9
        assert s.indices[0].tolist() == [0, 0]
        assert s.indices[1].tolist() == [1, 0]
        assert s.indices[3].tolist() == [0, 1]
        # reference: np.ndindex over the reversed orders, each tail reversed
        for orders in ((1,), (4,), (3, 3), (2, 1, 3), (2, 4, 3, 2)):
            rows = MultiIndexSet.tensor(orders).indices
            assert rows.tolist() == [list(tail[::-1]) for tail in np.ndindex(*orders[::-1])]
            assert rows.dtype == np.int64 and rows.flags.c_contiguous

    def test_complete_ordering_by_degree(self):
        s = MultiIndexSet.complete(2, 3)
        assert s.size == 6
        assert s.indices.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]

    def test_complete_univariate(self):
        s = MultiIndexSet.complete(1, 4)
        assert s.indices.tolist() == [[0], [1], [2], [3]]

    def test_sizes(self):
        assert MultiIndexSet.tensor((2, 3, 4)).size == 24
        assert MultiIndexSet.complete(3, 4).size == math.comb(6, 3)

    def test_no_duplicates_and_degree_caps(self):
        for s in (MultiIndexSet.tensor((2, 4, 3)), MultiIndexSet.complete(3, 5)):
            rows = [tuple(r) for r in s.indices.tolist()]
            assert len(set(rows)) == len(rows)
        t = MultiIndexSet.tensor((2, 4, 3))
        assert np.all(t.indices < np.array([2, 4, 3]))
        c = MultiIndexSet.complete(3, 5)
        assert c.total_degrees().max() == 4

    def test_cap(self):
        # raised before the rows are allocated; 1415^2 = 2002225 is just over
        for call, args in ((MultiIndexSet.tensor, ((2000, 2000),)),
                           (MultiIndexSet.tensor, ((1415, 1415),)),
                           (MultiIndexSet.complete, (30, 30)),
                           (MultiIndexSet.complete, (10, 20))):
            message = raises_before_allocating(SizeError, call, *args)
            assert "exceeds cap 2000000" in message

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            MultiIndexSet.tensor(())
        with pytest.raises(ParameterDomainError):
            MultiIndexSet.complete(0, 2)


class TestAssembleG:
    def test_identity(self):
        s = MultiIndexSet.complete(2, 3)
        g0 = assemble_G(legendre(), s, 0)
        assert (g0 != sp.identity(6, format="csr")).nnz == 0

    def test_tensor_matches_kronecker(self):
        fam = legendre()
        s = MultiIndexSet.tensor((3, 3))
        j = sp.csr_matrix(jacobi_matrix(fam, 3))
        eye = sp.identity(3, format="csr")
        assert abs(assemble_G(fam, s, 1) - sp.kron(eye, j)).max() == 0.0
        assert abs(assemble_G(fam, s, 2) - sp.kron(j, eye)).max() == 0.0

    def test_tensor_matches_kronecker_three_vars(self):
        fam = gegenbauer(2.0)
        orders = (2, 3, 4)
        s = MultiIndexSet.tensor(orders)
        mats = [sp.csr_matrix(jacobi_matrix(fam, o)) for o in orders]
        eyes = [sp.identity(o, format="csr") for o in orders]
        for k in range(1, 4):
            factors = [mats[i] if i == k - 1 else eyes[i] for i in range(3)]
            expect = sp.kron(sp.kron(factors[2], factors[1]), factors[0])
            assert abs(assemble_G(fam, s, k) - expect).max() == pytest.approx(0.0, abs=1e-15)

    def test_complete_example_entries(self):
        fam = legendre()
        s = MultiIndexSet.complete(2, 3)
        g2 = assemble_G(fam, s, 2).toarray()
        expect = np.zeros((6, 6))
        expect[0, 2] = expect[2, 0] = B1
        expect[1, 4] = expect[4, 1] = B1
        expect[2, 5] = expect[5, 2] = B2
        assert np.allclose(g2, expect, atol=1e-15)

    def test_complete_is_submatrix_of_tensor(self):
        for fam in (legendre(), hermite(), chebyshev_u()):
            for nvars, order in [(2, 2), (2, 3), (3, 3), (3, 2)]:
                comp = MultiIndexSet.complete(nvars, order)
                full = MultiIndexSet.tensor((order,) * nvars)
                inject = [full.position(tuple(row)) for row in comp.indices.tolist()]
                for k in range(nvars + 1):
                    small = assemble_G(fam, comp, k).toarray()
                    big = assemble_G(fam, full, k).toarray()
                    assert np.allclose(small, big[np.ix_(inject, inject)], atol=1e-15)

    def test_tensor_nonzero_count(self):
        fam = legendre()
        orders = (4, 3, 2)
        s = MultiIndexSet.tensor(orders)
        n = s.size
        for k, sk in enumerate(orders, start=1):
            g = assemble_G(fam, s, k)
            assert g.format == "csr" and g.has_sorted_indices
            assert g.nnz == 2 * n * (sk - 1) // sk

    def test_symmetry_and_coupling_values(self):
        fam = hermite()
        s = MultiIndexSet.complete(3, 4)
        for k in range(1, 4):
            g = assemble_G(fam, s, k).toarray()
            assert np.array_equal(g, g.T)
            idx = s.indices
            for i in range(s.size):
                for j in range(s.size):
                    if g[i, j] != 0.0:
                        diff = idx[j] - idx[i]
                        assert abs(diff[k - 1]) == 1 and np.sum(np.abs(diff)) == 1
                        low = min(idx[i][k - 1], idx[j][k - 1])
                        assert g[i, j] == pytest.approx(math.sqrt(fam.beta(low + 1)), abs=1e-15)

    def test_coordinate_out_of_range(self):
        s = MultiIndexSet.complete(2, 2)
        with pytest.raises(ParameterDomainError):
            assemble_G(legendre(), s, 3)


class TestAssembleGTilde:
    """G_k masked by the couplings its basis's two-block splitting keeps."""

    def test_tensor_variant_zeroes_top_coupling(self):
        fam = legendre()
        s = MultiIndexSet.tensor((3, 3))
        jt = jacobi_matrix(fam, 3)
        jt[1, 2] = jt[2, 1] = 0.0
        expect = sp.kron(sp.csr_matrix(jt), sp.identity(3, format="csr"))
        got = masked_G(fam, s, 2)
        assert abs(got - expect).max() == pytest.approx(0.0, abs=1e-15)

    def test_complete_variant_zeroes_top_degree_couplings(self):
        fam = legendre()
        s = MultiIndexSet.complete(2, 3)
        gt1 = masked_G(fam, s, 1).toarray()
        expect = np.zeros((6, 6))
        expect[0, 1] = expect[1, 0] = B1  # degree 0-1 coupling kept
        assert np.allclose(gt1, expect, atol=1e-15)

    def test_degenerate_order_keeps_everything(self):
        fam = legendre()
        s = MultiIndexSet.complete(2, 1)
        gt = masked_G(fam, s, 1)
        assert gt.nnz == 0 and gt.shape == (1, 1)
        t = MultiIndexSet.tensor((2, 1))
        gt2 = masked_G(fam, t, 2)
        assert abs(gt2 - assemble_G(fam, t, 2)).max() == 0.0

    def test_sparsity_contained_in_original(self):
        fam = chebyshev_u()
        s = MultiIndexSet.complete(3, 4)
        for k in range(1, 4):
            g = assemble_G(fam, s, k).toarray() != 0.0
            gt = masked_G(fam, s, k).toarray() != 0.0
            assert np.all(g | ~gt)

    def test_coordinate_range(self):
        fam = legendre()
        for iset in (MultiIndexSet.complete(2, 3), MultiIndexSet.tensor((3, 3))):
            for k in (-1, 3):
                with pytest.raises(ParameterDomainError):
                    masked_G(fam, iset, k)
            gt0 = masked_G(fam, iset, 0)
            assert abs(gt0 - assemble_G(fam, iset, 0)).max() == 0.0

    def test_tensor_keeps_every_coupling_below_the_last_coordinate(self):
        fam = hermite()
        iset = MultiIndexSet.tensor((3, 2, 4))
        for k in range(1, 3):
            g = assemble_G(fam, iset, k)
            gt = masked_G(fam, iset, k)
            assert gt.nnz == g.nnz and abs(gt - g).max() == 0.0
        g3 = assemble_G(fam, iset, 3)
        assert masked_G(fam, iset, 3).nnz == g3.nnz - 2 * 3 * 2  # one coupling per (i1, i2)

    def test_shifted_identity_stays_semidefinite(self):
        # I +- mu_bar * J has no negative eigenvalues for the top admissible mu
        from sgprecond.orthopoly import mu_bar

        for fam in (legendre(), chebyshev_u(), gegenbauer(2.0), hermite()):
            for order in (2, 3, 5):
                top = min(mu_bar(fam, "complete", order), 1.0)
                j = jacobi_matrix(fam, order)
                for sign in (1.0, -1.0):
                    w = np.linalg.eigvalsh(np.eye(order) + sign * top * j)
                    assert w.min() >= -1e-12


class TestCoordinateText:
    def test_round_trip_values(self):
        fam = legendre()
        s = MultiIndexSet.complete(2, 3)
        mesh = build_mesh(1, 4)
        f0 = assemble_F(mesh, sample_coefficients(["1", "0.3", "0.2"], mesh), 0)
        for mat in (assemble_G(fam, s, 1), masked_G(fam, s, 1), f0):
            lines = coordinate_text(mat).strip().splitlines()
            n, m, nnz = (int(x) for x in lines[0].split())
            assert (n, m, nnz) == (*mat.shape, mat.nnz)
            assert len(lines) == nnz + 1
            rebuilt = np.zeros((n, m))
            for line in lines[1:]:
                i, j, v = line.split()
                rebuilt[int(i) - 1, int(j) - 1] = float(v)
            assert np.array_equal(rebuilt, mat.toarray())
