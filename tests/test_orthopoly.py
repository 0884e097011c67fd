import math

import numpy as np
import pytest

from helpers import raises_before_allocating
from sgprecond.basis import MultiIndexSet
from sgprecond.bounds import bounds_for
from sgprecond.errors import ConvergenceError, DominanceError, ParameterDomainError, SizeError
from sgprecond.experiments import quadrature_report
from sgprecond.operator import SPLITTING_TP
from sgprecond.orthopoly import (
    QUADRATURE_CAP,
    RecurrenceFamily,
    chebyshev_u,
    d_last_via_quadrature,
    d_sequence,
    family_from_name,
    gauss_rule,
    gegenbauer,
    hermite,
    jacobi_matrix,
    legendre,
    max_root,
    mu_bar,
    _tridiag_eig,
)

FAMILIES = [hermite(), legendre(), chebyshev_u(), gegenbauer(0.5), gegenbauer(2.0)]


class TestRecurrence:
    def test_legendre_first(self):
        assert legendre().beta(1) == pytest.approx(1.0 / 3.0, abs=0)

    def test_hermite(self):
        assert hermite().beta(2) == 1.0
        assert hermite().beta(5) == 2.5

    def test_gegenbauer_reduces_to_chebyshev(self):
        g = gegenbauer(1.0)
        for n in range(1, 20):
            assert g.beta(n) == pytest.approx(0.25, abs=1e-15)
        assert g.beta(5) == pytest.approx(0.25)

    def test_gegenbauer_reduces_to_legendre(self):
        g = gegenbauer(0.5)
        leg = legendre()
        for n in range(1, 40):
            assert g.beta(n) == pytest.approx(leg.beta(n), abs=1e-14)

    def test_beta_positive(self):
        for fam in FAMILIES:
            assert all(fam.beta(n) > 0 for n in range(1, 60))

    def test_invalid_gamma(self):
        with pytest.raises(ParameterDomainError):
            gegenbauer(-0.5)

    @pytest.mark.parametrize("gamma", [math.inf, 1e308])
    def test_gamma_whose_beta_overflows_is_rejected(self, gamma):
        # with 1e308, 2*gamma overflows and beta_n is NaN for n >= 2
        for build in (RecurrenceFamily, family_from_name):
            with pytest.raises(ParameterDomainError, match="overflows the recurrence"):
                build("gegenbauer", gamma)

    def test_large_finite_gamma_keeps_beta_finite(self):
        fam = gegenbauer(1e150)
        betas = np.array([fam.beta(n) for n in range(1, 200)])
        assert np.all(np.isfinite(betas)) and np.all(betas > 0.0)

    def test_family_from_name_is_the_constructor(self):
        assert family_from_name(" Gegenbauer ", 2.0) == RecurrenceFamily("gegenbauer", 2.0)
        for name, gamma in (("jacobi", None), ("gegenbauer", None), ("hermite", 2.0)):
            with pytest.raises(ParameterDomainError) as named:
                family_from_name(name, gamma)
            with pytest.raises(ParameterDomainError) as built:
                RecurrenceFamily(name, gamma)
            assert str(named.value) == str(built.value)


class TestJacobiMatrix:
    def test_legendre_3(self):
        j = jacobi_matrix(legendre(), 3)
        assert np.allclose(np.diag(j, 1), [1 / math.sqrt(3), 2 / math.sqrt(15)])
        assert np.all(np.diag(j) == 0.0)
        assert np.array_equal(j, j.T) and np.all(np.triu(j, 2) == 0.0)

    def test_size_one(self):
        for fam in FAMILIES:
            assert np.array_equal(jacobi_matrix(fam, 1), np.zeros((1, 1)))

    def test_hermite_3(self):
        j = jacobi_matrix(hermite(), 3)
        assert np.allclose(np.diag(j, 1), [math.sqrt(0.5), 1.0])


class TestTridiagEigenvalues:
    def test_legendre_2(self):
        w = gauss_rule(legendre(), 2).nodes
        assert np.allclose(w, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-14)

    def test_legendre_3(self):
        # roots of the cubic: lambda * (lambda^2 - (beta1 + beta2)) = 0
        root = math.sqrt(1 / 3 + 4 / 15)
        w = gauss_rule(legendre(), 3).nodes
        assert np.allclose(w, [-root, 0.0, root], atol=1e-14)
        assert root == pytest.approx(math.sqrt(3.0 / 5.0))

    def test_hermite_2(self):
        w = gauss_rule(hermite(), 2).nodes
        assert np.allclose(w, [-math.sqrt(0.5), math.sqrt(0.5)], atol=1e-14)

    def test_legendre_nodes_against_numpy(self):
        # Golub-Welsch nodes against numpy's independent Legendre rule
        for s in range(1, 101):
            ref, _ = np.polynomial.legendre.leggauss(s)
            assert np.allclose(gauss_rule(legendre(), s).nodes, ref, rtol=0, atol=1e-14)

    def test_hermite_nodes_against_numpy(self):
        # beta_n = n/2 is the physicists' Hermite family of hermgauss
        for s in range(1, 61):
            ref, _ = np.polynomial.hermite.hermgauss(s)
            nodes = gauss_rule(hermite(), s).nodes
            assert np.allclose(nodes, ref, rtol=0, atol=1e-13 * max(1.0, np.abs(ref).max()))

    def test_chebyshev_u_closed_form(self):
        # J = tridiag(1/2, 0, 1/2): eigenvalues cos(j pi/(s+1)), eigenvectors
        # sqrt(2/(s+1)) sin(j k pi/(s+1)), so the squared last components are
        # 2/(s+1) sin^2(j pi/(s+1))
        for s in (1, 2, 3, 10, 57, 100):
            theta = np.arange(s, 0, -1) * math.pi / (s + 1)
            rule = gauss_rule(chebyshev_u(), s)
            assert np.allclose(rule.nodes, np.cos(theta), rtol=0, atol=1e-14)
            assert np.allclose(rule.weights, 2.0 / (s + 1) * np.sin(theta) ** 2, rtol=0, atol=1e-14)

    def test_nonfinite_entry_is_a_convergence_failure(self):
        with pytest.raises(ConvergenceError):
            _tridiag_eig([math.nan, 1.0], [1.0])
        with pytest.raises(ConvergenceError):
            _tridiag_eig([0.0, 1.0], [math.inf], vectors=True)

    def test_eigenvectors_against_lapack(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 18, 40):
            d = rng.standard_normal(n)
            e = rng.uniform(0.1, 1.0, size=n - 1)
            w, z = _tridiag_eig(d, e, vectors=True)
            full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            assert np.allclose(z.T @ z, np.eye(n), atol=1e-12)
            assert np.allclose(full @ z, z * w, atol=1e-11)

    def test_spectrum_symmetric(self):
        for fam in FAMILIES:
            w = gauss_rule(fam, 9).nodes
            assert np.allclose(w, -w[::-1], atol=1e-12)

class TestMaxRoot:
    def test_values(self):
        assert max_root(legendre(), 2) == pytest.approx(0.5773502691896258, abs=1e-13)
        assert max_root(legendre(), 3) == pytest.approx(math.sqrt(15.0) / 5.0, abs=1e-13)
        for fam in FAMILIES:
            assert max_root(fam, 1) == 0.0


class TestGaussRule:
    def test_hermite_2(self):
        rule = gauss_rule(hermite(), 2)
        assert np.allclose(rule.weights, [0.5, 0.5], atol=1e-14)
        assert np.allclose(rule.nodes, [-math.sqrt(0.5), math.sqrt(0.5)], atol=1e-14)

    def test_order_one(self):
        for fam in FAMILIES:
            rule = gauss_rule(fam, 1)
            assert rule.nodes == pytest.approx([0.0]) and rule.weights == pytest.approx([1.0])

    def test_hermite_weights_flat(self):
        # closed form: every weight equals 1/s
        for s in (2, 3, 5, 9, 16):
            rule = gauss_rule(hermite(), s)
            assert np.allclose(rule.weights, 1.0 / s, atol=1e-12)

    def test_gegenbauer_closed_form(self):
        # closed form: (2s+2g-2)/(s+2g-1) * (1-node^2)/s
        for fam, g in [(legendre(), 0.5), (chebyshev_u(), 1.0), (gegenbauer(2.0), 2.0)]:
            for s in (2, 3, 5, 10, 20):
                rule = gauss_rule(fam, s)
                expect = (2 * s + 2 * g - 2) / (s + 2 * g - 1) * (1 - rule.nodes**2) / s
                assert np.allclose(rule.weights, expect, atol=1e-12)

    def test_legendre_3_exact(self):
        rule = gauss_rule(legendre(), 3)
        assert np.allclose(rule.nodes, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], atol=1e-13)
        assert np.allclose(rule.weights, [2 / 9, 5 / 9, 2 / 9], atol=1e-13)

    def test_order_over_the_cap_is_rejected_before_allocating(self):
        # an order of 10**5 would need two dense 80 GB eigenvector matrices
        s = 10**5
        message = raises_before_allocating(SizeError, gauss_rule, legendre(), s)
        assert message == f"quadrature order {s} exceeds cap {QUADRATURE_CAP}"
        raises_before_allocating(SizeError, quadrature_report, legendre(), s, 0.5)

    def test_weights_positive_sum_one(self):
        for fam in FAMILIES:
            for s in range(1, 101):
                rule = gauss_rule(fam, s)
                assert np.all(rule.weights > 0.0)
                assert abs(rule.weights.sum() - 1.0) <= 1e-12

    def test_moment_exactness(self):
        # weighted node powers reproduce corner moments of the matrix, and
        # those moments come from pure recurrence arithmetic
        for fam in FAMILIES:
            for s in (2, 3, 5, 8):
                j = jacobi_matrix(fam, s)
                rule = gauss_rule(fam, s)
                vec = np.zeros(s)
                vec[-1] = 1.0
                for m in range(2 * s):
                    quad = float(np.sum(rule.weights * rule.nodes**m))
                    vec_m = vec.copy()
                    for _ in range(m):
                        vec_m = j @ vec_m
                    scale = max(1.0, float(np.abs(rule.nodes).max()) ** m)
                    assert quad == pytest.approx(float(vec_m[-1]), abs=1e-10 * scale)


class TestInterlacing:
    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label)
    def test_strict_interlacing(self, fam):
        prev = gauss_rule(fam, 1).nodes
        for s in range(2, 101):
            cur = gauss_rule(fam, s).nodes
            assert np.all(cur[:-1] < prev) and np.all(prev < cur[1:])
            prev = cur

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label)
    def test_support_containment(self, fam):
        for s in range(2, 101):
            w = gauss_rule(fam, s).nodes
            if fam.kind == "hermite":
                bound = math.sqrt(2.0 * (s - 1) ** 2 / (s + 2))
                assert np.abs(w).max() <= bound * (1 + 1e-12) + 1e-12
            else:
                assert np.abs(w).max() < 1.0


class TestDSequence:
    def test_legendre_mu_one(self):
        pivots = d_sequence(legendre(), 1.0, 4)
        assert np.allclose(pivots, [1.0, 2 / 3, 3 / 5, 4 / 7], atol=1e-14)

    def test_mu_zero(self):
        for fam in FAMILIES:
            assert np.all(d_sequence(fam, 0.0, 3) == 1.0)

    def test_table_value(self):
        pivots = d_sequence(legendre(), 0.83, 2)
        assert pivots[-1] == pytest.approx(1.0 - 0.83**2 / 3.0, abs=1e-15)
        assert 1.0 / pivots[-1] == pytest.approx(1.30, abs=0.005)

    def test_gegenbauer_identity_at_full_dominance(self):
        # 1/d_s = (2s+2g-2)/(s+2g-1) when mu = 1
        for fam, g in [(legendre(), 0.5), (chebyshev_u(), 1.0), (gegenbauer(2.0), 2.0)]:
            for s in range(1, 51):
                d_last = d_sequence(fam, 1.0, s)[-1]
                expect = (s + 2 * g - 1) / (2 * s + 2 * g - 2) if s > 1 else 1.0
                assert d_last == pytest.approx(expect, abs=1e-12)

    def test_recursion_matches_quadrature(self):
        for fam in FAMILIES:
            for s in range(2, 31):
                top = min(mu_bar(fam, "complete", s), 1.0)
                for mu in (0.1, 0.5, 0.9 * top):
                    if mu >= top:
                        continue  # pivots undefined past the dominance threshold
                    rec = float(d_sequence(fam, mu, s)[-1])
                    quad = d_last_via_quadrature(fam, mu, s)
                    assert abs(rec - quad) <= 1e-11

    def test_monotone_in_mu(self):
        for fam in FAMILIES:
            top = 0.95 * min(mu_bar(fam, "complete", 8), 1.0)
            mus = np.linspace(0.0, top, 12)
            for s in (2, 5, 8):
                vals = [d_sequence(fam, m, s)[-1] for m in mus]
                assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_dominance_violation_names_index(self):
        with pytest.raises(DominanceError) as err:
            d_sequence(legendre(), 2.5, 6)
        assert err.value.index is not None

    def test_negative_mu_rejected(self):
        with pytest.raises(ParameterDomainError):
            d_sequence(legendre(), -0.1, 3)


def splitting_tp_bounds(family, s, mu):
    """The splitting_tp record on a one-coordinate tensor basis of order s."""
    return bounds_for(SPLITTING_TP, family, MultiIndexSet.tensor((s,)), mu)


class TestHExtremes:
    def test_legendre_full_dominance(self):
        b = splitting_tp_bounds(legendre(), 2, 1.0)
        assert b.c_lower == pytest.approx(1 - math.sqrt(1 / 3), abs=1e-14)
        assert b.c_upper == pytest.approx(1 + math.sqrt(1 / 3), abs=1e-14)

    def test_no_fluctuation(self):
        for fam in FAMILIES:
            b = splitting_tp_bounds(fam, 5, 0.0)
            assert (b.c_lower, b.c_upper) == (1.0, 1.0)
            b = splitting_tp_bounds(fam, 1, 0.7 * min(mu_bar(fam, "complete", 5), 1.0))
            assert (b.c_lower, b.c_upper) == (1.0, 1.0)

    def test_table_ratio(self):
        b = splitting_tp_bounds(legendre(), 3, 0.90)
        assert b.c_upper / b.c_lower == pytest.approx(3.38, abs=0.01)


class TestMuBar:
    def test_beta_families(self):
        assert mu_bar(legendre(), "complete", 8) == 1.0
        assert mu_bar(chebyshev_u(), "tensor", (3, 5)) == 1.0
        assert mu_bar(gegenbauer(2.0), "complete", 4) == 1.0

    def test_hermite(self):
        assert mu_bar(hermite(), "complete", 3) == pytest.approx(0.5)
        assert mu_bar(hermite(), "tensor", (3, 3)) == pytest.approx(1 / math.sqrt(8))
        assert mu_bar(hermite(), "complete", 1) == math.inf
        assert mu_bar(hermite(), "tensor", (1, 1, 1)) == math.inf

    def test_dominance_threshold_is_safe(self):
        # I +- mu_bar * J stays positive semidefinite
        for fam in FAMILIES:
            for s in (2, 3, 6):
                top = min(mu_bar(fam, "complete", s), 1.0)
                assert top * max_root(fam, s) <= 1.0 + 1e-12
