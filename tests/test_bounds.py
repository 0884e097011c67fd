import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from helpers import dense_h_matrix, kept_mask, random_field, raises_before_allocating
from sgprecond import bounds
from sgprecond.basis import MultiIndexSet, assemble_G
from sgprecond.bounds import SpectralBounds, bounds_for, element_equivalence_oracle
from sgprecond.errors import DominanceError, ParameterDomainError, SizeError, UsageError
from sgprecond.fem import CoefficientField, build_mesh, sample_coefficients
from sgprecond.operator import (
    GAUSS_SEIDEL_2,
    MEAN_BASED,
    SPLITTING_COMPLETE,
    SPLITTING_TP,
    TRUNCATED_TP,
    DiscreteProblem,
    build_preconditioner,
)
from sgprecond.orthopoly import d_last_via_quadrature, d_sequence, max_root
from sgprecond.orthopoly import chebyshev_u, gegenbauer, hermite, legendre


def tensor_bounds(kind, family, s_last, mu):
    """The record of a tensor kind on a one-coordinate basis of order s_last."""
    return bounds_for(kind, family, MultiIndexSet.tensor((s_last,)), mu)


def complete_bounds(kind, family, order, mu):
    """The record of a kind on a two-variable complete basis of total order ``order``."""
    return bounds_for(kind, family, MultiIndexSet.complete(2, order), mu)


def test_bounds_for_is_the_only_builder():
    assert sorted(bounds.__all__) == ["SpectralBounds", "bounds_for", "element_equivalence_oracle"]


def test_record_stores_the_constants_and_block_order_only():
    assert [f.name for f in dataclasses.fields(SpectralBounds)] == ["c_lower", "c_upper", "t_arg"]
    b = SpectralBounds(-0.25, 2.25)
    assert b.vacuous and math.isinf(b.kappa_bound)
    b = SpectralBounds(0.5, 1.5, 3)
    assert not b.vacuous and b.kappa_bound == 3.0


class TestMeanBased:
    def test_full_dominance_closed_form(self):
        iset = MultiIndexSet.complete(1, 3)
        b = bounds_for(MEAN_BASED, legendre(), iset, 1.0)
        assert b.kappa_bound == pytest.approx(4.0 + math.sqrt(15.0), abs=1e-12)
        assert b.c_lower == pytest.approx(1.0 - math.sqrt(15.0) / 5.0, abs=1e-14)

    def test_half_dominance_closed_form(self):
        iset = MultiIndexSet.complete(1, 3)
        b = bounds_for(MEAN_BASED, legendre(), iset, 0.5)
        assert b.kappa_bound == pytest.approx((23.0 + 4.0 * math.sqrt(15.0)) / 17.0, abs=1e-12)

    def test_no_fluctuation(self):
        iset = MultiIndexSet.tensor((3, 2))
        b = bounds_for(MEAN_BASED, legendre(), iset, 0.0)
        assert (b.c_lower, b.c_upper, b.kappa_bound) == (1.0, 1.0, 1.0)

    def test_symmetric_about_one(self):
        iset = MultiIndexSet.complete(2, 4)
        for mu in (0.1, 0.4, 0.9):
            b = bounds_for(MEAN_BASED, chebyshev_u(), iset, mu)
            assert b.c_lower + b.c_upper == 2.0

    def test_tensor_uses_largest_order(self):
        b_mixed = bounds_for(MEAN_BASED, legendre(), MultiIndexSet.tensor((2, 4, 3)), 0.5)
        b_top = bounds_for(MEAN_BASED, legendre(), MultiIndexSet.tensor((4,)), 0.5)
        assert b_mixed.c_lower == b_top.c_lower

    def test_vacuous_flag(self):
        iset = MultiIndexSet.complete(1, 6)
        b = bounds_for(MEAN_BASED, hermite(), iset, 1.0)
        assert b.vacuous and math.isinf(b.kappa_bound)
        assert b.c_lower < 0.0  # value still reported


class TestClassical:
    # the classical record is the mean-based one for the global ratio mu_class
    def test_setting1_degree1(self):
        iset = MultiIndexSet.complete(3, 2)
        cb = bounds_for(MEAN_BASED, legendre(), iset, 0.4075118)
        assert cb.c_lower == pytest.approx(0.76, abs=0.005)
        assert cb.c_upper == pytest.approx(1.24, abs=0.005)

    def test_vacuous_when_reach_exceeds_one(self):
        iset = MultiIndexSet.complete(3, 2)
        cb = bounds_for(MEAN_BASED, legendre(), iset, 2.85)
        assert cb.vacuous and cb.c_lower < 0.0

    def test_zero(self):
        iset = MultiIndexSet.complete(2, 3)
        cb = bounds_for(MEAN_BASED, legendre(), iset, 0.0)
        assert (cb.c_lower, cb.c_upper) == (1.0, 1.0)


class TestTruncated:
    def test_same_formula_as_mean_based_at_top_order(self):
        b = tensor_bounds(TRUNCATED_TP, legendre(), 3, 1.0)
        assert b.kappa_bound == pytest.approx(4.0 + math.sqrt(15.0), abs=1e-12)

    def test_half_dominance(self):
        b = tensor_bounds(TRUNCATED_TP, legendre(), 2, 0.5)
        assert b.c_lower == pytest.approx(1.0 - 0.5 / math.sqrt(3.0), abs=1e-14)

    def test_constant_last_variable(self):
        b = bounds_for(TRUNCATED_TP, legendre(), MultiIndexSet.tensor((3, 1)), 0.9)
        assert (b.c_lower, b.c_upper) == (1.0, 1.0)


class TestSplitting:
    def test_tensor_full_dominance(self):
        b = tensor_bounds(SPLITTING_TP, legendre(), 2, 1.0)
        assert b.c_lower == pytest.approx(1.0 - math.sqrt(1.0 / 3.0), abs=1e-14)
        assert b.c_upper == pytest.approx(1.0 + math.sqrt(1.0 / 3.0), abs=1e-14)

    def test_zero_mu(self):
        b = tensor_bounds(SPLITTING_TP, legendre(), 4, 0.0)
        assert (b.c_lower, b.c_upper) == (1.0, 1.0)
        assert bounds_for(GAUSS_SEIDEL_2, legendre(), MultiIndexSet.tensor((4,)), 0.0).kappa_bound == 1.0

    # 0.828052 is the refined dominance ratio of the 2D sine setting whose
    # rounded value 0.83 labels the published rows
    def test_complete_table_row(self):
        b = complete_bounds(SPLITTING_COMPLETE, legendre(), 3, 0.828052)
        gs2 = bounds_for(GAUSS_SEIDEL_2, legendre(), MultiIndexSet.complete(2, 3), 0.828052)
        assert b.t_arg == 3
        assert gs2.kappa_bound == pytest.approx(1.31, abs=0.005)
        assert b.kappa_bound == pytest.approx(2.90, abs=0.01)

    def test_complete_low_order_row(self):
        b = complete_bounds(SPLITTING_COMPLETE, legendre(), 2, 0.828052)
        gs2 = bounds_for(GAUSS_SEIDEL_2, legendre(), MultiIndexSet.complete(2, 2), 0.828052)
        assert b.t_arg == 2
        assert gs2.kappa_bound == pytest.approx(1.30, abs=0.005)
        assert b.kappa_bound == pytest.approx(2.83, abs=0.01)

    def test_argmin_moves_to_small_orders_for_small_mu(self):
        b = complete_bounds(SPLITTING_COMPLETE, legendre(), 3, 0.766839)
        assert b.t_arg == 2  # the pivot minimum sits below the top order here

    def test_order_one(self):
        b = complete_bounds(SPLITTING_COMPLETE, legendre(), 1, 0.9)
        assert (b.c_lower, b.c_upper, b.t_arg) == (1.0, 1.0, 1)

    def test_cbs_identities(self):
        for order, mu in ((2, 0.83), (3, 0.9), (5, 0.5)):
            b = complete_bounds(SPLITTING_COMPLETE, legendre(), order, mu)
            gs2 = bounds_for(GAUSS_SEIDEL_2, legendre(), MultiIndexSet.complete(2, order), mu)
            gamma = b.c_upper - 1.0
            assert gamma == pytest.approx(1.0 - b.c_lower, abs=1e-12)
            d = d_sequence(legendre(), mu, order)[b.t_arg - 1]
            assert gs2.c_lower == pytest.approx(d, abs=1e-12)
            assert gs2.kappa_bound == pytest.approx(1.0 / d, abs=1e-12)

    def test_example_numbers(self):
        b = tensor_bounds(SPLITTING_TP, legendre(), 3, 0.9)
        gamma = b.c_upper - 1.0
        assert 1.0 / (1.0 - gamma * gamma) == pytest.approx(1.42, abs=0.005)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, -0.1])
def test_every_mu_entry_point_rejects_a_bad_ratio(mu):
    iset = MultiIndexSet.complete(2, 3)
    calls = [
        lambda: d_sequence(legendre(), mu, 3),
        lambda: d_last_via_quadrature(legendre(), mu, 3),
    ] + [
        lambda kind=kind, basis=basis: bounds_for(kind, legendre(), basis, mu)
        for kind, basis in (
            (MEAN_BASED, iset),
            (TRUNCATED_TP, MultiIndexSet.tensor((2, 3))),
            (SPLITTING_TP, MultiIndexSet.tensor((2, 3))),
            (SPLITTING_COMPLETE, iset),
            (GAUSS_SEIDEL_2, iset),
        )
    ]
    for call in calls:
        with pytest.raises(ParameterDomainError, match="must be finite and nonnegative"):
            call()


class TestBoundsFor:
    def test_each_kind_reads_its_order(self):
        fam = legendre()
        tensor = MultiIndexSet.tensor((4, 3))
        complete = MultiIndexSet.complete(2, 4)
        pivots = d_sequence(fam, 0.6, 4)
        # mean_based reads the top order of the basis, truncated_tp and
        # splitting_tp the last coordinate's, splitting_complete every total order
        for kind, iset, reach, t_arg in (
            (MEAN_BASED, tensor, 0.6 * max_root(fam, 4), None),
            (TRUNCATED_TP, tensor, 0.6 * max_root(fam, 3), None),
            (SPLITTING_TP, tensor, math.sqrt(1.0 - pivots[2]), 3),
            (SPLITTING_COMPLETE, complete, math.sqrt(1.0 - pivots.min()), int(np.argmin(pivots)) + 1),
        ):
            assert bounds_for(kind, fam, iset, 0.6) == SpectralBounds(1.0 - reach, 1.0 + reach, t_arg)

    @pytest.mark.parametrize("split_kind, iset", [
        (SPLITTING_TP, MultiIndexSet.tensor((2, 5))),
        (SPLITTING_COMPLETE, MultiIndexSet.complete(3, 4)),
    ], ids=["tensor", "complete"])
    def test_gs2_record_follows_the_splitting_of_its_basis(self, split_kind, iset):
        split = bounds_for(split_kind, legendre(), iset, 0.8)
        gs2 = bounds_for(GAUSS_SEIDEL_2, legendre(), iset, 0.8)
        gamma = split.c_upper - 1.0
        assert (gs2.c_lower, gs2.c_upper, gs2.vacuous) == (1.0 - gamma * gamma, 1.0, False)
        assert gs2.kappa_bound == 1.0 / (1.0 - gamma * gamma)
        assert gs2.t_arg == split.t_arg

    def test_rejects_basis_mismatch_and_unknown_kind(self):
        with pytest.raises(UsageError):
            bounds_for(SPLITTING_TP, legendre(), MultiIndexSet.complete(2, 3), 0.5)
        with pytest.raises(UsageError):
            bounds_for("classical", legendre(), MultiIndexSet.complete(2, 3), 0.5)


class TestDenseComparisonMatrix:
    @pytest.mark.parametrize("fam", [legendre(), chebyshev_u(), gegenbauer(2.0)], ids=lambda f: f.label)
    def test_unit_eigenvalue_count_and_extremes(self, fam):
        for s in (2, 3, 5, 8):
            for mu in (0.15, 0.6, 0.95):
                h = dense_h_matrix(fam, mu, s, +1)
                w = np.sort(np.linalg.eigvals(h).real)
                assert np.sum(np.abs(w - 1.0) <= 1e-10) == s - 2
                b = tensor_bounds(SPLITTING_TP, fam, s, mu)
                assert w[0] == pytest.approx(b.c_lower, abs=1e-11)
                assert w[-1] == pytest.approx(b.c_upper, abs=1e-11)
                w_minus = np.sort(np.linalg.eigvals(dense_h_matrix(fam, mu, s, -1)).real)
                assert w_minus[0] == pytest.approx(w[0], abs=1e-11)
                assert w_minus[-1] == pytest.approx(w[-1], abs=1e-11)


class TestElementOracle:
    def test_single_element_full_dominance(self):
        mesh = build_mesh(1, 2)
        field = sample_coefficients(["1", "1"], mesh)
        iset = MultiIndexSet.complete(1, 3)
        lo, hi = element_equivalence_oracle(legendre(), iset, field, MEAN_BASED)
        assert lo == pytest.approx(1.0 - math.sqrt(15.0) / 5.0, abs=1e-12)
        assert hi == pytest.approx(1.0 + math.sqrt(15.0) / 5.0, abs=1e-12)

    def test_mean_only_field(self):
        mesh = build_mesh(1, 3)
        field = sample_coefficients(["2", "0"], mesh)
        iset = MultiIndexSet.complete(1, 3)
        assert element_equivalence_oracle(legendre(), iset, field, MEAN_BASED) == (
            pytest.approx(1.0),
            pytest.approx(1.0),
        )

    def test_oracle_inside_analytic_bounds(self):
        mesh = build_mesh(1, 30)
        field = sample_coefficients(
            ["1", "0.5*chi(0,1/3)", "0.3*chi(1/3,2/3)", "0.1*chi(2/3,1)"], mesh
        )
        iset = MultiIndexSet.complete(3, 3)
        lo, hi = element_equivalence_oracle(legendre(), iset, field, MEAN_BASED)
        b = bounds_for(MEAN_BASED, legendre(), iset, 0.5)
        assert b.c_lower - 1e-12 <= lo <= hi <= b.c_upper + 1e-12
        # the indicator field attains the analytic constants on some element
        assert lo == pytest.approx(b.c_lower, abs=1e-12)
        assert hi == pytest.approx(b.c_upper, abs=1e-12)

    def test_dominance_violation_flags_element(self):
        # the annihilated comparison side goes indefinite on element 1
        vals = np.array([[1.0, 1.0, 1.0], [0.2, 1.8, 0.1]])
        field = CoefficientField(vals)
        iset = MultiIndexSet.complete(1, 4)
        with pytest.raises(DominanceError) as err:
            element_equivalence_oracle(legendre(), iset, field, SPLITTING_COMPLETE)
        assert err.value.index == 1
        # the mean comparison stays definite; the sharp constants just go negative
        lo, _hi = element_equivalence_oracle(legendre(), iset, field, MEAN_BASED)
        assert lo < 0.0

    def test_cap(self):
        iset = MultiIndexSet.complete(3, 15)  # 680 indices > ORACLE_CAP = 600
        field = CoefficientField(np.array([[1.0], [0.1], [0.1], [0.1]]))
        # raised before any dense 680 x 680 coupling matrix (3.7 MB each) is made
        message = raises_before_allocating(
            SizeError, element_equivalence_oracle, legendre(), iset, field, MEAN_BASED
        )
        assert "680 > cap 600" in message

    def test_splitting_oracle_matches_block_eigensolve(self):
        rng = np.random.default_rng(17)
        iset = MultiIndexSet.complete(2, 3)
        field = random_field(rng, 2, 5, 0.8)
        lo, hi = element_equivalence_oracle(legendre(), iset, field, SPLITTING_COMPLETE)
        b = bounds_for(SPLITTING_COMPLETE, legendre(), iset, 0.8)
        assert b.c_lower - 1e-12 <= lo <= hi <= b.c_upper + 1e-12

    @pytest.mark.parametrize("kind, iset", [
        (MEAN_BASED, MultiIndexSet.tensor((2, 3))),
        (TRUNCATED_TP, MultiIndexSet.tensor((2, 3))),
        (SPLITTING_TP, MultiIndexSet.tensor((2, 3))),
        (MEAN_BASED, MultiIndexSet.complete(2, 3)),
        (SPLITTING_COMPLETE, MultiIndexSet.complete(2, 3)),
    ], ids=lambda v: getattr(v, "kind", v))
    def test_masked_couplings_assemble_the_factored_preconditioner(self, kind, iset):
        # the oracle's comparison side, lifted to the mesh, is M itself
        fam = hermite()
        mesh = build_mesh(1, 5)
        field = random_field(np.random.default_rng(3), 2, mesh.n_elements, 0.6)
        problem = DiscreteProblem.build(fam, iset, mesh, field)
        keep = kept_mask(kind, iset)
        dense = sum(
            np.kron(assemble_G(fam, iset, k).toarray() * keep, f.toarray())
            for k, f in enumerate(problem.operator.fs)
        )
        v = np.random.default_rng(5).standard_normal(dense.shape[0])
        expect = np.linalg.solve(dense, v)
        got = build_preconditioner(problem, kind).solve(v)
        assert np.allclose(got, expect, rtol=0.0, atol=1e-12 * np.abs(expect).max())
