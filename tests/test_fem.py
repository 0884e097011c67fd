import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import CONFIG_DIR
from helpers import full_grid_mu
from sgprecond.config import load_config
from sgprecond.errors import CoefficientError, ParameterDomainError
from sgprecond.fem import (
    MU_REFINE,
    CoefficientField,
    Mesh,
    assemble_F,
    build_mesh,
    compute_mu,
    element_stiffness,
    load_vector,
    mu_from_exprs,
    parse_coefficient_table,
    sample_coefficients,
)

SETTING1 = ["1", "0.3/1*sin(1*pi*x1)", "0.3/4*sin(2*pi*x1)", "0.3/9*sin(3*pi*x1)"]
SETTING2 = ["1", "0.5*chi(0,1/3)", "0.3*chi(1/3,2/3)", "0.1*chi(2/3,1)"]
SETTING3 = ["1", "0.95*chi(0,1/3)", "0.95*chi(1/3,2/3)", "0.95*chi(2/3,1)"]


class TestMesh:
    def test_1d(self):
        m = build_mesh(1, 30)
        assert m.n_elements == 30 and m.n_interior == 29
        x1, x2 = m.midpoint_axes()
        assert np.allclose(x1, (np.arange(30) + 0.5) / 30) and x2 is None

    def test_2d(self):
        m = build_mesh(2, (20, 20))
        assert m.n_elements == 400 and m.n_interior == 361

    def test_smallest(self):
        assert build_mesh(1, 2).n_interior == 1

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            build_mesh(1, 1)
        with pytest.raises(ParameterDomainError):
            build_mesh(2, (4, 5))
        with pytest.raises(ParameterDomainError):
            build_mesh(3, (2, 2))

    def test_element_kind(self):
        assert build_mesh(2, (4, 4)).element == "q1"
        assert build_mesh(2, (4, 4), "p1").element == "p1"
        with pytest.raises(ParameterDomainError):
            build_mesh(2, (4, 4), "p2")
        with pytest.raises(ParameterDomainError):
            build_mesh(1, 4, "p1")

    def test_2d_node_maps(self):
        m = build_mesh(2, (3, 3))
        nodes = m.element_nodes()
        assert nodes.shape == (9, 4)
        assert nodes[0].tolist() == [0, 1, 5, 4]  # SW SE NE NW of the corner element
        dof = m.interior_dof()
        assert (dof >= 0).sum() == 4


class TestElementStiffness:
    def test_1d_exact(self):
        m = build_mesh(1, 30)
        assert np.allclose(element_stiffness(m), 30.0 * np.array([[1, -1], [-1, 1]]))

    def test_1d_eigenvalues(self):
        m = build_mesh(1, 10)
        w = np.linalg.eigvalsh(element_stiffness(m))
        assert np.allclose(w, [0.0, 2.0 / m.h], atol=1e-12)

    def test_2d_row_sums_zero(self):
        e = element_stiffness(build_mesh(2, (7, 7)))
        assert np.allclose(e.sum(axis=1), 0.0, atol=1e-15)
        assert np.allclose(e, e.T)

    def test_2d_matches_bilinear_quadrature(self):
        # 2x2 Gauss quadrature integrates the bilinear gradients exactly
        nodes = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        gp = [(-1 / np.sqrt(3), -1 / np.sqrt(3)), (1 / np.sqrt(3), -1 / np.sqrt(3)),
              (1 / np.sqrt(3), 1 / np.sqrt(3)), (-1 / np.sqrt(3), 1 / np.sqrt(3))]
        k = np.zeros((4, 4))
        for gx, gy in gp:
            grads = np.array(
                [[sx * (1 + sy * gy) / 4, sy * (1 + sx * gx) / 4] for sx, sy in nodes]
            )
            k += grads @ grads.T
        assert np.allclose(element_stiffness(build_mesh(2, (4, 4))), k, atol=1e-14)

    @pytest.mark.parametrize(
        "triangles", [((0, 1, 2), (0, 2, 3)), ((0, 1, 3), (1, 2, 3))], ids=["SW-NE", "SE-NW"]
    )
    def test_p1_block_is_two_triangles_either_diagonal(self, triangles):
        # corners (SW, SE, NE, NW) of the reference square, cut along one diagonal
        corners = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        k = np.zeros((4, 4))
        for t in triangles:
            xy = corners[list(t)]
            jac = np.column_stack([xy[1] - xy[0], xy[2] - xy[0]])
            grads = ref @ np.linalg.inv(jac)
            k[np.ix_(t, t)] += abs(np.linalg.det(jac)) / 2.0 * grads @ grads.T
        assert np.allclose(element_stiffness(build_mesh(2, (3, 3), "p1")), k, atol=1e-14)


class TestCoefficients:
    def test_sampling_constants(self):
        m = build_mesh(1, 4)
        f = sample_coefficients(["1", "0.5"], m)
        assert np.allclose(f.values, [[1, 1, 1, 1], [0.5, 0.5, 0.5, 0.5]])

    def test_nonpositive_mean_rejected(self):
        m = build_mesh(1, 4)
        with pytest.raises(CoefficientError):
            sample_coefficients(["x1-0.5", "0"], m)

    def test_mu_setting1(self):
        m = build_mesh(1, 30)
        mu, mu_class = compute_mu(sample_coefficients(SETTING1, m))
        assert mu == pytest.approx(0.35, abs=0.005)
        assert mu_class == pytest.approx(0.41, abs=0.005)

    def test_mu_setting2(self):
        m = build_mesh(1, 30)
        mu, mu_class = compute_mu(sample_coefficients(SETTING2, m))
        assert mu == pytest.approx(0.5, abs=1e-14)
        assert mu_class == pytest.approx(0.9, abs=1e-14)

    def test_mu_setting3(self):
        m = build_mesh(1, 30)
        mu, mu_class = compute_mu(sample_coefficients(SETTING3, m))
        assert mu == pytest.approx(0.95, abs=1e-14)
        assert mu_class == pytest.approx(2.85, abs=1e-12)

    def test_mu_zero_fluctuation(self):
        f = CoefficientField(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert compute_mu(f) == (0.0, 0.0)

    def test_mu_scale_invariant(self):
        rng = np.random.default_rng(3)
        vals = np.vstack([rng.uniform(0.5, 2, 8), rng.uniform(-1, 1, (2, 8))])
        a = compute_mu(CoefficientField(vals))
        b = compute_mu(CoefficientField(3.7 * vals))
        assert a == pytest.approx(b, rel=1e-14)

    def test_fine_grid_contains_element_midpoints(self):
        centre = MU_REFINE // 2
        assert MU_REFINE % 2 == 1
        line = build_mesh(1, 30)
        assert np.array_equal(line.midpoint_axes(MU_REFINE)[0][centre::MU_REFINE],
                              line.midpoint_axes()[0])
        m = build_mesh(2, (21, 21))
        for fine, coarse in zip(np.broadcast_arrays(*m.midpoint_axes(MU_REFINE)),
                                np.broadcast_arrays(*m.midpoint_axes())):
            picked = fine[centre::MU_REFINE, centre::MU_REFINE]
            assert np.array_equal(picked.ravel(), coarse.ravel())

    @pytest.mark.parametrize("text", ("sin(pi*x1)*sin(pi*x2)", "chi(1/3, 2/3)",
                                      "0.3*sin(2*pi*x2) + x1/(1 + x2)"))
    def test_broadcast_axes_give_the_flat_bits(self, text):
        from sgprecond import coeffexpr

        m = Mesh(2, (7, 5))  # unequal extents, so a swapped axis shows
        expr = coeffexpr.parse(text)
        flat = coeffexpr.evaluate_on(
            expr, *(x.ravel() for x in np.broadcast_arrays(*m.midpoint_axes(MU_REFINE))))
        grid = coeffexpr.evaluate_on(expr, *m.midpoint_axes(MU_REFINE))
        assert grid.shape == (5 * MU_REFINE, 7 * MU_REFINE)
        assert np.array_equal(grid.ravel(), flat)
        assert np.array_equal(grid.ravel().view(np.int64), flat.view(np.int64))

    @pytest.mark.parametrize("dim, exprs", (
        (1, ["1 + 0.2*x1", "0.3*x1", "0.1*chi(0, 1/3)", "-0.1"]),
        (1, ["1.5"]),
        (2, ["1 + 0.5*x1", "0.3*sin(pi*x1)", "0.2*chi(0, 1/3)", "-0.1"]),
        (2, ["2", "0.3*x2", "-0.2*cos(2*pi*x2)"]),
        (2, ["1", "0.3*sin(pi*x1)", "0.3*sin(pi*x2)", "0.1*x1*x2 - 0.02"]),
        (2, ["1 + x1*x2", "0.4*chi(1/3, 2/3)", "0.25", "0.2*sin(pi*x1)*cos(pi*x2)"]),
        (2, ["1.5"]),
    ), ids=("1d", "1d-mean-only", "x1", "x2", "both", "chi-and-constant", "mean-only"))
    def test_mu_equals_the_full_grid_reduction(self, dim, exprs):
        # 1100 elements give 69300 points in 1D and 20 x 20 give 1260 grid
        # rows, so both reductions end on a partial block; in the "1d" and
        # "x2" cases mu is attained in it, and in "both" one max |a_k|
        m = build_mesh(1, 1100) if dim == 1 else build_mesh(2, (20, 20))
        assert mu_from_exprs(exprs, m) == full_grid_mu(exprs, m)

    def test_mean_nonpositive_between_the_midpoints_is_rejected(self):
        # 0.9995 - x2 is positive at every element midpoint and nonpositive
        # only on the last refined grid row, in the last, partial block
        m = build_mesh(2, (20, 20))
        exprs = ["0.9995 - x2", "0.1*x1"]
        sample_coefficients(exprs, m)
        with pytest.raises(CoefficientError, match="sampling grid"):
            mu_from_exprs(exprs, m)

    def test_mu_of_table4_allocates_no_grid_copy(self):
        # at 21 x 21 elements the grid is 1323 x 1323, 14 MB per expression
        cfg = load_config(CONFIG_DIR / "table4.cfg")
        m = build_mesh(cfg.dim, cfg.elements, cfg.element)
        tracemalloc.start()
        try:
            mu = mu_from_exprs(cfg.coefficients, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, f"{peak} bytes"
        assert mu == full_grid_mu(cfg.coefficients, m)

    def test_fine_sampling_approaches_continuous_sup(self):
        m = build_mesh(2, (20, 20))
        exprs = ["1", "0.3*sin(1*pi*x1)", "0.3*sin(2*pi*x2)", "0.3*sin(2*pi*x1)"]
        mu, _ = mu_from_exprs(exprs, m)
        assert mu == pytest.approx(0.8280525, abs=5e-5)
        coarse, _ = compute_mu(sample_coefficients(exprs, m))
        assert coarse < mu

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
    def test_mu_is_never_below_the_assembled_ratio(self, path):
        cfg = load_config(path)
        m = build_mesh(cfg.dim, cfg.elements, cfg.element)
        mu, mu_class = mu_from_exprs(cfg.coefficients, m)
        assembled_mu, assembled_class = compute_mu(sample_coefficients(cfg.coefficients, m))
        assert mu >= assembled_mu and mu_class >= assembled_class

    def test_compute_mu_matches_the_stacked_formula(self):
        rng = np.random.default_rng(5)
        for nterms in (1, 3, 7, 12):
            vals = np.vstack([rng.uniform(0.1, 3.0, 500), rng.standard_normal((nterms, 500))])
            fluct = np.abs(vals[1:])
            mu = float(np.max(fluct.sum(axis=0) / vals[0]))
            mu_class = float(fluct.max(axis=1).sum() / vals[0].min())
            assert compute_mu(CoefficientField(vals)) == (mu, mu_class)

    def test_non_finite_value_rejected_with_row_and_element(self):
        for bad in (np.nan, np.inf, -np.inf):
            vals = np.ones((3, 5))
            vals[2, 3] = bad
            with pytest.raises(CoefficientError, match="row 2 is not finite on element 3"):
                CoefficientField(vals)
        with pytest.raises(CoefficientError, match="row 0 is not finite on element 1"):
            CoefficientField(np.array([[1.0, np.nan], [0.1, 0.1]]))


class TestAssembly:
    def test_1d_constant_tridiagonal(self):
        m = build_mesh(1, 30)
        f = sample_coefficients(SETTING1, m)
        mat = assemble_F(m, f, 0).toarray()
        assert np.allclose(np.diag(mat), 60.0)
        assert np.allclose(np.diag(mat, 1), -30.0)

    def test_single_interior_node(self):
        m = build_mesh(1, 2)
        f = sample_coefficients(["1", "0"], m)
        assert np.allclose(assemble_F(m, f, 0).toarray(), [[4.0]])

    def test_zero_coefficient_row(self):
        m = build_mesh(1, 6)
        f = sample_coefficients(["1", "0"], m)
        assert assemble_F(m, f, 1).nnz == 0

    def test_unit_coefficient_decomposes_into_elements(self):
        m = build_mesh(2, (4, 4))
        f = sample_coefficients(["1", "0.2*x1"], m)
        total = assemble_F(m, f, 0).toarray()
        block = element_stiffness(m)
        nodes = m.element_nodes()
        dof = m.interior_dof()
        acc = np.zeros_like(total)
        for el in range(m.n_elements):
            d = dof[nodes[el]]
            for a in range(4):
                for b in range(4):
                    if d[a] >= 0 and d[b] >= 0:
                        acc[d[a], d[b]] += block[a, b]
        assert np.allclose(acc, total, atol=1e-14)

    def test_scattered_elements_semidefinite(self):
        m = build_mesh(2, (3, 3))
        w = np.linalg.eigvalsh(element_stiffness(m))
        assert w.min() >= -1e-12

    def test_mean_matrix_positive_definite(self):
        for mesh in (build_mesh(1, 12), build_mesh(2, (5, 5))):
            f = sample_coefficients(["1+x1"] + ["0.1"] * 1, mesh)
            mat = assemble_F(mesh, f, 0).toarray()
            np.linalg.cholesky(mat)
            assert np.allclose(mat, mat.T)

    def test_p1_constant_coefficient_is_five_point_stencil(self):
        n = 6
        m = build_mesh(2, (n + 1, n + 1), "p1")
        f = sample_coefficients(["1", "0.1*x1"], m)
        t = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        eye = sp.identity(n)
        expected = (sp.kron(eye, t) + sp.kron(t, eye)).toarray()
        got = assemble_F(m, f, 0)
        assert np.allclose(got.toarray(), expected, atol=1e-14)
        assert np.diff(got.indptr).max() == 5

    def test_p1_rows_sum_to_zero_away_from_boundary(self):
        m = build_mesh(2, (6, 6), "p1")
        f = sample_coefficients(["1 + x1*x2", "0.3*sin(pi*x1)*cos(2*pi*x2)"], m)
        nx = m.extents[0] - 1
        ix, iy = np.meshgrid(np.arange(nx), np.arange(nx), indexing="xy")
        inner = ((ix > 0) & (ix < nx - 1) & (iy > 0) & (iy < nx - 1)).ravel()
        for k in (0, 1):
            mat = assemble_F(m, f, k)
            sums = np.asarray(mat.sum(axis=1)).ravel()
            assert np.allclose(sums[inner], 0.0, atol=1e-14)
            assert np.abs(sums[~inner]).max() > 1e-3
            assert np.diff(mat.indptr).max() <= 5


class TestLoadVector:
    def test_unit_source_1d(self):
        m = build_mesh(1, 30)
        assert np.allclose(load_vector(m, "1"), 1.0 / 30.0)
        m2 = build_mesh(1, 2)
        assert load_vector(m2, "1") == pytest.approx([0.5])

    def test_zero_source(self):
        assert np.all(load_vector(build_mesh(2, (4, 4)), "0") == 0.0)

    def test_2d_unit_source_total_mass(self):
        m = build_mesh(2, (10, 10))
        vec = load_vector(m, "1")
        inner_elements = 81  # elements with all four corners interior contribute fully
        assert vec.max() == pytest.approx(m.h * m.h)
        assert vec.sum() < 1.0  # boundary share removed

    def test_p1_unit_source_total_mass(self):
        class AllNodes(Mesh):
            """The same squares with every node kept as a degree of freedom."""

            @property
            def n_interior(self):
                return (self.extents[0] + 1) * (self.extents[1] + 1)

            def interior_dof(self):
                return np.arange(self.n_interior)

        n = 10
        full = load_vector(AllNodes(2, (n, n), "p1"), "1")
        h2 = 1.0 / n**2
        assert full.sum() == pytest.approx(1.0, rel=1e-14)
        # domain corners: SW and NE end the cut diagonal of their only square
        assert full[0] == pytest.approx(h2 / 3) and full[-1] == pytest.approx(h2 / 3)
        assert full[n] == pytest.approx(h2 / 6) and full[n * (n + 1)] == pytest.approx(h2 / 6)
        interior = load_vector(build_mesh(2, (n, n), "p1"), "1")
        assert np.allclose(interior, h2)


class TestCoefficientTable:
    def test_round_trip(self):
        text = """# mean and one fluctuation
        1.0  0.25
        2.0 -0.5
        1.5  0.0
        """
        f = parse_coefficient_table(text)
        assert f.values.shape == (2, 3)
        assert f.values[1].tolist() == [0.25, -0.5, 0.0]

    def test_rejects_ragged_rows(self):
        with pytest.raises(CoefficientError):
            parse_coefficient_table("1 2\n1 2 3\n")

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(CoefficientError):
            parse_coefficient_table("1 0.1\n0 0.1\n")

    def test_rejects_empty(self):
        with pytest.raises(CoefficientError):
            parse_coefficient_table("# nothing\n")
