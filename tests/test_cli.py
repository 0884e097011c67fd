import ctypes
import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import CONFIG_DIR
from helpers import indefinite_shift
from sgprecond import bounds, eigsolve, operator
from sgprecond.cli import bundled_openblas, main
from sgprecond.basis import MultiIndexSet
from sgprecond.operator import GAUSS_SEIDEL_2, SPLITTING_COMPLETE

SMALL = """sgp-config v1

[problem]
dim = 1
elements = 8
family = legendre
basis = complete
degree = 2
K = 2

[coefficients]
a0 = 1
a1 = 0.4*chi(0,1/2)
a2 = 0.3*sin(pi*x1)

[run]
preconditioners = mean_based splitting_complete gs2
kappa_A = true
tol = 1e-8
max_iter = 200
seed = 42
"""


UNCOUPLED = """sgp-config v1
[problem]
dim = 1
elements = 30
family = legendre
basis = complete
degree = 1
K = 1
[coefficients]
a0 = 1
a1 = 0
[run]
preconditioners = mean_based
"""


def _blas_thread_counts():
    counts = []
    for lib, suffix in bundled_openblas():
        getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts.append(getter())
    return counts


@pytest.fixture()
def blas_threads():
    """Read the bundled OpenBLAS thread counts; restore them afterwards."""
    before = _blas_thread_counts()
    yield _blas_thread_counts
    for (lib, suffix), n in zip(bundled_openblas(), before):
        setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(n)


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def _table_cfg(tmp_path, table):
    """SMALL with its coefficients read from the file ``table``."""
    path = tmp_path / "table.cfg"
    path.write_text(SMALL.replace(
        "a0 = 1\na1 = 0.4*chi(0,1/2)\na2 = 0.3*sin(pi*x1)", f"table = {table}"
    ))
    return path


class TestVerifyCommand:
    def test_runs_and_writes_csv(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["verify", "--config", str(small_cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert {"kappa_A", "c_lower", "lambda_min", "kappa_SB", "kappa_GS2", "t"} <= set(header)
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["c_lower"]) <= float(row["lambda_min"])
        assert float(row["lambda_max"]) <= float(row["c_upper"])

    def test_markdown_and_raw_formats(self, small_cfg, capsys):
        assert main(["verify", "--config", str(small_cfg), "--format", "md"]) == 0
        md = capsys.readouterr().out
        assert md.startswith("|") and "kappa_SB" in md
        assert main(["verify", "--config", str(small_cfg), "--format", "raw"]) == 0
        raw = capsys.readouterr().out
        assert "lambda_min_src" in raw and "lanczos" in raw

    def test_seed_override_is_stable(self, small_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--config", str(small_cfg), "--seed", "7", "--out", str(a)]) == 0
        assert main(["verify", "--config", str(small_cfg), "--seed", "7", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("a1", ["0", "1e-9"])
    @pytest.mark.parametrize("seed", ["1", "2", "3", "42"])
    def test_uncoupled_colors_stay_inside_their_bounds(self, a1, seed, tmp_path, capsys):
        # sigma_max is 0 or about 6e-10; sqrt(1 - theta_min) read the rounding
        # of theta_min, about 7e-16, as a sigma near 2.6e-8, above the slack
        path = tmp_path / "uncoupled.cfg"
        path.write_text(UNCOUPLED.replace("a1 = 0", f"a1 = {a1}"))
        assert main(["verify", "--config", str(path), "--seed", seed]) == 0, capsys.readouterr().err


    def test_uncoupled_warm_start_falls_back_to_the_seed(self, tmp_path, capsys):
        # with a1 = 0 the degree-2 gs2 start, B applied to the degree-1
        # eigenvector, is zero, and the run starts from the seeded draw alone
        path = tmp_path / "uncoupled.cfg"
        path.write_text(UNCOUPLED.replace("degree = 1", "degree = 1 2").replace(
            "mean_based", "splitting_complete gs2"))
        assert main(["verify", "--config", str(path)]) == 0, capsys.readouterr().err


class TestBoundsCommand:
    def test_bounds_only(self, small_cfg, capsys):
        assert main(["bounds", "--config", str(small_cfg)]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split(",")
        assert "c_lower" in header and "kappa_A" not in header

    def test_vacuous_cells_print_dash(self, tmp_path, capsys):
        text = SMALL.replace("a1 = 0.4*chi(0,1/2)", "a1 = 0.7*chi(0,1/2)").replace(
            "a2 = 0.3*sin(pi*x1)", "a2 = 0.7*chi(1/2,1)"
        )
        path = tmp_path / "vac.cfg"
        path.write_text(text)
        assert main(["bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["ratio_class"] == "-"


    def test_last_order_one_keeps_the_full_pencil(self, tmp_path, capsys):
        # tensor orders (3, 1): gs2 has no coarse block and M = A
        text = SMALL.replace("basis = complete\ndegree = 2", "basis = tensor\ndegrees = 2 0")
        path = tmp_path / "cut0.cfg"
        path.write_text(text.replace("splitting_complete", "splitting_tp"))
        assert main(["verify", "--config", str(path), "--format", "raw"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["kappa_SB"]) == float(row["kappa_GS2"]) == 1.0


class TestSolveCommand:
    def test_iterations_ranked_by_bound(self, small_cfg, capsys):
        assert main(["solve", "--config", str(small_cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        iters = {r["preconditioner"]: int(r["iterations"]) for r in rows}
        assert set(iters) == {"mean_based", "splitting_complete", "gs2"}
        assert all(int(r["iterations"]) >= 1 for r in rows)
        assert all(float(r["residual"]) <= 1e-8 for r in rows)

    def test_raw_tags_the_cg_cells_cg(self, small_cfg, capsys):
        assert main(["solve", "--config", str(small_cfg), "--format", "raw"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["iterations_src"] == row["residual_src"] == row["seconds_src"] == "cg"
            assert row["kappa_bound_src"] == "analytic"


class TestQuadratureCommand:
    def test_prints_rule_and_pivots(self, capsys):
        assert main(["quadrature", "--family", "legendre", "--s", "4", "--mu", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "0.6666666667" in out and "0.5714285714" in out
        assert "1/d_4 (recursion)  1.75" in out
        assert "1/d_4 (quadrature)  1.75" in out

    def test_hermite_weights(self, capsys):
        assert main(["quadrature", "--family", "hermite", "--s", "2", "--mu", "0.2"]) == 0
        out = capsys.readouterr().out
        assert out.count("0.5") >= 2

    @pytest.mark.parametrize("mu", ["nan", "inf", "-1"])
    def test_bad_mu_exits_2(self, mu, capsys):
        assert main(["quadrature", "--family", "legendre", "--s", "3", "--mu", mu]) == 2
        captured = capsys.readouterr()
        assert "mu must be finite and nonnegative" in captured.err and captured.out == ""

    @pytest.mark.parametrize("gamma", ["inf", "1e308"])
    def test_gamma_whose_beta_overflows_exits_2(self, gamma, capsys):
        argv = ["quadrature", "--family", "gegenbauer", "--gamma", gamma, "--s", "3", "--mu", "0.5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "overflows the recurrence coefficients" in captured.err and captured.out == ""

    def test_order_over_the_cap_exits_2(self, capsys):
        assert main(["quadrature", "--family", "legendre", "--s", "100000", "--mu", "0.5"]) == 2
        captured = capsys.readouterr()
        assert "quadrature order 100000 exceeds cap 4096" in captured.err and captured.out == ""

    def test_zero_mu_unit_pivots(self, capsys):
        assert main(["quadrature", "--family", "chebyshev_u", "--s", "3", "--mu", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        pivot_lines = lines[lines.index("j  d_j") + 1 :][:3]
        assert all(ln.endswith("  1") for ln in pivot_lines)


class TestDumpMatrix:
    def test_g_matrix_dump(self, small_cfg, capsys):
        assert main(["dump-matrix", "--config", str(small_cfg), "--matrix", "G1"]) == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0].split()
        assert first[0] == first[1] == "6"  # complete basis, two variables, order 3

    def test_annihilated_dump_is_sparser(self, small_cfg, capsys):
        # complete basis, K = 2, s = 3: Gt<k> drops exactly the couplings
        # between total degrees 1 and 2 and stores no zeros
        entries = {}
        for name in ("G1", "Gt1", "G2", "Gt2"):
            assert main(["dump-matrix", "--config", str(small_cfg), "--matrix", name]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert int(lines[0].split()[2]) == len(lines) - 1
            cells = {(int(i) - 1, int(j) - 1): v for i, j, v in (ln.split() for ln in lines[1:])}
            assert all(float(v) != 0.0 for v in cells.values())
            entries[name] = cells
        degree = MultiIndexSet.complete(2, 3).total_degrees()
        for k in "12":
            full, tilde = entries[f"G{k}"], entries[f"Gt{k}"]
            across = {ij for ij in full if {degree[ij[0]], degree[ij[1]]} == {1, 2}}
            assert across and set(full) - set(tilde) == across
            assert all(tilde[ij] == full[ij] for ij in tilde)

    def test_f_matrix_dump(self, small_cfg, capsys):
        assert main(["dump-matrix", "--config", str(small_cfg), "--matrix", "F0"]) == 0
        out = capsys.readouterr().out
        n, m, nnz = (int(x) for x in out.splitlines()[0].split())
        assert n == m == 7 and nnz == 19

    def test_p1_f_matrix_dump(self, tmp_path, capsys):
        text = SMALL.replace("dim = 1", "dim = 2").replace(
            "elements = 8", "elements = 5 5\nelement = p1"
        )
        path = tmp_path / "p1.cfg"
        path.write_text(text)
        assert main(["dump-matrix", "--config", str(path), "--matrix", "F0"]) == 0
        out = capsys.readouterr().out
        n, m, nnz = (int(x) for x in out.splitlines()[0].split())
        assert n == m == 16 and nnz == 16 + 2 * 2 * 4 * 3  # five-point stencil

    def test_basis_is_that_of_the_last_swept_degree(self, tmp_path, capsys):
        dumps = []
        for degree in ("3 1", "1"):
            path = tmp_path / "sweep.cfg"
            path.write_text(SMALL.replace("degree = 2", f"degree = {degree}"))
            assert main(["dump-matrix", "--config", str(path), "--matrix", "G1"]) == 0
            dumps.append(capsys.readouterr().out)
        assert dumps[0] == dumps[1] and dumps[0].startswith("3 3 ")  # K = 2, degree 1

    def test_bad_name(self, small_cfg, capsys):
        assert main(["dump-matrix", "--config", str(small_cfg), "--matrix", "Q1"]) == 2

    def test_annihilated_dump_on_a_tensor_basis(self, tmp_path, capsys):
        text = SMALL.replace("basis = complete\ndegree = 2", "basis = tensor\ndegrees = 2 2").replace(
            "splitting_complete", "splitting_tp"
        )
        path = tmp_path / "tensor.cfg"
        path.write_text(text)
        dumps = {}
        for name in ("G0", "Gt0", "G1", "Gt1", "G2", "Gt2"):
            assert main(["dump-matrix", "--config", str(path), "--matrix", name]) == 0
            dumps[name] = capsys.readouterr().out
        assert dumps["Gt0"] == dumps["G0"] and dumps["Gt1"] == dumps["G1"]
        nnz = {name: int(out.splitlines()[0].split()[2]) for name, out in dumps.items()}
        # orders (3, 3): one coupling between orders 1 and 2 of x2 per order of x1
        assert nnz["Gt2"] == nnz["G2"] - 2 * 3
        assert main(["dump-matrix", "--config", str(path), "--matrix", "Gt3"]) == 2


    def test_annihilated_dump_takes_no_n_p_squared_memory(self, tmp_path):
        # degrees 99 99: N_P = 10000, so an N_P x N_P mask alone would take
        # 95 MiB; the kept blocks are held sparse, as G1 is (4.4 MiB)
        text = SMALL.replace("basis = complete\ndegree = 2", "basis = tensor\ndegrees = 99 99")
        path = tmp_path / "tensor.cfg"
        path.write_text(text.replace("splitting_complete", "splitting_tp"))
        out = tmp_path / "dump.txt"
        tracemalloc.start()
        try:
            assert main(["dump-matrix", "--config", str(path), "--matrix", "Gt1",
                         "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_text().startswith("10000 10000 ")
        assert peak < 16 << 20, f"{peak / 2**20:.1f} MiB traced at the peak"


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL.replace("sgp-config v1", "nope"))
        assert main(["verify", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_element(self, tmp_path, capsys):
        path = tmp_path / "p1_1d.cfg"
        path.write_text(SMALL.replace("elements = 8", "elements = 8\nelement = p1"))
        assert main(["verify", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert main(["verify"]) == 2

    def test_nonexistent_config_file(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_missing_coefficient_table(self, tmp_path, capsys):
        path = _table_cfg(tmp_path, tmp_path / "nope.txt")
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "nope.txt" in err

    def test_relative_table_path_is_read_from_the_config_directory(self, tmp_path, monkeypatch,
                                                                     capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "coeffs.txt").write_text("1.0 0.3 -0.2\n" * 8)
        _table_cfg(sub, "coeffs.txt")
        outputs = []
        for cwd, config in ((sub, "table.cfg"), (tmp_path, "sub/table.cfg")):
            monkeypatch.chdir(cwd)
            assert main(["bounds", "--config", config]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_oracle_outside_its_links_is_an_enclosure_failure(self, tmp_path, monkeypatch,
                                                              capsys):
        # the per-element lower constant raised to the upper one: above
        # lambda_min, which it must not exceed
        oracle = bounds.element_equivalence_oracle

        def raised(*args):
            _lo, hi = oracle(*args)
            return hi, hi

        monkeypatch.setattr(bounds, "element_equivalence_oracle", raised)
        path = tmp_path / "oracle.cfg"
        path.write_text(SMALL.replace("kappa_A = true", "kappa_A = false\noracle = true"))
        assert main(["verify", "--config", str(path)]) == 4
        assert "mean_based (degree 2): per-element constants" in capsys.readouterr().err

    def test_non_finite_coefficient_table(self, tmp_path, capsys):
        table = tmp_path / "coeffs.txt"
        table.write_text("1.0 0.3 -0.2\n" * 5 + "1.0 nan -0.2\n" + "1.0 0.3 -0.2\n" * 2)
        path = _table_cfg(tmp_path, table)
        for command in ("bounds", "verify"):
            assert main([command, "--config", str(path)]) == 2
            assert "coefficient row 1 is not finite on element 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("quadrature", ["--config", "/nonexistent.cfg"]),
        ("quadrature", ["--seed", "3"]),
        ("quadrature", ["--tol", "5"]),
        ("dump-matrix", ["--format", "md"]),
        ("dump-matrix", ["--seed", "3"]),
        ("dump-matrix", ["--tol", "5"]),
        ("bounds", ["--seed", "3"]),
        ("bounds", ["--tol", "5"]),
        ("solve", ["--seed", "3"]),
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, small_cfg, capsys, command, flag):
        own = {
            "quadrature": ["--family", "legendre", "--s", "3", "--mu", "1"],
            "dump-matrix": ["--config", str(small_cfg), "--matrix", "F0"],
        }.get(command, ["--config", str(small_cfg)])
        with pytest.raises(SystemExit) as exc:
            main([command, *own, *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {flag[0]}" in captured.err

    def test_basis_over_the_size_cap(self, tmp_path, capsys):
        # K = 3 and total degree 400: C(403, 3) = 10827401 indices
        text = (CONFIG_DIR / "table3_setting1.cfg").read_text()
        path = tmp_path / "huge.cfg"
        path.write_text(text.replace("degree = 1 2 6 7", "degree = 400"))
        assert main(["bounds", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds cap 2000000" in captured.err

    def test_unwritable_out(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["bounds", "--config", str(small_cfg), "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_table5_K1_mean_based_oracle_passes(self, tmp_path, capsys):
        # mu is read on a grid containing the element midpoints, so the bounds
        # hold for the assembled field and its per-element constants
        text = (CONFIG_DIR / "table5_K1.cfg").read_text()
        text = text.replace("preconditioners = splitting_complete gs2",
                            "preconditioners = mean_based\noracle = true")
        path = tmp_path / "k1.cfg"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 0
        assert "oracle_min" in capsys.readouterr().out

    def test_table_rows_must_match_the_mesh(self, tmp_path, capsys):
        table = tmp_path / "coeffs.txt"
        table.write_text("1.0 0.3 -0.2\n" * 7)  # the mesh has 8 elements
        path = _table_cfg(tmp_path, table)
        for argv in (["bounds"], ["verify"], ["solve"], ["dump-matrix", "--matrix", "F0"]):
            assert main(argv + ["--config", str(path)]) == 2
            assert "has 7 rows, the mesh has 8 elements" in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, capsys):
        # dominance badly violated: the splitting blocks go indefinite
        text = SMALL.replace("a1 = 0.4*chi(0,1/2)", "a1 = 2.5*chi(0,1/2)").replace(
            "preconditioners = mean_based splitting_complete gs2",
            "preconditioners = splitting_complete",
        )
        path = tmp_path / "indef.cfg"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_indefinite_block_is_a_numerical_failure(self, small_cfg, monkeypatch, capsys):
        # the inputs are validated, so F0 is shifted into indefiniteness here
        assemble_F = operator.assemble_F

        def shifted(mesh, field, k):
            f = assemble_F(mesh, field, k)
            return indefinite_shift(f) if k == 0 else f

        monkeypatch.setattr(operator, "assemble_F", shifted)
        assert main(["verify", "--config", str(small_cfg)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "the mean block is not positive definite" in err

    def test_cbs_identity_violation_is_an_enclosure_failure(self, small_cfg, monkeypatch, capsys):
        # the low end of the gs2 Schur pencil raised by 1%, which lowers
        # kappa_GS2 by 1%: still under its analytic bound, but off the
        # two-block CBS identity with kappa_SB
        generalized = eigsolve.extreme_eigs_generalized

        def moved(a, m, **kwargs):
            est = generalized(a, m, **kwargs)
            if m.kind == GAUSS_SEIDEL_2:
                est = dataclasses.replace(est, lambda_min=est.lambda_min / 0.99)
            return est

        monkeypatch.setattr(eigsolve, "extreme_eigs_generalized", moved)
        assert main(["verify", "--config", str(small_cfg)]) == 4
        assert "breaks the CBS identity" in capsys.readouterr().err

    def test_gs2_extremes_above_one_are_an_enclosure_failure(self, small_cfg, monkeypatch, capsys):
        # the top of the gs2 Schur pencil moved to 1.02: lambda_max leaves
        # [1 - gamma^2, 1]
        generalized = eigsolve.extreme_eigs_generalized

        def scaled(a, m, **kwargs):
            est = generalized(a, m, **kwargs)
            if m.kind == GAUSS_SEIDEL_2:
                est = dataclasses.replace(est, lambda_max=1.02)
            return est

        monkeypatch.setattr(eigsolve, "extreme_eigs_generalized", scaled)
        assert main(["verify", "--config", str(small_cfg)]) == 4
        assert "gs2 (degree 2): computed extremes" in capsys.readouterr().err

    def _coupled_G(self, monkeypatch, k, i, j):
        """assemble_G with G_k[i, j] = G_k[j, i] = 0.1 on every basis that
        holds indices i and j."""
        assemble_G = operator.assemble_G

        def coupled(family, iset, kk):
            g = assemble_G(family, iset, kk)
            if kk == k and max(i, j) < iset.size:
                g = g.tolil()
                g[i, j] = g[j, i] = 0.1
            return g.tocsr()

        monkeypatch.setattr(operator, "assemble_G", coupled)

    def test_detail_coupling_is_an_enclosure_failure(self, tmp_path, monkeypatch, capsys):
        # G_2 joins two indices of top total degree, so the detail block of A
        # is no longer D2 and the gs2 Schur pencil may reach above 1
        self._coupled_G(monkeypatch, 2, 4, 5)
        path = tmp_path / "gs2.cfg"
        path.write_text(SMALL.replace("mean_based splitting_complete gs2", "gs2"))
        assert main(["verify", "--config", str(path)]) == 4
        assert "gs2: G_2 on the detail indices" in capsys.readouterr().err

    def test_asymmetric_splitting_extremes_are_an_enclosure_failure(self, tmp_path, monkeypatch,
                                                                     capsys):
        # G_1 joins two detail indices, so M^-1 A - I is no longer 2-cyclic
        # and its extremes are no longer 1 -+ sigma_max
        self._coupled_G(monkeypatch, 1, 3, 5)
        path = tmp_path / "split.cfg"
        path.write_text(SMALL.replace("mean_based splitting_complete gs2", "splitting_complete"))
        assert main(["verify", "--config", str(path)]) == 4
        assert "splitting_complete: G_1 on the detail indices" in capsys.readouterr().err

    def test_asymmetric_mean_based_extremes_are_an_enclosure_failure(self, tmp_path, monkeypatch,
                                                                     capsys):
        # G_2 joins the two indices of total degree 1, so M^-1 A - I is no
        # longer 2-cyclic over the parity of the total degree; mean_based
        # alone, since the splitting's degree-1 start run, which precedes
        # every degree-2 run, finds the same coupling inside its detail color
        self._coupled_G(monkeypatch, 2, 1, 2)
        path = tmp_path / "mean.cfg"
        path.write_text(SMALL.replace("mean_based splitting_complete gs2", "mean_based"))
        assert main(["verify", "--config", str(path)]) == 4
        assert "mean_based: G_2 on the odd total degree indices" in capsys.readouterr().err

    def test_coloring_fault_names_the_degree_of_the_start_run(self, tmp_path, monkeypatch,
                                                              capsys):
        # with all three kinds the splitting's degree-1 start run meets the
        # coupling first, at a degree the config lists no row for
        self._coupled_G(monkeypatch, 2, 1, 2)
        path = tmp_path / "all.cfg"
        path.write_text(SMALL)
        assert main(["verify", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert "degree 1: splitting_complete: G_2 on the detail indices joins 1 and 2" in err

    def test_pencil_top_above_one_is_an_enclosure_failure(self, small_cfg, monkeypatch, capsys):
        # the top Ritz value of the splitting's pencil moved to 1.02; its
        # extremes come from the low end alone, so only this check sees it
        generalized = eigsolve.extreme_eigs_generalized

        def scaled(a, m, **kwargs):
            est = generalized(a, m, **kwargs)
            if m.kind == SPLITTING_COMPLETE:
                est = dataclasses.replace(est, lambda_max=1.02)
            return est

        monkeypatch.setattr(eigsolve, "extreme_eigs_generalized", scaled)
        assert main(["verify", "--config", str(small_cfg)]) == 4
        err = capsys.readouterr().err
        assert "splitting_complete (degree 2): the top Ritz value 1.02" in err

    def test_nonpositive_tol_override_is_a_config_error(self, small_cfg, capsys):
        for tol in ("0", "-1", "nan"):
            assert main(["verify", "--config", str(small_cfg), "--tol", tol]) == 2
            assert "tol must be a finite positive number" in capsys.readouterr().err

    def test_negative_seed_override_is_a_config_error(self, small_cfg, capsys):
        assert main(["verify", "--config", str(small_cfg), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_threads_flag_sets_bundled_openblas(self, small_cfg, blas_threads):
        assert len(bundled_openblas()) == 2  # numpy's and scipy's copies
        argv = ["bounds", "--config", str(small_cfg), "--out", "/dev/null", "--threads"]
        assert main(argv + ["1"]) == 0
        assert blas_threads() == [1, 1]
        assert main(argv + ["2"]) == 0
        assert blas_threads() == [2, 2]
