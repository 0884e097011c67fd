from dataclasses import replace

import pytest

from conftest import CONFIG_DIR
from sgprecond.basis import MultiIndexSet, check_kind
from sgprecond.bounds import bounds_for
from sgprecond.cli import main
from sgprecond.config import load_config, parse_config, serialize_config
from sgprecond.experiments import index_set
from sgprecond.errors import ConfigError, ParameterDomainError, UsageError
from sgprecond.fem import build_mesh
from sgprecond.operator import block_layout, check_basis
from sgprecond.orthopoly import family_from_name, legendre

SHIPPED = sorted(CONFIG_DIR.glob("*.cfg"))

GOOD = """sgp-config v1

[problem]
dim = 1
elements = 30
family = legendre
basis = complete
degree = 1 2
K = 3

[coefficients]
a0 = 1
a1 = 0.3/1*sin(1*pi*x1)
a2 = 0.3/4*sin(2*pi*x1)
a3 = 0.3/9*sin(3*pi*x1)

[run]
preconditioners = mean_based
tol = 1e-6
seed = 7
"""


class TestParse:
    def test_good_config(self):
        cfg = parse_config(GOOD)
        assert cfg.dim == 1 and cfg.elements == (30,)
        assert cfg.family.kind == "legendre"
        assert cfg.degrees == (1, 2) and cfg.nterms == 3
        assert cfg.preconditioners == ("mean_based",)
        assert cfg.seed == 7

    def test_round_trip_is_fixed_point(self):
        cfg = parse_config(GOOD)
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == text

    def test_missing_header(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("sgp-config v1", "config"))

    def test_unknown_key_rejected_with_line(self):
        # the classical columns follow from mean_based; there is no key for them
        for bad in (GOOD.replace("tol = 1e-6", "tolerance = 1e-6"), GOOD + "classical = true\n"):
            with pytest.raises(ConfigError) as err:
                parse_config(bad)
            assert err.value.line is not None

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD + "\n[extra]\nx = 1\n")

    def test_wrong_coefficient_count(self):
        bad = GOOD.replace("a3 = 0.3/9*sin(3*pi*x1)\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "a3" in str(err.value)

    def test_x2_rejected_in_1d(self):
        bad = GOOD.replace("0.3/4*sin(2*pi*x1)", "0.3/4*sin(2*pi*x2)")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "x2" in str(err.value)

    def test_rhs_goes_through_the_expression_check(self):
        text = GOOD + "rhs = x2\n"
        line = text.splitlines().index("rhs = x2") + 1
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line and "rhs uses x2" in str(err.value)
        with pytest.raises(ConfigError) as err:
            parse_config(GOOD + "rhs = 1+\n")
        assert err.value.line == line and "rhs:" in str(err.value)

    def test_bad_expression_reported_with_line(self):
        bad = GOOD.replace("0.3/9*sin(3*pi*x1)", "0.3*")
        with pytest.raises(ConfigError):
            parse_config(bad)

    @staticmethod
    def _rejected_line(tmp_path, capsys, good_line, bad_line, message, command):
        """GOOD with ``good_line`` replaced by ``bad_line`` fails to parse and
        makes ``sgp command`` exit 2 with nothing on stdout, both naming the
        line."""
        from sgprecond.cli import main

        text = GOOD.replace(good_line, bad_line)
        line = GOOD.splitlines().index(good_line) + 1
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(text)
        assert err.value.line == line
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"line {line}: " in captured.err

    def test_empty_preconditioner_list_rejected_with_line(self, tmp_path, capsys):
        self._rejected_line(tmp_path, capsys, "preconditioners = mean_based",
                            "preconditioners = ", "names no kind", "solve")

    def test_preconditioner_named_twice_rejected_with_line(self, tmp_path, capsys):
        self._rejected_line(tmp_path, capsys, "preconditioners = mean_based",
                            "preconditioners = mean_based gs2 mean_based",
                            "'mean_based' is named twice", "solve")

    def test_degree_named_twice_rejected_with_line(self, tmp_path, capsys):
        # each degree of the sweep is one row of the table
        self._rejected_line(tmp_path, capsys, "degree = 1 2", "degree = 2 2",
                            "degree 2 is named twice", "verify")

    def test_kind_requires_matching_basis(self):
        bad = GOOD.replace("preconditioners = mean_based", "preconditioners = splitting_tp")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_tensor_needs_per_variable_degrees(self):
        text = GOOD.replace("basis = complete", "basis = tensor").replace(
            "degree = 1 2", "degrees = 2 2 2"
        )
        cfg = parse_config(text)
        assert cfg.degrees == (2, 2, 2)  # one per variable, so values may repeat
        bad = GOOD.replace("basis = complete", "basis = tensor")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_gamma_only_for_gegenbauer(self):
        text = GOOD.replace("family = legendre", "family = gegenbauer\ngamma = 2.0")
        assert parse_config(text).family.gamma == 2.0
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("family = legendre", "family = legendre\ngamma = 2.0"))
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("family = legendre", "family = gegenbauer"))

    def test_table_excludes_expressions(self):
        bad = GOOD.replace("a0 = 1", "a0 = 1\ntable = coeffs.txt")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_2d_needs_two_extents(self):
        bad = GOOD.replace("dim = 1", "dim = 2")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_element_defaults_to_q1(self):
        assert parse_config(GOOD).element == "q1"

    def test_p1_element_parsed_and_round_tripped(self):
        text = GOOD.replace("dim = 1", "dim = 2").replace(
            "elements = 30", "elements = 21 21\nelement = p1"
        )
        cfg = parse_config(text)
        assert cfg.element == "p1" and cfg.elements == (21, 21)
        out = serialize_config(cfg)
        assert "element = p1" in out.splitlines()
        assert parse_config(out) == cfg

    def test_unknown_element_rejected_with_line(self):
        bad = GOOD.replace("dim = 1", "dim = 2").replace(
            "elements = 30", "elements = 4 4\nelement = p2"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.line == 6

    def test_p1_rejected_in_1d(self):
        bad = GOOD.replace("elements = 30", "elements = 30\nelement = p1")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.line == 6

    def test_overrides(self):
        cfg = parse_config(GOOD).with_overrides(seed=5, tol=1e-9)
        assert cfg.seed == 5 and cfg.tol == 1e-9
        for bad in ({"tol": 0.0}, {"tol": float("inf")}, {"seed": -1}):
            with pytest.raises(ConfigError):
                cfg.with_overrides(**bad)

    def test_nan_tol_rejected(self):
        with pytest.raises(ConfigError, match="tol must be a finite positive number"):
            parse_config(GOOD.replace("tol = 1e-6", "tol = nan"))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            parse_config(GOOD.replace("seed = 7", "seed = -1"))

    def test_iteration_counts_must_be_positive(self):
        with pytest.raises(ConfigError, match="max_iter must be >= 1"):
            parse_config(GOOD.replace("seed = 7", "seed = 7\nmax_iter = 0"))


TENSOR_GOOD = GOOD.replace("basis = complete", "basis = tensor").replace("degree = 1 2",
                                                                          "degrees = 1 1 1")

# each input the parser itself rejects: the text, the start of the message,
# and the line the error names (None: the whole file)
REJECTED = {
    "no '='": (GOOD.replace("dim = 1", "dim = 1\ndim 1"), "expected 'key = value'", "dim 1"),
    "key outside any section": (GOOD.replace("sgp-config v1\n", "sgp-config v1\nx = 1\n"),
                                "key outside any section", "x = 1"),
    "empty text": ("", "missing header line 'sgp-config v1'", None),
    "dim not an integer": (GOOD.replace("dim = 1", "dim = one"), "dim must be an integer",
                           "dim = one"),
    "tol not a number": (GOOD.replace("tol = 1e-6", "tol = small"), "tol must be a number",
                         "tol = small"),
    "oracle not a bool": (GOOD + "oracle = maybe\n", "oracle must be true or false",
                          "oracle = maybe"),
    "duplicate key": (GOOD + "seed = 8\n", "duplicate key 'seed'", "seed = 8"),
    "no K": (GOOD.replace("K = 3\n", ""), "[problem] is missing 'K'", None),
    "K = 0": (GOOD.replace("K = 3", "K = 0"), "K must be >= 1", "K = 0"),
    "complete without degree": (GOOD.replace("degree = 1 2\n", ""),
                                "complete basis requires 'degree'", None),
    "degree 0": (GOOD.replace("degree = 1 2", "degree = 0 2"), "degree entries must be >= 1",
                 "degree = 0 2"),
    "empty degree": (GOOD.replace("degree = 1 2", "degree ="), "degree entries must be >= 1",
                     "degree ="),
    "degrees on a complete basis": (GOOD.replace("K = 3", "K = 3\ndegrees = 1 1 1"),
                                    "'degrees' applies to tensor bases only", "degrees = 1 1 1"),
    "degree on a tensor basis": (TENSOR_GOOD.replace("K = 3", "K = 3\ndegree = 2"),
                                 "'degree' applies to complete bases only", "degree = 2"),
    "two tensor degrees for K = 3": (TENSOR_GOOD.replace("degrees = 1 1 1", "degrees = 2 2"),
                                     "need 3 per-variable degrees", "degrees = 2 2"),
    "negative tensor degree": (TENSOR_GOOD.replace("degrees = 1 1 1", "degrees = 2 -1 2"),
                               "degrees must be >= 0", "degrees = 2 -1 2"),
}


@pytest.mark.parametrize("text, message, bad", REJECTED.values(), ids=list(REJECTED))
def test_parser_rejection_names_its_line(text, message, bad):
    line = None if bad is None else text.splitlines().index(bad) + 1
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert str(err.value).startswith(message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize("text, written", (
    (GOOD.replace("family = legendre", "family = gegenbauer\ngamma = 1.5"), "gamma = 1.5"),
    (TENSOR_GOOD, "degrees = 1 1 1"),
    (GOOD.replace("a0 = 1\na1 = 0.3/1*sin(1*pi*x1)\na2 = 0.3/4*sin(2*pi*x1)\n"
                  "a3 = 0.3/9*sin(3*pi*x1)", "table = coeffs.txt"), "table = coeffs.txt"),
), ids=("gamma", "tensor degrees", "table"))
def test_optional_keys_round_trip(text, written):
    cfg = parse_config(text)
    out = serialize_config(cfg)
    assert written in out.splitlines()
    assert parse_config(out) == cfg and serialize_config(parse_config(out)) == out


# each input a module rejects: the edits of GOOD, the key whose line the
# error names, and the owner call that states the rule
OWNED = {
    "1D mesh with two extents": ((("elements = 30", "elements = 5 5"),), "elements",
                                 build_mesh, (1, (5, 5))),
    "one element": ((("elements = 30", "elements = 1"),), "elements", build_mesh, (1, (1,))),
    "2D mesh with one extent": ((("dim = 1", "dim = 2"),), "elements", build_mesh, (2, (30,))),
    "2D mesh not square": ((("dim = 1", "dim = 2"), ("elements = 30", "elements = 4 5")),
                           "elements", build_mesh, (2, (4, 5))),
    "p1 in 1D": ((("elements = 30", "elements = 30\nelement = p1"),), "element",
                 build_mesh, (1, (30,), "p1")),
    "unknown element": ((("dim = 1", "dim = 2"), ("elements = 30", "elements = 4 4\nelement = p2")),
                        "element", build_mesh, (2, (4, 4), "p2")),
    "dim 3": ((("dim = 1", "dim = 3"),), "dim", build_mesh, (3, (30,))),
    "unknown family": ((("family = legendre", "family = jacobi"),), "family",
                       family_from_name, ("jacobi",)),
    "gegenbauer without gamma": ((("family = legendre", "family = gegenbauer"),), "family",
                                 family_from_name, ("gegenbauer",)),
    "hermite with gamma": ((("family = legendre", "family = hermite\ngamma = 2.0"),), "family",
                           family_from_name, ("hermite", 2.0)),
    "gamma inf": ((("family = legendre", "family = gegenbauer\ngamma = inf"),), "family",
                  family_from_name, ("gegenbauer", float("inf"))),
    "gamma 1e308": ((("family = legendre", "family = gegenbauer\ngamma = 1e308"),), "family",
                    family_from_name, ("gegenbauer", 1e308)),
    "unknown basis": ((("basis = complete", "basis = Sparse"),), "basis", check_kind, ("sparse",)),
    "unknown kind": ((("preconditioners = mean_based", "preconditioners = jacobi"),),
                     "preconditioners", check_basis, ("jacobi", "complete")),
    "tensor kind on a complete basis": (
        (("preconditioners = mean_based", "preconditioners = splitting_tp"),),
        "preconditioners", check_basis, ("splitting_tp", "complete")),
}


@pytest.mark.parametrize("edits, key, owner, args", OWNED.values(), ids=list(OWNED))
def test_owner_rejection_names_the_value_line(edits, key, owner, args, tmp_path, capsys):
    """The config error carries the owner's own message on the key's line,
    and bounds and verify exit 2 on it before any work."""
    text = GOOD
    for old, new in edits:
        text = text.replace(old, new)
    line = 1 + [ln.split("=")[0].strip() for ln in text.splitlines()].index(key)
    with pytest.raises((ParameterDomainError, UsageError)) as owned:
        owner(*args)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line and str(err.value) == f"line {line}: {owned.value}"
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    for command in ("bounds", "verify"):
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"line {line}: {owned.value}" in captured.err


def test_unknown_kind_has_one_message():
    iset = MultiIndexSet.complete(3, 3)
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD.replace("preconditioners = mean_based", "preconditioners = jacobi"))
    message = str(err.value).split(": ", 1)[1]
    assert message.startswith("unknown preconditioner 'jacobi' (choose from mean_based,")
    for call, args in ((block_layout, ("jacobi", iset)),
                       (bounds_for, ("jacobi", legendre(), iset, 0.3))):
        with pytest.raises(UsageError) as owned:
            call(*args)
        assert str(owned.value) == message


def test_unknown_basis_kind_has_one_message():
    # the parser and the runners' basis builder both defer to basis.check_kind
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD.replace("basis = complete", "basis = sparse"))
    message = str(err.value).split(": ", 1)[1]
    assert message == "unknown basis kind 'sparse' (choose from complete, tensor)"
    cfg = parse_config(GOOD)
    for kind in ("sparse", "Complete", ""):
        with pytest.raises(UsageError) as owned:
            index_set(replace(cfg, basis=kind), 2)
        assert str(owned.value) == message.replace("'sparse'", repr(kind))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_loads_and_round_trips(path):
    cfg = load_config(path)
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text
