"""Line-oriented experiment configuration files.

The format is deliberately small: a version header line ``sgp-config v1``,
``[section]`` markers, ``key = value`` pairs and ``#`` comments.  Unknown
sections or keys are rejected with the offending line number.  Each value is
validated before any assembly work starts by the module that owns its rule
(``fem.build_mesh``, ``RecurrenceFamily``, ``basis.check_kind``,
``operator.check_basis``), whose rejection is reported on the value's line.
parse -> serialize -> parse is a fixed point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial

from . import coeffexpr
from .basis import COMPLETE, check_kind
from .errors import ConfigError, ExprSyntaxError, ParameterDomainError, UsageError
from .fem import build_mesh
from .operator import check_basis
from .orthopoly import RecurrenceFamily, family_from_name

__all__ = ["ExperimentConfig", "parse_config", "serialize_config", "load_config"]

HEADER = "sgp-config v1"


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int
    elements: tuple
    family: RecurrenceFamily
    basis: str  # "complete" | "tensor"
    degrees: tuple  # complete: swept total degrees; tensor: one per-variable degree tuple
    nterms: int
    coefficients: tuple | None  # expression strings a0..aK
    table_path: str | None
    preconditioners: tuple
    kappa_a: bool = True
    oracle: bool = False
    tol: float = 1e-6
    max_iter: int = 400
    seed: int = 42
    rhs: str = "1"
    element: str = "q1"  # 2D element kind: "q1" | "p1"

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be a finite positive number, got {self.tol!r}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def with_overrides(self, seed=None, tol=None):
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=int(seed))
        if tol is not None:
            cfg = replace(cfg, tol=float(tol))
        return cfg


def _parse_lines(text: str):
    """Yield (line_no, section, key, value) with structural validation."""
    section = None
    header_seen = False
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != HEADER:
                raise ConfigError(f"expected header {HEADER!r}, found {line!r}", line=no)
            header_seen = True
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", line=no)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=no)
        if section is None:
            raise ConfigError("key outside any section", line=no)
        key, value = (part.strip() for part in line.split("=", 1))
        allowed = _SECTIONS[section]
        if allowed is not None and key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [{section}]", line=no)
        yield no, section, key, value
    if not header_seen:
        raise ConfigError(f"missing header line {HEADER!r}")


def _to_int(value, no, key):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", line=no) from None


def _to_float(value, no, key):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", line=no) from None


def _to_bool(value, no, key):
    low = value.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}", line=no)


def _checked(line, build, *args):
    """build(*args), with its owner's rejection reported on config ``line``."""
    try:
        return build(*args)
    except (ParameterDomainError, UsageError) as exc:
        raise ConfigError(str(exc), line=line) from None


def _to_expr(value, no, key, dim):
    try:
        tree = coeffexpr.parse(value)
    except ExprSyntaxError as exc:
        raise ConfigError(f"{key}: {exc}", line=no) from None
    if dim == 1 and "x2" in coeffexpr.variables(tree):
        raise ConfigError(f"{key} uses x2 in a 1D problem", line=no)
    return value


# the converter of each [run] key besides preconditioners, in parse order;
# the ExperimentConfig field is the key in lower case, and an absent key
# keeps the field's default; _to_expr also takes the problem's dimension
_RUN_KEYS = {
    "tol": _to_float,
    "max_iter": _to_int,
    "seed": _to_int,
    "rhs": _to_expr,
    "kappa_A": _to_bool,
    "oracle": _to_bool,
}

_SECTIONS = {
    "problem": {
        "dim",
        "elements",
        "element",
        "family",
        "gamma",
        "basis",
        "degree",
        "degrees",
        "K",
    },
    "coefficients": None,  # a0..aK or table
    "run": {"preconditioners", *_RUN_KEYS},
}


def parse_config(text: str) -> ExperimentConfig:
    problem = {}
    coeffs = {}
    run = {}
    lines = {}
    for no, section, key, value in _parse_lines(text):
        target = {"problem": problem, "coefficients": coeffs, "run": run}[section]
        if key in target:
            raise ConfigError(f"duplicate key {key!r}", line=no)
        target[key] = value
        lines[(section, key)] = no

    def where(section, key):
        return lines.get((section, key))

    for req in ("dim", "elements", "family", "basis", "K"):
        if req not in problem:
            raise ConfigError(f"[problem] is missing {req!r}")
    dim = _to_int(problem["dim"], where("problem", "dim"), "dim")
    if dim not in (1, 2):
        raise ConfigError("dim must be 1 or 2", line=where("problem", "dim"))
    no = where("problem", "elements")
    elements = tuple(_to_int(p, no, "elements") for p in problem["elements"].split())
    _checked(no, build_mesh, dim, elements)
    element = problem.get("element", "q1").strip().lower()
    _checked(where("problem", "element"), build_mesh, dim, elements, element)
    gamma = None
    if "gamma" in problem:
        gamma = _to_float(problem["gamma"], where("problem", "gamma"), "gamma")
    fam = _checked(where("problem", "family"), family_from_name, problem["family"], gamma)
    basis = problem["basis"].strip().lower()
    _checked(where("problem", "basis"), check_kind, basis)
    nterms = _to_int(problem["K"], where("problem", "K"), "K")
    if nterms < 1:
        raise ConfigError("K must be >= 1", line=where("problem", "K"))
    if basis == COMPLETE:
        if "degree" not in problem:
            raise ConfigError("complete basis requires 'degree'")
        no = where("problem", "degree")
        degrees = tuple(_to_int(p, no, "degree") for p in problem["degree"].split())
        if "degrees" in problem:
            raise ConfigError("'degrees' applies to tensor bases only", line=where("problem", "degrees"))
        if not degrees or min(degrees) < 1:
            raise ConfigError("degree entries must be >= 1", line=no)
        for i, d in enumerate(degrees):
            if d in degrees[:i]:
                raise ConfigError(f"degree {d} is named twice", line=no)
    else:
        if "degrees" not in problem:
            raise ConfigError("tensor basis requires 'degrees' (one per variable)")
        if "degree" in problem:
            raise ConfigError("'degree' applies to complete bases only", line=where("problem", "degree"))
        no = where("problem", "degrees")
        degrees = tuple(_to_int(p, no, "degrees") for p in problem["degrees"].split())
        if len(degrees) != nterms:
            raise ConfigError(f"need {nterms} per-variable degrees", line=no)
        if min(degrees) < 0:
            raise ConfigError("degrees must be >= 0", line=no)

    table_path = coeffs.pop("table", None)
    expr_texts = None
    if table_path is None:
        expected = [f"a{i}" for i in range(nterms + 1)]
        missing = [k for k in expected if k not in coeffs]
        extra = [k for k in coeffs if k not in expected]
        if missing or extra:
            raise ConfigError(
                f"[coefficients] must define exactly a0..a{nterms} or 'table'"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
            )
        expr_texts = tuple(_to_expr(coeffs[k], where("coefficients", k), k, dim) for k in expected)
    elif coeffs:
        raise ConfigError("[coefficients] cannot mix 'table' with expressions")

    precs = tuple(run.get("preconditioners", "mean_based").split())
    precs_line = where("run", "preconditioners")
    if not precs:
        raise ConfigError("preconditioners names no kind", line=precs_line)
    for i, p in enumerate(precs):
        if p in precs[:i]:
            raise ConfigError(f"preconditioner {p!r} is named twice", line=precs_line)
        _checked(precs_line, check_basis, p, basis)
    converters = {**_RUN_KEYS, "rhs": partial(_to_expr, dim=dim)}
    options = {
        key.lower(): convert(run[key], where("run", key), key)
        for key, convert in converters.items()
        if key in run
    }

    return ExperimentConfig(
        dim=dim,
        elements=elements,
        family=fam,
        basis=basis,
        degrees=degrees,
        nterms=nterms,
        coefficients=expr_texts,
        table_path=table_path,
        preconditioners=precs,
        element=element,
        **options,
    )


def serialize_config(cfg: ExperimentConfig) -> str:
    out = [HEADER, "", "[problem]"]
    out.append(f"dim = {cfg.dim}")
    out.append("elements = " + " ".join(str(e) for e in cfg.elements))
    out.append(f"element = {cfg.element}")
    out.append(f"family = {cfg.family.kind}")
    if cfg.family.gamma is not None:
        out.append(f"gamma = {cfg.family.gamma!r}")
    out.append(f"basis = {cfg.basis}")
    if cfg.basis == COMPLETE:
        out.append("degree = " + " ".join(str(d) for d in cfg.degrees))
    else:
        out.append("degrees = " + " ".join(str(d) for d in cfg.degrees))
    out.append(f"K = {cfg.nterms}")
    out.append("")
    out.append("[coefficients]")
    if cfg.table_path is not None:
        out.append(f"table = {cfg.table_path}")
    else:
        for i, text in enumerate(cfg.coefficients):
            out.append(f"a{i} = {text}")
    out.append("")
    out.append("[run]")
    out.append("preconditioners = " + " ".join(cfg.preconditioners))
    out.append(f"kappa_A = {str(cfg.kappa_a).lower()}")
    out.append(f"oracle = {str(cfg.oracle).lower()}")
    out.append(f"tol = {cfg.tol!r}")
    out.append(f"max_iter = {cfg.max_iter}")
    out.append(f"seed = {cfg.seed}")
    out.append(f"rhs = {cfg.rhs}")
    return "\n".join(out) + "\n"


def load_config(path) -> ExperimentConfig:
    """Read and parse a config file; a relative table path is read from its directory."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    cfg = parse_config(text)
    if cfg.table_path is not None:
        cfg = replace(cfg, table_path=os.path.join(os.path.dirname(path), cfg.table_path))
    return cfg
