"""Run configuration: a diff-friendly sectioned key=value format (JSON
accepted as an alternate front-end), validated into one RunConfig.

parse -> serialize -> parse is the identity; defaults are filled at parse
time so the echoed config is complete.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError
from .presets import VARIANT_TABLE, exit_epsilons

SECTIONS = ("operator", "grid", "experiment", "output")
OPERATOR_VARIANTS = tuple(VARIANT_TABLE)
EXPERIMENT_KINDS = ("kernel", "ibp", "rate", "varadhan", "exit", "report")

_OPERATOR_KEYS = {
    "variant", "k", "a_matrix", "l", "alpha_levy", "support", "tol",
    "alpha_frac", "q",
}
_GRID_KEYS = {"d", "cutoff", "resolution"}
_OUTPUT_KEYS = {"directory", "precision"}
_EXPERIMENT_KEYS = {
    "kernel": {"t", "x"},
    "ibp": {"t", "moment_path"},
    "rate": {"x", "y", "nodes", "winding_max", "perturb"},
    "varadhan": {"k", "x", "y", "t_start", "t_factor", "t_count"},
    "exit": {"k", "delta", "s", "eps_start", "eps_factor", "eps_count"},
    "report": {"fast"},
}


@dataclass
class OperatorConfig:
    variant: str
    k: int | None = None
    a_matrix: tuple | None = None
    l: int | None = None
    alpha_levy: float | None = None
    support: float = 1.0
    tol: float = 1e-8
    alpha_frac: float | None = None
    q: tuple | None = None


@dataclass
class GridConfig:
    d: int = 1
    cutoff: int | None = None       # None: sized by the cutoff rule at run time
    resolution: int | None = None


@dataclass
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class OutputConfig:
    directory: str = "out"
    precision: int = 17


@dataclass
class RunConfig:
    operator: OperatorConfig
    grid: GridConfig
    experiment: ExperimentConfig
    output: OutputConfig


# ---------------------------------------------------------------------------
# scalar syntax


def _parse_scalar(text: str):
    s = text.strip()
    if s.lower() == "true":
        return True
    if s.lower() == "false":
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def _format_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _finite(what: str, v) -> float:
    """float(v), or ValidationError when v is not a finite number."""
    try:
        out = float(v)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number (got {v!r})") from None
    if not math.isfinite(out):
        raise ValidationError(f"{what} must be finite (got {v!r})")
    return out


def _q_entry(e, c) -> tuple:
    try:
        exponent = int(e)
    except (TypeError, ValueError):
        raise ValidationError(f"q exponent must be an integer (got {e!r})") from None
    return exponent, _finite("q coefficient", c)


def _parse_q(text: str) -> tuple:
    """Perturbation coefficients: 'exponent:coeff' pairs, comma-separated."""
    out = []
    for part in str(text).split(","):
        if ":" not in part:
            raise ValidationError(f"q entry {part!r} is not exponent:coeff")
        out.append(_q_entry(*part.split(":", 1)))
    return tuple(sorted(out))


def _format_q(q: tuple) -> str:
    return ",".join(f"{e}:{c!r}" for e, c in q)


def _parse_matrix(text: str) -> tuple:
    """Rows split by ';', entries by ','."""
    return _matrix_rows(row.split(",") for row in str(text).split(";"))


def _matrix_rows(rows) -> tuple:
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise ValidationError(f"a_matrix row {row!r} is not a list")
        out.append(tuple(_finite("a_matrix entry", v) for v in row))
    if len({len(r) for r in out}) != 1:
        raise ValidationError("a_matrix rows have unequal lengths")
    return tuple(out)


def _format_matrix(m: tuple) -> str:
    return ";".join(",".join(repr(float(v)) for v in row) for row in m)


# ---------------------------------------------------------------------------
# text front-ends -> raw section mapping


def _parse_sectioned(text: str) -> dict:
    raw: dict = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header",
                                 line=lineno, col=len(line.rstrip()))
            name = stripped[1:-1].strip()
            if not name:
                raise ParseError("empty section name", line=lineno, col=2)
            if name in raw:
                raise ParseError(f"duplicate section [{name}]", line=lineno, col=1)
            raw[name] = {}
            section = name
            continue
        if "=" not in stripped:
            raise ParseError("expected key = value",
                             line=lineno, col=line.find(stripped[0]) + 1)
        if section is None:
            raise ParseError("key outside any section", line=lineno, col=1)
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError("empty key", line=lineno, col=1)
        if key in raw[section]:
            raise ParseError(f"duplicate key {key!r} in [{section}]",
                             line=lineno, col=1)
        raw[section][key] = value.strip()
    return raw


def _parse_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         line=exc.lineno, col=exc.colno) from None
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", line=1, col=1)
    raw = {}
    for section, body in data.items():
        if not isinstance(body, dict):
            raise ValidationError(f"section [{section}] must be an object")
        raw[str(section)] = {str(k): v for k, v in body.items()}
    return raw


# ---------------------------------------------------------------------------
# validation helpers


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def _as_int(section: str, key: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValidationError(f"{key} in [{section}] must be an integer")
    if isinstance(v, str):
        v = _parse_scalar(v)
    if isinstance(v, float) and not v.is_integer():
        raise ValidationError(f"{key} in [{section}] must be an integer (got {v})")
    try:
        return int(v)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} in [{section}] must be an integer (got {v!r})") from None


def _as_float(section: str, key: str, v) -> float:
    if isinstance(v, bool):
        raise ValidationError(f"{key} in [{section}] must be a number")
    if isinstance(v, str):
        v = _parse_scalar(v)
    if not isinstance(v, (int, float)):
        raise ValidationError(f"{key} in [{section}] must be a number (got {v!r})")
    return _finite(f"{key} in [{section}]", v)


def _as_bool(section: str, key: str, v) -> bool:
    if isinstance(v, str):
        v = _parse_scalar(v)
    if not isinstance(v, bool):
        raise ValidationError(f"{key} in [{section}] must be true or false")
    return v


def _check_keys(section: str, body: dict, allowed: set):
    for key in body:
        if key not in allowed:
            raise ValidationError(f"unknown key {key!r} in [{section}]")


# ---------------------------------------------------------------------------
# section builders


def _build_operator(body: dict) -> OperatorConfig:
    _check_keys("operator", body, _OPERATOR_KEYS)
    if "variant" not in body:
        raise ValidationError("operator.variant is required")
    variant = str(body["variant"]).strip()
    if variant not in OPERATOR_VARIANTS:
        raise ValidationError(
            f"variant must be one of {', '.join(OPERATOR_VARIANTS)} (got {variant!r})"
        )
    cfg = OperatorConfig(variant=variant)
    if "k" in body:
        cfg.k = _as_int("operator", "k", body["k"])
        _require(cfg.k >= 1, f"k must be >= 1 (got {cfg.k})")
    if "a_matrix" in body:
        v = body["a_matrix"]
        cfg.a_matrix = (
            _matrix_rows(v) if isinstance(v, (list, tuple)) else _parse_matrix(v)
        )
    if "l" in body:
        cfg.l = _as_int("operator", "l", body["l"])
        _require(cfg.l >= 1, f"l must be >= 1 (got {cfg.l})")
    if "alpha_levy" in body:
        cfg.alpha_levy = _as_float("operator", "alpha_levy", body["alpha_levy"])
        _require(-1.0 < cfg.alpha_levy < 0.0,
                 f"alpha_levy must lie in (-1, 0) (got {cfg.alpha_levy})")
    if "support" in body:
        cfg.support = _as_float("operator", "support", body["support"])
        _require(cfg.support > 0, f"support must be > 0 (got {cfg.support})")
    if "tol" in body:
        cfg.tol = _as_float("operator", "tol", body["tol"])
        _require(cfg.tol > 0, f"tol must be > 0 (got {cfg.tol})")
    if "alpha_frac" in body:
        cfg.alpha_frac = _as_float("operator", "alpha_frac", body["alpha_frac"])
        _require(0.0 < cfg.alpha_frac < 1.0,
                 f"alpha_frac must lie in (0, 1) (got {cfg.alpha_frac})")
    if "q" in body:
        v = body["q"]
        if isinstance(v, dict):
            cfg.q = tuple(sorted(_q_entry(e, c) for e, c in v.items()))
        else:
            cfg.q = _parse_q(v)
        for e, _ in cfg.q:
            _require(e >= 0, f"q exponent must be >= 0 (got {e})")
    for key in VARIANT_TABLE[variant][0]:
        # an empty q parses to (), which is as missing as None
        _require(getattr(cfg, key) not in (None, ()),
                 f"{variant} needs operator.{key}")
    return cfg


def _build_grid(body: dict) -> GridConfig:
    _check_keys("grid", body, _GRID_KEYS)
    cfg = GridConfig()
    if "d" in body:
        cfg.d = _as_int("grid", "d", body["d"])
        _require(cfg.d in (1, 2), f"d must be 1 or 2 (got {cfg.d})")
    if "cutoff" in body:
        cfg.cutoff = _as_int("grid", "cutoff", body["cutoff"])
        _require(cfg.cutoff >= 4, f"cutoff must be >= 4 (got {cfg.cutoff})")
    if "resolution" in body:
        cfg.resolution = _as_int("grid", "resolution", body["resolution"])
        _require(cfg.resolution >= 8,
                 f"resolution must be >= 8 (got {cfg.resolution})")
    return cfg


_EXPERIMENT_DEFAULTS = {
    "kernel": {"x": 0.0},
    "ibp": {"t": 1.0, "moment_path": "analytic"},
    "rate": {"x": 0.0, "y": 1.0, "nodes": 64, "winding_max": 2, "perturb": 0.0},
    "varadhan": {"x": 0.0, "y": 1.0, "t_factor": 0.5, "t_count": 8},
    "exit": {"delta": 0.5, "s": 0.1},
    "report": {"fast": True},
}

_FLOAT_PARAMS = {
    "t", "x", "y", "perturb", "t_start", "t_factor", "delta", "s",
    "eps_start", "eps_factor",
}
_INT_PARAMS = {"nodes", "winding_max", "t_count", "eps_count", "k"}
_BOOL_PARAMS = {"fast"}


def _build_experiment(body: dict, operator: OperatorConfig) -> ExperimentConfig:
    if "kind" not in body:
        raise ValidationError("experiment.kind is required")
    kind = str(body["kind"]).strip()
    if kind not in EXPERIMENT_KINDS:
        raise ValidationError(
            f"kind must be one of {', '.join(EXPERIMENT_KINDS)} (got {kind!r})"
        )
    allowed = _EXPERIMENT_KEYS[kind] | {"kind"}
    _check_keys("experiment", body, allowed)
    params = {}
    for key, value in body.items():
        if key == "kind":
            continue
        if key in _FLOAT_PARAMS:
            params[key] = _as_float("experiment", key, value)
        elif key in _INT_PARAMS:
            params[key] = _as_int("experiment", key, value)
        elif key in _BOOL_PARAMS:
            params[key] = _as_bool("experiment", key, value)
        else:
            params[key] = str(value).strip()
    for key, dv in _EXPERIMENT_DEFAULTS.get(kind, {}).items():
        params.setdefault(key, dv)
    # derived defaults that depend on other fields
    if kind in ("varadhan", "exit"):
        if "k" not in params:
            _require(operator.variant == "pure_power" and operator.k is not None,
                     f"experiment.k is required for {kind} unless the operator "
                     "is pure_power")
            params["k"] = operator.k
        _require(params["k"] >= 1, f"k must be >= 1 (got {params['k']})")
    if kind == "varadhan":
        params.setdefault("t_start", 0.1 if params["k"] == 1 else 0.2)
    if kind == "exit":
        # together these three defaults give the preset grid exit_epsilons(k)
        params.setdefault("eps_start", 0.25 if params["k"] == 1 else 0.2)
        params.setdefault("eps_factor",
                          0.2 ** 0.2 if params["k"] == 1 else 0.1 ** (1.0 / 9.0))
        params.setdefault("eps_count", len(exit_epsilons(params["k"])))
    # range checks
    if kind == "kernel":
        _require("t" in params, "experiment.t is required for kernel")
    for key in ("t", "t_start", "s", "delta", "eps_start"):
        if key in params:
            _require(params[key] > 0, f"{key} must be > 0 (got {params[key]})")
    for key in ("t_factor", "eps_factor"):
        if key in params:
            _require(0.0 < params[key] < 1.0,
                     f"{key} must lie in (0, 1) (got {params[key]})")
    for key in ("t_count", "eps_count"):
        if key in params:
            _require(params[key] >= 3, f"{key} must be >= 3 (got {params[key]})")
    if "nodes" in params:
        _require(params["nodes"] >= 2,
                 f"nodes must be >= 2 (got {params['nodes']})")
    if "winding_max" in params:
        _require(params["winding_max"] >= 0,
                 f"winding_max must be >= 0 (got {params['winding_max']})")
    if "delta" in params:
        _require(params["delta"] < math.pi,
                 f"delta must be < pi (got {params['delta']})")
    if "moment_path" in params:
        _require(params["moment_path"] in ("analytic", "quadrature"),
                 f"moment_path must be analytic or quadrature "
                 f"(got {params['moment_path']!r})")
    return ExperimentConfig(kind=kind, params=params)


def _build_output(body: dict) -> OutputConfig:
    _check_keys("output", body, _OUTPUT_KEYS)
    cfg = OutputConfig()
    if "directory" in body:
        cfg.directory = str(body["directory"]).strip()
        _require(bool(cfg.directory), "directory must be nonempty")
    if "precision" in body:
        cfg.precision = _as_int("output", "precision", body["precision"])
        _require(1 <= cfg.precision <= 17,
                 f"precision must lie in 1..17 (got {cfg.precision})")
    return cfg


def _from_mapping(raw: dict) -> RunConfig:
    for section in raw:
        if section not in SECTIONS:
            raise ValidationError(f"unknown section [{section}]")
    if "operator" not in raw:
        raise ValidationError("missing [operator] section")
    if "experiment" not in raw:
        raise ValidationError("missing [experiment] section")
    operator = _build_operator(dict(raw["operator"]))
    grid = _build_grid(dict(raw.get("grid", {})))
    experiment = _build_experiment(dict(raw["experiment"]), operator)
    output = _build_output(dict(raw.get("output", {})))
    return RunConfig(operator=operator, grid=grid,
                     experiment=experiment, output=output)


def parse_config(text: str) -> RunConfig:
    """Parse either front-end into a validated RunConfig with defaults filled."""
    stripped = text.lstrip()
    raw = _parse_json(text) if stripped.startswith("{") else _parse_sectioned(text)
    return _from_mapping(raw)


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Re-validate with 'section.key=value' assignments applied on top."""
    raw = _to_mapping(config)
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ValidationError(f"override {item!r} is not section.key=value")
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in SECTIONS:
            raise ValidationError(f"unknown section [{section}]")
        raw.setdefault(section, {})[key] = value.strip()
    return _from_mapping(raw)


# ---------------------------------------------------------------------------
# canonical serialization


def _to_mapping(config: RunConfig) -> dict:
    op: dict = {"variant": config.operator.variant}
    for key in ("k", "l"):
        v = getattr(config.operator, key)
        if v is not None:
            op[key] = v
    if config.operator.a_matrix is not None:
        op["a_matrix"] = _format_matrix(config.operator.a_matrix)
    if config.operator.alpha_levy is not None:
        op["alpha_levy"] = config.operator.alpha_levy
    if config.operator.variant == "levy":
        op["support"] = config.operator.support
        op["tol"] = config.operator.tol
    if config.operator.alpha_frac is not None:
        op["alpha_frac"] = config.operator.alpha_frac
    if config.operator.q is not None:
        op["q"] = _format_q(config.operator.q)
    grid: dict = {"d": config.grid.d}
    for key in ("cutoff", "resolution"):
        v = getattr(config.grid, key)
        if v is not None:
            grid[key] = v
    exp: dict = {"kind": config.experiment.kind}
    for key in sorted(config.experiment.params):
        exp[key] = config.experiment.params[key]
    out = {"directory": config.output.directory,
           "precision": config.output.precision}
    return {"operator": op, "grid": grid, "experiment": exp, "output": out}


def serialize_config(config: RunConfig) -> str:
    lines = []
    mapping = _to_mapping(config)
    for section in SECTIONS:
        body = mapping.get(section)
        if body is None:
            continue
        lines.append(f"[{section}]")
        for key, value in body.items():
            lines.append(f"{key} = {_format_scalar(value)}")
        lines.append("")
    return "\n".join(lines)
