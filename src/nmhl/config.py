"""Run configuration: a diff-friendly sectioned key=value format (JSON
accepted as an alternate front-end), validated into one RunConfig.

Every key is declared once: an [operator], [grid] or [output] key as a
dataclass field carrying its default, its parser and its range rules, an
experiment key in `_PARAMS`, and each experiment kind in `_KINDS` with the
keys it accepts and their defaults.  Defaults that are preset numbers come
from `presets`.  One section builder, the unknown-key check and the echo all
read these tables.

parse -> serialize -> parse is the identity; defaults are filled at parse
time so the echoed config is complete.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

from .errors import ParseError, SupUnbounded, ValidationError
from .grids import max_cutoff, max_resolution
from .presets import (
    EXIT_DELTA,
    EXIT_S,
    IBP_TIME,
    LEVY_SUPPORT,
    LEVY_TOL,
    VARIANT_TABLE,
    exit_grid,
    make_operator,
    varadhan_grid,
)

SECTIONS = ("operator", "grid", "experiment", "output")
OPERATOR_VARIANTS = tuple(VARIANT_TABLE)


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


def _format_q(q: tuple) -> str:
    return ",".join(f"{e}:{c!r}" for e, c in q)


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


def _unique_pairs(pairs) -> dict:
    """A JSON object as a dict, refusing a repeated key (json.loads would
    keep its last value)."""
    seen = set()
    for key, _ in pairs:
        _require(key not in seen, f"duplicate key {key!r} in a JSON object")
        seen.add(key)
    return dict(pairs)


def _parse_json(text: str) -> dict:
    try:
        data = json.loads(text, object_pairs_hook=_unique_pairs)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         line=exc.lineno, col=exc.colno) from None
    raw = {}
    for section, body in data.items():
        if not isinstance(body, dict):
            raise ValidationError(f"section [{section}] must be an object")
        raw[str(section)] = {str(k): v for k, v in body.items()}
    return raw


# ---------------------------------------------------------------------------
# value parsers (section, key, raw value) -> value, and range rules


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


def _as_str(section: str, key: str, v) -> str:
    return str(v).strip()


def _as_matrix(section: str, key: str, v) -> tuple:
    """A JSON list of rows, or text with rows split by ';' and entries by ','."""
    if not isinstance(v, (list, tuple)):
        v = [row.split(",") for row in str(v).split(";")]
    out = []
    for row in v:
        if not isinstance(row, (list, tuple)):
            raise ValidationError(f"a_matrix row {row!r} is not a list")
        out.append(tuple(_finite("a_matrix entry", e) for e in row))
    if len({len(r) for r in out}) != 1:
        raise ValidationError("a_matrix rows have unequal lengths")
    return tuple(out)


def _as_q(section: str, key: str, v) -> tuple:
    """Perturbation coefficients: a JSON {exponent: coeff} object, or text
    with 'exponent:coeff' pairs, comma-separated."""
    if isinstance(v, dict):
        v = v.items()
    else:
        v = [part.split(":", 1) for part in str(v).split(",")]
    out = []
    for pair in v:
        if len(pair) != 2:
            raise ValidationError(f"q entry {':'.join(pair)!r} is not exponent:coeff")
        e, c = pair
        try:
            exponent = int(e)
        except (TypeError, ValueError):
            raise ValidationError(f"q exponent must be an integer (got {e!r})") from None
        _require(exponent >= 0, f"q exponent must be >= 0 (got {exponent})")
        _require(all(exponent != e for e, _ in out), f"q exponent {exponent} is repeated")
        out.append((exponent, _finite("q coefficient", c)))
    return tuple(sorted(out))


#: how the echo writes back what a structured parser read
_SHOW = {_as_matrix: _format_matrix, _as_q: _format_q}

# A range rule is (predicate, message after the key name); {v} in the message
# is the value that failed.
_POSITIVE = (lambda v: v > 0, "must be > 0 (got {v})")


def _at_least(lo: int) -> tuple:
    return lambda v: v >= lo, f"must be >= {lo} (got {{v}})"


def _between(lo: int, hi: int) -> tuple:
    return lambda v: lo < v < hi, f"must lie in ({lo}, {hi}) (got {{v}})"


def _checked(key: str, value, rules):
    for ok, message in rules:
        _require(ok(value), f"{key} {message.format(v=value)}")
    return value


def _key(default, parse, *rules):
    """A config field: its default (MISSING when the key is required), its
    parser and its range rules."""
    return field(default=default, metadata={"parse": parse, "rules": rules})


# ---------------------------------------------------------------------------
# the sections


@dataclass
class OperatorConfig:
    variant: str = _key(MISSING, _as_str, (
        lambda v: v in VARIANT_TABLE,
        f"must be one of {', '.join(OPERATOR_VARIANTS)} (got {{v!r}})"))
    k: int | None = _key(None, _as_int, _at_least(1))
    a_matrix: tuple | None = _key(None, _as_matrix)
    l: int | None = _key(None, _as_int, _at_least(1))
    alpha_levy: float | None = _key(None, _as_float, _between(-1, 0))
    support: float = _key(LEVY_SUPPORT, _as_float, _POSITIVE)
    tol: float = _key(LEVY_TOL, _as_float, _POSITIVE)
    alpha_frac: float | None = _key(None, _as_float, _between(0, 1))
    q: tuple | None = _key(None, _as_q)


@dataclass
class GridConfig:
    d: int = _key(1, _as_int, (lambda v: v in (1, 2), "must be 1 or 2 (got {v})"))
    # None: sized by the cutoff rule at run time
    cutoff: int | None = _key(None, _as_int, _at_least(4))
    resolution: int | None = _key(None, _as_int, _at_least(8))


@dataclass
class ExperimentConfig:
    kind: str
    params: dict


@dataclass
class OutputConfig:
    directory: str = _key("out", _as_str, (bool, "must be nonempty"))
    precision: int = _key(17, _as_int, (lambda v: 1 <= v <= 17,
                                        "must lie in 1..17 (got {v})"))


@dataclass
class RunConfig:
    operator: OperatorConfig
    grid: GridConfig
    experiment: ExperimentConfig
    output: OutputConfig


#: section dataclass -> {field name: (default, parser, rules)}, in field order
_FIELDS = {
    cls: {f.name: (f.default, f.metadata["parse"], f.metadata["rules"])
          for f in fields(cls)}
    for cls in (OperatorConfig, GridConfig, OutputConfig)
}

#: experiment key -> (parser, *range rules)
_PARAMS = {
    "t": (_as_float, _POSITIVE),
    "x": (_as_float,),
    "y": (_as_float,),
    "moment_path": (_as_str, (lambda v: v in ("analytic", "quadrature"),
                              "must be analytic or quadrature (got {v!r})")),
    "nodes": (_as_int, _at_least(2)),
    "winding_max": (_as_int, _at_least(0)),
    "perturb": (_as_float,),
    "k": (_as_int, _at_least(1)),
    "t_start": (_as_float, _POSITIVE),
    "t_factor": (_as_float, _between(0, 1)),
    "t_count": (_as_int, _at_least(3)),
    "delta": (_as_float, _POSITIVE, (lambda v: v < math.pi, "must be < pi (got {v})")),
    "s": (_as_float, _POSITIVE),
    "eps_start": (_as_float, _POSITIVE),
    "eps_factor": (_as_float, _between(0, 1)),
    "eps_count": (_as_int, _at_least(3)),
    "fast": (_as_bool,),
}


def _operator_k(kind: str, params: dict, operator: OperatorConfig) -> int:
    _require(operator.variant == "pure_power",
             f"experiment.k is required for {kind} unless the operator is pure_power")
    return operator.k


def _grid_keys(prefix: str, grid) -> dict:
    """start, factor and count of a grid start * factor**j, defaulting to the
    preset grid(k) of the run's k."""
    return {f"{prefix}_{part}": lambda kind, params, op, i=i: grid(params["k"])[i]
            for i, part in enumerate(("start", "factor", "count"))}


#: experiment kind -> {key it accepts: default}, filled in this order.  None
#: marks a required key; a callable (kind, params, operator) derives the
#: default from the keys before it.
_KINDS = {
    "kernel": {"t": None, "x": 0.0},
    "ibp": {"t": IBP_TIME, "moment_path": "analytic"},
    "rate": {"x": 0.0, "y": 1.0, "nodes": 64, "winding_max": 2, "perturb": 0.0},
    "varadhan": {"k": _operator_k, "x": 0.0, "y": 1.0, **_grid_keys("t", varadhan_grid)},
    "exit": {"k": _operator_k, "delta": EXIT_DELTA, "s": EXIT_S,
             **_grid_keys("eps", exit_grid)},
    "report": {"fast": True},
}
EXPERIMENT_KINDS = tuple(_KINDS)

#: experiment kind -> the [grid] keys besides d that it reads (a kind not
#: named reads none); only kernel runs on grid.d = 2
_GRID_READS = {"kernel": ("cutoff", "resolution"), "varadhan": ("cutoff",),
               "exit": ("cutoff",)}


# ---------------------------------------------------------------------------
# section builders


def _check_keys(section: str, keys, allowed):
    for key in keys:
        if key not in allowed:
            raise ValidationError(f"unknown key {key!r} in [{section}]")


def _build_section(cls, section: str, body: dict):
    _check_keys(section, body, _FIELDS[cls])
    values = {}
    for name, (default, parse, rules) in _FIELDS[cls].items():
        if name in body:
            values[name] = _checked(name, parse(section, name, body[name]), rules)
        elif default is MISSING:
            raise ValidationError(f"{section}.{name} is required")
    return cls(**values)


def _build_operator(body: dict) -> OperatorConfig:
    cfg = _build_section(OperatorConfig, "operator", body)
    row = VARIANT_TABLE[cfg.variant]
    for key in body:
        _require(key == "variant" or key in row.needs + row.reads,
                 f"{cfg.variant} does not read operator.{key}")
    for key in row.needs:
        # an empty q parses to (), which is as missing as None
        _require(getattr(cfg, key) not in (None, ()),
                 f"{cfg.variant} needs operator.{key}")
    return cfg


def _build_experiment(body: dict, operator: OperatorConfig,
                      grid: GridConfig) -> ExperimentConfig:
    if "kind" not in body:
        raise ValidationError("experiment.kind is required")
    kind = str(body["kind"]).strip()
    if kind not in _KINDS:
        raise ValidationError(
            f"kind must be one of {', '.join(EXPERIMENT_KINDS)} (got {kind!r})"
        )
    _require(grid.d == 1 or kind == "kernel", f"{operator.variant} runs {kind} "
             f"experiments on grid.d = 1 only (got {grid.d})")
    for key in ("cutoff", "resolution"):
        _require(getattr(grid, key) is None or key in _GRID_READS.get(kind, ()),
                 f"{kind} does not read grid.{key}")
    defaults = _KINDS[kind]
    keys = [key for key in body if key != "kind"]
    _check_keys("experiment", keys, defaults)
    params = {key: _PARAMS[key][0]("experiment", key, body[key]) for key in keys}
    for key, default in defaults.items():
        if key not in params:
            _require(default is not None, f"experiment.{key} is required for {kind}")
            params[key] = default(kind, params, operator) if callable(default) else default
    for key in keys:
        _checked(key, params[key], _PARAMS[key][1:])
    return ExperimentConfig(kind=kind, params=params)


def _check_grid_size(grid: GridConfig):
    """Refuse a lattice or an FFT grid past `grids.MAX_LATTICE_POINTS` or
    `grids.MAX_FFT_POINTS`, and an FFT grid too coarse for its lattice."""
    d, cutoff, resolution = grid.d, grid.cutoff, grid.resolution
    for key, v, most in (("cutoff", cutoff, max_cutoff(d)),
                         ("resolution", resolution, max_resolution(d))):
        _require(v is None or v <= most,
                 f"{key} must be <= {most} on grid.d = {d} (got {v})")
    if None not in (cutoff, resolution):
        _require(resolution > 2 * cutoff, f"resolution must be >= 2 * cutoff + 1 = "
                 f"{2 * cutoff + 1} to resolve the lattice (got {resolution})")


def _check_runs(variant: str, spec, d: int, experiment: ExperimentConfig):
    """Refuse a run that the operator's spec cannot carry, from the spec
    alone: what a variant runs is listed nowhere else."""
    kind, k = experiment.kind, experiment.params.get("k")
    _require(spec.dimension == d,
             f"{variant} runs on grid.d = {spec.dimension} only (got {d})")
    if kind in ("rate", "varadhan", "exit"):
        # their targets come from the real-phase Hamiltonian; a spec's own
        # typed refusal (SupUnbounded for a concave one) speaks as it is
        try:
            order = spec.hamiltonian().order
        except ValidationError as exc:
            raise ValidationError(
                f"{variant} does not run {kind} experiments ({exc})") from None
        if kind == "rate" and order <= 1:
            raise SupUnbounded(f"{variant} does not run rate experiments: its "
                               f"real-phase Hamiltonian has order {order:g}, and a "
                               "finite Legendre transform needs order > 1")
    if kind in ("varadhan", "exit"):
        _require(spec.poly_degree == 2 * k, f"{variant} does not run {kind} "
                 f"experiments with experiment.k = {k}: they need an even polynomial "
                 f"symbol of degree {2 * k} (poly_degree {spec.poly_degree})")


def _from_mapping(raw: dict) -> RunConfig:
    for section in raw:
        if section not in SECTIONS:
            raise ValidationError(f"unknown section [{section}]")
    if "operator" not in raw:
        raise ValidationError("missing [operator] section")
    if "experiment" not in raw:
        raise ValidationError("missing [experiment] section")
    operator = _build_operator(dict(raw["operator"]))
    grid = _build_section(GridConfig, "grid", dict(raw.get("grid", {})))
    _check_grid_size(grid)
    # the spec refuses what the key checks cannot see: a perturbation degree
    # at or above the base order, an a_matrix of the wrong shape or not SPD
    spec = make_operator(operator, grid.d)
    experiment = _build_experiment(dict(raw["experiment"]), operator, grid)
    _check_runs(operator.variant, spec, grid.d, experiment)
    output = _build_section(OutputConfig, "output", dict(raw.get("output", {})))
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
        target, eq, value = item.partition("=")
        if not eq or "." not in target:
            raise ValidationError(f"override {item!r} is not section.key=value")
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in SECTIONS:
            raise ValidationError(f"unknown section [{section}]")
        raw.setdefault(section, {})[key] = value.strip()
    return _from_mapping(raw)


# ---------------------------------------------------------------------------
# canonical serialization


def _echo(cfg, keys) -> dict:
    """The fields of `cfg` named in `keys` that hold a value, as written."""
    return {name: _SHOW.get(parse, lambda v: v)(getattr(cfg, name))
            for name, (_, parse, _) in _FIELDS[type(cfg)].items()
            if name in keys and getattr(cfg, name) is not None}


def _to_mapping(config: RunConfig) -> dict:
    row = VARIANT_TABLE[config.operator.variant]
    params = config.experiment.params
    return {
        "operator": _echo(config.operator, ("variant",) + row.needs + row.reads),
        "grid": _echo(config.grid, _FIELDS[GridConfig]),
        "experiment": {"kind": config.experiment.kind,
                       **{key: params[key] for key in sorted(params)}},
        "output": _echo(config.output, _FIELDS[OutputConfig]),
    }


def serialize_config(config: RunConfig) -> str:
    lines = []
    mapping = _to_mapping(config)
    for section in SECTIONS:
        lines.append(f"[{section}]")
        for key, value in mapping[section].items():
            lines.append(f"{key} = {_format_scalar(value)}")
        lines.append("")
    return "\n".join(lines)
