"""Config parsing/serialization, the experiment runner's CSV contract, and the
command-line front-end."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmhl
from nmhl import (
    ParseError,
    ValidationError,
    apply_overrides,
    exit_bound_check,
    parse_config,
    run,
    serialize_config,
)
from nmhl.cli import main
from nmhl.config import _format_scalar
from nmhl.presets import (
    EXIT_DELTA,
    EXIT_S,
    IBP_TIME,
    LEVY_SUPPORT,
    LEVY_TOL,
    exit_grid,
    make_operator,
    varadhan_grid,
)
from nmhl.runner import _base_meta

KERNEL_TEXT = """\
[operator]
variant = pure_power
k = 2

[grid]
cutoff = 16
resolution = 128

[experiment]
kind = kernel
t = 0.01

[output]
directory = out
precision = 12
"""


def kernel_config():
    return parse_config(KERNEL_TEXT)


# ---------------------------------------------------------------------------
# parsing and validation


def test_sectioned_parse_fills_defaults():
    cfg = kernel_config()
    assert cfg.operator.variant == "pure_power"
    assert cfg.operator.k == 2
    assert cfg.grid.d == 1
    assert cfg.experiment.params["x"] == 0.0   # default fill
    assert cfg.output.precision == 12


def test_comments_and_blank_lines_are_ignored():
    text = "# leading comment\n; alt comment\n" + KERNEL_TEXT
    assert parse_config(text) == kernel_config()


def test_round_trip_is_identity():
    cfg = kernel_config()
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


@given(
    k=st.integers(min_value=1, max_value=3),
    t=st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
    x=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    precision=st.integers(min_value=1, max_value=17),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_identity_over_kernel_configs(k, t, x, precision):
    text = (
        f"[operator]\nvariant = pure_power\nk = {k}\n\n"
        f"[experiment]\nkind = kernel\nt = {t!r}\nx = {x!r}\n\n"
        f"[output]\nprecision = {precision}\n"
    )
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_levy_round_trip_keeps_density_parameters():
    text = (
        "[operator]\nvariant = levy\nl = 1\nalpha_levy = -0.5\n\n"
        "[experiment]\nkind = kernel\nt = 1.0\n"
    )
    cfg = parse_config(text)
    assert cfg.operator.tol == 1e-8
    out = serialize_config(cfg)
    assert "support = 1.0" in out
    assert "tol = 1e-08" in out
    assert parse_config(out) == cfg


def test_perturbed_round_trip_keeps_coefficients():
    text = (
        "[operator]\nvariant = perturbed\nk = 2\nq = 2:0.1,0:-0.25\n\n"
        "[experiment]\nkind = kernel\nt = 0.5\n"
    )
    cfg = parse_config(text)
    assert cfg.operator.q == ((0, -0.25), (2, 0.1))
    assert parse_config(serialize_config(cfg)) == cfg


def test_json_front_end_is_equivalent():
    data = {
        "operator": {"variant": "pure_power", "k": 2},
        "grid": {"cutoff": 16, "resolution": 128},
        "experiment": {"kind": "kernel", "t": 0.01},
        "output": {"directory": "out", "precision": 12},
    }
    assert parse_config(json.dumps(data)) == kernel_config()


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_config("[operator\nvariant = pure_power\n")
    assert e.value.line == 1
    assert "unterminated" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_config("x = 1\n")
    assert e.value.line == 1
    assert "outside any section" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_config("[operator]\nvariant pure_power\n")
    assert e.value.line == 2
    assert str(e.value).startswith("line 2")

    with pytest.raises(ParseError) as e:
        parse_config("[operator]\nk = 1\nk = 2\n")
    assert e.value.line == 3 and "duplicate key" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_config("[operator]\n[operator]\n")
    assert "duplicate section" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_config("[]\nx = 1\n")
    assert "empty section" in str(e.value)


@pytest.mark.parametrize("text, line, col, message", [
    ("[operator\n", 1, 9, "unterminated section header"),
    ("  [operator  \n", 1, 11, "unterminated section header"),
    ("[ ]\n", 1, 2, "empty section name"),
    ("[operator]\n\n   variant pure_power\n", 3, 4, "expected key = value"),
    ("\tk 1\n", 1, 2, "expected key = value"),
    ("x = 1\n", 1, 1, "key outside any section"),
    ("[operator]\n  = 1\n", 2, 1, "empty key"),
    ("[operator]\nk = 1\n  k = 2\n", 3, 1, "duplicate key 'k' in [operator]"),
    ("[grid]\n[grid]\n", 2, 1, "duplicate section [grid]"),
])
def test_sectioned_parse_errors_carry_their_exact_column(text, line, col, message):
    with pytest.raises(ParseError) as e:
        parse_config(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value) == f"line {line}, col {col}: {message}"


def test_json_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_config('{"operator": }')
    assert e.value.line == 1 and e.value.col > 1
    with pytest.raises(ValidationError, match="unknown section"):
        parse_config("[1, 2]")   # not JSON: a '[' line reads as a section header
    with pytest.raises(ValidationError):
        parse_config('{"operator": 3}')


@pytest.mark.parametrize("marked, line, col", [
    ('{"operator": ^}', 1, 14),
    ('{"operator": 1} ^x', 1, 17),
    ('{\n  "operator": {"variant": "pure_power", "k": 1},\n  "grid": {"cutoff": 16},\n'
     '   "experiment": {"kind": "kernel", "t": ^}\n}\n', 4, 42),
], ids=["missing_value", "trailing_text", "fourth_line"])
def test_json_parse_errors_point_at_the_offending_character(marked, line, col):
    # '^' marks the offending character; its 1-based line and column are
    # counted from the text itself
    at = marked.index("^")
    text = marked.replace("^", "", 1)
    assert (text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)) == (line, col)
    with pytest.raises(ParseError) as e:
        parse_config(text)
    assert (e.value.line, e.value.col) == (line, col)


def test_unknown_sections_and_keys_are_rejected():
    with pytest.raises(ValidationError, match=r"unknown section \[extra\]"):
        parse_config(KERNEL_TEXT + "\n[extra]\nx = 1\n")
    with pytest.raises(ValidationError, match="unknown key 'frobnicate'"):
        parse_config(KERNEL_TEXT.replace("cutoff = 16", "frobnicate = 1"))
    with pytest.raises(ValidationError, match="unknown key 'y'"):
        parse_config(KERNEL_TEXT.replace("t = 0.01", "t = 0.01\ny = 1.0"))


def test_range_validation_messages():
    with pytest.raises(ValidationError, match=r"k must be >= 1 \(got 0\)"):
        parse_config(KERNEL_TEXT.replace("k = 2", "k = 0"))
    with pytest.raises(ValidationError, match="cutoff must be >= 4"):
        parse_config(KERNEL_TEXT.replace("cutoff = 16", "cutoff = 2"))
    with pytest.raises(ValidationError, match="t must be > 0"):
        parse_config(KERNEL_TEXT.replace("t = 0.01", "t = 0"))
    with pytest.raises(ValidationError, match="precision must lie in 1..17"):
        parse_config(KERNEL_TEXT.replace("precision = 12", "precision = 18"))
    with pytest.raises(ValidationError, match="d must be 1 or 2"):
        parse_config(KERNEL_TEXT.replace("cutoff = 16", "d = 3"))


def test_missing_required_fields():
    with pytest.raises(ValidationError, match="operator.variant is required"):
        parse_config("[operator]\nk = 1\n\n[experiment]\nkind = kernel\nt = 1\n")
    with pytest.raises(ValidationError, match="experiment.t is required"):
        parse_config("[operator]\nvariant = pure_power\nk = 1\n\n"
                     "[experiment]\nkind = kernel\n")
    with pytest.raises(ValidationError, match=r"missing \[operator\]"):
        parse_config("[experiment]\nkind = kernel\nt = 1\n")
    with pytest.raises(ValidationError, match="pure_power needs operator.k"):
        parse_config("[operator]\nvariant = pure_power\n\n"
                     "[experiment]\nkind = kernel\nt = 1\n")
    with pytest.raises(ValidationError, match="levy needs operator.l"):
        parse_config("[operator]\nvariant = levy\nalpha_levy = -0.5\n\n"
                     "[experiment]\nkind = kernel\nt = 1\n")


def test_derived_experiment_defaults_track_the_operator():
    text = ("[operator]\nvariant = pure_power\nk = {k}\n\n"
            "[experiment]\nkind = varadhan\n")
    assert parse_config(text.format(k=1)).experiment.params["t_start"] == 0.1
    assert parse_config(text.format(k=2)).experiment.params["t_start"] == 0.2
    exit_text = ("[operator]\nvariant = pure_power\nk = 1\n\n"
                 "[experiment]\nkind = exit\n")
    params = parse_config(exit_text).experiment.params
    assert params["eps_start"] == 0.25
    assert params["eps_count"] == 6
    # non-power operators cannot infer the scaling order
    levy_text = ("[operator]\nvariant = levy\nl = 1\nalpha_levy = -0.5\n\n"
                 "[experiment]\nkind = varadhan\n")
    with pytest.raises(ValidationError, match="experiment.k is required"):
        parse_config(levy_text)


def test_moment_path_is_checked():
    text = ("[operator]\nvariant = pure_power\nk = 1\n\n"
            "[experiment]\nkind = ibp\nmoment_path = sampling\n")
    with pytest.raises(ValidationError, match="moment_path must be"):
        parse_config(text)


@pytest.mark.parametrize("matrix, d, k, n, shape", [("1;2", 1, 1, 1, "(2, 1)"),
                                                    ("1,0;0,1", 1, 1, 1, "(2, 2)"),
                                                    ("1", 2, 1, 2, "(1, 1)"),
                                                    ("1", 2, 10**6, 10**6 + 1, "(1, 1)")])
def test_a_matrix_of_the_wrong_shape_is_refused_at_parse_time(matrix, d, k, n, shape):
    # the spec needs n x n with n = len(multi_indices(d, k)); the parser
    # knows d and k, so it refuses the run before it starts, and counts the
    # indices without listing them
    text = (f"[operator]\nvariant = quadratic_form\nk = {k}\na_matrix = {matrix}\n\n"
            f"[grid]\nd = {d}\n\n[experiment]\nkind = kernel\nt = 1\n")
    message = f"a_matrix must be {n}x{n} for d={d}, k={k}, got {shape}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config(text)


def test_matrix_and_q_parsing_errors():
    with pytest.raises(ValidationError, match="unequal lengths"):
        parse_config("[operator]\nvariant = quadratic_form\nk = 1\n"
                     "a_matrix = 1,0;1\n\n[experiment]\nkind = kernel\nt = 1\n")
    with pytest.raises(ValidationError, match="not exponent:coeff"):
        parse_config("[operator]\nvariant = perturbed\nk = 2\nq = 2-0.1\n\n"
                     "[experiment]\nkind = kernel\nt = 1\n")


NONFINITE_SECTIONED = [
    # (section body, experiment body): one non-finite float in each place
    ("variant = levy\nl = 1\nalpha_levy = nan", "kind = kernel\nt = 1"),
    ("variant = levy\nl = 1\nalpha_levy = -0.5\nsupport = inf",
     "kind = kernel\nt = 1"),
    ("variant = levy\nl = 1\nalpha_levy = -0.5\ntol = NaN", "kind = kernel\nt = 1"),
    ("variant = fractional\nk = 1\nalpha_frac = nan", "kind = kernel\nt = 1"),
    ("variant = quadratic_form\nk = 1\na_matrix = 1,nan;0,1",
     "kind = kernel\nt = 1"),
    ("variant = perturbed\nk = 2\nq = 2:inf", "kind = kernel\nt = 1"),
    ("variant = pure_power\nk = 1", "kind = kernel\nt = inf"),
    ("variant = pure_power\nk = 1", "kind = rate\nx = nan"),
    ("variant = pure_power\nk = 1", "kind = rate\ny = -inf"),
    ("variant = pure_power\nk = 1", "kind = exit\neps_factor = nan"),
]


@pytest.mark.parametrize("operator, experiment", NONFINITE_SECTIONED)
def test_nonfinite_numbers_are_rejected_at_parse_time(operator, experiment):
    text = f"[operator]\n{operator}\n\n[experiment]\n{experiment}\n"
    with pytest.raises(ValidationError, match="finite"):
        parse_config(text)


def test_nonfinite_numbers_are_rejected_in_every_front_end():
    # aux_extent is not a grid key, and the grid section has no float key
    grid = ("[operator]\nvariant = pure_power\nk = 1\n[grid]\naux_extent = inf\n"
            "[experiment]\nkind = kernel\nt = 1\n")
    with pytest.raises(ValidationError, match="unknown key 'aux_extent'"):
        parse_config(grid)
    with pytest.raises(ValidationError, match="integer"):
        parse_config(KERNEL_TEXT.replace("precision = 12", "precision = nan"))
    for body in (
        '{"operator": {"variant": "pure_power", "k": 1},'
        ' "experiment": {"kind": "kernel", "t": NaN}}',
        '{"operator": {"variant": "pure_power", "k": 1},'
        ' "experiment": {"kind": "rate", "x": -Infinity}}',
        '{"operator": {"variant": "quadratic_form", "k": 1,'
        ' "a_matrix": [[1, 0], [0, Infinity]]}, "experiment": {"kind": "kernel", "t": 1}}',
        '{"operator": {"variant": "perturbed", "k": 2, "q": {"2": NaN}},'
        ' "experiment": {"kind": "kernel", "t": 1}}',
    ):
        with pytest.raises(ValidationError, match="finite"):
            parse_config(body)
    # malformed JSON matrix rows and q exponents are typed errors as well
    with pytest.raises(ValidationError, match="not a list"):
        parse_config('{"operator": {"variant": "quadratic_form", "k": 1,'
                     ' "a_matrix": [1, 2]}, "experiment": {"kind": "kernel", "t": 1}}')
    with pytest.raises(ValidationError, match="q exponent"):
        parse_config('{"operator": {"variant": "perturbed", "k": 2, "q": {"x": 0.1}},'
                     ' "experiment": {"kind": "kernel", "t": 1}}')
    with pytest.raises(ValidationError, match="finite"):
        apply_overrides(kernel_config(), ["experiment.x=nan"])
    with pytest.raises(ValidationError, match="finite"):
        apply_overrides(kernel_config(), ["experiment.t=inf"])


def test_cli_rejects_a_nan_endpoint_quickly(tmp_path):
    # a NaN endpoint once sent the action descent into a run of many minutes
    path = write_config(tmp_path, "[operator]\nvariant = pure_power\nk = 1\n\n"
                                  "[experiment]\nkind = rate\nx = nan\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nmhl.__file__)))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "nmhl", "rate", "--config", path,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert "ValidationError" in proc.stderr and "finite" in proc.stderr
    assert time.monotonic() - start < 15.0


def test_exit_default_grid_matches_the_preset_for_every_k(tmp_path):
    text = ("[operator]\nvariant = pure_power\nk = {k}\n\n"
            "[experiment]\nkind = exit\n")
    # (start, stop, count) of each k's geometric eps window
    windows = {1: (0.25, 0.05, 6), 2: (0.2, 0.02, 10), 3: (0.2, 0.02, 10)}
    for k, (start, stop, count) in windows.items():
        params = parse_config(text.format(k=k)).experiment.params
        eps = [params["eps_start"] * params["eps_factor"] ** j
               for j in range(params["eps_count"])]
        ratio = (stop / start) ** (1 / (count - 1))
        assert eps == pytest.approx([start * ratio**j for j in range(count)],
                                    rel=1e-12)
    # k=2 with every default once raised FitUnstable (R^2 = 0.9737 on 6 points)
    summary = run(parse_config(text.format(k=2)), out_dir=str(tmp_path / "k2"))
    assert summary.measured["r_squared"] >= 0.99
    # the k=1 default grid did not change: same bytes as before
    run(parse_config(text.format(k=1)), out_dir=str(tmp_path / "k1"))
    digest = hashlib.sha256((tmp_path / "k1" / "exit.csv").read_bytes()).hexdigest()
    assert digest == "d16a33ffd82bbb9bf63603c18cc9fc4bed5bc376b67c3e9e90e0402ffd9efa88"


def test_overrides_apply_and_revalidate():
    cfg = kernel_config()
    changed = apply_overrides(cfg, ["experiment.t=0.5", "output.precision=8"])
    assert changed.experiment.params["t"] == 0.5
    assert changed.output.precision == 8
    assert cfg.experiment.params["t"] == 0.01  # original untouched
    with pytest.raises(ValidationError, match="not section.key=value"):
        apply_overrides(cfg, ["experiment.t"])
    with pytest.raises(ValidationError, match="not section.key=value"):
        apply_overrides(cfg, ["t=0.5"])
    with pytest.raises(ValidationError, match=r"unknown section \[exp\]"):
        apply_overrides(cfg, ["exp.t=0.5"])
    with pytest.raises(ValidationError, match=r"k must be >= 1"):
        apply_overrides(cfg, ["operator.k=0"])


PRESET_CONFIGS = sorted(
    (Path(nmhl.__file__).resolve().parents[2] / "perfbench" / "configs").glob("*/*.cfg"))


def _written_keys(text: str):
    """(line index, section, key, value text) of each key a sectioned config
    sets."""
    section = None
    for i, line in enumerate(text.splitlines()):
        line = line.strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            key, _, value = (s.strip() for s in line.partition("="))
            yield i, section, key, value


@pytest.mark.parametrize("path", PRESET_CONFIGS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_preset_configs_round_trip_and_echo_every_key(path):
    text = path.read_text(encoding="utf-8")
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg
    # the CSV metadata holds each key the file sets, with a value that parses
    # to the same config when written back in its place
    meta = _base_meta(cfg)
    for i, section, key, value in _written_keys(text):
        echoed = meta[f"{section}.{key}"]
        lines = text.splitlines()
        lines[i] = f"{key} = {_format_scalar(echoed)}"
        assert parse_config("\n".join(lines)) == cfg, (section, key, value, echoed)


@pytest.mark.parametrize("operator, key", [
    ("variant = pure_power\nk = 1\nl = 1", "l"),
    ("variant = pure_power\nk = 1\nsupport = 2.0", "support"),
    ("variant = pure_power\nk = 1\nq = 2:0.1", "q"),
    ("variant = levy\nl = 1\nalpha_levy = -0.5\nk = 2", "k"),
])
def test_operator_keys_the_variant_does_not_read_are_refused(operator, key):
    variant = operator.split("\n")[0].split(" = ")[1]
    text = f"[operator]\n{operator}\n\n[experiment]\nkind = kernel\nt = 0.1\n"
    with pytest.raises(ValidationError,
                       match=f"^{variant} does not read operator.{key}$"):
        parse_config(text)


@pytest.mark.parametrize("operator", [
    "variant = levy\nl = 1\nalpha_levy = -0.5",
    "variant = perturbed\nk = 2\nq = 2:0.1",
])
def test_one_dimensional_variants_refuse_d2_at_parse_time(operator):
    variant = operator.split("\n")[0].split(" = ")[1]
    text = (f"[operator]\n{operator}\n\n[grid]\nd = 2\ncutoff = 8\n\n"
            "[experiment]\nkind = kernel\nt = 0.1\n")
    with pytest.raises(ValidationError,
                       match=rf"^{variant} runs on grid.d = 1 only \(got 2\)$"):
        parse_config(text)


@pytest.mark.parametrize("kind", ["rate", "varadhan", "exit", "ibp", "report"])
@pytest.mark.parametrize("operator", [
    "variant = pure_power\nk = 1",
    "variant = quadratic_form\nk = 1",
    "variant = fractional\nk = 1\nalpha_frac = 0.5",
])
def test_every_kind_but_kernel_refuses_d2_at_parse_time(operator, kind,
                                                        tmp_path, capsys):
    # these once parsed, then exited 2 at run time: rate and varadhan with
    # "the real-phase Hamiltonian is one-dimensional", exit with "spec
    # dimension 2 != grid dimension 1"; ibp and report ran their 1-D presets,
    # exited 0 and echoed grid.d=2 into the CSV metadata
    variant = operator.split("\n")[0].split(" = ")[1]
    text = (f"[operator]\n{operator}\n\n[grid]\nd = 2\n\n"
            f"[experiment]\nkind = {kind}\n")
    message = f"{variant} runs {kind} experiments on grid.d = 1 only (got 2)"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config(text)
    path = write_config(tmp_path, text)
    code = main([kind, "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{kind}: ValidationError: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, grid, message", [
    # each of these once ran and exited 0 without reading the key
    ("rate", "cutoff = 64", "rate does not read grid.cutoff"),
    ("rate", "resolution = 128", "rate does not read grid.resolution"),
    ("varadhan", "resolution = 128", "varadhan does not read grid.resolution"),
    ("exit", "resolution = 128", "exit does not read grid.resolution"),
    ("ibp", "cutoff = 64", "ibp does not read grid.cutoff"),
    ("report", "resolution = 128", "report does not read grid.resolution"),
])
def test_grid_keys_the_kind_does_not_read_are_refused(kind, grid, message,
                                                      tmp_path, capsys):
    text = (f"[operator]\nvariant = pure_power\nk = 1\n\n[grid]\n{grid}\n\n"
            f"[experiment]\nkind = {kind}\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config(text)
    path = write_config(tmp_path, text)
    code = main([kind, "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{kind}: ValidationError: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["varadhan", "exit"])
def test_the_curve_kinds_read_grid_cutoff(kind):
    cfg = parse_config(f"[operator]\nvariant = pure_power\nk = 1\n\n"
                       f"[grid]\ncutoff = 64\n\n[experiment]\nkind = {kind}\n")
    assert cfg.grid.cutoff == 64


PERTURBED = "[operator]\nvariant = perturbed\nk = 2\nq = 2:0.1\n\n[experiment]\n"


@pytest.mark.parametrize("kind, params", [
    ("rate", ""), ("varadhan", "k = 2"), ("exit", "k = 2"),
])
def test_perturbed_refuses_the_kinds_that_need_a_hamiltonian_at_parse_time(
        kind, params, tmp_path, capsys):
    # these runs once parsed, then exited 2 with "no real-phase Hamiltonian"
    text = PERTURBED + f"kind = {kind}\n{params}\n"
    message = f"perturbed does not run {kind} experiments"
    with pytest.raises(ValidationError, match=f"^{message} "):
        parse_config(text)
    path = write_config(tmp_path, text)
    code = main([kind, "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{kind}: ValidationError: {message}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("operator, kind, error, message", [
    # these parsed, then exited 2 at run time with SupUnbounded and left an
    # empty output directory
    ("variant = levy\nl = 2\nalpha_levy = -0.5", "rate", nmhl.SupUnbounded,
     "the real-phase Hamiltonian of a levy generator with even l = 2 is concave, "
     "not convex"),
    ("variant = fractional\nk = 1\nalpha_frac = 0.5", "rate", nmhl.SupUnbounded,
     "fractional does not run rate experiments: its real-phase Hamiltonian has "
     "order 1, and a finite Legendre transform needs order > 1"),
    ("variant = levy\nl = 4\nalpha_levy = -0.5", "varadhan\nk = 2", nmhl.SupUnbounded,
     "the real-phase Hamiltonian of a levy generator with even l = 4 is concave, "
     "not convex"),
    # this crashed with "internal error: OverflowError"
    ("variant = levy\nl = 100\nalpha_levy = -0.5", "kernel\nt = 0.1", ValidationError,
     "l must be <= LEVY_L_MAX = 73, got 100: the series of the compensated kernel "
     "needs (2l + 24)!, which overflows double precision past it"),
], ids=["even_l_levy_rate", "linear_fractional_rate", "even_l_levy_varadhan",
        "levy_l_100"])
def test_the_spec_decides_what_a_config_runs_at_parse_time(operator, kind, error,
                                                           message, tmp_path, capsys):
    text = f"[operator]\n{operator}\n\n[experiment]\nkind = {kind}\n"
    refused_at_parse_time(text, kind.split("\n")[0], error, message, tmp_path, capsys)


def test_rate_runs_a_superlinear_fractional_power(tmp_path, capsys):
    text = ("[operator]\nvariant = fractional\nk = 1\nalpha_frac = 0.75\n\n"
            "[experiment]\nkind = rate\n")
    code = main(["rate", "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == 0 and (tmp_path / "o" / "rate.csv").is_file()


def refused_at_parse_time(text, kind, error, message, tmp_path, capsys):
    """`text` is refused by `parse_config` with `error` and `message`, and
    `main` exits 2 on it with that message and makes no output directory."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_config(text)
    path = write_config(tmp_path, text)
    code = main([kind, "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{kind}: {error.__name__}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


KERNEL_EXPERIMENT = '"experiment": {"kind": "kernel", "t": 0.1}'


@pytest.mark.parametrize("text, message", [
    # json.loads kept the last value: this parsed as k = 2
    ('{"operator": {"variant": "pure_power", "k": 1, "k": 2}, '
     + KERNEL_EXPERIMENT + "}", "duplicate key 'k' in a JSON object"),
    ('{"operator": {"variant": "pure_power", "k": 1}, "operator": {"k": 2}, '
     + KERNEL_EXPERIMENT + "}", "duplicate key 'operator' in a JSON object"),
    # Perturbed kept the last coefficient, and the metadata echoed both
    ("[operator]\nvariant = perturbed\nk = 2\nq = 2:0.1,2:0.2\n\n"
     "[experiment]\nkind = kernel\nt = 0.1\n", "q exponent 2 is repeated"),
    ('{"operator": {"variant": "perturbed", "k": 2, "q": {"2": 0.1, "02": 0.2}}, '
     + KERNEL_EXPERIMENT + "}", "q exponent 2 is repeated"),
], ids=["json_key", "json_section", "q_text", "q_json"])
def test_repeated_keys_and_q_exponents_are_refused_at_parse_time(
        text, message, tmp_path, capsys):
    refused_at_parse_time(text, "kernel", ValidationError, message, tmp_path, capsys)


@pytest.mark.parametrize("operator, error, message", [
    # these parsed, then exited 2 at run time and left an empty directory
    ("variant = perturbed\nk = 1\nq = 2:0.1", nmhl.DegreeViolation,
     "perturbation degree 2 must be < base order 2"),
    ("variant = quadratic_form\nk = 1\na_matrix = -1", nmhl.NonPositiveDefiniteForm,
     "a_matrix fails Cholesky"),
], ids=["degree", "cholesky"])
def test_the_operator_spec_is_built_at_parse_time(operator, error, message,
                                                  tmp_path, capsys):
    text = f"[operator]\n{operator}\n\n[experiment]\nkind = kernel\nt = 0.1\n"
    refused_at_parse_time(text, "kernel", error, message, tmp_path, capsys)


@pytest.mark.parametrize("operator, experiment, error, message", [
    # the spec is built before the kind is judged against it, so this config
    # is refused for its degree, not for the Hamiltonian perturbed lacks
    ("variant = perturbed\nk = 1\nq = 2:0.1", "kind = rate", nmhl.DegreeViolation,
     "perturbation degree 2 must be < base order 2"),
    ("variant = perturbed\nk = 1\nq = 2:0.1\nl = 1", "kind = rate", ValidationError,
     "perturbed does not read operator.l"),
    ("variant = quadratic_form\nk = 1\na_matrix = 1,2;3,4", "kind = kernel\nt = 0.1",
     ValidationError, "a_matrix must be 1x1 for d=1, k=1, got (2, 2)"),
], ids=["degree_before_kind", "key_before_degree", "shape"])
def test_the_key_checks_speak_before_the_spec_and_the_spec_before_the_kind(
        operator, experiment, error, message):
    text = f"[operator]\n{operator}\n\n[experiment]\n{experiment}\n"
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        parse_config(text)


@pytest.mark.parametrize("kind", ["varadhan", "exit"])
@pytest.mark.parametrize("operator, k, degree", [
    # |xi|^3: varadhan exited 0 with a false PASS
    ("variant = fractional\nk = 2\nalpha_frac = 0.75", 2, None),
    ("variant = levy\nl = 1\nalpha_levy = -0.5", 1, None),
    ("variant = pure_power\nk = 2", 1, 4),
    ("variant = quadratic_form\nk = 1", 2, 2),
], ids=["fractional", "levy", "pure_power", "quadratic_form"])
def test_curve_kinds_refuse_an_operator_of_another_order(operator, k, degree, kind,
                                                         tmp_path, capsys):
    variant = operator.split("\n")[0].split(" = ")[1]
    text = f"[operator]\n{operator}\n\n[experiment]\nkind = {kind}\nk = {k}\n"
    message = (f"{variant} does not run {kind} experiments with experiment.k = {k}: "
               f"they need an even polynomial symbol of degree {2 * k} "
               f"(poly_degree {degree})")
    refused_at_parse_time(text, kind, ValidationError, message, tmp_path, capsys)


def test_curve_kinds_run_on_operators_of_their_order():
    for operator in ("variant = pure_power\nk = 2",
                     "variant = quadratic_form\nk = 2\na_matrix = 2"):
        for kind in ("varadhan", "exit"):
            cfg = parse_config(f"[operator]\n{operator}\n\n"
                               f"[experiment]\nkind = {kind}\nk = 2\n")
            assert cfg.experiment.params["k"] == 2


def test_perturbed_kernel_ibp_and_report_configs_still_parse():
    kernel = EXIT_K1.with_name("kernel_perturbed.cfg")
    cfg = parse_config(kernel.read_text(encoding="utf-8"))
    assert (cfg.operator.variant, cfg.experiment.kind) == ("perturbed", "kernel")
    for kind in ("ibp", "report"):
        assert parse_config(PERTURBED + f"kind = {kind}\n").experiment.kind == kind


def test_preset_numbers_are_the_config_defaults():
    cfg = parse_config("[operator]\nvariant = pure_power\nk = 1\n\n"
                       "[experiment]\nkind = exit\n")
    params = cfg.experiment.params
    assert (params["delta"], params["s"]) == (EXIT_DELTA, EXIT_S)
    # the default grid is exit_grid(k), whose factor keeps its closed form
    assert (params["eps_start"], params["eps_factor"], params["eps_count"]) == exit_grid(1)
    assert exit_grid(1)[1] == 0.2 ** 0.2
    assert exit_grid(2)[1] == 0.1 ** (1.0 / 9.0)
    ibp = parse_config("[operator]\nvariant = pure_power\nk = 1\n\n"
                       "[experiment]\nkind = ibp\n")
    assert ibp.experiment.params["t"] == IBP_TIME
    varadhan = parse_config("[operator]\nvariant = pure_power\nk = 2\n\n"
                            "[experiment]\nkind = varadhan\n").experiment.params
    assert (varadhan["t_start"], varadhan["t_factor"],
            varadhan["t_count"]) == varadhan_grid(2)
    levy = parse_config("[operator]\nvariant = levy\nl = 1\nalpha_levy = -0.5\n\n"
                        "[experiment]\nkind = kernel\nt = 1\n").operator
    assert (levy.support, levy.tol) == (LEVY_SUPPORT, LEVY_TOL)


# ---------------------------------------------------------------------------
# runner and CSV contract


def test_kernel_run_emits_stable_csv(tmp_path):
    cfg = kernel_config()
    summary = run(cfg, out_dir=str(tmp_path))
    assert summary.passed
    assert summary.experiment == "kernel"
    assert sorted(os.path.basename(p) for p in summary.csv_paths) == [
        "kernel.csv", "symbol.csv",
    ]
    text = (tmp_path / "kernel.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "# schema=1"
    meta = [ln for ln in lines if ln.startswith("# ") and "=" in ln[2:]]
    keys = [ln[2:].split("=", 1)[0] for ln in meta[1:]]
    assert keys == sorted(keys)
    assert not any("time" in k or "date" in k for k in keys)
    header_idx = len(meta)
    assert lines[header_idx] == "y,p_t"
    assert len(lines) > header_idx + 100


def test_reruns_are_byte_identical(tmp_path):
    cfg = kernel_config()
    run(cfg, out_dir=str(tmp_path / "a"))
    run(cfg, out_dir=str(tmp_path / "b"))
    for name in ("symbol.csv", "kernel.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_precision_controls_rendered_digits(tmp_path):
    low = apply_overrides(kernel_config(), ["output.precision=3"])
    run(low, out_dir=str(tmp_path))
    body = (tmp_path / "kernel.csv").read_text().splitlines()
    data = [ln for ln in body if not ln.startswith("#")][1:]
    for ln in data[:20]:
        for fieldv in ln.split(","):
            mantissa = fieldv.split("e")[0].lstrip("-").replace(".", "")
            assert len(mantissa.lstrip("0")) <= 3


def test_failed_runs_remove_partial_outputs(tmp_path, monkeypatch):
    from nmhl.errors import NmhlError

    def boom(*a, **k):
        raise NmhlError("injected failure")

    monkeypatch.setattr("nmhl.runner._ibp_columns", boom)
    text = ("[operator]\nvariant = pure_power\nk = 2\n\n"
            "[experiment]\nkind = report\n")
    with pytest.raises(NmhlError, match="injected"):
        run(parse_config(text), out_dir=str(tmp_path))
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("blocked", ["symbol.csv", "kernel.csv"])
def test_a_failed_rename_leaves_no_temp_file(tmp_path, blocked):
    # a directory where the CSV should go makes the rename into place fail
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    config = next(p for p in PRESET_CONFIGS
                  if p.parts[-2:] == ("survey", "kernel_k1.cfg"))
    assert main(["kernel", "--config", str(config), "--out", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == [blocked]
    assert (out / blocked).is_dir()


def test_a_report_row_that_raises_leaves_no_csv(tmp_path, monkeypatch):
    from nmhl import runner
    from nmhl.errors import NmhlError

    def boom(config, ctx):
        # the kernel, ibp, rate and varadhan_k1 rows are on disk by now
        names = {os.path.basename(p) for p in ctx["written"]}
        assert {"report_kernel.csv", "report_ibp.csv", "report_rate.csv",
                "report_varadhan_k1.csv"} <= names
        assert all(os.path.exists(p) for p in ctx["written"])
        raise NmhlError("injected failure")

    monkeypatch.setitem(runner._HANDLERS, "exit", boom)
    text = ("[operator]\nvariant = pure_power\nk = 1\n\n"
            "[experiment]\nkind = report\n")
    with pytest.raises(NmhlError, match="injected"):
        run(parse_config(text), out_dir=str(tmp_path))
    assert list(tmp_path.glob("*.csv")) == []


def test_ibp_run_sweeps_the_preset_grid(tmp_path):
    text = ("[operator]\nvariant = pure_power\nk = 1\n\n"
            "[experiment]\nkind = ibp\n")
    summary = run(parse_config(text), out_dir=str(tmp_path))
    assert summary.passed
    assert summary.measured["presets"] == 16
    assert summary.measured["max_rel_error"] < 1e-8


# ---------------------------------------------------------------------------
# command-line front-end


def write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_cli_pass_run_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path, KERNEL_TEXT)
    code = main(["kernel", "--config", path, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 0
    assert "kernel: PASS (defaults 1)" in out
    assert "wrote" in out and "kernel.csv" in out
    assert "mass = " in out


def test_a_symbol_that_overflows_on_its_lattice_is_refused(tmp_path, capsys):
    # the degree-255 monomials overflow at the lattice corners: this run
    # wrote re_a = inf into four rows of symbol.csv and passed
    text = ("[operator]\nvariant = quadratic_form\nk = 255\n\n[grid]\nd = 2\n\n"
            "[experiment]\nkind = kernel\nt = 1\n")
    code = main(["kernel", "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert ("kernel: ValidationError: the QuadraticForm symbol is not finite on "
            "the lattice of cutoff N=") in captured.err
    assert "wrote" not in captured.out
    assert not (tmp_path / "o").exists()


def test_cli_failing_pass_rule_exits_one(tmp_path, capsys):
    # the CLI tests k=2 against the Legendre rate, which is not sharp for
    # k >= 2 (the complex-saddle constant is half of it): the extrapolation
    # clause fails, while the pointwise clause holds only on the preset
    # window, so the run completes but FAILs
    text = ("[operator]\nvariant = pure_power\nk = 2\n\n"
            "[experiment]\nkind = varadhan\n")
    path = write_config(tmp_path, text)
    code = main(["varadhan", "--config", path, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 1
    assert "varadhan: FAIL" in out
    assert "pointwise_pass = True" in out
    assert "extrapolation_pass = False" in out


def test_cli_varadhan_target_takes_the_nearest_lift(tmp_path, capsys):
    # y = 20 is y = 20 - 6 pi three turns on; a winding search around the raw
    # displacement once set the target to -13.81 and exited 1
    text = ("[operator]\nvariant = pure_power\nk = 1\n\n"
            "[experiment]\nkind = varadhan\ny = {y!r}\n")
    rows = {}
    for y in (20.0, 20.0 - 6.0 * math.pi):
        path = write_config(tmp_path, text.format(y=y))
        out = tmp_path / f"o{y}"
        assert main(["varadhan", "--config", path, "--out", str(out)]) == 0
        lines = (out / "varadhan.csv").read_text().splitlines()
        rows[y] = [line for line in lines if not line.startswith("#")]
    assert "varadhan: PASS" in capsys.readouterr().out
    far, near = rows.values()
    assert far == near and len(far) == 9


def test_cli_missing_config_exits_two(tmp_path, capsys):
    code = main(["kernel", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "kernel:" in capsys.readouterr().err


def test_cli_validation_error_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, KERNEL_TEXT.replace("k = 2", "k = 0"))
    code = main(["kernel", "--config", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "ValidationError" in err and "k must be >= 1" in err


def test_cli_subcommand_config_mismatch_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, KERNEL_TEXT)
    code = main(["rate", "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "declares experiment 'kernel'" in err


EVEN_LEVY = ("[operator]\nvariant = levy\nl = 2\nalpha_levy = -0.25\n\n"
             "[experiment]\nkind = {kind}\n{params}\n")


def test_cli_even_l_levy_rate_exits_two_naming_the_concave_hamiltonian(
        tmp_path, capsys):
    # with even l the real-phase H is negative and concave: a rate run
    # needs its Legendre transform, which does not exist
    path = write_config(tmp_path, EVEN_LEVY.format(kind="rate", params=""))
    code = main(["rate", "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "SupUnbounded" in err and "even l = 2 is concave" in err
    assert not (tmp_path / "o" / "rate.csv").exists()


def test_cli_even_l_levy_kernel_still_runs(tmp_path, capsys):
    # the kernel needs the symbol only, not the real-phase Hamiltonian
    path = write_config(tmp_path, EVEN_LEVY.format(kind="kernel", params="t = 0.01"))
    code = main(["kernel", "--config", path, "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "o" / "kernel.csv").is_file()


def test_cli_overrides_reach_the_run(tmp_path, capsys):
    path = write_config(tmp_path, KERNEL_TEXT)
    out_dir = tmp_path / "o"
    code = main([
        "kernel", "--config", path, "--out", str(out_dir),
        "--override", "experiment.t=0.5",
        "--override", "output.precision=5",
    ])
    assert code == 0
    meta = (out_dir / "kernel.csv").read_text().splitlines()
    assert any(ln == "# experiment.t=0.5" for ln in meta)


def test_cli_bad_override_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, KERNEL_TEXT)
    code = main(["kernel", "--config", path, "--override", "nonsense"])
    assert code == 2
    assert "not section.key=value" in capsys.readouterr().err


def test_cli_internal_error_exits_two_and_leaves_no_csv(tmp_path, capsys,
                                                         monkeypatch):
    # a fault of the program (not an NmhlError) after the CSVs are written
    from nmhl import runner

    real = runner._HANDLERS["kernel"]

    def broken(config, ctx):
        real(config, ctx)
        assert ctx["written"]
        raise RuntimeError("injected fault")

    monkeypatch.setitem(runner._HANDLERS, "kernel", broken)
    path = write_config(tmp_path, KERNEL_TEXT)
    out_dir = tmp_path / "o"
    code = main(["kernel", "--config", path, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == "kernel: internal error: RuntimeError: injected fault"
    assert list(out_dir.glob("*.csv")) == []


EXIT_K1 = PRESET_CONFIGS[0].parents[1] / "survey" / "exit_k1.cfg"


def test_cli_parser_built_once_leaks_no_override_into_a_later_call(
        tmp_path, capsys):
    argv = ["exit", "--config", str(EXIT_K1)]
    assert main(argv + ["--out", str(tmp_path / "a"),
                        "--override", "experiment.eps_count=5"]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nmhl.__file__)))
    proc = subprocess.run([sys.executable, "-m", "nmhl", *argv,
                           "--out", str(tmp_path / "fresh")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    later = (tmp_path / "b" / "exit.csv").read_bytes()
    assert later == (tmp_path / "fresh" / "exit.csv").read_bytes()
    assert later != (tmp_path / "a" / "exit.csv").read_bytes()
    assert b"# experiment.eps_count=5\n" in (tmp_path / "a" / "exit.csv").read_bytes()


@pytest.mark.parametrize("name, code", [("exit_k1", 0), ("exit_k2", 1)])
def test_the_exit_fit_carries_the_verdict_of_its_cli_run(name, code, tmp_path,
                                                         capsys):
    path = EXIT_K1.with_name(f"{name}.cfg")
    cfg = parse_config(path.read_text(encoding="utf-8"))
    p = cfg.experiment.params
    eps = [p["eps_start"] * p["eps_factor"] ** j for j in range(p["eps_count"])]
    fit = exit_bound_check(make_operator(cfg.operator, cfg.grid.d), p["k"],
                           p["delta"], p["s"], eps, cutoff=cfg.grid.cutoff)
    assert fit.passed is (code == 0)
    assert main(["exit", "--config", str(path), "--out", str(tmp_path)]) == code
    capsys.readouterr()


def test_cli_bad_argv_leaves_the_shared_parser_usable(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exit", "--config"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense", "--config", str(EXIT_K1)])
    assert exc.value.code == 2
    assert main(["exit", "--config", str(EXIT_K1),
                 "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert (tmp_path / "o" / "exit.csv").is_file()
