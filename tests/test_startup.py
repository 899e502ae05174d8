"""Cold start: scipy and mpmath are test dependencies only, so importing nmhl
and running any experiment must load neither.  Each check runs in a fresh
interpreter, because this test process has long since imported both through
the oracles and other tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import nmhl

SRC = Path(nmhl.__file__).resolve().parent.parent
CONFIGS = sorted((SRC.parent / "perfbench" / "configs").glob("*/*.cfg"))

LOADED_TEST_DEPS = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "mpmath"))))
"""


def child(code: str, cwd: Path):
    """Run ``code`` in a fresh interpreter and return the scipy and mpmath
    modules it left loaded (the JSON list on its last stdout line)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code + LOADED_TEST_DEPS],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_config_parsing_load_no_scipy(tmp_path):
    assert CONFIGS
    code = (
        "import nmhl\nimport nmhl.cli\n"
        f"for path in {[str(p) for p in CONFIGS]!r}:\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        nmhl.parse_config(fh.read())\n"
    )
    assert child(code, tmp_path) == []


def cli_run(tmp_path: Path, kind: str, k: int, params: str):
    """Run one ``kind`` experiment on ``pure_power`` through
    ``nmhl.cli.main`` in a child; return the scipy and mpmath modules it
    left loaded."""
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / "run.cfg").write_text(
        f"[operator]\nvariant = pure_power\nk = {k}\n\n"
        f"[experiment]\nkind = {kind}\n{params}\n"
    )
    code = (
        "import nmhl.cli\n"
        f"assert nmhl.cli.main([{kind!r}, '--config', 'run.cfg', "
        "'--out', 'out']) == 0\n"
    )
    loaded = child(code, tmp_path)
    assert (tmp_path / "out" / f"{kind}.csv").is_file()
    return loaded


def test_a_polynomial_kernel_run_loads_no_scipy(tmp_path):
    assert cli_run(tmp_path, "kernel", 2, "t = 0.01") == []


def test_rate_and_varadhan_runs_load_no_scipy(tmp_path):
    # the Legendre layer is numpy only: Newton solve, exact Lagrangian and
    # tridiagonal descent step; the deep varadhan samples take the contour
    # image sum in double precision
    assert cli_run(tmp_path / "rate", "rate", 2, "y = 5.0\nperturb = 0.3") == []
    assert cli_run(tmp_path / "varadhan", "varadhan", 1, "") == []


#: one config per experiment kind: its pure_power operator and parameters
RUNS = {
    "kernel": (2, "t = 0.01"),
    "ibp": (1, ""),
    "rate": (2, "y = 5.0\nperturb = 0.3"),
    "varadhan": (1, ""),
    "exit": (1, ""),
    "report": (1, "fast = true"),
}

BLOCKED_RUNS = """
import json, sys
for name in ("scipy", "mpmath"):
    sys.modules[name] = None  # from here on, any import of it raises
    try:
        __import__(name)
    except ImportError:
        pass
    else:
        raise SystemExit(name + " was not blocked")
import nmhl.cli
print(json.dumps({kind: nmhl.cli.main([kind, "--config", kind + ".cfg",
                                       "--out", kind])
                  for kind in %r}))
"""


def test_every_experiment_kind_runs_with_scipy_blocked(tmp_path):
    # the package needs neither scipy nor mpmath: an import of either
    # anywhere on these runs would end it with exit code 2
    for kind, (k, params) in RUNS.items():
        (tmp_path / f"{kind}.cfg").write_text(
            f"[operator]\nvariant = pure_power\nk = {k}\n\n"
            f"[experiment]\nkind = {kind}\n{params}\n"
        )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", BLOCKED_RUNS % list(RUNS)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes.keys() == RUNS.keys()
    for kind, code in codes.items():
        assert code in (0, 1), (kind, proc.stderr)
        assert (tmp_path / kind / f"{kind}.csv").is_file(), kind


def test_jump_kernel_and_quadrature_ibp_runs_load_no_scipy(tmp_path):
    levy = SRC.parent / "perfbench" / "configs" / "fields" / "kernel_levy.cfg"
    (tmp_path / "ibp.cfg").write_text(
        "[operator]\nvariant = pure_power\nk = 1\n\n"
        "[experiment]\nkind = ibp\nmoment_path = quadrature\n"
    )
    code = (
        "import nmhl.cli\n"
        f"assert nmhl.cli.main(['kernel', '--config', {str(levy)!r}, "
        "'--out', 'levy']) == 0\n"
        "assert nmhl.cli.main(['ibp', '--config', 'ibp.cfg', "
        "'--out', 'ibp']) == 0\n"
    )
    assert child(code, tmp_path) == []
    assert (tmp_path / "levy" / "kernel.csv").is_file()
    assert (tmp_path / "ibp" / "ibp.csv").is_file()
