"""The CSV writer: numpy columns render exactly as the per-value rule, and
golden outputs keep their bytes."""

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nmhl import parse_config, run
from nmhl.runner import _fmt, _write_csv

SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 0.1]

FLOAT_COLUMNS = hnp.arrays(
    np.float64, st.integers(1, 40),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from(SPECIAL_FLOATS),
)
INT_COLUMNS = hnp.arrays(np.int64, st.integers(1, 40))
BOOL_COLUMNS = hnp.arrays(np.bool_, st.integers(1, 40))


def per_value_csv(meta, columns, precision) -> str:
    """The rule every cell followed before columns were typed: index each
    numpy scalar and format it on its own with `_fmt`."""
    lines = ["# schema=1"]
    lines += [f"# {key}={_fmt(meta[key], precision)}" for key in sorted(meta)]
    lines.append(",".join(columns))
    cols = list(columns.values())
    for i in range(len(cols[0])):
        lines.append(",".join(_fmt(col[i], precision) for col in cols))
    return "\n".join(lines) + "\n"


def written(meta, columns, precision) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _write_csv(str(path), meta, columns, precision)
        return path.read_bytes().decode("utf-8")


@settings(max_examples=200, deadline=None)
@given(
    first=st.one_of(FLOAT_COLUMNS, INT_COLUMNS, BOOL_COLUMNS),
    second=st.one_of(FLOAT_COLUMNS, INT_COLUMNS, BOOL_COLUMNS),
    precision=st.integers(1, 17),
)
def test_numpy_columns_render_as_the_per_value_rule(first, second, precision):
    n = min(first.size, second.size)
    columns = {"a": first[:n], "b": second[:n]}
    meta = {"x": 0.1, "n": 3, "flag": True, "name": "q"}
    assert written(meta, columns, precision) == per_value_csv(meta, columns, precision)


def test_special_floats_at_every_precision():
    column = np.array(SPECIAL_FLOATS)
    for precision in range(1, 18):
        columns = {"v": column, "i": np.arange(column.size)}
        assert written({}, columns, precision) == per_value_csv({}, columns, precision)


def test_plain_columns_keep_the_per_value_rule():
    columns = {"tag": ["a", "b", "c"], "value": [1234, 0.123456, 2.5e-7],
               "ok": [True, False, np.bool_(True)]}
    body = written({}, columns, 3).splitlines()
    assert body[1:] == ["tag,value,ok", "a,1234,true", "b,0.123,false",
                        "c,2.5e-07,true"]


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError):
        written({}, {"a": np.zeros(3), "b": np.zeros(2)}, 5)


# sha256 of the CSVs these configs wrote with the per-value writer, at the
# default precision of 17 digits; the hashes also pin the float results of
# the numpy/scipy/mpmath build they were taken with
QUADRATIC_2D = """\
[operator]
variant = quadratic_form
k = 1
a_matrix = 1,0.3;0.3,2

[grid]
d = 2
cutoff = 12
resolution = 32

[experiment]
kind = kernel
t = 0.5
x = 0.25
"""
QUADRATIC_2D_SHA256 = {
    "kernel.csv": "fe7f0d6720ed1bffa05861ca8fceb8dfdd3ffb6c1cd4e2056031880764737da1",
    "symbol.csv": "e5c1cd2bc2350a7ee8b4aa4ee0f24659867c1b1f7e746984f324ea198d345da1",
}
REPORT_FAST = ("[operator]\nvariant = pure_power\nk = 1\n\n"
               "[experiment]\nkind = report\nfast = true\n")
REPORT_FAST_SHA256 = {
    "report.csv": "b174ab13760f5e2a75e980a5e0469491aa873d85539a14d95e47effeee3047d9",
    "report_exit_k1.csv": "5f120274eccd2662b6f34ae5a85063f2adb4d7c0ba71afd47a3925602d67459c",
    "report_ibp.csv": "2f59f624eb1b4ce74084e2cbf4b35eb7b6a7cea44245fe94611f02fb1964b663",
    "report_kernel.csv": "2628433f94e03d239b4e8fd240a7cea18a79fce37f938288c7c0da2859ee0daf",
    "report_rate.csv": "3dc3216d3b7280eeca8e60c4eef7f379578cd6959f7277f9663d40aeb85387a2",
    "report_tilted.csv": "03634339ee4cace8b74dda0cba63a74f7e6f899d1b6286b3d74c84772b174971",
    "report_varadhan_k1.csv": "db2cbca808c09e5f1985ba23311a851c6a9bfb966383be6635685f768572c37d",
}

VARADHAN_K1 = ("[operator]\nvariant = pure_power\nk = 1\n\n"
               "[experiment]\nkind = varadhan\n")
VARADHAN_K1_SHA256 = {
    "varadhan.csv": "74a0220808c8a781803a3d713be8b9f289c0d9866a8016e29c0e788aad3021ab",
}
RATE_K1 = ("[operator]\nvariant = pure_power\nk = 1\n\n"
           "[experiment]\nkind = rate\ny = 5.0\n")
RATE_K1_SHA256 = {
    "rate.csv": "2354760092ea1af0f8a8a7f4e6b39254eb240d4470444bdc51a9d3e5c65ac776",
}
# the survey configs of the fractional and perturbed variants, taken before
# their symbols moved onto the operator classes
FRACTIONAL_K2 = ("[operator]\nvariant = fractional\nk = 2\nalpha_frac = 0.75\n\n"
                 "[experiment]\nkind = kernel\nt = 0.01\n")
FRACTIONAL_K2_SHA256 = {
    "kernel.csv": "08e702bd40cc6649f573c1e9f71341f47f9b97acd73081090da115ee4335cb02",
    "symbol.csv": "8b9a50af9b1fbcac6706225068a77787851b6eff01c77d7e1091077b9873e1e6",
}
PERTURBED_K2 = ("[operator]\nvariant = perturbed\nk = 2\nq = 2:0.1,0:0.25\n\n"
                "[experiment]\nkind = kernel\nt = 0.01\n")
PERTURBED_K2_SHA256 = {
    "kernel.csv": "2efb0fa8589d65514740e2d35de37adc51ae706ec0794372982f35925b7f9428",
    "symbol.csv": "1da076f5a014d9fa0abfc47b52c0eb96f223e6b73d1d34b9a75e6908ac193c9d",
}


def csv_hashes(text, out_dir: Path) -> dict:
    run(parse_config(text), out_dir=str(out_dir))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out_dir.glob("*.csv")}


def test_quadratic_form_2d_kernel_csvs_keep_their_bytes(tmp_path):
    assert csv_hashes(QUADRATIC_2D, tmp_path) == QUADRATIC_2D_SHA256


def test_fast_report_csvs_keep_their_bytes(tmp_path):
    assert csv_hashes(REPORT_FAST, tmp_path) == REPORT_FAST_SHA256


def test_default_k1_varadhan_csv_keeps_its_bytes(tmp_path):
    assert csv_hashes(VARADHAN_K1, tmp_path) == VARADHAN_K1_SHA256


def test_k1_rate_csv_keeps_its_bytes(tmp_path):
    assert csv_hashes(RATE_K1, tmp_path) == RATE_K1_SHA256


def test_fractional_kernel_csvs_keep_their_bytes(tmp_path):
    assert csv_hashes(FRACTIONAL_K2, tmp_path) == FRACTIONAL_K2_SHA256


def test_perturbed_kernel_csvs_keep_their_bytes(tmp_path):
    assert csv_hashes(PERTURBED_K2, tmp_path) == PERTURBED_K2_SHA256
