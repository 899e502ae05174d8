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

import oracles
from nmhl import parse_config, run
from nmhl.runner import (_MANY_DISTINCT, _MANY_ROWS, _column_bytes, _fmt,
                         _format_floats, _write_csv)

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


def formatted(x, precision) -> list:
    """The texts `_format_floats` gives for `x`, with the NUL padding off."""
    rows = _format_floats(np.asarray(x, dtype=np.float64), precision)
    assert rows.shape[0] == np.size(x)
    return [bytes(row[row != 0]).decode() for row in rows]


def percent_g(x, precision) -> list:
    return [f"%.{precision}g" % v for v in np.asarray(x, dtype=np.float64).tolist()]


def formatter_cases(precision: int) -> np.ndarray:
    """Random bit patterns, 10**q and its neighbours, ties, zeros,
    subnormals, non-finite values, the limits of the fast path and the
    exponents X = -5, -4, p-1 and p where %g switches form, each with both
    signs."""
    rng = np.random.default_rng(precision)
    bits = rng.integers(-2**63, 2**63, size=3000, dtype=np.int64).view(np.float64)
    spread = rng.uniform(1.0, 10.0, 3000) * 10.0 ** rng.integers(-30, 31, 3000)
    powers = np.array([float(f"1e{q}") for q in range(-323, 309)])
    neighbours = np.concatenate([np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
    # exact halves at the p-th digit and binary fractions: %g breaks the
    # tie to even, the double-double path sends these to `%`
    whole = rng.integers(10 ** (precision - 1), 10 ** precision, 500)
    ties = np.concatenate([(whole + 0.5) * 10.0 ** rng.integers(-3, 4, 500),
                           np.arange(1, 400) / 8.0, np.arange(1, 400) / 1024.0])
    boundary = []
    for x in (-5, -4, precision - 1, precision):
        lo = 10.0 ** x
        boundary += [lo, np.nextafter(lo, 0.0), np.nextafter(lo, np.inf),
                     lo * (1.0 - 0.5 * 10.0 ** -precision),
                     lo * (1.0 - 0.4 * 10.0 ** -precision),
                     lo * (1.0 - 0.6 * 10.0 ** -precision),
                     9.5 * lo, 9.99 * lo, 1.5 * lo, 2.0 * lo]
        boundary += list(rng.uniform(lo, 10.0 * lo, 50))
    limits = [1e-280, 1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf)]
    x = np.concatenate([bits, spread, powers, neighbours, ties, boundary, limits,
                        SPECIAL_FLOATS, 2.0 ** np.arange(-1074, 1024)])
    return np.concatenate([x, -x])


@pytest.mark.parametrize("precision", range(1, 18))
def test_vectorized_formatter_equals_percent_g(precision):
    x = formatter_cases(precision)
    assert formatted(x, precision) == percent_g(x, precision)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.lists(st.integers(-2**63, 2**63 - 1)
                  | st.floats(1e-30, 1e30).map(
                      lambda f: np.float64(f).view(np.int64).item()),
                  min_size=1, max_size=64),
    precision=st.integers(1, 17),
)
def test_vectorized_formatter_equals_percent_g_on_bit_patterns(bits, precision):
    x = np.array(bits, dtype=np.int64).view(np.float64)
    assert formatted(x, precision) == percent_g(x, precision)


def trailing_zero_cases(precision: int) -> np.ndarray:
    """m * 10**e for mantissas m of 1 to 17 digits ending in a nonzero digit
    (1, 12, 125, 1251, ...) and with all-zero four-digit groups inside
    (10001, 100000001, ...), so the p-digit D ends in 0 to 16 zeros, at
    decimal exponents X in every %g layout and past the fast path's limits,
    in both signs."""
    mantissas = [int("12512512512512512"[:k]) for k in range(1, 18)]
    mantissas += [10 ** j + 1 for j in range(1, 17)]
    mantissas += [10 ** j + 10 ** (j // 2) for j in range(2, 17)]
    exps = list(range(-9, precision + 3)) + [-300, -281, -200, 200, 281, 300]
    x = np.array([float(f"{m}e{e10 - len(str(m)) + 1}")
                  for m in mantissas for e10 in exps])
    return np.concatenate([x, -x])


@pytest.mark.parametrize("precision", range(1, 18))
def test_vectorized_formatter_counts_trailing_zeros_as_percent_g(precision):
    x = trailing_zero_cases(precision)
    assert formatted(x, precision) == percent_g(x, precision)


def test_vectorized_formatter_sees_every_trailing_zero_count():
    # the cases reach D with each count of trailing zeros from 0 to p - 1
    for precision in (4, 16, 17):
        x = trailing_zero_cases(precision)
        digits = {f"%.{precision - 1}e" % v for v in np.abs(x).tolist()}
        counts = {len(d) - len(d.rstrip("0"))
                  for d in (t.split("e")[0].replace(".", "") for t in digits)}
        assert counts == set(range(precision))


INT_CASES = {
    "negative": -np.arange(3 * _MANY_ROWS) ** 2 % 97 - 50,
    "single_valued": np.full(2 * _MANY_ROWS, -7),
    "uint64_high": np.arange(2 * _MANY_ROWS, dtype=np.uint64) % 5 + np.uint64(2**64 - 9),
    "uint8": np.arange(4 * _MANY_ROWS, dtype=np.uint8),
    "int8_full_range": np.arange(-128, 128, dtype=np.int8).repeat(2),
    "int64_extremes": np.array([-2**63, 2**63 - 1] * _MANY_ROWS),
    "wider_than_the_rows": np.arange(2 * _MANY_ROWS) * 1000 - 5,
    "int16_wider_than_the_rows": np.arange(-2**15, 2**15 - 1, 97, dtype=np.int16),
}


@pytest.mark.parametrize("name", INT_CASES)
def test_integer_column_formatter_equals_str(name):
    column = INT_CASES[name]
    rng = np.random.default_rng(len(name))
    column = column[rng.permutation(column.size)]
    rows = _column_bytes(column, 17)
    assert [bytes(r[r != 0]).decode() for r in rows] == [str(v) for v in column.tolist()]
    meta = {"x": 0.1}
    columns = {"i": column, "v": np.arange(column.size) * 0.5}
    assert written(meta, columns, 6) == per_value_csv(meta, columns, 6)


def test_signed_zeros_stay_apart_in_a_column():
    rng = np.random.default_rng(5)
    for size in (4, _MANY_ROWS, 2 * _MANY_DISTINCT):
        column = rng.normal(size=size)
        column[::3] = 0.0
        column[1::3] = -0.0
        lines = written({}, {"v": column}, 17).splitlines()[2:]
        assert lines[0::3] == ["0"] * len(column[0::3])
        assert lines[1::3] == ["-0"] * len(column[1::3])


SMALL_FLOATS = hnp.arrays(
    np.float64, st.integers(0, _MANY_ROWS - 1),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from(SPECIAL_FLOATS),
)
MIXED_VALUES = st.lists(
    st.one_of(st.booleans(), st.integers(-2**70, 2**70), st.floats(),
              st.text(alphabet="abc_xyz.-", max_size=6),
              st.sampled_from([np.float64(-0.0), np.int64(-7), np.bool_(False)])),
    min_size=0, max_size=_MANY_ROWS - 1)


@settings(max_examples=200, deadline=None)
@given(
    columns=st.lists(
        st.one_of(SMALL_FLOATS,
                  hnp.arrays(np.int64, st.integers(0, _MANY_ROWS - 1)),
                  hnp.arrays(np.bool_, st.integers(0, _MANY_ROWS - 1)),
                  MIXED_VALUES),
        min_size=1, max_size=4),
    precision=st.integers(1, 17),
)
def test_small_tables_keep_the_row_template_bytes(columns, precision):
    n = min(len(c) for c in columns)
    table = {f"c{i}": c[:n] for i, c in enumerate(columns)}
    meta = {"x": 0.1, "n": 3, "flag": True, "name": "q"}
    expected = oracles.template_csv(meta, table, precision)
    assert written(meta, table, precision) == expected


@pytest.mark.parametrize("precision", [1, 4, 9, 16, 17])
def test_long_tables_keep_the_row_template_bytes(precision):
    rng = np.random.default_rng(precision)
    n = 3 * _MANY_DISTINCT
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
    floats[::97] = SPECIAL_FLOATS[0]
    floats[5:len(SPECIAL_FLOATS) + 5] = SPECIAL_FLOATS
    table = {
        "many": floats,
        "few": np.round(rng.normal(size=n), 1),
        "i": rng.integers(-300, 300, n),
        "b": rng.normal(size=n) > 0,
        "tag": [f"t{i % 7}" for i in range(n)],
        "mixed": [(i, 0.5 * i, i % 2 == 0)[i % 3] for i in range(n)],
    }
    meta = {"x": 0.1, "n": 3}
    expected = oracles.template_csv(meta, table, precision)
    assert written(meta, table, precision) == expected


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
# the component CSVs carry the hashes of their single-kind runs (the kernel
# row's of survey/kernel_k2, ibp's of survey/ibp_analytic, varadhan_k1's of
# paths/varadhan_k1, exit_k1's of survey/exit_k1); report.csv was retaken
# when the exit rows moved onto the exit kind's start * factor**j grid
REPORT_FAST_SHA256 = {
    "report.csv": "f83f09d726153274432479266063818e72dddcd384df7f2052aad05e9b767f25",
    "report_exit_k1.csv": "d16a33ffd82bbb9bf63603c18cc9fc4bed5bc376b67c3e9e90e0402ffd9efa88",
    "report_ibp.csv": "09e604e214c910f6800362de74cdd4fdea41bc014ad649c31a8b52528c6af441",
    "report_kernel.csv": "db30aac53a57229996a0c30d05f3be22790654460a4b16543eb09fb0597c95cb",
    "report_rate.csv": "adf0b6f87b045f7669d5e9687b858000a1bd6fe173febad9fa51a49ee7520f4a",
    "report_tilted.csv": "03634339ee4cace8b74dda0cba63a74f7e6f899d1b6286b3d74c84772b174971",
    "report_varadhan_k1.csv": "74a0220808c8a781803a3d713be8b9f289c0d9866a8016e29c0e788aad3021ab",
}

VARADHAN_K1 = ("[operator]\nvariant = pure_power\nk = 1\n\n"
               "[experiment]\nkind = varadhan\n")
VARADHAN_K1_SHA256 = {
    "varadhan.csv": "74a0220808c8a781803a3d713be8b9f289c0d9866a8016e29c0e788aad3021ab",
}
RATE_K1 = ("[operator]\nvariant = pure_power\nk = 1\n\n"
           "[experiment]\nkind = rate\ny = 5.0\n")
RATE_K1_SHA256 = {
    "rate.csv": "4db8ffa9e55d13321972f37c26f9810da99b4403d7d7ca0e53bf850449dc5620",
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

# every CSV written by the benchmark's preset configs and by the full report,
# taken before the unread Symbol flags were dropped: the byte-identity gate
# that a refactor of the numerical layers must keep.  The rate tables
# (survey/rate_k1, paths/rate_k1_winding, paths/rate_k2_perturbed, and the
# report_rate.csv and report.csv of both reports) were retaken when the
# Legendre table moved to exact maximizers, and again when the descent moved
# from the interpolated table to the exact Lagrangian; CHANGES.md lists the
# moved columns
CONFIG_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
REPORT_FULL = REPORT_FAST.replace("fast = true", "fast = false")
PRESET_SHA256 = {
    "fields/ibp_quadrature": {
        "ibp.csv": "659c1de4a1152c28fb2cc14c6d3bb0dbc2d7d3ec7ca489335449fd50cab7916a",
    },
    "fields/kernel_levy": {
        "kernel.csv": "8473eaf74d7df88904290cd17b8c6685ef3ceaf6e511b2b96013b026d249f2ad",
        "symbol.csv": "401bb95bf697fa8c425d1fdfad5e65643c7a890ed1e2a91040b1a3a4e6a2f7bc",
    },
    "fields/kernel_quadratic_2d": {
        "kernel.csv": "bab9854881d6f2d233af2b80fc59eadc7e005d36bc81dec431f2553e15553940",
        "symbol.csv": "1a62928a814abb7a0045153a2a87d6074c6e3494246e2bd67672e34753964dde",
    },
    "fields/kernel_quartic_2d": {
        "kernel.csv": "6eb972273119d93ab23efd3b1efa3ba808670f1ab270ac1cc9554f95eef65398",
        "symbol.csv": "c34615648b08967f79e91a44387992efcb6b7cd7bc885d36f4c9cb0953238799",
    },
    "paths/rate_k1_winding": {
        "rate.csv": "4db8ffa9e55d13321972f37c26f9810da99b4403d7d7ca0e53bf850449dc5620",
    },
    "paths/rate_k2_perturbed": {
        "rate.csv": "c9d9837868bc4289fba057898ff023ecc4751cff4da42c1aa8694f9f360f9d50",
    },
    "paths/report_fast": REPORT_FAST_SHA256,
    "paths/varadhan_k1": {
        "varadhan.csv": "74a0220808c8a781803a3d713be8b9f289c0d9866a8016e29c0e788aad3021ab",
    },
    "report_full": {
        "report.csv": "76d581b3f5f02961ade8111215c89c4be7f01257d2db90237f6cc3e1b0672873",
        "report_exit_k1.csv": "d16a33ffd82bbb9bf63603c18cc9fc4bed5bc376b67c3e9e90e0402ffd9efa88",
        "report_exit_k2.csv": "9b9ce04cc75eec9aa198d0a9a44ab351f0de40a78082c7dc5c7ed71c28b182fe",
        "report_ibp.csv": "09e604e214c910f6800362de74cdd4fdea41bc014ad649c31a8b52528c6af441",
        "report_kernel.csv": "db30aac53a57229996a0c30d05f3be22790654460a4b16543eb09fb0597c95cb",
        "report_rate.csv": "5268cbd01fde95f088b1d55c92d087946c495efd9e0477f1dd0ec9822f8d4be9",
        "report_tilted.csv": "f3937eb5034e45c7e2ce5a0bd93faba4f2092c95033edf0257c8f86bf6a6a420",
        "report_varadhan_k1.csv": "74a0220808c8a781803a3d713be8b9f289c0d9866a8016e29c0e788aad3021ab",
        "report_varadhan_k2.csv": "e333d5ba47964bcb94b97f182ed953892572bb43dafb96655704b20418884c43",
    },
    "survey/exit_k1": {
        "exit.csv": "d16a33ffd82bbb9bf63603c18cc9fc4bed5bc376b67c3e9e90e0402ffd9efa88",
    },
    "survey/exit_k2": {
        "exit.csv": "9b9ce04cc75eec9aa198d0a9a44ab351f0de40a78082c7dc5c7ed71c28b182fe",
    },
    "survey/ibp_analytic": {
        "ibp.csv": "09e604e214c910f6800362de74cdd4fdea41bc014ad649c31a8b52528c6af441",
    },
    "survey/kernel_fractional": {
        "kernel.csv": "08e702bd40cc6649f573c1e9f71341f47f9b97acd73081090da115ee4335cb02",
        "symbol.csv": "8b9a50af9b1fbcac6706225068a77787851b6eff01c77d7e1091077b9873e1e6",
    },
    "survey/kernel_k1": {
        "kernel.csv": "aa8acba5ddb997ee95caef872e8e58decc42f46b57c76247928c60498b48fdb3",
        "symbol.csv": "f0bd0118fa0ace85ce7a631e15cc5ccaf2749205502b381e66fd6984f0579b76",
    },
    "survey/kernel_k2": {
        "kernel.csv": "db30aac53a57229996a0c30d05f3be22790654460a4b16543eb09fb0597c95cb",
        "symbol.csv": "c5773e89bcc85c9bb23c14f1d2c4765f678d40b4a291de827a3b51faa6714454",
    },
    "survey/kernel_perturbed": {
        "kernel.csv": "2efb0fa8589d65514740e2d35de37adc51ae706ec0794372982f35925b7f9428",
        "symbol.csv": "1da076f5a014d9fa0abfc47b52c0eb96f223e6b73d1d34b9a75e6908ac193c9d",
    },
    "survey/rate_k1": {
        "rate.csv": "76c6de5da01da12220f6c87712dc87bbe07cfac2b8bc86facc29018eb42a41d2",
    },
    "survey/varadhan_k2": {
        "varadhan.csv": "e333d5ba47964bcb94b97f182ed953892572bb43dafb96655704b20418884c43",
    },
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


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_preset_csvs_keep_their_bytes(name, tmp_path):
    text = (REPORT_FULL if name == "report_full"
            else (CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8"))
    assert csv_hashes(text, tmp_path) == PRESET_SHA256[name]


#: report component CSV -> (pure_power k, [experiment] body, CSV) of the
#: single-kind run whose bytes it has
REPORT_ROW_RUNS = {
    "report_kernel.csv": (2, "kind = kernel\nt = 0.01\n", "kernel.csv"),
    "report_ibp.csv": (1, "kind = ibp\n", "ibp.csv"),
    "report_varadhan_k1.csv": (1, "kind = varadhan\n", "varadhan.csv"),
    "report_exit_k1.csv": (1, "kind = exit\n", "exit.csv"),
    "report_varadhan_k2.csv": (2, "kind = varadhan\n", "varadhan.csv"),
    "report_exit_k2.csv": (2, "kind = exit\n", "exit.csv"),
}


@pytest.fixture(scope="module")
def report_dirs(tmp_path_factory):
    """fast -> the output directory of that report, each run once."""
    dirs = {}
    for fast, text in ((True, REPORT_FAST), (False, REPORT_FULL)):
        dirs[fast] = tmp_path_factory.mktemp(f"report_fast_{fast}")
        run(parse_config(text), out_dir=str(dirs[fast]))
    return dirs


@pytest.mark.parametrize("fast, name", [
    (fast, name) for fast in (True, False) for name in REPORT_ROW_RUNS
    if not (fast and name.endswith("_k2.csv"))
])
def test_report_rows_have_the_bytes_of_their_single_kind_runs(
        report_dirs, fast, name, tmp_path):
    k, experiment, csv = REPORT_ROW_RUNS[name]
    run(parse_config(f"[operator]\nvariant = pure_power\nk = {k}\n\n"
                     f"[experiment]\n{experiment}"), out_dir=str(tmp_path))
    assert (report_dirs[fast] / name).read_bytes() == (tmp_path / csv).read_bytes()
