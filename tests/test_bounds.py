"""Bounded work: every input-sized allocation and every iterative layer has a
module-constant cap, and a config past it exits 2 with a typed message
(at parse time where the config alone decides it) and leaves no output."""

import math
import re
import tracemalloc
from pathlib import Path

import pytest

from nmhl import grids, parse_config, presets, runner, semigroup, spectral, varadhan
from nmhl.cli import main
from nmhl.errors import ValidationError
from nmhl.spectral import _TAIL_TERMS, LEVY_L_MAX


def cli(tmp_path, capsys, kind, text, out="o"):
    """(exit code, stderr, whether the output directory exists) of one run."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code = main([kind, "--config", str(path), "--out", str(tmp_path / out)])
    return code, capsys.readouterr().err, (tmp_path / out).exists()


def levy(l):
    return (f"[operator]\nvariant = levy\nl = {l}\nalpha_levy = -0.5\n\n"
            "[experiment]\nkind = kernel\nt = 0.1\n")


def test_levy_l_is_bounded_by_the_double_range_of_its_series(tmp_path, capsys):
    # the series of `_compensated` takes 1/(2l + 2 _TAIL_TERMS)!: at the bound
    # that factorial is a double, one above it is not
    float(math.factorial(2 * LEVY_L_MAX + 2 * _TAIL_TERMS))
    with pytest.raises(OverflowError):
        float(math.factorial(2 * (LEVY_L_MAX + 1) + 2 * _TAIL_TERMS))
    assert parse_config(levy(LEVY_L_MAX)).operator.l == LEVY_L_MAX
    message = f"l must be <= LEVY_L_MAX = {LEVY_L_MAX}, got {LEVY_L_MAX + 1}"
    with pytest.raises(ValidationError, match=f"^{message}: "):
        parse_config(levy(LEVY_L_MAX + 1))
    # l = 75 crashed with "internal error: OverflowError"
    for l, error in ((LEVY_L_MAX, "QuadratureNonConverged: "),
                     (LEVY_L_MAX + 1, "ValidationError: l must be <="), (75, "l must be <=")):
        code, err, made = cli(tmp_path, capsys, "kernel", levy(l))
        assert code == 2 and error in err and "internal error" not in err
        assert not made


def kernel(grid, t=0.01, k=1):
    return (f"[operator]\nvariant = pure_power\nk = {k}\n\n[grid]\n{grid}\n\n"
            f"[experiment]\nkind = kernel\nt = {t}\n")


@pytest.mark.parametrize("grid, message", [
    ("d = 2\ncutoff = 1000000000", "cutoff must be <= 511 on grid.d = 2 (got 1000000000)"),
    ("cutoff = 524288", "cutoff must be <= 524287 on grid.d = 1 (got 524288)"),
    ("d = 2\nresolution = 1449", "resolution must be <= 1448 on grid.d = 2 (got 1449)"),
    ("resolution = 2097153", "resolution must be <= 2097152 on grid.d = 1 (got 2097153)"),
    ("cutoff = 64\nresolution = 128",
     "resolution must be >= 2 * cutoff + 1 = 129 to resolve the lattice (got 128)"),
])
def test_grid_sizes_past_the_caps_are_refused_at_parse_time(grid, message, tmp_path,
                                                            capsys):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config(kernel(grid))
    code, err, made = cli(tmp_path, capsys, "kernel", kernel(grid))
    assert code == 2 and f"kernel: ValidationError: {message}" in err
    assert not made


def test_the_largest_preset_grids_fit_the_caps():
    # kernel_quartic_2d: cutoff 128 on d = 2, resolution max(256, 2N + 2)
    assert (2 * 128 + 1) ** 2 * 15 <= grids.MAX_LATTICE_POINTS
    assert 258 ** 2 * 31 <= grids.MAX_FFT_POINTS
    assert grids.max_cutoff(2) == 511 and grids.max_resolution(2) == 1448


def test_a_two_dimensional_kernel_at_a_tiny_time_allocates_no_lattice(tmp_path, capsys):
    # auto_cutoff's rule asks for N = 60,698, about 1.5e10 lattice points; the
    # search stops at the largest lattice the cap admits, and no lattice is
    # built
    tracemalloc.start()
    try:
        code, err, made = cli(tmp_path, capsys, "kernel", kernel("d = 2", t=1e-8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and not made
    assert "kernel: ValidationError: no admissible cutoff below 511 for t=1e-08" in err
    assert peak < 1 << 20


def test_a_lowered_lattice_cap_refuses_the_auto_cutoff_and_the_grid(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(grids, "MAX_LATTICE_POINTS", 101)   # N <= 50 on d = 1
    code, err, made = cli(tmp_path, capsys, "kernel", kernel("d = 1", t=0.001))
    assert code == 2 and not made
    assert "kernel: ValidationError: no admissible cutoff below 50" in err
    with pytest.raises(ValidationError, match="cutoff N=51 exceeds 50"):
        grids.FrequencyGrid(1, 51)


def test_a_lowered_fft_cap_refuses_the_kernel_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(grids, "MAX_FFT_POINTS", 200)
    code, err, made = cli(tmp_path, capsys, "kernel", kernel("d = 1"))
    assert code == 2 and not made
    assert ("kernel: ValidationError: resolution M=256 exceeds 200, the largest on "
            "d = 1 (grids.MAX_FFT_POINTS)") in err


def test_an_identity_form_past_its_cap_is_refused_before_it_is_built(tmp_path, capsys,
                                                                     monkeypatch):
    text = ("[operator]\nvariant = quadratic_form\nk = {k}\n\n[grid]\nd = 2\n\n"
            "[experiment]\nkind = kernel\nt = 0.1\n")
    message = "quadratic_form with k = 2000 on d = 2 has 2001 monomials, above "
    with pytest.raises(ValidationError, match=f"^{message}FORM_SIZE_MAX = 256$"):
        parse_config(text.format(k=2000))
    monkeypatch.setattr(presets, "FORM_SIZE_MAX", 2)
    code, err, made = cli(tmp_path, capsys, "kernel", text.format(k=2))
    assert code == 2 and not made
    assert "ValidationError: quadratic_form with k = 2 on d = 2 has 3 monomials" in err


def test_a_lowered_rule_cap_stops_the_jump_quadrature(tmp_path, capsys, monkeypatch):
    # the rule grows with support * max |xi|, and its Jacobi matrix is dense:
    # support = 30 at t = 1e-8 once asked for a matrix of gigabytes
    monkeypatch.setattr(spectral, "_RULE_NODES_MAX", 50)
    text = ("[operator]\nvariant = levy\nl = 1\nalpha_levy = -0.5\n\n[grid]\n"
            "cutoff = 64\n\n[experiment]\nkind = kernel\nt = 0.5\n")
    code, err, made = cli(tmp_path, capsys, "kernel", text)
    assert code == 2 and not made
    assert ("kernel: QuadratureNonConverged: the jump quadrature at support * max |xi| "
            "= 64 needs a rule of 88 nodes, above _RULE_NODES_MAX = 50") in err


def test_a_lowered_image_cap_stops_the_image_sum(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(semigroup, "_IMAGE_PAIRS_MAX", 0)
    text = "[operator]\nvariant = pure_power\nk = 1\n\n[experiment]\nkind = varadhan\n"
    code, err, made = cli(tmp_path, capsys, "varadhan", text)
    assert code == 2 and not made
    assert "varadhan: QuadratureNonConverged: the image sum at t=" in err
    assert "is still above its cut after _IMAGE_PAIRS_MAX = 0 image pairs" in err


VARADHAN_K1 = (Path(__file__).resolve().parents[1]
               / "perfbench" / "configs" / "paths" / "varadhan_k1.cfg")


def varadhan_run(k, t_start):
    return (f"[operator]\nvariant = pure_power\nk = {k}\n\n"
            f"[experiment]\nkind = varadhan\nt_start = {t_start}\n")


@pytest.mark.parametrize("k, refusal", [
    # k = 1 needs only 467 nodes a side, but its saddle i r sits at
    # r = 5e299, where xi^2 overflows
    (1, "reaches |xi| = 5e+299, where |xi|^2 overflows a double"),
    (2, "needs 1.82e+26 nodes a side, above _CONTOUR_NODES_MAX = 65536"),
], ids=["1-overflow", "2-1.82e+26"])
def test_a_contour_past_the_node_cap_is_refused_before_it_is_built(k, refusal, tmp_path,
                                                                  capsys):
    # every sample takes the contour, so no lattice build stops this window:
    # the node cap or the overflow test refuses it before any array is made
    tracemalloc.start()
    try:
        code, err, made = cli(tmp_path, capsys, "varadhan", varadhan_run(k, 1e-300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and not made
    assert (f"varadhan: QuadratureNonConverged: the contour at t=1e-300, x=1 "
            f"{refusal}") in err
    assert peak < 1 << 20


@pytest.mark.parametrize("t_start", [1e-60, 1e-100, 1e-150])
def test_a_gaussian_window_runs_at_any_depth_a_double_holds(t_start, tmp_path, capsys):
    # the xi^2 contour once widened like 1/t, since cos(pi / 2) = 6.1e-17,
    # and the node cap refused every window from t_start = 1e-36 down
    code, err, made = cli(tmp_path, capsys, "varadhan", varadhan_run(1, t_start))
    assert code == 0 and made, err


def test_a_gaussian_window_past_the_double_range_is_refused(tmp_path, capsys):
    code, err, made = cli(tmp_path, capsys, "varadhan", varadhan_run(1, 1e-160))
    assert code == 2 and not made
    assert ("varadhan: QuadratureNonConverged: the contour at t=1e-160, x=1 reaches "
            "|xi| = 5e+159, where |xi|^2 overflows a double") in err


def test_a_lowered_node_cap_stops_the_preset_varadhan_curve(tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.setattr(semigroup, "_CONTOUR_NODES_MAX", 10)
    text = VARADHAN_K1.read_text(encoding="utf-8")
    code, err, made = cli(tmp_path, capsys, "varadhan", text)
    assert code == 2 and not made
    assert "varadhan: QuadratureNonConverged: the contour at t=" in err
    assert "nodes a side, above _CONTOUR_NODES_MAX = 10" in err


def test_a_lowered_doubling_cap_stops_the_tilted_check(tmp_path, capsys, monkeypatch):
    # a tilt of 5 at k = 1, s = 1 needs one doubling of its cutoff; the loop
    # once fell through its last doubling without an error
    monkeypatch.setattr(runner, "TILT_PRESETS", ((1, 5.0, 1.0),))
    text = "[operator]\nvariant = pure_power\nk = 1\n\n[experiment]\nkind = report\n"
    assert cli(tmp_path, capsys, "report", text, out="passes")[0] == 0
    monkeypatch.setattr(varadhan, "_TILT_DOUBLINGS", 0)
    code, err, made = cli(tmp_path, capsys, "report", text)
    assert code == 2 and not made
    assert ("report: CutoffTooSmall: the tilted multiplier at xi_tilt=5 is not damped "
            "at the edge after _TILT_DOUBLINGS = 0 doublings of the cutoff") in err


def test_a_failed_run_removes_the_directories_it_created(tmp_path, capsys):
    # this once exited 2 and left --out behind, empty
    text = kernel("d = 2", t=1e-8)
    code, err, _ = cli(tmp_path, capsys, "kernel", text, out="a/b/c")
    assert code == 2 and "no admissible cutoff below 511" in err
    assert not (tmp_path / "a").exists()
    # a directory that was there before the run stays
    (tmp_path / "kept").mkdir()
    code, _, kept = cli(tmp_path, capsys, "kernel", text, out="kept")
    assert code == 2 and kept
