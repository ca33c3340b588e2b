import dataclasses
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitypair import (
    CavityGeometry,
    InitialState,
    NoConvergence,
    analytic_spectrum,
    build_single_excitation_h,
    concurrence_series,
    params_at,
    sweep_position,
)
from cavitypair import cli
from cavitypair.cli import _merge_config, _shared_parser, build_parser, main
from cavitypair.svgplot import raster_plot

OMEGA = 1.118033988749895
C_PEAK_AT_MINUS_2 = 0.0354526304721042


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def run_within_contract(*args):
    """Run the CLI and check the whole-domain contract; return the exit code.

    Exit 0, 2 or 3, no traceback and no warning; an exit 0 prints no nan and
    no inf but an overflowing ratio, any other exit one "error: " line.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(*args)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    if code == 0:  # only the ratio column may hold +-inf: |Gamma/g1| beyond the largest double
        header, *lines = out.split("\n")
        names = header.split(",")
        ratio = names.index("ratio") if "ratio" in names else None
        cells = [(k, cell) for line in lines for k, cell in enumerate(line.split(","))]
        assert not any(cell == "nan" or (cell in ("inf", "-inf") and k != ratio) for k, cell in cells)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
    return code


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(row[i]) for row in rows]


class TestSpectrum:
    def test_split_doublet_rows(self):
        code, out, _ = run_cli("spectrum", "--g1", "1", "--rddi", "0.5")
        assert code == 0
        header, rows = parse_csv(out)
        analytic = column(header, rows, "eigenvalue_analytic")
        numeric = column(header, rows, "eigenvalue_numeric")
        np.testing.assert_allclose(analytic, [-OMEGA, 0.0, OMEGA], atol=1e-12)
        np.testing.assert_allclose(numeric, analytic, atol=1e-12)
        assert max(column(header, rows, "residual_numeric")) <= 1e-12
        assert max(column(header, rows, "residual_analytic")) <= 1e-12

    def test_vacuum_rabi_rows(self):
        code, out, _ = run_cli("spectrum", "--g1", "1", "--rddi", "0")
        assert code == 0
        header, rows = parse_csv(out)
        np.testing.assert_allclose(
            column(header, rows, "eigenvalue_numeric"), [-1.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("g1, rddi", [("1", "0"), ("0", "1")])
    def test_no_negative_zero(self, g1, rddi):
        code, out, _ = run_cli("spectrum", "--g1", g1, "--rddi", rddi)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(cell != "-0" for row in rows for cell in row)

    def test_degenerate_exit(self):
        code, _, err = run_cli("spectrum", "--g1", "0", "--rddi", "0")
        assert code == 2
        assert "DegenerateModel" in err

    def test_large_g2_shows_in_analytic_residual_only(self):
        code, out, _ = run_cli("spectrum", "--g1", "1", "--g2", "0.5", "--rddi", "0.3")
        assert code == 0
        header, rows = parse_csv(out)
        assert max(column(header, rows, "residual_analytic")) > 1e-3
        assert max(column(header, rows, "residual_numeric")) <= 1e-12


class TestEvolve:
    def test_default_position_run(self):
        code, out, _ = run_cli("evolve")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1000
        norms = column(header, rows, "norm")
        assert max(abs(n - 1.0) for n in norms) <= 1e-12
        c = np.array(column(header, rows, "concurrence"))
        interior = np.where((c[1:-1] > c[:-2]) & (c[1:-1] > c[2:]))[0] + 1
        assert interior.size == 2
        assert abs(c.max() - C_PEAK_AT_MINUS_2) <= 1e-4

    def test_round_trip_against_library(self):
        code, out, _ = run_cli("evolve")
        header, rows = parse_csv(out)
        params = params_at(CavityGeometry(), -2.0)
        grid = np.linspace(0.0, 2.0 * math.pi / math.hypot(params.g1, params.rddi), 1000)
        series = concurrence_series(params, InitialState(), grid)
        emitted = np.array(column(header, rows, "concurrence"))
        assert np.max(np.abs(emitted - series.values)) == 0.0

    def test_one_decomposition_feeds_states_and_concurrence(self, monkeypatch):
        shapes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(np.shape(m)) or eigh(m))
        assert run_cli("evolve")[0] == 0
        assert shapes == [(3, 3)]

    def test_single_point_grid(self):
        code, out, _ = run_cli("evolve", "--g1", "1", "--rddi", "0.5", "--t-steps", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1
        assert column(header, rows, "t") == [0.0]
        assert abs(column(header, rows, "concurrence")[0]) <= 1e-15

    def test_exchange_limit(self):
        code, out, _ = run_cli(
            "evolve", "--beta-re", "1", "--alpha-re", "0", "--g1", "0", "--rddi", "0.3",
            "--t-max", "20", "--t-steps", "64")
        assert code == 0
        header, rows = parse_csv(out)
        t = np.array(column(header, rows, "t"))
        c = np.array(column(header, rows, "concurrence"))
        assert np.max(np.abs(c - np.abs(np.sin(0.6 * t)))) <= 1e-10

    def test_rejects_unnormalized_state(self):
        code, _, err = run_cli("evolve", "--g1", "1", "--alpha-re", "1", "--beta-re", "1")
        assert code == 2
        assert "UnnormalizedState" in err


class TestSweep:
    def test_matches_library_exactly(self):
        code, out, _ = run_cli("sweep", "--x1-steps", "7")
        assert code == 0
        header, rows = parse_csv(out)
        result = sweep_position(CavityGeometry(), np.linspace(-2.0, 2.0, 7))
        for name, expected in (("x1", result.x1), ("g1", result.g1), ("rddi", result.rddi),
                               ("ratio", result.ratio), ("c_peak", result.c_peak),
                               ("t_peak", result.t_peak), ("period", result.period)):
            assert column(header, rows, name) == list(expected)

    def test_numeric_peaks_flag_adds_column(self):
        code, out, _ = run_cli("sweep", "--x1-steps", "3", "--numeric-peaks")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "c_peak_numeric"
        analytic = np.array(column(header, rows, "c_peak"))
        numeric = np.array(column(header, rows, "c_peak_numeric"))
        assert np.max(np.abs(numeric - analytic) / analytic) <= 1e-6

    @pytest.mark.parametrize("x2, grid", [(-5.0, ()), (-0.5, ("--x1-min", "-3", "--x1-max", "3", "--x1-steps", "41"))])
    def test_g2_bound_covers_the_dropped_g2(self, x2, grid):
        code, out, _ = run_cli("sweep", "--numeric-peaks", f"--x2={x2!r}", *grid)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["g2_bound", "c_peak_numeric"]
        bound, period, analytic, numeric = (np.array(column(header, rows, name))
                                            for name in ("g2_bound", "period", "c_peak", "c_peak_numeric"))
        g2 = params_at(CavityGeometry(x2=x2), 0.0).g2
        np.testing.assert_array_equal(bound, 2.0 * math.sqrt(2.0) * abs(g2) * period)
        assert np.all(np.abs(numeric - analytic) <= bound)


class TestMesh:
    def test_row_major_layout_and_zero_start(self):
        code, out, _ = run_cli("mesh", "--x1-steps", "3", "--t-steps", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 12
        x1 = column(header, rows, "x1")
        assert x1 == [-2.0] * 4 + [0.0] * 4 + [2.0] * 4
        t = column(header, rows, "t")
        assert t[0] == 0.0 and t[4] == 0.0 and t[8] == 0.0
        c = column(header, rows, "concurrence")
        assert abs(c[0]) <= 1e-15 and abs(c[4]) <= 1e-15 and abs(c[8]) <= 1e-15

    def test_one_period_per_position_across_commands(self):
        # At this x1 math.hypot and np.hypot round Omega differently; every command must use one.
        grid = ("--x1-min", "-3.3202", "--x1-max", "-3.3202", "--x1-steps", "1")
        ends = []
        for args, name in ((("evolve", "--x1", "-3.3202", "--t-steps", "2"), "t"),
                           (("sweep", *grid), "period"), (("mesh", *grid, "--t-steps", "2"), "t")):
            code, out, _ = run_cli(*args)
            assert code == 0
            header, rows = parse_csv(out)
            ends.append(column(header, rows, name, str)[-1])
        assert ends == ["14063.279289815502"] * 3


class TestPeaks:
    def test_report_row(self):
        code, out, _ = run_cli("peaks", "--g1", "1", "--rddi", "0.5")
        assert code == 0
        header, rows = parse_csv(out)
        assert column(header, rows, "kind", str) == ["report"]
        assert column(header, rows, "c_peak") == [0.92951600308977989]
        assert column(header, rows, "t_peak") == [1.8732839282775269]
        assert column(header, rows, "period") == [5.6198517848325809]

    def test_position_mode_states_the_g2_bound(self):
        code, out, _ = run_cli("peaks", "--x1", "0.5", "--x2", "-0.5", "--scan-rddi", "0.1:1:3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "g2_bound" and len(rows) == 5
        g2 = params_at(CavityGeometry(x2=-0.5), 0.5).g2
        assert column(header, rows, "g2_bound") == [2.0 * math.sqrt(2.0) * abs(g2) * period
                                                    for period in column(header, rows, "period")]
        # Direct input refuses g2 != 0, so it has no such column.
        assert "g2_bound" not in run_cli("peaks", "--g1", "1", "--rddi", "0.5")[1]

    def test_no_exchange_zero_peak(self):
        code, out, _ = run_cli("peaks", "--g1", "1", "--rddi", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert column(header, rows, "c_peak") == [0.0]

    def test_scan_finds_optimum(self):
        code, out, _ = run_cli("peaks", "--g1", "1", "--scan-rddi", "0.01:2:200")
        assert code == 0
        header, rows = parse_csv(out)
        kinds = column(header, rows, "kind", str)
        assert kinds.count("scan") == 200
        assert kinds[-2] == "argmax" and kinds[-1] == "optimum"
        step = (2.0 - 0.01) / 199.0
        argmax_rddi = column(header, rows, "rddi")[-2]
        assert abs(argmax_rddi - 1.0 / math.sqrt(2.0)) <= step
        optimum = rows[-1]
        assert abs(float(optimum[header.index("rddi")]) - 0.707107) <= 1e-4
        assert abs(float(optimum[header.index("c_peak")]) - 1.0) <= 1e-6

    @pytest.mark.parametrize("scan", ["0.5:0.9:3", "0.01:2:200"])
    def test_scan_never_above_one(self, scan):
        code, out, _ = run_cli("peaks", "--g1", "1", "--scan-rddi", scan)
        assert code == 0
        header, rows = parse_csv(out)
        assert max(column(header, rows, "c_peak")) <= 1.0

    @pytest.mark.parametrize("g1, rddi", [("1e-200", "5e-201"), ("1e200", "5e199")])
    def test_extreme_scales(self, g1, rddi):
        code, out, _ = run_cli("peaks", "--g1", g1, "--rddi", rddi)
        assert code == 0
        header, rows = parse_csv(out)
        _, unit_out, _ = run_cli("peaks", "--g1", "1", "--rddi", "0.5")
        unit_header, unit_rows = parse_csv(unit_out)
        c_peak = column(header, rows, "c_peak")[0]
        assert abs(c_peak - column(unit_header, unit_rows, "c_peak")[0]) <= 1e-15

    def test_zero_g1_refused(self):
        code, _, err = run_cli("peaks", "--g1", "0", "--rddi", "0.5")
        assert code == 2
        assert "ZeroCoupling" in err

    def test_scan_with_negative_g1_mirrors_positive_g1(self):
        # the peak depends on |g1|: every column but the signed g1 and ratio is unchanged
        _, plus, _ = run_cli("peaks", "--g1", "1", "--scan-rddi", "0:1:3")
        code, minus, _ = run_cli("peaks", "--g1", "-1", "--scan-rddi", "0:1:3")
        assert code == 0
        header, rows_plus = parse_csv(plus)
        _, rows_minus = parse_csv(minus)
        assert column(header, rows_minus, "kind", str) == ["scan"] * 3 + ["argmax", "optimum"]
        for name in ("g1", "ratio"):
            assert column(header, rows_minus, name) == [-v for v in column(header, rows_plus, name)]
        for name in ("rddi", "c_peak", "t_peak", "period"):
            assert column(header, rows_minus, name, str) == column(header, rows_plus, name, str)

    def test_malformed_scan_range(self):
        for bad in ("1:2", "2:1:5", "a:b:9", "0.1:2:1"):
            code, _, err = run_cli("peaks", "--g1", "1", "--scan-rddi", bad)
            assert code == 2


class TestSelftest:
    def test_all_checks_pass(self):
        code, out, _ = run_cli("selftest")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert all(line.startswith("PASS ") for line in lines)

    def test_out_file_gets_the_lines(self, tmp_path):
        target = tmp_path / "selftest.txt"
        code, out, _ = run_cli("selftest", "--out", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().split("\n")
        assert lines[-1] == "" and len(lines) == 6
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_failed_and_crashed_checks_exit_3(self, monkeypatch):
        def crash():
            raise RuntimeError("boom")

        checks = (("fine", lambda: True), ("wrong", lambda: False), ("crashed", crash))
        monkeypatch.setattr(cli, "_selftest_checks", lambda: checks)
        code, out, _ = run_cli("selftest")
        assert code == 3
        assert out == "PASS fine\nFAIL wrong\nFAIL crashed: RuntimeError: boom\n"

    @pytest.mark.parametrize("name, broken", [
        ("spectrum-oracle", {"analytic_spectrum": lambda p: dataclasses.replace(analytic_spectrum(p), omega=2.0)}),
        ("spectrum-oracle", {"analytic_spectrum": lambda p: dataclasses.replace(analytic_spectrum(p),
                                                                                dark=np.ones(3))}),
        ("evolution-oracle", {"rk4_schrodinger": lambda h, psi0, t, dt: psi0}),
        ("evolution-oracle", {"rk4_schrodinger": lambda h, psi0, t, dt: 2.0 * psi0,
                              "evolve_spectral": lambda decomp, psi0, t: 2.0 * psi0}),
        ("concurrence-equivalence", {"xstate_concurrence": lambda rho: 2.0}),
        ("peak-placement", {"peak_times": lambda g1, rddi, m_max: np.zeros(1)}),
        ("effective-model", {"build_effective_h": build_single_excitation_h}),
    ])
    def test_each_check_can_fail(self, monkeypatch, name, broken):
        # Each check alone, with one dependency broken, prints its FAIL line.
        check = [entry for entry in cli._selftest_checks() if entry[0] == name]
        monkeypatch.setattr(cli, "_selftest_checks", lambda: check)
        for attribute, replacement in broken.items():
            monkeypatch.setattr(cli, attribute, replacement)
        assert run_cli("selftest") == (3, f"FAIL {name}\n", "")

    @pytest.mark.parametrize("name, attribute", [
        ("spectrum-oracle", "hermitian_eigendecompose"),
        ("spectrum-oracle", "analytic_spectrum"),
        ("concurrence-equivalence", "evolve"),
        ("peak-placement", "_model_concurrence"),
        ("peak-placement", "peak_times"),
    ])
    def test_one_stacked_call_per_check(self, monkeypatch, name, attribute):
        # The check runs its models through one call of the batched function.
        calls = []
        batched = getattr(cli, attribute)

        def counted(*args, **kwargs):
            calls.append(args)
            return batched(*args, **kwargs)

        check = [entry for entry in cli._selftest_checks() if entry[0] == name]
        monkeypatch.setattr(cli, "_selftest_checks", lambda: check)
        monkeypatch.setattr(cli, attribute, counted)
        assert run_cli("selftest") == (0, f"PASS {name}\n", "")
        assert len(calls) == 1


class TestPlot:
    def test_svg_well_formed_and_deterministic(self):
        code, first, _ = run_cli("plot", "--g1", "1", "--rddi", "0.5", "--t-steps", "100")
        assert code == 0
        assert first.startswith("<?xml")
        assert first.endswith("</svg>\n")
        assert "<polyline" in first
        code, second, _ = run_cli("plot", "--g1", "1", "--rddi", "0.5", "--t-steps", "100")
        assert second == first

    def test_sweep_figure_well_formed_and_deterministic(self):
        code, first, _ = run_cli("plot", "--kind", "sweep", "--x1-steps", "11")
        assert code == 0
        assert first.startswith("<?xml") and first.endswith("</svg>\n")
        assert first.count("<polyline") == 2
        assert run_cli("plot", "--kind", "sweep", "--x1-steps", "11")[1] == first

    def test_mesh_raster(self):
        code, out, _ = run_cli("plot", "--kind", "mesh", "--x1-steps", "5", "--t-steps", "6")
        assert code == 0
        assert out.count("<rect") > 25

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_raster_refuses_a_non_finite_matrix(self, bad):
        with pytest.raises(ValueError, match="raster_plot expects a non-empty finite 2-d matrix"):
            raster_plot([[0.5, bad]], (0.0, 1.0), (0.0, 1.0), "t", "x1", "mesh")


class TestConfigHandling:
    def test_file_values_and_cli_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# base setup\ng1 = 1\nrddi = 0.9\n\nt_steps = 3\n")
        code, out, _ = run_cli("peaks", "--config", str(cfg))
        header, rows = parse_csv(out)
        assert column(header, rows, "rddi") == [0.9]
        code, out, _ = run_cli("peaks", "--config", str(cfg), "--rddi", "0.5")
        header, rows = parse_csv(out)
        assert column(header, rows, "rddi") == [0.5]

    def test_false_boolean_key_is_the_default(self, tmp_path):
        cfg = tmp_path / "off.cfg"
        cfg.write_text("numeric_peaks = off\n")
        args = ("sweep", "--x1-steps", "5")
        assert run_cli(*args, "--config", str(cfg)) == run_cli(*args)

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli("peaks", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("g1 1\n")
        code, _, _ = run_cli("peaks", "--config", str(cfg))
        assert code == 2

    def test_missing_file(self):
        code, _, _ = run_cli("peaks", "--config", "/nonexistent/path.cfg")
        assert code == 2

    def test_mode_mixing_rejected(self, tmp_path):
        code, _, err = run_cli("evolve", "--x1", "-2", "--g1", "1")
        assert code == 2
        cfg = tmp_path / "mix.cfg"
        cfg.write_text("x1 = -2\ng1 = 1\n")
        code, _, err = run_cli("evolve", "--config", str(cfg))
        assert code == 2

    def test_cli_mode_overrides_file_mode(self, tmp_path):
        cfg = tmp_path / "direct.cfg"
        cfg.write_text("g1 = 1\nrddi = 0.5\n")
        code, out, _ = run_cli("peaks", "--config", str(cfg), "--x1", "-2")
        assert code == 0
        header, rows = parse_csv(out)
        assert abs(column(header, rows, "c_peak")[0] - C_PEAK_AT_MINUS_2) <= 1e-10

    def test_geometry_override_flag(self):
        # doubling gamma_ref doubles the exchange strength at every position
        code, out, _ = run_cli("peaks", "--x1", "-2", "--gamma-ref-hz", "2e5")
        header, rows = parse_csv(out)
        assert column(header, rows, "rddi") == [5e-4]

    def test_output_file(self, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli("peaks", "--g1", "1", "--rddi", "0.5", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("kind,") and text.endswith("\n")
        assert "\r" not in text

    @pytest.mark.parametrize("target", ["dir", "missing/x.csv"])
    def test_unwritable_output_exits_2(self, tmp_path, target):
        path = tmp_path if target == "dir" else tmp_path / target
        code, out, err = run_cli("peaks", "--g1", "1", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: ParameterError: cannot write output file {str(path)!r}: ")


SHARED_OPTIONS = [action for action in _shared_parser()._actions if action.dest != "config"]


def sample_value(action):
    """A value the action accepts in a file: a boolean, a choice, or a number or text of its type."""
    if action.nargs == 0:
        return "yes"
    if action.choices is not None:
        return action.choices[-1]
    return {int: "3", float: "0.25", None: "text"}[action.type]


class TestSingleSource:
    """Config-file keys, their types and choices all come from the parser's actions."""

    @pytest.mark.parametrize("action", SHARED_OPTIONS, ids=lambda action: action.dest)
    def test_file_key_equals_flag(self, tmp_path, action):
        flag, value = action.option_strings[0], sample_value(action)
        argv = [flag] if action.nargs == 0 else [flag, value]
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{action.dest} = {value}\n")

        def merged(*args):
            shared = _shared_parser()
            return _merge_config(build_parser(shared).parse_args(["peaks", *args]), shared._actions)

        from_flag, from_file = merged(*argv), merged("--config", str(cfg))
        assert from_flag == from_file and list(from_flag) == [action.dest]
        assert type(from_file[action.dest]) is type(from_flag[action.dest])

    def test_profile_flags_match_file_keys(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text("rddi_a = 2.4e6\nrddi_b = 10\nrddi_c3 = 5\n")
        code, from_file, _ = run_cli("peaks", "--config", str(cfg))
        assert code == 0
        code, from_flags, _ = run_cli("peaks", "--rddi-a", "2.4e6", "--rddi-b", "10", "--rddi-c3", "5")
        assert code == 0
        assert from_flags == from_file
        assert from_flags != run_cli("peaks")[1]

    @pytest.mark.parametrize("line, message", [
        ("kind = bar", "kind must be evolve, sweep or mesh, got 'bar'"),
        ("standing_wave = maybe", "{path}:1: bad value for standing_wave: 'maybe'"),
        ("t_steps = 1.5", "{path}:1: bad value for t_steps: '1.5'"),
    ])
    def test_bad_value_message(self, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli("plot", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: ParameterError: " + message.format(path=cfg) + "\n"


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("evolve", "--frequency", "1")
        assert info.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli()
        assert info.value.code == 2

    def test_shared_options_may_come_before_the_command(self):
        first = run_cli("--g1", "1", "--rddi", "0.5", "spectrum")
        assert first == run_cli("spectrum", "--g1", "1", "--rddi", "0.5")
        assert first[0] == 0 and first[1].startswith("index,")

    def test_negative_steps(self):
        code, _, _ = run_cli("evolve", "--g1", "1", "--t-steps", "0")
        assert code == 2
        code, _, _ = run_cli("sweep", "--x1-steps", "0")
        assert code == 2


class TestDomainEdges:
    """Extreme inputs end in exit 0 or 2: no traceback, no warning, no non-finite cell."""

    @pytest.mark.parametrize("args, expected", [
        (("evolve", "--alpha-re", "1e200", "--beta-re", "1e200"), 2),
        (("evolve", "--g1", "1e10", "--t-max", "1e308", "--t-steps", "3"), 2),
        (("sweep", "--w0-um", "1e300", "--numeric-peaks"), 0),
        (("sweep", "--w0-um", "1e305"), 2),
        (("sweep", "--numeric-peaks", "--g0-mhz", "1e-300"), 0),
        (("spectrum", "--g1", "-1", "--rddi", "-0.5"), 0),
        (("peaks", "--g1", "1e-320", "--rddi", "0"), 2),
        (("sweep", "--gamma-ref-hz", "1e-300", "--x1-min", "20", "--x1-max", "27", "--x1-steps", "3"), 2),
        (("sweep", "--numeric-peaks", "--g0-mhz", "1e-310"), 2),
        (("evolve", "--x2", "0", "--x1", "1e-320", "--t-steps", "2"), 2),
        (("peaks", "--g1", "-1", "--rddi", "0.5"), 0),
        (("peaks", "--g1", "-1", "--scan-rddi", "0:1:3"), 0),
        (("evolve", "--x1", "1e200", "--t-steps", "2"), 0),
        (("evolve", "--x1", "1e308", "--t-steps", "2", "--standing-wave"), 2),
        (("sweep", "--numeric-peaks", "--gamma-ref-hz", "1e-300", "--x1-min", "26.6", "--x1-max", "26.7",
          "--x1-steps", "1"), 2),
        (("evolve", "--standing-wave", "--lambda-um", "1e-300", "--w0-um", "1e10", "--x1", "1", "--t-steps", "2"), 2),
        (("evolve", "--g1", "1e-320"), 2),
        (("mesh", "--g1", "0.3", "--x1-steps", "2", "--t-steps", "2"), 2),
        (("sweep", "--rddi", "5"), 2),
        (("sweep", "--x1", "0.5"), 2),
        (("plot", "--kind", "sweep", "--g1", "0.3"), 2),
        (("evolve", "--t-max", "-1"), 2),
        (("evolve", "--t-max", "nan"), 2),
        (("evolve", "--t-max", "0", "--t-steps", "5"), 2),
        (("sweep", "--x1-min", "1", "--x1-max", "0"), 2),
        (("evolve", "--x1", "inf"), 2),
        (("plot", "--g1", "1", "--rddi", "0"), 0),
        (("plot", "--g1", "1", "--rddi", "0.5", "--t-steps", "1"), 0),
        (("peaks", "--g1", "1e-300", "--rddi", "1e10"), 0),
        (("sweep", "--x1-min", "26", "--x1-max", "27", "--x1-steps", "2"), 0),
        (("peaks", "--g1", "1e308", "--rddi", "1e308"), 0),
        (("peaks", "--g1", "1.5e308", "--rddi", "1.5e308"), 2),
        (("evolve", "--g1", "1.5e308", "--rddi", "1.5e308"), 2),
        (("spectrum", "--g1", "1e200", "--rddi", "1e200"), 0),
        (("spectrum", "--g1", "1e308", "--rddi", "1e308"), 0),
        (("spectrum", "--g1", "1.5e308", "--rddi", "1.5e308"), 2),
        (("peaks", "--g1", "1", "--g2", "0.5", "--rddi", "0.5"), 2),
        (("peaks", "--g1", "1", "--g2=-1e-300", "--scan-rddi", "0:1:3"), 2),
        (("peaks", "--g1", "1", "--g2", "0", "--rddi", "0.5"), 0),
        # 1e18 float64 points (6.94 EiB): an allocation refused at once, a MemoryError
        (("evolve", "--t-steps", "1000000000000000000"), 2),
        (("sweep", "--x1-steps", "1000000000000000000"), 2),
        (("mesh", "--x1-steps", "3", "--t-steps", "1000000000000000000"), 2),
        (("peaks", "--g1", "1", "--scan-rddi", "0:1:1000000000000000000"), 2),
    ])
    def test_exit_code_and_quiet(self, args, expected):
        assert run_within_contract(*args) == expected

    # Signed couplings log-uniform over the documented domain, and 0.  Values go
    # as --g1=<v>: argparse reads "--g1 -1e-05" as a flag with its value missing.
    COUPLING = st.one_of(st.just(0.0), st.builds(lambda sign, exponent: sign * 10.0**exponent,
                                                 st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0)))

    @settings(max_examples=60)
    @given(g1=COUPLING, g2=COUPLING, rddi=COUPLING)
    def test_whole_domain(self, g1, g2, rddi):
        couplings = (f"--g1={g1!r}", f"--g2={g2!r}", f"--rddi={rddi!r}")
        for command in (("spectrum",), ("peaks",), ("evolve", "--t-steps", "3"),
                        ("plot", "--kind", "evolve", "--t-steps", "3")):
            run_within_contract(*command, *couplings)

    # --numeric-peaks stays out of the draw: its search grows with W * period, one draw (--x1-min -13.48
    # --x1-max -10.19 --rddi-a 3.48e5 --x2 5.2e-37) took 6 s and the breadth cap admits about 24 s.
    # Its edge cases are in test_exit_code_and_quiet.
    GEOMETRY_FLAGS = [action.option_strings[0] for action in SHARED_OPTIONS
                      if action.dest in cli.GEOMETRY_KEYS and action.type is float]

    @settings(max_examples=40)
    @given(overrides=st.dictionaries(st.sampled_from(GEOMETRY_FLAGS), COUPLING, max_size=3),
           x1=st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=2, unique=True))
    def test_grid_commands_over_the_whole_domain(self, overrides, x1):
        options = [f"{flag}={value!r}" for flag, value in overrides.items()]
        options += [f"--x1-min={min(x1)!r}", f"--x1-max={max(x1)!r}"]
        for command in (("sweep",), ("mesh", "--t-steps", "3"), ("plot", "--kind", "sweep"),
                        ("plot", "--kind", "mesh", "--t-steps", "3")):
            run_within_contract(*command, *options)

    def test_g2_bound_beyond_the_largest_double_is_the_largest_double(self):
        args = ("sweep", "--x2", "0", "--gamma-ref-hz", "1e-300", "--x1-min", "26.6", "--x1-max", "26.6",
                "--x1-steps", "1")
        assert run_within_contract(*args) == 0
        header, rows = parse_csv(run_cli(*args)[1])
        assert column(header, rows, "g2_bound", str) == ["1.7976931348623157e+308"]

    def test_peaks_refuses_g2(self, tmp_path):
        refusal = (2, "", "error: ParameterError: peak analytics are defined for g2 = 0 only\n")
        assert run_cli("peaks", "--g1", "1", "--g2", "0.5", "--rddi", "0.5") == refusal
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g1 = 1\ng2 = 0.5\nrddi = 0.5\n")
        assert run_cli("peaks", "--config", str(cfg)) == refusal
        assert run_cli("peaks", "--g1", "1", "--g2", "0", "--rddi", "0.5") == run_cli("peaks", "--g1", "1",
                                                                                       "--rddi", "0.5")

    def test_evolve_messages(self):
        _, _, err = run_cli("evolve", "--alpha-re", "1e200", "--beta-re", "1e200")
        assert err == "error: UnnormalizedState: |psi| = inf deviates from 1 beyond 1e-10\n"
        _, _, err = run_cli("evolve", "--g1", "1e10", "--t-max", "1e308", "--t-steps", "3")
        assert err == "error: ParameterError: phase max|E| max|t| = inf is not finite\n"
        _, _, err = run_cli("evolve", "--standing-wave", "--lambda-um", "1e-300", "--w0-um", "1e10", "--x1", "1")
        assert err == "error: ParameterError: standing-wave phase 2 pi x1 w0/lambda overflows\n"

    def test_grid_commands_refuse_model_input(self, tmp_path):
        _, _, err = run_cli("sweep", "--rddi", "5")
        assert err == "error: ParameterError: grid commands take atom 1 from --x1-min/--x1-max/--x1-steps, not rddi\n"
        cfg = tmp_path / "direct.cfg"
        cfg.write_text("g1 = 0.3\ng2 = 0.1\n")
        code, out, err = run_cli("mesh", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.endswith("--x1-steps, not g1, g2\n")

    def test_numerical_contract_violation_exits_3(self, monkeypatch):
        def fail(cfg):
            raise NoConvergence("eigensolver failed")

        monkeypatch.setattr(cli, "cmd_peaks", fail)
        assert run_cli("peaks") == (3, "", "error: NoConvergence: eigensolver failed\n")

    @pytest.mark.parametrize("command", ["evolve", "plot"])
    def test_default_period_messages(self, command):
        _, _, err = run_cli(command, "--g1", "1e-320")
        assert err == "error: DegenerateModel: Omega = 1e-320: period 2 pi/Omega overflows; pass --t-max\n"
        _, _, err = run_cli(command, "--g1", "0", "--rddi", "0")
        assert err == "error: DegenerateModel: g1 = rddi = 0: period undefined; pass --t-max\n"
        _, _, err = run_cli(command, "--g1", "1.5e308", "--rddi", "1.5e308")
        assert err == "error: DegenerateModel: Omega = inf: sqrt(g1^2 + rddi^2) overflows; pass --t-max\n"

    @pytest.mark.parametrize("g1, rddi", [(-1.0, -0.5), (0.0, 1.0), (1.0, -0.5), (-0.3, 0.7), (1e308, 1e308)])
    def test_spectrum_analytic_columns_share_the_numeric_gauge(self, g1, rddi):
        code, out, _ = run_cli("spectrum", "--g1", str(g1), "--rddi", str(rddi))
        assert code == 0
        header, rows = parse_csv(out)
        for part in ("photon", "atom1", "atom2"):
            analytic = np.array(column(header, rows, f"{part}_analytic"))
            numeric = np.array(column(header, rows, f"{part}_numeric"))
            assert np.max(np.abs(analytic - numeric)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e308])
    def test_spectrum_residuals_scale_with_the_couplings(self, scale):
        # Neither overflows through H v or its squares (inf) nor underflows (0).
        code, out, _ = run_cli("spectrum", f"--g1={scale!r}", f"--rddi={scale!r}")
        assert code == 0
        header, rows = parse_csv(out)
        for name in ("residual_analytic", "residual_numeric"):
            assert 0.0 < max(column(header, rows, name)) <= 1e-15 * scale
