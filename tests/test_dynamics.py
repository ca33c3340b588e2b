import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitypair import cli, dynamics, qmath
from cavitypair import (
    CavityGeometry,
    CavityPairError,
    DegenerateModel,
    DimensionMismatch,
    InitialState,
    ModelParams,
    ParameterError,
    TimeSeries,
    UnnormalizedState,
    analytic_spectrum,
    ZeroCoupling,
    build_single_excitation_h,
    closed_form_concurrence,
    concurrence_series,
    evolve,
    evolve_spectral,
    hermitian_eigendecompose,
    mesh,
    numeric_peak_concurrence,
    peak_height,
    peak_optimum,
    peak_report,
    peak_times,
    reduced_density,
    scan_peak_optimum,
    wootters_concurrence,
)

# Frozen reference values for (g1, Gamma) = (1, 0.5), photon-fed start.
OMEGA = 1.118033988749895
T_PEAK = 1.8732839282775269      # 2 pi / (3 Omega)
PERIOD = 5.619851784832581       # 2 pi / Omega
C_PEAK = 0.9295160030897799      # (2 g1^2 Gamma / Omega^3) (3 sqrt(3)/4)
PEAK_STATE = np.array([-0.2, -0.7745966692414834j, -0.6])

P_REF = ModelParams(g1=1.0, rddi=0.5)

SIGN = st.sampled_from((-1.0, 1.0))
SIGNED_LOG_COUPLING = st.tuples(st.floats(min_value=-300.0, max_value=300.0), SIGN).map(
    lambda p: p[1] * 10.0 ** p[0])


class TestInitialState:
    def test_default_is_photon_fed(self):
        init = InitialState()
        np.testing.assert_array_equal(init.vector(), [1.0 + 0.0j, 0.0j, 0.0j])

    def test_accepts_any_normalized_pair(self):
        InitialState(alpha=0.6, beta=0.8j)

    def test_rejects_unnormalized(self):
        with pytest.raises(UnnormalizedState):
            InitialState(alpha=1.0, beta=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            InitialState(alpha=float("nan"), beta=0.0)

    def test_overflowing_norm_is_unnormalized(self):
        with pytest.raises(UnnormalizedState, match=r"^\|psi\| = inf deviates from 1"):
            InitialState(alpha=1e200, beta=1e200)


class TestTimeSeries:
    def test_rejects_descending_times(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([0.0, 2.0, 1.0]), values=np.zeros(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([0.0, 1.0]), values=np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([]), values=np.array([]))

    def test_rejects_non_finite_value(self):
        with pytest.raises(ParameterError, match="^times and values must be finite$"):
            TimeSeries(times=np.array([0.0, 1.0]), values=np.array([0.0, math.nan]))

    def test_leaves_the_callers_arrays_writable(self):
        t, v = np.linspace(0.0, 1.0, 5), np.zeros(5)
        series, direct = concurrence_series(P_REF, InitialState(), t), TimeSeries(times=t, values=v)
        t[:] = v[:] = 7.0  # raises if either was frozen
        assert series.times[-1] == direct.times[-1] == 1.0 and direct.values[-1] == 0.0
        assert not (series.times.flags.writeable or direct.values.flags.writeable)


class TestEvolve:
    def test_time_zero(self):
        init = InitialState(alpha=0.6, beta=0.8j)
        out = evolve(P_REF, init, 0.0)
        assert np.max(np.abs(out - np.array([0.6, 0.8j, 0.0]))) <= 1e-14

    def test_peak_state_amplitudes(self):
        out = evolve(P_REF, InitialState(), T_PEAK)
        assert np.max(np.abs(out - PEAK_STATE)) <= 1e-12

    def test_pure_exchange_limit(self):
        params = ModelParams(g1=0.0, rddi=0.3)
        init = InitialState(alpha=0.0, beta=1.0)
        for t in (0.7, 3.1, 12.0):
            out = evolve(params, init, t)
            expected = np.array([0.0, math.cos(0.3 * t), -1j * math.sin(0.3 * t)])
            assert np.max(np.abs(out - expected)) <= 1e-12

    def test_norm_conserved_along_series(self):
        grid = np.linspace(0.0, 100.0, 2001)
        out = evolve(ModelParams(g1=0.8, g2=0.3, rddi=0.2), InitialState(), grid)
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-12

    def test_two_dimensional_grid_of_models_refused(self):
        # a grid of models propagates as one 1-d stack; a 2-d grid has no such layout
        params = ModelParams(g1=np.ones((2, 2)), rddi=np.full((2, 2), 0.5))
        message = r"^expected a square matrix or a stack of them, got shape \(2, 2, 3, 3\)$"
        with pytest.raises(DimensionMismatch, match=message):
            evolve(params, InitialState(), 1.0)
        with pytest.raises(DimensionMismatch, match=message):
            concurrence_series(params, InitialState(), [0.0, 1.0])


def test_every_eigensolve_is_checked_hermitian(monkeypatch):
    calls = {"eigh": 0, "defect": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(qmath, "hermiticity_defect", counted("defect", qmath.hermiticity_defect))
    grid = ModelParams(g1=np.array([1.0, 0.4]), g2=0.3, rddi=np.array([0.5, 0.2]))
    evolve(P_REF, InitialState(), 1.0)
    evolve(grid, InitialState(), [0.0, 1.0])
    concurrence_series(P_REF, InitialState(), [0.0, 1.0])
    mesh(CavityGeometry(), np.linspace(-1.0, 1.0, 3), [0.0, 1.0])
    numeric_peak_concurrence(grid)
    for argv in (["evolve", "--t-steps", "5"], ["mesh", "--x1-steps", "3", "--t-steps", "4"],
                 ["sweep", "--numeric-peaks", "--x1-steps", "3"]):
        assert cli.main(argv) == 0
    assert calls["eigh"] == calls["defect"] > 0


class TestReducedDensity:
    def test_photon_only(self):
        rho = reduced_density(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(rho, np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-15)

    def test_maximally_entangled_atoms(self):
        rho = reduced_density(np.array([0.0, 1.0, -1j]) / math.sqrt(2.0))
        assert rho[1, 1] == pytest.approx(0.5, abs=1e-15)
        assert rho[2, 2] == pytest.approx(0.5, abs=1e-15)
        assert rho[1, 2] == pytest.approx(0.5j, abs=1e-15)
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_peak_state_entries(self):
        rho = reduced_density(PEAK_STATE)
        assert rho[1, 1] == pytest.approx(0.6, abs=1e-12)
        assert rho[2, 2] == pytest.approx(0.36, abs=1e-12)
        assert rho[3, 3] == pytest.approx(0.04, abs=1e-12)
        assert abs(rho[1, 2]) == pytest.approx(0.46475800154488983, abs=1e-12)

    def test_coherence_squared_equals_population_product(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi /= np.linalg.norm(psi)
            rho = reduced_density(psi)
            assert abs(abs(rho[1, 2]) ** 2 - rho[1, 1].real * rho[2, 2].real) <= 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(UnnormalizedState):
            reduced_density(np.array([1.0, 1.0, 0.0]))


class TestConcurrenceSeries:
    def test_no_exchange_channel_stays_zero(self):
        grid = np.linspace(0.0, 10.0, 101)
        series = concurrence_series(ModelParams(g1=1.0, rddi=0.0), InitialState(), grid)
        assert np.max(series.values) <= 1e-15

    def test_single_point_grid(self):
        series = concurrence_series(P_REF, InitialState(), np.array([0.0]))
        assert series.values.shape == (1,)
        assert series.values[0] <= 1e-15

    def test_two_equal_peaks_per_period(self):
        grid = np.linspace(0.0, PERIOD, 10_001)
        series = concurrence_series(P_REF, InitialState(), grid)
        v = series.values
        interior = np.where((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0] + 1
        assert interior.size == 2
        assert abs(v[interior[0]] - v[interior[1]]) <= 1e-10
        assert v[interior[0]] == pytest.approx(C_PEAK, abs=1e-6)

    def test_matches_general_concurrence_route(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            g1, rddi = rng.uniform(0.05, 1.0, size=2)
            t = rng.uniform(0.0, 25.0)
            params = ModelParams(g1=g1, rddi=rddi)
            series = concurrence_series(params, InitialState(), np.array([t]))
            rho = reduced_density(evolve(params, InitialState(), t))
            assert abs(series.values[0] - wootters_concurrence(rho)) <= 1e-10

    def test_periodic_with_zero_g2(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            g1, rddi = rng.uniform(0.1, 1.0, size=2)
            params = ModelParams(g1=g1, rddi=rddi)
            period = 2.0 * math.pi / params.omega
            t = rng.uniform(0.0, period, size=16)
            base = concurrence_series(params, InitialState(), np.sort(t))
            shifted = concurrence_series(params, InitialState(), np.sort(t) + period)
            assert np.max(np.abs(base.values - shifted.values)) <= 1e-10


class TestClosedForm:
    def test_zero_at_time_zero(self):
        assert closed_form_concurrence(1.0, 0.5, 0.0) == 0.0

    def test_peak_value(self):
        assert closed_form_concurrence(1.0, 0.5, T_PEAK) == pytest.approx(C_PEAK, abs=1e-12)

    def test_optimum_reaches_unity(self):
        omega = math.sqrt(1.5)
        value = closed_form_concurrence(1.0, 1.0 / math.sqrt(2.0), 2.0 * math.pi / (3.0 * omega))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_pipeline(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            g1, rddi = rng.uniform(0.05, 1.0, size=2)
            t = rng.uniform(0.0, 20.0)
            params = ModelParams(g1=g1, rddi=rddi)
            rho = reduced_density(evolve(params, InitialState(), t))
            assert abs(closed_form_concurrence(g1, rddi, t) - wootters_concurrence(rho)) <= 1e-10

    def test_series_point_equality(self):
        grid = np.linspace(0.0, PERIOD, 257)
        series = concurrence_series(P_REF, InitialState(), grid)
        closed = closed_form_concurrence(1.0, 0.5, grid)
        assert np.max(np.abs(series.values - closed)) <= 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateModel):
            closed_form_concurrence(0.0, 0.0, 1.0)


class TestPeakTimes:
    def test_unit_omega(self):
        times = peak_times(1.0, 0.0, m_max=1)
        np.testing.assert_allclose(times, [2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0], atol=1e-15)

    def test_split_omega(self):
        times = peak_times(1.0, 0.5, m_max=1)
        np.testing.assert_allclose(times, [T_PEAK, 3.7465678565550538], atol=1e-12)

    def test_higher_m_adds_shifted_pairs(self):
        first = peak_times(1.0, 0.5, m_max=1)
        more = peak_times(1.0, 0.5, m_max=3)
        assert more.shape == (4,)
        np.testing.assert_allclose(more[:2], first, atol=1e-15)
        np.testing.assert_allclose(more[2:], first + PERIOD, atol=1e-12)

    def test_each_time_is_local_maximum(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            g1, rddi = rng.uniform(0.1, 1.0, size=2)
            delta = 1e-4 / math.hypot(g1, rddi)
            for t in peak_times(g1, rddi, m_max=5):
                here = closed_form_concurrence(g1, rddi, t)
                assert here >= closed_form_concurrence(g1, rddi, t - delta)
                assert here >= closed_form_concurrence(g1, rddi, t + delta)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            peak_times(1.0, 0.5, m_max=2)
        with pytest.raises(ValueError):
            peak_times(1.0, 0.5, m_max=0)

    def test_degenerate(self):
        with pytest.raises(DegenerateModel):
            peak_times(0.0, 0.0)

    @pytest.mark.parametrize("g1, rddi", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)])
    def test_rejects_non_finite_couplings(self, g1, rddi):
        with pytest.raises(ParameterError, match="is not finite"):
            peak_times(g1, rddi)

    @pytest.mark.parametrize("g1, m_max, message", [
        (1e-320, 1, "^Omega = 1e-320: period 2 pi/Omega overflows$"),
        (3.5e-308, 3, r"^peak time 10/6 x period 1.795\d+e\+308 overflows$"),
    ])
    def test_overflowing_time_refused_quietly(self, g1, m_max, message):
        with np.errstate(all="raise"), pytest.raises(DegenerateModel, match=message):
            peak_times(g1, 0.0, m_max=m_max)

    @settings(max_examples=60)
    @given(g1=st.lists(SIGNED_LOG_COUPLING, min_size=1, max_size=4),
           rddi=st.lists(SIGNED_LOG_COUPLING, min_size=1, max_size=4), m_max=st.sampled_from((1, 3, 5)))
    def test_grid_rows_are_one_model_calls(self, g1, rddi, m_max):
        times = peak_times(np.array(g1)[:, None], np.array(rddi), m_max=m_max)
        assert times.shape == (len(g1), len(rddi), m_max + 1)
        for i, a in enumerate(g1):
            for j, b in enumerate(rddi):
                assert np.array_equal(times[i, j], peak_times(a, b, m_max=m_max))

    def test_one_overflowing_row_is_named(self):
        with np.errstate(all="raise"), pytest.raises(DegenerateModel) as info:
            peak_times(np.array([1.0, 0.5, 3.5e-308, 3.6e-308]), 0.0, m_max=3)
        assert str(info.value) == f"peak time 10/6 x period {2.0 * math.pi / 3.5e-308!r} overflows (model 2)"

    def test_times_below_the_overflow_limit(self):
        times = peak_times(3.5e-308, 0.0)
        np.testing.assert_allclose(times, np.array([2.0, 4.0]) * math.pi / (3.0 * 3.5e-308), rtol=1e-15)

    def test_first_time_is_t_peak_bit_for_bit(self):
        # One formula, period/3, on 1e4 models: Omega log-uniform over the domain,
        # and 2000 where 3 Omega overflows (Omega above 6e307).
        rng = np.random.default_rng(47)
        omega = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 8000), rng.uniform(6e307, 1.7e308, 2000)])
        angle = rng.uniform(0.0, 2.0 * math.pi, omega.size)
        g1, rddi = omega * np.cos(angle), omega * np.sin(angle)
        t_peak = peak_report(ModelParams(g1=g1, rddi=rddi)).t_peak
        for a, b, want in zip(g1.tolist(), rddi.tolist(), t_peak.tolist()):
            assert peak_times(a, b)[0] == peak_report(ModelParams(g1=a, rddi=b)).t_peak == want


class TestPeakReport:
    def test_reference_values(self):
        report = peak_report(P_REF)
        assert report.c_peak == pytest.approx(C_PEAK, abs=1e-12)
        assert report.t_peak == pytest.approx(T_PEAK, abs=1e-12)
        assert report.period == pytest.approx(PERIOD, abs=1e-12)
        assert report.ratio == 0.5
        assert 0.0 < report.t_peak <= report.period

    def test_no_exchange(self):
        report = peak_report(ModelParams(g1=1.0))
        assert report.c_peak == 0.0
        assert report.period == pytest.approx(2.0 * math.pi, abs=1e-15)

    def test_optimum_input_gives_unity(self):
        report = peak_report(ModelParams(g1=1.0, rddi=1.0 / math.sqrt(2.0)))
        assert report.c_peak == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonzero_g2(self):
        with pytest.raises(ValueError):
            peak_report(ModelParams(g1=1.0, g2=0.1, rddi=0.5))

    def test_degenerate_and_zero_coupling(self):
        with pytest.raises(DegenerateModel):
            peak_report(ModelParams(g1=0.0))
        with pytest.raises(ZeroCoupling):
            peak_report(ModelParams(g1=0.0, rddi=0.5))

    @pytest.mark.parametrize("g1", [1e-320, np.array([1.0, 1e-320])])
    def test_overflowing_period_refused_quietly(self, g1):
        with np.errstate(all="raise"), pytest.raises(DegenerateModel, match="period 2 pi/Omega overflows"):
            peak_report(ModelParams(g1=g1))

    @pytest.mark.parametrize("g1, ratio", [(1e-300, math.inf), (-1e-300, -math.inf),
                                           (np.array([1e-300, -1e-300, 1e-5]), [math.inf, -math.inf, 1e10 / 1e-5])])
    def test_overflowing_ratio_is_inf_quietly(self, g1, ratio):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = peak_report(ModelParams(g1=g1, rddi=1e10))
        np.testing.assert_array_equal(report.ratio, ratio)
        assert np.all(np.isfinite([report.c_peak, report.t_peak, report.period]))

    @pytest.mark.parametrize("g1", [1e308, np.array([1e308, 1e308])])
    def test_peak_time_where_three_omega_overflows(self, g1):
        # 3 Omega = 4.2e308 overflows, so t_peak is period/3 there, quietly.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = peak_report(ModelParams(g1=g1, rddi=1e308))
        assert np.all(report.t_peak == report.period / 3.0)
        assert np.all(report.t_peak > 0.0)


class TestPeriod:
    """One period check for the peak analytics and the numeric peak search."""

    def test_smallest_omega_has_the_largest_finite_period(self):
        omega_min = dynamics._OMEGA_MIN
        assert dynamics._period(omega_min) == 2.0 * math.pi / omega_min <= np.finfo(float).max
        with pytest.raises(DegenerateModel, match=r"Omega = .*: period 2 pi/Omega overflows"):
            dynamics._period(math.nextafter(omega_min, 0.0))
        assert np.isinf(2.0 * math.pi / math.nextafter(omega_min, 0.0))

    def test_zero_keeps_its_message(self):
        for omega in (0.0, np.array([1.0, 0.0, 1e-320])):
            with pytest.raises(DegenerateModel, match="^g1 = rddi = 0: period undefined$"):
                dynamics._period(omega)

    def test_infinite_omega_refused_quietly(self):
        # Omega = hypot(1.5e308, 1.5e308) overflows to inf; 1e308 each stays finite.
        params = ModelParams(g1=1.5e308, rddi=1.5e308)
        calls = (lambda: peak_report(params), lambda: peak_times(1.5e308, 1.5e308),
                 lambda: numeric_peak_concurrence(params), lambda: dynamics._period(np.array([1.0, math.inf])))
        message = r"^Omega = inf: sqrt\(g1\^2 \+ rddi\^2\) overflows$"
        for call in calls:
            with np.errstate(all="raise"), pytest.raises(DegenerateModel, match=message):
                call()
        assert peak_report(ModelParams(g1=1e308, rddi=1e308)).period > 0.0

    def test_arrays_and_floats(self):
        assert dynamics._period(1.0) == 2.0 * math.pi
        np.testing.assert_array_equal(dynamics._period(np.array([1.0, 2.0])), 2.0 * math.pi / np.array([1.0, 2.0]))
        with np.errstate(all="raise"), pytest.raises(DegenerateModel):
            dynamics._period(np.array([1.0, 1e-310]))


class TestPeakOptimum:
    def test_analytic_point(self):
        rddi_opt, c_max = peak_optimum(1.0)
        assert rddi_opt == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert c_max == 1.0

    def test_scales_linearly(self):
        rddi_opt, c_max = peak_optimum(2.0)
        assert rddi_opt == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert c_max == 1.0

    def test_strict_local_maximum(self):
        rddi_opt, _ = peak_optimum(1.0)
        assert peak_height(1.0, rddi_opt * 1.01) < 1.0
        assert peak_height(1.0, rddi_opt * 0.99) < 1.0

    def test_numeric_scan_agrees(self):
        rddi_opt, c_max = scan_peak_optimum(1.0)
        assert abs(rddi_opt - 1.0 / math.sqrt(2.0)) <= 1e-6
        assert abs(c_max - 1.0) <= 1e-6

    def test_height_monotone_in_ratio(self):
        below = [peak_height(1.0, r) for r in np.linspace(0.05, 0.70, 40)]
        above = [peak_height(1.0, r) for r in np.linspace(0.72, 5.0, 40)]
        assert np.all(np.diff(below) > 0.0)
        assert np.all(np.diff(above) < 0.0)

    @settings(max_examples=100)
    @given(st.one_of(
        st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
        st.floats(min_value=-1e-6, max_value=1e-6).map(lambda d: (1.0 + d) / math.sqrt(2.0)),
    ))
    def test_height_never_above_one(self, rddi):
        assert 0.0 <= peak_height(1.0, rddi) <= 1.0

    def test_height_accepts_arrays(self):
        ratios = np.linspace(0.0, 3.0, 31)
        heights = peak_height(1.0, ratios)
        assert heights.shape == (31,)
        assert heights.tolist() == [peak_height(1.0, float(r)) for r in ratios]
        with pytest.raises(DegenerateModel):
            peak_height(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    @settings(max_examples=100)
    @given(st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e))
    def test_numeric_scan_at_every_scale(self, g1):
        rddi_opt, c_max = scan_peak_optimum(g1)
        assert abs(rddi_opt / (g1 / math.sqrt(2.0)) - 1.0) <= 1e-6
        assert 1.0 - 1e-12 <= c_max <= 1.0

    def test_numeric_scan_takes_at_most_8_evaluations(self, monkeypatch):
        calls = []

        def counted(g1, rddi):
            calls.append(rddi)
            return peak_height(g1, rddi)

        monkeypatch.setattr(dynamics, "peak_height", counted)
        dynamics._scan_ratio_optimum.cache_clear()
        ratio, height = scan_peak_optimum(1.0)
        assert 1 <= len(calls) <= 8
        # The zoom is g1-independent and cached: a later call at another g1
        # evaluates nothing and scales the cold ratio by g1, bit for bit.
        calls.clear()
        assert scan_peak_optimum(3.7) == (3.7 * ratio, height)
        assert calls == []

    def test_numeric_scan_zooms_at_first_call_not_at_import(self):
        # A fresh interpreter: importing the package and running a command
        # that never asks for the optimum must leave the zoom's cache empty.
        probe = ("import contextlib, io\n"
                 "import cavitypair\n"
                 "from cavitypair import cli, dynamics\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    assert cli.main(['spectrum']) == 0\n"
                 "print(dynamics._scan_ratio_optimum.cache_info().currsize)\n"
                 "cavitypair.scan_peak_optimum(1.0)\n"
                 "print(dynamics._scan_ratio_optimum.cache_info().currsize)\n")
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert run.stdout == "0\n1\n"

    def test_rejects_nonpositive_g1(self):
        with pytest.raises(ValueError):
            peak_optimum(0.0)
        with pytest.raises(ValueError):
            scan_peak_optimum(-1.0)

    @pytest.mark.parametrize("g1, rddi", [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf),
                                          (1.0, np.array([0.5, math.nan]))])
    def test_height_rejects_non_finite_couplings(self, g1, rddi):
        with pytest.raises(ParameterError, match="^couplings must be finite, got max"):
            peak_height(g1, rddi)

    @pytest.mark.parametrize("optimum", [peak_optimum, scan_peak_optimum])
    @pytest.mark.parametrize("g1", [math.nan, math.inf])
    def test_optimum_rejects_non_finite_g1(self, optimum, g1):
        with pytest.raises(ParameterError, match=f"^g1 = {g1!r} must be finite and positive$"):
            optimum(g1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ModelParams(g1=float("nan")),
        lambda: InitialState(alpha=float("nan")),
        lambda: TimeSeries(times=np.array([1.0, 0.0]), values=np.zeros(2)),
        lambda: analytic_spectrum(ModelParams(g1=1.0, g2=0.1)),
        lambda: peak_report(ModelParams(g1=1.0, g2=0.1, rddi=0.5)),
        lambda: closed_form_concurrence(float("nan"), 0.5, 1.0),
    ],
    ids=["ModelParams", "InitialState", "TimeSeries", "analytic_spectrum", "peak_report", "closed_form"],
)
def test_input_errors_are_package_errors(call):
    with pytest.raises(CavityPairError):
        call()


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_peak_analytics_scale_free(scale):
    report = peak_report(ModelParams(g1=scale, rddi=0.5 * scale))
    assert abs(report.c_peak - C_PEAK) <= 1e-15
    assert abs(peak_height(scale, 0.5 * scale) - C_PEAK) <= 1e-15
    assert abs(closed_form_concurrence(scale, 0.5 * scale, T_PEAK / scale) - C_PEAK) <= 1e-12
    rddi_opt, c_max = scan_peak_optimum(scale)
    assert abs(rddi_opt / scale - 1.0 / math.sqrt(2.0)) <= 1e-6
    assert abs(c_max - 1.0) <= 1e-6


def test_amplitude_clamp_keeps_the_peak_height_at_most_one():
    assert dynamics._AMPLITUDE_MAX * dynamics._PEAK_SHAPE <= 1.0


def test_peak_amplitude_matches_a_200_bit_reference():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(16)
    n = 2000
    signs = rng.choice((-1.0, 1.0), size=(3, n))
    g1 = signs[0] * 10.0 ** rng.uniform(-300.0, 300.0, n)
    ratio_g1 = 10.0 ** rng.uniform(-297.0, 297.0, n)
    g1 = np.concatenate([g1, signs[1] * ratio_g1])
    rddi = np.concatenate([signs[2] * 10.0 ** rng.uniform(-300.0, 300.0, n),
                           signs[2] * ratio_g1 * 10.0 ** rng.uniform(-3.0, 3.0, n)])
    got = dynamics.peak_amplitude(g1, rddi)
    with mpmath.workprec(200):
        exact = []
        for a, b in zip(np.abs(g1).tolist(), np.abs(rddi).tolist()):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            exact.append(float(2 * a * a * b / mpmath.sqrt(a * a + b * b) ** 3))
    exact = np.array(exact)
    normal = exact >= np.finfo(float).tiny
    assert normal.sum() > n  # every ratio point and some of the independent couplings
    assert np.max(np.abs(got[normal] - exact[normal]) / exact[normal]) <= 1e-15


def initial_state(mix: float, phase: float) -> InitialState:
    beta = math.sqrt(mix) * complex(math.cos(phase), math.sin(phase))
    return InitialState(alpha=math.sqrt(1.0 - mix), beta=beta)


def state_route_concurrence(params: ModelParams, init: InitialState, t):
    psi = evolve_spectral(hermitian_eigendecompose(build_single_excitation_h(params)), init.vector(), t)
    return np.minimum(2.0 * np.abs(psi[..., 1] * np.conj(psi[..., 2])), 1.0)


class TestClosedFormDomain:
    # Couplings signed log-uniform over the documented domain and times log-uniform, each also 0.
    @settings(max_examples=60)
    @given(g1=st.one_of(st.just(0.0), SIGNED_LOG_COUPLING), rddi=st.one_of(st.just(0.0), SIGNED_LOG_COUPLING),
           t=st.one_of(st.just(0.0), st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)))
    def test_in_unit_interval_or_refused(self, g1, rddi, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = closed_form_concurrence(g1, rddi, t)
            except CavityPairError:
                return
        assert 0.0 <= value <= 1.0

    def test_non_finite_phase_refused(self):
        for g1, rddi, t in ((1.5e308, 1.5e308, 1.0), (10.0, 1.0, 1e308), (1.0, 0.5, math.nan)):
            with pytest.raises(ParameterError, match="is not finite$"):
                closed_form_concurrence(g1, rddi, t)
        with pytest.raises(DegenerateModel):
            closed_form_concurrence(0.0, 0.0, math.inf)


def _bytes_or_class(function, *args):
    """The bytes of each array a call returns, or the class it raises."""
    try:
        out = function(*args)
    except (CavityPairError, RuntimeWarning) as exc:
        return type(exc)
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return [np.ascontiguousarray(array).tobytes() for array in out]


class TestOneMatrixBranches:
    """One model, one matrix and one time take their own branches; each gives the stack route's bits."""

    COUPLING = st.one_of(st.just(0.0), SIGNED_LOG_COUPLING)

    @settings(max_examples=60)
    @given(g1=COUPLING, g2=COUPLING, rddi=COUPLING, mix=st.floats(min_value=0.0, max_value=1.0),
           phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
           t=st.one_of(st.just(0.0), st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)))
    def test_bits_equal_the_stack_route(self, g1, g2, rddi, mix, phase, t):
        one, grid = ModelParams(g1=g1, g2=g2, rddi=rddi), ModelParams(g1=[g1], g2=[g2], rddi=[rddi])
        h = build_single_excitation_h(one)
        assert h.tobytes() == build_single_excitation_h(grid)[0].tobytes()

        def decomposition(m):
            decomp = hermitian_eigendecompose(m)
            return decomp.eigenvalues, decomp.eigenvectors

        assert _bytes_or_class(decomposition, h) == _bytes_or_class(lambda m: [a[0] for a in decomposition(m)],
                                                                    h[None])
        init = initial_state(mix, phase)
        assert _bytes_or_class(evolve, one, init, t) == _bytes_or_class(lambda *a: evolve(*a)[0], one, init, [t])
        try:
            decomp = hermitian_eigendecompose(h)
        except CavityPairError:
            return
        assert (_bytes_or_class(evolve_spectral, decomp, init.vector(), t)
                == _bytes_or_class(lambda *a: evolve_spectral(*a)[0], decomp, init.vector(), [t]))


class TestConcurrenceKernel:
    @settings(max_examples=100)
    @given(
        couplings=st.lists(st.tuples(SIGNED_LOG_COUPLING, SIGNED_LOG_COUPLING, SIGNED_LOG_COUPLING),
                           min_size=1, max_size=5),
        taus=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=6),
        per_member=st.booleans(),
        mix=st.floats(min_value=0.0, max_value=1.0),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_equals_state_route(self, couplings, taus, per_member, mix, phase):
        g = np.array(couplings)
        params = ModelParams(g1=g[:, 0], g2=g[:, 1], rddi=g[:, 2])
        # Times in units of the largest coupling (of each member, or of the stack), so |E t| <= ~150.
        scale = np.abs(g).max(axis=1)
        t = np.array(taus) / (scale[:, None] if per_member else scale.max())
        init = initial_state(mix, phase)
        got = dynamics._model_concurrence(params, init, t)
        assert got.shape == (g.shape[0], len(taus))
        assert np.max(np.abs(got - state_route_concurrence(params, init, t))) <= 1e-13

    @settings(max_examples=100)
    @given(
        g=st.tuples(SIGNED_LOG_COUPLING, SIGNED_LOG_COUPLING, SIGNED_LOG_COUPLING),
        signs=st.tuples(SIGN, SIGN, SIGN),
        reverse=st.booleans(),
        mix=st.floats(min_value=0.0, max_value=1.0),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        taus=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=6),
    )
    def test_in_unit_interval_and_sign_free(self, g, signs, reverse, mix, phase, taus):
        g1, g2, rddi = g
        t = np.array(taus) / max(map(abs, g))
        params = ModelParams(g1=g1, g2=g2, rddi=rddi)
        values = dynamics._model_concurrence(params, initial_state(mix, phase), t)
        assert np.all((values >= 0.0) & (values <= 1.0))
        # Sign changes of the basis states d (psi0 -> d psi0), optionally with time
        # reversal (H -> -H, psi0 -> conj psi0), leave every concurrence unchanged.
        d0, d1, d2 = signs
        r = -1.0 if reverse else 1.0
        flipped = ModelParams(g1=r * d0 * d1 * g1, g2=r * d0 * d2 * g2, rddi=r * d1 * d2 * rddi)
        init = InitialState(alpha=d0 * math.sqrt(1.0 - mix),
                            beta=d1 * math.sqrt(mix) * complex(math.cos(phase), r * math.sin(phase)))
        assert np.max(np.abs(dynamics._model_concurrence(flipped, init, t) - values)) <= 1e-13
        # The photon-fed state is fixed by all of them, so any sign of any coupling gives its C.
        photon_fed = dynamics._model_concurrence(params, InitialState(), t)
        any_signs = ModelParams(g1=signs[0] * g1, g2=signs[1] * g2, rddi=signs[2] * rddi)
        assert np.max(np.abs(dynamics._model_concurrence(any_signs, InitialState(), t) - photon_fed)) <= 1e-13

    def test_scalar_time_gives_scalar(self):
        value = dynamics._model_concurrence(P_REF, InitialState(), T_PEAK)
        assert np.ndim(value) == 0
        assert value == dynamics._model_concurrence(P_REF, InitialState(), np.array([0.0, T_PEAK]))[1]
        assert abs(value - C_PEAK) <= 1e-15
        stack = ModelParams(g1=np.array([1.0, 2.0]), rddi=np.array([0.5, 1.0]))
        assert dynamics._model_concurrence(stack, InitialState(), T_PEAK).shape == (2,)

    def test_slices_match_single_members(self):
        # 40 x 400 points run in several slices; each row equals its own call bit for bit.
        g1 = np.linspace(-1.0, 1.0, 40) + 0.0125
        stack = ModelParams(g1=g1, g2=1e-3, rddi=0.4)
        t = np.linspace(0.0, 30.0, 400)
        init = InitialState(alpha=0.6, beta=0.8j)
        values = dynamics._model_concurrence(stack, init, t)
        assert values.size > dynamics._KERNEL_POINTS
        for i in (0, 19, 20, 39):
            single = dynamics._model_concurrence(ModelParams(g1=g1[i], g2=1e-3, rddi=0.4), init, t)
            np.testing.assert_array_equal(values[i], single)

    @staticmethod
    def _check_against_state_route(params, init, t):
        got = dynamics._model_concurrence(params, init, t)
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert np.max(np.abs(got - state_route_concurrence(params, init, t))) <= 1e-13

    def test_half_angle_at_odd_multiples_of_half_pi(self):
        # Where gap t/2 is (within an ulp of) the double nearest (2k+1) pi/2, tau = tan(gap t/2)
        # is about 1e16: cos gap t = r - 1 -> -1 and sin gap t = tau r -> 0 must still hold.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(200):
            targets = [float((2 * k + 1) * mpmath.pi / 2) for k in range(4)]
        params = ModelParams(g1=1.0, g2=0.3, rddi=0.5)
        init = InitialState(alpha=0.6, beta=0.8j)
        gaps, _ = dynamics._atom_weights(dynamics._model_decomposition(params), init.vector())
        times = []
        for half in (0.5 * gaps).tolist():
            for target in targets:
                t = target / half
                for _ in range(8):  # step t by ulps until half * t rounds to the target
                    if half * t == target:
                        break
                    t = math.nextafter(t, math.inf if half * t < target else 0.0)
                assert abs(math.tan(half * t)) > 1e14
                times.append(t)
        self._check_against_state_route(params, init, np.sort(times))

    @pytest.mark.parametrize("init", [InitialState(), InitialState(alpha=0.6, beta=0.8j)])
    def test_time_zero_and_tiny_phases(self, init):
        for params in (P_REF, ModelParams(g1=1.0, g2=0.3, rddi=0.5), ModelParams(g1=1e-5, g2=2.0, rddi=-3.0)):
            self._check_against_state_route(params, init, np.array([0.0, 1e-300]))

    @pytest.mark.parametrize("g2, t", [(1.0, [1e300, 2.5e300, 6e300]), (1e150, [1e150, 3e150, 7e150])])
    def test_phases_near_1e300(self, g2, t):
        # eigh gives E = -g2, 0, g2 exactly here, so both routes see the same rounded phases g2 t.
        params = ModelParams(g1=0.0, g2=g2, rddi=0.0)
        self._check_against_state_route(params, InitialState(alpha=0.6, beta=0.8j), np.array(t))

    def test_full_gap_phase_is_judged(self):
        # gap t overflows (2.8e308) while gap t/2 does not: refused like every overflowing phase.
        with pytest.raises(ParameterError, match="is not finite"):
            dynamics._model_concurrence(ModelParams(g1=1e300, rddi=1e300), InitialState(), 1e8)

    @pytest.mark.parametrize("ratio", [1e-30, 1e-15, 1e-3, 1.0])
    @pytest.mark.parametrize("g1", [1e-250, 1e-150, 1e-50, 1.0, 1e50, 1e150, 1e250])
    def test_peak_above_the_eigensolver_floor(self, g1, ratio):
        # Above eigh's deflation floor (Gamma/g1 >= 1e-30 here) the kernel keeps the closed-form peak.
        params = ModelParams(g1=g1, rddi=ratio * g1)
        value = dynamics._model_concurrence(params, InitialState(), peak_report(params).t_peak)
        want = peak_height(g1, params.rddi)
        assert abs(value - want) <= 1e-14 * want
