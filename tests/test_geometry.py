import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavitypair import dynamics, geometry
from cavitypair import (
    CavityGeometry,
    CoincidentAtoms,
    DegenerateModel,
    InitialState,
    ModelParams,
    NonpositiveSeparation,
    ParameterError,
    concurrence_series,
    coupling_at,
    mesh,
    numeric_peak_concurrence,
    params_at,
    peak_height,
    peak_report,
    rddi_at,
    sweep_position,
)

GEO = CavityGeometry()

# Frozen values for the default geometry (g0 = 400 MHz, w0 = 4 um,
# gamma_ref = 1e5 Hz at R_ref = 3).
A_COEFF = 1.2e6                      # Hz um
G_AT_2 = 0.01831563888873418         # e^-4
G_AT_5 = 1.3887943864964021e-11      # e^-25
RDDI_AT_3 = 2.5e-4                   # 1e5 Hz / 400 MHz
RATIO_AT_MINUS_2 = 0.01364953750828606
C_PEAK_AT_MINUS_2 = 0.0354526304721042
PERIOD_AT_MINUS_2 = 343.0183417235837


class TestGeometryConfig:
    def test_default_calibration_coefficient(self):
        assert GEO.rddi_a_effective == pytest.approx(A_COEFF, rel=1e-15)

    def test_explicit_coefficient_wins(self):
        geo = CavityGeometry(rddi_a=2.4e6)
        assert geo.rddi_a_effective == 2.4e6

    def test_calibration_with_higher_multipoles(self):
        geo = CavityGeometry(rddi_b=1e5, rddi_c3=1e5)
        assert rddi_at(geo, geo.r_ref) * geo.g0_hz == pytest.approx(geo.gamma_ref_hz, rel=1e-15)

    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ParameterError):
            CavityGeometry(w0_um=0.0)
        with pytest.raises(ParameterError):
            CavityGeometry(g0_mhz=-1.0)

    @pytest.mark.parametrize("fields, message", [
        ({"g0_mhz": 0.0}, "g0_mhz = 0.0 must be finite and positive"),
        ({"w0_um": -1.0}, "w0_um = -1.0 must be finite and positive"),
        ({"lambda_um": math.nan}, "lambda_um = nan must be finite and positive"),
        ({"gamma_ref_hz": math.inf}, "gamma_ref_hz = inf must be finite and positive"),
        ({"r_ref": 0}, "r_ref = 0.0 must be finite and positive"),
        ({"rddi_b": -1.0}, "rddi_b = -1.0 must be finite and non-negative"),
        ({"rddi_c3": math.nan}, "rddi_c3 = nan must be finite and non-negative"),
        ({"rddi_a": -2}, "rddi_a = -2.0 must be finite and non-negative"),
        ({"x2": math.inf}, "x2 = inf must be finite"),
        ({"x2": np.float64("nan")}, "x2 = np.float64(nan) must be finite"),
        ({"g0_mhz": 0.0, "x2": math.nan}, "g0_mhz = 0.0 must be finite and positive"),
        ({"rddi_a": -1.0, "rddi_b": -1.0}, "rddi_b = -1.0 must be finite and non-negative"),
    ])
    def test_rejection_messages_and_order(self, fields, message):
        with pytest.raises(ParameterError) as caught:
            CavityGeometry(**fields)
        assert str(caught.value) == message

    def test_accepts_zero_coefficients_and_any_finite_x2(self):
        CavityGeometry(rddi_a=0.0, rddi_b=0.0, rddi_c3=0.0, x2=-1e300)

    def test_rejects_impossible_calibration(self):
        with pytest.raises(ParameterError):
            CavityGeometry(rddi_b=1e9, gamma_ref_hz=1.0).rddi_a_effective

    @pytest.mark.parametrize("w0_um", [1e150, 1e300])
    def test_calibration_at_huge_waists(self, w0_um):
        # no power of R overflows: the far multipoles underflow to 0 and Gamma(R_ref) = gamma_ref holds
        geo = CavityGeometry(w0_um=w0_um, rddi_b=1e5, rddi_c3=1e5)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert rddi_at(geo, geo.r_ref) * geo.g0_hz == pytest.approx(geo.gamma_ref_hz, rel=1e-15)

    def test_rejects_infinite_calibration(self):
        with pytest.raises(ParameterError, match="calibrated rddi_a = inf is not finite"):
            CavityGeometry(w0_um=1e305).rddi_a_effective


class TestCouplingProfile:
    def test_waist_center(self):
        assert coupling_at(GEO, 0.0) == 1.0

    def test_two_waists_out(self):
        assert coupling_at(GEO, -2.0) == pytest.approx(G_AT_2, rel=1e-15)

    def test_parked_atom_is_suppressed_ten_orders(self):
        value = coupling_at(GEO, -5.0)
        assert value == pytest.approx(G_AT_5, rel=1e-15)
        assert value < 1e-10

    def test_even_in_position(self):
        xs = np.linspace(0.1, 3.0, 17)
        np.testing.assert_array_equal(coupling_at(GEO, xs), coupling_at(GEO, -xs))

    def test_strictly_decreasing_in_distance(self):
        values = coupling_at(GEO, np.linspace(0.0, 4.0, 41))
        assert np.all(np.diff(values) < 0.0)

    def test_standing_wave_node(self):
        geo = CavityGeometry(standing_wave=True)
        assert coupling_at(geo, 0.0) == 1.0
        node = geo.lambda_um / (4.0 * geo.w0_um)
        assert abs(coupling_at(geo, node)) <= 1e-15

    @pytest.mark.parametrize("geo", [GEO, CavityGeometry(standing_wave=True)], ids=["envelope", "standing-wave"])
    def test_far_positions_couple_with_exactly_zero_quietly(self, geo):
        far = np.array([-1e308, -1e200, -28.0, 27.3, 29.0, 1e154, 1e308])
        with np.errstate(over="raise", invalid="raise"):
            values = coupling_at(geo, far)
            scalar = coupling_at(geo, 1e200)
        assert values.tolist() == [0.0] * far.size and not np.any(np.signbit(values))
        assert scalar == 0.0 and math.copysign(1.0, scalar) == 1.0

    def test_overflowing_standing_wave_phase_refused_quietly(self):
        geo = CavityGeometry(standing_wave=True, lambda_um=1e-300, w0_um=1e10)
        with np.errstate(all="raise"), pytest.raises(
                ParameterError, match="^standing-wave phase 2 pi x1 w0/lambda overflows$"):
            coupling_at(geo, np.array([0.0, 1.0]))
        with np.errstate(over="raise", invalid="raise"):
            assert coupling_at(geo, 30.0) == 0.0  # no phase is taken where the envelope is 0


class TestRddiProfile:
    def test_calibration_identity(self):
        assert rddi_at(GEO, 3.0) == pytest.approx(RDDI_AT_3, rel=1e-15)

    def test_inverse_distance_halving(self):
        assert rddi_at(GEO, 6.0) * GEO.g0_hz == pytest.approx(5e4, rel=1e-15)

    def test_linear_in_coefficient(self):
        doubled = CavityGeometry(rddi_a=2.0 * A_COEFF)
        for r in (0.5, 3.0, 8.0):
            assert rddi_at(doubled, r) == pytest.approx(2.0 * rddi_at(GEO, r), rel=1e-15)

    def test_strictly_decreasing(self):
        values = rddi_at(GEO, np.linspace(0.5, 10.0, 39))
        assert np.all(np.diff(values) < 0.0)

    @pytest.mark.parametrize("geo, r", [
        (CavityGeometry(g0_mhz=1e-310), 3.0),
        (CavityGeometry(x2=0.0), 1e-320),
        (CavityGeometry(x2=0.0), np.array([1.0, 1e-320])),
    ])
    def test_overflow_in_g0_units_is_quiet_inf(self, geo, r):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert np.isinf(np.max(rddi_at(geo, r)))
            with pytest.raises(ParameterError, match="^rddi = inf is not finite$"):
                params_at(geo, np.asarray(r) + geo.x2)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(NonpositiveSeparation):
            rddi_at(GEO, 0.0)
        with pytest.raises(NonpositiveSeparation):
            rddi_at(GEO, -1.0)


class TestParamsAt:
    def test_reference_point(self):
        p = params_at(GEO, -2.0)
        assert p.g1 == pytest.approx(G_AT_2, rel=1e-15)
        assert p.g2 == pytest.approx(G_AT_5, rel=1e-15)
        assert p.rddi == pytest.approx(RDDI_AT_3, rel=1e-15)

    def test_cavity_center(self):
        p = params_at(GEO, 0.0)
        assert p.g1 == 1.0
        assert p.rddi == pytest.approx(1.5e-4, rel=1e-15)

    def test_order_unity_ratio_outside_sweep_domain(self):
        p = params_at(GEO, 3.0)
        assert p.g1 == pytest.approx(1.2340980408667956e-4, rel=1e-14)
        assert p.rddi == pytest.approx(9.375e-5, rel=1e-15)
        assert 0.1 <= p.rddi / p.g1 <= 10.0

    def test_rejects_coincident_atoms(self):
        with pytest.raises(CoincidentAtoms):
            params_at(GEO, -5.0)


class TestSweep:
    def test_trend_columns(self):
        result = sweep_position(GEO, np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert np.all(np.diff(result.c_peak[:3]) < 0.0)
        assert np.all(np.diff(result.c_peak[2:]) > 0.0)
        assert np.all(np.diff(result.period[:3]) < 0.0)
        assert np.all(np.diff(result.period[2:]) > 0.0)
        assert np.argmin(result.period) == 2

    def test_period_column_closed_form(self):
        result = sweep_position(GEO, np.linspace(-2.0, 2.0, 21))
        expected = 2.0 * math.pi / np.hypot(result.g1, result.rddi)
        assert np.max(np.abs(result.period - expected)) <= 1e-12 * np.max(expected)

    def test_single_point_matches_report(self):
        result = sweep_position(GEO, np.array([-2.0]))
        p = params_at(GEO, -2.0)
        report = peak_report(ModelParams(g1=p.g1, rddi=p.rddi))
        assert result.c_peak[0] == report.c_peak
        assert result.t_peak[0] == report.t_peak
        assert result.period[0] == report.period
        assert result.ratio[0] == report.ratio

    def test_reference_point_values(self):
        result = sweep_position(GEO, np.array([-2.0]))
        assert result.ratio[0] == pytest.approx(RATIO_AT_MINUS_2, rel=1e-12)
        assert result.c_peak[0] == pytest.approx(C_PEAK_AT_MINUS_2, rel=1e-12)
        assert result.period[0] == pytest.approx(PERIOD_AT_MINUS_2, rel=1e-12)

    def test_numeric_peak_column_close_to_analytic(self):
        grid = np.linspace(-2.0, 2.0, 9)
        result = sweep_position(GEO, grid, numeric_peaks=True)
        rel = np.abs(result.c_peak_numeric - result.c_peak) / result.c_peak
        assert np.max(rel) <= 1e-6

    def test_numeric_column_within_g2_truncation_bound(self):
        result = sweep_position(GEO, np.linspace(-2.0, 2.0, 101), numeric_peaks=True)
        g2 = coupling_at(GEO, GEO.x2)
        bound = 2.0 * math.sqrt(2.0) * g2 * result.period + 1e-14
        assert np.all(np.abs(result.c_peak_numeric - result.c_peak) <= bound)

    def test_rejects_bad_grids(self):
        with pytest.raises(ParameterError):
            sweep_position(GEO, np.array([]))
        with pytest.raises(ParameterError):
            sweep_position(GEO, np.array([0.0, -1.0]))

    def test_columns_in_range(self):
        result = sweep_position(GEO, np.linspace(-2.0, 2.0, 11))
        assert np.all(result.c_peak >= 0.0) and np.all(result.c_peak <= 1.0)
        assert np.all(result.g1 > 0.0) and np.all(result.rddi > 0.0)


def dense_maxima(g1, g2, rddi):
    """Float64 maxima of C over [0, 2 pi/Omega] from a real eigh propagation.

    A grid of spacing 0.05/W (W the spectral width) puts every maximum within
    0.25% of a sample; each sampled local maximum within 1% of the largest,
    and each end of the window, is then zoomed in on with 41-point grids.
    Returns the window's end and, per candidate (the two ends first), its
    bracket of grid neighbours and its zoomed value.
    """
    h = np.array([[0.0, g1, g2], [g1, 0.0, rddi], [g2, rddi, 0.0]])
    energies, vectors = np.linalg.eigh(h)

    def conc(t):
        psi = (np.exp(-1j * t[..., None] * energies) * vectors[0]) @ vectors.T
        return 2.0 * np.abs(psi[..., 1] * np.conj(psi[..., 2]))

    period = 2.0 * math.pi / math.hypot(g1, rddi)
    t = np.linspace(0.0, period, int(period * (energies[-1] - energies[0]) / 0.05) + 2)
    c = conc(t)
    inner = np.flatnonzero((c[1:-1] >= c[:-2]) & (c[1:-1] >= c[2:])) + 1
    peaks = np.concatenate([[0, t.size - 1], inner[c[inner] >= 0.99 * c.max()]])
    lo, hi = bracket = t[np.maximum(peaks - 1, 0)], t[np.minimum(peaks + 1, t.size - 1)]
    best = c[peaks]
    for _ in range(8):
        grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 41)
        values = conc(grid)
        k = values.argmax(axis=1)
        index = np.arange(k.size)
        best = np.maximum(best, values[index, k])
        lo, hi = grid[index, np.maximum(k - 1, 0)], grid[index, np.minimum(k + 1, 40)]
    return period, bracket, best


def dense_peak(g1, g2, rddi):
    """Reference maximum of C over [0, 2 pi/Omega]: the largest of ``dense_maxima``."""
    return dense_maxima(g1, g2, rddi)[2].max()


def exact_peak(g1, g2, rddi):
    """Maximum of C over [0, 2 pi/Omega] from a 40-digit mpmath eigendecomposition of H.

    The candidates are the inner ones of ``dense_maxima`` (its 1% rule) whose
    float64 value is within 1e-9 relative of the best: the float64 route errs
    by about the phase bound eps max|E| period, at most 4.4e-12 on the rows
    tested, so no candidate dropped can hold the maximum.  Each is refined
    by a bracketed 40-digit root of d(|b|^2 |c|^2)/dt between its grid
    neighbours, where that slope changes sign; the window's end t = period
    is evaluated as well (C(0) = 0).
    """
    mpmath = pytest.importorskip("mpmath")
    period, (lo, hi), values = dense_maxima(g1, g2, rddi)
    keep = np.flatnonzero(values[2:] >= (1.0 - 1e-9) * values.max()) + 2
    with mpmath.workdps(40):
        e, v = mpmath.eigsy(mpmath.matrix([[0, g1, g2], [g1, 0, rddi], [g2, rddi, 0]]))
        weights = [[v[r, j] * v[0, j] for j in range(3)] for r in (1, 2)]

        def amplitudes(t):  # (b, db/dt) and (c, dc/dt)
            phases = [mpmath.expj(-e[j] * t) for j in range(3)]
            return [(mpmath.fsum(w[j] * phases[j] for j in range(3)),
                     mpmath.fsum(-1j * e[j] * w[j] * phases[j] for j in range(3))) for w in weights]

        def slope(t):
            (b, db), (c, dc) = amplitudes(t)
            return mpmath.re(db * mpmath.conj(b)) * abs(c) ** 2 + abs(b) ** 2 * mpmath.re(dc * mpmath.conj(c))

        def conc(t):
            (b, _), (c, _) = amplitudes(t)
            return 2 * abs(b) * abs(c)

        best = conc(mpmath.mpf(period))
        for a, b in zip(lo[keep].tolist(), hi[keep].tolist()):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            assert slope(a) > 0 > slope(b)
            t_max = mpmath.findroot(slope, (a, b), solver="anderson")
            assert a <= t_max <= b
            best = max(best, conc(t_max))
        return float(best)


NEAR_WAIST = CavityGeometry(x2=-0.5)


class TestNumericPeak:
    def test_matches_closed_form_without_g2(self):
        p = ModelParams(g1=1.0, rddi=0.5)
        value = numeric_peak_concurrence(p)
        assert value == pytest.approx(0.9295160030897799, rel=1e-6)

    @settings(max_examples=60)
    @given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
    def test_equals_closed_form_without_g2(self, log_g1, log_rddi):
        g1, rddi = 10.0**log_g1, 10.0**log_rddi
        value = numeric_peak_concurrence(ModelParams(g1=g1, rddi=rddi))
        assert isinstance(value, float)
        assert abs(value - peak_height(g1, rddi)) <= 1e-14 * peak_height(g1, rddi)

    def test_near_waist_matches_dense_reference(self):
        p = params_at(NEAR_WAIST, np.linspace(-2.0, 2.0, 21))
        got = numeric_peak_concurrence(p)
        want = np.array([dense_peak(g1, p.g2, rddi) for g1, rddi in zip(p.g1, p.rddi)])
        assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_wide_spectrum_matches_dense_reference(self):
        p = params_at(NEAR_WAIST, 3.0)
        width = np.ptp(np.linalg.eigvalsh(np.array([[0, p.g1, p.g2], [p.g1, 0, p.rddi], [p.g2, p.rddi, 0]])))
        assert width / p.omega > 5000.0
        want = dense_peak(p.g1, p.g2, p.rddi)
        assert abs(numeric_peak_concurrence(p) - want) <= 1e-12 * want

    @pytest.mark.parametrize(
        "geo, x1, bound",
        [(GEO, -2.0, 5e-15), (NEAR_WAIST, -1.5, 5e-15), (NEAR_WAIST, 0.5, 5e-15), (NEAR_WAIST, 1.8, 5e-15),
         (NEAR_WAIST, 3.0, 4.4e-12), (NEAR_WAIST, -2.55, 7.0e-13)],
        ids=["default-x1=-2", "x2=-0.5-x1=-1.5", "x2=-0.5-x1=0.5", "x2=-0.5-x1=1.8",
             "x2=-0.5-x1=3.0", "x2=-0.5-x1=-2.55"])
    def test_matches_a_40_digit_reference(self, geo, x1, bound):
        # Measured: +7.8e-16, +2.1e-16, -2.2e-16, -2.1e-15, +5.9e-13 and +1.4e-13 relative, in
        # this order; the first two lie above the exact maximum.  The last two rows are wide
        # (W/Omega > 1000), where the bound is the phase bound eps max|E| period, not a few eps.
        p = params_at(geo, x1)
        want = exact_peak(p.g1, p.g2, p.rddi)
        assert abs(numeric_peak_concurrence(p) - want) <= bound * want

    def test_never_above_one_near_the_optimum(self):
        # Gamma within 1e-6 relative of g1/sqrt(2), where C's rounding reached 1 + 7 ulp
        u = np.linspace(-1.0, 1.0, 2001)
        values = numeric_peak_concurrence(ModelParams(g1=1.0, rddi=(1.0 + 1e-6 * u) / math.sqrt(2.0)))
        assert values.max() <= 1.0
        assert values.min() >= 1.0 - 1e-11

    def test_grid_equals_scalar_calls(self):
        for geo in (GEO, NEAR_WAIST):
            x1 = np.linspace(-2.0, 2.0, 13)
            grid = numeric_peak_concurrence(params_at(geo, x1))
            assert grid.shape == x1.shape
            np.testing.assert_array_equal(grid, [numeric_peak_concurrence(params_at(geo, x)) for x in x1])

    def test_one_decomposition_and_one_weight_build_per_call(self, monkeypatch):
        calls = {"decompose": 0, "weights": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(dynamics, "hermitian_eigendecompose", counted("decompose", dynamics.hermitian_eigendecompose))
        monkeypatch.setattr(dynamics, "_atom_weights", counted("weights", dynamics._atom_weights))
        # NEAR_WAIST runs the kernel many times: coarse slices, then zoom rounds.
        numeric_peak_concurrence(params_at(NEAR_WAIST, np.linspace(-3.0, 3.0, 9)))
        assert calls == {"decompose": 1, "weights": 1}

    def test_each_kernel_call_is_at_most_one_kernel_slice(self, monkeypatch):
        sizes, kernel = [], dynamics._concurrence

        def counted(weights, t):
            sizes.append(np.size(t))
            return kernel(weights, t)

        monkeypatch.setattr(dynamics, "_concurrence", counted)
        # Near the waist the search keeps many cells per round, so it needs many slices.
        numeric_peak_concurrence(params_at(NEAR_WAIST, np.linspace(-3.01, 3.02, 201)))
        assert len(sizes) > 10
        assert max(sizes) <= dynamics._KERNEL_POINTS

    def test_geometry_and_package_bind_the_dynamics_search(self):
        assert geometry.numeric_peak_concurrence is dynamics.numeric_peak_concurrence
        assert numeric_peak_concurrence is dynamics.numeric_peak_concurrence

    def test_per_member_phase_check_is_reached_and_exact(self, monkeypatch):
        # max|gap| max|t| overflows across the two models, but each model's own product is finite.
        check, reached = dynamics._require_finite_phase, []

        def counted(frequencies, t):
            reached.append(not math.isfinite(float(np.abs(frequencies).max()) * float(np.abs(t).max())))
            return check(frequencies, t)

        monkeypatch.setattr(dynamics, "_require_finite_phase", counted)
        g1, rddi = np.array([1e300, 1e-300]), np.array([5e299, 5e-301])
        values = numeric_peak_concurrence(ModelParams(g1=g1, rddi=rddi))
        assert any(reached)
        single = [numeric_peak_concurrence(ModelParams(g1=g, rddi=r)) for g, r in zip(g1, rddi)]
        np.testing.assert_array_equal(values, single)

    def test_degenerate(self):
        with pytest.raises(DegenerateModel):
            numeric_peak_concurrence(ModelParams(g1=0.0))
        with pytest.raises(DegenerateModel):
            numeric_peak_concurrence(ModelParams(g1=np.array([1.0, 0.0, 0.5]), rddi=np.array([0.5, 0.0, 0.0])))

    @pytest.mark.parametrize("g1", [1e-320, np.array([0.5, 1e-320])])
    def test_overflowing_period_refused_quietly(self, g1):
        with np.errstate(all="raise"), pytest.raises(DegenerateModel, match="period 2 pi/Omega overflows"):
            numeric_peak_concurrence(ModelParams(g1=g1))

    def test_period_near_the_overflow_limit_is_quiet(self):
        g1 = 3.5e-308  # Omega within 2x of the smallest with a finite period
        with np.errstate(over="raise", invalid="raise"):
            assert numeric_peak_concurrence(ModelParams(g1=g1)) == 0.0
            value = numeric_peak_concurrence(ModelParams(g1=g1, rddi=g1 / 2))
        assert abs(value - peak_height(g1, g1 / 2)) <= 1e-14 * peak_height(g1, g1 / 2)

    def test_coarse_samples_beyond_the_cap_refused_quietly(self):
        wide = params_at(CavityGeometry(x2=-0.5, gamma_ref_hz=1e-3), 4.0)
        with np.errstate(over="raise", invalid="raise"), pytest.raises(
                ParameterError, match=r"needs 4.35e\+08 coarse samples, more than the 134217728 of one call"):
            numeric_peak_concurrence(wide)

    def test_zero_concurrence_stops_at_the_coarse_grid(self, monkeypatch):
        # g2 = Gamma = 0: atom 2 never gets excited, every sample ties at C = 0
        kernel, points = dynamics._concurrence, []

        def counted(weights, t):
            points.append(np.size(t))
            return kernel(weights, t)

        monkeypatch.setattr(dynamics, "_concurrence", counted)
        assert numeric_peak_concurrence(ModelParams(g1=np.ones(4))).tolist() == [0.0] * 4
        assert points == [4, 4 * 64]

    def test_maximum_at_the_window_end(self):
        # With g2 kept, these models peak over [0, period] at t = period itself,
        # where the slope is not 0 and the curvature slack bounds nothing.
        g1, g2, rddi = np.array([(2.88369808924709, 2.1716388095039663, 0.30324427239113305),
                                 (-0.7007489223619987, 2.238044168725409, 0.19842829350165367),
                                 (0.5153907699038467, -1.7406118668986859, 0.9940700596105407)]).T
        params = ModelParams(g1=g1, g2=g2, rddi=rddi)
        values = numeric_peak_concurrence(params)
        period = dynamics._period(params.omega)[:, None]
        end = dynamics._model_concurrence(params, InitialState(), period)[:, 0]
        dense = dynamics._model_concurrence(params, InitialState(), period * np.linspace(0.0, 1.0, 200_001))
        np.testing.assert_allclose(values, end, rtol=1e-15, atol=0.0)
        assert np.all(values >= dense.max(axis=1))

    @pytest.mark.parametrize("ratio", [1e-78, 1e-85, 1e-140])
    def test_tiny_concurrence_is_refined(self, ratio):
        # C ~ 2 ratio^2, so C^2 underflows: the search must not compare squares of C
        want = peak_height(ratio, 1.0)
        assert abs(numeric_peak_concurrence(ModelParams(g1=ratio, rddi=1.0)) - want) <= 1e-15 * want

    @settings(max_examples=12)
    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3),
           st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
    def test_with_g2_between_the_sampled_maximum_and_one(self, exponents, signs):
        g1, g2, rddi = (sign * 10.0**e for sign, e in zip(signs, exponents))
        assume(abs(g2) <= 1e3 * math.hypot(g1, rddi))  # at most ~6e4 coarse samples
        params = ModelParams(g1=g1, g2=g2, rddi=rddi)
        value = numeric_peak_concurrence(params)
        t = np.linspace(0.0, dynamics._period(params.omega), 2048)
        assert value <= 1.0
        assert value >= (1.0 - 1e-12) * dynamics._model_concurrence(params, InitialState(), t).max()

    def test_cap_counts_n_plus_one_samples_per_model(self, monkeypatch):
        p = ModelParams(g1=np.array([1.0, 1.0]), rddi=np.array([0.5, 0.5]))  # n = 64 each
        monkeypatch.setattr(dynamics, "_COARSE_SAMPLES_MAX", 130)
        np.testing.assert_allclose(numeric_peak_concurrence(p), peak_height(1.0, 0.5), rtol=1e-14)
        monkeypatch.setattr(dynamics, "_COARSE_SAMPLES_MAX", 129)
        with pytest.raises(ParameterError, match="needs 130 coarse samples"):
            numeric_peak_concurrence(p)


class TestMesh:
    def test_first_column_zero(self):
        t_grid = np.linspace(0.0, 300.0, 16)
        values = mesh(GEO, np.linspace(-2.0, 2.0, 5), t_grid)
        assert values.shape == (5, 16)
        assert np.max(values[:, 0]) <= 1e-15

    def test_row_matches_series(self):
        t_grid = np.linspace(0.0, PERIOD_AT_MINUS_2, 64)
        values = mesh(GEO, np.array([-2.0]), t_grid)
        series = concurrence_series(params_at(GEO, -2.0), InitialState(), t_grid)
        np.testing.assert_array_equal(values[0], series.values)

    def test_row_maximum_matches_sweep_peak(self):
        sweep = sweep_position(GEO, np.array([-2.0, 0.0, 1.5]))
        for i, x1 in enumerate((-2.0, 0.0, 1.5)):
            t_grid = np.linspace(0.0, sweep.period[i], 10_001)
            row = mesh(GEO, np.array([x1]), t_grid)[0]
            assert abs(row.max() - sweep.c_peak[i]) / sweep.c_peak[i] <= 1e-6

    @pytest.mark.parametrize("geo, bound", [(GEO, 1e-16), (NEAR_WAIST, 3e-13)], ids=["default", "x2=-0.5"])
    def test_cells_match_a_50_digit_reference(self, geo, bound):
        mpmath = pytest.importorskip("mpmath")
        x1_grid = np.linspace(-2.0, 2.0, 101)  # the CLI's default mesh
        p = params_at(geo, x1_grid)
        t_grid = np.linspace(0.0, 2.0 * math.pi / np.min(np.hypot(p.g1, p.rddi)), 200)
        values = mesh(geo, x1_grid, t_grid)
        rng = np.random.default_rng(16)
        worst = 0.0
        with mpmath.workdps(50):
            for i in rng.choice(x1_grid.size, 6, replace=False):
                g1, g2, rddi = (mpmath.mpf(float(v)) for v in (p.g1[i], p.g2, p.rddi[i]))
                energies, vectors = mpmath.eigsy(mpmath.matrix([[0, g1, g2], [g1, 0, rddi], [g2, rddi, 0]]))
                for k in rng.choice(t_grid.size, 6, replace=False):
                    b, c = (abs(mpmath.fsum(vectors[r, j] * vectors[0, j] * mpmath.expj(-energies[j] * t_grid[k])
                                            for j in range(3))) for r in (1, 2))
                    worst = max(worst, abs(values[i, k] - float(2 * b * c)))
        assert worst <= bound

    def test_rejects_empty_grids(self):
        with pytest.raises(ParameterError):
            mesh(GEO, np.array([]), np.array([0.0]))
        with pytest.raises(ParameterError):
            mesh(GEO, np.array([0.0]), np.array([]))

    def test_rejects_descending_times(self):
        with pytest.raises(ParameterError):
            mesh(GEO, np.array([0.0]), np.array([1.0, 0.0]))


STANDING_WAVE = CavityGeometry(standing_wave=True)
# Atom 1 half a standing-wave period from the antinode, where g1 < 0.
ANTI_PHASE_X1 = STANDING_WAVE.lambda_um / (2.0 * STANDING_WAVE.w0_um)


class TestGridValidation:
    def test_standing_wave_grid_across_a_node(self):
        # From the antinode through the node at ANTI_PHASE_X1/2 (no grid point on it):
        # g1 changes sign, and the parked atom's g2 is negative throughout.
        grid = np.linspace(0.0, ANTI_PHASE_X1, 8)
        sweep = sweep_position(STANDING_WAVE, grid, numeric_peaks=True)
        assert sweep.g1[0] > 0.0 > sweep.g1[-1]
        params = params_at(STANDING_WAVE, grid)
        assert params.g2 < 0.0
        np.testing.assert_array_equal(
            sweep.c_peak, peak_report(ModelParams(g1=np.abs(sweep.g1), rddi=sweep.rddi)).c_peak)
        t_grid = np.linspace(0.0, 10.0, 64)
        values = mesh(STANDING_WAVE, grid, t_grid)
        assert np.all((values >= 0.0) & (values <= 1.0))
        # g -> -g (both cavity couplings) is the sign change of the photon state.
        flipped = ModelParams(g1=-params.g1, g2=-params.g2, rddi=params.rddi)
        for i in range(grid.size):
            row = ModelParams(g1=flipped.g1[i], g2=flipped.g2, rddi=flipped.rddi[i])
            series = concurrence_series(row, InitialState(), t_grid)
            np.testing.assert_allclose(series.values, values[i], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(numeric_peak_concurrence(flipped), sweep.c_peak_numeric,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "geo, x1", [(CavityGeometry(rddi_a=1e308), GEO.x2 + 1e-3)], ids=["infinite-rddi"])
    def test_invalid_coupling_raises_model_params_error(self, geo, x1):
        with np.errstate(over="ignore"):
            g1, g2, rddi = coupling_at(geo, x1), coupling_at(geo, geo.x2), rddi_at(geo, abs(x1 - geo.x2))
            with pytest.raises(ParameterError) as scalar:
                ModelParams(g1=g1, g2=g2, rddi=rddi)
            grid = np.array([0.0, x1]) if x1 > 0.0 else np.array([x1, 0.0])
            for run in (lambda: sweep_position(geo, grid), lambda: mesh(geo, grid, np.linspace(0.0, 1.0, 4))):
                with pytest.raises(ParameterError) as batch:
                    run()
                assert type(batch.value) is type(scalar.value)
                assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("grid", [[], [[0.0, 1.0]], [0.0, math.nan], [0.0, math.inf], [0.0, 1.0, 1.0], [1.0, 0.0]],
                             ids=["empty", "2-d", "nan", "inf", "repeated", "descending"])
    @pytest.mark.parametrize("name, enter", [
        ("times", lambda grid: dynamics.TimeSeries(times=grid, values=np.zeros(np.shape(grid)))),
        ("times", lambda grid: concurrence_series(ModelParams(g1=1.0, rddi=0.5), InitialState(), grid)),
        ("times", lambda grid: mesh(GEO, np.array([0.0]), grid)),
        ("x1", lambda grid: sweep_position(GEO, grid)),
    ], ids=["TimeSeries", "concurrence_series", "mesh-times", "sweep_position"])
    def test_one_grid_rule_at_every_entry(self, name, enter, grid):
        rule = f"^{name} must be a non-empty 1-d grid, finite and strictly ascending$"
        with pytest.raises(ParameterError, match=rule):
            enter(grid)

    def test_coincident_atoms_anywhere_on_the_grid(self):
        grid = np.array([-6.0, GEO.x2, -4.0])
        with pytest.raises(CoincidentAtoms):
            mesh(GEO, grid, np.linspace(0.0, 1.0, 4))
        with pytest.raises(CoincidentAtoms):
            sweep_position(GEO, grid)
