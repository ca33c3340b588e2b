import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitypair import (
    CavityPairError,
    DegenerateModel,
    ModelParams,
    ParameterError,
    ZeroCoupling,
    analytic_spectrum,
    build_effective_h,
    build_single_excitation_h,
    cli,
    evolve_spectral,
    hermitian_eigendecompose,
)

SQRT_HALF = 0.7071067811865476
# Signed and log-uniform in 1e-300..1e300, or a zero of either sign; grid rows are never g1 = Gamma = 0.
COUPLING = st.sampled_from((0.0, -0.0)) | st.tuples(st.floats(-300.0, 300.0), st.sampled_from((-1.0, 1.0))).map(
    lambda p: p[1] * 10.0 ** p[0])
GRID = st.lists(st.tuples(COUPLING, COUPLING).filter(any), min_size=1, max_size=6)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams(g1=1.0)
        assert p.g2 == 0.0 and p.rddi == 0.0
        assert p.omega == 1.0

    def test_omega(self):
        assert ModelParams(g1=1.0, rddi=0.5).omega == pytest.approx(1.118033988749895, abs=1e-15)

    def test_rejects_bad_values(self):
        for bad, message in (({"g1": float("nan")}, "g1 = nan is not finite"),
                             ({"g1": 1.0, "rddi": float("inf")}, "rddi = inf is not finite"),
                             ({"g1": 1.0, "g2": -float("inf")}, "g2 = -inf is not finite"),
                             ({"g1": np.array([1.0, -2.0]), "rddi": np.array([0.5, np.nan])},
                              "rddi = nan is not finite")):
            with pytest.raises(ParameterError) as info:
                ModelParams(**bad)
            assert str(info.value) == message

    def test_accepts_signed_values(self):
        p = ModelParams(g1=-0.1, g2=-1.0, rddi=-0.5)
        assert (p.g1, p.g2, p.rddi) == (-0.1, -1.0, -0.5)
        assert p.omega == ModelParams(g1=0.1, rddi=0.5).omega
        grid = ModelParams(g1=np.array([-1.0, 1.0]), g2=-1e-11, rddi=np.array([0.5, -0.5]))
        np.testing.assert_array_equal(grid.g1, [-1.0, 1.0])

    def test_rejects_fields_that_do_not_broadcast(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ModelParams(g1=np.ones(3), rddi=np.ones(4))
        with pytest.raises(ValueError, match="shape mismatch"):  # the shape rule comes before finiteness
            ModelParams(g1=np.ones(3), g2=np.full(2, np.nan))


class TestBuildH:
    def test_matrix_layout(self):
        h = build_single_excitation_h(ModelParams(g1=1.0, g2=0.0, rddi=0.5))
        np.testing.assert_array_equal(h, np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]], dtype=complex))

    def test_zero_params_zero_matrix(self):
        np.testing.assert_array_equal(
            build_single_excitation_h(ModelParams(g1=0.0)), np.zeros((3, 3), dtype=complex))

    def test_real_float64_for_a_model_and_a_grid(self):
        h = build_single_excitation_h(ModelParams(g1=1.0, g2=0.1, rddi=0.5))
        assert h.dtype == np.float64 and h.shape == (3, 3)
        grid = build_single_excitation_h(
            ModelParams(g1=np.array([1.0, 2.0]), g2=0.1, rddi=np.array([[0.5], [0.3]])))
        assert grid.dtype == np.float64 and grid.shape == (2, 2, 3, 3)
        np.testing.assert_array_equal(
            grid[1, 0], build_single_excitation_h(ModelParams(g1=1.0, g2=0.1, rddi=0.3)))
        assert build_effective_h(ModelParams(g1=1.0, rddi=0.3)).dtype == np.float64

    def test_tiny_g2_barely_moves_spectrum(self):
        base = hermitian_eigendecompose(
            build_single_excitation_h(ModelParams(g1=1.0, rddi=0.01))).eigenvalues
        shifted = hermitian_eigendecompose(
            build_single_excitation_h(ModelParams(g1=1.0, g2=1e-10, rddi=0.01))).eigenvalues
        assert np.max(np.abs(shifted - base)) <= 1e-9 * np.max(np.abs(base))


class TestAnalyticSpectrum:
    def test_atom2_decoupled_limit(self):
        s = analytic_spectrum(ModelParams(g1=1.0))
        assert s.omega == 1.0
        np.testing.assert_allclose(s.dark, [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(s.bright_plus, [SQRT_HALF, SQRT_HALF, 0.0], atol=1e-15)
        np.testing.assert_allclose(s.bright_minus, [SQRT_HALF, -SQRT_HALF, 0.0], atol=1e-15)

    def test_split_case(self):
        s = analytic_spectrum(ModelParams(g1=1.0, rddi=0.5))
        assert s.omega == pytest.approx(1.118033988749895, abs=1e-15)
        np.testing.assert_allclose(
            s.dark, [0.4472135954999579, 0.0, -0.8944271909999159], atol=1e-15)

    def test_exchange_limit(self):
        s = analytic_spectrum(ModelParams(g1=0.0, rddi=1.0))
        assert s.omega == 1.0
        np.testing.assert_allclose(s.dark, [1.0, 0.0, 0.0], atol=1e-15)

    def test_rejects_nonzero_g2(self):
        with pytest.raises(ValueError):
            analytic_spectrum(ModelParams(g1=1.0, g2=0.1, rddi=0.5))

    def test_bright_pair_where_sqrt2_omega_overflows(self):
        # Omega = 1.41e308 is finite, sqrt(2) Omega is not: the bright pair stays exact.
        with np.errstate(all="raise"):
            s = analytic_spectrum(ModelParams(g1=1e308, rddi=1e308))
        np.testing.assert_allclose(s.bright_plus, [0.5, SQRT_HALF, 0.5], rtol=1e-15)
        np.testing.assert_array_equal(s.bright_minus, s.bright_plus * [1.0, -1.0, 1.0])

    def test_rejects_infinite_omega(self):
        with np.errstate(all="raise"), pytest.raises(DegenerateModel, match="^Omega = inf: "):
            analytic_spectrum(ModelParams(g1=1.5e308, rddi=1.5e308))

    def test_degenerate(self):
        with pytest.raises(DegenerateModel):
            analytic_spectrum(ModelParams(g1=0.0))

    def test_matches_numeric_solver(self):
        # eigenvalues to 1e-12 through the gate's check, eigenvector projectors to 1e-10, 10^3 draws
        g1, rddi = np.random.default_rng(21).uniform(0.0, 1.0, size=(1000, 2)).T
        params = ModelParams(g1=g1, rddi=rddi)
        assert np.all(cli._spectrum_deviations(params)[0] <= 1e-12)
        s = analytic_spectrum(params)
        analytic = np.stack((s.bright_minus, s.dark, s.bright_plus), axis=-1)
        numeric = hermitian_eigendecompose(build_single_excitation_h(params)).eigenvectors

        def projectors(vectors):  # one outer product v v^dagger per eigenvector column
            return vectors[:, :, None, :] * vectors[:, None, :, :].conj()

        assert np.max(np.abs(projectors(analytic) - projectors(numeric))) <= 1e-10

    def test_dark_state_annihilated(self):
        g1, rddi = np.random.default_rng(22).uniform(0.0, 1.0, size=(200, 2)).T
        _, dark = cli._spectrum_deviations(ModelParams(g1=g1, rddi=rddi))
        assert np.all(dark <= 1e-12 * np.maximum(g1, rddi))

    @settings(max_examples=60)
    @given(GRID)
    def test_grid_rows_equal_one_model_calls_bit_for_bit(self, couplings):
        g1, rddi = np.array(couplings).T
        grid = analytic_spectrum(ModelParams(g1=g1, rddi=rddi))
        for k, one in enumerate(analytic_spectrum(ModelParams(g1=a, rddi=b)) for a, b in couplings):
            assert type(one.omega) is float and np.float64(one.omega).tobytes() == grid.omega[k].tobytes()
            for name in ("dark", "bright_plus", "bright_minus"):
                assert getattr(one, name).shape == (3,) and not getattr(grid, name).flags.writeable
                assert getattr(one, name).tobytes() == getattr(grid, name)[k].tobytes()

    @settings(max_examples=30)
    @given(GRID, st.integers(min_value=0), st.sampled_from(["g2", "zero", "inf"]), COUPLING.filter(bool))
    def test_one_bad_row_raises_its_own_error(self, couplings, where, bad, g2):
        g1, rddi = np.array(couplings).T
        g2s, k = np.zeros_like(g1), where % len(couplings)
        if bad == "g2":
            g2s[k] = g2
        else:
            g1[k] = rddi[k] = 0.0 if bad == "zero" else 1.5e308
        with pytest.raises(CavityPairError) as alone:
            analytic_spectrum(ModelParams(g1=float(g1[k]), g2=float(g2s[k]), rddi=float(rddi[k])))
        with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
            analytic_spectrum(ModelParams(g1=g1, g2=g2s, rddi=rddi))

    def test_triple_orthonormal(self):
        s = analytic_spectrum(ModelParams(g1=0.8, rddi=0.33))
        basis = np.column_stack([s.bright_minus, s.dark, s.bright_plus])
        assert np.max(np.abs(basis.T @ basis - np.eye(3))) <= 1e-12


class TestSpectrumSymmetry:
    """Eigenvalues come in +/- pairs around the zero mode.

    This holds exactly for g2 = 0 (any Gamma) and for Gamma = 0 (any g2),
    and survives to 1e-12 for the e^-25-suppressed g2 the default geometry
    produces.  It is not a property of arbitrary (g1, g2, Gamma): the trace
    is zero but the symmetric triple splits once all three couplings are
    comparable.
    """

    def test_symmetric_without_g2(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g1, rddi = rng.uniform(0.01, 1.0, size=2)
            e = hermitian_eigendecompose(
                build_single_excitation_h(ModelParams(g1=g1, rddi=rddi))).eigenvalues
            assert abs(e[0] + e[2]) <= 1e-12 and abs(e[1]) <= 1e-12

    def test_symmetric_without_rddi(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            g1, g2 = rng.uniform(0.01, 1.0, size=2)
            e = hermitian_eigendecompose(
                build_single_excitation_h(ModelParams(g1=g1, g2=g2))).eigenvalues
            assert abs(e[0] + e[2]) <= 1e-12 and abs(e[1]) <= 1e-12

    def test_symmetric_at_suppressed_g2(self):
        e = hermitian_eigendecompose(build_single_excitation_h(
            ModelParams(g1=0.018315638888734179, g2=1.3887943864964021e-11,
                        rddi=2.5e-4))).eigenvalues
        assert abs(e[0] + e[2]) <= 1e-12


class TestEffectiveH:
    def test_chi_zero_case(self):
        h = build_effective_h(ModelParams(g1=1.0))
        np.testing.assert_array_equal(h, np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex))

    def test_chi_value(self):
        h = build_effective_h(ModelParams(g1=1.0, rddi=0.1))
        chi = 0.028284271247461905
        assert h[1, 1] == pytest.approx(chi, abs=1e-15)
        assert h[2, 2] == pytest.approx(-chi, abs=1e-15)
        assert h[0, 2] == 0.0 and h[1, 2] == 0.0

    def test_never_populates_atom2(self):
        params = ModelParams(g1=1.0, rddi=0.4)
        decomp = hermitian_eigendecompose(build_effective_h(params))
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        out = evolve_spectral(decomp, psi0, np.linspace(0.0, 50.0, 501))
        assert np.max(np.abs(out[:, 2])) <= 1e-12

    def test_rejects_zero_g1(self):
        with pytest.raises(ZeroCoupling):
            build_effective_h(ModelParams(g1=0.0, rddi=0.5))
