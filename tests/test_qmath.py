import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitypair import (
    DimensionMismatch,
    InitialState,
    InvalidStep,
    ModelParams,
    NoConvergence,
    NonHermitianInput,
    ParameterError,
    UnnormalizedState,
    evolve,
    evolve_spectral,
    hermitian_eigendecompose,
    hermiticity_defect,
    reduced_density,
    rk4_schrodinger,
    wootters_concurrence,
)

OMEGA = 1.118033988749895  # sqrt(1 + 0.25)
T_PEAK = 1.8732839282775269  # 2 pi / (3 Omega)


def h_model(g1, rddi, g2=0.0):
    return np.array([[0.0, g1, g2], [g1, 0.0, rddi], [g2, rddi, 0.0]], dtype=complex)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


class TestEigendecompose:
    def test_identity(self):
        decomp = hermitian_eigendecompose(np.eye(3))
        np.testing.assert_allclose(decomp.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)

    def test_vacuum_rabi_doublet(self):
        decomp = hermitian_eigendecompose(h_model(1.0, 0.0))
        np.testing.assert_allclose(decomp.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-14)

    def test_split_doublet(self):
        decomp = hermitian_eigendecompose(h_model(1.0, 0.5))
        np.testing.assert_allclose(decomp.eigenvalues, [-OMEGA, 0.0, OMEGA], atol=1e-12)

    def test_contract_on_random_matrices(self):
        # residual and orthonormality bounds on 10^3 random 3x3 and 4x4
        rng = np.random.default_rng(11)
        for k in range(1000):
            m = random_hermitian(rng, 3 + (k % 2))
            decomp = hermitian_eigendecompose(m)
            n = m.shape[0]
            scale = np.max(np.abs(m))
            recon = (decomp.eigenvectors * decomp.eigenvalues) @ decomp.eigenvectors.conj().T
            assert np.max(np.abs(m - recon)) <= 1e-12 * scale
            gram = decomp.eigenvectors.conj().T @ decomp.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
            assert np.all(np.diff(decomp.eigenvalues) >= 0.0)

    def test_deterministic(self):
        m = random_hermitian(np.random.default_rng(5), 4)
        a = hermitian_eigendecompose(m)
        b = hermitian_eigendecompose(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert hermiticity_defect(m) == 1.0
        with pytest.raises(NonHermitianInput):
            hermitian_eigendecompose(m)

    def test_defect_of_a_stack_is_per_matrix(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = 1.0
        stack[2, 1, 0] = 2j
        defect = hermiticity_defect(stack)
        assert isinstance(defect, np.ndarray)
        np.testing.assert_array_equal(defect, [0.0, 1.0, 2.0])
        assert isinstance(hermiticity_defect(stack[2]), float)

    def test_rejects_non_square_and_oversized(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eigendecompose(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            hermitian_eigendecompose(np.eye(65))

    def test_real_input_gives_real_eigenvectors(self):
        h = h_model(1.0, 0.5, 0.1).real
        decomp = hermitian_eigendecompose(h)
        assert decomp.eigenvalues.dtype == np.float64
        assert decomp.eigenvectors.dtype == np.float64
        complex_decomp = hermitian_eigendecompose(h.astype(complex))
        assert complex_decomp.eigenvectors.dtype == np.complex128
        np.testing.assert_allclose(decomp.eigenvalues, complex_decomp.eigenvalues, rtol=0.0, atol=1e-15)

    def test_results_read_only(self):
        decomp = hermitian_eigendecompose(h_model(1.0, 0.5))
        with pytest.raises(ValueError):
            decomp.eigenvalues[0] = 0.0

    def test_backend_failure_is_no_convergence(self, monkeypatch):
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NoConvergence, match="^eigensolver failed: Eigenvalues did not converge$"):
            hermitian_eigendecompose(h_model(1.0, 0.5))


class TestEvolveSpectral:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_hermitian(rng, 3)
            psi0 = random_state(rng, 3)
            out = evolve_spectral(hermitian_eigendecompose(m), psi0, 0.0)
            assert np.max(np.abs(out - psi0)) <= 1e-14

    def test_closed_form_amplitudes_at_peak_time(self):
        decomp = hermitian_eigendecompose(h_model(1.0, 0.5))
        out = evolve_spectral(decomp, np.array([1.0, 0.0, 0.0]), T_PEAK)
        expected = np.array([-0.2, -0.7745966692414834j, -0.6])
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_zero_mode_is_stationary(self):
        decomp = hermitian_eigendecompose(h_model(1.0, 0.5))
        dark = np.array([0.5, 0.0, -1.0]) / OMEGA
        for t in (0.0, 1.7, 40.0):
            out = evolve_spectral(decomp, dark, t)
            assert np.max(np.abs(out - dark)) <= 1e-12

    def test_norm_conservation(self):
        rng = np.random.default_rng(3)
        decomp = hermitian_eigendecompose(random_hermitian(rng, 4))
        psi0 = random_state(rng, 4)
        out = evolve_spectral(decomp, psi0, rng.uniform(0.0, 100.0, size=200))
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            decomp = hermitian_eigendecompose(random_hermitian(rng, 3))
            psi0 = random_state(rng, 3)
            t1, t2 = rng.uniform(0.0, 10.0, size=2)
            direct = evolve_spectral(decomp, psi0, t1 + t2)
            chained = evolve_spectral(decomp, evolve_spectral(decomp, psi0, t1), t2)
            assert np.max(np.abs(direct - chained)) <= 1e-11

    def test_time_array_matches_scalar_calls(self):
        decomp = hermitian_eigendecompose(h_model(0.7, 0.2))
        psi0 = np.array([0.6, 0.8j, 0.0])
        grid = np.array([0.0, 0.5, 2.5])
        batch = evolve_spectral(decomp, psi0, grid)
        for row, t in zip(batch, grid):
            assert np.max(np.abs(row - evolve_spectral(decomp, psi0, t))) <= 1e-15

    def test_input_validation(self):
        decomp = hermitian_eigendecompose(h_model(1.0, 0.5))
        with pytest.raises(UnnormalizedState):
            evolve_spectral(decomp, np.array([1.0, 1.0, 0.0]), 1.0)
        with pytest.raises(DimensionMismatch):
            evolve_spectral(decomp, np.array([1.0, 0.0]), 1.0)

    def test_two_dimensional_state_rejected(self):
        decomp = hermitian_eigendecompose(h_model(1.0, 0.5))
        with pytest.raises(DimensionMismatch, match=r"^expected a 1-d state vector, got shape \(1, 3\)$"):
            evolve_spectral(decomp, np.array([[1.0, 0.0, 0.0]]), 1.0)

    def test_nan_state_rejected(self):
        psi = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(UnnormalizedState):
            evolve_spectral(hermitian_eigendecompose(np.eye(3)), psi, 1.0)
        with pytest.raises(UnnormalizedState):
            reduced_density(psi)


LOG_COUPLING = st.tuples(st.floats(min_value=-300.0, max_value=300.0), st.sampled_from((-1.0, 1.0))).map(
    lambda p: p[1] * 10.0 ** p[0])


class TestStack:
    @settings(max_examples=60)
    @given(
        couplings=st.lists(st.tuples(LOG_COUPLING, LOG_COUPLING, LOG_COUPLING), min_size=1, max_size=8),
        times=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6),
    )
    def test_stack_matches_per_matrix_and_keeps_norm(self, couplings, times):
        stack = np.array([h_model(g1, rddi, g2) for g1, g2, rddi in couplings])
        psi0 = np.array([0.6, 0.8j, 0.0])
        batch = evolve_spectral(hermitian_eigendecompose(stack), psi0, times)
        assert batch.shape == (len(couplings), len(times), 3)
        for h, rows in zip(stack, batch):
            single = evolve_spectral(hermitian_eigendecompose(h), psi0, times)
            assert np.max(np.abs(rows - single)) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(batch, axis=-1) - 1.0)) <= 1e-12

    def test_per_member_time_grids_match_single_calls(self):
        stack = np.array([h_model(1.0, 0.5), h_model(0.3, 0.2, 0.1), h_model(2.0, 1e-3, 0.7)])
        times = np.array([[0.0, 0.5, 3.0], [1.0, 2.0, 40.0], [T_PEAK, 7.0, 100.0]])
        psi0 = np.array([1.0, 0.0, 0.0])
        batch = evolve_spectral(hermitian_eigendecompose(stack), psi0, times)
        assert batch.shape == (3, 3, 3)
        for h, t, rows in zip(stack, times, batch):
            single = evolve_spectral(hermitian_eigendecompose(h), psi0, t)
            assert np.max(np.abs(rows - single)) <= 1e-15

    def test_scalar_time_drops_time_axis(self):
        stack = np.array([h_model(1.0, 0.5), h_model(0.3, 0.2, 0.1)])
        out = evolve_spectral(hermitian_eigendecompose(stack), np.array([1.0, 0.0, 0.0]), T_PEAK)
        assert out.shape == (2, 3)

    def test_one_non_hermitian_member_rejected(self):
        stack = np.array([h_model(1.0, 0.5), h_model(1.0, 0.5), h_model(1e-6, 1e-6)])
        stack[2, 0, 1] += 1e-13  # beyond 1e-12 of its own scale, within 1e-12 of the others'
        with pytest.raises(NonHermitianInput, match="matrix 2"):
            hermitian_eigendecompose(stack)


def _exp_reference(h, psi0, t):
    """psi(t) from complex eigh of H cast to complex and np.exp phases, time grid t."""
    e, v = np.linalg.eigh(h.astype(complex))
    return (np.exp(-1j * np.multiply.outer(t, e)) * (v.conj().T @ psi0)) @ v.T


class TestRealKernel:
    @settings(max_examples=60)
    @given(
        couplings=st.lists(st.tuples(LOG_COUPLING, LOG_COUPLING, LOG_COUPLING), min_size=1, max_size=6),
        taus=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=5),
    )
    def test_evolve_matches_complex_exp_reference(self, couplings, taus):
        # times in units of each member's largest |coupling|, so |E t| stays <= ~200
        g1, g2, rddi = (np.array(column) for column in zip(*couplings))
        times = np.array(taus) / np.abs(np.array(couplings)).max(axis=1)[:, None]
        init = InitialState(alpha=0.6, beta=0.8j)
        stacked = evolve(ModelParams(g1=g1, g2=g2, rddi=rddi), init, times)
        assert stacked.shape == (len(couplings), len(taus), 3)
        for k in range(len(couplings)):
            params = ModelParams(g1=g1[k], g2=g2[k], rddi=rddi[k])
            want = _exp_reference(h_model(g1[k], rddi[k], g2[k]), init.vector(), times[k])
            assert np.max(np.abs(stacked[k] - want)) <= 1e-12
            scalar = evolve(params, init, times[k, -1])
            assert scalar.shape == (3,)
            assert np.max(np.abs(scalar - want[-1])) <= 1e-12


class TestChecksNameTheMatrix:
    @staticmethod
    def _corrupt_eigh(monkeypatch, corrupt):
        true_eigh = np.linalg.eigh

        def eigh(m):
            eigenvalues, eigenvectors = true_eigh(m)
            corrupt(eigenvalues, eigenvectors)
            return eigenvalues, eigenvectors

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    def test_non_hermitian_real_member(self):
        stack = np.array([h_model(1.0, 0.5).real] * 3)
        stack[1, 2, 0] += 1e-9
        assert stack.dtype == np.float64
        with pytest.raises(NonHermitianInput, match=r"Hermiticity defect .* \(matrix 1\)"):
            hermitian_eigendecompose(stack)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_member_rejected(self, dtype):
        stack = np.array([h_model(1.0, 0.5).real, h_model(0.3, 0.2, 0.1).real]).astype(dtype)
        stack[1, 0, 1] = stack[1, 1, 0] = np.nan
        with pytest.raises(NonHermitianInput, match=r"\(matrix 1\)"), np.errstate(invalid="ignore"):
            hermitian_eigendecompose(stack)

    def test_bad_residual(self, monkeypatch):
        def corrupt(eigenvalues, eigenvectors):
            eigenvalues[2, 0] *= 1.0 + 1e-9

        self._corrupt_eigh(monkeypatch, corrupt)
        stack = np.array([h_model(1.0, 0.5).real, h_model(0.3, 0.2, 0.1).real, h_model(2.0, 1e-3).real])
        with pytest.raises(NoConvergence, match=r"reconstruction residual .* \(matrix 2\)"):
            hermitian_eigendecompose(stack)

    def test_bad_orthonormality(self, monkeypatch):
        # stretch the dark mode (eigenvalue ~1e-17): V diag(E) V^T moves by ~1e-20, V^T V by 2e-3
        def corrupt(eigenvalues, eigenvectors):
            eigenvectors[1, :, 1] *= 1.001

        self._corrupt_eigh(monkeypatch, corrupt)
        stack = np.array([h_model(1.0, 0.5).real, h_model(1.0, 0.5).real])
        with pytest.raises(NoConvergence, match=r"orthonormality defect .* \(matrix 1\)"):
            hermitian_eigendecompose(stack)


def peak_density():
    """Reduced two-atom state at the first concurrence peak: rank 2, so two eigenvalues are ~0."""
    return reduced_density(evolve(ModelParams(g1=1.0, rddi=0.5), InitialState(), T_PEAK))


class TestChecksOnOneMatrix:
    """The single-matrix path keeps every check, bound, error class and message of the stack path."""

    _corrupt_eigh = staticmethod(TestChecksNameTheMatrix._corrupt_eigh)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_hermitian(self, dtype):
        h = h_model(1.0, 0.5).real.astype(dtype)
        h[2, 0] += 1e-9
        with pytest.raises(NonHermitianInput) as info:
            hermitian_eigendecompose(h)
        assert str(info.value) == "Hermiticity defect 1.000e-09 exceeds 1.000e-12 (matrix 0)"
        with pytest.raises(NonHermitianInput, match=r"^Hermiticity defect 1\.000e-09 exceeds"):
            rk4_schrodinger(h, [1.0, 0.0, 0.0], 1.0, 0.1)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_rejected(self, dtype):
        h = h_model(1.0, 0.5).real.astype(dtype)
        h[0, 1] = h[1, 0] = np.nan
        with pytest.raises(NonHermitianInput) as info, np.errstate(invalid="ignore"):
            hermitian_eigendecompose(h)
        assert str(info.value) == "Hermiticity defect nan exceeds nan (matrix 0)"

    def test_bad_residual(self, monkeypatch):
        def corrupt(eigenvalues, eigenvectors):
            eigenvalues[-1] *= 1.0 + 1e-9

        rho = peak_density()
        self._corrupt_eigh(monkeypatch, corrupt)
        with pytest.raises(NoConvergence, match=r"^reconstruction residual .* exceeds .* \(matrix 0\)$"):
            hermitian_eigendecompose(h_model(2.0, 1e-3).real)
        with pytest.raises(NoConvergence, match=r"^reconstruction residual .* \(matrix 0\)$"):
            evolve(ModelParams(g1=2.0, rddi=1e-3), InitialState(), 1.0)
        with pytest.raises(NoConvergence, match=r"^reconstruction residual .* \(matrix 0\)$"):
            wootters_concurrence(rho)

    def test_bad_orthonormality(self, monkeypatch):
        # stretch the dark mode (eigenvalue ~1e-17): V diag(E) V^T moves by ~1e-20, V^T V by 2e-3
        def corrupt(eigenvalues, eigenvectors):
            eigenvectors[:, 1] *= 1.001

        self._corrupt_eigh(monkeypatch, corrupt)
        with pytest.raises(NoConvergence) as info:
            hermitian_eigendecompose(h_model(1.0, 0.5).real)
        assert str(info.value) == "eigenvector orthonormality defect 2.001e-03 exceeds 1.000e-12 (matrix 0)"

    def test_bad_orthonormality_density_matrix(self, monkeypatch):
        # the reduced state has rank 2: stretching a null vector moves V diag(E) V^dag by ~1e-20
        def corrupt(eigenvalues, eigenvectors):
            eigenvectors[:, 0] *= 1.001

        rho = peak_density()
        self._corrupt_eigh(monkeypatch, corrupt)
        with pytest.raises(NoConvergence) as info:
            wootters_concurrence(rho)
        assert str(info.value) == "eigenvector orthonormality defect 2.001e-03 exceeds 1.000e-12 (matrix 0)"

    def test_unnormalized_state(self):
        decomp = hermitian_eigendecompose(h_model(1.0, 0.5).real)
        with pytest.raises(UnnormalizedState) as info:
            evolve_spectral(decomp, [1.1, 0.0, 0.0], 1.0)
        assert str(info.value) == "|psi| = 1.1 deviates from 1 beyond 1e-10"
        with pytest.raises(UnnormalizedState, match=r"^\|psi\| = nan deviates"):
            evolve_spectral(decomp, [np.nan, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize("t", [np.inf, np.nan, [0.0, 1e308]])
    def test_non_finite_phase(self, t):
        decomp = hermitian_eigendecompose(h_model(1e10, 0.5).real)
        with pytest.raises(ParameterError, match=r"^phase max\|E\| max\|t\| = (inf|nan) is not finite$"):
            evolve_spectral(decomp, [1.0, 0.0, 0.0], t)

    def test_per_member_times_judged_per_member(self):
        # member 0 has a huge spectrum and short times, member 1 the reverse: no phase overflows
        decomp = hermitian_eigendecompose(np.array([h_model(1e300, 0.0).real, h_model(1e-15, 0.0).real]))
        out = evolve_spectral(decomp, [1.0, 0.0, 0.0], np.array([[1e-300], [1e15]]))
        assert np.all(np.isfinite(out))
        with pytest.raises(ParameterError, match="is not finite"):
            evolve_spectral(decomp, [1.0, 0.0, 0.0], np.array([[1e10], [1e15]]))


class TestRk4:
    def test_zero_horizon_returns_initial_state(self):
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        out = rk4_schrodinger(h_model(1.0, 0.5), psi0, 0.0, 1e-3)
        assert np.array_equal(out, psi0)

    def test_zero_hamiltonian_is_static(self):
        psi0 = np.array([0.6, 0.8, 0.0], dtype=complex)
        out = rk4_schrodinger(np.zeros((3, 3)), psi0, 5.0, 1e-2)
        assert np.max(np.abs(out - psi0)) <= 1e-14

    def test_matches_spectral_route(self):
        # dt = 1e-3/Omega over t in [0, 10/Omega], entrywise 1e-8
        rng = np.random.default_rng(6)
        for _ in range(5):
            g1, rddi = rng.uniform(0.1, 1.0, size=2)
            h = h_model(g1, rddi)
            omega = math.hypot(g1, rddi)
            psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
            t_final = 10.0 / omega
            approx = rk4_schrodinger(h, psi0, t_final, 1e-3 / omega)
            exact = evolve_spectral(hermitian_eigendecompose(h), psi0, t_final)
            assert np.max(np.abs(approx - exact)) <= 1e-8

    def test_peak_time_agreement(self):
        h = h_model(1.0, 0.5)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        approx = rk4_schrodinger(h, psi0, T_PEAK, 1e-3)
        exact = evolve_spectral(hermitian_eigendecompose(h), psi0, T_PEAK)
        assert np.max(np.abs(approx - exact)) <= 1e-8

    def test_partial_final_step(self):
        h = h_model(1.0, 0.0)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        # 0.1234 is not a multiple of dt; remainder step must land exactly
        approx = rk4_schrodinger(h, psi0, 0.1234, 1e-2)
        exact = evolve_spectral(hermitian_eigendecompose(h), psi0, 0.1234)
        assert np.max(np.abs(approx - exact)) <= 1e-10

    def test_invalid_steps(self):
        h = h_model(1.0, 0.5)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(InvalidStep):
            rk4_schrodinger(h, psi0, 1.0, 0.0)
        with pytest.raises(InvalidStep):
            rk4_schrodinger(h, psi0, 1.0, -1e-3)
        with pytest.raises(InvalidStep):
            rk4_schrodinger(h, psi0, 1.0, 2.0)
        with pytest.raises(InvalidStep):
            rk4_schrodinger(h, psi0, -1.0, 1e-3)

    @pytest.mark.parametrize("t_final, dt", [
        (1.0, 1e-320), (np.float64(1.0), np.float64(1e-320)), (math.nan, 1e-3), (math.inf, 1e-3), (1.0, math.nan),
    ])
    def test_non_finite_step_count(self, t_final, dt):
        h = h_model(1.0, 0.5)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        with np.errstate(all="raise"), pytest.raises(InvalidStep, match="t_final / dt = .* is not finite"):
            rk4_schrodinger(h, psi0, t_final, dt)

    def test_rejects_a_stack(self):
        h = np.stack([h_model(1.0, 0.5), h_model(0.5, 1.0)])
        with pytest.raises(DimensionMismatch, match=r"^expected a single matrix, got shape \(2, 3, 3\)$"):
            rk4_schrodinger(h, np.array([1.0, 0.0, 0.0]), 1.0, 1e-2)

    def test_norm_drift_is_tiny_but_nonzero_diagnostic(self):
        h = h_model(1.0, 0.5)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        out = rk4_schrodinger(h, psi0, 10.0, 1e-3)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_memory_layout_does_not_matter(self):
        # a Fortran-ordered H, complex or real, gives the state of the C-ordered one
        h = h_model(1.0, 0.5, 0.3) + np.diag([0.2, -0.1, 0.4])
        psi0 = np.array([0.6, 0.8j, 0.0])
        expected = rk4_schrodinger(h, psi0, 2.05, 1e-2)
        for layout in (np.asfortranarray(h), np.asfortranarray(h.real)):
            assert not layout.flags.c_contiguous
            out = rk4_schrodinger(layout, psi0, 2.05, 1e-2)
            assert np.max(np.abs(out - expected)) <= 1e-14
