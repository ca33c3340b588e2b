import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitypair import (
    InitialState,
    InvalidDensityMatrix,
    ModelParams,
    NonHermitianInput,
    PatternMismatch,
    evolve,
    reduced_density,
    wootters_concurrence,
    xstate_concurrence,
)
from cavitypair import cli, entanglement, qmath

PEAK_STATE = np.array([-0.2, -0.7745966692414834j, -0.6])
PEAK_CONCURRENCE = 0.9295160030897797  # 2 * 0.6 * 0.7745966692414834

SIGNED_LOG_COUPLING = st.tuples(st.floats(min_value=-300.0, max_value=300.0), st.sampled_from((-1.0, 1.0))).map(
    lambda p: p[1] * 10.0 ** p[0])


def single_coherence_rho(populations, coherence):
    rho = np.diag(np.asarray(populations, dtype=complex))
    rho[1, 2] = coherence
    rho[2, 1] = np.conj(coherence)
    return rho


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestWootters:
    def test_bell_state(self):
        rho = single_coherence_rho([0.0, 0.5, 0.5, 0.0], 0.5)
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_peak_state_density(self):
        rho = reduced_density(PEAK_STATE)
        assert wootters_concurrence(rho) == pytest.approx(PEAK_CONCURRENCE, abs=1e-10)

    def test_range_clamped(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.real(np.trace(rho))
            assert 0.0 <= wootters_concurrence(rho) <= 1.0

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.real(np.trace(rho))
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(wootters_concurrence(rotated) - wootters_concurrence(rho)) <= 1e-10

    def test_pure_state_identity(self):
        # for |psi> = (a,b,c,d) the concurrence is 2|ad - bc|
        rng = np.random.default_rng(33)
        for _ in range(100):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            expected = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
            assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.3
        with pytest.raises(InvalidDensityMatrix):
            wootters_concurrence(rho)

    def test_defect_between_the_two_bounds_raises_non_hermitian(self):
        # max|rho_ij| = 1/4: a defect of 6e-13 passes the absolute 1e-12 bound
        # but not the relative 1e-12 * 1/4, and the trace is exactly 1.
        rho = np.eye(4, dtype=complex) / 4.0
        rho[1, 2] = 6e-13
        with pytest.raises(NonHermitianInput) as info:
            wootters_concurrence(rho)
        assert str(info.value) == "Hermiticity defect 6.000e-13 exceeds 2.500e-13 (matrix 0)"

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityMatrix):
            wootters_concurrence(np.eye(4, dtype=complex))

    def test_rejects_indefinite_matrix(self):
        rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(InvalidDensityMatrix):
            wootters_concurrence(rho)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidDensityMatrix):
            wootters_concurrence(np.eye(3, dtype=complex) / 3.0)


class TestXstate:
    def test_bell_like(self):
        rho = single_coherence_rho([0.0, 0.5, 0.5, 0.0], 0.5)
        assert xstate_concurrence(rho) == pytest.approx(1.0, abs=1e-15)

    def test_peak_state(self):
        rho = reduced_density(PEAK_STATE)
        assert xstate_concurrence(rho) == pytest.approx(PEAK_CONCURRENCE, abs=1e-12)

    def test_no_coherence(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0
        assert xstate_concurrence(rho) == 0.0

    def test_rejects_off_pattern(self):
        rho = single_coherence_rho([0.1, 0.4, 0.4, 0.1], 0.3)
        rho[0, 1] = 1e-6
        rho[1, 0] = 1e-6
        with pytest.raises(PatternMismatch):
            xstate_concurrence(rho)

    def test_rejects_dominant_outer_populations(self):
        rho = single_coherence_rho([0.5, 0.2, 0.2, 0.1], 0.01)
        with pytest.raises(PatternMismatch):
            xstate_concurrence(rho)

    def test_rejects_indefinite_coherence_block(self):
        rho = single_coherence_rho([0.3, 0.2, 0.2, 0.3], 0.25)
        with pytest.raises(InvalidDensityMatrix):
            xstate_concurrence(rho)

    def test_rejects_negative_population(self):
        rho = single_coherence_rho([-1e-6, 0.5, 0.5 + 1e-6, 0.0], 0.0)
        with pytest.raises(InvalidDensityMatrix) as info:
            xstate_concurrence(rho)
        assert str(info.value) == "-min population 1.000e-06 exceeds 1.000e-10 (matrix 0)"


class TestFastPathAgreement:
    def test_on_pipeline_states(self):
        rng = np.random.default_rng(34)
        g1, rddi, t = np.array([(*rng.uniform(0.05, 1.0, size=2), rng.uniform(0.0, 30.0)) for _ in range(300)]).T
        assert cli._route_deviations(ModelParams(g1=g1, rddi=rddi), [InitialState()] * 300, t).max() <= 1e-10

    def test_with_general_initial_state(self):
        rng = np.random.default_rng(35)

        def draw():
            g1, rddi = rng.uniform(0.05, 1.0, size=2)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            return g1, rddi, InitialState(alpha=np.cos(angle), beta=1j * np.sin(angle)), rng.uniform(0.0, 10.0)

        g1, rddi, inits, t = zip(*(draw() for _ in range(100)))
        assert cli._route_deviations(ModelParams(g1=g1, rddi=rddi), inits, t).max() <= 1e-10

    @settings(max_examples=100)
    @given(g1=SIGNED_LOG_COUPLING, g2=st.one_of(st.just(0.0), SIGNED_LOG_COUPLING), rddi=SIGNED_LOG_COUPLING,
           mix=st.floats(min_value=0.0, max_value=1.0), phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
           tau=st.floats(min_value=0.0, max_value=50.0))
    def test_over_the_whole_domain(self, g1, g2, rddi, mix, phase, tau):
        # Times in units of the largest |coupling|, so every phase E t stays below about 100.
        beta = math.sqrt(mix) * complex(math.cos(phase), math.sin(phase))
        init = InitialState(alpha=math.sqrt(1.0 - mix), beta=beta)
        psi = evolve(ModelParams(g1=g1, g2=g2, rddi=rddi), init, tau / max(abs(g1), abs(g2), abs(rddi)))
        rho = reduced_density(psi)
        general, fast = wootters_concurrence(rho), xstate_concurrence(rho)
        assert 0.0 <= general <= 1.0 and 0.0 <= fast <= 1.0
        assert abs(general - fast) <= 1e-10


class TestWoottersChecks:
    """Each check of the 4x4 path raises its own class and message, NaN input included.

    The eigensolver's residual and orthonormality checks on this path are in test_qmath, next to
    the helper that corrupts the eigensolver.
    """

    def test_non_hermitian(self):
        rho = reduced_density(PEAK_STATE)
        rho[0, 3] = 1e-9
        with pytest.raises(InvalidDensityMatrix) as info:
            wootters_concurrence(rho)
        assert str(info.value) == "Hermiticity defect 1.000e-09 exceeds 1.000e-12 (matrix 0)"

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (0, 3)])
    @pytest.mark.parametrize("concurrence", [wootters_concurrence, xstate_concurrence])
    def test_nan_rejected(self, entry, concurrence):
        rho = reduced_density(PEAK_STATE)
        rho[entry] = np.nan
        with pytest.raises(InvalidDensityMatrix) as info:
            concurrence(rho)
        assert str(info.value) == "Hermiticity defect nan exceeds 1.000e-12 (matrix 0)"

    def test_unnormalized(self):
        rho = 1.1 * reduced_density(PEAK_STATE)
        with pytest.raises(InvalidDensityMatrix) as info:
            wootters_concurrence(rho)
        assert str(info.value) == "|trace - 1| 1.000e-01 exceeds 1.000e-10 (matrix 0)"

    def test_one_hermiticity_pass_per_call(self, monkeypatch):
        # The absolute bound and the eigensolver's relative bound judge one measurement.
        calls, defect = [], qmath.hermiticity_defect

        def counted(m):
            calls.append(m)
            return defect(m)

        monkeypatch.setattr(entanglement, "hermiticity_defect", counted)
        monkeypatch.setattr(qmath, "hermiticity_defect", counted)
        assert wootters_concurrence(reduced_density(PEAK_STATE)) == pytest.approx(PEAK_CONCURRENCE, abs=1e-12)
        assert len(calls) == 1

    def test_concurrence_beyond_clamp_slack(self, monkeypatch):
        # No density matrix gives these singular values: an excess over 1 beyond rounding is refused.
        monkeypatch.setattr(np.linalg, "svd", lambda k, compute_uv: np.array([1.5, 0.0, 0.0, 0.0]))
        with pytest.raises(InvalidDensityMatrix) as info:
            wootters_concurrence(reduced_density(PEAK_STATE))
        assert str(info.value) == "concurrence 1.500e+00 exceeds 1.000e+00 (matrix 0)"


def _clamped(excess, monkeypatch):
    # No density matrix gives these singular values: the excess over 1 stands in for rounding.
    monkeypatch.setattr(np.linalg, "svd", lambda k, compute_uv: np.array([1.0 + excess, 0.0, 0.0, 0.0]))
    return reduced_density(PEAK_STATE)


def _non_hermitian(defect, _):
    # An imaginary part of a diagonal entry adds twice itself to max|rho - rho^dagger|, exactly.
    return single_coherence_rho([0.125 + 0.5j * defect, 0.375, 0.375, 0.125], 0.25)


def _off_pattern(magnitude, _):
    rho = single_coherence_rho([0.125, 0.375, 0.375, 0.125], 0.25)
    rho[0, 3] = rho[3, 0] = magnitude
    return rho


def _negative_population(e, _):
    return single_coherence_rho([-e, 0.375, 0.375, 0.25 + e], 0.25)


class TestEachBound:
    """Every two-qubit tolerance check, judged by ``qmath._require_within``: just past its bound it raises its
    class with the judge's message, and just inside it the call returns a concurrence."""

    @pytest.mark.parametrize("concurrence, make, past, inside, error, message", [
        pytest.param(xstate_concurrence, _non_hermitian, 1.01e-12, 1e-12, InvalidDensityMatrix,
                     "Hermiticity defect 1.010e-12 exceeds 1.000e-12 (matrix 0)", id="hermiticity"),
        pytest.param(wootters_concurrence, lambda e, _: single_coherence_rho([0.125 + e, 0.375, 0.375, 0.125], 0.25),
                     1.01e-10, 0.99e-10, InvalidDensityMatrix,
                     "|trace - 1| 1.010e-10 exceeds 1.000e-10 (matrix 0)", id="trace"),
        pytest.param(wootters_concurrence, _negative_population, 1.01e-10, 0.99e-10, InvalidDensityMatrix,
                     "-min eigenvalue 1.010e-10 exceeds 1.000e-10 (matrix 0)", id="negative-eigenvalue"),
        pytest.param(wootters_concurrence, _clamped, 1.01e-10, 0.99e-10, InvalidDensityMatrix,
                     "concurrence 1.000e+00 exceeds 1.000e+00 (matrix 0)", id="clamp-slack"),
        pytest.param(xstate_concurrence, _off_pattern, 1.01e-12, 0.99e-12, PatternMismatch,
                     "off-pattern |rho_ij| 1.010e-12 exceeds 1.000e-12 (matrix 0)", id="off-pattern"),
        pytest.param(xstate_concurrence, _negative_population, 1.01e-10, 0.99e-10, InvalidDensityMatrix,
                     "-min population 1.010e-10 exceeds 1.000e-10 (matrix 0)", id="negative-population"),
        pytest.param(xstate_concurrence, lambda e, _: single_coherence_rho([0.125, 0.375, 0.375, 0.125], 0.375 + e),
                     1.01e-10, 0.99e-10, InvalidDensityMatrix,
                     "-min coherence-block eigenvalue 1.010e-10 exceeds 1.000e-10 (matrix 0)", id="coherence-block"),
        pytest.param(xstate_concurrence, lambda p, _: single_coherence_rho([p, 0.375, 0.375, 0.25 - p], 0.0),
                     4.04e-12, 3.96e-12, PatternMismatch,
                     "outer population product 1.010e-12 exceeds 1.000e-12 (matrix 0)", id="outer-populations"),
    ])
    def test_just_past_raises_and_just_inside_passes(self, monkeypatch, concurrence, make, past, inside, error,
                                                     message):
        with pytest.raises(error) as info:
            concurrence(make(past, monkeypatch))
        assert type(info.value) is error and str(info.value) == message
        assert 0.0 <= concurrence(make(inside, monkeypatch)) <= 1.0
