"""Small dense linear algebra for the single-excitation problem.

Provides the Hermitian eigendecomposition used throughout the package (real
symmetric input, such as the model Hamiltonian, stays real and runs the real
solver), the spectral propagator
psi(t) = sum_i exp(-i E_i t) <phi_i|psi0> |phi_i>, and a fixed-step
Runge-Kutta integrator that serves as an independent cross-check of the
spectral route.  hbar = 1 everywhere; frequencies are dimensionless
(units of the maximum coupling g0) and times carry units 1/g0.

One matrix, and one matrix at a scalar time, take their own branch, selected
by the input's ``ndim``: ``ndarray.dot`` in place of the stacked ``@``, with
the same bits as a stack of one.

All operations are pure functions of immutable inputs and are safe to call
from parallel workers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidStep,
    NoConvergence,
    NonHermitianInput,
    ParameterError,
    UnnormalizedState,
)

# Structural tolerances for double precision at dimension <= 4.
HERMITICITY_RTOL = 1e-12
RESIDUAL_RTOL = 1e-12
ORTHONORMALITY_TOL = 1e-12
NORM_TOL = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real eigenvalues (ascending) with orthonormal eigenvector columns; a stack leads with its axis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _entry_max(m: np.ndarray):
    """max |m_ij| of a matrix as a float, or of each matrix of a stack as an array (0 for empty ones).

    NaN entries give NaN, so a NaN input fails every bound checked against it.
    """
    if m.ndim == 2:
        return _abs_max(m)
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def _abs_max(x: np.ndarray) -> float:
    """max |x| over every entry of an array (0 if empty), NaN if any entry is NaN."""
    if x.ndim == 0:
        return abs(float(x))
    return float(np.maximum.reduce(np.abs(x), axis=None, initial=0.0))


def _require_within(values, bounds, error, what: str) -> None:
    """Raise ``error`` for the first matrix of a stack whose value exceeds its bound (or is NaN).

    One matrix (float values) costs one Python comparison, a stack one array
    comparison; only a failure locates the matrix.
    """
    if isinstance(values, float):
        if values <= bounds:
            return
    elif (values <= bounds).all():
        return
    values, bounds = np.broadcast_arrays(values, bounds)
    i = np.flatnonzero(~(values <= bounds))[0]
    raise error(f"{what} {values.flat[i]:.3e} exceeds {bounds.flat[i]:.3e} (matrix {i})")


def _require_finite_phase(frequencies: np.ndarray, t: np.ndarray) -> None:
    """ParameterError unless every phase frequency * t is finite (NaN included).

    Judged once per call from max|frequency| * max|t|: rounding is monotone,
    so that product is finite exactly when every product of an entry pair is.
    Only when it is not, and each member of a stack has its own time row, is
    each member judged with its own maxima.
    """
    phase = _abs_max(frequencies) * _abs_max(t)
    if math.isfinite(phase):
        return
    if t.ndim == 2 and frequencies.ndim > 1:
        with np.errstate(over="ignore"):
            phases = (np.abs(frequencies).reshape(-1, frequencies.shape[-1]).max(axis=-1, initial=0.0)
                      * np.abs(t).max(axis=-1, initial=0.0))
        bad = ~np.isfinite(phases)
        if not bad.any():
            return
        phase = float(phases[bad][0])
    raise ParameterError(f"phase max|E| max|t| = {phase!r} is not finite")


def hermiticity_defect(m: np.ndarray):
    """max |m[i,j] - conj(m[j,i])|, the distance from Hermiticity: a float, or an array for a stack (one per matrix)."""
    m = np.asarray(m)
    return _entry_max(m - _dagger(m))


def _require_hermitian(m: np.ndarray, defect=None) -> tuple[np.ndarray, np.ndarray]:
    """A square matrix, or a stack of them, each Hermitian to 1e-12 of its own max|m_ij|.

    Real input stays real (float64), anything else becomes complex128.  Returns
    the matrix and the max|m_ij| of each member (a float for one matrix).
    ``defect`` is ``hermiticity_defect(m)`` when the caller has measured it
    already; otherwise it is measured here.
    """
    m = np.asarray(m)
    m = m.astype(complex if m.dtype.kind == "c" else float, copy=False)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {m.shape}")
    scale = _entry_max(m)
    if defect is None:
        defect = hermiticity_defect(m)
    _require_within(defect, HERMITICITY_RTOL * scale, NonHermitianInput, "Hermiticity defect")
    return m, scale


def _require_normalized(psi, dim: int | None = None) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d state vector, got shape {psi.shape}")
    if dim is not None and psi.shape[0] != dim:
        raise DimensionMismatch(f"state has dimension {psi.shape[0]}, expected {dim}")
    norm = math.sqrt(np.vdot(psi, psi).real)  # overflows to inf, never raises
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise UnnormalizedState(f"|psi| = {norm!r} deviates from 1 beyond {NORM_TOL:.0e}")
    return psi


def hermitian_eigendecompose(m: np.ndarray, *, _defect=None) -> SpectralDecomposition:
    """Eigendecompose a small Hermitian matrix, or a stack of them.

    Parameters
    ----------
    m : (n, n) or (k, n, n) array_like
        Hermitian matrix, or a stack of k such matrices.
        Hermiticity is checked per matrix against
        max|m - m^dagger| <= 1e-12 * max|m|.

    Returns
    -------
    SpectralDecomposition
        Eigenvalues ascending; eigenvector columns orthonormal, real for
        real input.  For each matrix the reconstruction residual
        ||m - V diag(E) V^dagger||_max is verified against 1e-12 * max|m|
        before returning.

    Raises
    ------
    NonHermitianInput
        If the Hermiticity tolerance is exceeded.
    NoConvergence
        If the backend fails or the residual/orthonormality bound is violated.

    ``_defect``, private, is ``hermiticity_defect(m)`` of one matrix that a
    caller has measured for its own bound, so that it is measured once.
    """
    m, scale = _require_hermitian(m, _defect)
    n = m.shape[-1]
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc

    product = np.ndarray.dot if m.ndim == 2 else np.matmul
    adjoint = _dagger(eigenvectors)
    residual = _entry_max(m - product(eigenvectors * eigenvalues[..., None, :], adjoint))
    floor = max(scale, 1e-300) if isinstance(scale, float) else np.maximum(scale, 1e-300)
    _require_within(residual, RESIDUAL_RTOL * floor, NoConvergence, "reconstruction residual")
    gram = product(adjoint, eigenvectors)
    gram.reshape(gram.shape[:-2] + (n * n,))[..., :: n + 1] -= 1.0  # V^dagger V - 1, in place
    _require_within(_entry_max(gram), ORTHONORMALITY_TOL, NoConvergence, "eigenvector orthonormality defect")

    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _phases(angle: np.ndarray) -> np.ndarray:
    """exp(-i angle) as cos(angle) - i sin(angle), written into one buffer: no complex exp; angle is overwritten."""
    phases = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=phases.real)
    np.negative(angle, out=angle)
    np.sin(angle, out=phases.imag)
    return phases


def evolve_spectral(decomp: SpectralDecomposition, psi0: np.ndarray, t) -> np.ndarray:
    """Propagate psi0 through the spectral representation of a Hamiltonian.

    Parameters
    ----------
    decomp : SpectralDecomposition
        Decomposition of the (Hermitian) generator, or of a stack of k.
    psi0 : (n,) array_like
        Normalized initial state (tolerance 1e-10), shared by the stack.
    t : float, (nt,) or (k, nt) array_like
        Time(s), units 1/g0; (k, nt) gives each member of a stack of k its
        own time grid.

    Returns
    -------
    np.ndarray
        psi(t) with shape (n,) for scalar t, else (nt, n); a stack puts its
        axis of length k in front.  The norm is conserved to 1e-12 for any t.

    Raises
    ------
    ParameterError
        If a phase E t is not finite (checked once, from max|E| max|t|).
    """
    psi0 = _require_normalized(psi0, decomp.dim)
    energies, vectors = decomp.eigenvalues, decomp.eigenvectors
    t_arr = np.asarray(t, dtype=float)
    _require_finite_phase(energies, t_arr)
    if t_arr.ndim == 0 and vectors.ndim == 2:  # one state of one matrix: two matrix-vector products
        return vectors.dot(_phases(t_arr * energies) * _dagger(vectors).dot(psi0))
    coeff = _dagger(vectors) @ psi0
    phases = _phases(np.atleast_1d(t_arr)[..., None] * energies[..., None, :])
    out = (phases * coeff[..., None, :]) @ vectors.swapaxes(-1, -2)
    return out[..., 0, :] if t_arr.ndim == 0 else out


def rk4_schrodinger(h: np.ndarray, psi0: np.ndarray, t_final: float, dt: float) -> np.ndarray:
    """Integrate d psi/dt = -i H psi with the classic fixed-step RK4 scheme.

    Independent of the spectral route; no renormalization is applied, so the
    norm drift is a usable accuracy diagnostic.  The final step is shortened
    when t_final is not an integer multiple of dt.  One RK4 step of this linear
    system is the matrix T(s) = sum_{k<=4} (-i H s)^k / k!, the RK4 stability
    function (Hairer, Norsett & Wanner I, sec. II.2); n steps are T(dt)^n,
    applied to psi by repeated squaring: T^(2^j) psi for each set bit j of n.

    Raises InvalidStep for dt <= 0, t_final < 0, dt > t_final > 0, or a
    non-finite t_final / dt.
    """
    h, _ = _require_hermitian(h)
    if h.ndim != 2:
        raise DimensionMismatch(f"expected a single matrix, got shape {h.shape}")
    h = np.ascontiguousarray(h)  # so every T(s) below is C-ordered, whatever the caller's layout
    if dt <= 0.0:
        raise InvalidStep(f"dt = {dt!r} must be positive")
    if t_final < 0.0:
        raise InvalidStep(f"t_final = {t_final!r} must be non-negative")
    if t_final > 0.0 and dt > t_final:
        raise InvalidStep(f"dt = {dt!r} exceeds t_final = {t_final!r}")
    psi = _require_normalized(psi0, h.shape[0])
    if t_final == 0.0:
        return psi.copy()

    steps = float(t_final) / float(dt)  # Python floats: an overflow gives inf, no warning
    if not math.isfinite(steps):
        raise InvalidStep(f"t_final / dt = {steps!r} is not finite")
    n_full = math.floor(steps + 1e-12)
    remainder = t_final - n_full * dt
    eye = np.eye(h.shape[0], dtype=complex)  # complex: a float identity added to complex out is slower

    def step(s):  # T(s) in Horner form: 1 + a (1 + a/2 (1 + a/3 (1 + a/4))), a = -i s H
        a = (-1j * s) * h
        out = a / 4.0
        for k in (3.0, 2.0, 1.0):
            out += eye
            out = a.dot(out) / k
        out += eye
        return out

    # One matrix throughout, so ndarray.dot: the same product with less dispatch than @.
    power = step(dt)
    while n_full:
        if n_full & 1:
            psi = power.dot(psi)
        n_full >>= 1
        if n_full:
            power = power.dot(power)
    if remainder > 1e-12 * dt:
        psi = step(remainder).dot(psi)
    return psi
