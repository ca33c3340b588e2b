"""Time evolution, reduction to the two-atom state, and peak analytics.

The initial state is |g>_2 (x) (alpha |g>_1|1> + beta |e>_1|0>), i.e.
(alpha, beta, 0) on the single-excitation basis.  Evolution goes through the
numerical eigendecomposition of the full Hamiltonian (g2 included), so the
pipeline stays valid outside the asymmetric limit; the closed forms below
hold for g2 = 0 and beta = 0, where with Omega = sqrt(g1^2 + Gamma^2)

    a(t) = Gamma^2/Omega^2 + (g1^2/Omega^2) cos(Omega t)
    b(t) = -i (g1/Omega) sin(Omega t)
    c(t) = (g1 Gamma/Omega^2) (cos(Omega t) - 1)

and the concurrence is C(t) = 2|b c| = (2 g1^2 Gamma/Omega^3)
|sin(Omega t)| (1 - cos(Omega t)), peaking at Omega t = 2pi/3 and 4pi/3 with
height (2 g1^2 Gamma/Omega^3)(3 sqrt(3)/4).  The peak height as a function of
the ratio Gamma/g1 is maximal (exactly 1) at Gamma = g1/sqrt(2).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModel, ParameterError, UnnormalizedState, ZeroCoupling
from .model import ModelParams, build_single_excitation_h
from .qmath import NORM_TOL, _require_normalized, evolve_spectral, hermitian_eigendecompose

# Height of |sin(x)|(1 - cos(x)) at its maxima x = (3m +/- 1) pi/3.
_PEAK_SHAPE = 3.0 * math.sqrt(3.0) / 4.0
# The amplitude is at most 1/_PEAK_SHAPE exactly (at Gamma = g1/sqrt(2)), but
# its rounded value can exceed that by an ulp; clamping it to the largest
# double whose product with _PEAK_SHAPE rounds to <= 1 removes only rounding
# and makes every peak height <= 1 (rounded products are monotone).
_AMPLITUDE_MAX = 1.0 / _PEAK_SHAPE
while _AMPLITUDE_MAX * _PEAK_SHAPE > 1.0:
    _AMPLITUDE_MAX = math.nextafter(_AMPLITUDE_MAX, 0.0)
# Ratios per zoom round of the optimum search, and its relative stopping width.
_SCAN_POINTS = 129
_SQRT_EPS = 1.5e-8


@dataclass(frozen=True)
class InitialState:
    """Weights of |g>_1|1> (alpha) and |e>_1|0> (beta); atom 2 starts in |g>."""

    alpha: complex = 1.0
    beta: complex = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not cmath.isfinite(complex(getattr(self, name))):
                raise ParameterError(f"{name} is not finite")
        norm_sq = abs(complex(self.alpha)) ** 2 + abs(complex(self.beta)) ** 2
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise UnnormalizedState(f"|alpha|^2 + |beta|^2 = {norm_sq!r} deviates from 1")

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, 0.0], dtype=complex)


@dataclass(frozen=True)
class TimeSeries:
    """Strictly ascending times (units 1/g0) with one finite value per time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.shape != times.shape:
            raise ParameterError("times and values must be 1-d arrays of equal length")
        if times.size == 0:
            raise ParameterError("empty time grid")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ParameterError("times must be strictly ascending")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ParameterError("times and values must be finite")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PeakReport:
    """First-peak location/height and the repetition period of the concurrence (arrays for a grid)."""

    t_peak: float
    c_peak: float
    period: float
    ratio: float


def evolve(params: ModelParams, init: InitialState, t) -> np.ndarray:
    """State at time(s) t under the full single-excitation Hamiltonian.

    Scalar t returns shape (3,), an array of times returns (nt, 3); a grid of
    models is propagated as one stack and puts its axis in front.
    """
    decomp = hermitian_eigendecompose(build_single_excitation_h(params))
    return evolve_spectral(decomp, init.vector(), t)


def state_concurrence(psi: np.ndarray) -> np.ndarray:
    """Concurrence 2|b conj(c)| of states psi = (a, b, c), shape (..., 3): Wootters on ``reduced_density``.

    Clamped to 1: for a normalized psi, 2|b c| <= |b|^2 + |c|^2 <= 1 exactly,
    so only rounding can carry it above (by a few ulp near Gamma = g1/sqrt(2)).
    """
    return np.minimum(2.0 * np.abs(psi[..., 1] * np.conj(psi[..., 2])), 1.0)


def reduced_density(psi: np.ndarray) -> np.ndarray:
    """Trace the cavity mode out of a pure single-excitation state.

    On the two-atom basis (|ee>, |eg>, |ge>, |gg>) the result carries
    populations (0, |b|^2, |c|^2, |a|^2) and the single coherence
    rho[eg, ge] = b conj(c); its magnitude squared equals the product of the
    two excited populations exactly, since the traced state is pure in each
    photon sector.
    """
    a, b, c = _require_normalized(psi, 3)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = abs(b) ** 2
    rho[2, 2] = abs(c) ** 2
    rho[3, 3] = abs(a) ** 2
    rho[1, 2] = b * np.conj(c)
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def concurrence_series(params: ModelParams, init: InitialState, t_grid) -> TimeSeries:
    """Concurrence of the reduced two-atom state along an ascending time grid.

    For the single-coherence states of this pipeline the Wootters formula
    reduces exactly to twice the |eg>-|ge> coherence magnitude, which is what
    is evaluated here (the general-formula equivalence is enforced by the
    test suite and the CLI selftest).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    return TimeSeries(times=t_grid, values=state_concurrence(evolve(params, init, t_grid)))


def peak_amplitude(g1, rddi):
    """Amplitude 2 g1^2 Gamma/Omega^3 of the concurrence; callers reject g1 = Gamma = 0.

    With s = min/max of (g1, Gamma) it is 2s/(1+s^2)^{3/2} when g1 >= Gamma and
    2s^2/(1+s^2)^{3/2} otherwise, so no scale overflows or underflows.
    """
    m = np.maximum(g1, rddi)
    a, b = g1 / m, rddi / m
    omega = np.hypot(a, b)
    out = np.minimum(2.0 * a * a * b / (omega * omega * omega), _AMPLITUDE_MAX)
    return float(out) if out.ndim == 0 else out


def closed_form_concurrence(g1: float, rddi: float, t):
    """Concurrence (2 g1^2 Gamma/Omega^3) |sin(Omega t)| (1 - cos(Omega t)).

    Closed form for the photon-fed initial state (alpha = 1, beta = 0) with
    g2 = 0.  Accepts scalar or array t.  Raises DegenerateModel when
    g1 = rddi = 0.
    """
    omega = ModelParams(g1=g1, rddi=rddi).omega  # checks the couplings: finite, non-negative
    if omega == 0.0:
        raise DegenerateModel("g1 = rddi = 0: Omega = 0")
    phase = omega * np.asarray(t, dtype=float)
    out = peak_amplitude(g1, rddi) * np.abs(np.sin(phase)) * (1.0 - np.cos(phase))
    return float(out) if out.ndim == 0 else out


def peak_times(g1: float, rddi: float, m_max: int = 1) -> np.ndarray:
    """Times (3m +/- 1) pi / (3 Omega) of the concurrence maxima, m = 1, 3, ... m_max."""
    if m_max < 1 or m_max % 2 == 0:
        raise ParameterError(f"m_max = {m_max!r} must be an odd integer >= 1")
    omega = math.hypot(g1, rddi)
    if omega == 0.0:
        raise DegenerateModel("g1 = rddi = 0: Omega = 0")
    ms = np.arange(1, m_max + 1, 2, dtype=float)
    times = np.concatenate([(3.0 * ms - 1.0), (3.0 * ms + 1.0)]) * math.pi / (3.0 * omega)
    return np.sort(times)


def peak_report(params: ModelParams) -> PeakReport:
    """Closed-form peak height, first peak time, period and coupling ratio.

    Requires g2 = 0 and the photon-fed initial state.  Raises DegenerateModel
    when Omega = 0 and ZeroCoupling when g1 = 0 (the ratio Gamma/g1 would be
    undefined; no sentinel is substituted).
    """
    if np.any(params.g2 != 0.0):
        raise ParameterError("peak analytics are defined for g2 = 0 only")
    g1, rddi = np.asarray(params.g1, dtype=float), np.asarray(params.rddi, dtype=float)
    omega = np.hypot(g1, rddi)
    if (omega == 0.0).any():
        raise DegenerateModel("g1 = rddi = 0: period undefined")
    if (g1 == 0.0).any():
        raise ZeroCoupling("g1 = 0: ratio rddi/g1 undefined")
    fields = (2.0 * math.pi / (3.0 * omega), peak_amplitude(g1, rddi) * _PEAK_SHAPE,
              2.0 * math.pi / omega, rddi / g1)
    return PeakReport(*fields) if omega.ndim else PeakReport(*map(float, fields))


def peak_height(g1, rddi):
    """Peak concurrence (2 g1^2 Gamma/Omega^3)(3 sqrt(3)/4) as a function of Gamma, at most 1.

    Scalars give a float, arrays (broadcast together) an array.
    """
    if np.any((g1 == 0.0) & (rddi == 0.0)):
        raise DegenerateModel("g1 = rddi = 0: Omega = 0")
    return peak_amplitude(g1, rddi) * _PEAK_SHAPE


def peak_optimum(g1: float) -> tuple[float, float]:
    """Exchange strength maximizing the peak concurrence, and that maximum.

    The optimum is Gamma = g1/sqrt(2) with peak concurrence exactly 1;
    ``scan_peak_optimum`` recovers the same point numerically.
    """
    if g1 <= 0.0:
        raise ParameterError(f"g1 = {g1!r} must be positive")
    return g1 / math.sqrt(2.0), 1.0


def scan_peak_optimum(g1: float, lo: float | None = None, hi: float | None = None) -> tuple[float, float]:
    """Numerical maximization of the peak concurrence over Gamma, by bracket zoom.

    Searches (0, 10 g1] by default, on r = Gamma/g1 so that any scale works.
    Each round evaluates ``peak_height`` on _SCAN_POINTS equally spaced ratios
    of the bracket at once and keeps the two intervals around the largest,
    so the bracket shrinks 64-fold per round (5 rounds on the default
    bracket), down to sqrt(eps) relative, below which a smooth maximum cannot
    be located.  Independent of ``peak_optimum``; used as its numerical
    cross-check (agreement to 1e-6 is asserted by the tests).
    """
    if g1 <= 0.0:
        raise ParameterError(f"g1 = {g1!r} must be positive")
    a = 1e-9 if lo is None else lo / g1
    b = 10.0 if hi is None else hi / g1
    fraction = np.linspace(0.0, 1.0, _SCAN_POINTS)
    while True:
        r = a + (b - a) * fraction
        heights = peak_height(1.0, r)
        k = int(np.argmax(heights))
        a, b = r[max(k - 1, 0)], r[min(k + 1, _SCAN_POINTS - 1)]
        if b - a <= _SQRT_EPS * (a + b):
            return g1 * float(r[k]), float(heights[k])
