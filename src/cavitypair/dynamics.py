"""Time evolution, reduction to the two-atom state, and peak analytics.

The numeric peak search (g2 kept) sits here with the concurrence kernel it runs on.

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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModel, ParameterError, ZeroCoupling
from .model import ModelParams, _float_or_array, build_single_excitation_h
from .qmath import (
    SpectralDecomposition,
    _dagger,
    _require_finite_phase,
    _require_normalized,
    evolve_spectral,
    hermitian_eigendecompose,
)

# Height of |sin(x)|(1 - cos(x)) at its maxima x = (3m +/- 1) pi/3.
_PEAK_SHAPE = 3.0 * math.sqrt(3.0) / 4.0
# The amplitude is at most 1/_PEAK_SHAPE exactly (at Gamma = g1/sqrt(2)), but
# its rounded value can exceed that by an ulp; clamping it there removes only
# rounding, and its product with _PEAK_SHAPE rounds to exactly 1.
_AMPLITUDE_MAX = 1.0 / _PEAK_SHAPE
# Ratio bracket Gamma/g1 of the optimum search, ratios per zoom round, and its
# relative stopping width.
_SCAN_BRACKET = (1e-9, 10.0)
_SCAN_POINTS = 129
_SQRT_EPS = 1.5e-8
# Points per slice of the concurrence kernel.  Its one scratch buffer holds 9
# doubles per point (576 KiB at 8192), inside the 2 MiB per-core L2 of the
# 2-vCPU Xeon it was measured on, where 4096 and 16384 points were no faster
# on a 64 x 400 mesh (best of 300: 1.26 and 1.22 ms against 1.19 ms) or on a
# numeric search of 1.0e8 kernel points (9.4-10.4 s and 8.9-9.5 s against
# 8.6-9.8 s).
_KERNEL_POINTS = 8192
# Numeric peak search (which runs one kernel slice per kernel call): cells of
# round 0 per period, the W * cell width of the a-priori breadth bound (W the
# spectral width), the most cells of that width one call may span in all
# (bounds the run time at any W/Omega), the factor by which each round
# refines a kept cell, and the W * cell width at which refinement stops (C is
# then exact to about eps).
_COARSE_INTERVALS = 64
_COARSE_WH = 0.2
_COARSE_SAMPLES_MAX = 2**27
_REFINE_POINTS = 8
_ZOOM_STOP = 5e-8
# Smallest Omega whose period 2 pi/Omega is finite (division is monotone).
_OMEGA_MIN = 2.0 * math.pi / math.nextafter(math.inf, 0.0)


@dataclass(frozen=True)
class InitialState:
    """Weights of |g>_1|1> (alpha) and |e>_1|0> (beta); atom 2 starts in |g>."""

    alpha: complex = 1.0
    beta: complex = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not cmath.isfinite(complex(getattr(self, name))):
                raise ParameterError(f"{name} is not finite")
        _require_normalized(self.vector())

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, 0.0], dtype=complex)


@dataclass(frozen=True)
class TimeSeries:
    """Strictly ascending times (units 1/g0) with one finite value per time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)  # copies: freezing leaves the caller's arrays writable
        values = np.array(self.values, dtype=float)
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


def _model_decomposition(params: ModelParams) -> SpectralDecomposition:
    """Checked eigendecomposition of the model Hamiltonian (a stack for a grid of models)."""
    return hermitian_eigendecompose(build_single_excitation_h(params))


def evolve(params: ModelParams, init: InitialState, t) -> np.ndarray:
    """State at time(s) t under the full single-excitation Hamiltonian.

    Scalar t returns shape (3,), an array of times returns (nt, 3); a grid of
    models is propagated as one stack and puts its axis in front.
    """
    return evolve_spectral(_model_decomposition(params), init.vector(), t)


def _atom_weights(decomp: SpectralDecomposition, psi0: np.ndarray):
    """Atom-row weights of the concurrence kernel for one decomposition (or a stack) and psi0.

    With w_rj = V_rj (V^dagger psi0)_j for r = 1, 2 (atom 1, atom 2), the
    amplitudes are b, c = e^{-i E_0 t} sum_j w_rj e^{-i (E_j - E_0) t}.  The
    common phase drops out of |b| and |c|, so only the gaps d_j = E_j - E_0
    (j = 1, 2) are kept.  The kernel takes cos and sin of the phase x = d_j t
    from tau = tan(x/2), as 1 + cos x = r = 2/(1 + tau^2) and sin x = tau r,
    so with e^{-ix} = (r - 1) - i tau r the constant parts fold into one real
    5x4 matrix: row by row the weights of (r_1, r_2, tau_1 r_1, tau_2 r_2, 1),
    column by column Re/Im of 2b and of c.  Its last row is the j = 0 term
    less the two r rows (the "- 1" of cos x), and the factor 2 of
    C = 2|b||c| sits in the b columns (exact).  Returns (gaps, weights) with
    shapes (..., 2) and (..., 5, 4); indexing both by rows of a stack gives
    the weights of those members.
    """
    psi0 = _require_normalized(psi0, decomp.dim)
    vectors = decomp.eigenvectors
    w = np.empty(vectors.shape[:-2] + (3, 2), dtype=complex)  # w[..., j, r]: state j, atom r
    np.multiply(vectors[..., 1:3, :].swapaxes(-1, -2), (_dagger(vectors) @ psi0)[..., None], out=w)
    w[..., 0] *= 2.0
    weights = np.empty(w.shape[:-2] + (5, 4))
    weights[..., :2, :] = w[..., 1:, :].view(float)  # r rows: w_j
    weights[..., 2:4, :] = (-1j * w[..., 1:, :]).view(float)  # tau r rows: -i w_j
    weights[..., 4, :] = w[..., 0, :].view(float) - (weights[..., 0, :] + weights[..., 1, :])
    gaps = decomp.eigenvalues[..., 1:] - decomp.eigenvalues[..., :1]
    return gaps, weights


def _concurrence(weights, t) -> np.ndarray:
    """Concurrence C = 2|b||c| of the two atoms at time(s) t, from ``_atom_weights``.

    t is a scalar (scalar result), (nt,) shared by a stack, or (k, nt) per
    member; the result has the shape ``evolve_spectral`` gives the states,
    less the state axis.  psi is never formed.  Per point, one multiply by
    the half-gap gives x/2 and one ``np.tan`` gives tau (no sin, cos or
    hypot: with numpy 2.4 on x86-64 they cost 4-5 times as much per element
    as tan and complex abs); the rows r and tau r follow, and one real (nt x 5)(5 x 4)
    product per member gives Re/Im of 2b and c side by side.  |2b| and |c|
    are the magnitudes of that product viewed as complex, which scale like
    hypot, so amplitudes near 1e-170 do not underflow through their
    squares.  Clamped to 1: for a normalized state 2|b||c| <= |b|^2 + |c|^2
    <= 1 exactly, so only rounding can carry it above.  Members run in
    slices of about _KERNEL_POINTS points, through one scratch buffer per
    call.  Raises ParameterError if a phase gap * t is not finite (checked
    once, from max gap * max|t|: the full phase, though the kernel takes
    tan of half of it).  Floor (photon-fed, g2 = 0; not in the kernel but
    in the eigensolver, which deflates a coupling tiny against the others
    to exactly 0): C = 0 where the closed form is positive once Gamma is
    below about 1.5e-154 = sqrt(DBL_MIN) for g1 in [1e-50, 1e100], or
    Gamma/g1 below about 1e-32 for g1 <= 1e-150.  For Gamma/g1 >= 1e-30 and
    g1 in [1e-250, 1e250] C is within about 3e-15 relative of the closed
    form.
    """
    gaps, weights = weights
    t_arr = np.asarray(t, dtype=float)
    _require_finite_phase(gaps, t_arr)
    stack = gaps.shape[:-1]
    half_gaps, weights = gaps.reshape(-1, 2).T[:, :, None] * 0.5, weights.reshape(-1, 5, 4)
    nt = t_arr.shape[-1] if t_arr.ndim else 1
    times = t_arr.reshape(1, -1, nt)  # one row shared by the stack, or one per member
    out = np.empty((weights.shape[0], nt))
    step = max(1, min(out.shape[0], _KERNEL_POINTS // max(nt, 1)))
    size = step * nt
    scratch = np.empty(9 * size)
    parts = scratch[:4 * size].reshape(step, nt, 4)  # Re 2b, Im 2b, Re c, Im c
    trig = scratch[4 * size:].reshape(5, step, nt)  # r_1, r_2, tau_1 r_1, tau_2 r_2, 1
    trig[4] = 1.0
    for s in range(0, out.shape[0], step):
        rows, m = slice(s, s + step), min(step, out.shape[0] - s)
        tau = np.multiply(times[:, rows] if times.shape[1] > 1 else times, half_gaps[:, rows], out=trig[2:4, :m])
        np.tan(tau, out=tau)
        r = np.square(tau, out=trig[:2, :m])
        r += 1.0
        np.divide(2.0, r, out=r)
        tau *= r
        np.matmul(trig[:, :m].transpose(1, 2, 0), weights[rows], out=parts[:m])
        # |2b| and |c| overwrite the rows r and tau r, which the product has consumed.
        magnitudes = scratch[4 * size:4 * size + 2 * m * nt].reshape(m, nt, 2)
        np.abs(parts[:m].view(complex), out=magnitudes)
        np.minimum(np.multiply(magnitudes[..., 0], magnitudes[..., 1], out=out[rows]), 1.0, out=out[rows])
    out = out.reshape(stack + (nt,))
    return out[..., 0] if t_arr.ndim == 0 else out


def _model_concurrence(params: ModelParams, init: InitialState, t) -> np.ndarray:
    """Propagated concurrence of a model (or a grid of them, stacked in front) at time(s) t."""
    return _concurrence(_atom_weights(_model_decomposition(params), init.vector()), t)


def reduced_density(psi: np.ndarray) -> np.ndarray:
    """Trace the cavity mode out of a pure single-excitation state.

    On the two-atom basis (|ee>, |eg>, |ge>, |gg>) the result carries
    populations (0, |b|^2, |c|^2, |a|^2) and the single coherence
    rho[eg, ge] = b conj(c); its magnitude squared equals the product of the
    two excited populations exactly, since the traced state is pure in each
    photon sector.
    """
    a, b, c = _require_normalized(psi, 3).tolist()
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = abs(b) ** 2
    rho[2, 2] = abs(c) ** 2
    rho[3, 3] = abs(a) ** 2
    rho[1, 2] = coherence = b * c.conjugate()
    rho[2, 1] = coherence.conjugate()
    return rho


def concurrence_series(params: ModelParams, init: InitialState, t_grid) -> TimeSeries:
    """Concurrence of the reduced two-atom state along an ascending time grid.

    For the single-coherence states of this pipeline the Wootters formula
    reduces exactly to twice the |eg>-|ge> coherence magnitude, which is what
    is evaluated here (the general-formula equivalence is enforced by the
    test suite and the CLI selftest).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    return TimeSeries(times=t_grid, values=_model_concurrence(params, init, t_grid))


def _values(x):
    """A float stays a float (one model: scalar arithmetic), anything else becomes a float array."""
    return x if isinstance(x, float) else np.asarray(x, dtype=float)


def _any(condition) -> bool:
    """Whether a condition on ``_values`` holds anywhere; a Python bool is its own answer."""
    return condition if isinstance(condition, bool) else bool(condition.any())


def peak_amplitude(g1, rddi):
    """Amplitude 2 g1^2 |Gamma|/Omega^3 of the concurrence; callers reject g1 = Gamma = 0.

    Signed couplings enter through |g1| and |Gamma|.  With s = min/max of
    (|g1|, |Gamma|) it is 2s/(1+s^2)^{3/2} when |g1| >= |Gamma| and
    2s^2/(1+s^2)^{3/2} otherwise, so no scale overflows or underflows.
    Raises ParameterError for a coupling that is not finite (one test, on
    the larger magnitude).
    """
    g1, rddi = abs(_values(g1)), abs(_values(rddi))
    m = np.maximum(g1, rddi)
    if not (math.isfinite(m) if m.ndim == 0 else np.isfinite(m).all()):
        raise ParameterError(f"couplings must be finite, got max(|g1|, |rddi|) = {float(np.max(m))!r}")
    a, b = g1 / m, rddi / m
    omega = np.hypot(a, b)
    return _float_or_array(np.minimum(2.0 * a * a * b / (omega * omega * omega), _AMPLITUDE_MAX))


def closed_form_concurrence(g1: float, rddi: float, t):
    """Concurrence (2 g1^2 |Gamma|/Omega^3) |sin(Omega t)| (1 - cos(Omega t)).

    Closed form for the photon-fed initial state (alpha = 1, beta = 0) with
    g2 = 0.  Accepts scalar or array t.  Raises DegenerateModel when
    g1 = rddi = 0, and ParameterError, with no warning, when a phase
    Omega t is not finite (Omega overflowing to inf included).
    """
    omega = ModelParams(g1=g1, rddi=rddi).omega  # checks the couplings: finite
    if omega == 0.0:
        raise DegenerateModel("g1 = rddi = 0: Omega = 0")
    t = np.asarray(t, dtype=float)
    _require_finite_phase(np.asarray(omega), t)
    phase = omega * t
    return _float_or_array(peak_amplitude(g1, rddi) * np.abs(np.sin(phase)) * (1.0 - np.cos(phase)))


def peak_times(g1, rddi, m_max: int = 1) -> np.ndarray:
    """Times (3m +/- 1) pi / (3 Omega) of the concurrence maxima, m = 1, 3, ... m_max.

    Shape (m_max + 1,) for one model; a grid's rows (shape s + (m_max + 1,)) equal its one-model calls.
    Each time is (3m +/- 1)/2 times the first, period/3 (``peak_report``'s
    ``t_peak``, bit for bit).  Raises ParameterError for a non-finite
    coupling, and DegenerateModel, with no warning, when Omega = 0 or inf,
    or the period or a peak time overflows (naming a grid's first such model).
    """
    if m_max < 1 or m_max % 2 == 0:
        raise ParameterError(f"m_max = {m_max!r} must be an odd integer >= 1")
    period = _period(ModelParams(g1=g1, rddi=rddi).omega)
    ms = np.arange(1, m_max + 1, 2, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing time is refused below
        times = np.multiply.outer(period / 3.0, np.sort(np.concatenate([3.0 * ms - 1.0, 3.0 * ms + 1.0]) / 2.0))
    overflow = np.isinf(times[..., -1])
    if overflow.any():
        i = np.flatnonzero(overflow)[0]
        where = f" (model {i})" if np.ndim(period) else ""
        raise DegenerateModel(f"peak time {3 * m_max + 1}/6 x period {float(np.ravel(period)[i])!r} overflows{where}")
    return times


def _period(omega):
    """Period 2 pi/Omega of the g2 = 0 model, for a float or an array Omega.

    Raises DegenerateModel when Omega = 0, when 2 pi/Omega would overflow,
    or when Omega itself overflowed to inf (the period would be 0); Omega is
    compared before the division, so no overflow warning is printed.
    """
    if _any((omega < _OMEGA_MIN) | (omega == math.inf)):
        if _any(omega == 0.0):
            raise DegenerateModel("g1 = rddi = 0: period undefined")
        if _any(omega == math.inf):
            raise DegenerateModel("Omega = inf: sqrt(g1^2 + rddi^2) overflows")
        raise DegenerateModel(f"Omega = {float(np.min(omega))!r}: period 2 pi/Omega overflows")
    return 2.0 * math.pi / omega


def peak_report(params: ModelParams) -> PeakReport:
    """Closed-form peak height, first peak time, period and coupling ratio.

    Requires g2 = 0 and the photon-fed initial state.  Raises DegenerateModel
    when Omega = 0 or inf or 2 pi/Omega overflows, and ZeroCoupling when
    g1 = 0 (the ratio Gamma/g1 would be undefined; no sentinel is
    substituted).  The first peak time is period/3.  The ratio is Gamma/g1
    correctly rounded, so it is +-inf, with no warning, where |Gamma/g1|
    exceeds the largest double (g1 = 1e-300, Gamma = 1e10); the other fields
    stay finite there.
    """
    g1, g2, rddi = _values(params.g1), _values(params.g2), _values(params.rddi)
    if _any(g2 != 0.0):
        raise ParameterError("peak analytics are defined for g2 = 0 only")
    period = _period(params.omega)
    if _any(g1 == 0.0):
        raise ZeroCoupling("g1 = 0: ratio rddi/g1 undefined")
    height = peak_amplitude(g1, rddi) * _PEAK_SHAPE
    if isinstance(period, float):
        return PeakReport(period / 3.0, height, period, float(rddi) / float(g1))
    with np.errstate(over="ignore"):  # an overflowing ratio is +-inf, as for one model
        return PeakReport(period / 3.0, height, period, rddi / g1)


def numeric_peak_concurrence(params: ModelParams):
    """Maximum of the propagated concurrence over t in [0, 2 pi/Omega], g2 kept.

    The window is one period of the g2 = 0 model, Omega = sqrt(g1^2 + Gamma^2).
    With g2 kept the motion is not periodic at 2 pi/Omega; once |g2| is not
    small against |g1| the result is the maximum over this window only, not
    over all t.
    A grid of models is searched as one stack (array result; float for a
    scalar model).  With psi0 = (1, 0, 0), C = 2|g| for the exponential sum
    g = b conj(c) = sum_jk a_jk exp(-i (E_j - E_k) t), a_jk = V_1j V_0j V_2k V_0k
    (conjugates dropped), so with m_p = sum_jk |a_jk| |E_j - E_k|^p the
    curvature obeys |d^2 C^2/dt^2| <= 8 (m_0 m_2 + m_1^2), a term-by-term
    sharpening of Bernstein's inequality.  A maximum inside a cell of width d
    thus exceeds the C^2 at the cell's centre by at most the slack
    (m_0 m_2 + m_1^2) d^2.  The search is a uniform-grid branch-and-bound
    (after Piyavskii 1972 and Shubert 1972, with this curvature bound for
    their Lipschitz constant).  Round 0 is 64 equal cells of the window,
    for any W/Omega (W = E_max - E_min), after one sample at t = period: the
    slack bounds only a maximum where the slope is 0 (C(0) = 0 needs none).
    Each round samples its cells at their centres, keeps every cell whose
    C^2 plus the slack exceeds its row's best C^2 (strictly, so a row with
    C = 0 throughout stops at round 0) and splits it into 8, until
    W d <= 5e-8.  The result is an attained value of the float64 kernel,
    never above that kernel's own maximum, and within a few eps relative of
    the exact one on either side (-2.1e-15 to +7.8e-16 against a 40-digit
    reference on four rows).  Work runs in kernel slices of
    _KERNEL_POINTS = 8192 points.  The breadth is bounded a priori by n,
    the larger of 64 and period W/0.2 (cells of width 0.2/W): a call whose
    n + 1 summed over its models ("coarse samples") exceeds 2^27 raises
    ParameterError before any sample, so memory and run time stay bounded
    at any W/Omega.  Below the eigensolver's floor (``_concurrence``: Gamma
    under about 1.5e-154 at g1 = 1) the kernel gives C = 0, and so does the
    search.  On a small grid the cost is per call, not per point: an 8-row
    block of the default geometry makes 10 kernel calls on about 2 500
    points in all and takes about 0.7 ms (shared 2-vCPU Xeon, numpy 2.4).
    The memory is the frontier, 16 bytes per kept cell of two rounds at
    once: the n = 4.3e7 row (``--x2 -0.5 --gamma-ref-hz 0.1``, x1 = 3.7)
    keeps up to 2.1 million cells a round, 64 MiB of arrays at the peak.
    """
    period = _period(params.omega)
    h = build_single_excitation_h(params)
    shape = h.shape[:-2]
    decomp = hermitian_eigendecompose(h.reshape(-1, 3, 3))
    energies, vectors = decomp.eigenvalues, decomp.eigenvectors
    gaps, weights = _atom_weights(decomp, InitialState().vector())
    period = np.broadcast_to(period, shape).ravel()
    width = energies[:, -1] - energies[:, 0]
    weight = np.abs(vectors * vectors[:, :1, :])
    a = weight[:, 1, :, None] * weight[:, 2, None, :]
    gap = np.abs(energies[:, :, None] - energies[:, None, :]) / width[:, None, None]  # in [0, 1]
    m0, m1, m2 = (term.sum(axis=(1, 2)) for term in (a, a * gap, a * np.square(gap)))
    # C <= 2 m0, so C/m0 and the curvature (m0 m2 + m1^2)/m0^2 (in units of W^2)
    # neither overflow nor underflow; m0 = 0 only where C = 0.
    scale = np.where(m0 > 0.0, m0, 1.0)
    curvature = m2 / scale + (m1 / scale) ** 2

    with np.errstate(over="ignore"):  # a count that overflows to inf is refused below
        n = np.ceil(np.maximum(_COARSE_INTERVALS, period * width / _COARSE_WH))
        samples = (n + 1.0).sum()
    if samples > _COARSE_SAMPLES_MAX:
        raise ParameterError(f"numeric peak search needs {samples:.3g} coarse samples, "
                             f"more than the {_COARSE_SAMPLES_MAX} of one call")
    # A sample is (row, u) at t = u d, d = period/(64 8^r) the cell width of
    # round r, and every u is exact.  Round 0 centres its cells at u = j + 1/2;
    # a cell centred at u splits into cells centred at u' = 8u - 3.5 + k, k < 8.
    best = _concurrence((gaps, weights), period[:, None])[:, 0]  # the window's right end
    # Per row, in one array that each slice gathers once: the round's d, scale, slack and refine (1 or 0).
    table = np.empty((best.size, 4))
    table[:, 0], table[:, 1] = period / _COARSE_INTERVALS, scale
    rows, first, points = np.arange(best.size), np.full(best.size, 0.5), np.arange(_COARSE_INTERVALS, dtype=float)
    while rows.size:
        width_d = width * table[:, 0]
        np.multiply(curvature, width_d**2, out=table[:, 2])
        np.greater(width_d, _ZOOM_STOP, out=table[:, 3])
        found = []
        step = _KERNEL_POINTS // points.size
        for s in range(0, rows.size, step):
            sub = rows[s:s + step]
            d, row_scale, slack, refine = table.take(sub, axis=0).T[..., None]
            u = first[s:s + step, None] + points
            values = _concurrence((gaps.take(sub, axis=0), weights.take(sub, axis=0)), u * d)
            # Each cell's maximum from a transposed copy: one pass, where max(axis=1) runs one loop per cell.
            np.maximum.at(best, sub, values.T.copy().max(axis=0))
            # Kept: a cell whose C^2 plus the slack beats its row's best so far
            # (strictly, so C = 0 rows stop), while W d > _ZOOM_STOP.
            top = best[sub][:, None] / row_scale
            live = (values / row_scale) ** 2 + slack > top**2
            kept = np.logical_and(live, refine, out=live).ravel().nonzero()[0]
            found.append((sub[kept // points.size], u.ravel()[kept]))
        # The kept cells are the memory: this round's go before they are joined, and a
        # round of one slice (every round of a small grid) needs no join.
        del rows, first, sub
        rows, first = found[0] if len(found) == 1 else (np.concatenate(part) for part in zip(*found))
        del found
        first *= _REFINE_POINTS  # a kept centre u -> 8u - 3.5, the first centre of its eighths
        first -= (_REFINE_POINTS - 1) / 2
        points = np.arange(_REFINE_POINTS, dtype=float)
        table[:, 0] /= _REFINE_POINTS
    return _float_or_array(best.reshape(shape))


def peak_height(g1, rddi):
    """Peak concurrence (2 g1^2 |Gamma|/Omega^3)(3 sqrt(3)/4) as a function of Gamma, at most 1.

    Scalars give a float, arrays (broadcast together) an array.  Raises
    ParameterError for a coupling that is not finite, and DegenerateModel
    when g1 = Gamma = 0.
    """
    g1, rddi = _values(g1), _values(rddi)
    if _any((g1 == 0.0) & (rddi == 0.0)):
        raise DegenerateModel("g1 = rddi = 0: Omega = 0")
    return peak_amplitude(g1, rddi) * _PEAK_SHAPE


def peak_optimum(g1: float) -> tuple[float, float]:
    """Exchange strength maximizing the peak concurrence, and that maximum.

    The optimum is Gamma = g1/sqrt(2) with peak concurrence exactly 1;
    ``scan_peak_optimum`` recovers the same point numerically.
    """
    if not 0.0 < g1 < math.inf:
        raise ParameterError(f"g1 = {g1!r} must be finite and positive")
    return g1 / math.sqrt(2.0), 1.0


def scan_peak_optimum(g1: float) -> tuple[float, float]:
    """Numerical maximization of the peak concurrence over Gamma, by bracket zoom.

    Searches Gamma/g1 in [1e-9, 10], on the ratio so that any scale works.
    Each round evaluates ``peak_height`` on _SCAN_POINTS equally spaced ratios
    of the bracket at once and keeps the two intervals around the largest,
    so the bracket shrinks 64-fold per round (5 rounds), down to sqrt(eps)
    relative, below which a smooth maximum cannot be located.  The zoom does
    not depend on g1: it runs once per process, at the first call, and later
    calls only scale the cached ratio by g1 (concurrent first calls may each
    run it, with identical results).  Independent of ``peak_optimum``; used
    as its numerical cross-check (agreement to 1e-6 is asserted by the tests).
    """
    if not 0.0 < g1 < math.inf:
        raise ParameterError(f"g1 = {g1!r} must be finite and positive")
    ratio, height = _scan_ratio_optimum()
    return g1 * ratio, height


@functools.cache
def _scan_ratio_optimum() -> tuple[float, float]:
    """The bracket zoom of ``scan_peak_optimum`` on Gamma/g1: the best ratio and its height."""
    a, b = _SCAN_BRACKET
    fraction = np.linspace(0.0, 1.0, _SCAN_POINTS)
    while True:
        r = a + (b - a) * fraction
        heights = peak_height(1.0, r)
        k = int(np.argmax(heights))
        a, b = r[max(k - 1, 0)], r[min(k + 1, _SCAN_POINTS - 1)]
        if b - a <= _SQRT_EPS * (a + b):
            return float(r[k]), float(heights[k])
