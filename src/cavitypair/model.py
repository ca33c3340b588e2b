"""Single-excitation Hamiltonians for two atoms sharing one cavity photon.

The conserved three-dimensional subspace is spanned, in this fixed order, by

    |g,g,1>   both atoms ground, one photon in the cavity,
    |e,g,0>   atom 1 excited,
    |g,e,0>   atom 2 excited.

Couplings: g1 and g2 are the atom-cavity exchange strengths, ``rddi`` is the
direct atom-atom excitation exchange Gamma.  Everything is expressed in units
of the maximum coupling g0.  In the maximally asymmetric regime g2/g1 -> 0
the spectrum has the closed form E = {0, +/- Omega} with
Omega = sqrt(g1^2 + Gamma^2); the zero mode carries no atom-1 excitation and
is stationary (a dark state).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModel, ParameterError, ZeroCoupling


def _float_or_array(x):
    """A 0-d result as a Python float (one model), any other as the array itself (a grid)."""
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class ModelParams:
    """Coupling frequencies defining the single-excitation Hamiltonian (g0 units).

    Any finite signed value is accepted.  Sign changes of basis states and
    time reversal take any sign pattern of (g1, g2, Gamma) to any other
    without changing the concurrence of the photon-fed state, and the peak
    analytics use |g1| and |Gamma|.  Arrays that broadcast together make a
    grid of models.
    """

    g1: float
    g2: float = 0.0
    rddi: float = 0.0

    def __post_init__(self):
        fields = (self.g1, self.g2, self.rddi)
        if all(isinstance(value, (float, int)) for value in fields):  # one model: Python comparisons
            if all(map(math.isfinite, fields)):
                return
            values = np.array(fields, dtype=float)
        else:  # a grid: the shape rule, then one test per field; the broadcast copy only names a bad value
            np.broadcast(*fields)
            if all([math.isfinite(value) if isinstance(value, (float, int))
                    else np.isfinite(np.asarray(value, dtype=float)).all() for value in fields]):
                return
            values = np.array(np.broadcast_arrays(*fields), dtype=float)
        ok = np.isfinite(values)
        if not ok.all():
            index = tuple(np.argwhere(~ok)[0])
            raise ParameterError(f"{('g1', 'g2', 'rddi')[index[0]]} = {float(values[index])!r} is not finite")

    @property
    def omega(self):
        """Effective oscillation frequency sqrt(g1^2 + rddi^2) of the g2=0 model.

        A float for one model, an array for a grid; both use ``np.hypot``, so a
        model rounds alike alone and on a grid.  Beyond the largest double it
        is inf, with no warning.
        """
        with np.errstate(over="ignore"):
            return _float_or_array(np.hypot(self.g1, self.rddi))


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Closed-form spectrum of the g2 = 0 Hamiltonian.

    ``dark`` is the zero-eigenvalue eigenvector (Gamma, 0, -g1)/Omega with the
    first non-zero component taken positive; ``bright_plus``/``bright_minus``
    are (g1, +/-Omega, Gamma)/(sqrt(2) Omega) with eigenvalues +/-Omega.
    On a grid of shape s, ``omega`` has shape s and each vector s + (3,).
    """

    omega: float
    dark: np.ndarray
    bright_plus: np.ndarray
    bright_minus: np.ndarray


def build_single_excitation_h(params: ModelParams) -> np.ndarray:
    """Return the 3x3 Hamiltonian on the ordered basis (|g,g,1>, |e,g,0>, |g,e,0>).

    [[0,  g1, g2 ],
     [g1, 0,  Gamma],
     [g2, Gamma, 0 ]]

    Real symmetric, float64; a grid of models gives the stack of its
    Hamiltonians, shape s + (3, 3).
    """
    g1, g2, gamma = params.g1, params.g2, params.rddi
    if isinstance(g1, float) and isinstance(g2, float) and isinstance(gamma, float):  # one model: one literal
        return np.array([[0.0, g1, g2], [g1, 0.0, gamma], [g2, gamma, 0.0]])
    h = np.zeros(np.broadcast(g1, g2, gamma).shape + (3, 3))
    h[..., 0, 1] = h[..., 1, 0] = g1
    h[..., 0, 2] = h[..., 2, 0] = g2
    h[..., 1, 2] = h[..., 2, 1] = gamma
    return h


def analytic_spectrum(params: ModelParams) -> AnalyticSpectrum:
    """Closed-form eigensystem for the g2 = 0 Hamiltonian, of one model or a grid.

    A grid's fields carry its axes (the shape s that g1 and rddi broadcast
    to); one model gives a float and three read-only (3,) vectors, bit for
    bit its row of any grid.  Requires g2 = 0 and a finite Omega > 0 on
    every model (raises DegenerateModel when both couplings vanish or Omega
    overflows).  Satisfies H dark = 0 and H bright_pm = +/-Omega bright_pm to
    machine precision; cross-checked against the numerical eigensolver by
    the test suite.
    """
    if np.any(params.g2 != 0.0):
        raise ParameterError("analytic spectrum is defined for g2 = 0 only")
    omega = params.omega
    if np.any(omega == 0.0):
        raise DegenerateModel("g1 = rddi = 0: no bright doublet, period undefined")
    if np.any(omega == math.inf):
        raise DegenerateModel("Omega = inf: sqrt(g1^2 + rddi^2) overflows")

    g1, gamma, om = np.broadcast_arrays(params.g1, params.rddi, omega)
    dark = np.stack([gamma, np.zeros_like(g1), -g1], axis=-1) / om[..., None]
    # Sign convention: first non-zero component positive (the middle one is 0);
    # flipping only the non-zero entries keeps the zeros +0 (a negated 0 would print as -0).
    sign = np.copysign(1.0, np.where(dark[..., :1] != 0.0, dark[..., :1], dark[..., 2:]))
    dark = np.where(dark == 0.0, 0.0, sign * dark)
    # Numerator and denominator scaled by one power of two (exact), so that sqrt(2) Omega cannot overflow.
    exponent = -np.frexp(om[..., None])[1]
    bright_plus = (np.ldexp(np.stack([g1, om, gamma], axis=-1), exponent)
                   / (math.sqrt(2.0) * np.ldexp(om[..., None], exponent)))
    bright_minus = bright_plus * [1.0, -1.0, 1.0]
    for vec in (dark, bright_plus, bright_minus):
        vec.setflags(write=False)
    return AnalyticSpectrum(omega=omega, dark=dark, bright_plus=bright_plus, bright_minus=bright_minus)


def build_effective_h(params: ModelParams) -> np.ndarray:
    """Adiabatic strong-coupling Hamiltonian for the fast-oscillating regime.

    The atom-atom exchange is replaced by the diagonal shift
    chi = 2 sqrt(2) Gamma^2 / g1, leaving |g,e,0> decoupled:

    [[0,  g1, 0 ],
     [g1, chi, 0],
     [0,  0, -chi]]

    Starting from (1, 0, 0) the atom-2 amplitude therefore stays zero for all
    times and no entanglement is ever generated.  Raises ZeroCoupling when
    g1 = 0.
    """
    if params.g1 == 0.0:
        raise ZeroCoupling("effective Hamiltonian requires g1 > 0")
    chi = 2.0 * math.sqrt(2.0) * params.rddi**2 / params.g1
    return np.array([[0.0, params.g1, 0.0], [params.g1, chi, 0.0], [0.0, 0.0, -chi]])
