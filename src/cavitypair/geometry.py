"""Position-to-coupling maps, physical-scale calibration, and sweeps.

This is the only module that knows about SI units (MHz, um, Hz).  Everything
downstream works in g0 = 1 units: couplings in multiples of the peak cavity
coupling, times in 1/g0, positions in multiples of the waist w0.

The axial coupling law is g(x1) = g0 exp(-x1^2) with x1 in waist units, so an
atom parked at x2 = -5 sits at g2/g0 = e^-25 ~ 1.4e-11 and the cavity
effectively talks to atom 1 alone.  A cos(2 pi x w0/lambda) standing-wave
factor is available behind a flag but off by default.

The direct exchange strength follows a far-zone multipole profile
Gamma(R) = A/R + B/R^2 + C3/R^3 (R in um).  The 1/R coefficient is usually
not given directly; it is calibrated so that Gamma equals gamma_ref at the
reference separation R_ref, which with the defaults pins Gamma(3 w0) = 1e5 Hz
= 2.5e-4 g0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentAtoms, NonpositiveSeparation, ParameterError
from .dynamics import InitialState, _model_concurrence, numeric_peak_concurrence, peak_report
from .model import ModelParams

HZ_PER_MHZ = 1e6
# CavityGeometry fields checked on construction, in order, with the sign each
# needs (None: any finite value, and the message shows the value as given).
_FIELD_RULES = (
    ("g0_mhz", "positive"), ("w0_um", "positive"), ("lambda_um", "positive"),
    ("gamma_ref_hz", "positive"), ("r_ref", "positive"),
    ("rddi_b", "non-negative"), ("rddi_c3", "non-negative"), ("rddi_a", "non-negative"), ("x2", None),
)


@dataclass(frozen=True)
class CavityGeometry:
    """Cavity scales, atom-2 parking position, and RDDI profile coefficients.

    Attributes
    ----------
    g0_mhz : float
        Peak atom-field coupling in MHz.  Sets the unit for every coupling
        handed to the model layer.
    w0_um : float
        Cavity waist in um; the position unit.
    lambda_um : float
        Transition wavelength in um; only enters through the optional
        standing-wave factor.
    x2 : float
        Atom-2 position in waist units, far down the envelope tail.
    standing_wave : bool
        Apply cos(2 pi x w0/lambda) on top of the Gaussian envelope.
    rddi_a, rddi_b, rddi_c3 : float or None
        Coefficients of 1/R, 1/R^2, 1/R^3 in Hz um, Hz um^2, Hz um^3.
        Leave rddi_a as None to calibrate it from (gamma_ref_hz, r_ref).
    gamma_ref_hz : float
        Exchange strength pinned at the reference separation, in Hz.
    r_ref : float
        Reference separation in waist units.
    """

    g0_mhz: float = 400.0
    w0_um: float = 4.0
    lambda_um: float = 0.85
    x2: float = -5.0
    standing_wave: bool = False
    rddi_a: float | None = None
    rddi_b: float = 0.0
    rddi_c3: float = 0.0
    gamma_ref_hz: float = 1e5
    r_ref: float = 3.0

    def __post_init__(self):
        for name, rule in _FIELD_RULES:
            raw = getattr(self, name)
            value = 0.0 if raw is None else float(raw)  # rddi_a = None: calibrated
            signed_ok = rule is None or value > 0.0 or (value == 0.0 and rule == "non-negative")
            if not (math.isfinite(value) and signed_ok):
                shown = raw if rule is None else value
                raise ParameterError(f"{name} = {shown!r} must be finite" + (f" and {rule}" if rule else ""))

    @property
    def g0_hz(self) -> float:
        return float(self.g0_mhz) * HZ_PER_MHZ

    @property
    def rddi_a_effective(self) -> float:
        """1/R coefficient in Hz um, calibrated when not given explicitly.

        Calibration solves Gamma(R_ref) = gamma_ref for A after subtracting
        the higher-multipole contributions, so the identity holds exactly.
        """
        if self.rddi_a is not None:
            return float(self.rddi_a)
        r_um = float(self.r_ref) * float(self.w0_um)
        a = (float(self.gamma_ref_hz) - _multipole_hz(self, 0.0, r_um)) * r_um
        if a < 0.0:
            raise ParameterError("higher-order RDDI terms exceed gamma_ref at r_ref; calibration impossible")
        if not math.isfinite(a):
            raise ParameterError(f"calibrated rddi_a = {a!r} is not finite")
        return a


def _multipole_hz(geo: CavityGeometry, a: float, r_um):
    """A/R + B/R^2 + C3/R^3 in Hz at R = r_um (um), with B, C3 from ``geo``.

    Each power of R is divided out one at a time, so no power of a large R
    overflows: far terms underflow to 0 instead.
    """
    return a / r_um + float(geo.rddi_b) / r_um / r_um + float(geo.rddi_c3) / r_um / r_um / r_um


def coupling_at(geo: CavityGeometry, x1):
    """Coupling g(x1)/g0 at axial position x1 (waist units).

    Gaussian envelope exp(-x1^2), times the standing-wave factor when the
    flag is on.  Accepts scalar or array x1.  Wherever exp(-x1^2) underflows
    (|x1| above about 27.3) the coupling is exactly 0.0, with no warning.  A
    standing-wave phase 2 pi x1 w0/lambda that overflows raises ParameterError.
    """
    x1 = np.asarray(x1, dtype=float)
    if not np.all(np.isfinite(x1)):
        raise ParameterError("x1 must be finite")
    # Clipping at |x1| = 28 (x1^2 = 784 > 745) changes no value and keeps x1^2 finite;
    # where exp(-x1^2) is 0 the phase is taken at x1 = 0, so the coupling is exactly 0.0.
    value = np.exp(-np.square(np.clip(x1, -28.0, 28.0)))
    if geo.standing_wave:
        with np.errstate(over="ignore"):  # a phase that overflows is refused below
            phase = 2.0 * math.pi * np.where(value > 0.0, x1, 0.0) * float(geo.w0_um) / float(geo.lambda_um)
        if not np.all(np.isfinite(phase)):
            raise ParameterError("standing-wave phase 2 pi x1 w0/lambda overflows")
        value = value * np.cos(phase)
    return float(value) if value.ndim == 0 else value


def rddi_at(geo: CavityGeometry, r):
    """Exchange strength Gamma(R)/g0 at separation r (waist units).

    Evaluates A/R + B/R^2 + C3/R^3 in Hz at R = r w0 and converts to g0
    units.  Accepts scalar or array r; raises NonpositiveSeparation unless
    every entry is positive.  A Gamma/g0 that overflows is inf, with no
    warning; ``ModelParams`` rejects it.
    """
    r = np.asarray(r, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(r > 0.0)):
        raise NonpositiveSeparation(f"separation must be positive and finite, got {r!r}")
    with np.errstate(over="ignore"):  # ModelParams refuses the inf, so no warning is due
        value = _multipole_hz(geo, geo.rddi_a_effective, r * float(geo.w0_um)) / geo.g0_hz
    return float(value) if value.ndim == 0 else value


def params_at(geo: CavityGeometry, x1) -> ModelParams:
    """Model couplings (g1, g2, Gamma) for atom 1 at x1, atom 2 at geo.x2.

    An array x1 gives a grid of models; CoincidentAtoms if any x1 equals geo.x2.
    """
    separation = np.abs(np.asarray(x1, dtype=float) - float(geo.x2))
    if np.any(separation == 0.0):
        raise CoincidentAtoms(f"x1 = x2 = {geo.x2!r}")
    return ModelParams(
        g1=coupling_at(geo, x1),
        g2=coupling_at(geo, geo.x2),
        rddi=rddi_at(geo, separation),
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-position couplings and peak analytics, one entry per grid point.

    The analytic columns (ratio, c_peak, t_peak, period) are the g2 = 0
    closed forms.  Dropping g2 moves the peak by at most
    |c_peak_numeric - c_peak| <= 2 sqrt(2) |g2| period: the dropped coupling
    has spectral norm |g2|, so ||psi(t) - psi_0(t)|| <= |g2| t, and
    Cauchy-Schwarz on C = 2|b c| gives |C - C_0| <= 2 sqrt(2) |g2| t.  With the
    default geometry (g2 = e^-25) that is at most 1.35e-8 on x1 in [-2, 2].
    c_peak_numeric, filled on request, keeps g2: the maximum of the propagated
    concurrence over one period, to about eps (``numeric_peak_concurrence``).
    """

    x1: np.ndarray
    g1: np.ndarray
    rddi: np.ndarray
    ratio: np.ndarray
    c_peak: np.ndarray
    t_peak: np.ndarray
    period: np.ndarray
    c_peak_numeric: np.ndarray | None = None


def sweep_position(geo: CavityGeometry, x1_grid, numeric_peaks: bool = False) -> SweepResult:
    """Peak analytics at each atom-1 position of an ascending grid.

    The analytic columns are the g2 = 0 closed forms on the whole grid at once;
    numeric_peaks adds the full-g2 numeric peak column, searched for every
    position in one stack, as the diagnostic against which the g2 truncation
    is judged.
    """
    x1_grid = np.asarray(x1_grid, dtype=float)
    if x1_grid.ndim != 1 or x1_grid.size == 0:
        raise ParameterError("x1 grid must be a non-empty 1-d array")
    if x1_grid.size > 1 and not np.all(np.diff(x1_grid) > 0.0):
        raise ParameterError("x1 grid must be strictly ascending")

    grid = params_at(geo, x1_grid)
    peaks = peak_report(ModelParams(g1=grid.g1, rddi=grid.rddi))
    numeric = None
    if numeric_peaks:
        numeric = numeric_peak_concurrence(grid)
    return SweepResult(
        x1=x1_grid.copy(),
        g1=grid.g1,
        rddi=grid.rddi,
        ratio=peaks.ratio,
        c_peak=peaks.c_peak,
        t_peak=peaks.t_peak,
        period=peaks.period,
        c_peak_numeric=numeric,
    )


def mesh(geo: CavityGeometry, x1_grid, t_grid) -> np.ndarray:
    """Concurrence on the position x time product grid, shape (n_x1, n_t).

    Row i is the propagated concurrence series (full g2, photon-fed initial
    state) for atom 1 at x1_grid[i], all rows from one stacked propagation;
    the emission order is fixed by the input grids.
    """
    x1_grid = np.asarray(x1_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if x1_grid.ndim != 1 or x1_grid.size == 0 or t_grid.ndim != 1 or t_grid.size == 0:
        raise ParameterError("mesh grids must be non-empty 1-d arrays")
    if not (np.all(np.isfinite(t_grid)) and np.all(np.diff(t_grid) > 0.0)):
        raise ParameterError("mesh times must be finite and strictly ascending")
    return _model_concurrence(params_at(geo, x1_grid), InitialState(), t_grid)
