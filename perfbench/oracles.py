"""Independent reference values for every output the benchmark checks.

Nothing here imports cavitypair.  The g2 = 0 closed forms are written in the
ratio form r = Gamma/g1 (or its inverse), so no intermediate overflows or
underflows at extreme coupling scales; g2 != 0 goes through a direct
np.linalg.eigh propagation of the 3x3 Hamiltonian.  Tolerances are absolute
on quantities bounded by 1 (amplitudes, concurrence) and relative on
frequencies and times.
"""

import math

import numpy as np

PEAK_SHAPE = 3.0 * math.sqrt(3.0) / 4.0

# Default CavityGeometry: Gamma(R) = gamma_ref r_ref / R in Hz, R in waist units.
DEFAULT_X2 = -5.0
DEFAULT_GAMMA_SCALE = 1e5 * 3.0 / 400e6

AMPLITUDE_TOL = 1e-9      # state amplitudes and concurrence vs the eigh oracle
CONCURRENCE_TOL = 1e-10   # Wootters vs fast path, the package's stated contract
PEAK_TOL = 1e-12          # closed-form peak height, absolute on a value <= 1
REL_TOL = 1e-12           # frequencies, times, couplings
NUMERIC_PEAK_RTOL = 1e-7  # grid-sampling bias bound stated by the package
OPTIMUM_RTOL = 1e-6       # golden-section optimum location
EIG_RTOL = 1e-12          # eigenvalues, relative to the largest coupling


class OracleMismatch(AssertionError):
    """A returned value disagrees with its oracle beyond the stated tolerance."""


def require(ok, what: str) -> None:
    if not bool(np.all(ok)):
        raise OracleMismatch(what)


def require_close(got, want, atol: float, what: str, rtol: float = 0.0) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise OracleMismatch(f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    # NaN compares false, so a NaN anywhere fails the check.
    if not np.all(err <= atol + rtol * np.abs(want)):
        worst = float(np.nanmax(err)) if np.any(np.isfinite(err)) else float("nan")
        raise OracleMismatch(f"{what}: worst deviation {worst:.3e} beyond atol={atol:.0e} rtol={rtol:.0e}")


def geometry_couplings(x1):
    """(g1, g2, Gamma) of the default geometry for atom 1 at x1 (array or scalar)."""
    x1 = np.asarray(x1, dtype=float)
    g1 = np.exp(-x1 * x1)
    g2 = np.full_like(g1, math.exp(-DEFAULT_X2 * DEFAULT_X2))
    rddi = DEFAULT_GAMMA_SCALE / np.abs(x1 - DEFAULT_X2)
    return g1, g2, rddi


def peak_amplitude(g1, rddi):
    """2 g1^2 Gamma / Omega^3 in ratio form; never overflows.

    With s = min/max of |g1|, |Gamma| (so s <= 1) it is 2 s / (1 + s^2)^1.5
    when |g1| >= |Gamma| and 2 s^2 / (1 + s^2)^1.5 otherwise.
    """
    a = np.abs(np.asarray(g1, dtype=float))
    b = np.abs(np.asarray(rddi, dtype=float))
    hi = np.maximum(a, b)
    s = np.divide(np.minimum(a, b), hi, out=np.zeros_like(hi), where=hi > 0.0)
    return np.where(a >= b, 2.0 * s, 2.0 * s * s) / (1.0 + s * s) ** 1.5


def peak_height(g1, rddi):
    return peak_amplitude(g1, rddi) * PEAK_SHAPE


def closed_form_concurrence(g1, rddi, t):
    """(2 g1^2 Gamma/Omega^3) |sin Omega t| (1 - cos Omega t) for g2 = 0."""
    phase = np.hypot(g1, rddi) * np.asarray(t, dtype=float)
    return peak_amplitude(g1, rddi) * np.abs(np.sin(phase)) * (1.0 - np.cos(phase))


def hamiltonians(g1, g2, rddi) -> np.ndarray:
    g1, g2, rddi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (g1, g2, rddi)))
    h = np.zeros(g1.shape + (3, 3))
    h[..., 0, 1] = h[..., 1, 0] = g1
    h[..., 0, 2] = h[..., 2, 0] = g2
    h[..., 1, 2] = h[..., 2, 1] = rddi
    return h


def propagate(g1, g2, rddi, t) -> np.ndarray:
    """Photon-fed psi(t) from eigh of H, shape (n, nt, 3) for n couplings.

    t has shape (nt,) for one grid shared by all couplings, or (n, nt).  H is
    scaled by its largest entry before eigh, so entries near 1e300 stay finite.
    """
    h = hamiltonians(np.atleast_1d(g1), np.atleast_1d(g2), np.atleast_1d(rddi))
    scale = np.max(np.abs(h), axis=(1, 2))
    scale = np.where(scale > 0.0, scale, 1.0)
    w, v = np.linalg.eigh(h / scale[:, None, None])
    w = w * scale[:, None]
    # psi(t)_i = sum_j v[i, j] exp(-i w_j t) v[0, j] for psi(0) = (1, 0, 0).
    phases = np.exp(-1j * w[:, None, :] * np.atleast_2d(np.asarray(t, dtype=float))[:, :, None])
    return np.einsum("nij,ntj->nti", v, phases * v[:, None, 0, :])


def concurrence(psi) -> np.ndarray:
    psi = np.asarray(psi)
    return 2.0 * np.abs(psi[..., 1] * np.conj(psi[..., 2]))


def omega_full(g1, g2, rddi):
    """Largest eigenvalue of H, i.e. Omega for the full model (exact at g2 = 0)."""
    return np.linalg.eigvalsh(hamiltonians(g1, g2, rddi))[..., -1]


def spectral_norm_over_scale(g1: float, g2: float, rddi: float) -> float:
    """||H||_2 / max|H_ij|, computed on the scaled matrix so it never overflows."""
    scale = max(abs(g1), abs(g2), abs(rddi))
    return float(np.max(np.abs(np.linalg.eigvalsh(hamiltonians(g1, g2, rddi) / scale))))


def true_peak(g1: float, g2: float, rddi: float) -> float:
    """Maximum over one period of the propagated concurrence, refined to ~1e-13.

    Each of the two peaks near Omega t = 2pi/3 and 4pi/3 is bracketed by a
    window of a sixth of the period and zoomed in on four times on a
    201-point grid.
    """
    period = 2.0 * math.pi / float(omega_full(g1, g2, rddi))
    best = 0.0
    for centre in (period / 3.0, 2.0 * period / 3.0):
        lo, hi = centre - period / 12.0, centre + period / 12.0
        for _ in range(4):
            grid = np.linspace(lo, hi, 201)
            values = concurrence(propagate([g1], [g2], [rddi], grid)[0])
            k = int(np.argmax(values))
            best = max(best, float(values[k]))
            step = grid[1] - grid[0]
            lo, hi = grid[k] - step, grid[k] + step
    return best


def rk4_error_bound(step_phase: float, steps: int) -> float:
    """Global error bound of classic RK4 on a unitary problem, with a factor 10 margin.

    step_phase is ||H|| dt; the local error of one step is the Taylor
    remainder step_phase^5/120.
    """
    return 10.0 * steps * step_phase**5 / 120.0 + 1e-12
