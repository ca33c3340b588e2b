"""Wootters concurrence for two qubits, plus the model's coherence fast path.

Two-qubit density matrices use the ordered product basis
(|ee>, |eg>, |ge>, |gg>), atom 1 first.  The general route needs the four
non-negative square roots lambda_i of the eigenvalues of
rho (sy x sy) rho* (sy x sy) in decreasing order and returns
max{0, l1 - l2 - l3 - l4}.  Those eigenvalues equal the spectrum of the
Hermitian product sqrt(rho) rho_tilde sqrt(rho) = K K^dag with
K = sqrt(rho) (sy x sy) sqrt(rho)*, so the lambda_i are exactly the singular
values of K.  The SVD form is the one implemented: the eigenvalue forms lose
half the digits on rank-deficient states (sqrt of an eps-size eigenvalue is
~1e-8) while singular values keep absolute eps accuracy, which the fast-path
agreement contract at 1e-10 requires.

States produced by tracing the cavity mode out of a single-excitation pure
state carry a single coherence between |eg> and |ge| and no |ee> weight; for
those the concurrence reduces exactly to twice the coherence magnitude, which
``xstate_concurrence`` exploits after checking the sparsity pattern.
"""

import math

import numpy as np

from .errors import InvalidDensityMatrix, PatternMismatch
from .qmath import hermitian_eigendecompose, hermiticity_defect

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
PATTERN_TOL = 1e-12
CLAMP_SLACK = 1e-10
RANK_TOL = 1e-13

# Entries that must vanish for the fast path: all but the diagonal and the (|eg>, |ge>) coherence.
_OFF_PATTERN = tuple((i, j) for i in range(4) for j in range(4) if i != j and {i, j} != {1, 2})

# (sigma_y x sigma_y) on the ordered basis (|ee>, |eg>, |ge>, |gg>).
SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def _as_density_matrix(rho: np.ndarray) -> np.ndarray:
    """A finite 4x4 complex matrix within 1e-12 of Hermitian and 1e-10 of unit trace.

    Any NaN or infinite entry makes the defect NaN or infinite, which fails the Hermiticity bound.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidDensityMatrix(f"expected a 4x4 matrix, got shape {rho.shape}")
    defect = hermiticity_defect(rho)
    if not defect <= HERMITICITY_TOL:
        raise InvalidDensityMatrix(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.0e}")
    trace = float(rho.trace().real)
    if abs(trace - 1.0) > TRACE_TOL:
        raise InvalidDensityMatrix(f"trace {trace!r} deviates from 1 beyond {TRACE_TOL:.0e}")
    return rho


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of a two-qubit density matrix, in [0, 1].

    Parameters
    ----------
    rho : (4, 4) array_like
        Hermitian, unit trace, positive semidefinite within 1e-10.

    Raises
    ------
    InvalidDensityMatrix
        On Hermiticity/trace/positivity violations beyond tolerance, or if
        the computed value exceeds 1 by more than the 1e-10 clamp slack.
    NonHermitianInput
        If the Hermiticity defect, within the absolute 1e-12, still exceeds
        1e-12 * max|rho_ij| (the eigensolver's relative bound).
    """
    decomp = hermitian_eigendecompose(_as_density_matrix(rho))
    eigenvalues = decomp.eigenvalues
    if eigenvalues[0] < -PSD_TOL:
        raise InvalidDensityMatrix(f"negative eigenvalue {eigenvalues[0]!r} beyond -{PSD_TOL:.0e}")

    # Positivity slack must not leak into the square root, and eps-size
    # eigenvalues of rank-deficient states must be flattened to exact zeros:
    # their square roots (~1e-8) would otherwise dominate the small lambdas.
    clean = np.where(eigenvalues > RANK_TOL * eigenvalues[-1], eigenvalues, 0.0)
    root = np.sqrt(clean)

    # lambda_i = singular values of K, since K K^dag = sqrt(rho) rho_tilde sqrt(rho).  With
    # sqrt(rho) = V S V^dag, K = V (S V^dag SF V* S) V^T, and V, V^T are unitary: the singular
    # values of the middle factor are those of K.
    conj = decomp.eigenvectors.conj()
    k = conj.T.dot(SPIN_FLIP).dot(conj) * np.multiply.outer(root, root)
    lam = np.linalg.svd(k, compute_uv=False).tolist()

    value = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    if value > 1.0 + CLAMP_SLACK:
        raise InvalidDensityMatrix(f"concurrence {value!r} exceeds 1 beyond clamp slack")
    return min(value, 1.0)


def xstate_concurrence(rho: np.ndarray) -> float:
    """Fast-path concurrence 2|rho[eg, ge]| for single-coherence states.

    Requires that only the diagonal and the (|eg>, |ge>) coherence are
    non-zero beyond 1e-12, and that the coherence branch dominates:
    rho[ee,ee] * rho[gg,gg] <= |rho[eg,ge]|^2 + 1e-12.  Raises PatternMismatch
    otherwise.  Agrees with ``wootters_concurrence`` to 1e-10 on every state
    produced by the reduced-density pipeline.
    """
    r = _as_density_matrix(rho).tolist()  # finite entries: Python arithmetic from here on
    stray = max(abs(r[i][j]) for i, j in _OFF_PATTERN)
    if stray > PATTERN_TOL:
        raise PatternMismatch(f"off-pattern element of magnitude {stray:.3e} present")

    populations = [r[i][i].real for i in range(4)]
    if min(populations) < -PSD_TOL:
        raise InvalidDensityMatrix(f"negative population {min(populations)!r}")
    coherence = abs(r[1][2])
    # PSD of the central 2x2 block, checked in closed form.
    block_min = 0.5 * (populations[1] + populations[2]) - math.hypot(
        0.5 * (populations[1] - populations[2]), coherence
    )
    if block_min < -PSD_TOL:
        raise InvalidDensityMatrix(f"coherence block eigenvalue {block_min!r} negative")
    if populations[0] * populations[3] > coherence**2 + PATTERN_TOL:
        raise PatternMismatch(
            "outer populations dominate the coherence; fast path does not apply"
        )
    return 2.0 * coherence
