"""Exception hierarchy shared by all cavitypair modules.

Two branches matter to callers: ``ParameterError`` marks inputs that are
rejected up front (bad couplings, unnormalized states, degenerate models),
``NumericalContractError`` marks a numerical guarantee that failed after the
fact (non-Hermitian input, residual bounds, invalid density matrices).  The
command-line front end maps the former to exit code 2 and the latter to 3.
"""


class CavityPairError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(CavityPairError, ValueError):
    """Invalid or inconsistent input parameters."""


class NumericalContractError(CavityPairError):
    """A numerical post-condition (residual, tolerance, structure) failed."""


class NonHermitianInput(NumericalContractError):
    """Matrix handed to a Hermitian-only routine exceeds the Hermiticity tolerance."""


class NoConvergence(NumericalContractError):
    """Eigensolver failed to converge or violated its residual bound."""


class DimensionMismatch(ParameterError):
    """Vector/matrix dimensions do not agree."""


class UnnormalizedState(ParameterError):
    """State vector norm deviates from 1 beyond tolerance."""


class InvalidStep(ParameterError):
    """Integrator step size is non-positive or exceeds the integration span."""


class DegenerateModel(ParameterError):
    """All couplings vanish: no oscillation frequency, period undefined."""


class ZeroCoupling(ParameterError):
    """Atom-1 coupling is zero where a coupling ratio or denominator needs it."""


class InvalidDensityMatrix(NumericalContractError):
    """Density matrix violates Hermiticity, unit trace or positivity."""


class PatternMismatch(ParameterError):
    """Density matrix does not have the sparsity pattern the fast path requires."""


class NonpositiveSeparation(ParameterError):
    """Interatomic separation must be strictly positive."""


class CoincidentAtoms(ParameterError):
    """Both atoms placed at the same position."""
