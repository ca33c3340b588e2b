"""Eigenvalue branches of the single-excitation block and the stationary dark state.

With only atom 1 coupled to the cavity the 3x3 block has eigenvalues
{0, +Omega, -Omega} with Omega = sqrt(g1^2 + Gamma^2).  The zero branch
belongs to a superposition of photon and atom 2 with no atom-1 weight,
which the dynamics cannot touch.  Writes spectrum_branches.svg.
"""

import numpy as np

from cavitypair import (
    ModelParams,
    analytic_spectrum,
    build_single_excitation_h,
    evolve_spectral,
    hermitian_eigendecompose,
)
from cavitypair.svgplot import line_plot

g1 = 1.0
gammas = np.linspace(0.01, 2.0, 120)

params = ModelParams(g1=g1, g2=0.0, rddi=gammas)
upper = analytic_spectrum(params).omega
eigenvalues = hermitian_eigendecompose(build_single_excitation_h(params)).eigenvalues
assert np.max(np.abs(eigenvalues - np.multiply.outer(upper, [-1.0, 0.0, 1.0]))) < 1e-12

print(f"eigensolver matches sqrt(g1^2 + Gamma^2) on {gammas.size} points")

# The dark state does nothing: propagate it for many cycles and watch the overlap.
params = ModelParams(g1=1.0, g2=0.0, rddi=0.5)
spectrum = analytic_spectrum(params)
decomp = hermitian_eigendecompose(build_single_excitation_h(params))
times = np.linspace(0.0, 50.0, 11)
states = evolve_spectral(decomp, spectrum.dark.astype(complex), times)
overlaps = np.abs(states @ spectrum.dark.conj())
print(f"dark state at (g1, Gamma) = (1, 0.5): {np.round(spectrum.dark, 6)}")
print(f"dark-state overlap stays at 1: min |<dark|psi(t)>| = {overlaps.min():.15f}")

svg = line_plot(
    gammas,
    [upper, np.zeros_like(gammas), -upper],
    ["+Omega", "dark (0)", "-Omega"],
    "Gamma / g0",
    "eigenvalue / g0",
    "Single-excitation spectrum vs exchange strength",
)
with open("spectrum_branches.svg", "w", newline="") as f:
    f.write(svg)
print("wrote spectrum_branches.svg")
