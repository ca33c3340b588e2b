"""Concurrence over the (position, time) product grid as a grayscale raster.

Each row propagates the photon-fed state with atom 1 parked at one x1 and
records the two-atom concurrence; dark cells mark strong entanglement.  Near
the waist edges the oscillation slows down (small g1) while the peaks grow
(larger Gamma/g1), so the bright fast stripes at the center fan out into
slow dark bands at the edges.  Writes time_position_mesh.svg.
"""

import numpy as np

from cavitypair import CavityGeometry, mesh, params_at
from cavitypair.svgplot import raster_plot

geo = CavityGeometry()
x1 = np.linspace(-2.0, 2.0, 81)

# one full period of the slowest grid point sets the time window
slowest = params_at(geo, x1).omega.min()
t_max = 2.0 * np.pi / slowest
t = np.linspace(0.0, t_max, 161)

values = mesh(geo, x1, t)
i, j = np.unravel_index(np.argmax(values), values.shape)
print(f"grid: {x1.size} positions x {t.size} times, t_max = {t_max:.1f} / g0")
print(f"largest concurrence {values[i, j]:.4f} at x1 = {x1[i]:+.2f} w0, t = {t[j]:.1f}")

# transpose so columns follow position and rows follow time (t = 0 at the bottom)
svg = raster_plot(
    values.T,
    (x1[0], x1[-1]),
    (t[0], t[-1]),
    "x1 (w0)",
    "t (1/g0)",
    "Concurrence over position and time",
)
with open("time_position_mesh.svg", "w", newline="") as f:
    f.write(svg)
print("wrote time_position_mesh.svg")
