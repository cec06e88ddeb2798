"""How long until playback starts?  The other side of the prefetch trade-off.

Waiting for x frames protects against stalls but costs start-up time.  The
fill-to-threshold time is analyzed through its depletion dual; this script
tabulates the delay CDF for several thresholds, marks the deterministic
"burst never pauses" atom that dominates small thresholds, and checks the
mean against both a survival-integral and the prefetch simulator.
"""

import csv
import pathlib

import numpy as np

from fluidqoe import (
    SimConfig,
    expected_startup_delay,
    prefetch_times,
    startup_delay_cdf,
    stationary_distribution,
    validate_model,
)
from fluidqoe.startup import startup_atoms

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

model = validate_model([[-6.0, 6.0], [2.0, -2.0]], [2.0, 30.0], 25.0)
pi = stationary_distribution(model)

print("Deterministic-path atoms (fill completes before any state change):")
for x in (20.0, 50.0, 100.0):
    times, masses = startup_atoms(model, x)
    print(f"  x={x:5.0f}: jump of {masses[1]:.3f} at t = {times[1]:.3f}s "
          f"(burst state), {masses[0]:.2e} at {times[0]:.1f}s (slow state)")

t_grid = np.round(np.arange(0.25, 12.01, 0.25), 10)
curves = {}
for x in (20.0, 50.0, 100.0):
    curves[x] = [float(pi @ cdf.sum(axis=1)) for cdf in startup_delay_cdf(model, x, t_grid)]

with open(OUT / "startup_delay_cdf.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["t", "cdf_x20", "cdf_x50", "cdf_x100"])
    for i, t in enumerate(t_grid):
        w.writerow([t, curves[20.0][i], curves[50.0][i], curves[100.0][i]])
print(f"\nwritten: {OUT / 'startup_delay_cdf.csv'}")
print("CDF curves shift right as the threshold grows (larger x = longer wait).\n")

print(f"{'x':>6} {'mean (transform)':>17} {'mean (simulated)':>17}")
for x in (20.0, 50.0, 100.0):
    mean = expected_startup_delay(model, x)
    delays, _ = prefetch_times(model, x, SimConfig(replications=50_000, seed=3))
    print(f"{x:6.0f} {mean:17.4f} {float(delays.mean()):17.4f}")
